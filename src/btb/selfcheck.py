"""Property suites behind the command-line self check.

Each suite returns a list of records {"suite", "name", "status", "detail"};
"status" is "ok" or "fail".  Suites are deterministic for a fixed seed.  The
"quick" level keeps everything at one or two strands; "full" adds the
three-strand suites including the rank-720 independence certificate.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import algebra as alg
from . import coxeter as cox
from . import partitions as parts
from . import tensorrep as rep
from . import trace as tr
from . import invariant as inv
from .coeff import ONE, LaurentPoly, parse_poly, random_point, var

DEFAULT_SEED = 70520

X, Y, Z, W = tr.TRACE_PARAMS


def _rec(suite: str, name: str, ok: bool, detail: str = "") -> dict:
    return {"suite": suite, "name": name, "status": "ok" if ok else "fail", "detail": detail}


def random_basis_elem(rng, n: int) -> alg.AlgebraElement:
    pair = (parts.random_partition(rng, n), cox.random_signed_perm(rng, n))
    return alg.AlgebraElement(n, {pair: ONE})


def random_word(rng, n: int, length: int) -> cox.BraidWordB:
    letters = []
    for _ in range(length):
        k = rng.randint(0, n - 1)
        power = 1 if rng.random() < 0.5 else -1
        letters.append(("r", power) if k == 0 else ("s", k, power))
    return cox.BraidWordB(n, tuple(letters))


# -- suites ---------------------------------------------------------------------

def coeff_suite(seed: int, rounds: int = 60) -> list[dict]:
    rng = random.Random(seed)
    out = []

    def rand_poly():
        p = LaurentPoly.zero()
        for _ in range(rng.randint(0, 4)):
            exps = [rng.randint(-2, 2) for _ in range(6)]
            p = p + LaurentPoly.monomial(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), exps)
        return p

    def nonzero_point():
        while True:
            pt = random_point(rng)
            if all(pt):
                return pt

    ok_ring = ok_eval = ok_io = True
    for _ in range(rounds):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        ok_ring &= (a * b) * c == a * (b * c)
        ok_ring &= a * (b + c) == a * b + a * c
        ok_ring &= a * b == b * a
        pt = nonzero_point()
        ok_eval &= (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        ok_eval &= (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        ok_io &= parse_poly(str(a)) == a
        ok_io &= LaurentPoly.from_obj(a.to_obj()) == a
    out.append(_rec("coeff", "ring-axioms", ok_ring))
    out.append(_rec("coeff", "evaluation-homomorphism", ok_eval))
    out.append(_rec("coeff", "serialization-roundtrip", ok_io))
    return out


def partition_suite(seed: int, n_exhaustive: int = 3, n_bijection: int = 4) -> list[dict]:
    rng = random.Random(seed)
    out = []

    counts_ok = all(
        sum(1 for _ in parts.enumerate_partitions(n)) == parts.bell_number(n + 1)
        for n in range(0, 5)
    )
    out.append(_rec("partitions", "bell-census", counts_ok))

    ok = True
    for n in range(1, n_bijection + 1):
        for I in parts.enumerate_partitions(n):
            e_part, a_set = parts.psi(I)
            ok &= parts.phi(e_part, a_set) == I
    out.append(_rec("partitions", "psi-phi-roundtrip", ok))

    ok_i = ok_ii = ok_iii = True
    for n in range(2, n_exhaustive + 1):
        sigmas = [cox.eta(wd) for wd in cox.enumerate_group(n) if all(m > 0 for m in wd)]
        for I in parts.enumerate_partitions(n):
            for sigma in sigmas:
                for k in range(1, n + 1):
                    lhs = parts.apply_perm(sigma, parts.isolate(I, k))
                    rhs = parts.isolate(parts.apply_perm(sigma, I), sigma[k - 1])
                    ok_i &= lhs == rhs
                for jj in range(1, n + 1):
                    for kk in range(1, n + 1):
                        lhs = parts.apply_perm(sigma, parts.join_set(I, (jj, kk)))
                        rhs = parts.join_set(parts.apply_perm(sigma, I), (sigma[jj - 1], sigma[kk - 1]))
                        ok_ii &= lhs == rhs
                for kk in range(1, n):
                    if sigma[kk - 1] < sigma[n - 1]:
                        lhs = parts.apply_perm(sigma, parts.tau_keep(I, n, kk))
                        rhs = parts.tau_keep(parts.apply_perm(sigma, I), sigma[n - 1], sigma[kk - 1])
                        ok_iii &= lhs == rhs
    out.append(_rec("partitions", "perm-remove-compat", ok_i))
    out.append(_rec("partitions", "perm-join-compat", ok_ii))
    out.append(_rec("partitions", "perm-contract-compat", ok_iii))

    ok_eq = True
    for n in range(2, n_exhaustive + 1):
        for J in parts.enumerate_partitions(n - 1):
            Jn = parts.embed(J, n)
            for I in parts.enumerate_partitions(n):
                for k in range(1, n):
                    sig_n = cox.eta(cox.sigma_shift_inv(n, n, k))
                    lhs = parts.tau(parts.join(parts.apply_perm(sig_n, Jn), I), n, k)
                    sig_prev = cox.eta(cox.sigma_shift_inv(n - 1, n - 1, k)) if n - 1 > k else tuple(range(1, n))
                    rhs = parts.join(parts.apply_perm(sig_prev, J), parts.tau(I, n, k))
                    ok_eq &= lhs == rhs
    out.append(_rec("partitions", "contract-exchange", ok_eq))

    ok_join = True
    for _ in range(120):
        n = rng.randint(1, 5)
        a, b, c = (parts.random_partition(rng, n) for _ in range(3))
        ok_join &= parts.join(a, b) == parts.join(b, a)
        ok_join &= parts.join(parts.join(a, b), c) == parts.join(a, parts.join(b, c))
        ok_join &= parts.join(a, a) == a
        ok_join &= parts.join(a, parts.singletons(n)) == a
    out.append(_rec("partitions", "join-semilattice", ok_join))
    return out


def coxeter_suite(seed: int, n_bfs: int = 3) -> list[dict]:
    out = []
    ok_len = ok_desc = True
    for n in range(1, n_bfs + 1):
        gens = [cox.GEN_B] + [("T", i) for i in range(1, n)]
        dist = {cox.identity(n): 0}
        frontier = [cox.identity(n)]
        while frontier:
            nxt = []
            for wd in frontier:
                for g in gens:
                    w2 = cox.apply_letter(wd, g)
                    if w2 not in dist:
                        dist[w2] = dist[wd] + 1
                        nxt.append(w2)
            frontier = nxt
        for wd, d in dist.items():
            ok_len &= cox.length(wd) == d
            for g in gens:
                drops = dist[cox.apply_letter(wd, g)] < d
                ok_desc &= drops == (g in cox.right_descents(wd))
    out.append(_rec("coxeter", "length-vs-bfs", ok_len))
    out.append(_rec("coxeter", "descents-vs-bfs", ok_desc))

    ok_nf = ok_count = True
    for n in range(1, 5):
        seen = set()
        for wd in cox.enumerate_group(n):
            seen.add(wd)
            ms = cox.normal_form(wd)
            word = [g for k, code in enumerate(ms, start=1) for g in alg.block_gens(k, code)]
            ok_nf &= cox.word_to_perm(n, word) == wd and cox.from_blocks(ms) == wd
            ok_nf &= len(word) == cox.length(wd)
            rw = cox.reduced_word(wd)
            ok_nf &= len(rw) == cox.length(wd) and cox.word_to_perm(n, rw) == wd
        ok_count &= len(seen) == 2 ** n * math.factorial(n)
    out.append(_rec("coxeter", "normal-form-roundtrip", ok_nf))
    out.append(_rec("coxeter", "group-census", ok_count))

    rng = random.Random(seed)
    ok_eta = True
    for _ in range(80):
        n = rng.randint(1, 4)
        a, b = cox.random_signed_perm(rng, n), cox.random_signed_perm(rng, n)
        composed = tuple(cox.eta(a)[m - 1] for m in cox.eta(b))
        ok_eta &= cox.eta(cox.w_mul(a, b)) == composed
    out.append(_rec("coxeter", "eta-homomorphism", ok_eta))
    return out


def relation_suite(n_max: int, seed: int = 0) -> list[dict]:
    out = []
    for n in range(1, n_max + 1):
        bad = []
        for name, sides in rep.defining_relations(n):
            values = [
                alg.AlgebraElement.sum_of(
                    n, ((alg.word_product(n, word), coeff) for coeff, word in side)
                )
                for side in sides
            ]
            if any(v != values[0] for v in values[1:]):
                bad.append(name)
        out.append(_rec("relations", f"defining-relations-mul[n={n}]", not bad, ",".join(bad)))
        report = rep.check_relations(n, seed=seed)
        fails = [r["relation"] + r["index"] for r in report if r["status"] != "ok"]
        out.append(_rec("relations", f"defining-relations-tensor[n={n}]", not fails, ",".join(fails)))
    return out


def rewriting_suite() -> list[dict]:
    """The auxiliary identities the multiplication engine must reproduce."""
    out = []
    qu, qv = alg.SYMBOLIC.qu, alg.SYMBOLIC.qv

    def barred(n_strands: int, k: int) -> alg.AlgebraElement:
        gens = [("T", i) for i in range(k - 1, 0, -1)] + [alg.GEN_B] + [("T", i) for i in range(1, k)]
        return alg.word_product(n_strands, gens)

    def tee_barred(n: int, j: int, sign: int) -> alg.AlgebraElement:
        e = alg.word_product(n, alg.block_gens(n, (j, 1)))
        return alg.mul(e, barred(n, j)) if sign < 0 else e

    ok = True
    for n in (2, 3):
        B1 = alg.gen_elem(alg.GEN_B, n)
        F1 = alg.gen_elem(("F", 1), n)
        for k in range(1, n + 1):
            for sign in (1, -1):
                tbar = tee_barred(n, k, sign)
                for j in range(1, n):
                    Tj = alg.gen_elem(("T", j), n)
                    Ej = alg.gen_elem(("E", j), n)
                    lhs = alg.mul(tbar, Tj)
                    if j < k - 1:
                        rhs = alg.mul(Tj, tbar)
                    elif j == k - 1:
                        if sign < 0:
                            rhs = tee_barred(n, k - 1, -1) + alg.mul(tbar, Ej).scaled(qu)
                        else:
                            rhs = tee_barred(n, k - 1, 1)
                    elif j == k:
                        if sign < 0:
                            rhs = tee_barred(n, k + 1, -1)
                        else:
                            rhs = tee_barred(n, k + 1, 1) + alg.mul(tbar, Ej).scaled(qu)
                    else:
                        rhs = alg.mul(alg.gen_elem(("T", j - 1), n), tbar)
                    ok &= lhs == rhs
                lhs = alg.mul(tbar, B1)
                if k == 1:
                    if sign > 0:
                        rhs = tee_barred(n, 1, -1)
                    else:
                        rhs = tee_barred(n, 1, 1) + alg.mul(tbar, F1).scaled(qv)
                else:
                    rhs = alg.mul(B1, tbar)
                ok &= lhs == rhs
    out.append(_rec("rewriting", "barred-block-shift", ok))

    ok = True
    for n in (2, 3):
        cb = alg.get_cbasis(n)
        B1 = alg.gen_elem(alg.GEN_B, n)
        F1 = alg.gen_elem(("F", 1), n)
        for k in range(1, n + 1):
            for sign in (1, -1):
                tee = cb.tee_elem(n, (k, sign))
                for j in range(1, n):
                    Tj = alg.gen_elem(("T", j), n)
                    Ej = alg.gen_elem(("E", j), n)
                    lhs = alg.mul(tee, Tj)
                    if j < k - 1:
                        rhs = alg.mul(Tj, tee)
                    elif j == k - 1:
                        rhs = cb.tee_elem(n, (k - 1, sign))
                    elif j == k:
                        rhs = cb.tee_elem(n, (k + 1, sign)) + alg.mul(tee, Ej).scaled(qu)
                    else:
                        rhs = alg.mul(alg.gen_elem(("T", j - 1), n), tee)
                    ok &= lhs == rhs
                lhs = alg.mul(tee, B1)
                if k == 1:
                    rhs = cb.tee_elem(n, (1, -sign)) if sign > 0 else (
                        cb.tee_elem(n, (1, 1)) + alg.mul(tee, F1).scaled(qv))
                    ok &= lhs == rhs
                elif sign > 0:
                    ok &= lhs == alg.mul(B1, tee)
                else:
                    chain = alg.word_product(n, alg.inverse_gens(alg.block_gens(k - 1, (1, 1))))
                    e1k = alg.ef_elem(parts.join_set(parts.singletons(n), (1, k)))
                    alpha = alg.mul_many([B1, chain, cb.tee_elem(n, (1, -1)), e1k]) - \
                        alg.mul_many([chain, cb.tee_elem(n, (1, -1)), B1, e1k])
                    ok &= lhs == alg.mul(B1, tee) + alpha.scaled(qu)
    out.append(_rec("rewriting", "plain-block-shift", ok))

    ok_rest = True
    for n in (2, 3):
        cb = alg.get_cbasis(n)
        for k in range(1, n):
            Tk = alg.gen_elem(("T", k), n)
            lhs = alg.mul_many([Tk, cb.bk_elem(k), cb.bk_elem(k + 1)])
            rhs = alg.mul_many([cb.bk_elem(k), Tk, cb.bk_elem(k)])
            ok_rest &= lhs == rhs
        for k in range(2, n + 1):
            for j in range(1, k):
                lhs = alg.mul(cb.tee_elem(k, (j, -1)), cb.bk_elem(k))
                rhs = alg.mul(cb.bk_elem(k - 1), cb.tee_elem(k, (j, -1)))
                ok_rest &= lhs == rhs
    out.append(_rec("rewriting", "loop-block-exchange", ok_rest))

    rng = random.Random(11)
    ok_act = True
    for n in (2, 3):
        for _ in range(25):
            wd = cox.random_signed_perm(rng, n)
            I = parts.random_partition(rng, n)
            tw = alg.tw_elem(n, wd)
            tw_inv = alg.word_product(n, alg.inverse_gens(cox.reduced_word(wd)))
            lhs = alg.mul_many([tw, alg.ef_elem(I), tw_inv])
            ok_act &= lhs == alg.ef_elem(parts.apply_perm(cox.eta(wd), I))
    out.append(_rec("rewriting", "word-conjugates-ties", ok_act))

    ok_cn = True
    for n in (2, 3):
        cb = alg.get_cbasis(n)
        for _ in range(15):
            ms = tuple((rng.randint(1, k), rng.choice((1, -1))) for k in range(1, n + 1))
            I = parts.random_partition(rng, n)
            v = cb.prefix(ms)
            gens = [g for k, code in enumerate(ms, start=1) for g in alg.block_gens(k, code)]
            v_inv = alg.word_product(n, alg.inverse_gens(gens))
            assert alg.mul(v, v_inv) == alg.unit(n)
            word_perm = cox.from_blocks(ms)
            lhs = alg.mul_many([v, alg.ef_elem(I), v_inv])
            ok_cn &= lhs == alg.ef_elem(parts.apply_perm(cox.eta(word_perm), I))
    out.append(_rec("rewriting", "descriptor-conjugates-ties", ok_cn))
    return out


def oracle_suite(n_max: int, pairs: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for n in range(1, n_max + 1):
        ok = True
        for _ in range(pairs):
            a = random_basis_elem(rng, n)
            b = random_basis_elem(rng, n)
            vec = rep.basis_vector(n, rep.random_multi_index(rng, n))
            lhs = rep.apply_elem(vec, alg.mul(a, b))
            rhs = rep.apply_elem(rep.apply_elem(vec, a), b)
            ok &= lhs == rhs
        out.append(_rec("oracle", f"representation-homomorphism[n={n}]", ok, f"{pairs} pairs"))
    ok_assoc = True
    for n in range(1, n_max + 1):
        for _ in range(max(10, pairs // 10)):
            a, b, c = (random_basis_elem(rng, n) for _ in range(3))
            ok_assoc &= alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))
    out.append(_rec("oracle", "associativity", ok_assoc))
    return out


def dimension_suite(n_max: int = 3) -> list[dict]:
    out = []
    for n in range(1, n_max + 1):
        expected = parts.bell_number(n + 1) * 2 ** n * math.factorial(n)
        count = sum(1 for _ in alg.basis_pairs(n))
        out.append(_rec("dimension", f"basis-census[n={n}]", count == expected, f"{count} vs {expected}"))
    return out


def independence_suite(n_max: int, seed: int, points: int = 3) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for n in range(1, n_max + 1):
        pts = []
        while len(pts) < points:
            u0 = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            v0 = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            if u0 and v0:
                pts.append((u0, v0))
        report = rep.independence_certificate(n, pts)
        out.append(_rec(
            "independence", f"rank-certificate[n={n}]", report["full_rank"],
            f"ranks {report['ranks']} expected {report['expected']}",
        ))
    control = rep.independence_certificate(2, [(Fraction(2), Fraction(3))], d=1)
    out.append(_rec(
        "independence", "negative-control[d=1,n=2]",
        control["ranks"][0] < control["expected"],
        f"rank {control['ranks'][0]} < {control['expected']}",
    ))
    return out


def markov_suite(n_max: int, instances: int, seed: int,
                 params3: alg.RingParams | None = None) -> list[dict]:
    """Trace rules; symbolic up to two strands, specialized at three."""
    rng = random.Random(seed)
    out = []
    for n in range(1, n_max + 1):
        params = alg.SYMBOLIC
        if n >= 3:
            if params3 is None:
                u0 = Fraction(rng.randint(2, 30), rng.randint(1, 7))
                v0 = Fraction(-rng.randint(2, 30), rng.randint(1, 7))
                params3 = alg.specialized_params(u0, v0)
            params = params3
        m = n + 1
        cb = alg.get_cbasis(m, params)
        b_new = cb.bk_elem(m)
        t_n = alg.gen_elem(("T", n), m, params)
        e_n = alg.gen_elem(("E", n), m, params)
        f_m = alg.gen_elem(("F", m), m, params)
        f_n_small = alg.gen_elem(("F", n), n, params)
        b_n_small = alg.get_cbasis(n, params).bk_elem(n)
        ok = {key: True for key in ("unit", "zT", "zET", "xE", "yB", "wBF", "loopE", "sym")}
        for _ in range(instances):
            xs = random_basis_elem(rng, n)
            xe = alg.embed(xs, m)
            t0 = tr.markov_trace(xs, params)
            ok["zT"] &= tr.markov_trace(alg.mul(xe, t_n, params), params) == Z * t0
            ok["zET"] &= tr.markov_trace(alg.mul_many([xe, e_n, t_n], params), params) == Z * t0
            ok["xE"] &= tr.markov_trace(alg.mul(xe, e_n, params), params) == X * t0
            ok["yB"] &= tr.markov_trace(alg.mul(xe, b_new, params), params) == Y * t0
            ok["wBF"] &= tr.markov_trace(alg.mul_many([xe, b_new, f_m], params), params) == W * t0
            loop_lhs = tr.markov_trace(alg.mul_many([xe, b_new, e_n], params), params)
            loop_rhs = (X * tr.markov_trace(alg.mul(xs, b_n_small, params), params)
                        - X * tr.markov_trace(alg.mul_many([xs, b_n_small, f_n_small], params), params)
                        + W * tr.markov_trace(alg.mul(xs, f_n_small, params), params))
            ok["loopE"] &= loop_lhs == loop_rhs
            ys = random_basis_elem(rng, n)
            ok["sym"] &= tr.markov_trace(alg.mul(xs, ys, params), params) == \
                tr.markov_trace(alg.mul(ys, xs, params), params)
        ok["unit"] = tr.markov_trace(alg.unit(n), params) == ONE
        for key, good in ok.items():
            out.append(_rec("markov", f"{key}[n={n}]", good, f"{instances} instances"))
    return out


def trace_lemma_suite(n_max: int, instances: int, seed: int,
                      params3: alg.RingParams | None = None) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for n in range(2, n_max + 1):
        params = alg.SYMBOLIC
        if n >= 3 and params3 is not None:
            params = params3
        t_top = alg.gen_elem(("T", n - 1), n, params)
        t_top_inv = alg.gen_elem(("T-", n - 1), n, params)
        e_top = alg.gen_elem(("E", n - 1), n, params)
        ok_bi = ok_conj = ok_commE = ok_commT = ok_multi = True
        for _ in range(instances):
            xs = random_basis_elem(rng, n - 1)
            zs = random_basis_elem(rng, n - 1)
            ys = random_basis_elem(rng, n)
            xe, ze = alg.embed(xs, n), alg.embed(zs, n)
            lhs = tr.theta(alg.mul_many([xe, ys, ze], params), params)
            rhs = alg.mul_many([xs, tr.theta(ys, params), zs], params)
            ok_bi &= lhs == rhs
            dropped = alg.embed(tr.theta(xs, params), n - 1)
            lhs = tr.theta(alg.mul_many([t_top, xe, t_top_inv], params), params)
            ok_conj &= lhs == dropped
            lhs = tr.theta(alg.mul_many([t_top_inv, xe, t_top], params), params)
            ok_conj &= lhs == dropped
            double = lambda e: tr.theta(tr.theta(e, params), params)
            ok_commE &= double(alg.mul(e_top, ys, params)) == double(alg.mul(ys, e_top, params))
            ok_commT &= double(alg.mul(t_top, ys, params)) == double(alg.mul(ys, t_top, params))
            # the case table with an arbitrary (non-monomial) left factor
            v = random_basis_elem(rng, n - 1) + \
                random_basis_elem(rng, n - 1).scaled(alg.SYMBOLIC.qu)
            ve = alg.embed(v, n)
            I = parts.random_partition(rng, n)
            cb_prev = alg.get_cbasis(n - 1, params)
            for code in cox.block_choices(n):
                j, sign = code
                m_elem = alg.get_cbasis(n, params).tee_elem(n, code)
                probe = alg.mul_many([ve, m_elem, alg.ef_elem(I)], params)
                got = tr.theta(probe, params)
                tied = I.parent[n] != n
                if j < n:
                    expected = alg.mul_many(
                        [v, cb_prev.tee_elem(n - 1, code), alg.ef_elem(parts.tau(I, n, j))], params
                    ).scaled(Z)
                elif sign > 0:
                    expected = alg.mul(v, alg.ef_elem(parts.remove(I, n)), params)
                    if tied:
                        expected = expected.scaled(X)
                else:
                    mates = [i for i in range(n) if I.parent[i] == I.parent[n]]
                    if not tied:
                        expected = alg.mul(v, alg.ef_elem(parts.remove(I, n)), params).scaled(Y)
                    elif 0 in mates:
                        expected = alg.mul(v, alg.ef_elem(parts.remove(I, n)), params).scaled(W)
                    else:
                        kk = min(mates)
                        ef = alg.ef_elem(parts.tau(I, n, kk))
                        bk = cb_prev.bk_elem(kk)
                        fk = alg.gen_elem(("F", kk), n - 1, params)
                        val = (alg.mul(bk, ef, params).scaled(X)
                               - alg.mul_many([bk, fk, ef], params).scaled(X)
                               + alg.mul(fk, ef, params).scaled(W))
                        expected = alg.mul(v, val, params)
                ok_multi &= got == expected
        out.append(_rec("trace-lemmas", f"bimodule[n={n}]", ok_bi))
        out.append(_rec("trace-lemmas", f"conjugation[n={n}]", ok_conj))
        out.append(_rec("trace-lemmas", f"double-trace-commutes-E[n={n}]", ok_commE))
        out.append(_rec("trace-lemmas", f"double-trace-commutes-T[n={n}]", ok_commT))
        out.append(_rec("trace-lemmas", f"case-table-left-factor[n={n}]", ok_multi))
    return out


def invariant_suite(pairs: int, seed: int, n_max: int = 3) -> list[dict]:
    rng = random.Random(seed)
    out = []
    golden = [
        ("", 1, "1"),
        ("r", 1, "y"),
        ("s1", 2, "1"),
    ]
    ok_gold = True
    for text, n, expect in golden:
        val = inv.delta_b(cox.parse_braid_word(text, n))
        ok_gold &= val.pretty() == expect
    loop2 = inv.delta_b(cox.parse_braid_word("r r", 1))
    qv = alg.SYMBOLIC.qv
    ok_gold &= loop2.numer == ONE + qv * var("w") and loop2.z_pow == 0 and loop2.l_pow == 0
    out.append(_rec("invariant", "golden-values", ok_gold))

    ok_conj = True
    half = max(1, pairs // 2)
    for _ in range(half):
        n = rng.randint(2, n_max)
        a = random_word(rng, n, rng.randint(1, 4))
        b = random_word(rng, n, rng.randint(1, 4))
        ab = cox.BraidWordB(n, a.letters + b.letters)
        ba = cox.BraidWordB(n, b.letters + a.letters)
        ok_conj &= inv.invariant_eq(inv.delta_b(ab), inv.delta_b(ba))
    out.append(_rec("invariant", "conjugation-moves", ok_conj, f"{half} pairs"))

    ok_stab = True
    for _ in range(half):
        n = rng.randint(1, n_max - 1)
        a = random_word(rng, n, rng.randint(0, 4))
        base = inv.delta_b(a)
        for power in (1, -1):
            stabbed = cox.BraidWordB(n + 1, a.letters + (("s", n, power),))
            ok_stab &= inv.invariant_eq(base, inv.delta_b(stabbed))
    out.append(_rec("invariant", "stabilization-moves", ok_stab, f"{half} pairs, both signs"))

    distinct = not inv.invariant_eq(
        inv.delta_b(cox.parse_braid_word("r", 1)),
        inv.delta_b(cox.parse_braid_word("", 1)),
    )
    out.append(_rec("invariant", "detects-axis-loop", distinct))
    return out


def run_selfcheck(level: str = "quick", seed: int = DEFAULT_SEED) -> dict:
    """Aggregate the suites; deterministic for a fixed seed."""
    full = level == "full"
    records = []
    records += coeff_suite(seed)
    records += partition_suite(seed + 1, n_exhaustive=4 if full else 3,
                               n_bijection=6 if full else 4)
    records += coxeter_suite(seed + 2, n_bfs=3 if full else 2)
    records += relation_suite(3 if full else 2, seed=seed + 3)
    records += rewriting_suite()
    records += oracle_suite(3 if full else 2, 50 if full else 20, seed + 4)
    records += dimension_suite(3 if full else 2)
    records += independence_suite(3 if full else 2, seed + 5, points=3 if full else 1)
    records += markov_suite(3 if full else 2, 25 if full else 10, seed + 6)
    records += trace_lemma_suite(3 if full else 2, 10 if full else 5, seed + 7,
                                 params3=alg.specialized_params(Fraction(5, 2), Fraction(-7, 3)))
    records += invariant_suite(30 if full else 10, seed + 8, n_max=3 if full else 2)
    failures = [r for r in records if r["status"] != "ok"]
    return {
        "level": level,
        "seed": seed,
        "checks": len(records),
        "failures": len(failures),
        "records": records,
    }
