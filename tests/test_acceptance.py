"""Acceptance criteria, one test per criterion, one printed line each.

Criterion 6 contains one sub-rule (appending the conjugated loop times the
top tie and expecting a bare w factor) that is provably incompatible with
the other trace rules plus symmetry; it is kept as a strict expected failure
with the argument in its docstring, and the identity that actually holds is
asserted in its place inside the main criterion-6 test.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from btb import algebra as alg
from btb import coxeter as cox
from btb import invariant as inv
from btb import partitions as P
from btb import selfcheck as sc
from btb import tensorrep as rep
from btb import trace as tr
from btb.coeff import ONE

X, Y, Z, W = tr.TRACE_PARAMS
SEED = 20260810


def _report(num, name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status} ({elapsed:.1f}s < {limit}s){extra}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its time budget"


def test_criterion_1_dimension_census():
    t0 = time.time()
    expected = {1: 4, 2: 40, 3: 720}
    counts = {n: sum(1 for _ in alg.basis_pairs(n)) for n in (1, 2, 3)}
    formulas = {n: P.bell_number(n + 1) * 2 ** n * math.factorial(n) for n in (1, 2, 3)}
    ok = counts == expected == formulas
    _report(1, "dimension-census", ok, time.time() - t0, 10, f"{counts}")


def test_criterion_2_faithfulness_certificate():
    t0 = time.time()
    rng = random.Random(SEED)
    points = []
    while len(points) < 3:
        u0 = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        v0 = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        if u0 and v0 and (u0, v0) not in points:
            points.append((u0, v0))
    ok = True
    detail = []
    for n, expected in ((1, 4), (2, 40), (3, 720)):
        report = rep.independence_certificate(n, points)
        ok &= report["full_rank"] and report["expected"] == expected
        detail.append(f"n={n}:{report['ranks']}")
    _report(2, "faithfulness-certificate", ok, time.time() - t0, 300, " ".join(detail))


def test_criterion_3_relation_suite():
    t0 = time.time()
    ok = True
    bad = []
    for n in (1, 2, 3):
        for name, sides in rep.defining_relations(n):
            values = []
            for side in sides:
                total = alg.zero(n)
                for coeff, word in side:
                    total = total + alg.word_product(n, word).scaled(coeff)
                values.append(total)
            if any(v != values[0] for v in values[1:]):
                ok = False
                bad.append(f"mul:{name}@n={n}")
        report = rep.check_relations(n, seed=SEED)
        for r in report:
            if r["status"] != "ok":
                ok = False
                bad.append(f"tensor:{r['relation']}{r['index']}@n={n}")
    _report(3, "relation-suite", ok, time.time() - t0, 120, ",".join(bad))


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(SEED + 1)
    ok = True
    for n in (1, 2, 3):
        for _ in range(300):
            a = alg.AlgebraElement(n, {(P.random_partition(rng, n), cox.random_signed_perm(rng, n)): ONE})
            b = alg.AlgebraElement(n, {(P.random_partition(rng, n), cox.random_signed_perm(rng, n)): ONE})
            vec = rep.basis_vector(n, rep.random_multi_index(rng, n))
            lhs = rep.apply_elem(vec, alg.mul(a, b))
            rhs = rep.apply_elem(rep.apply_elem(vec, a), b)
            if lhs != rhs:
                ok = False
                break
    _report(4, "oracle-equivalence", ok, time.time() - t0, 300, "300 pairs per strand count")


def test_criterion_5_rewriting_lemmas():
    t0 = time.time()
    records = sc.rewriting_suite()
    bad = [r["name"] for r in records if r["status"] != "ok"]
    _report(5, "rewriting-lemmas", not bad, time.time() - t0, 120, ",".join(bad))


def test_criterion_6_markov_trace():
    """Rules (i)-(iv), the axis-tie part of (v), and symmetry (vi); plus the
    corrected identity that replaces the moving-tie part of (v)."""
    t0 = time.time()
    params3 = alg.specialized_params(Fraction(11, 4), Fraction(-9, 7))
    records = sc.markov_suite(3, 200, SEED + 2, params3=params3)
    bad = [r["name"] for r in records if r["status"] != "ok"]
    _report(6, "markov-trace", not bad, time.time() - t0, 300,
            ",".join(bad) or "200 instances per rule; n<=2 symbolic, n=3 at rational (u,v)")


@pytest.mark.xfail(
    strict=True,
    reason="appending (conjugated loop)*(top tie) cannot carry a bare w factor: "
    "together with tr(XE_n) = x tr(X) and symmetry it forces w = x*y "
    "(B_2E_1 = E_1T_1B_1T_1 - (u-u^-1)E_1T_1B_1 plus cyclicity); "
    "the identity that actually holds is asserted inside criterion 6",
)
def test_criterion_6_loop_tie_rule_as_printed():
    params3 = alg.specialized_params(Fraction(11, 4), Fraction(-9, 7))
    rng = random.Random(SEED + 3)
    for n in (1, 2, 3):
        params = params3 if n == 3 else alg.SYMBOLIC
        m = n + 1
        b_new = alg.get_cbasis(m, params).bk_elem(m)
        e_n = alg.gen_elem(("E", n), m, params)
        for _ in range(200):
            xs = alg.AlgebraElement(
                n, {(P.random_partition(rng, n), cox.random_signed_perm(rng, n)): ONE})
            lhs = tr.markov_trace(alg.mul_many([alg.embed(xs, m), b_new, e_n], params), params)
            assert lhs == W * tr.markov_trace(xs, params)


def test_criterion_7_trace_lemmas():
    t0 = time.time()
    params3 = alg.specialized_params(Fraction(11, 4), Fraction(-9, 7))
    records = sc.trace_lemma_suite(3, 40, SEED + 4, params3=params3)
    bad = [r["name"] for r in records if r["status"] != "ok"]
    # the partition-exchange lemma, exhaustively to four strands
    exchange_ok = True
    for n in (2, 3, 4):
        for J in P.enumerate_partitions(n - 1):
            Jn = P.embed(J, n)
            for I in P.enumerate_partitions(n):
                for k in range(1, n):
                    sig_n = cox.eta(cox.sigma_shift_inv(n, n, k))
                    lhs = P.tau(P.join(P.apply_perm(sig_n, Jn), I), n, k)
                    if n - 1 > k:
                        sig_prev = cox.eta(cox.sigma_shift_inv(n - 1, n - 1, k))
                    else:
                        sig_prev = tuple(range(1, n))
                    rhs = P.join(P.apply_perm(sig_prev, J), P.tau(I, n, k))
                    if lhs != rhs:
                        exchange_ok = False
    if not exchange_ok:
        bad.append("partition-exchange")
    _report(7, "trace-lemmas", not bad, time.time() - t0, 300, ",".join(bad))


def test_criterion_8_invariant():
    t0 = time.time()
    records = sc.invariant_suite(120, SEED + 5, n_max=3)
    bad = [r["name"] for r in records if r["status"] != "ok"]
    _report(8, "invariant-golden-and-moves", not bad, time.time() - t0, 300, ",".join(bad))


def test_criterion_9_partition_bijection():
    t0 = time.time()
    ok = True
    for n in range(0, 7):
        for I in P.enumerate_partitions(n):
            e_part, a_set = P.psi(I)
            if P.phi(e_part, a_set) != I:
                ok = False
    count6 = sum(1 for _ in P.enumerate_partitions(6))
    ok &= count6 == 877
    records = sc.partition_suite(SEED + 6, n_exhaustive=4, n_bijection=4)
    bad = [r["name"] for r in records if r["status"] != "ok"]
    ok &= not bad
    _report(9, "partition-bijection", ok, time.time() - t0, 30, ",".join(bad))
