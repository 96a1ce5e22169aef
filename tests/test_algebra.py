"""Algebra kernel: generators, the six-case product, both bases, coordinates."""

import itertools
import math
import random

import pytest

from btb import algebra as alg
from btb import coxeter as cox
from btb import partitions as P
from btb import tensorrep as rep
from btb.coeff import ONE, const, random_point, var

QU = alg.SYMBOLIC.qu
QV = alg.SYMBOLIC.qv


def rand_basis_elem(rng, n):
    return alg.AlgebraElement(n, {(P.random_partition(rng, n), cox.random_signed_perm(rng, n)): ONE})


def test_generator_elements():
    e1 = alg.gen_elem(("E", 1), 2)
    assert e1 == alg.AlgebraElement(2, {(P.from_blocks(2, [[1, 2]]), cox.identity(2)): ONE})
    f2 = alg.gen_elem(("F", 2), 3)
    assert f2 == alg.AlgebraElement(3, {(P.from_blocks(3, [[0, 2]]), cox.identity(3)): ONE})
    t1 = alg.gen_elem(("T", 1), 2)
    assert t1 == alg.AlgebraElement(2, {(P.singletons(2), (2, 1)): ONE})
    b = alg.gen_elem(alg.GEN_B, 1)
    assert b == alg.AlgebraElement(1, {(P.singletons(1), (-1,)): ONE})


def test_inverse_generator_elements():
    # the correction term carries the identity group part: T^-1 = T - (u-u^-1)E
    t1_inv = alg.gen_elem(("T-", 1), 2)
    expected = alg.AlgebraElement(2, {
        (P.singletons(2), (2, 1)): ONE,
        (P.from_blocks(2, [[1, 2]]), cox.identity(2)): -QU,
    })
    assert t1_inv == expected
    b_inv = alg.gen_elem(alg.GEN_B_INV, 1)
    expected = alg.AlgebraElement(1, {
        (P.singletons(1), (-1,)): ONE,
        (P.from_blocks(1, [[0, 1]]), cox.identity(1)): -QV,
    })
    assert b_inv == expected
    assert alg.mul(alg.gen_elem(("T", 1), 2), t1_inv) == alg.unit(2)
    assert alg.mul(alg.gen_elem(alg.GEN_B, 1), b_inv) == alg.unit(1)


def _inverse_gens(n):
    return [("T-", i) for i in range(1, n)] + [alg.GEN_B_INV]


def _on_descent(w, g):
    """w changed so that it has a right descent at the positive generator of g."""
    w = list(w)
    if g[0] == "B-":
        w[0] = -abs(w[0])
    else:
        i = g[1]
        if w[i - 1] < w[i]:
            w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def test_single_pass_inverses_match_product():
    rng = random.Random(14)
    coeffs = [ONE, QU, QV, -ONE, QU * QV, var("u", -1) + var("x")]
    for n in (1, 2, 3):
        for g in _inverse_gens(n):
            # the unit times g, against the quadratic relation written out
            pos = ("T", g[1]) if g[0] == "T-" else alg.GEN_B
            tie = ("E", g[1]) if g[0] == "T-" else ("F", 1)
            q = QU if g[0] == "T-" else QV
            assert alg.gen_elem(g, n) == \
                alg.gen_elem(pos, n) - alg.gen_elem(tie, n).scaled(q)
            for _ in range(15):
                terms = {}
                for _ in range(rng.randint(2, 5)):
                    w = cox.random_signed_perm(rng, n)
                    if rng.random() < 0.5:
                        w = _on_descent(w, g)
                    terms[(P.random_partition(rng, n), w)] = rng.choice(coeffs)
                e = alg.AlgebraElement(n, terms)
                assert alg.mul_gen(e, g) == alg.mul(e, alg.gen_elem(g, n)), (n, g)
            # on a descent the correction and the tie cancel: T_w T_i^-1 = T_{w s_i}
            I = P.random_partition(rng, n)
            w = _on_descent(cox.random_signed_perm(rng, n), g)
            got = alg.mul_gen(alg.AlgebraElement(n, {(I, w): QV}), g)
            assert got == alg.AlgebraElement(n, {(I, cox.apply_letter(w, g)): QV})


def test_single_pass_inverses_match_tensor_action():
    rng = random.Random(15)
    for n in (1, 2, 3):
        for g in _inverse_gens(n):
            elem = alg.gen_elem(g, n)
            for _ in range(20):
                vec = rep.basis_vector(n, rep.random_multi_index(rng, n))
                vec = vec + rep.basis_vector(n, rep.random_multi_index(rng, n)).scaled(QU)
                assert rep.apply_gen(vec, g) == rep.apply_elem(vec, elem), (n, g)


def test_gen_index_validation():
    with pytest.raises(ValueError):
        alg.gen_elem(("T", 2), 2)
    with pytest.raises(ValueError):
        alg.gen_elem(("F", 3), 2)


def test_quadratic_relations():
    n = 2
    t1 = alg.gen_elem(("T", 1), n)
    e1 = alg.gen_elem(("E", 1), n)
    assert alg.mul(t1, t1) == alg.unit(n) + alg.mul(e1, t1).scaled(QU)
    b = alg.gen_elem(alg.GEN_B, 1)
    f1 = alg.gen_elem(("F", 1), 1)
    assert alg.mul(b, b) == alg.unit(1) + alg.mul(f1, b).scaled(QV)


def test_tie_through_word():
    # conjugating the axis tie through one crossing relabels the strand
    start = alg.tw_elem(2, (2, 1))
    got = alg.mul_gen(start, ("F", 1))
    assert got == alg.AlgebraElement(2, {(P.from_blocks(2, [[0, 2]]), (2, 1)): ONE})


def test_mul_unit_and_commuting_tie():
    rng = random.Random(7)
    for n in (1, 2, 3):
        x = rand_basis_elem(rng, n)
        assert alg.mul(x, alg.unit(n)) == x
        assert alg.mul(alg.unit(n), x) == x
    t1 = alg.gen_elem(("T", 1), 2)
    e1 = alg.gen_elem(("E", 1), 2)
    assert alg.mul(e1, t1) == alg.mul(t1, e1)


def test_mul_size_mismatch():
    with pytest.raises(ValueError):
        alg.mul(alg.unit(2), alg.unit(3))


def test_associativity_randomized():
    rng = random.Random(8)
    for n in (1, 2, 3):
        for _ in range(20):
            a, b, c = (rand_basis_elem(rng, n) for _ in range(3))
            assert alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))


def test_pair_tie_by_conjugation_is_basis_element():
    # ties between distant strands, defined through conjugating words,
    # collapse to the single expected basis pair
    for n in (3,):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                gens = [("T", t) for t in range(i, j - 1)]
                gens += [("E", j - 1)]
                gens += [("T-", t) for t in range(j - 2, i - 1, -1)]
                elem = alg.word_product(n, gens)
                assert elem == alg.ef_elem(P.from_blocks(n, [[i, j]])), (i, j)


def test_tie_absorbs_axis_tie():
    # E_{i,j} F_i = E_{i,j} F_j = F_i F_j
    n = 2
    e = alg.gen_elem(("E", 1), n)
    f1 = alg.gen_elem(("F", 1), n)
    f2 = alg.gen_elem(("F", 2), n)
    assert alg.mul(e, f1) == alg.mul(f1, f2) == alg.mul(e, f2)
    # F_j EF_J = EF_{J v {0, j}}, the form the migrated loop of theta uses
    for n in (2, 3):
        for J in P.enumerate_partitions(n):
            for j in range(1, n + 1):
                fj = alg.gen_elem(("F", j), n)
                assert alg.mul(fj, alg.ef_elem(J)) == alg.ef_elem(P.join_set(J, (0, j)))


def test_axis_tie_conjugation_chain():
    # F_j equals the F_1 tie conjugated through the crossings
    n = 3
    for j in (2, 3):
        gens = [("T", t) for t in range(j - 1, 0, -1)] + [("F", 1)] + [("T-", t) for t in range(1, j)]
        assert alg.word_product(n, gens) == alg.gen_elem(("F", j), n)


def test_defining_relations_all_indices():
    for n in (1, 2, 3):
        for name, sides in rep.defining_relations(n):
            values = []
            for side in sides:
                total = alg.zero(n)
                for coeff, word in side:
                    total = total + alg.word_product(n, word).scaled(coeff)
                values.append(total)
            assert all(v == values[0] for v in values[1:]), name


def test_basis_counts():
    assert sum(1 for _ in alg.basis_pairs(1)) == 4
    assert sum(1 for _ in alg.basis_pairs(2)) == 40
    assert sum(1 for _ in alg.basis_pairs(3)) == 720


def test_embed():
    rng = random.Random(9)
    x = rand_basis_elem(rng, 2)
    y = alg.embed(x, 3)
    assert y.n == 3
    ((I, w),) = list(y.terms)
    assert I.parent[3] == 3 and w[2] == 3


def test_descriptor_basis_small():
    descriptors = list(alg.descriptor_pairs(1))
    assert len(descriptors) == 4
    cb = alg.get_cbasis(2)
    # T_1 B_1 is already normal: single-pair expansion
    got = cb.expansion(((1, 1), (1, -1)), P.singletons(2))
    expect_w = cox.w_mul((2, 1), (-1, 2))
    assert got == alg.AlgebraElement(2, {(P.singletons(2), expect_w): ONE})
    # the conjugated loop expands through mul with the quadratic correction
    b2_descriptor = cb.expansion(((1, 1), (2, -1)), P.singletons(2))
    b2_mul = cb.bk_elem(2)
    assert b2_descriptor == b2_mul
    assert len(b2_mul.terms) == 2


def test_block_elements_match_hand_written_products():
    for n in range(1, 5):
        cb = alg.CBasis(n)
        T = lambda i: alg.gen_elem(("T", i), n)
        for k in range(1, n + 1):
            for j, sign in cox.block_choices(k):
                factors = [alg.unit(n)] + [T(i) for i in range(k - 1, j - 1, -1)]
                if sign < 0:
                    factors += [T(i) for i in range(j - 1, 0, -1)]
                    factors.append(alg.gen_elem(alg.GEN_B, n))
                    factors += [alg.gen_elem(("T-", i), n) for i in range(1, j)]
                assert cb.tee_elem(k, (j, sign)) == alg.mul_many(factors), (n, k, j, sign)
            assert cb.bk_elem(k) == cb.tee_elem(k, (k, -1))


def test_prefix_leads_with_its_window():
    # unitriangular: the pair (no ties, from_blocks(ms)) with coefficient one,
    # every other term on a strictly shorter window
    for n in range(1, 5):
        cb = alg.CBasis(n)
        for ms in itertools.product(*map(cox.block_choices, range(1, n + 1))):
            terms = dict(cb.prefix(ms).terms)
            w = cox.from_blocks(ms)
            assert terms.pop((P.singletons(n), w)) == ONE, ms
            assert all(cox.length(v) < cox.length(w) for (_, v) in terms), ms


def test_inverse_words_cancel():
    rng = random.Random(16)
    for n in range(1, 5):
        kinds = ["B", "B-"] + (["T", "T-"] if n > 1 else [])
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(0, 6)):
                kind = rng.choice(kinds)
                gens.append((kind,) if kind[0] == "B" else (kind, rng.randint(1, n - 1)))
            word = tuple(gens) + alg.inverse_gens(gens)
            assert alg.word_product(n, word) == alg.unit(n), gens
            vec = rep.basis_vector(n, rep.random_multi_index(rng, n))
            assert rep.apply_side(vec, [(ONE, word)]) == vec, gens
            assert alg.inverse_gens(alg.inverse_gens(gens)) == tuple(gens)


def test_prefix_extends_without_recursion():
    # one level per strand; a recursive fill would exceed the interpreter's depth limit
    cb = alg.CBasis(1100)
    assert cb.prefix(tuple((k, 1) for k in range(1, 1101))) == alg.unit(1100)
    assert cb.prefix(tuple((k, 1) for k in range(1, 700))) == alg.unit(1100)


def test_express_examples():
    cb2 = alg.get_cbasis(2)
    coords = cb2.express(alg.unit(2))
    assert coords == {(((1, 1), (2, 1)), P.singletons(2)): ONE}
    coords = cb2.express(alg.gen_elem(("T", 1), 2))
    assert coords == {(((1, 1), (1, 1)), P.singletons(2)): ONE}


def test_cbasis_cache_rejects_aliased_params():
    symbolic = alg.get_cbasis(2)
    fake = alg.RingParams("symbolic", qu=const(3), qv=const(5))
    with pytest.raises(ValueError):
        alg.get_cbasis(2, fake)
    assert alg.get_cbasis(2, alg.SYMBOLIC) is symbolic
    # equal constants under one key share the cache
    p1, p2 = alg.specialized_params(2, 3), alg.specialized_params(2, 3)
    assert p1 is not p2 and alg.get_cbasis(2, p1) is alg.get_cbasis(2, p2)


def test_express_roundtrip_randomized():
    rng = random.Random(10)
    for n in (1, 2, 3):
        cb = alg.get_cbasis(n)
        for _ in range(12):
            e = alg.zero(n)
            for _ in range(rng.randint(1, 3)):
                e = e + rand_basis_elem(rng, n)
            coords = cb.express(e)
            back = alg.zero(n)
            for (ms, I), c in coords.items():
                back = back + cb.expansion(ms, I).scaled(c)
            assert back == e


def test_descriptor_count_matches_dimension():
    for n in (1, 2):
        assert sum(1 for _ in alg.descriptor_pairs(n)) == \
            P.bell_number(n + 1) * 2 ** n * math.factorial(n)


def test_basis_c_surface():
    cb = alg.get_cbasis(1)
    listed = [((ms, I), cb.expansion(ms, I)) for (ms, I) in alg.descriptor_pairs(1)]
    assert len(listed) == 4
    # expansions of the four one-strand descriptors, in enumeration order
    by_descriptor = dict(listed)
    unit_descr = (((1, 1),), P.singletons(1))
    loop_descr = (((1, -1),), P.singletons(1))
    assert by_descriptor[unit_descr] == alg.unit(1)
    assert by_descriptor[loop_descr] == alg.gen_elem(alg.GEN_B, 1)
    coords = cb.express(alg.gen_elem(alg.GEN_B, 1))
    assert coords == {loop_descr: ONE}


def test_descriptor_matrix_full_rank_at_random_point():
    rng = random.Random(11)
    for n in (1, 2, 3):
        while True:
            pt = random_point(rng)
            if all(pt):
                break
        expected = P.bell_number(n + 1) * 2 ** n * math.factorial(n)
        assert alg.descriptor_rank(n, alg.SYMBOLIC, pt) == expected


def test_oracle_agreement_spot():
    rng = random.Random(12)
    n = 2
    for _ in range(30):
        a, b = rand_basis_elem(rng, n), rand_basis_elem(rng, n)
        vec = rep.basis_vector(n, rep.random_multi_index(rng, n))
        assert rep.apply_elem(vec, alg.mul(a, b)) == \
            rep.apply_elem(rep.apply_elem(vec, a), b)


def test_element_json_roundtrip():
    rng = random.Random(13)
    for n in (1, 2, 3):
        e = rand_basis_elem(rng, n) + rand_basis_elem(rng, n).scaled(QU)
        assert alg.AlgebraElement.from_obj(e.to_obj()) == e
