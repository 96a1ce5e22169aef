"""Relative traces and the Markov trace.

The loop-tied case is the delicate one: the test
``test_loop_tied_to_moving_strand`` documents why a bare w factor there
cannot coexist with the trace property, and pins the migration form the
implementation uses instead.
"""

import random
from fractions import Fraction

import pytest

from btb import algebra as alg
from btb import coxeter as cox
from btb import partitions as P
from btb import trace as tr
from btb.coeff import ONE, ZERO, const, var

X, Y, Z, W = tr.TRACE_PARAMS
QU = alg.SYMBOLIC.qu
QV = alg.SYMBOLIC.qv


def rand_basis_elem(rng, n):
    return alg.AlgebraElement(n, {(P.random_partition(rng, n), cox.random_signed_perm(rng, n)): ONE})


def test_theta_on_generators():
    assert tr.theta(alg.gen_elem(("T", 1), 2)) == alg.unit(1).scaled(Z)
    assert tr.theta(alg.gen_elem(("E", 1), 2)) == alg.unit(1).scaled(X)
    assert tr.theta(alg.gen_elem(alg.GEN_B, 1)) == alg.unit(0).scaled(Y)
    assert tr.theta(alg.gen_elem(("F", 1), 1)) == alg.unit(0).scaled(X)
    b1f1 = alg.mul(alg.gen_elem(alg.GEN_B, 1), alg.gen_elem(("F", 1), 1))
    assert tr.theta(b1f1) == alg.unit(0).scaled(W)


def test_markov_trace_golden_values():
    for n in (1, 2, 3):
        assert tr.markov_trace(alg.unit(n)) == ONE
    t1b = alg.mul(alg.gen_elem(("T", 1), 2), alg.gen_elem(alg.GEN_B, 2))
    assert tr.markov_trace(t1b) == Z * Y
    assert tr.markov_trace(alg.gen_elem(alg.GEN_B, 2)) == Y
    bb = alg.mul(alg.gen_elem(alg.GEN_B, 1), alg.gen_elem(alg.GEN_B, 1))
    assert tr.markov_trace(bb) == ONE + QV * W


def test_loop_tied_to_moving_strand():
    """The printed-style bare-w rule is impossible; the migration form holds.

    B_2 E_1 = E_1 T_{r_2} - (u - u^-1) E_1 T_1 B_1 and cyclicity force
    tr(B_2 E_1) = tr(B_1 E_1) = x y, which contradicts a bare w value.
    """
    n = 2
    cb = alg.get_cbasis(n)
    e1 = alg.gen_elem(("E", 1), n)
    b1 = alg.gen_elem(alg.GEN_B, n)
    b2 = cb.bk_elem(2)
    t1 = alg.gen_elem(("T", 1), n)
    r2_word = alg.mul_many([t1, b1, t1])
    # the forcing identity, exact in the algebra
    assert alg.mul(b2, e1) + alg.mul_many([e1, t1, b1]).scaled(QU) == alg.mul(e1, r2_word)
    assert tr.markov_trace(alg.mul(b2, e1)) == X * Y
    assert tr.markov_trace(alg.mul(b1, e1)) == X * Y
    # the migrated vector value
    got = tr.theta(alg.mul(b2, e1))
    f1 = alg.gen_elem(("F", 1), 1)
    b1s = alg.gen_elem(alg.GEN_B, 1)
    expected = alg.mul(b1s, alg.unit(1)).scaled(X) - alg.mul(b1s, f1).scaled(X) + f1.scaled(W)
    assert got == expected


@pytest.mark.parametrize("n", [1, 2])
def test_markov_rules_symbolic(n):
    rng = random.Random(20 + n)
    m = n + 1
    cb = alg.get_cbasis(m)
    b_new = cb.bk_elem(m)
    t_n = alg.gen_elem(("T", n), m)
    e_n = alg.gen_elem(("E", n), m)
    f_m = alg.gen_elem(("F", m), m)
    for _ in range(15):
        xs = rand_basis_elem(rng, n)
        xe = alg.embed(xs, m)
        t0 = tr.markov_trace(xs)
        assert tr.markov_trace(alg.mul(xe, t_n)) == Z * t0
        assert tr.markov_trace(alg.mul_many([xe, e_n, t_n])) == Z * t0
        assert tr.markov_trace(alg.mul(xe, e_n)) == X * t0
        assert tr.markov_trace(alg.mul(xe, b_new)) == Y * t0
        assert tr.markov_trace(alg.mul_many([xe, b_new, f_m])) == W * t0


@pytest.mark.parametrize("n", [2])
def test_trace_symmetry_exhaustive(n):
    elems = [alg.AlgebraElement(n, {pair: ONE}) for pair in alg.basis_pairs(n)]
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            assert tr.markov_trace(alg.mul(a, b)) == tr.markov_trace(alg.mul(b, a))


def test_trace_symmetry_three_strands_specialized():
    params = alg.specialized_params(Fraction(9, 4), Fraction(-7, 5))
    rng = random.Random(31)
    for _ in range(40):
        a, b = rand_basis_elem(rng, 3), rand_basis_elem(rng, 3)
        assert tr.markov_trace(alg.mul(a, b, params), params) == \
            tr.markov_trace(alg.mul(b, a, params), params)


def test_trace_symmetry_three_strands_symbolic_sample():
    rng = random.Random(30)
    for _ in range(60):
        a, b = rand_basis_elem(rng, 3), rand_basis_elem(rng, 3)
        assert tr.markov_trace(alg.mul(a, b)) == tr.markov_trace(alg.mul(b, a))


def test_trace_symmetry_four_strands_specialized():
    # one level beyond the acceptance range, to guard the loop-migration rule
    params = alg.specialized_params(Fraction(7, 3), Fraction(-5, 4))
    rng = random.Random(29)
    for _ in range(5):
        a, b = rand_basis_elem(rng, 4), rand_basis_elem(rng, 4)
        assert tr.markov_trace(alg.mul(a, b, params), params) == \
            tr.markov_trace(alg.mul(b, a, params), params)


def test_tower_compatibility():
    rng = random.Random(32)
    for n in (1, 2):
        for _ in range(10):
            xs = rand_basis_elem(rng, n)
            assert tr.markov_trace(alg.embed(xs, n + 1)) == tr.markov_trace(xs)


def test_bimodule_property():
    rng = random.Random(33)
    for n in (2, 3):
        for _ in range(8):
            xs, zs = rand_basis_elem(rng, n - 1), rand_basis_elem(rng, n - 1)
            ys = rand_basis_elem(rng, n)
            lhs = tr.theta(alg.mul_many([alg.embed(xs, n), ys, alg.embed(zs, n)]))
            rhs = alg.mul_many([xs, tr.theta(ys), zs])
            assert lhs == rhs


def test_conjugation_drops_a_level():
    rng = random.Random(34)
    for n in (2, 3):
        t = alg.gen_elem(("T", n - 1), n)
        t_inv = alg.gen_elem(("T-", n - 1), n)
        for _ in range(8):
            xs = rand_basis_elem(rng, n - 1)
            dropped = alg.embed(tr.theta(xs), n - 1)
            assert tr.theta(alg.mul_many([t, alg.embed(xs, n), t_inv])) == dropped
            assert tr.theta(alg.mul_many([t_inv, alg.embed(xs, n), t])) == dropped


def test_double_trace_commutations():
    rng = random.Random(35)
    for n in (2, 3):
        t = alg.gen_elem(("T", n - 1), n)
        e = alg.gen_elem(("E", n - 1), n)
        for _ in range(8):
            ys = rand_basis_elem(rng, n)
            double = lambda elem: tr.theta(tr.theta(elem))
            assert double(alg.mul(t, ys)) == double(alg.mul(ys, t))
            assert double(alg.mul(e, ys)) == double(alg.mul(ys, e))


def test_trace_values_have_no_negative_parameter_powers():
    rng = random.Random(36)
    for n in (2, 3):
        for _ in range(10):
            value = tr.markov_trace(alg.mul(rand_basis_elem(rng, n), rand_basis_elem(rng, n)))
            for exps in value.terms:
                assert exps[2] >= 0 and exps[3] >= 0 and exps[4] >= 0 and exps[5] >= 0


def test_theta_rejects_scalars():
    with pytest.raises(ValueError):
        tr.theta(alg.unit(0))


def _trace_by_theta(e, params):
    """The Markov trace without the memo: theta peeled down to 0 strands."""
    cur = e
    while cur.n > 0:
        cur = tr.theta(cur, params)
    return cur.terms.get((P.singletons(0), cox.identity(0)), ZERO)


def test_markov_trace_memo_matches_theta_chain():
    # the per-descriptor memo against the relative traces composed level by
    # level; the specialized point is used by no other test, so its memo
    # starts empty and is filled here
    rng = random.Random(37)
    for params in (alg.SYMBOLIC, alg.specialized_params(Fraction(13, 6), Fraction(-11, 5))):
        for n in (1, 2, 3, 4):
            for _ in range(6):
                e = alg.AlgebraElement.sum_of(n, (
                    (rand_basis_elem(rng, n),
                     const(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))) * var("u", rng.randint(-1, 1)))
                    for _ in range(3)
                ))
                value = tr.markov_trace(e, params)
                assert value == _trace_by_theta(e, params)
                assert tr.markov_trace(e, params) == value  # read back from the memo
        assert alg.get_cbasis(4, params).traces
