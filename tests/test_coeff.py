"""Laurent-polynomial ring: worked examples, ring axioms, serialization."""

import random
from fractions import Fraction

import pytest

from btb import algebra as alg
from btb import coxeter as cox
from btb import invariant as inv
from btb import partitions as P
from btb import trace as tr
from btb.coeff import LaurentPoly, ONE, ZERO, const, parse_poly, random_point, var

U = var("u")
V = var("v")


def rand_poly(rng, terms=4, spread=2):
    p = LaurentPoly.zero()
    for _ in range(rng.randint(0, terms)):
        exps = [rng.randint(-spread, spread) for _ in range(6)]
        p = p + LaurentPoly.monomial(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), exps)
    return p


def nonzero_point(rng):
    while True:
        pt = random_point(rng)
        if all(pt):
            return pt


def test_additive_inverse_cancels():
    assert (U - U ** -1) + (U ** -1 - U) == ZERO


def test_add_identity():
    p = U * V - const(3)
    assert p + ZERO == p


def test_hand_expansion_2v():
    left = (V - V ** -1) + (V + V ** -1)
    assert left == const(2) * V
    rng = random.Random(0)
    for _ in range(3):
        pt = nonzero_point(rng)
        assert left.evaluate(pt) == 2 * pt[1]


def test_difference_of_squares():
    assert (U - U ** -1) * (U + U ** -1) == U ** 2 - U ** -2


def test_mul_identity():
    p = U ** 2 * V - const(Fraction(1, 2))
    assert p * ONE == p


def test_square_of_v_minus_vinv():
    got = (V - V ** -1) ** 2
    assert got == V ** 2 - const(2) + V ** -2
    rng = random.Random(1)
    for _ in range(3):
        pt = nonzero_point(rng)
        assert got.evaluate(pt) == (pt[1] - 1 / pt[1]) ** 2


def test_eval_direct_substitution():
    pt = (Fraction(2), Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    assert (U - U ** -1).evaluate(pt) == Fraction(3, 2)
    assert ZERO.evaluate(pt) == 0


def test_eval_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        pt = nonzero_point(rng)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def test_eval_rejects_poles():
    with pytest.raises(ValueError):
        U.evaluate((0, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        var("x", -1).evaluate((1, 1, 0, 1, 1, 1))


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(60):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_text_roundtrip_randomized():
    rng = random.Random(4)
    for _ in range(80):
        p = rand_poly(rng)
        assert parse_poly(str(p)) == p


def test_json_roundtrip_randomized():
    rng = random.Random(5)
    for _ in range(40):
        p = rand_poly(rng)
        assert LaurentPoly.from_obj(p.to_obj()) == p


def test_text_forms():
    assert str(ZERO) == "0"
    assert str(const(2) * V) == "2 * v"
    assert str(U - U ** -1) == "-u^-1 + u"
    assert parse_poly("3/2 * v^2 w - u^-1") == const(Fraction(3, 2)) * var("v", 2) * var("w") - var("u", -1)


def test_parse_rejects_garbage():
    for bad in ("u +", "q", "2 ** u", "u^"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_negative_power_of_general_poly_rejected():
    with pytest.raises(ValueError):
        (U + V) ** -1


def assert_exact(poly):
    """Every coefficient is an int or a non-integral Fraction, never a float."""
    for c in poly.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (poly, c)


def test_coefficient_types():
    half = const(Fraction(1, 2))
    assert_exact(half * 2)
    assert_exact(half + half)
    assert_exact((half * U) * (const(2) * V))
    assert_exact(U * Fraction(3, 3))
    for p in ((const(3) * U) ** -2, (-U) ** -1, (half * V) ** -3, const(4) ** 0):
        assert_exact(p)
    assert (const(3) * U) ** -2 == const(Fraction(1, 9)) * U ** -2
    assert_exact(LaurentPoly({(0,) * 6: Fraction(6, 3), (1,) * 6: Fraction(2, 4)}))
    assert_exact(parse_poly("4/2 * u - 1/3"))
    # evaluation stays a Fraction even on integer coefficients
    pt = (Fraction(2), Fraction(3), 1, 1, 1, 1)
    for p in (ZERO, const(3), U * V + ONE):
        assert type(p.evaluate(pt)) is Fraction
    assert const(3).to_obj() == [{"exps": [0] * 6, "num": "3", "den": "1"}]

    rng = random.Random(6)
    specialized = alg.specialized_params(Fraction(5, 3), Fraction(-7, 2))
    for params in (alg.SYMBOLIC, specialized):
        for n in (1, 2, 3):
            for _ in range(4):
                a, b = (alg.AlgebraElement(n, {(P.random_partition(rng, n), cox.random_signed_perm(rng, n)): ONE})
                        for _ in range(2))
                ab = alg.mul(a, b, params)
                for e in (ab, tr.theta(ab, params)):
                    for c in e.terms.values():
                        assert_exact(c)
                assert_exact(tr.markov_trace(ab, params))
            cb = alg.get_cbasis(n, params)
            for d in list(alg.descriptor_pairs(n))[:40]:
                for c in cb.expansion(*d).terms.values():
                    assert_exact(c)
            for c in cb.traces.values():
                assert_exact(c)
    assert_exact(inv.delta_b(cox.parse_braid_word("r s1' s2 r' s1", 3)).numer)
    # the exact row reduction works on Fraction values from evaluate
    point = tuple(Fraction(k + 2, 3) for k in range(6))
    pivots = {}
    cb = alg.get_cbasis(2)
    for d in alg.descriptor_pairs(2):
        row = {pair: v for pair, c in cb.expansion(*d).terms.items() if (v := c.evaluate(point))}
        alg.reduce_row({(-cox.length(w), I.parent, w): v for (I, w), v in row.items()}, pivots)
    assert pivots and all(type(v) in (int, Fraction) for piv in pivots.values() for v in piv.values())
