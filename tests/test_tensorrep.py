"""Tensor representation: local rules, relation checking, independence."""

import random
from fractions import Fraction

import pytest

from btb import algebra as alg
from btb import coxeter as cox
from btb import partitions as P
from btb import tensorrep as rep
from btb.coeff import ONE, var

QU = alg.SYMBOLIC.qu
QV = alg.SYMBOLIC.qv
U = var("u")


def test_axis_tie_projector():
    n = 1
    v0 = rep.basis_vector(n, [(1, 0)])
    v1 = rep.basis_vector(n, [(1, 1)])
    assert rep.apply_gen(v0, ("F", 1)) == v0
    assert not rep.apply_gen(v1, ("F", 1))


def test_loop_action():
    n = 1
    assert rep.apply_gen(rep.basis_vector(n, [(1, 0)]), ("B",)) == rep.basis_vector(n, [(-1, 0)])
    got = rep.apply_gen(rep.basis_vector(n, [(-1, 0)]), ("B",))
    expected = rep.basis_vector(n, [(1, 0)]) + rep.basis_vector(n, [(-1, 0)]).scaled(QV)
    assert got == expected
    assert rep.apply_gen(rep.basis_vector(n, [(-1, 1)]), ("B",)) == rep.basis_vector(n, [(1, 1)])


def test_tie_projector():
    n = 2
    same = rep.basis_vector(n, [(1, 1), (2, 1)])
    diff = rep.basis_vector(n, [(1, 1), (2, 2)])
    assert rep.apply_gen(same, ("E", 1)) == same
    assert not rep.apply_gen(diff, ("E", 1))


def test_crossing_action_cases():
    n = 2
    eq = rep.basis_vector(n, [(1, 1), (1, 1)])
    assert rep.apply_gen(eq, ("T", 1)) == eq.scaled(U)
    low = rep.basis_vector(n, [(1, 0), (2, 0)])
    assert rep.apply_gen(low, ("T", 1)) == rep.basis_vector(n, [(2, 0), (1, 0)])
    high = rep.basis_vector(n, [(2, 0), (1, 0)])
    assert rep.apply_gen(high, ("T", 1)) == low + high.scaled(QU)
    mixed = rep.basis_vector(n, [(2, 1), (1, 0)])
    assert rep.apply_gen(mixed, ("T", 1)) == rep.basis_vector(n, [(1, 0), (2, 1)])


def test_apply_elem_unit_and_projection():
    rng = random.Random(0)
    for n in (1, 2, 3):
        vec = rep.basis_vector(n, rep.random_multi_index(rng, n))
        assert rep.apply_elem(vec, alg.unit(n)) == vec
    # the idempotents of I fix the vector attached to I
    for n in (2, 3):
        for I in P.enumerate_partitions(n):
            vec = rep.partition_vector(I)
            assert rep.apply_elem(vec, alg.ef_elem(I)) == vec


def test_group_images_are_pure():
    for n in (1, 2, 3):
        for I in P.enumerate_partitions(n):
            vec = rep.partition_vector(I)
            for w in cox.enumerate_group(n):
                img = rep.apply_word(vec, w)
                assert list(img.terms.values()) == [ONE]
                assert next(iter(img.terms)) == rep.predicted_word_image(I, w)


def test_idempotent_images_are_idempotent():
    rng = random.Random(1)
    for n in (2, 3):
        for _ in range(20):
            vec = rep.basis_vector(n, rep.random_multi_index(rng, n))
            for g in (("E", 1), ("F", 1), ("F", n)):
                once = rep.apply_gen(vec, g)
                assert rep.apply_gen(once, g) == once


@pytest.mark.parametrize("n", [1, 2])
def test_check_relations_small(n):
    report = rep.check_relations(n)
    assert report and all(r["status"] == "ok" for r in report)


def test_homomorphism_oracle_randomized():
    rng = random.Random(2)
    for n in (1, 2):
        for _ in range(40):
            a = alg.AlgebraElement(n, {(P.random_partition(rng, n), cox.random_signed_perm(rng, n)): ONE})
            b = alg.AlgebraElement(n, {(P.random_partition(rng, n), cox.random_signed_perm(rng, n)): ONE})
            vec = rep.basis_vector(n, rep.random_multi_index(rng, n))
            assert rep.apply_elem(vec, alg.mul(a, b)) == \
                rep.apply_elem(rep.apply_elem(vec, a), b)


def test_independence_small():
    pts = [(Fraction(2), Fraction(3)), (Fraction(5, 7), Fraction(-3, 2))]
    for n, expected in ((1, 4), (2, 40)):
        report = rep.independence_certificate(n, pts)
        assert report["expected"] == expected
        assert report["ranks"] == [expected, expected]
        assert report["full_rank"]


def test_independence_negative_control():
    # collapsing the rank alphabet destroys independence
    report = rep.independence_certificate(2, [(Fraction(2), Fraction(3))], d=1)
    assert report["ranks"][0] < report["expected"]
    report = rep.independence_certificate(2, [(Fraction(2), Fraction(3))], d=2)
    assert report["ranks"][0] < report["expected"]


def test_basis_vector_checks_rank_bound():
    # d bounds the ranks when a vector is built, and is not kept on it
    small = rep.basis_vector(2, [(1, 1), (-2, 0)], d=2)
    assert not hasattr(small, "d")
    assert small == rep.basis_vector(2, [(1, 1), (-2, 0)])
    with pytest.raises(ValueError):
        rep.basis_vector(2, [(1, 2), (2, 0)], d=2)
    with pytest.raises(ValueError):
        rep.basis_vector(2, [(1, 3), (2, 0)])
    for bad in ([(0, 0), (1, 0)], [(3, 0), (1, 0)], [(-3, 0), (1, 0)], [(1, 0)], [(1, -1), (2, 0)]):
        with pytest.raises(ValueError):
            rep.basis_vector(2, bad)
