"""Signed permutations: length vs graph distance, normal form, braid words."""

import itertools
import math
import random

import pytest

from btb import coxeter as cox
from btb.algebra import block_gens


def bfs_distances(n):
    gens = [cox.GEN_B] + [("T", i) for i in range(1, n)]
    dist = {cox.identity(n): 0}
    frontier = [cox.identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                w2 = cox.apply_letter(w, g)
                if w2 not in dist:
                    dist[w2] = dist[w] + 1
                    nxt.append(w2)
        frontier = nxt
    return dist


def test_group_operations():
    n = 2
    r1 = (-1, 2)
    s1 = (2, 1)
    assert cox.w_mul(cox.identity(n), s1) == s1
    assert cox.w_mul(r1, r1) == cox.identity(n)
    # in this composition convention b acts on the point first
    assert cox.w_mul(s1, r1) == (-2, 1)
    assert cox.w_mul(r1, s1) == (2, -1)
    # letterwise action oracle: images of every point agree with composition
    for w1, w2 in [(s1, r1), (r1, s1)]:
        prod = cox.w_mul(w1, w2)
        for point in (-2, -1, 1, 2):
            assert cox.act(prod, point) == cox.act(w1, cox.act(w2, point))


def test_length_examples():
    assert cox.length(cox.identity(3)) == 0
    assert cox.length((-1, 2, 3)) == 1
    r2 = cox.w_mul(cox.w_mul((2, 1, 3), (-1, 2, 3)), (2, 1, 3))
    assert r2 == (1, -2, 3)
    assert cox.length(r2) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_length_and_descents_match_bfs(n):
    dist = bfs_distances(n)
    assert len(dist) == 2 ** n * math.factorial(n)
    gens = [cox.GEN_B] + [("T", i) for i in range(1, n)]
    for w, d in dist.items():
        assert cox.length(w) == d
        for g in gens:
            assert (dist[cox.apply_letter(w, g)] < d) == (g in cox.right_descents(w))


def test_descent_examples():
    assert cox.right_descents(cox.identity(2)) == set()
    assert cox.right_descents((-1, 2)) == {cox.GEN_B}
    assert cox.right_descents((2, 1)) == {("T", 1)}


def test_normal_form_examples():
    assert cox.normal_form(cox.identity(2)) == ((1, 1), (2, 1))
    assert cox.normal_form((1, -2)) == ((1, 1), (2, -1))
    assert cox.normal_form((2, 1)) == ((1, 1), (1, 1))
    assert cox.normal_form((-2, 1)) == ((1, 1), (1, -1))
    assert cox.normal_form((3, -1, 2)) == ((1, -1), (2, 1), (1, 1))
    assert cox.from_blocks(((1, -1), (2, 1), (1, 1))) == (3, -1, 2)
    assert list(cox.block_choices(2)) == [(2, 1), (2, -1), (1, 1), (1, -1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_normal_form_roundtrip(n):
    seen = set()
    for w in cox.enumerate_group(n):
        seen.add(w)
        word = []
        for k, choice in enumerate(cox.normal_form(w), start=1):
            word.extend(block_gens(k, choice))
        assert cox.word_to_perm(n, word) == w
        assert cox.from_blocks(cox.normal_form(w)) == w
        assert len(word) == cox.length(w)
        reduced = cox.reduced_word(w)
        assert len(reduced) == cox.length(w)
        assert cox.word_to_perm(n, reduced) == w
    assert len(seen) == 2 ** n * math.factorial(n)
    # the enumeration order is the m-word order, level 1 outermost
    spelled = [
        cox.word_to_perm(n, [letter for k, choice in enumerate(ms, start=1)
                             for letter in block_gens(k, choice)])
        for ms in itertools.product(*(cox.block_choices(k) for k in range(1, n + 1)))
    ]
    assert list(cox.enumerate_group(n)) == spelled


def test_eta_examples():
    assert cox.eta((-1, 2)) == (1, 2)
    assert cox.eta((2, 1)) == (2, 1)
    assert cox.eta((1, -2, 3)) == (1, 2, 3)


def test_eta_homomorphism_randomized():
    rng = random.Random(1)
    for _ in range(80):
        n = rng.randint(1, 4)
        a, b = cox.random_signed_perm(rng, n), cox.random_signed_perm(rng, n)
        composed = tuple(cox.eta(a)[m - 1] for m in cox.eta(b))
        assert cox.eta(cox.w_mul(a, b)) == composed


def test_sigma_shift_matches_composition():
    for n in (3, 4):
        for j in range(2, n + 1):
            for k in range(1, j):
                word = [("T", i) for i in range(k, j)]
                assert cox.word_to_perm(n, word) == cox.sigma_shift_inv(n, j, k)


def test_braid_word_parsing():
    w = cox.parse_braid_word("r s1 s1' r'", 2)
    assert str(w) == "r s1 s1' r'"
    assert cox.parse_braid_word("", 1).letters == ()
    with pytest.raises(cox.BraidParseError):
        cox.parse_braid_word("s2", 2)
    with pytest.raises(cox.BraidParseError):
        cox.parse_braid_word("q1", 3)
    err = None
    try:
        cox.parse_braid_word("s1 bogus", 2)
    except cox.BraidParseError as exc:
        err = exc
    assert err is not None and err.position == 2


def test_exponent_sum_examples():
    assert cox.exponent_sum(cox.parse_braid_word("", 2)) == 0
    assert cox.exponent_sum(cox.parse_braid_word("s1 s1 s2'", 3)) == 1
    assert cox.exponent_sum(cox.parse_braid_word("r s1 r'", 2)) == 1
