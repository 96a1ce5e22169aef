"""Closed-braid invariant: golden values, Markov moves, canonical form."""

import random
import sys
from fractions import Fraction

from btb import algebra as alg
from btb import coxeter as cox
from btb import invariant as inv
from btb import partitions as P
from btb.cli import main
from btb.coeff import ONE, ZERO, LaurentPoly, var
from btb.trace import markov_trace, theta

QU = alg.SYMBOLIC.qu
QV = alg.SYMBOLIC.qv
W = var("w")
X = var("x")
Y = var("y")
Z = var("z")


def word(text, n):
    return cox.parse_braid_word(text, n)


def random_word(rng, n, length):
    letters = []
    for _ in range(length):
        k = rng.randint(0, n - 1)
        power = 1 if rng.random() < 0.5 else -1
        letters.append(("r", power) if k == 0 else ("s", k, power))
    return cox.BraidWordB(n, tuple(letters))


def test_pi_natural_examples():
    assert inv.pi_natural(word("", 2)) == alg.unit(2)
    assert inv.pi_natural(word("s1 s1'", 2)) == alg.unit(2)
    lhs = inv.pi_natural(word("r s1 r s1", 2))
    rhs = inv.pi_natural(word("s1 r s1 r", 2))
    assert lhs == rhs


def test_golden_values():
    assert inv.delta_b(word("", 1)).pretty() == "1"
    assert inv.delta_b(word("r", 1)).pretty() == "y"
    assert inv.delta_b(word("s1", 2)).pretty() == "1"
    val = inv.delta_b(word("r r", 1))
    assert val.s_parity == 0 and val.z_pow == 0 and val.l_pow == 0
    assert val.numer == ONE + QV * W


def test_loop_sensitivity():
    assert not inv.invariant_eq(inv.delta_b(word("r", 1)), inv.delta_b(word("", 1)))


def test_self_equality():
    val = inv.delta_b(word("r s1 s1", 2))
    assert inv.invariant_eq(val, val)


def test_conjugation_examples():
    a = inv.delta_b(word("s1 s2", 3))
    b = inv.delta_b(word("s2 s1", 3))
    assert inv.invariant_eq(a, b)


def test_stabilization_examples():
    assert inv.invariant_eq(inv.delta_b(word("r", 1)), inv.delta_b(word("r s1", 2)))
    assert inv.invariant_eq(inv.delta_b(word("", 1)), inv.delta_b(word("s1", 2)))
    assert inv.invariant_eq(inv.delta_b(word("", 1)), inv.delta_b(word("s1'", 2)))


def test_conjugation_invariance_randomized():
    rng = random.Random(40)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = random_word(rng, n, rng.randint(1, 4))
        b = random_word(rng, n, rng.randint(1, 4))
        ab = cox.BraidWordB(n, a.letters + b.letters)
        ba = cox.BraidWordB(n, b.letters + a.letters)
        assert inv.invariant_eq(inv.delta_b(ab), inv.delta_b(ba))


def test_stabilization_invariance_randomized():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(1, 2)
        a = random_word(rng, n, rng.randint(0, 4))
        base = inv.delta_b(a)
        for power in (1, -1):
            stabbed = cox.BraidWordB(n + 1, a.letters + (("s", n, power),))
            assert inv.invariant_eq(base, inv.delta_b(stabbed))


def test_parity_discriminates():
    # values of different s-parity agree only when both vanish
    odd = inv.InvariantValue(1, ONE, 0, 0)
    even = inv.InvariantValue(0, ONE, 0, 0)
    assert not inv.invariant_eq(odd, even)
    zero_a = inv.InvariantValue(1, ZERO, 0, 0)
    zero_b = inv.InvariantValue(0, ZERO, 0, 0)
    assert inv.invariant_eq(zero_a, zero_b)


def test_cross_multiplied_equality():
    # same value written with different denominator bookkeeping
    z = var("z")
    a = inv.InvariantValue(0, z * inv.L_NUMER, 1, 1)
    b = inv.InvariantValue(0, inv.L_NUMER, 0, 1)
    c = inv.InvariantValue(0, z * inv.L_NUMER ** 2, 1, 2)
    assert inv.invariant_eq(a, b)
    assert inv.invariant_eq(a, c)
    assert not inv.invariant_eq(a, inv.InvariantValue(0, z, 0, 1))


def _cross_multiplied_eq(p, q):
    """The comparison without cancellation: both full cross products."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if p.s_parity != q.s_parity:
        return False
    left = p.numer * var("z", q.z_pow) * inv.L_NUMER ** q.l_pow
    right = q.numer * var("z", p.z_pow) * inv.L_NUMER ** p.l_pow
    return left == right


def test_invariant_eq_matches_cross_multiplication_randomized():
    rng = random.Random(23)
    numers = [ZERO, ONE, var("u") - var("y", -1), inv.L_NUMER, Z * inv.L_NUMER ** 2,
              LaurentPoly.monomial(Fraction(-3, 2), [1, 0, 2, 0, -1, 0])]

    def random_value():
        return inv.InvariantValue(rng.randint(0, 1), rng.choice(numers), rng.randint(0, 3), rng.randint(0, 3))

    verdicts = set()
    for _ in range(400):
        a = random_value()
        if rng.random() < 0.5:
            # the same value with extra denominator powers, or another parity
            dz, dl = rng.randint(0, 2), rng.randint(0, 2)
            parity = a.s_parity ^ (rng.random() < 0.2)
            b = inv.InvariantValue(parity, a.numer * Z ** dz * inv.L_NUMER ** dl, a.z_pow + dz, a.l_pow + dl)
        else:
            b = random_value()
        verdict = inv.invariant_eq(a, b)
        assert verdict == _cross_multiplied_eq(a, b) == inv.invariant_eq(b, a), (a, b)
        verdicts.add((verdict, a.z_pow != b.z_pow or a.l_pow != b.l_pow))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_specialized_params_match_symbolic_evaluation():
    # computing at u0, v0 equals evaluating the symbolic result at u0, v0
    rng = random.Random(31)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    def values(e, point):
        return {key: val for key, c in e.terms.items() if (val := c.evaluate(point))}

    for _ in range(4):
        point = tuple(rational() for _ in range(6))
        params = alg.specialized_params(point[0], point[1])
        for _ in range(6):
            n = rng.randint(1, 3)
            w = random_word(rng, n, rng.randint(1, 6))
            assert inv.word_trace(w, params).evaluate(point) == inv.word_trace(w).evaluate(point), w
        n = 3
        a, b = (alg.AlgebraElement(n, {(P.random_partition(rng, n), cox.random_signed_perm(rng, n)): ONE})
                for _ in range(2))
        assert values(alg.mul(a, b, params), point) == values(alg.mul(a, b), point)
        assert values(theta(a, params), point) == values(theta(a), point)


def test_negative_writhe_words():
    # enough inverse crossings to push the L power negative
    val = inv.delta_b(word("s1' s1' s1'", 2))
    assert val.l_pow > 0
    # still an invariant: conjugating by anything preserves it
    other = inv.delta_b(word("s1' s1' r r' s1'", 2))
    assert inv.invariant_eq(val, other)


def test_json_shape():
    obj = inv.delta_b(word("r", 1)).to_obj()
    assert set(obj) == {"s_parity", "numer", "z_pow", "L_pow", "pretty"}
    assert obj["pretty"] == "y"


def test_word_trace_matches_full_trace_randomized():
    rng = random.Random(42)
    for params in (alg.SYMBOLIC, alg.specialized_params(2, 3)):
        for _ in range(60):
            n = rng.randint(1, 5)
            w = random_word(rng, n, rng.randint(0, 7))
            w = cox.BraidWordB(n + rng.randint(0, 2), w.letters)
            assert inv.word_trace(w, params) == markov_trace(inv.pi_natural(w, params), params)
        # loop-free words that leave the lowest strands unused are shifted down
        for _ in range(60):
            n = rng.randint(3, 5)
            low = rng.randint(2, n - 1)
            letters = tuple(
                ("s", rng.randint(low, n - 1), 1 if rng.random() < 0.5 else -1)
                for _ in range(rng.randint(1, 6))
            )
            w = cox.BraidWordB(n, letters)
            assert inv.word_trace(w, params) == markov_trace(inv.pi_natural(w, params), params)


def test_word_trace_destabilizes_repeatedly():
    assert inv.word_trace(word("s1 s2 s3", 4)) == Z ** 3
    assert inv.word_trace(word("s1' s2' s3'", 4)) == (Z - QU * X) ** 3
    # the top crossing sits in the middle: the word is rotated first
    assert inv.word_trace(word("s1 s2' r s1", 3)) == (Z - QU * X) * inv.word_trace(word("r s1 s1", 2))


def test_word_trace_loop_only_and_padded():
    assert inv.word_trace(word("r r", 1)) == ONE + QV * W
    assert inv.word_trace(word("r r", 4)) == ONE + QV * W
    assert inv.word_trace(word("r r' r", 3)) == Y
    padded = word("r s1 r s1", 5)
    assert inv.word_trace(padded) == markov_trace(inv.pi_natural(padded))
    assert inv.word_trace(padded) == inv.word_trace(word("r s1 r s1", 2))


def test_wide_closure_cli_exits_0(capsys):
    code = main(["invariant", "--strands", "1100", "--word", "s1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == "1 / (z^549 (z - (u - u^-1) x)^549)\n"
    # a top strand used twice: the loop-free word is shifted down to s1 s1
    code = main(["invariant", "--strands", "1100", "--word", "s1099 s1099"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == "s * (-u^-1 z + 1 + u z) / (z^550 (z - (u - u^-1) x)^549)\n"
    assert inv.word_trace(word("s1099 s1099", 1100)) == markov_trace(inv.pi_natural(word("s1 s1", 2)))


def test_deep_trace_fill_needs_no_recursion():
    # the trace memo of a 60-strand word is filled 60 levels deep; with 40
    # frames of headroom, even one frame per level is too many
    w = word("r " + " ".join(f"s{i}" for i in range(1, 60)) + " s59", 60)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        value = inv.delta_b(w)
    finally:
        sys.setrecursionlimit(limit)
    assert not value.is_zero()
