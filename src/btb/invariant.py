"""The solid-torus link invariant computed from braid words.

A braid word on n strands maps into the algebra (sigma_i to T_i, the loop
letter to B, inverses expanded by the quadratic relations); the Markov trace
of the image, rescaled by the exponent sum, is an isotopy invariant of the
closed link in the solid torus:

    value = D^(n-1) * s^e * trace,   D = 1 / (z * s),   s^2 = L,
    L = (z - (u - u^-1) x) / z,      e = exponent sum of the sigma letters.

Only integer powers of L ever need splitting: s is carried as a parity bit,
and a value is stored as

    s^parity * numer / (z^z_pow * (z - (u - u^-1) x)^l_pow)

with numer a Laurent polynomial and both denominator exponents nonnegative.
Powers of z shared between numer and the denominator are cancelled (z is a
monomial, no gcd machinery); no cancellation is attempted against the L
factor, so equality is decided by cross-multiplication (once the powers both
sides share are cancelled), never by normal forms.

The trace of a word is computed on the smallest braid that carries it
(``word_trace``).  Strands above the highest one a letter touches are
dropped, since adding an unused strand leaves the trace unchanged.  When
exactly one letter s_{m-1}^(+-1) touches the top strand m, the word is
rotated to end with it (tr(ab) = tr(ba)), and the letter and the strand are
dropped by the Markov property tr(a T_{m-1}) = z tr(a), or, for the inverse,
tr(a T_{m-1}^-1) = (z - (u - u^-1) x) tr(a) from the tie rule
tr(a E_{m-1}) = x tr(a).  When neither applies, a word with no loop letter
whose lowest crossing is s_k, k > 1, has every index lowered by k - 1: with
delta = T_1 ... T_{m-1}, the braid relations give delta T_i delta^-1 =
T_{i+1}, so the shifted word is conjugate to the original one and has the
same trace.  The steps repeat until none applies; the rest goes through
``pi_natural`` and ``markov_trace``.  The normalization still uses the
original strand count and exponent sum.

``delta_b`` always computes with the symbolic ``u, v``: its normalization
constant L is the symbolic one, so a value traced at specialized ``u, v`` and
normalized with it would not be an invariant (for instance a negative
stabilization of the unknot would change its value).  ``word_trace`` and
``markov_trace`` keep their ``params``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import LaurentPoly, ONE, ZERO, var
from .coxeter import BraidWordB, exponent_sum
from .algebra import (
    AlgebraElement,
    GEN_B,
    GEN_B_INV,
    RingParams,
    SYMBOLIC,
    word_product,
)
from .trace import X, Z, markov_trace

L_NUMER = var("z") - (var("u") - var("u", -1)) * var("x")
"""The numerator of the rescaling constant L; its denominator is z."""


def pi_natural(word: BraidWordB, params: RingParams = SYMBOLIC) -> AlgebraElement:
    """The algebra image of a braid word (a homomorphism on words)."""
    return word_product(
        word.n,
        ((GEN_B if letter[1] > 0 else GEN_B_INV) if letter[0] == "r"
         else ("T", letter[1]) if letter[2] > 0 else ("T-", letter[1])
         for letter in word.letters),
        params,
    )


def word_trace(word: BraidWordB, params: RingParams = SYMBOLIC) -> LaurentPoly:
    """The Markov trace of a word's algebra image, on the fewest strands.

    Equals ``markov_trace(pi_natural(word, params), params)``; unused top
    strands are trimmed, single top crossings destabilized and loop-free
    words shifted down first (see the module docstring).
    """
    letters = word.letters
    factor = ONE
    while True:
        n = max((letter[1] + 1 for letter in letters if letter[0] == "s"), default=1)
        top = [i for i, letter in enumerate(letters) if letter[0] == "s" and letter[1] == n - 1]
        if len(top) == 1:
            i = top[0]
            factor = factor * (Z if letters[i][2] > 0 else Z - params.qu * X)
            letters = letters[i + 1:] + letters[:i]
            continue
        low = min((letter[1] for letter in letters if letter[0] == "s"), default=1)
        if low == 1 or any(letter[0] == "r" for letter in letters):
            break
        letters = tuple(("s", letter[1] - low + 1, letter[2]) for letter in letters)
    return markov_trace(pi_natural(BraidWordB(n, letters), params), params) * factor


@dataclass(frozen=True)
class InvariantValue:
    """Canonical form of an invariant value (see module docstring)."""

    s_parity: int
    numer: LaurentPoly
    z_pow: int
    l_pow: int

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        num = str(self.numer)
        if " " in num or "+" in num or "-" in num[1:]:
            num = f"({num})"
        parts = []
        if self.s_parity:
            parts.append("s")
        parts.append(num)
        out = " * ".join(parts)
        dens = []
        if self.z_pow:
            dens.append("z" if self.z_pow == 1 else f"z^{self.z_pow}")
        if self.l_pow:
            base = "(z - (u - u^-1) x)"
            dens.append(base if self.l_pow == 1 else f"{base}^{self.l_pow}")
        if dens:
            out += " / (" + " ".join(dens) + ")"
        return out

    def to_obj(self) -> dict:
        return {
            "s_parity": self.s_parity,
            "numer": self.numer.to_obj(),
            "z_pow": self.z_pow,
            "L_pow": self.l_pow,
            "pretty": self.pretty(),
        }

    def __str__(self) -> str:
        return self.pretty()


def _canonical(parity: int, numer: LaurentPoly, z_pow: int, l_pow: int) -> InvariantValue:
    if numer.is_zero():
        return InvariantValue(0, ZERO, 0, 0)
    # slide z powers so the numerator has no z at the bottom and z_pow >= 0
    lo, _ = numer.exponent_range("z")
    numer = numer * var("z", -lo)
    z_pow -= lo
    if z_pow < 0:
        numer = numer * var("z", -z_pow)
        z_pow = 0
    return InvariantValue(parity & 1, numer, z_pow, l_pow)


def delta_b(word: BraidWordB) -> InvariantValue:
    """The invariant of the closure of a braid word, with symbolic u, v.

    Combines the Markov trace of the word's algebra image with the
    normalization D^(n-1) s^e; integer powers of s^2 = L are folded into the
    fraction and only the parity of e - n + 1 survives as the formal s.
    """
    n = word.n
    trace = word_trace(word)
    e = exponent_sum(word)
    m = e - (n - 1)
    parity = m % 2
    half = (m - parity) // 2
    if half >= 0:
        numer = trace * L_NUMER ** half
        return _canonical(parity, numer, n - 1 + half, 0)
    return _canonical(parity, trace, n - 1 + half, -half)


def invariant_eq(p: InvariantValue, q: InvariantValue) -> bool:
    """Equality in the ring extended by s with s^2 = L.

    Parities are compared first (s is not a ring element, so values of
    different parity agree only when both vanish); then the two fractions are
    cross-multiplied.  The powers of z and of L that both denominators share
    cancel first, so only the difference of each power is multiplied out.
    """
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if p.s_parity != q.s_parity:
        return False
    left, right = p.numer, q.numer
    for base, dp, dq in ((var("z"), p.z_pow, q.z_pow), (L_NUMER, p.l_pow, q.l_pow)):
        if dq > dp:
            left = left * base ** (dq - dp)
        elif dp > dq:
            right = right * base ** (dp - dq)
    return left == right
