"""Exact arithmetic in the Laurent-polynomial ring Q[u^±1, v^±1, x, y, z^±1, w].

Every scalar in this package -- structure constants, trace values, link
invariants -- lives in one commutative ring: Laurent polynomials in the six
variables u, v, x, y, z, w over arbitrary-precision rationals.  There is no
floating point anywhere and no tolerance; equality is equality.

A polynomial is a sparse map from exponent vectors (6-tuples of ints, one slot
per variable in the fixed order u, v, x, y, z, w) to nonzero rationals, each an
int or a Fraction: an integral value is always stored as an int, so symbolic
computations (where every coefficient is an integer) never touch Fraction
arithmetic, and Fraction(3) == 3 with equal hashes keeps equality, hashing and
the text and JSON forms independent of the representation.  The
variables x, y, w are formally allowed negative exponents so that a single
type covers the whole package; the trace layer asserts it never actually
produces them.  Serialization orders terms lexicographically on the exponent
vector, so equal polynomials have identical text and JSON forms.

>>> p = var("u") - var("u") ** -1
>>> str(p * p)
'u^-2 - 2 + u^2'
>>> parse_poly(str(p)) == p
True
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

VARS = ("u", "v", "x", "y", "z", "w")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
ZERO_EXP = (0, 0, 0, 0, 0, 0)

Exponents = tuple  # 6-tuple of ints


def _rational(value) -> int | Fraction:
    """An exact rational: an int when integral, otherwise a Fraction."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _demote(terms: dict) -> dict:
    """Store the integral Fraction values of ``terms`` as ints, in place."""
    for exps, c in terms.items():
        if c.__class__ is Fraction and c.denominator == 1:
            terms[exps] = c.numerator
    return terms


class LaurentPoly:
    """A sparse Laurent polynomial with rational (int or Fraction)
    coefficients.

    The term dict never stores a zero coefficient.  Values are immutable by
    convention: all operations return fresh objects and nothing mutates
    ``terms`` after construction, so instances can be shared freely.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Exponents, Fraction] | None = None):
        cleaned: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _rational(coeff)
                if coeff:
                    cleaned[tuple(exps)] = coeff
        self.terms = cleaned

    @classmethod
    def _raw(cls, terms: dict[Exponents, Fraction]) -> "LaurentPoly":
        # internal: caller guarantees no zero coefficients and tuple keys
        p = object.__new__(cls)
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        value = _rational(value)
        return cls._raw({ZERO_EXP: value} if value else {})

    @classmethod
    def monomial(cls, coeff, exps: Iterable[int]) -> "LaurentPoly":
        coeff = _rational(coeff)
        return cls._raw({tuple(exps): coeff} if coeff else {})

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return LaurentPoly._raw(_demote(out))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + -other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = _rational(other)
            if not other:
                return LaurentPoly._raw({})
            return LaurentPoly._raw(_demote({e: c * other for e, c in self.terms.items()}))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                       e1[3] + e2[3], e1[4] + e2[4], e1[5] + e2[5])
                acc = out.get(key)
                if acc is None:
                    out[key] = c1 * c2
                else:
                    acc = acc + c1 * c2
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        return LaurentPoly._raw(_demote(out))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if power < 0:
            if len(self.terms) != 1:
                raise ValueError("negative powers are defined for monomials only")
            (exps, coeff), = self.terms.items()
            inv = LaurentPoly.monomial(Fraction(1) / coeff, (-e for e in exps))
            return inv ** (-power)
        result = LaurentPoly.constant(1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items())

    def exponent_range(self, name: str) -> tuple[int, int]:
        """(min, max) exponent of a variable over all terms; (0, 0) if absent."""
        idx = _VAR_INDEX[name]
        exps = [e[idx] for e in self.terms]
        if not exps:
            return (0, 0)
        return (min(exps), max(exps))

    def evaluate(self, point: Iterable) -> Fraction:
        """Exact value at a rational point (one value per variable, in order).

        The components for u, v, z must be nonzero; substituting zero for any
        variable that appears with a negative exponent is an error.
        """
        values = [Fraction(c) for c in point]
        if len(values) != len(VARS):
            raise ValueError("expected one value per variable (u, v, x, y, z, w)")
        for name in ("u", "v", "z"):
            if not values[_VAR_INDEX[name]]:
                raise ValueError(f"evaluation at pole: {name} = 0")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            acc = coeff
            for val, exp in zip(values, exps):
                if exp:
                    if not val and exp < 0:
                        raise ValueError("evaluation at pole")
                    acc *= val ** exp
            total += acc
        return total

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            mono = _monomial_str(abs(coeff), exps)
            if i == 0:
                pieces.append(mono if coeff > 0 else "-" + mono)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + mono)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    def to_obj(self) -> list[dict]:
        return [
            {"exps": list(exps), "num": str(c.numerator), "den": str(c.denominator)}
            for exps, c in self.sorted_terms()
        ]

    @classmethod
    def from_obj(cls, obj: list[dict]) -> "LaurentPoly":
        terms: dict[Exponents, Fraction] = {}
        for entry in obj:
            exps = tuple(int(e) for e in entry["exps"])
            if len(exps) != len(VARS):
                raise ValueError("exponent vector must have six entries")
            coeff = Fraction(int(entry["num"]), int(entry["den"]))
            if coeff:
                terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return cls(terms)


def _monomial_str(coeff: Fraction, exps: Exponents) -> str:
    vars_part = " ".join(
        name if exp == 1 else f"{name}^{exp}"
        for name, exp in zip(VARS, exps)
        if exp
    )
    if not vars_part:
        return str(coeff)
    if coeff == 1:
        return vars_part
    return f"{coeff} * {vars_part}"


# module-level shorthands

ZERO = LaurentPoly.zero()
ONE = LaurentPoly.constant(1)


def const(value) -> LaurentPoly:
    return LaurentPoly.constant(value)


def var(name: str, power: int = 1) -> LaurentPoly:
    """The variable ``name`` (one of u, v, x, y, z, w) raised to ``power``."""
    idx = _VAR_INDEX[name]
    exps = [0] * len(VARS)
    exps[idx] = power
    return LaurentPoly.monomial(1, exps)


# -- text form parser --------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<sign>[+-])"
    r"|(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<var>[uvxyzw])(?:\^(?P<exp>-?\d+))?"
    r"|(?P<star>\*)"
    r")"
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical text form produced by ``str(poly)``.

    Accepts sums of monomials ``c * u^a v^b x^c y^d z^e w^f`` with omitted
    unit coefficients and exponents, e.g. ``"u - u^-1"`` or ``"3/2 * v^2 w"``.

    >>> parse_poly("2 * v") == const(2) * var("v")
    True
    """
    pos = 0
    end = len(text)
    result = LaurentPoly.zero()

    while True:
        # consume whitespace to detect the end
        while pos < end and text[pos].isspace():
            pos += 1
        if pos >= end:
            break

        sign = 1
        coeff = None
        exps = [0] * len(VARS)
        saw_sign = False
        saw_body = False
        pending_star = False

        while pos < end:
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"cannot parse polynomial at position {pos}: {text[pos:pos+12]!r}")
            kind = m.lastgroup
            if kind == "sign":
                if saw_body and not pending_star:
                    break  # next term starts here
                if pending_star or (saw_sign and coeff is None):
                    raise ValueError(f"unexpected sign at position {m.start()}")
                sign = -1 if m.group("sign") == "-" else 1
                saw_sign = True
            elif kind == "rat":
                if coeff is not None or saw_body:
                    raise ValueError(f"unexpected number at position {m.start()}")
                num, _, den = m.group("rat").partition("/")
                coeff = Fraction(int(num), int(den) if den else 1)
                saw_body = True
            elif kind == "star":
                if coeff is None or pending_star:
                    raise ValueError(f"unexpected '*' at position {m.start()}")
                pending_star = True
            else:  # variable power
                idx = _VAR_INDEX[m.group("var")]
                exp = int(m.group("exp")) if m.group("exp") is not None else 1
                exps[idx] += exp
                saw_body = True
                pending_star = False
            pos = m.end()

        if not saw_body or pending_star:
            raise ValueError("dangling sign or '*' in polynomial text")
        value = Fraction(1) if coeff is None else coeff
        result = result + LaurentPoly.monomial(sign * value, exps)

    return result


def random_point(rng) -> tuple[Fraction, ...]:
    """A random rational evaluation point with u, v, z nonzero; numerators in
    [-9, 9], denominators in [1, 9]."""

    def nonzero() -> Fraction:
        while True:
            num = rng.randint(-9, 9)
            if num:
                return Fraction(num, rng.randint(1, 9))

    def anyval() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    vals = []
    for name in VARS:
        vals.append(nonzero() if name in ("u", "v", "z") else anyval())
    return tuple(vals)
