"""The tied braid algebra of type B in its normal-form basis.

An element is a finite linear combination of basis pairs (I, w) where I is a
set partition of {0,...,n} and w is a signed permutation: the pair stands for
the product (tie idempotents encoded by I) * (braid-word image of w).  The
generators are

- T_i, the braid generators, with T_i^2 = 1 + (u - u^-1) E_i T_i,
- B (the loop around the fixed strand), with B^2 = 1 + (v - v^-1) F_1 B,
- E_i, the tie between moving strands i and i+1: pair (join {i,i+1}, id),
- F_j, the tie between strand j and the fixed strand: pair (join {0,j}, id).

Multiplication is exact and works one generator at a time on normalized
terms.  Right-multiplying the pair (I, w) by a generator produces at most two
terms: idempotents conjugate leftward through w and merge into I (relabelled
by |w(.)|), a braid letter either extends w or, on a descent, splits into the
shorter word plus a quadratic correction.  Word independence of the result is
guaranteed by the braid relations (Matsumoto), so any reduced word may drive
the letter loop.  There is no alphabet translation: ``coxeter`` names its
letters after these generators, so ``coxeter.reduced_word(w)`` is already the
generator word of T_w.

The exact primitives are defined here once and shared with the tensor
oracle: ``_acc`` (add a coefficient into a sparse key -> coefficient map),
``SparseVector`` (the linear combination behind both algebra elements and
tensor vectors, whose ``sum_of`` accumulates every sum of scaled terms into
one map through ``_acc``), ``split_inverse`` (T_i^-1 and B^-1 by the
quadratic relations), ``inverse_gens`` (the generator word of an inverse),
``block_gens`` (the generator word of a descriptor block, and the only
spelling of one) and
``reduce_row`` (one step of exact sparse row reduction over the rationals).

The module also maintains a second, descriptor-indexed basis used by the
relative traces: products m_1...m_n * (idempotents of I), where m_k is one of
1, B_k = T_{k-1}..T_1 B T_1^-1..T_{k-1}^-1, or T_{k-1}..T_j optionally
followed by B_j.  A descriptor's m-word is exactly the m-word of the group
normal form (``coxeter.normal_form``): the entry (j, sign) at level k is the
same block choice, so the descriptor led by w is ``normal_form(w)``.
``CBasis`` caches the expansions of these descriptors into
normal form; expansions are unitriangular (descriptor -> its leading pair
with coefficient one plus strictly shorter words), so elements are expressed
in descriptor coordinates by peeling leading terms, with no division at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

from .coeff import ONE, LaurentPoly, const, var
from .coxeter import (
    GEN_B,
    Window,
    apply_letter,
    block_choices,
    enumerate_group,
    eta,
    identity,
    length,
    normal_form,
    perm_inverse,
    reduced_word,
)
from .partitions import (
    SetPartition0,
    apply_perm,
    embed as embed_partition,
    enumerate_partitions,
    join,
    join_set,
    singletons,
)

BasisPair = tuple  # (SetPartition0, Window)

# -- quadratic constants -------------------------------------------------------

@dataclass(frozen=True)
class RingParams:
    """The two quadratic constants, symbolically by default, or specialized
    at a rational point.

    ``key`` identifies the parameter choice in expansion caches.
    """

    key: str
    qu: LaurentPoly  # coefficient of E_i T_i in T_i^2 - 1
    qv: LaurentPoly  # coefficient of F_1 B in B^2 - 1


SYMBOLIC = RingParams(
    "symbolic",
    qu=var("u") - var("u", -1),
    qv=var("v") - var("v", -1),
)


def specialized_params(u0, v0) -> RingParams:
    """Parameters with u, v pinned to nonzero rationals (x, y, z, w stay
    symbolic)."""
    u0, v0 = Fraction(u0), Fraction(v0)
    if not u0 or not v0:
        raise ValueError("u and v must be specialized to nonzero values")
    return RingParams(
        f"u={u0};v={v0}",
        qu=const(u0 - 1 / u0),
        qv=const(v0 - 1 / v0),
    )


# -- generators ----------------------------------------------------------------

GEN_B_INV = ("B-",)


def _check_gen(g: tuple, n: int) -> None:
    kind = g[0]
    if kind in ("T", "T-", "E"):
        if not (1 <= g[1] <= n - 1):
            raise ValueError(f"generator {g} out of range for n = {n}")
    elif kind == "F":
        if not (1 <= g[1] <= n):
            raise ValueError(f"generator {g} out of range for n = {n}")
    elif kind in ("B", "B-"):
        if n < 1:
            raise ValueError("loop generator needs at least one strand")
    else:
        raise ValueError(f"unknown generator {g!r}")


# -- elements -------------------------------------------------------------------

def _acc(out: dict, key, c) -> None:
    """Add the coefficient c (a LaurentPoly or a Fraction) into the sparse
    map ``out`` at ``key``; zero entries are never stored."""
    acc = out.get(key)
    if acc is None:
        if c:
            out[key] = c
    else:
        acc = acc + c
        if acc:
            out[key] = acc
        else:
            del out[key]


class SparseVector:
    """A finite linear combination over n strands: a sparse map from keys to
    nonzero Laurent-polynomial coefficients.  Immutable by convention."""

    __slots__ = ("n", "terms")

    @classmethod
    def _raw(cls, n: int, terms: dict):
        e = object.__new__(cls)
        e.n = n
        e.terms = terms
        return e

    @classmethod
    def sum_of(cls, n: int, pieces: Iterable[tuple]):
        """The sum of c * e over the (e, c) pairs of ``pieces``, accumulated
        into one dict; a factor that is the object ``ONE`` is not multiplied
        out."""
        out: dict = {}
        for e, c in pieces:
            if e.n != n:
                raise ValueError("elements live over different strand counts")
            for key, q in e.terms.items():
                _acc(out, key, q if c is ONE else q * c)
        return cls._raw(n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        return self.sum_of(self.n, ((self, ONE), (other, ONE)))

    def __sub__(self, other):
        return self.sum_of(self.n, ((self, ONE), (other, -ONE)))

    def scaled(self, c: LaurentPoly):
        if isinstance(c, (int, Fraction)):
            c = const(c)
        return self.sum_of(self.n, ((self, c),))


class AlgebraElement(SparseVector):
    """A linear combination of basis pairs with Laurent-polynomial
    coefficients; no zero coefficients stored."""

    __slots__ = ()

    def __init__(self, n: int, terms: dict | None = None):
        cleaned: dict[BasisPair, LaurentPoly] = {}
        if terms:
            for (I, w), c in terms.items():
                if not isinstance(I, SetPartition0) or I.n != n or len(w) != n:
                    raise ValueError("term does not match the strand count")
                if c:
                    cleaned[(I, tuple(w))] = c
        self.n = n
        self.terms = cleaned

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0].parent, kv[0][1]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (I, w), c in self.sorted_terms():
            bits.append(f"({c}) * [{I} ; {w}]")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"<AlgebraElement n={self.n} with {len(self.terms)} terms>"

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"partition": I.to_obj(), "window": list(w), "coeff": c.to_obj()}
                for (I, w), c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "AlgebraElement":
        n = int(obj["n"])
        terms: dict[BasisPair, LaurentPoly] = {}
        for entry in obj["terms"]:
            I = SetPartition0.from_obj(n, entry["partition"])
            w = tuple(int(m) for m in entry["window"])
            c = LaurentPoly.from_obj(entry["coeff"])
            _acc(terms, (I, w), c)
        return cls(n, terms)


def zero(n: int) -> AlgebraElement:
    return AlgebraElement._raw(n, {})


def unit(n: int) -> AlgebraElement:
    return AlgebraElement._raw(n, {(singletons(n), identity(n)): ONE})


def ef_elem(I: SetPartition0) -> AlgebraElement:
    """The idempotent product encoded by a partition, as a single basis term."""
    return AlgebraElement._raw(I.n, {(I, identity(I.n)): ONE})


def tw_elem(n: int, w: Window) -> AlgebraElement:
    """The braid-word image of a group element, as a single basis term."""
    return AlgebraElement._raw(n, {(singletons(n), tuple(w)): ONE})


def split_inverse(g: tuple, params: RingParams) -> tuple:
    """Expand an inverse generator by its quadratic relation:
    T_i^-1 = T_i - (u - u^-1) E_i and B^-1 = B - (v - v^-1) F_1.

    Returns (positive generator, tie coefficient); the tie is the one in the
    positive generator's own quadratic correction (E_i for T_i, F_1 for B).
    A positive generator comes back unchanged with coefficient None.
    """
    kind = g[0]
    if kind == "T-":
        return ("T", g[1]), -params.qu
    if kind == "B-":
        return GEN_B, -params.qv
    return g, None


def gen_elem(g: tuple, n: int, params: RingParams = SYMBOLIC) -> AlgebraElement:
    """A generator as an element: the unit right-multiplied by it, so
    inverses expand as in ``split_inverse``."""
    return mul_gen(unit(n), g, params)


def embed(e: AlgebraElement, n: int) -> AlgebraElement:
    """View an element inside the algebra on more strands (new strands are
    untied and unmoved)."""
    if n < e.n:
        raise ValueError("cannot embed into fewer strands")
    if n == e.n:
        return e
    pad = tuple(range(e.n + 1, n + 1))
    return AlgebraElement._raw(
        n,
        {
            (embed_partition(I, n), w + pad): c
            for (I, w), c in e.terms.items()
        },
    )


# -- multiplication --------------------------------------------------------------

def mul_gen(e: AlgebraElement, g: tuple, params: RingParams = SYMBOLIC) -> AlgebraElement:
    """Right-multiply by a single generator.

    Idempotents conjugate through each term's group part and join the
    partition; braid letters extend the group part, or split on a descent
    into the shorter word plus the quadratic correction term.  An inverse
    adds its tie term (``split_inverse``) in the same pass; that tie lands on
    the key of the quadratic correction.
    """
    _check_gen(g, e.n)
    g, tie = split_inverse(g, params)
    kind = g[0]
    out: dict[BasisPair, LaurentPoly] = {}
    if kind == "E":
        i = g[1]
        for (I, w), c in e.terms.items():
            _acc(out, (join_set(I, (abs(w[i - 1]), abs(w[i]))), w), c)
    elif kind == "F":
        j = g[1]
        for (I, w), c in e.terms.items():
            _acc(out, (join_set(I, (0, abs(w[j - 1]))), w), c)
    else:  # T_i reads the window at slots i, i+1; B reads the axis 0 and slot 1
        i, q = (g[1], params.qu) if kind == "T" else (0, params.qv)
        for (I, w), c in e.terms.items():
            _acc(out, (I, apply_letter(w, g)), c)
            a, b = w[i - 1] if i else 0, w[i]
            if a > b or tie is not None:
                key = (join_set(I, (abs(a), abs(b))), w)
                if a > b:  # on a descent T_w g = T_{w g} + q (E_i or F_1) T_w
                    _acc(out, key, c * q)
                if tie is not None:
                    _acc(out, key, c * tie)
    return AlgebraElement._raw(e.n, out)


_INVERSE_KIND = {"T": "T-", "T-": "T", "B": "B-", "B-": "B"}


def inverse_gens(gens: Sequence[tuple]) -> tuple:
    """The generator word of the inverse of a braid-generator word: the word
    reversed, every letter inverted."""
    return tuple((_INVERSE_KIND[g[0]],) + g[1:] for g in reversed(gens))


def block_gens(k: int, code: tuple) -> tuple:
    """The generator word of the level-k block (j, sign), left to right:
    T_{k-1}..T_j, followed for sign -1 by
    B_j = T_{j-1}..T_1 B T_1^-1..T_{j-1}^-1."""
    j, sign = code
    assert 1 <= j <= k
    gens = tuple(("T", i) for i in range(k - 1, j - 1, -1))
    if sign < 0:
        head = tuple(("T", i) for i in range(j - 1, 0, -1))
        gens += head + (GEN_B,) + inverse_gens(head)
    return gens


def word_product(n: int, gens: Iterable[tuple], params: RingParams = SYMBOLIC) -> AlgebraElement:
    """Multiply out a sequence of generators, left to right."""
    e = unit(n)
    for g in gens:
        e = mul_gen(e, g, params)
    return e


def mul(a: AlgebraElement, b: AlgebraElement, params: RingParams = SYMBOLIC) -> AlgebraElement:
    """The exact product, associative and bilinear.

    Per right-hand basis term (J, v): the idempotents J conjugate through
    each left term and join its partition, then the letters of any reduced
    word of v are applied one at a time.
    """
    if a.n != b.n:
        raise ValueError("elements live over different strand counts")
    n = a.n
    total: dict[BasisPair, LaurentPoly] = {}
    for (J, v), q in b.terms.items():
        tmp: dict[BasisPair, LaurentPoly] = {}
        for (I, w), c in a.terms.items():
            K = join(I, apply_perm(eta(w), J))
            _acc(tmp, (K, w), c if q is ONE else c * q)
        cur = AlgebraElement._raw(n, tmp)
        for g in reduced_word(v):
            cur = mul_gen(cur, g, params)
        for key, c in cur.terms.items():
            _acc(total, key, c)
    return AlgebraElement._raw(n, total)


def mul_many(factors: Sequence[AlgebraElement], params: RingParams = SYMBOLIC) -> AlgebraElement:
    out = factors[0]
    for f in factors[1:]:
        out = mul(out, f, params)
    return out


# -- the normal-form basis --------------------------------------------------------

def basis_pairs(n: int) -> Iterator[BasisPair]:
    """All (partition, group element) pairs in deterministic order."""
    for I in enumerate_partitions(n):
        for w in enumerate_group(n):
            yield (I, w)



# -- the descriptor basis driving the traces ----------------------------------------

@lru_cache(maxsize=None)
def _eta_inv(w: Window) -> tuple:
    return perm_inverse(eta(w))


class CBasis:
    """Expansion cache for descriptor-basis computations at a fixed strand
    count and parameter choice.

    A block is the generator word ``block_gens`` spells; its element, every
    prefix m_1 ... m_k and every expansion are built from those words.  All
    cached elements are immutable; build once, read forever.  ``traces``
    maps a descriptor to its Markov trace; ``trace.markov_trace`` fills it.
    """

    def __init__(self, n: int, params: RingParams = SYMBOLIC):
        self.n = n
        self.params = params
        self._prefix: dict[tuple, AlgebraElement] = {(): unit(n)}
        self._expansion: dict[tuple, AlgebraElement] = {}
        self.traces: dict[tuple, LaurentPoly] = {}

    def bk_elem(self, k: int) -> AlgebraElement:
        """B_k = T_{k-1}..T_1 B T_1^-1..T_{k-1}^-1 as an element."""
        return self.tee_elem(k, (k, -1))

    def tee_elem(self, k: int, code: tuple) -> AlgebraElement:
        """The level-k block element for a descriptor entry (j, sign):
        sign +1 gives T_{k-1}..T_j (1 if j = k), sign -1 gives
        T_{k-1}..T_j B_j (B_k if j = k).  The identity blocks below level k
        spell the empty word, so this is a cached prefix."""
        return self.prefix(tuple((i, 1) for i in range(1, k)) + (code,))

    def prefix(self, ms: tuple) -> AlgebraElement:
        """The product m_1 ... m_len(ms) as an element.

        A miss extends the longest cached prefix (``()`` always is) one
        level at a time, applying that level's block generators, and caches
        every step.
        """
        cached = self._prefix.get(ms)
        if cached is None:
            done = next(k for k in range(len(ms) - 1, -1, -1) if ms[:k] in self._prefix)
            cached = self._prefix[ms[:done]]
            for k in range(done + 1, len(ms) + 1):
                for g in block_gens(k, ms[k - 1]):
                    cached = mul_gen(cached, g, self.params)
                self._prefix[ms[:k]] = cached
        return cached

    def expansion(self, ms: tuple, I: SetPartition0) -> AlgebraElement:
        """m_1 ... m_n followed by the idempotents of I, in normal form.

        The leading term is the pair (image of I under the projected group
        element, that group element) with coefficient exactly one; everything
        else is strictly shorter.
        """
        key = (ms, I)
        cached = self._expansion.get(key)
        if cached is None:
            cached = mul(self.prefix(ms), ef_elem(I), self.params)
            self._expansion[key] = cached
        return cached

    def express(self, e: AlgebraElement) -> dict:
        """Coordinates of e in the descriptor basis, by leading-term peeling.

        Exact: subtracting coefficient * expansion removes the current
        leading pair and only introduces strictly shorter group parts, so the
        loop sweeps lengths downward and terminates.
        """
        if e.n != self.n:
            raise ValueError("element does not match this cache")
        work = dict(e.terms)
        out: dict[tuple, LaurentPoly] = {}
        if not work:
            return out
        top = max(length(w) for (_, w) in work)
        for level in range(top, -1, -1):
            keys = [key for key in work if length(key[1]) == level]
            for key in keys:
                c = work.pop(key)
                J, w = key
                ms = normal_form(w)
                I = apply_perm(_eta_inv(w), J)
                expn = self.expansion(ms, I)
                lead = expn.terms.get(key)
                assert lead == ONE, "descriptor expansion lost unitriangularity"
                out[(ms, I)] = c
                for other, q in expn.terms.items():
                    if other == key:
                        continue
                    _acc(work, other, -(c * q))
        assert not work
        return out


_CBASIS_CACHE: dict[tuple, CBasis] = {}


def get_cbasis(n: int, params: RingParams = SYMBOLIC) -> CBasis:
    """The shared expansion cache for n strands, keyed by ``params.key``.

    Raises ValueError when the key is already bound to other constants, so
    that two parameter choices never share one cache.
    """
    key = (n, params.key)
    cached = _CBASIS_CACHE.get(key)
    if cached is None:
        cached = CBasis(n, params)
        _CBASIS_CACHE[key] = cached
    elif cached.params is not params and cached.params != params:
        raise ValueError(f"parameter key {params.key!r} is already bound to other constants")
    return cached


def descriptor_pairs(n: int) -> Iterator[tuple]:
    """All (m-word, partition) descriptors in deterministic order."""
    for ms in product(*map(block_choices, range(1, n + 1))):
        for I in enumerate_partitions(n):
            yield (ms, I)


def reduce_row(row: dict, pivots: dict) -> int:
    """Exact Gaussian step: reduce ``row`` (column -> nonzero rational)
    against ``pivots``, each keyed by its smallest column; register what
    remains as a new pivot and report 1, or report 0 if nothing remains."""
    while row:
        lead = min(row)
        hit = pivots.get(lead)
        if hit is None:
            scale = row[lead]
            pivots[lead] = {col: val / scale for col, val in row.items()}
            return 1
        factor = row[lead]
        for col, val in hit.items():
            _acc(row, col, -factor * val)
    return 0


def descriptor_rank(n: int, params: RingParams, point) -> int:
    """Rank of the descriptor-expansion matrix at a rational point, by sparse
    row reduction over exact rationals.

    Rows are the expansions of all descriptors with coefficients evaluated at
    ``point``; full rank certifies the change of basis is invertible there.
    Columns are ordered longest group part first.
    """
    def col_key(pair: BasisPair):
        I, w = pair
        return (-length(w), I.parent, w)

    pivots: dict[tuple, dict] = {}
    rank = 0
    cb = get_cbasis(n, params)
    for (ms, I) in descriptor_pairs(n):
        row = {
            col_key(pair): value
            for pair, c in cb.expansion(ms, I).terms.items()
            if (value := c.evaluate(point))
        }
        rank += reduce_row(row, pivots)
    return rank
