"""The faithful tensor representation: the independent multiplication oracle.

The algebra on n strands acts (on the right) on V^{⊗n}, where V has basis
vectors indexed by pairs (i, r) with i in {-n,...,-1,1,...,n} and a rank
r in {0,...,d-1}; d = n + 1 throughout.  Smaller d is kept only as the
negative control of ``independence_certificate``, where independence is
expected to fail; vectors do not store d, it bounds the ranks only when a
vector is built.

Local rules, acting on one or two tensor factors and extended linearly:

- F kills rank > 0 and fixes rank 0;        E kills unequal ranks, fixes equal;
- B negates the index, with the correction (v - v^-1) * (unchanged) added when
  the index was negative at rank 0;
- T swaps the two factors, scaled by u when the pairs are identical, and with
  the correction (u - u^-1) * (unchanged) added when the left index exceeds
  the right at equal ranks.

The oracle runs at the symbolic u, v (``algebra.SYMBOLIC``) only.  Vectors
are sparse maps from multi-indices to coefficients; operators are never
materialized as matrices.  The sparse linear combination
(``SparseVector``, whose ``sum_of`` builds every sum of scaled vectors), the
sparse accumulate, the expansion of the inverse generators and the exact row
reduction of the independence certificate are the ones defined in
``algebra``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from typing import Iterable, Iterator, Sequence

from .coeff import ONE, LaurentPoly, var
from .coxeter import Window, enumerate_group, reduced_word
from .partitions import SetPartition0, enumerate_partitions, refines
from .algebra import (
    AlgebraElement,
    SYMBOLIC,
    SparseVector,
    _acc,
    _check_gen,
    reduce_row as _reduce_row,
    split_inverse,
)

MultiIndex = tuple  # tuple of (i, r) pairs, one per tensor factor

U = var("u")  # the T-eigenvalue on two identical factors


class TensorVector(SparseVector):
    """A sparse vector of V^{⊗n}; no zero entries stored.  ``d`` (default
    n + 1) bounds the ranks of the given entries and is not kept."""

    __slots__ = ()

    def __init__(self, n: int, terms: dict | None = None, d: int | None = None):
        d = n + 1 if d is None else d
        cleaned: dict[MultiIndex, LaurentPoly] = {}
        if terms:
            for idx, c in terms.items():
                idx = tuple(idx)
                if len(idx) != n:
                    raise ValueError("multi-index length does not match n")
                for i, r in idx:
                    if i == 0 or abs(i) > n or not (0 <= r < d):
                        raise ValueError(f"index component {(i, r)} out of range")
                if c:
                    cleaned[idx] = c
        self.n = n
        self.terms = cleaned

    def __repr__(self) -> str:
        return f"<TensorVector n={self.n} with {len(self.terms)} entries>"


def basis_vector(n: int, idx: Iterable, d: int | None = None) -> TensorVector:
    return TensorVector(n, {tuple(idx): ONE}, d=d)


def all_multi_indices(n: int) -> Iterator[MultiIndex]:
    """All standard basis multi-indices, deterministically ordered (the last
    factor varies fastest)."""
    pairs = [(i, r) for i in range(-n, n + 1) if i for r in range(n + 1)]
    return product(pairs, repeat=n)


def random_multi_index(rng, n: int) -> MultiIndex:
    out = []
    for _ in range(n):
        i = rng.randint(1, n) * (1 if rng.random() < 0.5 else -1)
        out.append((i, rng.randrange(n + 1)))
    return tuple(out)


# -- generator actions ---------------------------------------------------------

def apply_gen(vec: TensorVector, g: tuple) -> TensorVector:
    """Right action of one generator; an inverse adds its tie term
    (``algebra.split_inverse``) in the same pass."""
    _check_gen(g, vec.n)
    g, tie = split_inverse(g, SYMBOLIC)
    kind = g[0]
    out: dict[MultiIndex, LaurentPoly] = {}
    if kind == "E":
        i = g[1]
        for idx, c in vec.terms.items():
            if idx[i - 1][1] == idx[i][1]:
                out[idx] = c
    elif kind == "F":
        j = g[1]
        for idx, c in vec.terms.items():
            if idx[j - 1][1] == 0:
                out[idx] = c
    elif kind == "T":
        i = g[1]
        for idx, c in vec.terms.items():
            a, r = idx[i - 1]
            b, s = idx[i]
            swapped = idx[: i - 1] + (idx[i], idx[i - 1]) + idx[i + 1 :]
            if r != s:
                _acc(out, swapped, c)
                continue
            if a == b:
                _acc(out, idx, c * U)
            else:
                _acc(out, swapped, c)
            if a > b:
                _acc(out, idx, c * SYMBOLIC.qu)
            if tie is not None:  # E_i fixes equal ranks
                _acc(out, idx, c * tie)
    else:  # "B"
        for idx, c in vec.terms.items():
            a, r = idx[0]
            _acc(out, ((-a, r),) + idx[1:], c)
            if r == 0:
                if a < 0:
                    _acc(out, idx, c * SYMBOLIC.qv)
                if tie is not None:  # F_1 fixes rank 0
                    _acc(out, idx, c * tie)
    return TensorVector._raw(vec.n, out)


def apply_word(vec: TensorVector, w: Window) -> TensorVector:
    return reduce(apply_gen, reduced_word(w), vec)


def ef_filter(vec: TensorVector, I: SetPartition0) -> TensorVector:
    """Project onto the vectors the idempotents of I fix: ranks must agree
    inside every block of I, and vanish on the block through 0."""
    out: dict[MultiIndex, LaurentPoly] = {}
    for idx, c in vec.terms.items():
        seen: dict[int, int] = {}
        ok = True
        for t in range(1, vec.n + 1):
            root = I.parent[t]
            r = idx[t - 1][1]
            if root == 0:
                if r != 0:
                    ok = False
                    break
            else:
                prev = seen.setdefault(root, r)
                if prev != r:
                    ok = False
                    break
        if ok:
            out[idx] = c
    return TensorVector._raw(vec.n, out)


def apply_elem(vec: TensorVector, e: AlgebraElement) -> TensorVector:
    """Right action of an algebra element: idempotent projection per term,
    then the letters of the group part, linearly extended."""
    if e.n != vec.n:
        raise ValueError("element and vector strand counts differ")
    return TensorVector.sum_of(
        vec.n,
        ((apply_word(ef_filter(vec, I), w), c) for (I, w), c in e.terms.items()),
    )


# -- the pure-tensor images of group elements ------------------------------------

def block_ranks(I: SetPartition0, d: int | None = None) -> tuple:
    """The rank labelling attached to a partition: the block through 0 gets
    rank 0 and the remaining blocks are numbered from 1 in order of their
    minima.  Ranks are clamped to d-1 when a smaller d is forced (negative
    control only)."""
    d = I.n + 1 if d is None else d
    label: dict[int, int] = {0: 0}
    nxt = 1
    ranks = []
    for t in range(1, I.n + 1):
        root = I.parent[t]
        if root not in label:
            label[root] = nxt
            nxt += 1
        ranks.append(min(label[root], d - 1))
    return tuple(ranks)


def partition_vector(I: SetPartition0, d: int | None = None) -> TensorVector:
    """The pure tensor whose t-th factor is (t, rank of t's block)."""
    ranks = block_ranks(I, d)
    idx = tuple((t, ranks[t - 1]) for t in range(1, I.n + 1))
    return basis_vector(I.n, idx, d=d)


def predicted_word_image(I: SetPartition0, w: Window) -> MultiIndex:
    """Where the group part sends the partition vector: factor t carries the
    index w(t) and the rank of |w(t)|'s block."""
    ranks = block_ranks(I)
    return tuple((w[t - 1], ranks[abs(w[t - 1]) - 1]) for t in range(1, I.n + 1))


# -- relation checking -----------------------------------------------------------

def defining_relations(n: int) -> list:
    """The full defining-relation catalog at every legal index.

    Each entry is (name, sides) where every side is a list of
    (coefficient, generator word) pairs; all sides of one entry must agree.
    """
    rels: list[tuple[str, list]] = []

    def plain(name: str, *words) -> None:
        rels.append((name, [[(ONE, tuple(word))] for word in words]))

    one = ONE
    if n >= 1:
        rels.append(
            ("quad-B", [[(one, (("B",), ("B",)))], [(one, ()), (SYMBOLIC.qv, (("F", 1), ("B",)))]])
        )
        for j in range(1, n + 1):
            plain(f"idem-F[{j}]", (("F", j), ("F", j)), (("F", j),))
            plain(f"comm-BF[{j}]", (("B",), ("F", j)), (("F", j), ("B",)))
    for i in range(1, n):
        rels.append(
            (
                f"quad-T[{i}]",
                [
                    [(one, (("T", i), ("T", i)))],
                    [(one, ()), (SYMBOLIC.qu, (("E", i), ("T", i)))],
                ],
            )
        )
        plain(f"idem-E[{i}]", (("E", i), ("E", i)), (("E", i),))
        plain(f"comm-ET[{i}]", (("E", i), ("T", i)), (("T", i), ("E", i)))
        plain(f"comm-BE[{i}]", (("B",), ("E", i)), (("E", i), ("B",)))
        if i > 1:
            plain(f"comm-BT[{i}]", (("B",), ("T", i)), (("T", i), ("B",)))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                plain(f"comm-TT[{i},{j}]", (("T", i), ("T", j)), (("T", j), ("T", i)))
                plain(f"far-ET[{i},{j}]", (("E", i), ("T", j)), (("T", j), ("E", i)))
            if abs(i - j) == 1:
                plain(
                    f"mixed-EET[{i},{j}]",
                    (("E", i), ("E", j), ("T", i)),
                    (("T", i), ("E", i), ("E", j)),
                    (("E", j), ("T", i), ("E", j)),
                )
                plain(
                    f"mixed-ETT[{i},{j}]",
                    (("E", i), ("T", j), ("T", i)),
                    (("T", j), ("T", i), ("E", j)),
                )
            if i < j:
                plain(f"comm-EE[{i},{j}]", (("E", i), ("E", j)), (("E", j), ("E", i)))
    for i in range(1, n - 1):
        plain(
            f"braid-TTT[{i}]",
            (("T", i), ("T", i + 1), ("T", i)),
            (("T", i + 1), ("T", i), ("T", i + 1)),
        )
    if n >= 2:
        plain(
            "braid-BTBT",
            (("B",), ("T", 1), ("B",), ("T", 1)),
            (("T", 1), ("B",), ("T", 1), ("B",)),
        )
    for i in range(1, n):
        for j in range(1, n + 1):
            plain(f"comm-FE[{j},{i}]", (("F", j), ("E", i)), (("E", i), ("F", j)))
            sj = j
            if j == i:
                sj = i + 1
            elif j == i + 1:
                sj = i
            plain(f"perm-FT[{j},{i}]", (("F", j), ("T", i)), (("T", i), ("F", sj)))
        plain(
            f"tie-EF[{i}]",
            (("E", i), ("F", i)),
            (("F", i), ("F", i + 1)),
            (("E", i), ("F", i + 1)),
        )
    return rels


def apply_side(vec: TensorVector, side: list) -> TensorVector:
    return TensorVector.sum_of(vec.n, ((reduce(apply_gen, word, vec), coeff) for coeff, word in side))


RELATION_SAMPLE = 500  # seeded basis vectors drawn when the space is larger


def check_relations(n: int, seed: int = 0) -> list[dict]:
    """Verify every defining relation on basis vectors of V^{⊗n}.

    Uses all standard basis vectors when the space is small, otherwise a
    seeded random sample of ``RELATION_SAMPLE`` of them.  Returns one record
    per relation: {"relation", "index", "status"}.
    """
    total = (2 * n * (n + 1)) ** n
    if total <= RELATION_SAMPLE:
        vectors = [basis_vector(n, idx) for idx in all_multi_indices(n)]
    else:
        import random

        rng = random.Random(seed)
        vectors = [
            basis_vector(n, random_multi_index(rng, n)) for _ in range(RELATION_SAMPLE)
        ]
    report = []
    for name, sides in defining_relations(n):
        status = "ok"
        for vec in vectors:
            images = [apply_side(vec, side) for side in sides]
            if any(img != images[0] for img in images[1:]):
                status = "fail"
                break
        base, _, idx = name.partition("[")
        report.append(
            {"relation": base, "index": "[" + idx if idx else "", "status": status}
        )
    return report


# -- linear-independence certificate ----------------------------------------------

def independence_certificate(
    n: int,
    points: Sequence,
    d: int | None = None,
) -> dict:
    """Certify that the images of all basis pairs are linearly independent.

    For every partition I the pure tensor attached to I is hit with the image
    of every basis pair (J, w); the coordinate rows (one block of columns per
    evaluation partition) are stacked and row-reduced exactly at each given
    rational (u, v) point.  Full row rank at a point certifies generic
    independence; deficiency at every point is a hard failure.

    With the genuine rank dimension d = n + 1, each surviving evaluation is a
    single pure tensor with unit coefficient, which is asserted (it is also
    why the reduction stays fast).
    """
    d_eff = n + 1 if d is None else d
    parts = sorted(
        enumerate_partitions(n),
        key=lambda I: (-len(set(I.parent)), I.parent),
    )
    part_index = {I: t for t, I in enumerate(parts)}
    group = list(enumerate_group(n))
    vectors = {I: partition_vector(I, d=d_eff) for I in parts}

    # image of the group part on each partition vector, once
    images: dict[tuple, TensorVector] = {}
    for I in parts:
        for w in group:
            img = apply_word(vectors[I], w)
            if d_eff == n + 1:
                assert list(img.terms.values()) == [ONE], "group image is not pure"
                assert next(iter(img.terms)) == predicted_word_image(I, w)
            images[(part_index[I], w)] = img

    expected = len(parts) * len(group)
    ranks = []
    for point in points:
        point6 = (Fraction(point[0]), Fraction(point[1]), 1, 1, 1, 1)
        pivots: dict[tuple, dict] = {}
        rank = 0
        for J in parts:
            # the I whose pure tensor the idempotents of J fix; with the genuine
            # d this is exactly "J refines I", smaller d keeps more pairs alive
            touched = [I for I in parts if ef_filter(vectors[I], J)]
            if d_eff == n + 1:
                assert all(refines(J, I) for I in touched)
            for w in group:
                row: dict[tuple, Fraction] = {}
                for I in touched:
                    t = part_index[I]
                    for idx, c in images[(t, w)].terms.items():
                        _acc(row, (t, idx), c.evaluate(point6))
                rank += _reduce_row(row, pivots)
        ranks.append(rank)

    return {
        "n": n,
        "d": d_eff,
        "expected": expected,
        "points": [[str(Fraction(p[0])), str(Fraction(p[1]))] for p in points],
        "ranks": ranks,
        "full_rank": all(r == expected for r in ranks),
    }
