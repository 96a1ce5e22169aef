"""Set partitions of {0, 1, ..., n} and their join (coarsening) lattice.

The index 0 is reserved for the fixed strand: blocks through 0 encode ties to
it, blocks inside {1..n} encode ties between moving strands.  Permutations act
on {1..n} only and always fix 0.

Conventions:

- A partition is stored as its parent vector: ``parent[i]`` is the minimum of
  the block containing i.  This makes equality, hashing and canonical
  printing O(n) and gives every partition exactly one representation.
- Singleton blocks are stored explicitly but omitted when printing, so
  ``({1,2})`` over {0,...,3} means blocks {1,2}, {0}, {3}.
- ``join`` is the coarsest-common-refinement join: the smallest partition
  that both arguments refine.

>>> I = from_blocks(8, [[1, 4], [2, 5], [3, 6, 7]])
>>> str(join_set(I, {4, 5, 8}))
'({1,2,4,5,8},{3,6,7})'
>>> str(join_set(I, {2, 3}))
'({1,4},{2,3,5,6,7})'
>>> join_set(I, {6, 7}) == I
True
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class SetPartition0:
    """A set partition of {0, ..., n} in canonical block-minimum form."""

    __slots__ = ("n", "parent", "_hash")

    def __init__(self, n: int, parent: Sequence[int]):
        parent = tuple(parent)
        if len(parent) != n + 1:
            raise ValueError("parent vector must have n + 1 entries")
        for i, p in enumerate(parent):
            if not (0 <= p <= i) or parent[p] != p:
                raise ValueError("parent vector is not a block-minimum labelling")
        self.n = n
        self.parent = parent
        self._hash = hash(parent)

    @classmethod
    def _raw(cls, n: int, parent: tuple[int, ...]) -> "SetPartition0":
        part = object.__new__(cls)
        part.n = n
        part.parent = parent
        part._hash = hash(parent)
        return part

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetPartition0):
            return NotImplemented
        return self.n == other.n and self.parent == other.parent

    def __hash__(self) -> int:
        return self._hash

    def blocks(self) -> list[tuple[int, ...]]:
        """All blocks (including singletons), sorted by minimum."""
        by_root: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            by_root.setdefault(p, []).append(i)
        return [tuple(by_root[root]) for root in sorted(by_root)]

    def __str__(self) -> str:
        nontrivial = [b for b in self.blocks() if len(b) > 1]
        inner = ",".join("{" + ",".join(map(str, b)) + "}" for b in nontrivial)
        return f"({inner})"

    def __repr__(self) -> str:
        return f"SetPartition0({self.n}, {self.parent})"

    def to_obj(self) -> list[list[int]]:
        return [list(b) for b in self.blocks()]

    @classmethod
    def from_obj(cls, n: int, blocks: Iterable[Iterable[int]]) -> "SetPartition0":
        return from_blocks(n, blocks)


def singletons(n: int) -> SetPartition0:
    """The finest partition of {0, ..., n}."""
    return SetPartition0._raw(n, tuple(range(n + 1)))


def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> SetPartition0:
    """Build a partition from (possibly partial) blocks; missing elements
    become singletons."""
    parent = list(range(n + 1))
    for block in blocks:
        block = sorted(block)
        if not block:
            continue
        if block[0] < 0 or block[-1] > n:
            raise ValueError(f"block element out of range for n = {n}: {block}")
        root = parent[block[0]]
        for i in block:
            root = min(root, parent[i])
        for i in block:
            _relabel(parent, parent[i], root)
    return SetPartition0._raw(n, tuple(parent))


def _relabel(parent: list[int], old: int, new: int) -> None:
    if old == new:
        return
    for i in range(old, len(parent)):
        if parent[i] == old:
            parent[i] = new


def join(I: SetPartition0, J: SetPartition0) -> SetPartition0:
    """The smallest partition refined by both I and J."""
    if I.n != J.n:
        raise ValueError("partitions live over different ground sets")
    parent = list(I.parent)
    for i, q in enumerate(J.parent):
        a, b = parent[i], parent[q]
        if a != b:
            _relabel(parent, max(a, b), min(a, b))
    return SetPartition0._raw(I.n, tuple(parent))


def join_set(I: SetPartition0, A: Iterable[int]) -> SetPartition0:
    """The smallest partition refined by I in which A lies in one block."""
    items = sorted(set(A))
    if not items:
        return I
    if items[0] < 0 or items[-1] > I.n:
        raise ValueError(f"index out of range for n = {I.n}: {items}")
    parent = list(I.parent)
    root = min(parent[i] for i in items)
    for i in items:
        _relabel(parent, parent[i], root)
    return SetPartition0._raw(I.n, tuple(parent))


def refines(I: SetPartition0, J: SetPartition0) -> bool:
    """True when every block of J is a union of blocks of I."""
    if I.n != J.n:
        raise ValueError("partitions live over different ground sets")
    return all(J.parent[p] == J.parent[i] for i, p in enumerate(I.parent))


def isolate(I: SetPartition0, k: int) -> SetPartition0:
    """Detach k (1 <= k <= n) into a singleton; the ground set is unchanged."""
    if not (1 <= k <= I.n):
        raise ValueError(f"cannot isolate {k} in a partition of 0..{I.n}")
    parent = list(I.parent)
    if parent[k] == k:
        mates = [i for i in range(k + 1, I.n + 1) if parent[i] == k]
        if mates:
            new_root = mates[0]
            for i in mates:
                parent[i] = new_root
    else:
        parent[k] = k
    return SetPartition0._raw(I.n, tuple(parent))


def remove(I: SetPartition0, k: int) -> SetPartition0:
    """Delete k (>= 1) from its block.

    For k = n the ground set shrinks to {0, ..., n-1}; for k < n all labels
    are kept and k is simply parked as a singleton (nothing in this package
    ever reattaches it).  0 is never removed.

    >>> str(remove(from_blocks(6, [[1, 2, 3], [4, 6]]), 6))
    '({1,2,3})'
    >>> str(remove(from_blocks(3, [[0, 3]]), 3))
    '()'
    """
    if k == 0:
        raise ValueError("0 is never removed")
    if not (1 <= k <= I.n):
        raise ValueError(f"cannot remove {k} from a partition of 0..{I.n}")
    if k < I.n:
        return isolate(I, k)
    # the top element is nobody's block minimum except its own
    return SetPartition0._raw(I.n - 1, isolate(I, k).parent[:-1])


def apply_perm(sigma: Sequence[int], I: SetPartition0) -> SetPartition0:
    """Blockwise image of I under a permutation of {1..n} (0 stays fixed).

    ``sigma`` is given in one-line notation: sigma[i-1] is the image of i.
    """
    if len(sigma) != I.n:
        raise ValueError("permutation size does not match the partition")
    image = [0] * (I.n + 1)
    for i in range(1, I.n + 1):
        image[i] = sigma[i - 1]
    # group images by source block, then relabel each group by its minimum
    members: dict[int, list[int]] = {}
    for i in range(I.n + 1):
        members.setdefault(I.parent[i], []).append(image[i])
    parent = [0] * (I.n + 1)
    for group in members.values():
        root = min(group)
        for j in group:
            parent[j] = root
    return SetPartition0._raw(I.n, tuple(parent))


def tau(I: SetPartition0, a: int, b: int) -> SetPartition0:
    """Join {a, b} into one block, then remove the larger of the two.

    The larger index must be the top element n of the ground set (which is
    how the contraction is always used); the result lives over {0,...,n-1}.
    """
    if a == b:
        raise ValueError("contraction needs two distinct indices")
    hi, lo = max(a, b), min(a, b)
    if lo < 1 or hi != I.n:
        raise ValueError(f"contraction indices ({a}, {b}) invalid for n = {I.n}")
    return remove(join_set(I, (hi, lo)), hi)


def tau_keep(I: SetPartition0, a: int, b: int) -> SetPartition0:
    """Like :func:`tau` but parking the removed index as a singleton, so the
    ground set is unchanged and the larger index need not be n."""
    hi, lo = max(a, b), min(a, b)
    if lo < 1 or hi > I.n:
        raise ValueError(f"contraction indices ({a}, {b}) invalid for n = {I.n}")
    return isolate(join_set(I, (hi, lo)), hi)


def embed(I: SetPartition0, n: int) -> SetPartition0:
    """View I inside a larger ground set; new elements become singletons."""
    if n < I.n:
        raise ValueError("cannot embed into a smaller ground set")
    return SetPartition0._raw(n, I.parent + tuple(range(I.n + 1, n + 1)))


# -- the idempotent-pair coordinates -----------------------------------------

def psi(I: SetPartition0) -> tuple[SetPartition0, frozenset[int]]:
    """Split I into (ties among {1..n}, set tied to the fixed strand).

    The first component drops the 0-block entirely (its members become
    singletons, ground set unchanged); the second is the 0-block minus 0,
    empty when 0 is a singleton.
    """
    zero_block = tuple(i for i in range(1, I.n + 1) if I.parent[i] == 0)
    if not zero_block:
        return I, frozenset()
    parent = list(I.parent)
    for i in zero_block:
        parent[i] = i
    return SetPartition0._raw(I.n, tuple(parent)), frozenset(zero_block)


def phi(J: SetPartition0, A: Iterable[int]) -> SetPartition0:
    """Inverse of :func:`psi`: join the 0-block A ∪ {0} back in."""
    return join_set(J, set(A) | {0})


# -- enumeration --------------------------------------------------------------

def bell_number(m: int) -> int:
    """Number of set partitions of an m-element set.

    >>> [bell_number(m) for m in range(8)]
    [1, 1, 2, 5, 15, 52, 203, 877]
    """
    if m < 0:
        raise ValueError("negative set size")
    row = [1]
    for _ in range(m - 1):
        prev = row
        row = [prev[-1]]
        for val in prev:
            row.append(row[-1] + val)
    return row[-1] if m else 1


def enumerate_partitions(n: int) -> Iterator[SetPartition0]:
    """All partitions of {0, ..., n} in restricted-growth order.

    Yields exactly bell_number(n + 1) distinct partitions deterministically.
    """
    size = n + 1

    def grow(rgs: list[int], maxval: int) -> Iterator[list[int]]:
        if len(rgs) == size:
            yield rgs
            return
        for val in range(maxval + 2):
            yield from grow(rgs + [val], max(maxval, val))

    for rgs in grow([0], 0):
        # block labels in the growth string are first-occurrence indices
        first: dict[int, int] = {}
        parent = []
        for i, label in enumerate(rgs):
            parent.append(first.setdefault(label, i))
        yield SetPartition0._raw(n, tuple(parent))


def random_partition(rng, n: int) -> SetPartition0:
    """A partition of {0,...,n} drawn via a uniformly random growth string."""
    first: dict[int, int] = {}
    parent = []
    maxval = -1
    for i in range(n + 1):
        val = rng.randint(0, maxval + 1)
        maxval = max(maxval, val)
        parent.append(first.setdefault(val, i))
    return SetPartition0._raw(n, tuple(parent))
