"""Signed permutations, the type-B normal form, and type-B braid words.

The hyperoctahedral group on n letters consists of the permutations w of
{-n,...,-1,1,...,n} with w(-m) = -w(m).  We store w in window notation, as the
bare tuple (w(1), ..., w(n)); the group is generated by

- ``r``   = the sign change on the first letter, window (-1, 2, ..., n), and
- ``s_i`` = the adjacent transposition of i and i+1,

spelled as the algebra generators they lift to, ``("B",)`` (``GEN_B``) and
``("T", i)``; the inverse letters ``("B-",)`` and ``("T-", i)`` have the same
images, so ``word_to_perm`` also projects a word with inverse letters.

The product ``w_mul(a, b)`` is function composition a∘b (b acts on the point
first), so a word read left to right multiplies left to right: the word
[s1, r] on two letters is w_mul((2, 1), (-1, 2)) = (-2, 1).

Every w factors uniquely as w = w_1 ∘ ... ∘ w_n where w_k moves k to its slot:
w_k is one of 1, r_k, s_{k-1}..s_j, or s_{k-1}..s_j r_j (j < k), with
r_k = s_{k-1}..s_1 r s_1..s_{k-1} the sign change on the k-th letter.  In the
window this is insertion: w_1 ∘ ... ∘ w_k restricted to its first k letters
is the window of w_1 ∘ ... ∘ w_{k-1} with the entry ±k inserted at slot j.
``normal_form`` returns the blocks as the m-word of (j, sign) pairs, one per
level k = 1..n: (k, +1) is the empty block, (k, -1) is r_k, and (j, ±1) with
j < k is s_{k-1}..s_j followed, when the sign is negative, by r_j.
``from_blocks`` inverts it.  The block words (``algebra.block_gens``) are
reduced when concatenated, so their letter count is the Coxeter length.

>>> length((-1, 2)), length((1, -2))
(1, 3)
>>> normal_form((1, -2, 3))
((1, 1), (2, -1), (3, 1))
>>> from_blocks(((1, 1), (1, -1)))
(-2, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

Window = tuple  # tuple[int, ...], window notation
Letter = tuple  # ("T", i) or ("B",); ("T-", i) and ("B-",) act the same

GEN_B = ("B",)


def identity(n: int) -> Window:
    return tuple(range(1, n + 1))


def act(w: Window, point: int) -> int:
    """Image of a signed point under w (w(-m) = -w(m))."""
    if point > 0:
        return w[point - 1]
    return -w[-point - 1]


def w_mul(a: Window, b: Window) -> Window:
    """Composition a∘b: b is applied to the point first."""
    if len(a) != len(b):
        raise ValueError("signed permutations have different sizes")
    return tuple(a[m - 1] if m > 0 else -a[-m - 1] for m in b)


def sigma_shift_inv(n: int, j: int, k: int) -> Window:
    """The cycle s_k∘...∘s_{j-1} for j > k: sends j to k and slides the
    points in [k, j) up by one."""
    assert 1 <= k < j <= n
    win = []
    for i in range(1, n + 1):
        if i == j:
            win.append(k)
        elif k <= i < j:
            win.append(i + 1)
        else:
            win.append(i)
    return tuple(win)


def eta(w: Window) -> tuple:
    """The projection to the symmetric group: i maps to |w(i)|.

    Kills the sign changes and is a homomorphism for w_mul.
    """
    return tuple(abs(m) for m in w)


def perm_inverse(sigma: Sequence[int]) -> tuple:
    out = [0] * len(sigma)
    for i, m in enumerate(sigma, start=1):
        out[m - 1] = i
    return tuple(out)


# -- length, descents, normal form -------------------------------------------

def length(w: Window) -> int:
    """Coxeter length over the generators {r, s_1, ..., s_{n-1}}.

    Closed form: inversions of the window plus, for each negative letter, the
    magnitude of that letter.  Cross-checked against breadth-first search over
    the Cayley graph in the test suite.

    >>> length(identity(3)), length((-1, 2, 3)), length((1, -2, 3))
    (0, 1, 3)
    """
    total = 0
    n = len(w)
    for i in range(n):
        if w[i] < 0:
            total += -w[i]
        for j in range(i + 1, n):
            if w[i] > w[j]:
                total += 1
    return total


def right_descents(w: Window) -> set:
    """Generators g with length(w∘g) < length(w).

    s_i is a descent exactly when w(i) > w(i+1); r exactly when w(1) < 0.
    """
    out = set()
    if w and w[0] < 0:
        out.add(GEN_B)
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            out.add(("T", i))
    return out


def apply_letter(w: Window, letter: Letter) -> Window:
    """w∘g for a single generator g (swap two window entries, or negate the
    first); an inverse letter acts as its positive one."""
    if letter[0] in ("B", "B-"):
        return (-w[0],) + w[1:]
    i = letter[1]
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]


def block_choices(k: int) -> Iterator[tuple]:
    """The 2k (j, sign) choices of the level-k block, in enumeration order."""
    for j in range(k, 0, -1):
        yield (j, 1)
        yield (j, -1)


@lru_cache(maxsize=None)
def normal_form(w: Window) -> tuple:
    """The block decomposition (see module docstring) as its m-word: one
    (j, sign) per level, found by deleting ±k from the first k letters for
    k = n, ..., 1.

    >>> normal_form((1, 2))
    ((1, 1), (2, 1))
    >>> normal_form((2, 1))
    ((1, 1), (1, 1))
    """
    win = list(w)
    blocks = []
    for k in range(len(win), 0, -1):
        j = next(i for i in range(k) if abs(win[i]) == k)
        blocks.append((j + 1, 1 if win.pop(j) > 0 else -1))
    blocks.reverse()
    return tuple(blocks)


def from_blocks(mword: Sequence[tuple]) -> Window:
    """The group element of an m-word: insert sign * k at slot j, level by
    level; the inverse of ``normal_form``."""
    win: list[int] = []
    for k, (j, sign) in enumerate(mword, start=1):
        win.insert(j - 1, sign * k)
    return tuple(win)


@lru_cache(maxsize=None)
def reduced_word(w: Window) -> tuple:
    """Some reduced word for w, produced by stripping right descents.

    The letter count always equals length(w); multiplying the letters back
    reproduces w (Matsumoto guarantees any reduced word works downstream).
    """
    rev: list[Letter] = []
    current = w
    while True:
        descents = right_descents(current)
        if not descents:
            break
        letter = min(descents)  # deterministic choice: ("B",) before ("T", i)
        rev.append(letter)
        current = apply_letter(current, letter)
    assert current == identity(len(w))
    return tuple(reversed(rev))


def word_to_perm(n: int, word: Sequence[Letter]) -> Window:
    current = identity(n)
    for letter in word:
        current = apply_letter(current, letter)
    return current


def enumerate_group(n: int) -> Iterator[Window]:
    """All 2^n n! signed permutations, in m-word order (level 1 outermost)."""
    return map(from_blocks, product(*map(block_choices, range(1, n + 1))))


def random_signed_perm(rng, n: int) -> Window:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(m if rng.random() < 0.5 else -m for m in values)


# -- type-B braid words --------------------------------------------------------

class BraidParseError(ValueError):
    """Raised on malformed braid-word text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at token position {position})")
        self.position = position


@dataclass(frozen=True)
class BraidWordB:
    """A word in the generators of the type-B braid group on n strands.

    Letters are ("r", ±1) for the loop generator and its inverse, or
    ("s", i, ±1) for the braid generator σ_i and its inverse.
    """

    n: int
    letters: tuple

    def __post_init__(self):
        for letter in self.letters:
            if letter[0] == "s":
                if not (1 <= letter[1] <= self.n - 1):
                    raise BraidParseError(
                        f"braid index {letter[1]} needs at least {letter[1] + 1} strands",
                        0,
                    )
            elif letter[0] != "r":
                raise ValueError(f"unknown braid letter {letter!r}")

    def __str__(self) -> str:
        out = []
        for letter in self.letters:
            if letter[0] == "r":
                out.append("r" if letter[1] > 0 else "r'")
            else:
                out.append(f"s{letter[1]}" if letter[2] > 0 else f"s{letter[1]}'")
        return " ".join(out)


def parse_braid_word(text: str, n: int) -> BraidWordB:
    """Parse a whitespace-separated braid word.

    Grammar: ``r`` is the loop generator, ``r'`` its inverse, ``sK`` is σ_K,
    ``sK'`` its inverse.  Indices are validated against the strand count.

    >>> str(parse_braid_word("r s1 s1' r'", 2))
    "r s1 s1' r'"
    """
    if n < 1:
        raise BraidParseError("strand count must be at least 1", 0)
    letters = []
    for pos, token in enumerate(text.split(), start=1):
        power = 1
        body = token
        if body.endswith("'"):
            power = -1
            body = body[:-1]
        if body == "r":
            letters.append(("r", power))
            continue
        if body.startswith("s") and body[1:].isdigit():
            index = int(body[1:])
            if not (1 <= index <= n - 1):
                raise BraidParseError(
                    f"braid index {index} out of range for {n} strands", pos
                )
            letters.append(("s", index, power))
            continue
        raise BraidParseError(f"unrecognized token {token!r}", pos)
    return BraidWordB(n, tuple(letters))


def exponent_sum(word: BraidWordB) -> int:
    """Sum of the σ exponents; loop letters do not count.

    >>> exponent_sum(parse_braid_word("s1 s1 s2'", 3))
    1
    >>> exponent_sum(parse_braid_word("r s1 r'", 2))
    1
    """
    return sum(letter[2] for letter in word.letters if letter[0] == "s")
