"""Signed permutations, the type-B normal form, and type-B braid words.

The hyperoctahedral group on n letters consists of the permutations w of
{-n,...,-1,1,...,n} with w(-m) = -w(m).  We store w in window notation, as the
bare tuple (w(1), ..., w(n)); the group is generated by

- ``r``   = the sign change on the first letter, window (-1, 2, ..., n), and
- ``s_i`` = the adjacent transposition of i and i+1.

The product ``w_mul(a, b)`` is function composition a∘b (b acts on the point
first), so a word read left to right multiplies left to right:
``word_to_perm`` of [s1, r] equals w_mul(gen_s(n, 1), gen_r(n)).

Every w factors uniquely as w = w_1 ∘ ... ∘ w_n where w_k moves k to its slot:
w_k is one of 1, r_k, s_{k-1}..s_j, or s_{k-1}..s_j r_j (j < k), with
r_k = s_{k-1}..s_1 r s_1..s_{k-1}.  The concatenated block words are reduced,
so their total letter count is the Coxeter length.  ``normal_form`` returns
the blocks as triples (k, j, sign): (k, k, +1) is the empty block, (k, k, -1)
is r_k, and (k, j, ±1) with j < k is s_{k-1}..s_j followed, when the sign is
negative, by r_j.

>>> length(gen_r(2)), length(r_k(2, 2))
(1, 3)
>>> normal_form(r_k(3, 2))
((1, 1, 1), (2, 2, -1), (3, 3, 1))
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

Window = tuple  # tuple[int, ...], window notation
Letter = tuple  # ("s", i) or ("r",)

R_LETTER = ("r",)


def identity(n: int) -> Window:
    return tuple(range(1, n + 1))


def gen_r(n: int) -> Window:
    assert n >= 1
    return (-1,) + tuple(range(2, n + 1))


def gen_s(n: int, i: int) -> Window:
    assert 1 <= i <= n - 1
    win = list(range(1, n + 1))
    win[i - 1], win[i] = win[i], win[i - 1]
    return tuple(win)


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


def w_inv(a: Window) -> Window:
    out = [0] * len(a)
    for i, m in enumerate(a, start=1):
        if m > 0:
            out[m - 1] = i
        else:
            out[-m - 1] = -i
    return tuple(out)


def r_k(n: int, k: int) -> Window:
    """The sign change on the k-th letter, r_k = s_{k-1}..s_1 r s_1..s_{k-1}."""
    assert 1 <= k <= n
    win = list(range(1, n + 1))
    win[k - 1] = -k
    return tuple(win)


def sigma_shift(n: int, j: int, k: int) -> Window:
    """The cycle s_{j-1}∘...∘s_k for j > k: sends k to j and slides the
    points in (k, j] down by one."""
    assert 1 <= k < j <= n
    win = []
    for i in range(1, n + 1):
        if i == k:
            win.append(j)
        elif k < i <= j:
            win.append(i - 1)
        else:
            win.append(i)
    return tuple(win)


def sigma_shift_inv(n: int, j: int, k: int) -> Window:
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

    >>> length(identity(3)), length(gen_r(3)), length(r_k(3, 2))
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
        out.add(R_LETTER)
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            out.add(("s", i))
    return out


def apply_letter(w: Window, letter: Letter) -> Window:
    """w∘g for a single generator g (swap two window entries, or negate the
    first)."""
    if letter == R_LETTER:
        return (-w[0],) + w[1:]
    i = letter[1]
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]


def normal_form(w: Window) -> tuple:
    """The block decomposition (see module docstring) as (k, j, sign) triples.

    >>> normal_form(identity(2))
    ((1, 1, 1), (2, 2, 1))
    >>> normal_form(gen_s(2, 1))
    ((1, 1, 1), (2, 1, 1))
    """
    n = len(w)
    blocks = []
    current = w
    for k in range(n, 0, -1):
        j = next(i for i in range(1, k + 1) if abs(current[i - 1]) == k)
        sign = 1 if current[j - 1] > 0 else -1
        blocks.append((k, j, sign))
        current = w_mul(current, w_inv(block_perm(k, j, sign, n)))
        assert current[k - 1 :] == tuple(range(k, n + 1))
    blocks.reverse()
    return tuple(blocks)


def block_perm(k: int, j: int, sign: int, n: int) -> Window:
    """The group element of one normal-form block descriptor."""
    if j == k:
        return identity(n) if sign > 0 else r_k(n, k)
    base = sigma_shift(n, k, j)
    if sign > 0:
        return base
    return w_mul(base, r_k(n, j))


def block_word(block: tuple) -> tuple:
    """A reduced word for one normal-form block, letters left to right."""
    k, j, sign = block
    word: list[Letter] = [("s", i) for i in range(k - 1, j - 1, -1)]
    if sign < 0:
        word.extend(("s", i) for i in range(j - 1, 0, -1))
        word.append(R_LETTER)
        word.extend(("s", i) for i in range(1, j))
    return tuple(word)


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
        letter = min(descents)  # deterministic choice: ("r",) before ("s", i)
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
    """All 2^n n! signed permutations, in normal-form block order."""

    def rec(k: int, acc: Window) -> Iterator[Window]:
        if k > n:
            yield acc
            return
        for block in _block_range(k):
            yield from rec(k + 1, w_mul(acc, block_perm(*block, n)))

    yield from rec(1, identity(n))


def _block_range(k: int) -> Iterator[tuple]:
    yield (k, k, 1)
    yield (k, k, -1)
    for j in range(k - 1, 0, -1):
        yield (k, j, 1)
        yield (k, j, -1)


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
