"""The four benchmark workloads: seeded inputs, queries, checks, digests.

Each workload is a closed loop over a fixed, seed-derived *round* of queries:
one client, one process, the next query only after the previous one returns.
A workload object offers

- ``warm_up()``: the part of set-up after ``import btb`` (timed as set-up);
- ``round()``: the list of ``(key, thunk)`` queries of one round;
- ``check(key, output)``: the correctness verdict for one query's output,
  evaluated after the timed loop;
- ``extra_checks()``: standalone checks (golden values and the like), also run
  after the timed loop;
- ``canonical(output)``: the JSON-ready form of an output for the digest.

Inputs come only from ``random.Random(seed)`` in this file; the program sees
nothing but the generated words, points and command lines.  ``size="tiny"``
shrinks every input so the harness tests finish in seconds.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

import cli_golden

import btb.algebra as algebra
import btb.coxeter as coxeter
import btb.invariant as invariant
import btb.tensorrep as tensorrep

def make(name: str, seed: int, size: str, root: str):
    if name == "words-warm":
        return WordsWarm(seed, size)
    if name == "wide-closure":
        return WideClosure(seed, size)
    if name == "cli-cold":
        return CliCold(seed, size, root)
    if name == "oracle-rank":
        return OracleRank(seed, size)
    raise ValueError(f"unknown workload {name!r}")


class Workload:
    """Defaults: no standalone checks, outputs already JSON-ready."""

    def extra_checks(self) -> list:
        return []

    @staticmethod
    def canonical(output):
        return output


# -- braid words -------------------------------------------------------------------

def random_word(rng: random.Random, n: int, length: int, inverses: int, loops: int) -> tuple:
    """Letters of a word on n strands with a prescribed number of inverse and
    loop letters; positions and braid indices are random."""
    kinds = ["r"] * loops + ["s"] * (length - loops)
    rng.shuffle(kinds)
    signs = [-1] * inverses + [1] * (length - inverses)
    rng.shuffle(signs)
    return tuple(
        ("r", p) if k == "r" else ("s", rng.randint(1, n - 1), p)
        for k, p in zip(kinds, signs)
    )


def positive_word(n: int, k: int) -> tuple:
    """(r s1 ... s_{n-1})^k."""
    return ((("r", 1),) + tuple(("s", i, 1) for i in range(1, n))) * k


# -- words-warm ---------------------------------------------------------------------

class WordsWarm(Workload):
    """delta_b of a word and of a rotation of it, and their comparison.

    The round mixes random words on 3-5 strands, stratified by length and by
    the number of inverse and loop letters so every seed gets the same cost
    profile, with the positive family (r s1 ... s_{n-1})^k.  Rounds repeat, so
    the descriptor caches are reused heavily.
    """

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        tiny = size == "tiny"
        strands = (2, 3) if tiny else (3, 4, 5)
        lengths = (3, 4) if tiny else (6, 8)
        # Random words stay cheaper than the two heaviest positive words, and
        # 8 words per shape make a round of 300 queries.  At this run length
        # the tail is then the 99.5th percentile, 1.5 queries from the top of
        # a round: the middle of (r s1 s2 s3)^4, not the edge between two
        # queries whose costs differ.
        per_shape = 1 if tiny else 8
        shapes = [
            (n, length, inverses, loops)
            for n in strands
            for length in lengths
            for inverses in sorted({1, 2, length // 2})
            for loops in (1, 2)
        ]
        words = [
            (n, random_word(rng, n, length, inverses, loops))
            for n, length, inverses, loops in shapes
            for _ in range(per_shape)
        ]
        words += [(n, positive_word(n, k)) for n in strands for k in range(1, 3 if tiny else 5)]
        rng.shuffle(words)
        self.queries = [
            (n, letters, rng.randrange(1, len(letters))) for n, letters in words
        ]
        self.warm = [(n, positive_word(n, 2), 1) for n in strands]

    @staticmethod
    def _query(n: int, letters: tuple, shift: int):
        word = coxeter.BraidWordB(n, letters)
        rotated = coxeter.BraidWordB(n, letters[shift:] + letters[:shift])
        a = invariant.delta_b(word)
        b = invariant.delta_b(rotated)
        return (a, b, invariant.invariant_eq(a, b))

    def warm_up(self) -> None:
        for q in self.warm:
            self._query(*q)

    def round(self) -> list:
        return [(i, (lambda q=q: self._query(*q))) for i, q in enumerate(self.queries)]

    def check(self, key, output) -> bool:
        return output[2] is True  # a rotation is a conjugation: the closures agree

    def extra_checks(self) -> list:
        golden = [(1, "", "1"), (1, "r", "y"), (2, "s1", "1")]
        return [
            (f"golden {text!r} on {n}", invariant.delta_b(coxeter.parse_braid_word(text, n)).pretty() == want)
            for n, text, want in golden
        ]

    @staticmethod
    def canonical(output):
        a, b, eq = output
        return [a.to_obj(), b.to_obj(), eq]


# -- wide-closure -------------------------------------------------------------------

class WideClosure(Workload):
    """delta_b of short words on 2-3 strands closed on 40-160 strands.

    Each query has its own strand count, so every count builds its own
    descriptor caches; the first pass over the round fills them during
    set-up, and the timed rounds then run the partition and signed-permutation
    kernels on wide tuples.

    The words are fixed and the seed sets the strand counts (a ladder with
    jitter) and the order.  At a fixed strand count the cost of these queries
    differs up to twofold from word to word, so twelve seeded random words
    would make the seed, not the program, decide the figures.
    """

    WORDS = ((2, "s1"), (3, "s1 s2'"), (2, "r s1'"), (3, "s1 r s2"), (2, "r s1 r'"), (3, "s2'"),
             (2, "r"), (3, "s2 s1"), (2, "s1' r"), (3, "r s2 s1"), (2, "s1 r s1'"), (3, "r'"))

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        # about 45 rounds of 12 make the tail the 95th percentile, 0.6 queries
        # from the top of a round: inside the costliest query
        lo, hi, count = (6, 12, 4) if size == "tiny" else (40, 160, len(self.WORDS))
        self.queries = []
        for i, (m, text) in enumerate(self.WORDS[:count]):
            n = lo + round((hi - lo) * i / (count - 1)) + rng.randint(-2, 2)
            self.queries.append((n, m, coxeter.parse_braid_word(text, m).letters))
        rng.shuffle(self.queries)

    def warm_up(self) -> None:
        for n, _, letters in self.queries:
            invariant.delta_b(coxeter.BraidWordB(n, letters))

    def round(self) -> list:
        return [
            (i, (lambda n=n, letters=letters: invariant.delta_b(coxeter.BraidWordB(n, letters))))
            for i, (n, _, letters) in enumerate(self.queries)
        ]

    def check(self, key, output) -> bool:
        n, m, letters = self.queries[key]
        small = invariant.delta_b(coxeter.BraidWordB(m, letters))
        return invariant.invariant_eq(destabilized(output, n - m), small)

    @staticmethod
    def canonical(output):
        return output.to_obj()


def destabilized(value, extra: int):
    """value * D^-extra with D = 1 / (z s): by tower compatibility of the
    trace, the invariant of the same closure with ``extra`` fewer unused
    strands.  Dividing out D keeps the powers of L small, so the comparison
    stays cheap even with a hundred unused strands."""
    var = invariant.var
    parity = value.s_parity + extra
    half = parity // 2  # s^parity = s^(parity % 2) * (L_NUMER / z)^half
    numer, z_pow, l_pow = value.numer, value.z_pow + half - extra, value.l_pow - half
    if l_pow < 0:
        numer, l_pow = numer * invariant.L_NUMER ** -l_pow, 0
    if z_pow < 0:
        numer, z_pow = numer * var("z", -z_pow), 0
    return invariant.InvariantValue(parity % 2, numer, z_pow, l_pow)


# -- cli-cold -----------------------------------------------------------------------

class CliCold(Workload):
    """One fresh ``python -m btb.cli`` per query, one child at a time.

    The command list is fixed (its outputs were captured once and must match
    byte for byte); the seed only fixes the order.
    """

    def __init__(self, seed: int, size: str, root: str):
        rng = random.Random(seed)
        tiny = size == "tiny"
        self.commands = [
            (f"{c['name']}#{k}", c)
            for c in cli_golden.COMMANDS if c["tiny"] or not tiny
            for k in range(1 if tiny else c["repeat"])
        ]
        rng.shuffle(self.commands)
        self.golden = cli_golden.load()
        self.env = child_env(root)
        self.runner = self._run_module  # the per-layer run swaps in a traced child

    def _run_module(self, argv: list):
        proc = subprocess.run(
            [sys.executable, "-m", "btb.cli", *argv],
            env=self.env, capture_output=True, timeout=170,
        )
        return proc.stdout, proc.returncode, proc.stderr

    def warm_up(self) -> None:
        import btb.cli  # noqa: F401  (set-up is the interpreter plus this import)

    def round(self) -> list:
        return [(key, (lambda c=c: self.runner(c["argv"]))) for key, c in self.commands]

    def check(self, key, output) -> bool:
        stdout, code, stderr = output
        command = dict(self.commands)[key]
        want = self.golden[command["name"]]
        return (
            stdout == want["stdout"].encode()
            and code == want["exit"] == cli_golden.EXIT[command["expect"]]
            and b"Traceback" not in stderr
        )

    @staticmethod
    def canonical(output):
        stdout, code, _ = output
        return [stdout.decode(), code]


def child_env(root: str) -> dict:
    """The environment for a CLI child: the package from the checkout's src,
    no optimisation flag and no seed override (the goldens use the default)."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "BTB_SEED")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- oracle-rank --------------------------------------------------------------------

class OracleRank(Workload):
    """The tensor-representation oracle and exact rank computations.

    A round is one independence certificate on 4 strands at a seeded rational
    point, relation checks on 3 strands over seeded basis-vector samples, and
    descriptor ranks on 3 strands at seeded points.
    """

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        tiny = size == "tiny"
        self.cert_n, self.rel_n, self.rank_n = (2, 2, 2) if tiny else (4, 3, 3)
        # relation checks are most of a round, so both the median and the
        # 75th percentile fall well inside them, not on the edge between two
        # kinds of query whose costs differ tenfold
        relations, ranks = (1, 2) if tiny else (8, 2)
        self.queries = [("certificate", (_unit_free(rng), _unit_free(rng)))]
        self.queries += [("relations", rng.randrange(1 << 30)) for _ in range(relations)]
        self.queries += [
            ("rank", (_unit_free(rng), _unit_free(rng), _any(rng), _any(rng), _unit_free(rng), _any(rng)))
            for _ in range(ranks)
        ]
        self.expected_rank = {2: 40, 3: 720, 4: 19968}

    def _run(self, kind: str, arg):
        if kind == "certificate":
            return tensorrep.independence_certificate(self.cert_n, [arg])
        if kind == "relations":
            return tensorrep.check_relations(self.rel_n, seed=arg)
        return algebra.descriptor_rank(self.rank_n, algebra.SYMBOLIC, arg)

    def warm_up(self) -> None:
        # fills the descriptor expansions once, as any long-lived caller would
        algebra.descriptor_rank(self.rank_n, algebra.SYMBOLIC, (2, 3, 1, 1, 5, 1))

    def round(self) -> list:
        return [
            (i, (lambda kind=kind, arg=arg: self._run(kind, arg)))
            for i, (kind, arg) in enumerate(self.queries)
        ]

    def check(self, key, output) -> bool:
        kind = self.queries[key][0]
        if kind == "certificate":
            return (
                output["full_rank"] is True
                and output["ranks"] == [self.expected_rank[self.cert_n]]
            )
        if kind == "relations":
            return bool(output) and all(r["status"] == "ok" for r in output)
        return output == self.expected_rank[self.rank_n]


def _unit_free(rng: random.Random) -> Fraction:
    """A nonzero rational other than +-1."""
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if value and abs(value) != 1:
            return value


def _any(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
