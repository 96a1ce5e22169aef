"""Byte pin of the command line: stdout and exit code of a fixed command list.

``cli_bytes.json`` holds each command's argv, stdout and exit code, captured
in-process through ``cli.main``.  The test replays every command and compares
the bytes, so a change to the internals that alters any printed digit, term
order or key order fails here.  Regenerate the file only when an output change
is intended:

    PYTHONPATH=src python3 tests/test_cli_bytes.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import pytest

from btb.cli import main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_bytes.json")


def _words() -> list:
    """(strands, word) pairs: named families, then seeded random words."""
    words = [
        (1, ""),
        (1, "r r' r r"),                 # loop letters only
        (3, "r r"),                      # loop letters only, unused strands
        (2, "r s1 r s1"),                # (r s1)^2
        (3, "r s1 s2 r s1 s2"),          # (r s1 s2)^2
        (4, "r s1 s2 s3"),               # (r s1 s2 s3)^1
        (5, "s1 s2' s3 s4'"),            # destabilizes four times
        (4, "r s1' s1' s2 s3'"),         # destabilizes twice, then a full trace
        (42, "r s1' s2"),                # a closure on many unused strands
    ]
    rng = random.Random(20170615)
    while len(words) < 20:
        n = rng.randint(2, 5)
        letters = []
        for _ in range(rng.randint(2, 6)):
            k = rng.randint(0, n - 1)
            tick = "'" if rng.random() < 0.4 else ""
            letters.append(f"r{tick}" if k == 0 else f"s{k}{tick}")
        if (n, " ".join(letters)) not in words:
            words.append((n, " ".join(letters)))
    return words


def commands() -> list:
    out = []
    for n, text in _words():
        for sub in ("invariant", "trace"):
            out.append([sub, "--strands", str(n), "--word", text, "--format", "json"])
    out.append(["selfcheck", "--level", "quick", "--seed", "70520", "--format", "json"])
    return out


def run(argv: list) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return {"argv": argv, "stdout": buf.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def corpus() -> dict:
    with open(CORPUS, encoding="utf-8") as fh:
        return {tuple(case["argv"]): case for case in json.load(fh)}


@pytest.mark.parametrize("argv", commands(), ids=lambda argv: " ".join(argv[:5]))
def test_cli_bytes(argv, corpus):
    assert run(argv) == corpus[tuple(argv)]


if __name__ == "__main__":
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump([run(argv) for argv in commands()], fh, indent=1, sort_keys=True)
        fh.write("\n")
