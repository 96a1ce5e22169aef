"""The fixed command list of the cli-cold workload and its captured outputs.

``cli_golden.json`` holds each command's stdout and exit code as captured
from the package this benchmark was written against; the cli-cold workload
requires every later run to reproduce them byte for byte.  Regenerate the file
only when an output change is intended:

    python3 bench/cli_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_golden.json")

# the documented exit-code contract
EXIT = {"ok": 0, "distinct": 1, "usage": 2}


def _cmd(name: str, argv: list, expect: str = "ok", tiny: bool = False, repeat: int = 5) -> dict:
    return {"name": name, "argv": argv, "expect": expect, "tiny": tiny, "repeat": repeat}


# A round runs each command ``repeat`` times: nine light commands (interpreter
# start and import dominate) five times each, four wide or self-check commands
# that take several times longer twice each, and the full self check once.
# Of these 54 queries a 10-second run makes about 108, so the tail is the 90th
# percentile and falls in the middle of the longer commands, and the median
# falls well inside the light ones instead of on their slow edge.
COMMANDS = [
    _cmd("invariant-loop", ["invariant", "--strands", "1", "--word", "r"], tiny=True),
    _cmd("invariant-s1", ["invariant", "--strands", "2", "--word", "s1"]),
    _cmd("invariant-json", ["invariant", "--strands", "3", "--word", "s1 s2 r", "--format", "json"]),
    _cmd("trace-text", ["trace", "--strands", "2", "--word", "s1 r"]),
    _cmd("trace-json", ["trace", "--strands", "3", "--word", "r s1 s2'", "--format", "json"]),
    _cmd("compare-equal", ["compare", "--strands-a", "3", "--word-a", "s1 s2",
                           "--strands-b", "3", "--word-b", "s2 s1"]),
    _cmd("compare-json", ["compare", "--strands-a", "2", "--word-a", "r s1",
                          "--strands-b", "2", "--word-b", "s1 r", "--format", "json"]),
    _cmd("compare-distinct", ["compare", "--strands-a", "1", "--word-a", "",
                              "--strands-b", "1", "--word-b", "r"], expect="distinct", tiny=True),
    _cmd("usage-bad-index", ["invariant", "--strands", "2", "--word", "s5"], expect="usage", tiny=True),
    _cmd("invariant-wide", ["invariant", "--strands", "80", "--word", "s1 r s2'"], repeat=2),
    _cmd("trace-wide", ["trace", "--strands", "80", "--word", "r s1' s2", "--format", "json"], repeat=2),
    _cmd("compare-wide", ["compare", "--strands-a", "56", "--word-a", "r s1 r'",
                          "--strands-b", "56", "--word-b", "s1"], repeat=2),
    _cmd("selfcheck-quick", ["selfcheck", "--level", "quick"], repeat=2),
    _cmd("selfcheck-full", ["selfcheck", "--level", "full"], repeat=1),
]


def load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def capture(root: str) -> dict:
    from workloads import child_env

    out = {}
    for c in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "btb.cli", *c["argv"]],
            env=child_env(root), capture_output=True, timeout=170,
        )
        out[c["name"]] = {"stdout": proc.stdout.decode(), "exit": proc.returncode}
    return out


if __name__ == "__main__":
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(capture(root), fh, indent=1, sort_keys=True)
        fh.write("\n")
