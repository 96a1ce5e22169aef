"""Command-line front end.

Subcommands:
  invariant  --strands N --word "..."        closed-braid invariant
  trace      --strands N --word "..."        Markov trace of the word's image
  compare    --strands-a .. --word-a .. --strands-b .. --word-b ..
  dims       --n N                           basis census vs dimension formula
  selfcheck  [--level quick|full] [--seed S] property suites

Braid words are whitespace-separated tokens: ``r`` (loop), ``r'`` (its
inverse), ``sK`` and ``sK'`` for the K-th braid generator.  Strand counts are
always explicit so stabilized words can carry unused strands.

Exit codes: 0 success (or "equal"), 1 semantic failure (or "distinct"),
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .coxeter import parse_braid_word
from .partitions import bell_number
from .algebra import basis_pairs
from .invariant import delta_b, invariant_eq, word_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="btb",
        description="Exact computations in the tied braid algebra of type B",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="invariant of a closed braid word")
    p_inv.add_argument("--strands", type=int, required=True)
    p_inv.add_argument("--word", required=True)
    p_inv.add_argument("--format", choices=("text", "json"), default="text")

    p_tr = sub.add_parser("trace", help="Markov trace of a braid word's algebra image")
    p_tr.add_argument("--strands", type=int, required=True)
    p_tr.add_argument("--word", required=True)
    p_tr.add_argument("--format", choices=("text", "json"), default="text")

    p_cmp = sub.add_parser("compare", help="compare the invariants of two closed words")
    p_cmp.add_argument("--strands-a", type=int, required=True)
    p_cmp.add_argument("--word-a", required=True)
    p_cmp.add_argument("--strands-b", type=int, required=True)
    p_cmp.add_argument("--word-b", required=True)
    p_cmp.add_argument("--format", choices=("text", "json"), default="text")

    p_dims = sub.add_parser("dims", help="enumerated basis size vs the dimension formula")
    p_dims.add_argument("--n", type=int, required=True)

    p_self = sub.add_parser("selfcheck", help="run the property suites")
    p_self.add_argument("--level", choices=("quick", "full"), default="quick")
    p_self.add_argument("--seed", type=int, default=None)
    p_self.add_argument("--format", choices=("text", "json"), default="text")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "invariant":
            return _cmd_invariant(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "dims":
            return _cmd_dims(args)
        return _cmd_selfcheck(args)
    except ValueError as exc:  # BraidParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_invariant(args) -> int:
    word = parse_braid_word(args.word, args.strands)
    value = delta_b(word)
    if args.format == "json":
        print(json.dumps(value.to_obj(), sort_keys=True))
    else:
        print(value.pretty())
    return 0


def _cmd_trace(args) -> int:
    word = parse_braid_word(args.word, args.strands)
    value = word_trace(word)
    if args.format == "json":
        print(json.dumps(value.to_obj(), sort_keys=True))
    else:
        print(str(value))
    return 0


def _cmd_compare(args) -> int:
    wa = parse_braid_word(args.word_a, args.strands_a)
    wb = parse_braid_word(args.word_b, args.strands_b)
    equal = invariant_eq(delta_b(wa), delta_b(wb))
    if args.format == "json":
        print(json.dumps({"equal": equal}))
    else:
        print("equal" if equal else "distinct")
    return 0 if equal else 1


def _cmd_dims(args) -> int:
    n = args.n
    if not (1 <= n <= 3):
        print("error: --n must be between 1 and 3", file=sys.stderr)
        return 2
    formula = bell_number(n + 1) * (2 ** n) * math.factorial(n)
    count = sum(1 for _ in basis_pairs(n))
    print(f"formula  : {formula}")
    print(f"enumerated: {count}")
    return 0 if formula == count else 1


def _cmd_selfcheck(args) -> int:
    # imported here so that the other commands do not load the suites and
    # the tensor oracle
    from .selfcheck import DEFAULT_SEED, run_selfcheck

    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("BTB_SEED", DEFAULT_SEED))
    report = run_selfcheck(args.level, seed)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for record in report["records"]:
            flag = "ok " if record["status"] == "ok" else "FAIL"
            detail = f"  ({record['detail']})" if record["detail"] else ""
            print(f"[{flag}] {record['suite']}: {record['name']}{detail}")
        print(f"{report['checks']} checks, {report['failures']} failures"
              f" (level={report['level']}, seed={report['seed']})")
    return 0 if report["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
