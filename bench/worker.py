"""One workload in one fresh process; started by run.py, never imported.

    python3 bench/worker.py --workload W --seed S --seconds T --size full|tiny
                            --mode setup|plain|spans|profile [--rounds R]

Set-up is ``import btb`` plus the workload's warm-up; the worker prints
``READY`` when it is done (run.py times set-up up to that line) and, unless the
mode is ``setup``, runs the closed loop: whole rounds until ``--seconds`` have
passed, or exactly ``--rounds`` rounds.  Correctness checks and the output
digest are computed after the loop, outside the timed region.  The last line
is ``RESULT <json>``.

``spans`` and ``profile`` measure the same fixed work as ``plain`` with the
span wrappers installed or under cProfile; spans are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--mode", choices=("setup", "plain", "spans", "profile"), required=True)
    ap.add_argument("--rounds", type=int, default=0)
    args = ap.parse_args()
    if sys.flags.optimize:
        print("error: the asserts are part of the measured program; run without -O", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, args.size, ROOT)
    tracer = tracing.Tracer()
    prof = cProfile.Profile()
    cli_layers = CliLayers(wl, args.mode) if args.workload == "cli-cold" else None
    t_traced = perf_counter()
    if args.mode == "spans" and cli_layers is None:
        tracer.install()
    if args.mode == "profile" and cli_layers is None:
        prof.enable()
    wl.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    run = closed_loop(wl, args.seconds, args.rounds, tracer)
    prof.disable()
    tracer.uninstall()
    traced_wall = perf_counter() - t_traced

    result = {
        "queries": len(run["latency"]),
        "rounds": run["rounds"],
        "round_s": run["round_s"],
        "elapsed": run["elapsed"],
        "latency": run["latency"],
    }
    attempted, failed, failures = verdicts(wl, run)
    result.update(attempted=attempted, failed=failed, failures=failures[:20])
    result["digest"] = hashlib.sha256(
        json.dumps([wl.canonical(run["first"][key]) if key in run["first"] else None
                    for key, _ in wl.round()], sort_keys=True).encode()
    ).hexdigest()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    if args.mode == "spans":
        if cli_layers is None:
            layers = tracer.summary()
            layers["bench.unaccounted_share"] = 1.0 - layers.pop("bench.root_span_s") / traced_wall
            spans = tracer.spans
        else:
            layers, spans = cli_layers.spans_summary()
        result["layers"] = layers
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracing.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                            spans, tracer.skipped)
    elif args.mode == "profile":
        result["layers"] = (tracing.module_profile(prof) if cli_layers is None
                            else cli_layers.profile_summary())
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def closed_loop(wl, seconds: float, rounds: int, tracer) -> dict:
    """Whole rounds until ``seconds`` have passed (or exactly ``rounds``).

    Each output is compared with the first output of the same query; that
    comparison is excluded from the elapsed time.
    """
    latency: list[float] = []
    first: dict = {}
    executed: dict = defaultdict(int)
    mismatched: dict = defaultdict(int)
    errors: dict = defaultdict(int)
    excluded = 0.0
    round_s: list[float] = []
    done = 0
    start = perf_counter()
    while True:
        round_start, round_excluded = perf_counter(), excluded
        for key, thunk in wl.round():
            tracer.qid = f"{done}.{key}"
            t0 = perf_counter()
            try:
                out = thunk()
            except Exception:  # a failed query is counted, and the loop goes on
                out = _ERROR
                if sum(errors.values()) < 3:
                    traceback.print_exc()
            t1 = perf_counter()
            latency.append(t1 - t0)
            executed[key] += 1
            if out is _ERROR:
                errors[key] += 1
            elif key not in first:
                first[key] = out
            elif out != first[key]:
                mismatched[key] += 1
            excluded += perf_counter() - t1
        round_s.append(perf_counter() - round_start - (excluded - round_excluded))
        done += 1
        if (rounds and done >= rounds) or (not rounds and perf_counter() - start >= seconds):
            break
    return {
        "latency": latency,
        "elapsed": perf_counter() - start - excluded,
        "rounds": done,
        "round_s": round_s,
        "first": first,
        "executed": executed,
        "mismatched": mismatched,
        "errors": errors,
    }


_ERROR = object()


def verdicts(wl, run: dict) -> tuple:
    """(attempted, failed, failure notes): every executed query, plus the
    workload's standalone checks.  A query fails if it raised, if its output
    differs from the first output of the same query, or if that first output
    fails the workload's check."""
    failures = []
    failed = 0
    for key, count in run["executed"].items():
        bad = run["errors"][key] + run["mismatched"][key]
        if key in run["first"]:
            try:
                ok = wl.check(key, run["first"][key])
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                bad = count
        if bad:
            failed += bad
            failures.append(f"query {key}: {bad} of {count} failed")
    extra = wl.extra_checks()
    for name, ok in extra:
        if not ok:
            failed += 1
            failures.append(name)
    attempted = sum(run["executed"].values()) + len(extra)
    return attempted, failed, failures


class CliLayers:
    """Per-layer measurement of the cli-cold workload: each query runs in a
    traced child (``cli_child.py``), one bare interpreter start per query is
    timed after the loop, and the children's layer summaries are added up."""

    def __init__(self, wl, mode: str):
        self.mode = mode
        self.env = wl.env
        self.children: list[dict] = []
        self.walls: list[float] = []
        if mode in ("spans", "profile"):
            wl.runner = self.run

    def run(self, argv: list):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_child.py"), self.mode, "--", *argv],
            env=self.env, capture_output=True, timeout=170,
        )
        self.walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode())
            raise RuntimeError(f"traced CLI child exited with {proc.returncode}")
        child = json.loads(proc.stdout)
        self.children.append(child)
        return child["stdout"].encode(), child["exit"], child["stderr"].encode()

    def _sum(self) -> dict:
        total: dict = defaultdict(float)
        for child in self.children:
            for key, value in child["summary"].items():
                if not isinstance(value, (int, float)):
                    continue
                if key in ("coeff.max_terms", "coeff.max_bits"):
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        return total

    def spans_summary(self) -> tuple:
        bare = []
        for _ in self.children:  # outside the timed loop, one bare start per query
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60)
            bare.append(perf_counter() - t0)
        total = self._sum()
        lookups = total["algebra.cbasis_hits"] + total["algebra.cbasis_misses"]
        total["algebra.cbasis_hit_ratio"] = total["algebra.cbasis_hits"] / lookups if lookups else 0.0
        total["cli.interp_s"] = sum(bare)
        total["cli.import_s"] = sum(c["import_s"] for c in self.children)
        total["cli.main_s"] = sum(c["main_s"] for c in self.children)
        covered = total["cli.interp_s"] + total["cli.import_s"] + total["cli.main_s"]
        total["bench.unaccounted_share"] = 1.0 - covered / sum(self.walls)
        total.pop("bench.root_span_s", None)
        spans = []
        for q, child in enumerate(self.children):
            offset = len(spans)
            for name, start, end, parent, qid in child["spans"]:
                spans.append([name, start, end, parent + offset if parent >= 0 else -1, f"{q}:{qid}"])
        return dict(total), spans

    def profile_summary(self) -> dict:
        return dict(self._sum())


if __name__ == "__main__":
    sys.exit(main())
