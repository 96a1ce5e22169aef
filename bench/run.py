"""The btb benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/btb``.  Every workload runs
in fresh worker processes (``worker.py``), one at a time, so caches and peak
memory never leak from one workload into another.

``--trace 0`` measures the end-to-end metrics: set-up is the median of at
least ``SETUP_STARTS`` fresh starts (interpreter, ``import btb``, warm-up),
and the last start goes on to the timed closed loop.  Throughput is taken from the
median round, latency percentiles from every query.  ``--trace 1`` runs the same
fixed work (warm-up plus ``TRACE_ROUNDS`` rounds) three times: untraced, with
spans around the package's public functions, and under cProfile; it reports
the per-layer metrics, the tracing overhead and the share of traced time that
no layer accounts for.

The next-to-last line of output is a report (inputs digest, tail percentile
and sample count, Python version, commit, CPU count); the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_STARTS = 5
TRACE_ROUNDS = 2
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)


def _spec() -> dict:
    """The workload names and, per kind, metric name -> unit, from
    BENCHMARK.json (the one list of them)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    out["workloads"] = tuple(w["name"] for w in spec["workloads"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=_spec()["workloads"] + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the harness's own tests")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("error: the asserts are part of the measured program; run without -O", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "btb", "__init__.py")):
        print(f"error: no src/btb package under {ROOT}", file=sys.stderr)
        return 2

    names = _spec()["workloads"] if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            report, result = measure(name, args)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"report": report}, sort_keys=True))
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


class WorkerError(RuntimeError):
    pass


def spawn(args, name: str, mode: str, rounds: int = 0) -> tuple:
    """Run one worker to completion; (set-up seconds, result dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
           "--mode", mode, "--rounds", str(rounds)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise WorkerError(f"worker ({mode}) exited with {code}")
    return ready, result


def measure(name: str, args) -> tuple:
    if args.trace:
        return measure_layers(name, args)
    setups: list[float] = []
    # at least SETUP_STARTS starts; cheap set-ups get more, so their median
    # is not set by the jitter of a few interpreter starts
    while len(setups) + 1 < SETUP_STARTS or (sum(setups) < 1.0 and len(setups) + 1 < 3 * SETUP_STARTS):
        setups.append(spawn(args, name, "setup")[0])
    setup_s, run = spawn(args, name, "plain")
    setups.append(setup_s)
    lat = sorted(run["latency"])
    pct, beyond, tail = tail_percentile(lat)
    values = {
        "setup_s": statistics.median(setups),
        # the median round, so a burst of load from outside the process in
        # one round (or the cache fill of the first) does not set the figure
        "query_per_s": run["queries"] / run["rounds"] / statistics.median(run["round_s"]),
        "query_ms_p50": 1000.0 * statistics.median(lat),
        "query_ms_tail": 1000.0 * tail,
        "ok_frac": 1.0 - run["failed"] / run["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    report = base_report(name, args, run)
    report.update(
        setup_starts_s=setups,
        tail={"percentile": pct, "samples": len(lat), "beyond": beyond},
        failed_frac=run["failed"] / run["attempted"],
    )
    return report, result_obj(run, values, _spec()["end_to_end"])


def measure_layers(name: str, args) -> tuple:
    _, plain = spawn(args, name, "plain", TRACE_ROUNDS)
    _, spans = spawn(args, name, "spans", TRACE_ROUNDS)
    _, prof = spawn(args, name, "profile", TRACE_ROUNDS)
    units = _spec()["per_layer"]
    layers = {m: 0.0 for m in units}  # a layer the workload never enters reads 0
    layers.update({k: v for k, v in spans["layers"].items() if k in units})
    layers.update({k: v for k, v in prof["layers"].items() if k in units})
    traced_qps = spans["queries"] / spans["elapsed"]
    plain_qps = plain["queries"] / plain["elapsed"]
    layers["bench.trace_overhead"] = plain_qps / traced_qps - 1.0
    layers["bench.profile_overhead"] = prof["elapsed"] / plain["elapsed"] - 1.0
    layers["bench.untraced_query_per_s"] = plain_qps
    layers["bench.traced_query_per_s"] = traced_qps
    report = base_report(name, args, plain)
    report.update(
        trace_rounds=TRACE_ROUNDS,
        digests={"plain": plain["digest"], "spans": spans["digest"], "profile": prof["digest"]},
        profile_self_s=prof["layers"].get("profile.self_s"),
        extra_layers={k: v for k, v in {**spans["layers"], **prof["layers"]}.items()
                      if k not in units and k != "profile.self_s"},
    )
    runs = (plain, spans, prof)
    merged = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    return report, result_obj(merged, layers, units)


def tail_percentile(lat: list) -> tuple:
    """The highest listed percentile with at least ten samples beyond it
    (nearest rank); the median when there are too few samples for any."""
    n = len(lat)
    best = (50, n - math.ceil(0.5 * n), lat[math.ceil(0.5 * n) - 1])
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            best = (p, n - rank, lat[rank - 1])
    return best


def result_obj(run: dict, values: dict, units: dict) -> dict:
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def base_report(name: str, args, run: dict) -> dict:
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "queries": run["queries"],
        "rounds": run["rounds"],
        "digest": run["digest"],
        "failures": run["failures"],
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _commit():
    """The git commit of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout is not a git work tree."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "btb")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            h.update(fname.encode() + b"\0")
            with open(os.path.join(src, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
