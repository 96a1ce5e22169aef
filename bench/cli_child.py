"""One traced CLI call, for the per-layer run of the cli-cold workload.

    python3 bench/cli_child.py spans|profile -- <btb arguments>

Imports ``btb.cli`` and runs ``main`` on the arguments with stdout and stderr
captured, under span wrappers or cProfile, and prints one JSON object: the
captured output, the exit code, the import and main seconds, and the layer
summary.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main() -> int:
    mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("spans", "profile"):
        print("usage: cli_child.py spans|profile -- <btb arguments>", file=sys.stderr)
        return 2
    t0 = perf_counter()
    import btb.cli

    import_s = perf_counter() - t0
    tracer = tracing.Tracer()
    prof = cProfile.Profile()
    out, err = io.StringIO(), io.StringIO()
    if mode == "spans":
        tracer.qid = " ".join(argv)
        tracer.install()
    t1 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if mode == "profile":
            prof.enable()
        try:
            code = btb.cli.main(argv)
        finally:
            prof.disable()
    main_s = perf_counter() - t1
    tracer.uninstall()
    result = {
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "exit": code,
        "import_s": import_s,
        "main_s": main_s,
    }
    if mode == "spans":
        result["summary"] = tracer.summary()
        result["spans"] = tracer.spans
    else:
        result["summary"] = tracing.module_profile(prof)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
