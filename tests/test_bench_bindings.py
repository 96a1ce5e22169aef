"""Every name the benchmark's layer tracer wraps still exists in the package.

``bench/tracing.py`` is loaded from its file, without editing it or adding
``bench/`` to the import path; its ``Tracer`` is installed over a fully
imported ``btb`` and must report no skipped name.  A function or ``CBasis``
method that moves or is renamed fails here instead of silently dropping out
of a traced benchmark run.
"""

import importlib
import importlib.util
import os

import btb.algebra as alg

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
MODULES = ("coeff", "partitions", "coxeter", "algebra", "tensorrep", "trace",
           "invariant", "selfcheck", "cli")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_name():
    for name in MODULES:
        importlib.import_module("btb." + name)
    tracing = _load_tracing()
    mul, express = alg.mul, alg.CBasis.express
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.skipped == []
        assert alg.mul is not mul and vars(alg.CBasis)["express"] is not express
    finally:
        tracer.uninstall()
    assert alg.mul is mul and vars(alg.CBasis)["express"] is express
