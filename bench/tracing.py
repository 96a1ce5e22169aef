"""Layer measurements taken from outside the package.

``Tracer`` records spans in memory (name, start, end, parent, query id) around
btb's public functions.  A function is replaced by a wrapper in *every* btb
module namespace that binds it, so calls through ``btb.trace.mul`` are seen as
well as those through ``btb.algebra.mul``; methods of ``CBasis`` are replaced
on the class.  Descriptor-cache hits and misses are read from the growth of
the instance's dictionaries around each cache-method call.  Nothing under
``src/`` is edited.

``module_profile`` groups a cProfile pass by btb module; time spent in the
standard library (``Fraction`` arithmetic above all) is charged to the btb
module that called into it, in proportion to the calls' cumulative time.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); attributes of the form "Class.method" patch
# the class.  Names missing in the package are skipped and reported.
SPANS = [
    ("btb.invariant", "delta_b", "invariant.delta_b"),
    ("btb.invariant", "invariant_eq", "invariant.eq"),
    ("btb.invariant", "pi_natural", "algebra.pi_natural"),
    ("btb.trace", "markov_trace", "trace.markov_trace"),
    ("btb.trace", "theta", "trace.theta"),
    ("btb.algebra", "mul", "algebra.mul"),
    ("btb.algebra", "get_cbasis", "algebra.get_cbasis"),
    ("btb.algebra", "CBasis.express", "algebra.express"),
    ("btb.algebra", "descriptor_rank", "algebra.descriptor_rank"),
    ("btb.tensorrep", "independence_certificate", "tensorrep.certificate"),
    ("btb.tensorrep", "apply_word", "tensorrep.apply_word"),
    ("btb.tensorrep", "_reduce_row", "tensorrep.reduce"),
    ("btb.tensorrep", "check_relations", "tensorrep.relations"),
]
CACHE_METHODS = ("bk_elem", "tee_elem", "prefix", "expansion")
INSPECTED = {"algebra.pi_natural", "trace.theta", "trace.markov_trace",
             "invariant.delta_b", "algebra.express"}

# layer metric -> span names whose inclusive time it sums
INCLUSIVE = {
    "algebra.pi_natural_s": ("algebra.pi_natural",),
    "algebra.mul_s": ("algebra.mul",),
    "algebra.express_s": ("algebra.express",),
    "algebra.descriptor_rank_s": ("algebra.descriptor_rank",),
    "trace.theta_top_s": ("trace.theta_top",),
    "trace.theta_lower_s": ("trace.theta_lower",),
    "invariant.eq_s": ("invariant.eq",),
    "tensorrep.certificate_s": ("tensorrep.certificate",),
    "tensorrep.apply_word_s": ("tensorrep.apply_word",),
    "tensorrep.reduce_s": ("tensorrep.reduce",),
    "tensorrep.relations_s": ("tensorrep.relations",),
}


class Tracer:
    """Spans and counters for one process; install, run, uninstall, read."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.stack: list[int] = []
        self.qid = "setup"
        self.counts: dict[str, float] = defaultdict(float)
        self.cbases: dict[int, object] = {}
        self.top_n = None
        self.fill_depth = 0
        self.skipped: list[str] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.qid])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = perf_counter()
        self.spans[idx][2] = end
        self.stack.pop()
        return end - self.spans[idx][1]

    def _span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name
            if name == "trace.theta":
                top = args[0].n == tracer.top_n
                label = "trace.theta_top" if top else "trace.theta_lower"
                if top:
                    tracer.counts["trace.terms_top"] += len(args[0].terms)
            saved = tracer.top_n
            if name == "trace.markov_trace":
                tracer.top_n = args[0].n
            idx = tracer._open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer.top_n = saved
            if name == "algebra.pi_natural":
                tracer.counts["algebra.pi_natural_terms"] += len(out.terms)
            if name in INSPECTED:
                tracer._inspect(out)
            return out

        return wrapper

    def _cache(self, method: str, fn):
        tracer = self

        def wrapper(cb, *args, **kwargs):
            tracer.cbases[id(cb)] = cb
            before = _entries(cb)
            outer = tracer.fill_depth == 0
            tracer.fill_depth += 1
            idx = tracer._open("algebra.cbasis." + method)
            try:
                out = fn(cb, *args, **kwargs)
            finally:
                took = tracer._close(idx)
                tracer.fill_depth -= 1
            if _entries(cb) > before:
                tracer.counts["algebra.cbasis_misses"] += 1
                if outer:
                    tracer.counts["algebra.cbasis_fill_s"] += took
                tracer._inspect(out)
            else:
                tracer.counts["algebra.cbasis_hits"] += 1
            return out

        return wrapper

    def _inspect(self, out) -> None:
        """Largest coefficient seen: term count and numerator/denominator bits."""
        for poly in _polys(out):
            terms = poly.terms
            if len(terms) > self.counts["coeff.max_terms"]:
                self.counts["coeff.max_terms"] = len(terms)
            for c in terms.values():
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.counts["coeff.max_bits"]:
                    self.counts["coeff.max_bits"] = bits

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "btb" or name.startswith("btb."))]
        for modname, attr, span in SPANS:
            owner = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.skipped.append(f"{modname}.{attr}")
                    continue
                self._patch(cls, meth, self._span(span, vars(cls)[meth]))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.skipped.append(f"{modname}.{attr}")
                continue
            wrapper = self._span(span, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)
        cls = getattr(sys.modules.get("btb.algebra"), "CBasis", None)
        for meth in CACHE_METHODS:
            if cls is None or meth not in vars(cls):
                self.skipped.append(f"btb.algebra.CBasis.{meth}")
                continue
            self._patch(cls, meth, self._cache(meth, vars(cls)[meth]))

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer totals over everything recorded, and the time covered by
        root spans (``bench.root_span_s``)."""
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        roots = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            incl[name] += dur
            calls[name] += 1
            if parent < 0:
                roots += dur
            else:
                child[parent] += dur
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        out = {metric: sum(incl[n] for n in names) for metric, names in INCLUSIVE.items()}
        out["algebra.mul_calls"] = calls["algebra.mul"]
        out["trace.theta_self_s"] = self_time["trace.theta_top"] + self_time["trace.theta_lower"]
        out["invariant.finish_s"] = self_time["invariant.delta_b"]
        for key in ("algebra.cbasis_fill_s", "algebra.cbasis_hits", "algebra.cbasis_misses",
                    "algebra.pi_natural_terms", "trace.terms_top", "coeff.max_terms", "coeff.max_bits"):
            out[key] = self.counts[key]
        lookups = out["algebra.cbasis_hits"] + out["algebra.cbasis_misses"]
        out["algebra.cbasis_hit_ratio"] = out["algebra.cbasis_hits"] / lookups if lookups else 0.0
        out["algebra.cbasis_entries"] = sum(_entries(cb) for cb in self.cbases.values())
        out["bench.spans"] = len(self.spans)
        out["bench.root_span_s"] = roots
        return out


def write_spans(path: str, spans: list, skipped: list) -> None:
    """One JSON header line, then one span per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "query"],
                             "skipped": skipped}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _entries(cb) -> int:
    return sum(len(v) for v in vars(cb).values() if isinstance(v, dict))


def _polys(out):
    """The Laurent polynomials inside a result, whatever its type."""
    terms = getattr(out, "terms", None)
    if isinstance(terms, dict):
        values = list(terms.values())
        if values and hasattr(values[0], "terms"):
            return values  # an algebra element
        return [out]  # a polynomial
    if isinstance(out, dict):
        return [v for v in out.values() if hasattr(v, "terms")]
    numer = getattr(out, "numer", None)
    return [numer] if numer is not None else []


# -- cProfile grouped by module ----------------------------------------------------

CALL_COUNTS = {
    "coeff.mul_calls": ("coeff.py", "__mul__"),
    "partitions.join_calls": ("partitions.py", "join"),
    "partitions.apply_perm_calls": ("partitions.py", "apply_perm"),
    "coxeter.length_calls": ("coxeter.py", "length"),
}


def _layer(filename: str):
    parts = filename.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[-2] == "btb" and parts[-1].endswith(".py"):
        return parts[-1][:-3]
    return None


def module_profile(prof: cProfile.Profile) -> dict:
    """Self seconds per btb module (stdlib callees charged to their btb
    caller) and the call counts named in CALL_COUNTS."""
    stats = pstats.Stats(prof).stats
    memo: dict = {}

    def shares(func, busy: frozenset) -> dict:
        if func in memo:
            return memo[func]
        layer = _layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[3] for c, v in callers.items() if c not in busy and c in stats}
        total = sum(weights.values())
        if not total:
            out = {"other": 1.0}
        else:
            out = defaultdict(float)
            for c, w in weights.items():
                for lay, s in shares(c, busy | {func}).items():
                    out[lay] += s * w / total
        memo[func] = dict(out)
        return memo[func]

    per_layer: dict[str, float] = defaultdict(float)
    for func, (_, _, tt, _, _) in stats.items():
        for layer, share in shares(func, frozenset()).items():
            per_layer[layer] += tt * share
    out = {f"{layer}.self_s": per_layer.get(layer, 0.0) for layer in ("coeff", "partitions", "coxeter")}
    out["profile.self_s"] = dict(per_layer)
    for metric, (fname, funcname) in CALL_COUNTS.items():
        out[metric] = sum(
            nc for (path, _, name), (_, nc, _, _, _) in stats.items()
            if name == funcname and path.replace("\\", "/").endswith("btb/" + fname)
        )
    return out
