"""Spans and counters around the public functions of orbitcodes.

Nothing in the package is instrumented. A Tracer wraps the functions in
SPANNED at every module binding the package calls them through (for
example both ``orbitcodes.linalg.intersection_dim`` and
``orbitcodes.decoder.intersection_dim``) while it is installed, and puts
the originals back when it is uninstalled. Each call becomes a span:
name, start, end, parent span and op id, kept in memory and written out
when the worker ends. Counts are read from public outputs
(``CodeParams.cardinality``, ``DecodeResult.candidates_examined``) or from
the vectors ``Subspace.nonzero_elements`` yields.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

# span name -> (defining module, attribute path)
SPANNED = {
    "fields.field_context": ("orbitcodes.fields", "field_context"),
    "fields.FieldCtx.mul": ("orbitcodes.fields", "FieldCtx.mul"),
    "linalg.Subspace.from_rows": ("orbitcodes.linalg", "Subspace.from_rows"),
    "linalg.intersection_dim": ("orbitcodes.linalg", "intersection_dim"),
    "linalg.subspace_distance": ("orbitcodes.linalg", "subspace_distance"),
    "canonical.build_generator": ("orbitcodes.canonical", "build_generator"),
    "analysis.analyze": ("orbitcodes.analysis", "analyze"),
    "analysis.analyze_naive": ("orbitcodes.analysis", "analyze_naive"),
    "analysis.codeword": ("orbitcodes.analysis", "codeword"),
    "analysis.make_code": ("orbitcodes.analysis", "make_code"),
    "spread.build_spread": ("orbitcodes.spread", "build_spread"),
    "spread.build_nonprimitive_spread": ("orbitcodes.spread", "build_nonprimitive_spread"),
    "decoder.decode_exhaustive": ("orbitcodes.decoder", "decode_exhaustive"),
    "decoder.decode_lf": ("orbitcodes.decoder", "decode_lf"),
    "harness.random_search": ("orbitcodes.harness", "random_search"),
    "harness.simulate_decoding": ("orbitcodes.harness", "simulate_decoding"),
}

# counts read from a span's return value
RESULT_COUNTS = {
    "analysis.analyze_naive": ("analysis.orbit_steps", lambda r: r.cardinality),
    "decoder.decode_exhaustive": ("decoder.candidates_exhaustive", lambda r: r.candidates_examined),
    "decoder.decode_lf": ("decoder.candidates_lf", lambda r: r.candidates_examined),
}

COUNTED = {name for name, _ in RESULT_COUNTS.values()} | {"linalg.span_elements"}

# (metric, unit, better, end-to-end metric it should move, workload).
# Units ending in /setup are per set-up of the traced worker; /op are means
# over the traced ops.
LAYER_METRICS = [
    ("fields.field_context.calls", "count/setup", "lower", "setup_s, peak_rss_mb", "analyze, simulate"),
    ("fields.field_context.ms", "ms/setup", "lower", "setup_s, peak_rss_mb", "analyze, simulate"),
    ("fields.FieldCtx.mul.calls", "count/op", "lower", "latency_p90_ms", "simulate"),
    ("fields.FieldCtx.mul.self_ms", "ms/op", "lower", "latency_p90_ms", "simulate"),
    ("linalg.Subspace.from_rows.calls", "count/op", "lower", "ops_per_s", "search, analyze"),
    ("linalg.Subspace.from_rows.self_ms", "ms/op", "lower", "ops_per_s", "search, analyze"),
    ("linalg.intersection_dim.calls", "count/op", "lower", "ops_per_s", "simulate"),
    ("linalg.intersection_dim.self_ms", "ms/op", "lower", "ops_per_s", "simulate"),
    ("linalg.subspace_distance.calls", "count/op", "lower", "latency_p90_ms", "analyze"),
    ("linalg.subspace_distance.self_ms", "ms/op", "lower", "latency_p90_ms", "analyze"),
    ("linalg.span_elements", "count/op", "lower", "ops_per_s", "search"),
    ("canonical.build_generator.calls", "count/op", "lower", "latency_p50_ms", "search"),
    ("canonical.build_generator.ms", "ms/op", "lower", "latency_p50_ms", "search"),
    ("analysis.analyze.calls", "count/op", "lower", "ops_per_s", "search"),
    ("analysis.analyze.self_ms", "ms/op", "lower", "ops_per_s", "search"),
    ("analysis.analyze_naive.calls", "count/op", "lower", "latency_p90_ms", "analyze"),
    ("analysis.analyze_naive.self_ms", "ms/op", "lower", "latency_p90_ms", "analyze"),
    ("analysis.fast_ratio", "ratio", "higher", "latency_p90_ms", "analyze"),
    ("analysis.orbit_steps", "count/op", "lower", "latency_p90_ms", "analyze"),
    ("analysis.codeword.calls", "count/op", "lower", "ops_per_s", "simulate"),
    ("analysis.codeword.self_ms", "ms/op", "lower", "ops_per_s", "simulate"),
    ("analysis.make_code.calls", "count/op", "lower", "ops_per_s", "analyze, search"),
    ("analysis.make_code.ms", "ms/op", "lower", "ops_per_s", "analyze, search"),
    ("spread.build_spread.ms", "ms/setup", "lower", "setup_s", "simulate, analyze"),
    ("spread.build_nonprimitive_spread.ms", "ms/setup", "lower", "setup_s", "simulate"),
    ("decoder.decode_exhaustive.calls", "count/op", "lower", "ops_per_s", "simulate"),
    ("decoder.decode_exhaustive.self_ms", "ms/op", "lower", "ops_per_s", "simulate"),
    ("decoder.decode_lf.calls", "count/op", "lower", "latency_p50_ms", "simulate"),
    ("decoder.decode_lf.self_ms", "ms/op", "lower", "latency_p50_ms", "simulate"),
    ("decoder.candidates_exhaustive", "count/op", "lower", "ops_per_s", "simulate"),
    ("decoder.candidates_lf", "count/op", "lower", "latency_p50_ms", "simulate"),
    ("decoder.lf_candidate_ratio", "ratio", "lower", "latency_p50_ms", "simulate"),
    ("harness.random_search.self_ms", "ms/op", "lower", "ops_per_s", "search"),
    ("harness.simulate_decoding.self_ms", "ms/op", "lower", "ops_per_s", "simulate"),
    ("trace.overhead", "%", "lower", "none (cost of this tracing)", "all"),
]

SETUP_OP = -1


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for a module function or a class attribute."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Records spans and counts while installed; install() and uninstall()
    are cheap, so the worker installs around each traced op only."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: Counter = Counter()  # (op id, count name) -> n
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._bind()

    # -- wrapping ----------------------------------------------------------

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, starts, ends, parents, ops, stack = (
            self.name_of, self.starts, self.ends, self.parents, self.ops, self._stack
        )
        counted = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_of.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counted is not None:
                self.counts[(self.op, counted[0])] += counted[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_elements(self, fn):
        def nonzero_elements(subspace):
            n = 0
            try:
                for v in fn(subspace):
                    n += 1
                    yield v
            finally:
                self.counts[(self.op, "linalg.span_elements")] += n

        return nonzero_elements

    def _bind(self) -> None:
        """Work out every (owner, attribute) to patch, once."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "orbitcodes" or name.startswith("orbitcodes."))
        ]
        for name, (module_name, path) in SPANNED.items():
            owner, attr, raw = _resolve(module_name, path)
            if isinstance(raw, classmethod):
                self._patches.append((owner, attr, raw, classmethod(self._span(name, raw.__func__))))
                continue
            wrapped = self._span(name, raw)
            if isinstance(owner, type):
                self._patches.append((owner, attr, raw, wrapped))
                continue
            for m in modules:
                for binding, value in vars(m).items():
                    if value is raw:
                        self._patches.append((m, binding, raw, wrapped))
        owner, attr, raw = _resolve("orbitcodes.linalg", "Subspace.nonzero_elements")
        self._patches.append((owner, attr, raw, self._counted_elements(raw)))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def layer_metrics(self, traced_ops: int) -> dict[str, float]:
        """LAYER_METRICS values except trace.overhead."""
        own = self.self_times()
        per_op = 1 / max(traced_ops, 1)
        calls: Counter = Counter()
        total_ms: Counter = Counter()
        self_ms: Counter = Counter()
        naive_parents = set()
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            scope = "setup" if self.ops[i] == SETUP_OP else "op"
            calls[(scope, name)] += 1
            total_ms[(scope, name)] += (self.ends[i] - self.starts[i]) * 1000
            self_ms[(scope, name)] += own[i] * 1000
            if name == "analysis.analyze_naive":
                naive_parents.add(self.parents[i])
        fast_calls = sum(
            1 for i, nid in enumerate(self.name_of)
            if self.names[nid] == "analysis.analyze"
            and self.ops[i] != SETUP_OP
            and i not in naive_parents
        )
        counts: Counter = Counter()
        for (op, name), n in self.counts.items():
            if op != SETUP_OP:
                counts[name] += n

        out = {}
        for metric, unit, *_ in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            scope, scale = ("setup", 1) if unit.endswith("/setup") else ("op", per_op)
            if field == "calls":
                out[metric] = calls[(scope, span)] * scale
            elif field == "ms":
                out[metric] = total_ms[(scope, span)] * scale
            elif field == "self_ms":
                out[metric] = self_ms[(scope, span)] * scale
            elif metric in COUNTED:
                out[metric] = counts[metric] * per_op
        analyzes = calls[("op", "analysis.analyze")]
        out["analysis.fast_ratio"] = fast_calls / analyzes if analyzes else 0.0
        exhaustive = counts["decoder.candidates_exhaustive"]
        out["decoder.lf_candidate_ratio"] = (
            counts["decoder.candidates_lf"] / exhaustive if exhaustive else 0.0
        )
        return out

    def write(self, path) -> None:
        """All spans, columnwise, as gzipped JSON."""
        data = {
            "names": self.names,
            "name": self.name_of,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "op": self.ops,
            "counts": [[op, name, n] for (op, name), n in sorted(self.counts.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh)
