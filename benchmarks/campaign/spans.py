"""Outside-in layer tracing for the campaign benchmark.

The benchmark does not edit the program to trace it.  For a traced
pass, :meth:`Tracer.install` replaces the module and class attributes
that each caller looks up at call time with thin wrappers, and
:meth:`Tracer.uninstall` puts the originals back, so untraced passes
run unmodified code.  A wrapper records one span per call — ``[name,
start, end, parent, pass id, extra]`` — in memory; the spans are
written as JSONL once the run ends.

A span's *self time* is its duration minus the durations of its
children.  Spans nest strictly (they are pushed and popped on one
stack), so the children's intervals never overlap and their durations
sum to the part of the parent they cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: (owner, attribute, span name).  The owner is ``module`` or
#: ``module:Class``; every attribute is looked up by its caller at call
#: time, so replacing it on the owner is seen by every call site.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.store", "build_trace", "ir.build_trace"),
    ("repro.ir.superops", "compact", "ir.compact"),
    ("repro.ir.trace:Trace", "save", "ir.trace_save"),
    ("repro.ir.trace:Trace", "load", "ir.trace_load"),
    ("repro.engine.store:TraceStore", "get", "store.trace_get"),
    ("repro.engine.store:TraceStore", "acquire_lease", "store.lease"),
    ("repro.engine.store:TraceStore", "release_lease", "store.lease"),
    ("repro.engine.store:TraceStore", "lookup_result", "store.lookup_result"),
    ("repro.engine.store:TraceStore", "claim_result", "store.claim_result"),
    ("repro.engine.store:TraceStore", "put_result", "store.put_result"),
    ("repro.engine.store:TraceStore", "merge_touches", "store.merge_touches"),
    # The snapshot a finished campaign attaches to its result: about a
    # twentieth of a warm pass, which would otherwise be the root's own.
    ("repro.engine.store:TraceStore", "stats", "store.stats"),
    ("repro.engine.executor", "evaluate_scenario", "backends.evaluate"),
    ("repro.backends.untimed_vec", "replay_superops", "core.replay_superops"),
    ("repro.backends.untimed_vec", "simulate_vec", "core.simulate_vec"),
    ("repro.core.superop_replay", "simulate", "core.simulate"),
)

#: The root span of a traced pass: ``run_campaign`` to the last record.
ROOT = "executor"

#: Every per-layer metric: name -> (unit, better).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "store.put_result.self_s": ("s", "lower"),
    "store.put_result.calls": ("count", "lower"),
    "store.put_result.ms_p50": ("ms", "lower"),
    "store.put_result.ms_p99": ("ms", "lower"),
    "store.put_result.growth": ("ratio", "lower"),
    "store.claim_result.self_s": ("s", "lower"),
    "store.merge_touches.self_s": ("s", "lower"),
    "store.stats.self_s": ("s", "lower"),
    "store.lookup_result.self_s": ("s", "lower"),
    "store.lookup_result.calls": ("count", "lower"),
    "store.result_hit_ratio": ("ratio", "higher"),
    "core.replay_superops.self_s": ("s", "lower"),
    "core.replay_superops.calls": ("count", "lower"),
    "core.replay_superops.expanded_calls": ("count", "lower"),
    "core.superop.closed_ratio": ("ratio", "higher"),
    "core.superop.piece_pes": ("count", "lower"),
    "core.simulate_vec.self_s": ("s", "lower"),
    "core.simulate_vec.calls": ("count", "lower"),
    "core.simulate_vec.fallback_ratio": ("ratio", "lower"),
    "core.simulate.self_s": ("s", "lower"),
    "core.simulate.calls": ("count", "lower"),
    "backends.evaluate.self_s": ("s", "lower"),
    "backends.evaluate.calls": ("count", "lower"),
    "backends.evaluate.ms_p50": ("ms", "lower"),
    "backends.evaluate.ms_p99": ("ms", "lower"),
    "ir.build_trace.self_s": ("s", "lower"),
    "ir.build_trace.calls": ("count", "lower"),
    "ir.compact.self_s": ("s", "lower"),
    "ir.trace_save.self_s": ("s", "lower"),
    "ir.trace_save.bytes": ("bytes", "lower"),
    "ir.trace_load.self_s": ("s", "lower"),
    "store.trace_get.self_s": ("s", "lower"),
    "store.lease.self_s": ("s", "lower"),
    "store.lease.calls": ("count", "lower"),
    "executor.plan_s": ("s", "lower"),
    "executor.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

_NAME, _START, _END, _PARENT, _PASS, _EXTRA = range(6)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _observe(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """The counts a span carries besides its times."""
    if name == "ir.trace_save":
        return {"bytes": Path(result).stat().st_size}
    if name == "store.lookup_result":
        return {"counted": kwargs.get("count", True), "hit": result is not None}
    if name == "core.replay_superops":
        telemetry = kwargs.get("telemetry") or {}
        return {
            "expanded": telemetry.get("mode") == "superop-expanded",
            "closed_pes": telemetry.get("superop_closed_pes", 0),
            "piece_pes": telemetry.get("superop_piece_pes", 0),
        }
    if name == "core.simulate_vec":
        telemetry = args[2] if len(args) > 2 else kwargs.get("telemetry") or {}
        return {
            "vectorised_pes": telemetry.get("vectorised_pes", 0),
            "fallback_pes": telemetry.get("fallback_pes", 0),
        }
    return None


class Tracer:
    """In-memory spans around the program's layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.pass_id, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[_END] = time.perf_counter()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The store's lease heartbeat runs in its own thread; only
            # the thread that drives the campaign is traced.
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            record[_EXTRA] = _observe(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for path, attr, name in TARGETS:
            owner = _owner(path)
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path: Path) -> None:
        selfs = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, selfs):
                name, start, end, parent, pass_id, extra = span
                row = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "pass": pass_id,
                    "self_s": self_s,
                }
                if extra:
                    row.update(extra)
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its children."""
    selfs = [span[_END] - span[_START] for span in spans]
    for span in spans:
        if span[_PARENT] >= 0:
            selfs[span[_PARENT]] -= span[_END] - span[_START]
    return selfs


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _growth(durations: list[float]) -> float:
    """Mean of the last decile of calls over the mean of the first."""
    tenth = len(durations) // 10
    if tenth == 0:
        return 0.0
    first = sum(durations[:tenth]) / tenth
    return (sum(durations[-tenth:]) / tenth) / first


def layer_metrics(
    spans: list[list],
    traced: dict[int, dict],
    untraced_walls: list[float],
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value from the traced passes' spans.

    ``traced`` maps a traced pass id to its ``wall_s`` and ``plan_s``.
    Times and counts are per pass (the median over traced passes);
    latency quantiles pool every call; ratios pool every pass.
    """
    selfs = self_times(spans)
    by_pass: dict[int, list[tuple[list, float]]] = {p: [] for p in traced}
    for span, self_s in zip(spans, selfs):
        by_pass[span[_PASS]].append((span, self_s))

    every = [row for rows in by_pass.values() for row in rows]

    def per_pass(fn) -> float:
        return statistics.median(fn(rows) for rows in by_pass.values())

    def self_sum(name: str):
        return lambda rows: sum(s for span, s in rows if span[_NAME] == name)

    def calls(name: str):
        return lambda rows: sum(1 for span, _s in rows if span[_NAME] == name)

    def extra_sum(name: str, key: str):
        return lambda rows: sum(
            span[_EXTRA][key] for span, _s in rows if span[_NAME] == name
        )

    def durations(name: str, rows) -> list[float]:
        return [span[_END] - span[_START] for span, _s in rows if span[_NAME] == name]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values: dict[str, float] = {}
    for name in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = per_pass(self_sum(layer))
        elif stat == "calls":
            values[name] = per_pass(calls(layer))
        elif stat in ("ms_p50", "ms_p99"):
            ms = [1e3 * d for d in durations(layer, every)]
            values[name] = _quantile(ms, 0.5 if stat == "ms_p50" else 0.99)
    values["store.put_result.growth"] = per_pass(
        lambda rows: _growth(durations("store.put_result", rows))
    )
    lookups = [
        span[_EXTRA]
        for span, _s in every
        if span[_NAME] == "store.lookup_result" and span[_EXTRA]["counted"]
    ]
    values["store.result_hit_ratio"] = ratio(
        sum(e["hit"] for e in lookups), len(lookups)
    )
    values["core.replay_superops.expanded_calls"] = per_pass(
        extra_sum("core.replay_superops", "expanded")
    )
    closed = extra_sum("core.replay_superops", "closed_pes")(every)
    piece = extra_sum("core.replay_superops", "piece_pes")(every)
    values["core.superop.closed_ratio"] = ratio(closed, closed + piece)
    values["core.superop.piece_pes"] = per_pass(
        extra_sum("core.replay_superops", "piece_pes")
    )
    fallback = extra_sum("core.simulate_vec", "fallback_pes")(every)
    vectorised = extra_sum("core.simulate_vec", "vectorised_pes")(every)
    values["core.simulate_vec.fallback_ratio"] = ratio(fallback, fallback + vectorised)
    values["ir.trace_save.bytes"] = per_pass(extra_sum("ir.trace_save", "bytes"))
    values["executor.plan_s"] = statistics.median(t["plan_s"] for t in traced.values())
    values["trace.overhead"] = (
        statistics.median(t["wall_s"] for t in traced.values())
        / statistics.median(untraced_walls)
        - 1.0
    )
    # The root's self time is whatever no layer span covers, so it is
    # left out: with it, the self times would always sum to the pass.
    values["trace.coverage"] = statistics.median(
        sum(s for span, s in by_pass[p] if span[_NAME] != ROOT) / traced[p]["wall_s"]
        for p in traced
    )
    return values
