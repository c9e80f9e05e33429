"""``repro.obs`` — unified telemetry for the evaluation engine.

Four pieces, one import:

* **event log** (:mod:`.events`): structured JSONL lifecycle events,
  per-process files merged on campaign completion, enabled by
  ``REPRO_OBS=jsonl:<stem>``;
* **spans** (:mod:`.spans`): nestable timed regions emitted into the
  same log, process-safe ids;
* **metrics** (:mod:`.metrics`): ``Counter``/``Gauge``/``Histogram``
  registry unifying the store/cache/service/simulator stat schemas,
  with snapshot-to-dict and Prometheus text export;
* **profiling** (:mod:`.profile`): per-phase replay timings for the
  untimed simulator and the timed machine, feeding per-record columns
  and the ``BENCH_replay.json`` baseline.

Everything degrades to ~zero cost when nothing is listening.
"""

from __future__ import annotations

from .events import (
    HOSTNAME,
    active,
    configure,
    emit,
    event_path,
    merge,
    read_events,
    subscribe,
    unsubscribe,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import collect, enabled, phase
from .progress import ProgressLine
from .spans import current_span_id, span

__all__ = [
    "Counter",
    "HOSTNAME",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProgressLine",
    "active",
    "collect",
    "configure",
    "current_span_id",
    "emit",
    "enabled",
    "event_path",
    "merge",
    "phase",
    "read_events",
    "span",
    "subscribe",
    "unsubscribe",
]
