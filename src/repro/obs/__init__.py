"""``repro.obs`` — unified telemetry for the evaluation engine.

Three pieces, one import:

* **event log** (:mod:`.events`): structured JSONL lifecycle events,
  per-process files merged on campaign completion, enabled by
  ``REPRO_OBS=jsonl:<stem>``;
* **spans** (:mod:`.spans`): nestable timed regions emitted into the
  same log, process-safe ids — including the replay engines' and the
  timed machine's ``phase.<name>`` spans;
* **metrics** (:mod:`.metrics`): ``Counter``/``Gauge``/``Histogram``
  registry unifying the store/cache/service/simulator stat schemas,
  with snapshot-to-dict and Prometheus text export.

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
    "configure",
    "current_span_id",
    "emit",
    "event_path",
    "merge",
    "read_events",
    "span",
    "subscribe",
    "unsubscribe",
]
