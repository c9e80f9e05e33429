"""Per-phase replay profiling hooks.

The replay engines and the timed machine mark their phases with
:func:`phase` — classify_vec / cache_sim_vec / fallback_scalar in the
columnar engine behind the ``untimed`` backend, classify / cache_sim /
reduction in the scalar oracle and super-op replay, setup / event_loop
on the timed side.  A phase does two independent things, each only
when someone is listening:

* accumulate wall seconds into the thread-local collector opened by
  :func:`collect` (how per-record ``profile_<phase>_s`` metric columns
  and ``BENCH_replay.json`` are gathered), and
* emit a ``phase.<name>`` span when the event sink is active, so the
  merged trace's span tree shows where evaluation time went.

With neither active, :func:`phase` returns a shared no-op context
manager after two cheap checks — the hot loop stays unperturbed.
Collection is switched on per-evaluation by
:func:`repro.backends.evaluate_scenario` when the ``REPRO_PROFILE``
environment variable is set (see :func:`enabled`), or programmatically
via :func:`collect`.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from . import events
from .spans import _NULL_SPAN, span

__all__ = ["collect", "enabled", "phase"]

_ENV = "REPRO_PROFILE"
_tls = threading.local()


def enabled() -> bool:
    """True when ``REPRO_PROFILE`` asks for per-record phase columns."""
    return os.environ.get(_ENV, "") not in ("", "0")


@contextmanager
def collect() -> Iterator[dict[str, float]]:
    """Collect phase seconds on this thread into the yielded dict."""
    previous = getattr(_tls, "collector", None)
    collector: dict[str, float] = {}
    _tls.collector = collector
    try:
        yield collector
    finally:
        _tls.collector = previous


class _Phase:
    __slots__ = ("name", "collector", "inner", "t0")

    def __init__(self, name: str, collector, inner):
        self.name = name
        self.collector = collector
        self.inner = inner

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.inner.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.inner.__exit__(exc_type, exc, tb)
        if self.collector is not None:
            elapsed = time.perf_counter() - self.t0
            self.collector[self.name] = (
                self.collector.get(self.name, 0.0) + elapsed
            )
        return False


def phase(name: str):
    """Mark one profiling phase (no-op unless collecting or tracing)."""
    collector = getattr(_tls, "collector", None)
    if collector is None and not events.active():
        return _NULL_SPAN
    inner = span(f"phase.{name}")
    return _Phase(name, collector, inner)
