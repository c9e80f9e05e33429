"""One metrics vocabulary for the four ad-hoc counter schemas.

The engine grew four disjoint stats surfaces —
:class:`~repro.engine.store.StoreCounters`, the cache layer's
``CacheStats``, ``EvalService.stats()`` and the simulator's
``AccessStats`` — each with its own names and nesting.  This module
gives them one registry of :class:`Counter` / :class:`Gauge`
instruments with a stable ``snapshot()`` dict
(snake_case; monotonic counts suffixed ``_total``) and a
Prometheus-style text export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
]


def _total_name(name: str) -> str:
    return name if name.endswith("_total") else f"{name}_total"


@dataclass
class Counter:
    """Monotonically increasing count (snapshots as ``<name>_total``)."""

    name: str
    help: str = ""
    value: int = 0

    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict[str, object]:
        return {_total_name(self.name): self.value}


@dataclass
class Gauge:
    """Point-in-time value that may go up or down."""

    name: str
    help: str = ""
    value: float = 0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> dict[str, object]:
        return {self.name: self.value}


@dataclass
class MetricsRegistry:
    """Named instruments with one snapshot and one text export."""

    _metrics: dict[str, Counter | Gauge] = field(default_factory=dict)
    #: non-numeric identity fields carried into the snapshot verbatim
    _labels: dict[str, object] = field(default_factory=dict)

    def _get(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def label(self, name: str, value: object) -> None:
        """Attach a non-numeric field (policy name, root path, ...)."""
        self._labels[name] = value

    def snapshot(self) -> dict[str, object]:
        """Flat snake_case dict; counters suffixed ``_total``."""
        out: dict[str, object] = dict(self._labels)
        for name in self._metrics:
            out.update(self._metrics[name].snapshot())
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition (labels become plain ``#``
        comments)."""
        lines: list[str] = []
        for name, value in self._labels.items():
            lines.append(f"# {name}: {value}")
        for name, metric in self._metrics.items():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, value in metric.snapshot().items():
                lines.append(f"{key} {value}")
        return "\n".join(lines) + "\n"
