"""Typed, backend-tagged campaign results with JSON export.

One :class:`EvalRecord` per (kernel, scenario) point, in the spec's
canonical order, each carrying the full
:class:`~repro.backends.base.EvalOutcome` so nothing is lost between
execution and reporting; ``to_dict`` flattens a record to the
JSON-friendly summary the CLI and the figure/table generators consume,
with the backend name and the backend's metric columns riding along.
:meth:`CampaignResult.identical` compares two runs counter for counter
— the bit-exactness contract between the serial and parallel
executors, whatever the backend.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..backends import EvalOutcome, Scenario, get_backend
from .campaign import CampaignSpec, KernelSpec

__all__ = ["CampaignResult", "EvalRecord"]

#: Spec axis name → scenario field it populates.
_AXIS_TO_FIELD = {
    "topologies": "topology",
    "modes": "mode",
    "cost_models": "cost_model",
}


@dataclass(frozen=True, eq=False)
class EvalRecord:
    """One evaluated sweep point, tagged with its canonical index."""

    kernel: KernelSpec
    outcome: EvalOutcome
    index: int = -1
    #: wall seconds this record's evaluation took in *this* run
    #: (``None`` when it never ran here — served from the result cache)
    eval_wall_s: float | None = None
    #: True when the outcome came from the result cache (its file, or
    #: a peer campaign's deferred point), not a fresh evaluation
    cache_hit: bool = False

    # -- convenient views ------------------------------------------------------
    @property
    def scenario(self) -> Scenario:
        return self.outcome.scenario

    @property
    def backend(self) -> str:
        return self.outcome.backend

    @property
    def config(self):
        return self.outcome.scenario.config

    @property
    def metrics(self) -> dict[str, float]:
        return self.outcome.metrics

    @property
    def remote_read_pct(self) -> float:
        return self.outcome.remote_read_pct

    @property
    def cached_read_pct(self) -> float:
        return self.outcome.cached_read_pct

    def matches(self, **criteria: object) -> bool:
        """True when every criterion equals the record's field.

        Criteria may name ``kernel`` (registry name or label),
        ``backend``, any configuration axis (``n_pes``, ``page_size``,
        ``cache_elems``, ``cache_policy``, ``partition`` — by scheme
        label — or ``reduction_strategy``) or any scenario knob
        (``topology``, ``mode``, ``cost_model``).
        """
        config = self.config
        scenario = self.scenario
        for key, wanted in criteria.items():
            if key == "kernel":
                if wanted not in (self.kernel.name, self.kernel.label):
                    return False
            elif key == "partition":
                if config.partition.label != wanted:
                    return False
            elif key in ("n", "seed"):
                if getattr(self.kernel, key) != wanted:
                    return False
            elif key in (
                "backend",
                "topology",
                "mode",
                "cost_model",
                "max_outstanding",
            ):
                if getattr(scenario, key) != wanted:
                    return False
            else:
                if getattr(config, key) != wanted:
                    return False
        return True

    def _scenario_columns(self) -> dict[str, object]:
        """The scenario knobs the record's backend actually consumes.

        Axes outside the built-in map (a custom backend's own axis
        names) have no :class:`Scenario` field to report and are
        skipped.
        """
        try:
            axes = get_backend(self.backend).scenario_axes
        except KeyError:  # result outlived its backend registration
            axes = tuple(_AXIS_TO_FIELD)
        out: dict[str, object] = {}
        for axis in axes:
            name = _AXIS_TO_FIELD.get(axis)
            if name is not None:
                out[name] = getattr(self.scenario, name)
        if axes:
            out["max_outstanding"] = self.scenario.max_outstanding
        return out

    def to_dict(self) -> dict[str, object]:
        config = self.config
        out: dict[str, object] = {
            "kernel": self.kernel.name,
            "n": self.kernel.n,
            "seed": self.kernel.seed,
            "backend": self.backend,
            "n_pes": config.n_pes,
            "page_size": config.page_size,
            "cache_elems": config.cache_elems,
            "cache_policy": config.cache_policy,
            "partition": config.partition.label,
            "reduction_strategy": config.reduction_strategy,
        }
        out.update(self._scenario_columns())
        out["eval_wall_s"] = self.eval_wall_s
        out["cache_hit"] = self.cache_hit
        out.update(self.outcome.summary())
        return out

    def identical(self, other: "EvalRecord") -> bool:
        """Bit-exact comparison of every counter, metric and array.

        Wall-clock provenance (``eval_wall_s``, ``cache_hit``) is
        deliberately excluded — two runs of one campaign are the same
        *result* however long each took and wherever each was served
        from.
        """
        return (
            self.kernel == other.kernel
            and self.index == other.index
            and self.outcome.identical(other.outcome)
        )


@dataclass
class CampaignResult:
    """All records of one executed campaign, in canonical spec order."""

    spec: CampaignSpec
    records: list[EvalRecord]
    #: per-kernel-label trace shape, recorded at acquisition time
    trace_meta: dict[str, dict[str, int]] = field(default_factory=dict)
    #: how the campaign ran ("serial", "parallel[N]", "+cache[H/N]", ...)
    executor: str = "serial"
    elapsed_s: float | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EvalRecord]:
        return iter(self.records)

    # -- selection -------------------------------------------------------------
    def select(self, **criteria: object) -> list[EvalRecord]:
        return [r for r in self.records if r.matches(**criteria)]

    def find(self, **criteria: object) -> EvalRecord:
        """The unique record matching the criteria (KeyError otherwise)."""
        hits = self.select(**criteria)
        if len(hits) != 1:
            raise KeyError(
                f"{len(hits)} records match {criteria!r} (need exactly 1)"
            )
        return hits[0]

    def kernels(self) -> list[str]:
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.kernel.label)
        return list(seen)

    # -- comparison ------------------------------------------------------------
    def identical(self, other: "CampaignResult") -> bool:
        """Record-for-record bit-exact equality (order included)."""
        if len(self.records) != len(other.records):
            return False
        return all(
            a.identical(b) for a, b in zip(self.records, other.records)
        )

    # -- export ----------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "campaign": self.spec.to_dict(),
            "backend": self.spec.backend,
            "executor": self.executor,
            "elapsed_s": self.elapsed_s,
            "traces": self.trace_meta,
            "results": [record.to_dict() for record in self.records],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save_json(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    def rows(
        self, kernel: str | None = None
    ) -> tuple[list[str], list[list[object]]]:
        """(headers, rows) for ASCII rendering, optionally one kernel.

        Backend-specific columns follow the common ones: the scenario
        knobs the backend consumes plus its ``table_metrics``.
        """
        records = self.select(kernel=kernel) if kernel else self.records
        try:
            backend = get_backend(self.spec.backend)
            scenario_axes = backend.scenario_axes
            table_metrics = backend.table_metrics
        except KeyError:  # result outlived its backend registration
            scenario_axes = tuple(_AXIS_TO_FIELD)
            table_metrics = ()
        scenario_fields = [
            _AXIS_TO_FIELD[axis]
            for axis in scenario_axes
            if axis in _AXIS_TO_FIELD
        ]
        headers = [
            "kernel",
            "backend",
            "pes",
            "ps",
            "cache",
            "policy",
            "partition",
            *scenario_fields,
            "remote%",
            "cached%",
            "eval_s",
            "hit",
            *table_metrics,
        ]
        rows: list[list[object]] = []
        for record in records:
            config = record.config
            rows.append(
                [
                    record.kernel.label,
                    record.backend,
                    config.n_pes,
                    config.page_size,
                    config.cache_elems,
                    config.cache_policy,
                    config.partition.label,
                    *(
                        getattr(record.scenario, name)
                        for name in scenario_fields
                    ),
                    record.remote_read_pct,
                    record.cached_read_pct,
                    (
                        None
                        if record.eval_wall_s is None
                        else round(record.eval_wall_s, 4)
                    ),
                    record.cache_hit,
                    *(
                        record.metrics.get(metric)
                        for metric in table_metrics
                    ),
                ]
            )
        return headers, rows

    @staticmethod
    def from_records(
        spec: CampaignSpec,
        records: Iterable[EvalRecord],
        **kwargs: object,
    ) -> "CampaignResult":
        """Assemble a result from index-tagged records (any arrival
        order — the streaming consumer's constructor)."""
        ordered = sorted(records, key=lambda r: r.index)
        if [r.index for r in ordered] != list(range(spec.n_points)):
            raise ValueError(
                f"records do not cover the campaign: got "
                f"{len(ordered)} of {spec.n_points} points"
            )
        return CampaignResult(spec=spec, records=ordered, **kwargs)  # type: ignore[arg-type]
