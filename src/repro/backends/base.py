"""The evaluation contract: scenarios, outcomes, and the backend registry.

A *backend* is one way of evaluating a trace under a machine scenario:
the untimed trace-driven simulator of §6-§7, the timed discrete-event
machine of §9, or anything a user registers.  Every backend answers the
same call — ``evaluate(trace, scenario) -> EvalOutcome`` — so every
layer above (campaigns, the executor, the result store, the CLI) is
backend-agnostic and any scenario the registry knows is sweepable,
cacheable and parallelisable through the same engine.

A :class:`Scenario` is the full identity of one evaluation point: the
shared :class:`~repro.core.simulator.MachineConfig` plus the
backend-specific knobs (interconnect topology, cost-model preset,
execution mode, outstanding-request limit).  Scenarios are frozen,
hashable, and round-trip canonically through dicts/JSON, which gives
the result cache its content address.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field, replace
from typing import Mapping, Protocol, runtime_checkable

import numpy as np

from ..core.simulator import MachineConfig
from ..core.stats import AccessStats
from ..ir.trace import Trace
from ..machine.network import canonical_topology
from ..machine.pe import MODES, CostModel

__all__ = [
    "COST_MODEL_PRESETS",
    "EvalBackend",
    "EvalOutcome",
    "MODES",
    "Scenario",
    "backend_names",
    "canonical_backend",
    "cost_model",
    "cost_model_names",
    "evaluate_scenario",
    "evaluation_count",
    "get_backend",
    "record_evaluations",
    "register_backend",
]


# ---------------------------------------------------------------------------
# cost-model presets
# ---------------------------------------------------------------------------

#: Named cost models, so campaign specs stay JSON-serialisable: the
#: default era-plausible ratios plus the two network extremes the
#: ablation questions call for.
COST_MODEL_PRESETS: dict[str, CostModel] = {
    "default": CostModel(),
    # An aggressive interconnect: overheads an order of magnitude down,
    # cheap payload — the "what if the network were free-ish" bound.
    "fast-network": CostModel(
        request_overhead=2.0,
        reply_overhead=2.0,
        per_hop=1.0,
        per_element=0.05,
    ),
    # A congested/slow interconnect: everything network-side inflated
    # 4x, compute unchanged — stresses latency hiding and topology.
    "slow-network": CostModel(
        request_overhead=80.0,
        reply_overhead=80.0,
        per_hop=20.0,
        per_element=2.0,
    ),
    # Default costs plus finite per-link bandwidth: messages occupy
    # each link on their route (4 bytes/cycle ⇒ 2 cycles per 8-byte
    # element) and queue behind traffic already holding it, so the
    # contention summary feeds back into completion time.
    "contended": CostModel(
        link_bandwidth=4.0,
        contention_model="per-link",
    ),
    # The control for "contended": the per-link queueing machinery is
    # ON but bandwidth is infinite, so occupancy is exactly 0.0 and
    # every latency reproduces the "default" preset bit for bit —
    # contention_delay_cycles must come out 0 (property-tested).
    "infinite-bw": CostModel(
        link_bandwidth=float("inf"),
        contention_model="per-link",
    ),
}


def cost_model_names() -> tuple[str, ...]:
    return tuple(sorted(COST_MODEL_PRESETS))


def cost_model(name: str) -> CostModel:
    """Resolve a cost-model preset by name."""
    try:
        return COST_MODEL_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown cost model {name!r}; choose from {cost_model_names()}"
        ) from None


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One evaluation point: a machine configuration + backend knobs.

    The untimed backend reads only ``config``; the timed backend reads
    all fields.  Fields the chosen backend does not consume should sit
    at their defaults so a scenario's canonical form (and therefore its
    cache key) is identical however it was built —
    :class:`~repro.engine.campaign.CampaignSpec` enforces this for
    every engine-built scenario.  ``backend`` is part of the canonical
    form, so the same machine point evaluated under two backends has
    two digests and two result-cache entries, by design; an alias
    (``"untimed-vec"``) is resolved first, so it shares its backend's.
    """

    config: MachineConfig
    backend: str = "untimed"
    topology: str = "crossbar"
    mode: str = "blocking"
    cost_model: str = "default"
    max_outstanding: int = 4

    def __post_init__(self) -> None:
        # Canonicalise aliases ("mesh" -> "mesh2d", "untimed-vec" ->
        # "untimed") so equal scenarios have equal dicts and digests.
        object.__setattr__(
            self, "topology", canonical_topology(self.topology)
        )
        object.__setattr__(self, "backend", canonical_backend(self.backend))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        cost_model(self.cost_model)  # fail fast on typos
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be at least 1")
        if not self.backend:
            raise ValueError("scenario needs a backend name")

    @property
    def costs(self) -> CostModel:
        return cost_model(self.cost_model)

    def with_config(self, config: MachineConfig) -> "Scenario":
        return replace(self, config=config)

    def label(self) -> str:
        """Stable display identity; non-default knobs are spelled out."""
        parts = [self.backend]
        extras = [
            str(value)
            for value, default in (
                (self.topology, "crossbar"),
                (self.mode, "blocking"),
                (self.cost_model, "default"),
                (f"out={self.max_outstanding}", "out=4"),
            )
            if value != default
        ]
        if extras:
            parts.append("[" + ",".join(extras) + "]")
        parts.append(self.config.label())
        return " ".join(parts)

    # -- (de)serialisation -----------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "backend": self.backend,
            "config": self.config.to_dict(),
            "topology": self.topology,
            "mode": self.mode,
            "cost_model": self.cost_model,
            "max_outstanding": self.max_outstanding,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "Scenario":
        known = {
            "backend",
            "config",
            "topology",
            "mode",
            "cost_model",
            "max_outstanding",
        }
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown scenario keys: {sorted(extra)}")
        if "config" not in data:
            raise ValueError("scenario needs a 'config' mapping")
        return Scenario(
            config=MachineConfig.from_dict(data["config"]),  # type: ignore[arg-type]
            backend=str(data.get("backend", "untimed")),
            topology=str(data.get("topology", "crossbar")),
            mode=str(data.get("mode", "blocking")),
            cost_model=str(data.get("cost_model", "default")),
            max_outstanding=int(data.get("max_outstanding", 4)),  # type: ignore[arg-type]
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        return Scenario.from_dict(json.loads(text))

    @property
    def digest(self) -> str:
        """Content address of this scenario (canonical JSON, hashed)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EvalOutcome:
    """What a backend returns for one (trace, scenario) evaluation.

    The common part — the paper's four access categories, per PE — is
    an :class:`AccessStats` whatever the backend; everything else rides
    in ``metrics`` (scalar columns, JSON-exported as-is) and ``per_pe``
    (named per-PE arrays, kept for bit-exact comparison and the
    load-balance views).
    """

    backend: str
    scenario: Scenario
    stats: AccessStats
    metrics: dict[str, float] = field(default_factory=dict)
    per_pe: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def config(self) -> MachineConfig:
        return self.scenario.config

    @property
    def remote_read_pct(self) -> float:
        return self.stats.remote_read_pct

    @property
    def cached_read_pct(self) -> float:
        return self.stats.cached_read_pct

    def summary(self) -> dict[str, float]:
        """Flat scalar view: access-category summary + backend metrics."""
        out = self.stats.summary()
        out.update(self.metrics)
        return out

    def identical(self, other: "EvalOutcome") -> bool:
        """Bit-exact comparison of every counter, metric and array."""
        return (
            self.backend == other.backend
            and self.scenario == other.scenario
            and self.stats.array_names == other.stats.array_names
            and np.array_equal(self.stats.counts, other.stats.counts)
            and np.array_equal(self.stats.by_array, other.stats.by_array)
            and self.metrics == other.metrics
            and set(self.per_pe) == set(other.per_pe)
            and all(
                np.array_equal(self.per_pe[name], other.per_pe[name])
                for name in self.per_pe
            )
        )

    def __repr__(self) -> str:
        return f"EvalOutcome({self.scenario.label()}: {self.stats!r})"


# ---------------------------------------------------------------------------
# the backend protocol and registry
# ---------------------------------------------------------------------------


@runtime_checkable
class EvalBackend(Protocol):
    """What the engine requires of an evaluation backend.

    ``scenario_axes`` names the campaign axes (beyond the machine
    configuration grid) the backend consumes — the spec validator
    rejects sweeps along axes a backend would silently ignore.
    ``result_schema`` names the scalar metric columns every outcome's
    ``metrics`` dict carries; ``table_metrics`` is the subset worth a
    column in the CLI's record tables.

    Every knob arrives already checked, where its value was built
    (:class:`~repro.core.simulator.MachineConfig`, :class:`Scenario`),
    so ``evaluate`` only evaluates.  A backend is physics only: *how*
    jobs are scheduled (serially, on a forked pool, or on a shared
    :class:`~repro.engine.service.EvalService`) is the executor's
    business.
    """

    name: str
    scenario_axes: tuple[str, ...]
    result_schema: tuple[str, ...]
    table_metrics: tuple[str, ...]

    def evaluate(self, trace: Trace, scenario: Scenario) -> EvalOutcome:
        """Evaluate one trace under one scenario (pure, deterministic)."""
        ...


_REGISTRY: dict[str, EvalBackend] = {}

#: Other spellings of registered backends.  ``untimed-vec`` stays
#: accepted for specs written when it named the columnar engine, which
#: is ``untimed`` itself now.
_ALIASES = {"untimed-vec": "untimed"}


def canonical_backend(name: str) -> str:
    """Resolve a backend alias to the name it is registered under."""
    return _ALIASES.get(name, name)


def register_backend(backend: EvalBackend, *, replace: bool = False) -> None:
    """Add a backend to the registry (``replace=True`` to override)."""
    if not replace and backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> EvalBackend:
    try:
        return _REGISTRY[canonical_backend(name)]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def backend_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# the one evaluation path
# ---------------------------------------------------------------------------

_evaluations = 0
#: pool outcomes are counted on other threads while others evaluate
_evaluations_lock = threading.Lock()


def evaluation_count() -> int:
    """How many backend evaluations this campaign surface has performed.

    The evaluation-side mirror of
    :func:`repro.engine.store.interpretation_count`: every engine
    evaluation funnels through :func:`evaluate_scenario`, so a campaign
    replayed entirely from the result cache keeps this counter flat.
    The counter is per-process, but an evaluation that a pool worker
    runs — for a campaign, a ``run_grid(parallel=True)`` call or an
    evaluation service — is counted again, through
    :func:`record_evaluations`, in the process that receives its
    outcome, so the count covers worker-side evaluations as their
    outcomes arrive.
    """
    return _evaluations


def record_evaluations(n: int) -> None:
    """Count evaluations performed in another process.

    The fork pool's result loop and the evaluation service call this
    once per outcome a pool worker returns: the worker counted its own
    :func:`evaluate_scenario` call in its own process, and this is how
    it lands in :func:`evaluation_count` here instead of being lost
    with the pool.
    """
    global _evaluations
    with _evaluations_lock:
        _evaluations += n


def evaluate_scenario(trace: Trace, scenario: Scenario) -> EvalOutcome:
    """Dispatch one evaluation through the registry (counted)."""
    global _evaluations
    with _evaluations_lock:
        _evaluations += 1
    return get_backend(scenario.backend).evaluate(trace, scenario)
