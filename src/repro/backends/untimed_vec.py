"""The untimed trace-driven simulator as an evaluation backend (§6-§7).

``"untimed"`` is the paper's measurement instrument.  It consumes the
machine configuration alone and replays the trace through the
columnar engine, :func:`repro.core.vec_simulator.simulate_vec` — or,
for a trace carrying a super-op view, through
:func:`repro.core.superop_replay.replay_superops`.  Both are held
bit-identical to the scalar oracle :func:`repro.core.simulator.simulate`
by the generative walls in ``tests/``; only the ``vec_fallback_pes``
metric (how many PE cache walks needed the scalar fallback) is extra.
``docs/fastpaths.md`` maps which (policy, capacity, warmth) cells
replay columnar.  ``"untimed-vec"`` is an alias of this backend, and
the module keeps its path because the campaign benchmark's tracer
patches ``replay_superops`` and ``simulate_vec`` here by name.

Scenario knobs the columnar engine cannot batch raise
:class:`~repro.backends.base.UnsupportedScenarioError` up front — an
unknown cache policy would otherwise only surface as a ``KeyError``
deep inside the walk, and an unknown reduction strategy (smuggled past
the config validator by a hand-built scenario) must name the backend
that refused it, exactly as the timed backend does.
"""

from __future__ import annotations

from ..cache import POLICIES
from ..core.superop_replay import replay_superops
from ..core.vec_simulator import simulate_vec
from ..ir.trace import Trace
from .base import (
    EvalOutcome,
    Scenario,
    UnsupportedScenarioError,
    register_backend,
)

__all__ = ["UntimedBackend"]


class UntimedBackend:
    """Backend ``"untimed"``: the paper's measurement instrument."""

    name = "untimed"
    scenario_axes: tuple[str, ...] = ()
    #: Same strategies the scalar engine models; the subrange combine
    #: is charged through the scalar engine's own shared routine, so
    #: the strategies can never drift apart.
    supported_reductions: tuple[str, ...] = ("host", "subrange")
    result_schema: tuple[str, ...] = (
        "page_fetches",
        "distinct_pages_fetched",
        "vec_fallback_pes",
    )
    table_metrics: tuple[str, ...] = ("page_fetches",)

    def evaluate(self, trace: Trace, scenario: Scenario) -> EvalOutcome:
        config = scenario.config
        if config.reduction_strategy not in self.supported_reductions:
            raise UnsupportedScenarioError(
                self.name,
                "reduction_strategy",
                config.reduction_strategy,
                supported=self.supported_reductions,
            )
        if config.has_cache and config.cache_policy not in POLICIES:
            raise UnsupportedScenarioError(
                self.name,
                "cache_policy",
                config.cache_policy,
                supported=tuple(POLICIES),
            )
        telemetry: dict[str, int] = {}
        superops = trace.attached_superops()
        # A trace carrying a super-op view replays in O(unique
        # behaviour); the engine's own scalar fallback count flows
        # into the same vec_fallback_pes metric.
        if superops is not None and superops.ops:
            result = replay_superops(superops, config, telemetry=telemetry)
        else:
            result = simulate_vec(trace, config, telemetry)
        return EvalOutcome(
            backend=self.name,
            scenario=scenario,
            stats=result.stats,
            metrics={
                "page_fetches": float(result.page_fetches.sum()),
                "distinct_pages_fetched": float(
                    result.distinct_pages_fetched.sum()
                ),
                "vec_fallback_pes": float(telemetry.get("fallback_pes", 0)),
            },
            per_pe={
                "page_fetches": result.page_fetches,
                "distinct_pages_fetched": result.distinct_pages_fetched,
            },
        )


register_backend(UntimedBackend())
