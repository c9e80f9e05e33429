"""The timed discrete-event machine as an evaluation backend (§9).

Wraps :class:`repro.machine.msim.TimedMachine` behind the common
``evaluate(trace, scenario)`` contract, which is what makes every
timed scenario — topologies x cost models x execution modes —
sweepable, cacheable and parallelizable through the engine instead of
being driven by hand.  The scenario's timed knobs map directly onto
the machine's constructor; the serial baseline is recomputed per
evaluation (it is O(1) in the trace counters) so ``speedup`` travels
with every record.
"""

from __future__ import annotations

from ..ir.trace import Trace
from ..machine.msim import TimedMachine, serial_time
from .base import EvalOutcome, Scenario, register_backend

__all__ = ["TimedBackend"]


class TimedBackend:
    """Backend ``"timed"``: execution time, latency hiding, contention."""

    name = "timed"
    scenario_axes: tuple[str, ...] = ("topologies", "modes", "cost_models")
    result_schema: tuple[str, ...] = (
        "finish_time",
        "speedup",
        "stall_time",
        "messages",
        "total_hops",
        "refetches",
        "deferred_reads",
        "messages_per_link_max",
        "messages_per_link_mean",
        "contention_delay_cycles",
    )
    table_metrics: tuple[str, ...] = ("finish_time", "speedup")

    def evaluate(self, trace: Trace, scenario: Scenario) -> EvalOutcome:
        costs = scenario.costs
        result = TimedMachine(
            trace,
            scenario.config,
            topology=scenario.topology,
            costs=costs,
            mode=scenario.mode,
            max_outstanding=scenario.max_outstanding,
        ).run()
        base = serial_time(trace, costs)
        metrics = {
            "finish_time": result.finish_time,
            "speedup": result.speedup(base),
            "stall_time": float(result.stall_time.sum()),
            "messages": float(result.messages),
            "total_hops": float(result.total_hops),
            "refetches": float(result.refetches),
            "deferred_reads": float(result.deferred_reads),
            "messages_per_link_max": result.contention[
                "messages_per_link_max"
            ],
            "messages_per_link_mean": result.contention[
                "messages_per_link_mean"
            ],
            "contention_delay_cycles": result.contention_delay_cycles,
        }
        return EvalOutcome(
            backend=self.name,
            scenario=scenario,
            stats=result.stats,
            metrics=metrics,
            per_pe={
                "finish": result.per_pe_finish,
                "stall": result.stall_time,
            },
        )


register_backend(TimedBackend())
