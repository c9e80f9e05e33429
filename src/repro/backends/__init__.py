"""repro.backends — one evaluation API, pluggable evaluators.

The system has two ways to evaluate a trace under a machine scenario:
the paper's untimed trace-driven simulator (§6-§7) and the timed
discrete-event machine it sketches as future work (§9).  This package
puts both — and any backend a user registers — behind one contract:

* :class:`~repro.backends.base.Scenario` — the frozen identity of an
  evaluation point (machine configuration + topology, cost-model
  preset, execution mode), with canonical dict/JSON round-trip; it
  refuses unknown knobs when it is built, so backends never re-check;
* :class:`~repro.backends.base.EvalBackend` — the protocol a backend
  implements: ``name``, ``evaluate(trace, scenario) -> EvalOutcome``,
  a ``result_schema`` of metric columns, the ``table_metrics`` worth a
  table column and the ``scenario_axes`` it consumes;
* :func:`~repro.backends.base.register_backend` /
  :func:`~repro.backends.base.get_backend` — the registry the engine
  dispatches through (:func:`~repro.backends.base.canonical_backend`
  resolves aliases first);
* :func:`~repro.backends.base.evaluate_scenario` — the single counted
  evaluation path (mirrors the trace store's interpretation counter).

Importing this package registers the two built-ins: ``"untimed"``
(:class:`~repro.backends.untimed_vec.UntimedBackend` — the paper's
measurement instrument replayed columnarly, the *default* backend,
held bit-identical to the scalar oracle
:func:`repro.core.simulator.simulate` by the generative fidelity
harness; ``"untimed-vec"`` is an alias of it) and ``"timed"``
(:class:`~repro.backends.timed.TimedBackend`).  A backend is physics
only; scheduling — serial, a forked pool, or one resident
pool shared by concurrent campaigns
(:class:`~repro.engine.service.EvalService`) — belongs to the engine's
executor.  The support matrix — which backend consumes which scenario
knob — is documented in ``docs/backends.md``.

Quickstart::

    from repro.backends import Scenario, evaluate_scenario
    from repro.core import MachineConfig
    from repro.engine import kernel_trace_cached

    trace = kernel_trace_cached("iccg", n=512)
    scenario = Scenario(
        config=MachineConfig(n_pes=16, page_size=32),
        backend="timed",
        topology="mesh",          # alias of mesh2d
        mode="multithreaded",
    )
    outcome = evaluate_scenario(trace, scenario)
    print(outcome.metrics["speedup"], outcome.remote_read_pct)
"""

from .base import (
    COST_MODEL_PRESETS,
    MODES,
    EvalBackend,
    EvalOutcome,
    Scenario,
    backend_names,
    canonical_backend,
    cost_model,
    cost_model_names,
    evaluate_scenario,
    evaluation_count,
    get_backend,
    record_evaluations,
    register_backend,
)
from .timed import TimedBackend
from .untimed_vec import UntimedBackend

__all__ = [
    "COST_MODEL_PRESETS",
    "MODES",
    "EvalBackend",
    "EvalOutcome",
    "Scenario",
    "TimedBackend",
    "UntimedBackend",
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
