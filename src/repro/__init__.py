"""repro — reproduction of Bic, Nagel & Roy (1989),
"Automatic Data/Program Partitioning Using the Single Assignment
Principle" (UC Irvine ICS TR #89-08).

The package provides:

* :mod:`repro.ir` — a loop-nest IR with a reference interpreter,
  static single-assignment checking and an automatic SA translator;
* :mod:`repro.memory` — the single-assignment memory substrate
  (I-structure cells, paging, distributed heap);
* :mod:`repro.core` — the paper's contribution: automatic
  data/program partitioning, the trace-driven multiprocessor
  simulator, and the access-distribution classifier;
* :mod:`repro.cache` — coherence-free per-PE page caches;
* :mod:`repro.machine` — a timed discrete-event machine model with
  network topologies (the paper's §9 future-work simulation);
* :mod:`repro.backends` — the evaluation API: a frozen ``Scenario``
  type, the ``EvalBackend`` protocol and registry, and the built-in
  backends ("untimed" replays the §6 simulator columnarly, "timed"
  wraps the discrete-event machine) so every evaluator is sweepable
  through one contract;
* :mod:`repro.hostproto` — the §5 host-processor re-initialisation
  protocol;
* :mod:`repro.kernels` — Livermore Loops workloads (IR + NumPy
  references);
* :mod:`repro.engine` — the single evaluation surface: persistent,
  content-addressed stores for traces (a kernel is interpreted once
  per machine, ever) *and* results (identical campaigns replay from
  cache), declarative campaign specs with backend axes (Python or
  JSON), a process-parallel executor dispatching through the backend
  registry with deterministic ordering and streaming progress, an
  evaluation service (one resident pool that concurrent campaigns
  share), and backend-tagged typed results with JSON export;
* :mod:`repro.bench` — sweeps, figure and table generators (running
  on :mod:`repro.engine`).

Quickstart::

    from repro import MachineConfig, simulate_program
    from repro.kernels import get_kernel

    kernel = get_kernel("hydro_fragment")
    program, inputs = kernel.build(n=1000)
    result = simulate_program(
        program, inputs, MachineConfig(n_pes=16, page_size=32)
    )
    print(f"{result.remote_read_pct:.2f}% of reads were remote")

Or through the engine, picking an evaluation backend::

    from repro.engine import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="timed-mesh",
        backend="timed",
        kernels=("hydro_fragment",),
        pes=(4, 16, 64),
        topologies=("mesh2d", "torus2d"),
    )
    for record in run_campaign(spec, stream=True):
        print(record.scenario.label(), record.metrics["speedup"])
"""

from .core import (
    AccessClass,
    AccessKind,
    AccessStats,
    BlockCyclicPartition,
    BlockPartition,
    Classification,
    DataLayout,
    LoadBalance,
    MachineConfig,
    ModuloPartition,
    PartitionScheme,
    SimResult,
    classify,
    simulate,
    simulate_program,
)
from .ir import (
    Program,
    ProgramBuilder,
    SingleAssignmentError,
    Trace,
    UndefinedReadError,
    check_program,
    run_program,
)
from .memory import (
    DoubleWriteError,
    IStructureMemory,
    SingleAssignmentArray,
    UndefinedElementError,
)

__version__ = "1.0.0"

__all__ = [
    "AccessClass",
    "AccessKind",
    "AccessStats",
    "BlockCyclicPartition",
    "BlockPartition",
    "Classification",
    "DataLayout",
    "DoubleWriteError",
    "IStructureMemory",
    "LoadBalance",
    "MachineConfig",
    "ModuloPartition",
    "PartitionScheme",
    "Program",
    "ProgramBuilder",
    "SimResult",
    "SingleAssignmentArray",
    "SingleAssignmentError",
    "Trace",
    "UndefinedElementError",
    "UndefinedReadError",
    "__version__",
    "check_program",
    "classify",
    "run_program",
    "simulate",
    "simulate_program",
]
