"""Simulator throughput — the harness's own performance.

Times the hot paths with pytest-benchmark's statistical timing
(multiple rounds, unlike the figure benches): trace generation by the
interpreter, configuration evaluation by the scalar simulator, and the
same evaluation by the columnar engine behind the ``untimed`` backend.
Evaluation must be much cheaper than generation — that asymmetry is
what makes the trace-once / sweep-many design worthwhile — and the
columnar cases exist to keep its margin honest.  These cases are a
statistically-timed artifact CI uploads; campaign-level replay time
is measured by the campaign benchmark (``benchmarks/campaign/``).
"""

from __future__ import annotations

import numpy as np

from repro.bench import kernel_trace
from repro.core import MachineConfig, simulate, simulate_vec
from repro.kernels import get_kernel


def test_perf_trace_generation(benchmark):
    program, inputs = get_kernel("hydro_fragment").build(n=1000)
    trace = benchmark(lambda: kernel_trace(program, inputs))
    assert trace.n_instances == 1000


def test_perf_simulate_one_config(benchmark):
    program, inputs = get_kernel("hydro_2d").build(n=200)
    trace = kernel_trace(program, inputs)
    cfg = MachineConfig(n_pes=16, page_size=32, cache_elems=256)
    result = benchmark(lambda: simulate(trace, cfg))
    assert result.stats.total_reads == trace.n_reads


def test_perf_simulate_no_cache_fast_path(benchmark):
    program, inputs = get_kernel("hydro_2d").build(n=200)
    trace = kernel_trace(program, inputs)
    cfg = MachineConfig(n_pes=16, page_size=32, cache_elems=0)
    result = benchmark(lambda: simulate(trace, cfg))
    assert result.stats.cached_reads == 0


def test_perf_simulate_vec_one_config(benchmark):
    """The columnar engine on the scalar case above, bit-identical."""
    program, inputs = get_kernel("hydro_2d").build(n=200)
    trace = kernel_trace(program, inputs)
    cfg = MachineConfig(n_pes=16, page_size=32, cache_elems=256)
    result = benchmark(lambda: simulate_vec(trace, cfg))
    assert np.array_equal(
        result.stats.counts, simulate(trace, cfg).stats.counts
    )


def test_perf_simulate_vec_reduction_funnel(benchmark):
    """The headline regime: host reduction funnels every fold to PE 0,
    whose long alternating page stream the columnar engine batches."""
    program, inputs = get_kernel("inner_product").build(n=20_000)
    trace = kernel_trace(program, inputs)
    cfg = MachineConfig(n_pes=8, page_size=32, cache_elems=256)
    result = benchmark(lambda: simulate_vec(trace, cfg))
    assert np.array_equal(
        result.stats.counts, simulate(trace, cfg).stats.counts
    )


def test_perf_simulate_vec_fallback_policy(benchmark):
    """The seeded ``random`` policy must consult its RNG in eviction
    order, so it has no closed form (FIFO over capacity solves through
    the eviction-epoch fixed point): the per-PE scalar-replay escape
    hatch is what this times."""
    program, inputs = get_kernel("inner_product").build(n=20_000)
    trace = kernel_trace(program, inputs)
    cfg = MachineConfig(
        n_pes=8, page_size=32, cache_elems=64, cache_policy="random"
    )
    telemetry: dict[str, int] = {}
    result = benchmark(lambda: simulate_vec(trace, cfg, telemetry))
    assert telemetry["fallback_pes"] >= 1
    assert np.array_equal(
        result.stats.counts, simulate(trace, cfg).stats.counts
    )
