"""The generative cyclic-trace fidelity wall for super-op replay.

``repro.ir.superops`` collapses repeated affine access-pattern bodies
into parameterized super-ops; the ``untimed`` backend then executes a
super-op in one step instead of ``trip_count`` via
:func:`repro.core.superop_replay.replay_superops` (misses decided once
per steady-state window, with an explicit scalar trip loop for bodies
that reach no cache fixed point).  None of that is allowed to be
*visible*: every counter must equal the flat replay's — the scalar
oracle :func:`repro.core.simulator.simulate` and the columnar engine
alike — bit for bit.  The timed machine always replays the expanded
trace, so attaching super-ops must leave its outcomes unchanged.

This suite holds the whole stack to that contract generatively —
``tests/strategies.py`` draws traces with reductions, future reads,
imperfect tails and nested cycles (``cyclic_traces``) — plus
deterministic detector unit tests, the store-format-v2 round trip and
the backend-dispatch envelope.  The nightly ``vec-fuzz`` CI job
re-runs it at the ``ci-deep`` hypothesis profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends import Scenario, evaluate_scenario
from repro.bench import kernel_trace
from repro.core import MachineConfig, simulate, simulate_vec
from repro.core.superop_replay import replay_superops
from repro.ir import TraceBuilder
from repro.ir.superops import SuperOpTrace, compact
from repro.kernels import get_kernel
from strategies import cyclic_traces, machine_configs, sweep_traces

# Local floor of 200 generated examples; the nightly ci-deep profile
# raises settings.default.max_examples past it.
_EXAMPLES = max(200, settings.default.max_examples)


def assert_sim_identical(flat, compacted) -> None:
    """Bit-exact equality of everything a SimResult reports."""
    assert np.array_equal(flat.stats.counts, compacted.stats.counts)
    assert np.array_equal(flat.stats.by_array, compacted.stats.by_array)
    assert np.array_equal(flat.page_fetches, compacted.page_fetches)
    assert np.array_equal(
        flat.distinct_pages_fetched, compacted.distinct_pages_fetched
    )


class TestCompactExpand:
    """compact() is lossless: expand() rebuilds the flat trace."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces())
    def test_roundtrip_bit_identical(self, trace):
        sot = compact(trace, min_trips=2, max_period=8)
        assert trace.identical(sot.expand())
        assert sot.n_stored_rows <= trace.n_instances

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces(timed_safe=True))
    def test_roundtrip_timed_safe(self, trace):
        sot = compact(trace, min_trips=2, max_period=8)
        assert trace.identical(sot.expand())


class TestUntimedFidelity:
    """The wall: compacted replay == flat replay, bit for bit, on the
    scalar and columnar untimed engines."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces(), config=machine_configs())
    def test_scalar_counters_bit_identical(self, trace, config):
        sot = compact(trace, min_trips=2, max_period=8)
        assert_sim_identical(
            simulate(trace, config), replay_superops(sot, config)
        )

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces(), config=machine_configs())
    def test_vec_counters_bit_identical(self, trace, config):
        """The columnar engine and the super-op engine answer to the
        same scalar reference, so this transitively pins all three."""
        sot = compact(trace, min_trips=2, max_period=8)
        assert_sim_identical(
            simulate_vec(trace, config), replay_superops(sot, config)
        )


class TestClosedFormCoverage:
    """The FIFO and warm-LRU closed forms actually *run* — telemetry
    proves the decisions took the columnar path, not the per-piece
    fallback — and the one honest wall left (warm FIFO, whose
    admission epochs are not reconstructible from the resident set)
    really does fall back.  Bit-identity rides along on every case."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=sweep_traces())
    def test_warm_lru_back_to_back_ops_stay_closed(self, trace):
        """Every sweep after the first enters with a warm cache; the
        seeded reuse-distance profile must keep all of them on the
        closed form (`superop_piece_pes == 0`)."""
        sot = compact(trace, min_trips=4, max_period=8)
        assert len(sot.ops) >= 2
        config = MachineConfig(
            n_pes=2, page_size=16, cache_elems=128, cache_policy="lru"
        )
        telemetry: dict[str, int] = {}
        assert_sim_identical(
            simulate(trace, config),
            replay_superops(sot, config, telemetry=telemetry),
        )
        assert telemetry["mode"] == "superop"
        assert telemetry["superop_piece_pes"] == 0
        assert telemetry["fallback_pes"] == 0
        assert telemetry["superop_closed_pes"] > 0

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=sweep_traces(min_sweeps=1, max_sweeps=1))
    def test_fifo_over_capacity_stays_closed(self, trace):
        """A cold over-capacity FIFO sweep must solve through the
        eviction-epoch fixed point, not the per-piece walk."""
        sot = compact(trace, min_trips=4, max_period=8)
        config = MachineConfig(
            n_pes=2, page_size=16, cache_elems=32, cache_policy="fifo"
        )
        assert config.cache_pages == 2  # far under the sweep's pages
        telemetry: dict[str, int] = {}
        assert_sim_identical(
            simulate(trace, config),
            replay_superops(sot, config, telemetry=telemetry),
        )
        assert telemetry["superop_piece_pes"] == 0
        assert telemetry["fallback_pes"] == 0
        assert telemetry["superop_closed_pes"] > 0

    @settings(max_examples=60, deadline=None)
    @given(trace=sweep_traces())
    def test_warm_fifo_falls_back_per_piece(self, trace):
        """The honest wall: sweeps after the first enter warm, and a
        FIFO queue's epochs cannot be seeded — those PEs must take
        the per-piece walk, bit-identically."""
        sot = compact(trace, min_trips=4, max_period=8)
        config = MachineConfig(
            n_pes=2, page_size=16, cache_elems=32, cache_policy="fifo"
        )
        telemetry: dict[str, int] = {}
        assert_sim_identical(
            simulate(trace, config),
            replay_superops(sot, config, telemetry=telemetry),
        )
        assert telemetry["superop_piece_pes"] > 0


class TestStoreFormatV2:
    """Super-op shards round-trip losslessly and keep their digests."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=cyclic_traces())
    def test_save_load_roundtrip(self, trace):
        import tempfile
        from pathlib import Path

        sot = compact(trace, min_trips=2, max_period=8)
        trace.attach_superops(sot)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.npz"
            trace.save(path, compact=True)
            loaded = type(trace).load(path)
        assert trace.identical(loaded)
        assert trace.content_digest == loaded.content_digest
        if sot.ops and sot.n_stored_rows <= trace.n_instances // 2:
            # Profitable views persist in the v2 layout and come back.
            reloaded = loaded.attached_superops()
            assert reloaded is not None
            assert len(reloaded.ops) == len(sot.ops)

    @settings(max_examples=60, deadline=None)
    @given(trace=cyclic_traces())
    def test_payload_roundtrip(self, trace):
        sot = compact(trace, min_trips=2, max_period=8)
        payload = sot.to_payload()
        back = SuperOpTrace.from_payload(
            sot.array_names,
            sot.array_sizes,
            sot.n_instances,
            {k: np.asarray(v) for k, v in payload.items()},
        )
        assert sot.expand().identical(back.expand())


def _stencil_trace(n: int = 64, prologue: int = 3) -> "TraceBuilder":
    builder = TraceBuilder(["a", "b"], [n + 2, n + 2])
    for i in range(prologue):  # irregular warm-up the body must skip
        builder.record_read(0, 0)
        builder.commit_instance(1, 1, n + 1 - i, False)
    for i in range(n):
        builder.record_read(0, i)
        builder.record_read(0, i + 2)
        builder.commit_instance(0, 1, i + 1, False)
    return builder.freeze()


class TestDetector:
    """Deterministic shape checks on what compact() proves."""

    def test_stencil_sweep_collapses(self):
        trace = _stencil_trace()
        sot = compact(trace, min_trips=4, max_period=8)
        assert len(sot.ops) == 1
        (op,) = sot.ops
        assert op.body_len == 1
        assert op.trips == 64
        assert sot.n_residual == 3
        assert np.array_equal(op.r_stride, [1, 1])
        assert np.array_equal(op.w_stride, [1])

    def test_min_trips_respected(self):
        trace = _stencil_trace(n=6)
        assert compact(trace, min_trips=8, max_period=8).ops == ()
        # At 3, both the 3-instance prologue (itself affine, stride
        # -1) and the 6-trip sweep clear the bar.
        sot = compact(trace, min_trips=3, max_period=8)
        assert [op.trips for op in sot.ops] == [3, 6]

    def test_min_trips_validates(self):
        with pytest.raises(ValueError, match="min_trips"):
            compact(_stencil_trace(n=8), min_trips=1)

    def test_nested_cycle_finds_smallest_period(self):
        # body = [stmt0, stmt0, stmt1] x 12.  At min_trips=2 the
        # greedy smallest-p scan rightly collapses each stmt0 pair as
        # its own 2-trip p=1 op; at 4 those pairs no longer qualify
        # and the provable period is the full 3-statement body.
        builder = TraceBuilder(["x", "y"], [128, 128])
        for k in range(12):
            builder.record_read(1, 2 * k)
            builder.commit_instance(0, 0, 3 * k, False)
            builder.record_read(1, 2 * k + 1)
            builder.commit_instance(0, 0, 3 * k + 1, False)
            builder.commit_instance(1, 0, 3 * k + 2, False)
        trace = builder.freeze()
        sot = compact(trace, min_trips=4, max_period=8)
        assert len(sot.ops) == 1
        assert sot.ops[0].body_len == 3
        assert sot.ops[0].trips == 12
        assert sot.coverage == 1.0

        shallow = compact(trace, min_trips=2, max_period=8)
        assert all(op.body_len == 1 for op in shallow.ops)
        assert trace.identical(shallow.expand())

    def test_imperfect_tail_stays_residual(self):
        builder = TraceBuilder(["x", "y"], [64, 64])
        for k in range(10):
            builder.record_read(1, k)
            builder.commit_instance(0, 0, k, False)
        builder.record_read(1, 10)  # tail: read pattern continues...
        builder.commit_instance(0, 0, 63, False)  # ...write breaks it
        sot = compact(builder.freeze(), min_trips=2, max_period=4)
        assert len(sot.ops) == 1
        assert sot.ops[0].trips == 10
        assert sot.n_residual == 1

    def test_kernel_grid_compacts(self):
        """The paper's stencil-sweep kernels collapse nearly whole."""
        for name, n, floor in (
            ("hydro_fragment", 200, 0.99),
            ("first_diff", 200, 0.99),
            ("tri_diagonal", 200, 0.99),
            ("linear_recurrence", 100, 0.90),
        ):
            program, inputs = get_kernel(name).build(n=n)
            trace = kernel_trace(program, inputs)
            sot = compact(trace)
            assert sot.coverage >= floor, (name, sot.coverage)
            assert trace.identical(sot.expand())


class TestBackendDispatch:
    """Attached super-ops reroute the untimed backend invisibly and
    leave the timed backend's outcomes unchanged."""

    @pytest.fixture(scope="class")
    def stencil(self):
        program, inputs = get_kernel("hydro_fragment").build(n=300)
        return kernel_trace(program, inputs)

    @pytest.mark.parametrize("backend", ["untimed", "timed"])
    def test_outcomes_bit_identical(self, stencil, backend):
        config = MachineConfig(n_pes=8, page_size=16, cache_elems=64)
        scenario = Scenario(config=config, backend=backend)
        flat = evaluate_scenario(stencil, scenario)

        sot = compact(stencil)
        assert sot.ops, "stencil sweep must compact"
        stencil.attach_superops(sot)
        try:
            via_ops = evaluate_scenario(stencil, scenario)
        finally:
            stencil.attach_superops(None)
        assert np.array_equal(flat.stats.counts, via_ops.stats.counts)
        assert np.array_equal(flat.stats.by_array, via_ops.stats.by_array)
        for name, values in flat.per_pe.items():
            assert np.array_equal(values, via_ops.per_pe[name])
        for name, value in flat.metrics.items():
            if name == "vec_fallback_pes":
                continue  # engines count their fallbacks differently
            assert via_ops.metrics[name] == value, name
