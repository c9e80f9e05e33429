"""Generative differential fidelity: ``simulate_vec`` vs ``simulate``.

The columnar replay engine behind the ``untimed`` backend earns its
place by being indistinguishable from the scalar oracle,
:func:`repro.core.simulator.simulate`, on *every counter it is
allowed to report*: the four access categories (per PE and per
array), page fetches and distinct fetched pages, per PE.  This suite
holds it to that contract generatively — hypothesis draws whole
synthetic traces and machine configurations from
``tests/strategies.py`` (kernels x cache policies x partitions x
reduction strategies, istructure-style future reads included) — plus
a grid of real paper kernels, the backend-level outcome comparison
against the oracle, and the unsupported-scenario backstops.

The nightly ``vec-fuzz`` CI job re-runs it under the ``ci-deep``
hypothesis profile (see ``tests/conftest.py``).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    Scenario,
    UnsupportedScenarioError,
    evaluate_scenario,
    get_backend,
)
from repro.bench import kernel_trace
from repro.cache import make_cache
from repro.core import MachineConfig, named_scheme, simulate, simulate_vec
from repro.core.vec_simulator import (
    _count_misses_scalar,
    _count_misses_vec,
    _fifo_fixed_point,
)
from repro.ir import TraceBuilder
from repro.kernels import get_kernel
from strategies import CACHE_POLICIES, machine_configs, scenarios, traces

# Local floor of 200 generated examples; the nightly ci-deep profile
# raises settings.default.max_examples past it (profiles load before
# test modules import, so this picks the active profile up).
_EXAMPLES = max(200, settings.default.max_examples)


def assert_identical(scalar, vec) -> None:
    """Bit-exact equality of everything a SimResult reports."""
    assert np.array_equal(scalar.stats.counts, vec.stats.counts)
    assert np.array_equal(scalar.stats.by_array, vec.stats.by_array)
    assert np.array_equal(scalar.page_fetches, vec.page_fetches)
    assert np.array_equal(
        scalar.distinct_pages_fetched, vec.distinct_pages_fetched
    )


class TestGenerativeFidelity:
    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(trace=traces(), config=machine_configs())
    def test_counters_bit_identical(self, trace, config):
        """The headline property: any trace, any configuration."""
        assert_identical(simulate(trace, config), simulate_vec(trace, config))

    @settings(max_examples=60, deadline=None)
    @given(trace=traces(), scenario=scenarios())
    def test_backend_outcomes_bit_identical(self, trace, scenario):
        """Same property one layer up: the ``untimed`` backend, through
        the registry, against the oracle — stats, per-PE arrays and the
        shared metric columns all agree."""
        oracle = simulate(trace, scenario.config)
        outcome = evaluate_scenario(trace, scenario)
        assert np.array_equal(oracle.stats.counts, outcome.stats.counts)
        assert np.array_equal(oracle.stats.by_array, outcome.stats.by_array)
        for name in ("page_fetches", "distinct_pages_fetched"):
            values = getattr(oracle, name)
            assert np.array_equal(values, outcome.per_pe[name])
            assert outcome.metrics[name] == float(values.sum())
        assert "vec_fallback_pes" in outcome.metrics


KERNELS = (
    ("hydro_fragment", 120),
    ("first_diff", 120),
    ("inner_product", 120),
    ("pic_1d_fragment", 120),
    ("hydro_2d", 80),
    ("iccg", 32),
)


@pytest.fixture(scope="module")
def kernel_traces():
    out = {}
    for name, n in KERNELS:
        program, inputs = get_kernel(name).build(n=n)
        out[name] = kernel_trace(program, inputs)
    return out


class TestKernelGrid:
    """Real paper kernels across the policy/partition/strategy grid."""

    @pytest.mark.parametrize("policy", CACHE_POLICIES)
    @pytest.mark.parametrize("name", [k for k, _ in KERNELS])
    def test_kernels_bit_identical(self, kernel_traces, name, policy):
        trace = kernel_traces[name]
        for pes, cache, partition, strategy in itertools.product(
            (1, 4, 7), (0, 64, 256), ("modulo", "block-cyclic:2"),
            ("host", "subrange"),
        ):
            config = MachineConfig(
                n_pes=pes,
                page_size=16,
                cache_elems=cache,
                cache_policy=policy,
                partition=named_scheme(partition),
                reduction_strategy=strategy,
            )
            assert_identical(
                simulate(trace, config), simulate_vec(trace, config)
            )


def _thrashing_trace(page_size: int = 4):
    """Two full sweeps over the odd (nonlocal-to-PE-0) pages of one
    array: with a 2-page cache every revisit's window exceeds the
    capacity.  LRU decides by stack distance, FIFO by the
    eviction-epoch fixed point (pure thrash converges in one round);
    only the seeded-random policy must take the scalar fallback."""
    builder = TraceBuilder(["W", "X"], [page_size, 16 * page_size])
    for _ in range(2):
        for page in range(1, 16, 2):
            builder.record_read(1, page * page_size)
            builder.commit_instance(0, 0, 0, True)
    return builder.freeze()


class TestFallbackPaths:
    """The order-dependent spans really do take the scalar path —
    and still match it bit for bit."""

    @pytest.mark.parametrize("policy", CACHE_POLICIES)
    def test_thrashing_trace_identical(self, policy):
        trace = _thrashing_trace()
        config = MachineConfig(
            n_pes=2, page_size=4, cache_elems=8, cache_policy=policy
        )
        telemetry: dict[str, int] = {}
        assert_identical(
            simulate(trace, config),
            simulate_vec(trace, config, telemetry),
        )
        if policy == "random":  # the seeded RNG must replay in order
            assert telemetry["fallback_pes"] == 1
            assert telemetry["vectorised_pes"] == 0
        else:  # lru by stack distance, fifo by eviction epochs,
            # direct by slot hash — all closed-form
            assert telemetry["fallback_pes"] == 0
            assert telemetry["vectorised_pes"] == 1

    def test_trace_columnar_view_is_memoised(self):
        trace = _thrashing_trace()
        assert trace.columnar() is trace.columnar()
        assert trace.columnar().r_instance.shape == (trace.n_reads,)

    def test_empty_trace(self):
        trace = TraceBuilder(["A"], [8]).freeze()
        config = MachineConfig(n_pes=4, page_size=4)
        assert_identical(simulate(trace, config), simulate_vec(trace, config))


def _rle(keys: np.ndarray) -> np.ndarray:
    """Collapse equal-adjacent keys, as the replay engine does before
    handing run sequences to the miss counters."""
    change = np.empty(keys.size, dtype=bool)
    change[0] = True
    change[1:] = keys[1:] != keys[:-1]
    return keys[change]


class TestBatchedLruWindows:
    """The batched per-window distinct counts (which replaced a
    per-window ``np.unique`` Python loop that dominated short-trace
    replays with many modest windows — the hydro_2d small-n
    regression) must agree with the scalar cache replay exactly."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 12), min_size=1, max_size=300),
        capacity=st.integers(1, 8),
    )
    def test_window_counts_match_scalar(self, keys, capacity):
        run_keys = _rle(np.asarray(keys, dtype=np.int64))
        arrs = np.zeros_like(run_keys)
        misses, distinct = _count_misses_vec(
            run_keys, arrs, run_keys, "lru", capacity
        )
        assert distinct == np.unique(run_keys).size
        if misses is None:  # over budget: scalar replay, covered above
            return
        assert misses == _count_misses_scalar(
            arrs, run_keys, "lru", capacity
        )

    def test_window_heavy_sequence_stays_vectorised(self):
        """The regressing shape: thousands of undecided windows, each
        a handful of keys long.  The batched pass must decide them
        (no wholesale fallback) and match the scalar count."""
        rng = np.random.default_rng(7)
        run_keys = _rle(rng.integers(0, 10, size=4000))
        arrs = np.zeros_like(run_keys)
        capacity = 4
        misses, _ = _count_misses_vec(
            run_keys, arrs, run_keys, "lru", capacity
        )
        assert misses is not None
        assert misses == _count_misses_scalar(
            arrs, run_keys, "lru", capacity
        )

    def test_hydro_2d_bench_case_is_vectorised(self):
        """The BENCH_vec.json near-parity case: every PE's LRU walk
        must take the columnar path, bit-identically."""
        program, inputs = get_kernel("hydro_2d").build(n=40)
        trace = kernel_trace(program, inputs)
        config = MachineConfig(
            n_pes=16, page_size=32, cache_elems=256, cache_policy="lru"
        )
        telemetry: dict[str, int] = {}
        assert_identical(
            simulate(trace, config),
            simulate_vec(trace, config, telemetry),
        )
        assert telemetry["fallback_pes"] == 0
        assert telemetry["vectorised_pes"] > 0


class TestFifoFixedPoint:
    """The FIFO eviction-epoch fixed point is exact whenever it
    converges — any fixed point of the rule equals the true
    simulation (uniqueness by induction on position), so these
    properties hold by construction; what they actually guard is the
    plumbing around the iteration."""

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 12), min_size=1, max_size=300),
        capacity=st.integers(1, 8),
    )
    def test_fixed_point_matches_scalar(self, keys, capacity):
        run_keys = _rle(np.asarray(keys, dtype=np.int64))
        solved = _fifo_fixed_point(run_keys, capacity)
        if solved is None:  # budget exhausted: honest scalar fallback
            return
        miss, admit = solved
        cache = make_cache("fifo", capacity)
        truth = np.array(
            [not cache.access((0, int(k))) for k in run_keys.tolist()]
        )
        assert np.array_equal(miss, truth)
        # Inclusive admission epochs are consistent with the mask:
        # a miss is admitted at its own fill count.
        fills = np.cumsum(miss) - miss
        assert np.array_equal(admit[miss], fills[miss])

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(
        parts=st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=80),
            min_size=1,
            max_size=4,
        ),
        capacity=st.integers(1, 6),
    )
    def test_segmented_streams_are_independent(self, parts, capacity):
        """One call over concatenated segments equals per-segment
        simulation from a cold cache each — segments never leak."""
        runs = [_rle(np.asarray(p, dtype=np.int64)) for p in parts]
        keys = np.concatenate(runs)
        seg = np.concatenate(
            [np.full(r.size, i, dtype=np.int64) for i, r in enumerate(runs)]
        )
        solved = _fifo_fixed_point(keys, capacity, seg=seg)
        if solved is None:
            return
        truth = []
        for r in runs:
            cache = make_cache("fifo", capacity)
            truth.extend(not cache.access((0, int(k))) for k in r.tolist())
        assert np.array_equal(solved[0], np.asarray(truth))

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 20), min_size=1, max_size=300),
        capacity=st.integers(1, 8),
    )
    def test_count_misses_vec_fifo_matches_scalar(self, keys, capacity):
        run_keys = _rle(np.asarray(keys, dtype=np.int64))
        arrs = np.zeros_like(run_keys)
        misses, distinct = _count_misses_vec(
            run_keys, arrs, run_keys, "fifo", capacity
        )
        assert distinct == np.unique(run_keys).size
        if misses is None:  # non-convergent within budget
            return
        assert misses == _count_misses_scalar(
            arrs, run_keys, "fifo", capacity
        )

    def test_over_capacity_thrash_converges_fast(self):
        """The bench shape: heavy over-capacity streams stabilise in
        a couple of rounds, so the closed form (not the fallback)
        must carry them."""
        rng = np.random.default_rng(11)
        run_keys = _rle(rng.integers(0, 50, size=5000).astype(np.int64))
        arrs = np.zeros_like(run_keys)
        misses, _ = _count_misses_vec(run_keys, arrs, run_keys, "fifo", 4)
        assert misses is not None
        assert misses == _count_misses_scalar(arrs, run_keys, "fifo", 4)

    def test_fifo_bench_case_is_vectorised(self):
        """The BENCH_vec.json FIFO row: every PE must take the
        columnar path now (`vec_fallback_pes == 0`), bit-identically
        — the acceptance criterion of the fast-path widening."""
        program, inputs = get_kernel("inner_product").build(n=4000)
        trace = kernel_trace(program, inputs)
        config = MachineConfig(
            n_pes=8, page_size=32, cache_elems=64, cache_policy="fifo"
        )
        telemetry: dict[str, int] = {}
        assert_identical(
            simulate(trace, config),
            simulate_vec(trace, config, telemetry),
        )
        assert telemetry["fallback_pes"] == 0
        assert telemetry["vectorised_pes"] > 0


class TestBackendEnvelope:
    def test_registered_with_schema(self):
        backend = get_backend("untimed")
        assert backend.supported_reductions == ("host", "subrange")
        assert "vec_fallback_pes" in backend.result_schema
        assert backend.scenario_axes == ()

    def test_unknown_cache_policy_is_unsupported(self, hydro_trace):
        config = MachineConfig(n_pes=4, page_size=32, cache_elems=64)
        object.__setattr__(config, "cache_policy", "plru")
        with pytest.raises(UnsupportedScenarioError, match="plru"):
            evaluate_scenario(hydro_trace, Scenario(config=config))

    def test_smuggled_reduction_strategy_is_unsupported(self, hydro_trace):
        config = MachineConfig(n_pes=4, page_size=32)
        object.__setattr__(config, "reduction_strategy", "tree")
        with pytest.raises(UnsupportedScenarioError, match="'untimed'"):
            evaluate_scenario(hydro_trace, Scenario(config=config))

    def test_profile_adds_vec_phase_columns(self, hydro_trace, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        # The random policy is the one remaining order-dependent
        # fallback (FIFO now solves in closed form), so it is what
        # exercises the fallback_scalar phase column.
        config = MachineConfig(
            n_pes=2, page_size=4, cache_elems=8, cache_policy="random"
        )
        outcome = evaluate_scenario(
            _thrashing_trace(), Scenario(config=config)
        )
        assert "profile_classify_vec_s" in outcome.metrics
        assert "profile_cache_sim_vec_s" in outcome.metrics
        assert "profile_fallback_scalar_s" in outcome.metrics
        assert outcome.metrics["vec_fallback_pes"] == 1.0
