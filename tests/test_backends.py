"""The evaluation API: scenarios, the registry, and the two backends."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro.backends import (
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
from repro.backends.base import _REGISTRY
from repro.core import MachineConfig, simulate
from repro.engine import CampaignSpec, KernelSpec, TraceStore, run_campaign


def config(**kwargs) -> MachineConfig:
    base = dict(n_pes=4, page_size=32, cache_elems=64)
    base.update(kwargs)
    return MachineConfig(**base)


class TestRegistry:
    def test_builtins_registered(self):
        assert backend_names() == ("timed", "untimed")
        assert get_backend("untimed").name == "untimed"
        assert get_backend("timed").scenario_axes == (
            "topologies",
            "modes",
            "cost_models",
        )

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("quantum")

    def test_untimed_vec_is_a_spelling_of_untimed(self):
        assert get_backend("untimed-vec") is get_backend("untimed")
        assert canonical_backend("untimed-vec") == "untimed"
        assert canonical_backend("quantum") == "quantum"

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend("untimed"))

    def test_register_custom_backend(self, hydro_trace):
        class Doubler:
            name = "doubler"
            # A custom axis name outside the built-in map must not
            # break record rendering/export.
            scenario_axes: tuple[str, ...] = ("fanouts",)
            result_schema = ("doubled",)
            table_metrics = ("doubled",)

            def evaluate(self, trace, scenario):
                inner = get_backend("untimed").evaluate(trace, scenario)
                return EvalOutcome(
                    backend=self.name,
                    scenario=scenario,
                    stats=inner.stats,
                    metrics={"doubled": 2 * inner.metrics["page_fetches"]},
                )

        register_backend(Doubler())
        try:
            scenario = Scenario(config=config(), backend="doubler")
            outcome = evaluate_scenario(hydro_trace, scenario)
            untimed = evaluate_scenario(
                hydro_trace, Scenario(config=config())
            )
            assert outcome.metrics["doubled"] == (
                2 * untimed.metrics["page_fetches"]
            )
            from repro.engine import EvalRecord

            record = EvalRecord(
                kernel=KernelSpec("hydro_fragment", n=200),
                outcome=outcome,
                index=0,
            )
            row = record.to_dict()
            assert row["backend"] == "doubler"
            assert row["doubled"] == outcome.metrics["doubled"]
        finally:
            del _REGISTRY["doubler"]


class _Instant:
    """A backend that does no work, so a stress test counts quickly."""

    name = "instant"
    scenario_axes: tuple[str, ...] = ()
    result_schema: tuple[str, ...] = ()
    table_metrics: tuple[str, ...] = ()

    def evaluate(self, trace, scenario):
        return None


def test_concurrent_counting_loses_no_evaluation(hydro_trace):
    """Pool outcomes are counted on some threads (the fork pool's
    result loop, the service's pool callbacks) while other threads
    evaluate: with thread switches forced every microsecond, every
    count lands."""
    register_backend(_Instant())
    scenario = Scenario(config=config(), backend=_Instant.name)
    per_thread, switch = 5_000, sys.getswitchinterval()

    def record() -> None:
        for _ in range(per_thread):
            record_evaluations(1)

    def evaluate() -> None:
        for _ in range(per_thread):
            evaluate_scenario(hydro_trace, scenario)

    threads = [
        threading.Thread(target=target)
        for target in (record, evaluate) * 4
    ]
    before = evaluation_count()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(switch)
        del _REGISTRY[_Instant.name]
    assert not any(thread.is_alive() for thread in threads)
    assert evaluation_count() - before == len(threads) * per_thread


class TestCostModels:
    def test_presets(self):
        assert "default" in cost_model_names()
        assert cost_model("fast-network").per_hop < cost_model("default").per_hop
        assert cost_model("slow-network").per_hop > cost_model("default").per_hop

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown cost model"):
            cost_model("wormhole")


class TestScenario:
    def test_defaults_are_untimed_vec(self):
        """The default backend is ``untimed``: the columnar engine."""
        s = Scenario(config=config())
        assert s.backend == "untimed"
        assert s.topology == "crossbar"
        assert s.label().startswith("untimed ")
        assert "vec_fallback_pes" in get_backend(s.backend).result_schema
        assert Scenario.from_dict({"config": config().to_dict()}) == s

    def test_backend_alias_canonicalised(self):
        a = Scenario(config=config(), backend="untimed-vec")
        b = Scenario(config=config(), backend="untimed")
        assert a == b
        assert a.digest == b.digest
        assert a.to_dict()["backend"] == "untimed"

    def test_topology_alias_canonicalised(self):
        a = Scenario(config=config(), backend="timed", topology="mesh")
        b = Scenario(config=config(), backend="timed", topology="mesh2d")
        assert a == b
        assert a.digest == b.digest

    def test_validation(self):
        with pytest.raises(KeyError, match="unknown topology"):
            Scenario(config=config(), topology="zigzag")
        with pytest.raises(ValueError, match="unknown mode"):
            Scenario(config=config(), mode="speculative")
        with pytest.raises(KeyError, match="unknown cost model"):
            Scenario(config=config(), cost_model="wormhole")
        with pytest.raises(ValueError, match="max_outstanding"):
            Scenario(config=config(), max_outstanding=0)

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(config=config()),
            Scenario(
                config=config(cache_policy="fifo"),
                backend="timed",
                topology="torus",
                mode="multithreaded",
                cost_model="slow-network",
                max_outstanding=8,
            ),
        ],
    )
    def test_json_round_trip(self, scenario):
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario
        assert again.digest == scenario.digest

    def test_round_trip_preserves_partition_scheme(self):
        from repro.core import BlockCyclicPartition

        s = Scenario(
            config=config(partition=BlockCyclicPartition(block=4)),
            backend="timed",
        )
        again = Scenario.from_json(s.to_json())
        assert again == s
        assert again.config.partition.label == "block-cyclic:4"

    def test_digest_distinguishes_knobs(self):
        base = Scenario(config=config(), backend="timed")
        assert base.digest != Scenario(
            config=config(), backend="timed", topology="ring"
        ).digest
        assert base.digest != Scenario(
            config=config(), backend="timed", cost_model="fast-network"
        ).digest

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            Scenario.from_dict({"config": config().to_dict(), "speed": 3})


class TestMachineConfigLabel:
    def test_default_label_is_stable(self):
        assert config(cache_elems=256).label() == "pes=4 ps=32 cache=256 modulo"
        assert config(cache_elems=0).label() == "pes=4 ps=32 no-cache modulo"

    def test_policy_and_reduction_disambiguate(self):
        fifo = config(cache_policy="fifo")
        lru = config(cache_policy="lru")
        assert fifo.label() != lru.label()
        assert "policy=fifo" in fifo.label()
        sub = config(reduction_strategy="subrange")
        assert sub.label() != config().label()
        assert "red=subrange" in sub.label()

    def test_block_cyclic_parameter_in_label(self):
        from repro.core import BlockCyclicPartition

        two = config(partition=BlockCyclicPartition(block=2))
        four = config(partition=BlockCyclicPartition(block=4))
        assert two.label() != four.label()

    def test_config_dict_round_trip(self):
        from repro.core import BlockCyclicPartition

        cfg = config(
            cache_policy="fifo",
            partition=BlockCyclicPartition(block=3),
            reduction_strategy="subrange",
        )
        assert MachineConfig.from_dict(cfg.to_dict()) == cfg


class TestUntimedBackend:
    def test_matches_simulate_exactly(self, hydro_trace):
        cfg = config(cache_elems=256)
        direct = simulate(hydro_trace, cfg)
        outcome = evaluate_scenario(hydro_trace, Scenario(config=cfg))
        assert np.array_equal(outcome.stats.counts, direct.stats.counts)
        assert np.array_equal(
            outcome.per_pe["page_fetches"], direct.page_fetches
        )
        assert outcome.metrics["page_fetches"] == float(
            direct.page_fetches.sum()
        )


class TestTimedBackend:
    def test_metrics_schema(self, hydro_trace):
        scenario = Scenario(config=config(), backend="timed")
        outcome = evaluate_scenario(hydro_trace, scenario)
        assert set(get_backend("timed").result_schema) == set(outcome.metrics)
        assert outcome.metrics["finish_time"] > 0
        assert outcome.metrics["speedup"] > 0

    def test_models_subrange_reductions(self, hydro_trace):
        """The timed machine replays every strategy the untimed
        simulator accepts — subrange included."""
        scenario = Scenario(
            config=config(reduction_strategy="subrange"), backend="timed"
        )
        outcome = evaluate_scenario(hydro_trace, scenario)
        assert outcome.metrics["finish_time"] > 0

    @pytest.mark.parametrize("mode", ["blocking", "multithreaded"])
    def test_counters_bit_identical_to_untimed_without_cache(
        self, hydro_trace, mode
    ):
        """Same partitioning rules, same counters: with the cache off,
        every non-local read is remote in both models, so the timed
        backend's AccessStats must equal the untimed backend's bit for
        bit (with a cache the timed model's partial-page refetches are
        timing-dependent and the counters legitimately diverge)."""
        cfg = config(cache_elems=0)
        untimed = evaluate_scenario(hydro_trace, Scenario(config=cfg))
        timed = evaluate_scenario(
            hydro_trace, Scenario(config=cfg, backend="timed", mode=mode)
        )
        # counts is the per-PE x per-kind matrix — the paper's counters.
        # (by_array is a diagnostic only the timed model's scalar path
        # fills in; the untimed simulator's vectorised adds skip it.)
        assert np.array_equal(untimed.stats.counts, timed.stats.counts)

    def test_cached_counters_conserve_read_totals(self, hydro_trace):
        """With a cache the split cached/remote may differ, but writes,
        local reads and the total read count are structural."""
        cfg = config(cache_elems=256)
        untimed = evaluate_scenario(hydro_trace, Scenario(config=cfg))
        timed = evaluate_scenario(
            hydro_trace,
            Scenario(config=cfg, backend="timed", mode="multithreaded"),
        )
        assert untimed.stats.writes == timed.stats.writes
        assert untimed.stats.local_reads == timed.stats.local_reads
        assert untimed.stats.total_reads == timed.stats.total_reads


def timed_spec() -> CampaignSpec:
    return CampaignSpec(
        name="timed-acceptance",
        backend="timed",
        kernels=(KernelSpec("hydro_fragment", n=120),),
        pes=(2, 4),
        page_sizes=(32,),
        cache_elems=(64, 0),
        topologies=("mesh", "torus"),
        modes=("blocking", "multithreaded"),
    )


class TestCampaignBackendAxes:
    def test_spec_round_trip_with_backend_axes(self):
        spec = timed_spec()
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        data = json.loads(spec.to_json())
        assert data["backend"] == "timed"
        assert data["topologies"] == ["mesh2d", "torus2d"]  # canonicalised
        assert data["modes"] == ["blocking", "multithreaded"]

    def test_axis_counts_include_backend_axes(self):
        spec = timed_spec()
        assert spec.n_configs == 2 * 1 * 2 * 2 * 2  # pes*ps*cache*topo*mode
        assert spec.n_points == spec.n_configs
        scenarios = spec.scenarios()
        assert len(scenarios) == spec.n_configs
        assert all(s.backend == "timed" for s in scenarios)

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            CampaignSpec(name="x", kernels=("iccg",), backend="quantum")

    def test_untimed_rejects_backend_axis_sweep(self):
        with pytest.raises(ValueError, match="not used by backend"):
            CampaignSpec(
                name="x",
                kernels=("iccg",),
                topologies=("mesh2d", "ring"),
            )

    def test_untimed_rejects_nondefault_backend_knob(self):
        """A single non-default value on an unconsumed axis is also an
        error — it would taint labels and result-cache keys with a
        knob that never reaches the evaluator."""
        with pytest.raises(ValueError, match="not used by backend"):
            CampaignSpec(name="x", kernels=("iccg",), topologies=("mesh",))
        with pytest.raises(ValueError, match="not used by backend"):
            CampaignSpec(
                name="x", kernels=("iccg",), cost_models=("slow-network",)
            )
        with pytest.raises(ValueError, match="max_outstanding"):
            CampaignSpec(name="x", kernels=("iccg",), max_outstanding=9)

    def test_scenario_label_spells_out_max_outstanding(self):
        four = Scenario(config=config(), backend="timed", mode="multithreaded")
        eight = Scenario(
            config=config(), backend="timed", mode="multithreaded",
            max_outstanding=8,
        )
        assert four.label() != eight.label()
        assert "out=8" in eight.label()

    def test_find_by_max_outstanding(self, tmp_path):
        spec = CampaignSpec(
            name="outstanding",
            backend="timed",
            kernels=(KernelSpec("hydro_fragment", n=120),),
            pes=(2,),
            page_sizes=(32,),
            cache_elems=(64,),
            modes=("multithreaded",),
            max_outstanding=8,
        )
        result = run_campaign(spec, store=TraceStore(tmp_path), parallel=False)
        record = result.find(max_outstanding=8)
        assert record.scenario.max_outstanding == 8
        assert result.select(max_outstanding=4) == []

    def test_timed_accepts_subrange_reductions(self):
        """Both built-in evaluators model both strategies, so the full
        reduction axis sweeps on the timed backend too; the spec
        refuses any other strategy when it is built."""
        spec = CampaignSpec(
            name="x", kernels=("iccg",), backend="timed",
            reduction_strategies=("host", "subrange"),
        )
        assert spec.n_configs == 2 * len(spec.pes) * 4
        CampaignSpec(
            name="x", kernels=("iccg",),
            reduction_strategies=("host", "subrange"),
        )
        with pytest.raises(ValueError, match="unknown reduction strategy"):
            CampaignSpec(
                name="x", kernels=("iccg",), backend="timed",
                reduction_strategies=("host", "tree"),
            )

    @pytest.mark.parametrize("backend", ["untimed", "timed"])
    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("cache_policies", "lur", "unknown cache policy 'lur'"),
            ("reduction_strategies", "tree", "unknown reduction strategy"),
        ],
    )
    def test_unknown_machine_knobs_refused_at_construction(
        self, backend, axis, value, message
    ):
        """A typo fails when the spec is built, before any trace is
        acquired, whichever backend would have evaluated it."""
        with pytest.raises(ValueError, match=message):
            CampaignSpec(
                name="x", kernels=("iccg",), backend=backend,
                **{axis: (value,)},
            )

    def test_bad_axis_values_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            CampaignSpec(
                name="x", kernels=("iccg",), backend="timed",
                modes=("speculative",),
            )
        with pytest.raises(KeyError, match="unknown cost model"):
            CampaignSpec(
                name="x", kernels=("iccg",), backend="timed",
                cost_models=("wormhole",),
            )

    def test_timed_campaign_parallel_bit_identical_to_serial(self, tmp_path):
        """Acceptance: the serial run of a timed campaign is
        bit-identical record for record to the parallel run."""
        spec = timed_spec()
        store = TraceStore(tmp_path / "store")
        serial = run_campaign(spec, store=store, parallel=False, use_cache=False)
        parallel = run_campaign(
            spec, store=store, parallel=True, workers=2, use_cache=False
        )
        assert len(serial) == len(parallel) == spec.n_points
        assert serial.identical(parallel)
        for a, b in zip(serial.records, parallel.records):
            assert a.backend == "timed"
            assert a.metrics == b.metrics
            assert np.array_equal(
                a.outcome.per_pe["finish"], b.outcome.per_pe["finish"]
            )

    def test_timed_records_are_backend_tagged(self, tmp_path):
        spec = timed_spec()
        result = run_campaign(
            spec, store=TraceStore(tmp_path), parallel=False
        )
        row = result.records[0].to_dict()
        assert row["backend"] == "timed"
        assert {"topology", "mode", "cost_model", "finish_time", "speedup"} <= set(row)
        assert result.select(topology="mesh2d", mode="blocking")
        headers, rows = result.rows()
        assert "topology" in headers and "speedup" in headers
