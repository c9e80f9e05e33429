"""Campaign specs, the parallel executor, and result aggregation."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.bench import Sweep, kernel_trace
from repro.core import MachineConfig
from repro.engine import (
    CampaignSpec,
    KernelSpec,
    TraceStore,
    interpretation_count,
    kernel_trace_cached,
    run_campaign,
    run_grid,
)
from repro.kernels import get_kernel


def acceptance_spec() -> CampaignSpec:
    """2 kernels × 24 machine configurations (3 PEs × 2 ps × 2 caches ×
    2 partitions), the ISSUE's acceptance grid."""
    return CampaignSpec(
        name="acceptance",
        kernels=(
            KernelSpec("hydro_fragment", n=120),
            KernelSpec("first_diff", n=96),
        ),
        pes=(1, 2, 4),
        page_sizes=(16, 32),
        cache_elems=(0, 64),
        partitions=("modulo", "block"),
    )


class TestKernelSpec:
    def test_labels_unique_and_stable(self):
        assert KernelSpec("iccg").label == "iccg"
        assert KernelSpec("iccg", n=64).label == "iccg[n=64]"
        assert KernelSpec("iccg", n=64, seed=3).label == "iccg[n=64,seed=3]"

    def test_coerce_forms(self):
        assert KernelSpec.coerce("iccg") == KernelSpec("iccg")
        assert KernelSpec.coerce({"name": "iccg", "n": 8}) == KernelSpec(
            "iccg", n=8
        )
        with pytest.raises(ValueError, match="unknown kernel spec"):
            KernelSpec.coerce({"name": "iccg", "size": 8})


class TestCampaignSpec:
    def test_point_counts(self):
        spec = acceptance_spec()
        assert spec.n_configs == 24
        assert spec.n_points == 48
        assert len(list(spec.points())) == 48
        assert len(spec.configs()) == 24

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one kernel"):
            CampaignSpec(name="x", kernels=())
        with pytest.raises(ValueError, match="axis 'pes' is empty"):
            CampaignSpec(name="x", kernels=("iccg",), pes=())
        with pytest.raises(KeyError, match="unknown partition"):
            CampaignSpec(name="x", kernels=("iccg",), partitions=("zigzag",))
        with pytest.raises(ValueError, match="duplicate kernel"):
            CampaignSpec(name="x", kernels=("iccg", "iccg"))

    def test_json_round_trip(self):
        spec = acceptance_spec()
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_json_is_plain_data(self):
        data = json.loads(acceptance_spec().to_json())
        assert data["kernels"][0] == {"name": "hydro_fragment", "n": 120}
        assert data["partitions"] == ["modulo", "block"]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"\$: unknown key 'cpus'"):
            CampaignSpec.from_dict({"name": "x", "kernels": ["iccg"], "cpus": [1]})

    def test_from_dict_rejects_malformed_documents(self):
        """The schema gate runs inside ``from_dict``: a scalar where an
        array belongs is a named violation, not a ``TypeError``."""
        with pytest.raises(ValueError, match=r"\$\.pes: expected array"):
            CampaignSpec.from_dict({"kernels": ["iccg"], "pes": 4})

    def test_file_round_trip(self, tmp_path):
        spec = acceptance_spec()
        path = spec.save(tmp_path / "spec.json")
        assert CampaignSpec.load(path) == spec

    def test_subset(self):
        spec = acceptance_spec()
        sub = spec.subset(["first_diff"])
        assert [k.name for k in sub.kernels] == ["first_diff"]
        with pytest.raises(KeyError):
            spec.subset(["nonexistent"])


class TestRunGrid:
    def test_preserves_input_order(self, hydro_trace):
        configs = [
            MachineConfig(n_pes=p, page_size=ps, cache_elems=c)
            for p in (4, 1, 2)
            for ps in (32, 16)
            for c in (64, 0)
        ]
        results = run_grid(hydro_trace, configs)
        assert [r.config for r in results] == configs
        assert all(r.backend == "untimed" for r in results)

    def test_parallel_matches_serial(self, hydro_trace):
        configs = [
            MachineConfig(n_pes=p, page_size=32, cache_elems=c)
            for p in (1, 2, 4, 8)
            for c in (0, 64, 256)
        ]
        serial = run_grid(hydro_trace, configs)
        parallel = run_grid(hydro_trace, configs, parallel=True, workers=2)
        for a, b in zip(serial, parallel):
            assert a.identical(b)
            assert np.array_equal(a.stats.counts, b.stats.counts)
            assert np.array_equal(
                a.per_pe["page_fetches"], b.per_pe["page_fetches"]
            )

    def test_concurrent_parallel_grids_keep_their_own_traces(
        self, hydro_trace
    ):
        """Two pools in flight at once, each over a bare trace under the
        same label ``""``: every worker evaluates its own pool's trace."""
        program, inputs = get_kernel("first_diff").build(n=96)
        traces = [hydro_trace, kernel_trace(program, inputs)]
        configs = [
            MachineConfig(n_pes=p, page_size=16, cache_elems=c)
            for p in (1, 2, 4, 8)
            for c in (0, 64)
        ]
        barrier = threading.Barrier(len(traces))
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def drive(slot: int) -> None:
            try:
                barrier.wait(timeout=60)
                results[slot] = run_grid(
                    traces[slot], configs, parallel=True, workers=2
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(slot,))
            for slot in range(len(traces))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive()
        assert not errors
        for slot, trace in enumerate(traces):
            serial = run_grid(trace, configs)
            assert len(results[slot]) == len(serial)
            for a, b in zip(serial, results[slot]):
                assert a.identical(b)


class TestRunCampaign:
    def test_parallel_bit_identical_to_serial(self, tmp_path):
        """Acceptance: ≥2 kernels × ≥24 configurations, parallel ==
        serial counter for counter (caching disabled so both runs
        genuinely execute)."""
        spec = acceptance_spec()
        store = TraceStore(tmp_path / "store")
        serial = run_campaign(spec, store=store, parallel=False, use_cache=False)
        parallel = run_campaign(
            spec, store=store, parallel=True, workers=2, use_cache=False
        )
        assert serial.executor == "serial"
        assert parallel.executor.startswith("parallel[")
        assert len(serial) == len(parallel) == 48
        assert serial.identical(parallel)
        for a, b in zip(serial.records, parallel.records):
            assert a.kernel == b.kernel
            assert a.scenario == b.scenario
            assert np.array_equal(
                a.outcome.stats.counts, b.outcome.stats.counts
            )
            assert np.array_equal(
                a.outcome.stats.by_array, b.outcome.stats.by_array
            )
            assert np.array_equal(
                a.outcome.per_pe["page_fetches"],
                b.outcome.per_pe["page_fetches"],
            )
            assert np.array_equal(
                a.outcome.per_pe["distinct_pages_fetched"],
                b.outcome.per_pe["distinct_pages_fetched"],
            )

    def test_warm_store_runs_zero_interpretations(self, tmp_path):
        """Acceptance: a warm trace-store campaign never interprets."""
        spec = acceptance_spec()
        root = tmp_path / "store"
        run_campaign(spec, store=TraceStore(root), parallel=False)
        warm = TraceStore(root)  # cold memory, warm disk
        before = interpretation_count()
        result = run_campaign(spec, store=warm, parallel=False, use_cache=False)
        assert interpretation_count() == before
        assert warm.counters.disk_hits == len(spec.kernels)
        assert warm.counters.misses == 0
        assert len(result) == spec.n_points

    def test_records_follow_spec_order(self, tmp_path):
        spec = acceptance_spec()
        result = run_campaign(
            spec, store=TraceStore(tmp_path), parallel=False
        )
        expected = list(spec.points())
        for index, (record, (kernel, scenario)) in enumerate(
            zip(result.records, expected)
        ):
            assert record.kernel == kernel
            assert record.scenario == scenario
            assert record.index == index

    def test_trace_meta_recorded(self, tmp_path):
        result = run_campaign(
            acceptance_spec(), store=TraceStore(tmp_path), parallel=False
        )
        meta = result.trace_meta["hydro_fragment[n=120]"]
        assert meta["n_instances"] > 0
        assert meta["n_reads"] > 0

    def test_matches_sweep(self, tmp_path):
        """The engine agrees with the historical Sweep path exactly."""
        store = TraceStore(tmp_path)
        spec = CampaignSpec(
            name="vs-sweep",
            kernels=(KernelSpec("first_diff", n=96),),
            pes=(1, 2, 4),
            page_sizes=(16, 32),
            cache_elems=(64, 0),
        )
        result = run_campaign(spec, store=store, parallel=False)
        trace = kernel_trace_cached("first_diff", n=96, store=store)
        sweep = Sweep.run(
            "first_diff",
            trace,
            pes=(1, 2, 4),
            page_sizes=(16, 32),
            caches=(64, 0),
        )
        engine_sweep = Sweep.from_campaign(result, "first_diff")
        assert engine_sweep.series() == sweep.series()


class TestCampaignResult:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        store = TraceStore(tmp_path_factory.mktemp("result-store"))
        return run_campaign(acceptance_spec(), store=store, parallel=False)

    def test_select_and_find(self, result):
        subset = result.select(kernel="first_diff", page_size=16)
        assert len(subset) == 12
        record = result.find(
            kernel="hydro_fragment",
            n_pes=4,
            page_size=32,
            cache_elems=64,
            partition="block",
        )
        assert record.config.n_pes == 4
        with pytest.raises(KeyError):
            result.find(kernel="first_diff")  # ambiguous

    def test_kernels_listing(self, result):
        assert result.kernels() == ["hydro_fragment[n=120]", "first_diff[n=96]"]

    def test_json_export(self, result, tmp_path):
        data = json.loads(result.to_json())
        assert data["campaign"]["name"] == "acceptance"
        assert data["backend"] == "untimed"
        assert len(data["results"]) == 48
        row = data["results"][0]
        for column in (
            "kernel",
            "backend",
            "n_pes",
            "page_size",
            "cache_elems",
            "partition",
            "remote_read_pct",
            "writes",
            "page_fetches",
        ):
            assert column in row
        assert row["backend"] == "untimed"
        path = result.save_json(tmp_path / "out.json")
        assert json.loads(path.read_text()) == data

    def test_identical_rejects_differences(self, result, tmp_path):
        other = run_campaign(
            acceptance_spec(),
            store=TraceStore(tmp_path / "fresh"),
            parallel=False,
        )
        assert result.identical(other)
        truncated = type(other)(spec=other.spec, records=other.records[:-1])
        assert not result.identical(truncated)

    def test_rows_rendering_shape(self, result):
        headers, rows = result.rows("first_diff")
        assert headers[0] == "kernel"
        assert len(rows) == 24


class TestCLICampaign:
    def test_sweep_cli_still_works_single_kernel(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep", "first_diff", "--n", "96",
                    "--pes", "1", "2", "--page-sizes", "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "No Cache, ps 16" in out

    def test_sweep_cli_campaign_file_json_out(self, capsys, tmp_path):
        from repro.cli import main

        spec = CampaignSpec(
            name="cli-campaign",
            kernels=(KernelSpec("first_diff", n=96),),
            pes=(1, 2),
            page_sizes=(16,),
            cache_elems=(64, 0),
            partitions=("modulo", "block"),
        )
        spec_path = spec.save(tmp_path / "spec.json")
        out_path = tmp_path / "out.json"
        assert (
            main(
                [
                    "sweep",
                    "--campaign", str(spec_path),
                    "--json", str(out_path),
                    "--parallel", "--workers", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign records" in out  # multi-partition → record table
        data = json.loads(out_path.read_text())
        assert data["campaign"]["name"] == "cli-campaign"
        assert len(data["results"]) == spec.n_points

    def test_sweep_cli_needs_kernel_or_campaign(self, capsys):
        from repro.cli import main

        assert main(["sweep"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_cli_missing_campaign_file(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["sweep", "--campaign", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err
