"""Trace-driven simulator: access categorisation under §2's rules.

Several tests pin the simulator against *closed-form* expectations:
for Hydro Fragment (skew 11/12, page size 32) the per-page boundary
arithmetic predicts exactly which reads are remote.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import kernel_trace
from repro.core import (
    AccessKind,
    BlockPartition,
    MachineConfig,
    ModuloPartition,
    simulate,
    simulate_program,
)
from repro.kernels import get_kernel


class TestMachineConfig:
    def test_cache_pages_derived(self):
        cfg = MachineConfig(n_pes=4, page_size=32, cache_elems=256)
        assert cfg.cache_pages == 8
        assert cfg.has_cache

    def test_cache_smaller_than_page_disables(self):
        cfg = MachineConfig(n_pes=4, page_size=512, cache_elems=256)
        assert cfg.cache_pages == 0
        assert not cfg.has_cache

    def test_without_cache(self):
        cfg = MachineConfig(n_pes=4, page_size=32).without_cache()
        assert not cfg.has_cache

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(n_pes=0, page_size=32)
        with pytest.raises(ValueError):
            MachineConfig(n_pes=1, page_size=0)
        with pytest.raises(ValueError):
            MachineConfig(n_pes=1, page_size=32, cache_elems=-1)

    @pytest.mark.parametrize("cache_elems", [64, 0])
    def test_unknown_cache_policy_refused_with_the_cache_on_or_off(
        self, cache_elems
    ):
        """A misspelt policy fails here, not deep inside a replay — and
        not silently with the cache off, where it would still change
        the config's digest."""
        with pytest.raises(ValueError, match="unknown cache policy 'lur'"):
            MachineConfig(
                n_pes=4, page_size=32, cache_elems=cache_elems,
                cache_policy="lur",
            )

    def test_label(self):
        assert "pes=4" in MachineConfig(n_pes=4, page_size=32).label()


class TestBasicInvariants:
    def test_single_pe_all_local(self, hydro_trace):
        result = simulate(hydro_trace, MachineConfig(n_pes=1, page_size=32))
        assert result.stats.remote_reads == 0
        assert result.stats.cached_reads == 0
        assert result.stats.local_reads == hydro_trace.n_reads

    def test_read_total_conserved(self, hydro_trace):
        for pes in (1, 3, 4, 7, 16):
            for cache in (0, 256):
                result = simulate(
                    hydro_trace,
                    MachineConfig(n_pes=pes, page_size=32, cache_elems=cache),
                )
                assert result.stats.total_reads == hydro_trace.n_reads
                assert result.stats.writes == hydro_trace.n_instances

    def test_no_cache_means_no_cached_reads(self, hydro_trace):
        result = simulate(
            hydro_trace, MachineConfig(n_pes=4, page_size=32, cache_elems=0)
        )
        assert result.stats.cached_reads == 0

    def test_cache_only_converts_remote_to_cached(self, hydro_trace):
        cfg = MachineConfig(n_pes=4, page_size=32, cache_elems=256)
        with_cache = simulate(hydro_trace, cfg)
        without = simulate(hydro_trace, cfg.without_cache())
        # Local reads are identical; cached + remote equals old remote.
        assert with_cache.stats.local_reads == without.stats.local_reads
        assert (
            with_cache.stats.cached_reads + with_cache.stats.remote_reads
            == without.stats.remote_reads
        )

    def test_writes_always_local(self, hydro_trace):
        result = simulate(hydro_trace, MachineConfig(n_pes=8, page_size=32))
        # By owner-computes, writes-per-PE equals instances owned; the
        # simulator has no "remote write" category at all.
        assert result.stats.writes == hydro_trace.n_instances

    def test_page_fetch_count_equals_remote_reads(self, hydro_trace):
        cfg = MachineConfig(n_pes=4, page_size=32, cache_elems=256)
        result = simulate(hydro_trace, cfg)
        assert result.page_fetches.sum() == result.stats.remote_reads

    def test_empty_trace(self):
        from repro.ir import TraceBuilder

        trace = TraceBuilder(["X"], [16]).freeze()
        result = simulate(trace, MachineConfig(n_pes=4, page_size=8))
        assert result.stats.total_reads == 0
        assert result.remote_read_pct == 0.0


class TestHydroClosedForm:
    """Hand-derived expectations for Hydro Fragment, n=1000, ps=32.

    Writes X(k); reads Y(k) (matched, local), ZX(k+10), ZX(k+11).
    Within the page [32p, 32p+31], ZX(k+10) leaves the page for the
    last 10 k values and ZX(k+11) for the last 11: 21 boundary reads
    per full page, out of 96 reads.
    """

    def test_no_cache_remote_fraction(self):
        program, inputs = get_kernel("hydro_fragment").build(n=960)  # 30 full pages
        trace = kernel_trace(program, inputs)
        result = simulate(
            trace, MachineConfig(n_pes=4, page_size=32, cache_elems=0)
        )
        # k = 1..960 covers pages 0..30 of X; page 0 covers k=1..31 (31
        # values, 20 boundary reads: 10 for +10 where k+10>=32 i.e. k>=22,
        # 10... compute exactly instead:
        remote = 0
        for k in range(1, 961):
            page = k // 32
            for skew in (10, 11):
                if (k + skew) // 32 != page:
                    remote += 1
        assert result.stats.remote_reads == remote

    def test_cache_reduces_to_one_fetch_per_boundary_page(self):
        program, inputs = get_kernel("hydro_fragment").build(n=960)
        trace = kernel_trace(program, inputs)
        result = simulate(
            trace, MachineConfig(n_pes=4, page_size=32, cache_elems=256)
        )
        # Each X page's boundary reads touch exactly one remote ZX page;
        # with the cache, that page is fetched once per (executing page,
        # remote page) pair.
        fetched = {
            (k // 32, (k + skew) // 32)
            for k in range(1, 961)
            for skew in (10, 11)
            if (k + skew) // 32 != k // 32
        }
        assert result.stats.remote_reads == len(fetched)

    def test_paper_headline_numbers(self):
        """§8: 'a reduction from 22% remote reads to 1% remote reads'."""
        program, inputs = get_kernel("hydro_fragment").build(n=1000)
        trace = kernel_trace(program, inputs)
        cfg = MachineConfig(n_pes=16, page_size=32, cache_elems=256)
        without = simulate(trace, cfg.without_cache()).remote_read_pct
        with_cache = simulate(trace, cfg).remote_read_pct
        assert 20.0 < without < 23.0
        assert 0.8 < with_cache < 1.5


class TestMatchedLoop:
    def test_matched_is_all_local(self, matched_program):
        program, inputs = matched_program
        for pes in (2, 4, 8):
            result = simulate_program(
                program, inputs, MachineConfig(n_pes=pes, page_size=8, cache_elems=0)
            )
            assert result.stats.remote_reads == 0


class TestPartitionInteraction:
    def test_block_partition_localises_skews(self):
        """Under the division scheme, a skewed loop's neighbour pages
        mostly share an owner, so remote reads drop (§9's observation
        that modulo is worse than division for some loops)."""
        program, inputs = get_kernel("hydro_fragment").build(n=1000)
        trace = kernel_trace(program, inputs)
        modulo = simulate(
            trace,
            MachineConfig(
                n_pes=8, page_size=32, cache_elems=0, partition=ModuloPartition()
            ),
        )
        block = simulate(
            trace,
            MachineConfig(
                n_pes=8, page_size=32, cache_elems=0, partition=BlockPartition()
            ),
        )
        assert block.stats.remote_reads < modulo.stats.remote_reads

    def test_reduction_instances_run_on_accumulator_owner(self):
        program, inputs = get_kernel("inner_product").build(n=100)
        trace = kernel_trace(program, inputs)
        result = simulate(trace, MachineConfig(n_pes=4, page_size=32))
        # All writes (folds) land on the PE owning QS[0] = page 0 = PE 0.
        writes_per_pe = result.stats.per_pe(AccessKind.WRITE)
        assert writes_per_pe[0] == trace.n_instances
        assert writes_per_pe[1:].sum() == 0


class TestDeterminism:
    def test_same_config_same_counters(self, hydro_trace):
        cfg = MachineConfig(n_pes=8, page_size=32, cache_elems=256)
        a = simulate(hydro_trace, cfg)
        b = simulate(hydro_trace, cfg)
        assert np.array_equal(a.stats.counts, b.stats.counts)

    def test_random_policy_deterministic(self, hydro_trace):
        cfg = MachineConfig(
            n_pes=8, page_size=32, cache_elems=256, cache_policy="random"
        )
        a = simulate(hydro_trace, cfg)
        b = simulate(hydro_trace, cfg)
        assert np.array_equal(a.stats.counts, b.stats.counts)
