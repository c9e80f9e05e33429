"""Trace-driven multiprocessor simulation (§6, §7).

This is the paper's measurement instrument: given an access trace of a
single-assignment kernel and a machine configuration (number of PEs,
page size, cache), classify every access as write / local read / cached
read / remote read under the automatic partitioning rules of §2:

* every array is paged with the configured page size and pages are
  mapped to PEs by the partition scheme (modulo by default);
* the **owner-computes rule** assigns each statement instance to the PE
  owning the written element's page ("control partitioning");
* reads of pages the executing PE owns are *local*; other reads consult
  the PE's page cache — a hit is a *cached read*, a miss is a *remote
  read* that fetches and caches the page.

The simulation is untimed (the paper's is too); the discrete-event
model in :mod:`repro.machine` adds latency and contention on top.

Because the trace is independent of the machine configuration, one
interpreter run drives a whole parameter sweep.  Owner computations are
vectorised with NumPy; the only per-access Python work is the cache
walk, which is run-length compressed (consecutive touches of the same
page collapse into one cache probe plus arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from ..cache import POLICIES, make_cache
from ..ir.loops import Program
from ..ir.trace import Trace
from ..memory.pages import PageTable
from ..obs.spans import span
from .access import AccessKind
from .partition import ModuloPartition, PartitionScheme, named_scheme
from .stats import AccessStats

__all__ = [
    "REDUCTION_STRATEGIES",
    "MachineConfig",
    "SimResult",
    "SubrangeGroup",
    "simulate",
    "simulate_program",
    "subrange_groups",
    "subrange_placement",
]


#: How accumulations may be executed (see ``MachineConfig``).
REDUCTION_STRATEGIES: tuple[str, ...] = ("host", "subrange")


@dataclass(frozen=True)
class MachineConfig:
    """One point in the paper's parameter space.

    ``cache_elems`` is the *total* cache capacity in array elements
    (the paper fixes 256); the number of cache pages is derived from
    the page size, as in §6 ("the number of cache pages is dependent
    on the page size").  ``cache_elems=0`` disables caching (the "No
    Cache" series of Figures 1-4).
    """

    n_pes: int
    page_size: int
    cache_elems: int = 256
    cache_policy: str = "lru"
    partition: PartitionScheme = field(default_factory=ModuloPartition)
    # How accumulations (Reduction statements) are executed:
    #   "host"     — every fold runs on the accumulator's owner, which
    #                reads all contributions (the paper's baseline:
    #                reductions funnel through one host PE);
    #   "subrange" — each fold runs on the PE owning the page of its
    #                first read, accumulating into a local partial; the
    #                host then collects one partial per contributing PE
    #                (§9: "extension of the host processor mechanism to
    #                allow collection of subrange results").
    reduction_strategy: str = "host"

    def __post_init__(self) -> None:
        if self.n_pes <= 0:
            raise ValueError("need at least one PE")
        if self.page_size <= 0:
            raise ValueError("page size must be positive")
        if self.cache_elems < 0:
            raise ValueError("cache size must be nonnegative")
        if self.cache_policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {self.cache_policy!r}; "
                f"choose from {tuple(sorted(POLICIES))}"
            )
        if self.reduction_strategy not in REDUCTION_STRATEGIES:
            raise ValueError(
                f"unknown reduction strategy {self.reduction_strategy!r}; "
                f"choose from {REDUCTION_STRATEGIES}"
            )

    @property
    def cache_pages(self) -> int:
        """Cache capacity in pages (0 disables the cache)."""
        return self.cache_elems // self.page_size

    @property
    def has_cache(self) -> bool:
        return self.cache_pages > 0

    def without_cache(self) -> "MachineConfig":
        return replace(self, cache_elems=0)

    def label(self) -> str:
        """Unique, stable identifier of this configuration.

        Every axis that distinguishes two configurations appears:
        the partition by its parameterised label (so "block-cyclic:2"
        and "block-cyclic:4" differ) and, when not at their defaults,
        the cache policy and reduction strategy.  Default-valued
        configurations keep their historical labels.
        """
        cache = f"cache={self.cache_elems}" if self.has_cache else "no-cache"
        parts = [
            f"pes={self.n_pes}",
            f"ps={self.page_size}",
            cache,
            self.partition.label,
        ]
        if self.has_cache and self.cache_policy != "lru":
            parts.append(f"policy={self.cache_policy}")
        if self.reduction_strategy != "host":
            parts.append(f"red={self.reduction_strategy}")
        return " ".join(parts)

    # -- (de)serialisation -----------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form; the partition travels by scheme name."""
        return {
            "n_pes": self.n_pes,
            "page_size": self.page_size,
            "cache_elems": self.cache_elems,
            "cache_policy": self.cache_policy,
            "partition": self.partition.label,
            "reduction_strategy": self.reduction_strategy,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "MachineConfig":
        extra = set(data) - {
            "n_pes",
            "page_size",
            "cache_elems",
            "cache_policy",
            "partition",
            "reduction_strategy",
        }
        if extra:
            raise ValueError(f"unknown machine config keys: {sorted(extra)}")
        return MachineConfig(
            n_pes=int(data["n_pes"]),  # type: ignore[arg-type]
            page_size=int(data["page_size"]),  # type: ignore[arg-type]
            cache_elems=int(data.get("cache_elems", 256)),  # type: ignore[arg-type]
            cache_policy=str(data.get("cache_policy", "lru")),
            partition=named_scheme(str(data.get("partition", "modulo"))),
            reduction_strategy=str(data.get("reduction_strategy", "host")),
        )


@dataclass
class SimResult:
    """Counters produced by one simulation run."""

    config: MachineConfig
    stats: AccessStats
    # Pages fetched over the network, per PE (== remote reads: every
    # remote read fetches its page; with the cache the page then stays).
    page_fetches: np.ndarray
    # Distinct (array, page) pairs each PE fetched at least once.
    distinct_pages_fetched: np.ndarray

    @property
    def remote_read_pct(self) -> float:
        return self.stats.remote_read_pct

    @property
    def cached_read_pct(self) -> float:
        return self.stats.cached_read_pct

    def summary(self) -> dict[str, float]:
        out = self.stats.summary()
        out["page_fetches"] = float(self.page_fetches.sum())
        return out

    def __repr__(self) -> str:
        return f"SimResult({self.config.label()}: {self.stats!r})"


def _owners_by_array(
    arr_ids: np.ndarray,
    pages: np.ndarray,
    tables: list[PageTable],
    scheme: PartitionScheme,
    n_pes: int,
) -> np.ndarray:
    """Vectorised page→owner lookup across arrays."""
    owners = np.empty(len(pages), dtype=np.int64)
    for array_id, table in enumerate(tables):
        mask = arr_ids == array_id
        if mask.any():
            owners[mask] = scheme.owners_of(pages[mask], table.n_pages, n_pes)
    return owners


def subrange_placement(
    trace: Trace,
    tables: list[PageTable],
    config: MachineConfig,
    exec_pe: np.ndarray,
) -> np.ndarray:
    """Re-place reduction folds onto the owners of their first read.

    Under the "subrange" strategy (§9's host-processor extension) each
    contribution to an accumulator is evaluated where its data lives,
    into a PE-local partial sum; only the partials travel to the host.
    Folds with no reads stay on the accumulator's owner.

    Shared by the untimed simulator and the timed machine
    (:class:`repro.machine.msim.TimedMachine`), so both backends agree
    on *which* PEs reduce together — the differential fidelity suite
    (``tests/test_timed_fidelity.py``) holds them to it.
    """
    exec_pe = exec_pe.copy()
    red_idx = np.flatnonzero(trace.reduction_mask)
    starts = trace.r_ptr[red_idx]
    ends = trace.r_ptr[red_idx + 1]
    has_reads = ends > starts
    readers = red_idx[has_reads]
    first_read = starts[has_reads]
    first_arr = trace.r_arr[first_read]
    first_pages = trace.r_flat[first_read] // config.page_size
    exec_pe[readers] = _owners_by_array(
        first_arr, first_pages, tables, config.partition, config.n_pes
    )
    return exec_pe


@dataclass(frozen=True)
class SubrangeGroup:
    """One accumulator's combine group under the "subrange" strategy.

    ``contributors`` is the sorted tuple of PEs holding a partial for
    this accumulator; ``host`` is the accumulator cell's owner, which
    gathers the partials and performs the final write.
    """

    array_id: int
    flat: int
    host: int
    contributors: tuple[int, ...]

    @property
    def remote_partials(self) -> int:
        return sum(1 for pe in self.contributors if pe != self.host)

    @property
    def local_partials(self) -> int:
        return sum(1 for pe in self.contributors if pe == self.host)


def subrange_groups(
    trace: Trace,
    tables: list[PageTable],
    config: MachineConfig,
    exec_pe: np.ndarray,
) -> list[SubrangeGroup]:
    """Group reduction folds by accumulator cell, in trace order.

    The single definition of *which* PEs reduce together: the untimed
    simulator charges the combine phase from these groups and the
    timed machine schedules its gather messages from them, so the two
    backends can never disagree on the reduction pattern.
    """
    red_idx = np.flatnonzero(trace.reduction_mask)
    # accumulator cell id -> set of contributing PEs
    acc_cells: dict[tuple[int, int], set[int]] = {}
    for i in red_idx.tolist():
        key = (int(trace.w_arr[i]), int(trace.w_flat[i]))
        acc_cells.setdefault(key, set()).add(int(exec_pe[i]))
    groups = []
    for (arr, flat), contributors in acc_cells.items():
        page = flat // config.page_size
        host = config.partition.owner_of(
            page, tables[arr].n_pages, config.n_pes
        )
        groups.append(
            SubrangeGroup(arr, flat, host, tuple(sorted(contributors)))
        )
    return groups


def _charge_subrange_combine(
    trace: Trace,
    tables: list[PageTable],
    config: MachineConfig,
    exec_pe: np.ndarray,
    stats: AccessStats,
) -> None:
    """Account the combine phase of subrange reductions.

    For each accumulator cell, the host (the cell's owner) pulls one
    partial result from every *other* PE that contributed — charged as
    remote reads at the host — reads its own partial locally if it made
    one, and performs the final write.
    """
    for group in subrange_groups(trace, tables, config, exec_pe):
        stats.add(
            group.host,
            AccessKind.REMOTE_READ,
            group.remote_partials,
            array_id=group.array_id,
        )
        stats.add(
            group.host,
            AccessKind.LOCAL_READ,
            group.local_partials,
            array_id=group.array_id,
        )
        stats.add(group.host, AccessKind.WRITE, 1, array_id=group.array_id)


def simulate(trace: Trace, config: MachineConfig) -> SimResult:
    """Classify every access in ``trace`` under ``config``."""
    n_pes = config.n_pes
    ps = config.page_size
    tables = [PageTable(size, ps) for size in trace.array_sizes]
    stats = AccessStats(n_pes, trace.array_names)

    if trace.n_instances == 0:
        return SimResult(
            config,
            stats,
            np.zeros(n_pes, dtype=np.int64),
            np.zeros(n_pes, dtype=np.int64),
        )

    # --- owner-computes: executing PE of each statement instance -----------
    # ``phase.*`` spans (classify / cache_sim / reduction) bracket the
    # hot regions for `repro.obs` — the shared no-op span unless the
    # event sink or a subscriber is active.
    with span("phase.classify"):
        w_pages = trace.w_flat // ps
        exec_pe = _owners_by_array(
            trace.w_arr, w_pages, tables, config.partition, n_pes
        )
        if (
            config.reduction_strategy == "subrange"
            and trace.reduction_mask.any()
        ):
            exec_pe = subrange_placement(trace, tables, config, exec_pe)
        stats.add_vector(
            AccessKind.WRITE, np.bincount(exec_pe, minlength=n_pes)
        )

    def finish(
        page_fetches: np.ndarray, distinct_pages: np.ndarray
    ) -> SimResult:
        with span("phase.reduction"):
            if (
                config.reduction_strategy == "subrange"
                and trace.reduction_mask.any()
            ):
                _charge_subrange_combine(
                    trace, tables, config, exec_pe, stats
                )
        return SimResult(config, stats, page_fetches, distinct_pages)

    if trace.n_reads == 0:
        return finish(
            np.zeros(n_pes, dtype=np.int64), np.zeros(n_pes, dtype=np.int64)
        )

    # --- read classification -------------------------------------------------
    with span("phase.classify"):
        reads_per_instance = np.diff(trace.r_ptr)
        r_exec = np.repeat(exec_pe, reads_per_instance)
        r_pages = trace.r_flat // ps
        r_owner = _owners_by_array(
            trace.r_arr, r_pages, tables, config.partition, n_pes
        )
        local_mask = r_owner == r_exec
        stats.add_vector(
            AccessKind.LOCAL_READ,
            np.bincount(r_exec[local_mask], minlength=n_pes),
        )

        nonlocal_idx = np.flatnonzero(~local_mask)
    page_fetches = np.zeros(n_pes, dtype=np.int64)
    distinct_pages = np.zeros(n_pes, dtype=np.int64)
    if nonlocal_idx.size == 0:
        return finish(page_fetches, distinct_pages)

    nl_exec = r_exec[nonlocal_idx]
    nl_arr = trace.r_arr[nonlocal_idx].astype(np.int64)
    nl_page = r_pages[nonlocal_idx]

    if not config.has_cache:
        with span("phase.cache_sim"):
            remote = np.bincount(nl_exec, minlength=n_pes)
            stats.add_vector(AccessKind.REMOTE_READ, remote)
            page_fetches += remote
            for pe in range(n_pes):
                mask = nl_exec == pe
                if mask.any():
                    distinct_pages[pe] = len(
                        np.unique(nl_arr[mask] * (1 << 40) + nl_page[mask])
                    )
        return finish(page_fetches, distinct_pages)

    # --- cache walk, per PE, run-length compressed ---------------------------
    # Composite key packs (array, page) into one int64 for fast comparison.
    with span("phase.cache_sim"):
        composite = nl_arr * (1 << 40) + nl_page
        cached_per_pe = np.zeros(n_pes, dtype=np.int64)
        remote_per_pe = np.zeros(n_pes, dtype=np.int64)
        for pe in range(n_pes):
            mask = nl_exec == pe
            if not mask.any():
                continue
            keys = composite[mask]
            arrs = nl_arr[mask]
            pages = nl_page[mask]
            # Run boundaries: positions where the page key changes.
            change = np.empty(len(keys), dtype=bool)
            change[0] = True
            np.not_equal(keys[1:], keys[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            run_lengths = np.diff(np.append(starts, len(keys)))
            cache = make_cache(config.cache_policy, config.cache_pages)
            cached = 0
            remote = 0
            for start, length in zip(starts.tolist(), run_lengths.tolist()):
                hit = cache.access((int(arrs[start]), int(pages[start])))
                if hit:
                    cached += length
                else:
                    remote += 1
                    cached += length - 1
            cached_per_pe[pe] = cached
            remote_per_pe[pe] = remote
            distinct_pages[pe] = len(np.unique(keys))
        stats.add_vector(AccessKind.CACHED_READ, cached_per_pe)
        stats.add_vector(AccessKind.REMOTE_READ, remote_per_pe)
        page_fetches += remote_per_pe
    return finish(page_fetches, distinct_pages)


def simulate_program(
    program: Program,
    inputs: Mapping[str, np.ndarray],
    config: MachineConfig,
) -> SimResult:
    """Interpret ``program`` over ``inputs`` and simulate the trace."""
    from ..ir.interp import run_program

    result = run_program(program, inputs)
    return simulate(result.trace, config)
