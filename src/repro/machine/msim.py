"""Timed machine simulation: execution time, latency hiding, contention.

The paper's measurement simulator is untimed; §9 calls for "a more
sophisticated simulation [to] better explore the problems of execution
time and network contention".  :class:`TimedMachine` is that
simulation.  It replays an access trace under the same partitioning,
owner-computes and caching rules as :func:`repro.core.simulator.simulate`,
but embeds them in a discrete-event model with

* a cycle-level :class:`~repro.machine.pe.CostModel`,
* an interconnect :class:`~repro.machine.network.Topology` whose hop
  counts delay messages and whose links accumulate traffic,
* I-structure *deferred reads*: a request for a cell whose producer has
  not yet executed parks until the write happens (§3),
* *partial pages*: a fetched page snapshots only the cells defined at
  fetch time; touching a cell produced later forces a re-fetch — the
  §8 caveat that "a single page might have to be fetched more than
  once if that page is only partially filled at the time of the first
  request",
* two execution modes — ``blocking`` (the PE stalls on every remote
  fetch) and ``multithreaded`` (the PE parks the waiting iteration and
  runs ahead, the paper's "during this remote read the requesting PE
  can perform other useful work", §4),
* both reduction strategies: ``host`` (every fold funnels through the
  accumulator's owner — plain owner-computes replay) and ``subrange``
  (folds run where their data lives via the *same*
  :func:`~repro.core.simulator.subrange_placement` the untimed
  simulator uses; once every fold of an accumulator has retired, its
  host gathers one partial per contributing PE over the network and
  performs the final write, releasing any reader deferred on the
  accumulator cell),
* optional per-link bandwidth: with
  ``CostModel(contention_model="per-link")`` every message occupies
  each link on its route for ``message_bytes / link_bandwidth``
  cycles and queues behind traffic already holding the link, so the
  contention the untimed model only *counts* feeds back into
  completion time (``contention_delay_cycles`` in the result).

Determinism: all event ties break on scheduling order; repeated runs
produce identical cycle counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..cache import PageCache, make_cache
from ..core.access import AccessKind
from ..core.simulator import (
    MachineConfig,
    SubrangeGroup,
    _owners_by_array,
    subrange_groups,
    subrange_placement,
)
from ..core.stats import AccessStats
from ..ir.trace import Trace
from ..memory.pages import PageTable
from ..obs.spans import span
from .event import EventQueue
from .network import Topology, make_topology
from .pe import MODES, CostModel, PEState

__all__ = ["TimedMachine", "TimedResult", "serial_time"]

Cell = int  # composite (array_id << 44) | flat


def _cell(arr: int, flat: int) -> Cell:
    return (arr << 44) | flat


@dataclass
class TimedResult:
    """Outcome of one timed run."""

    config: MachineConfig
    topology: str
    mode: str
    finish_time: float
    per_pe_finish: np.ndarray
    stats: AccessStats
    stall_time: np.ndarray
    messages: int
    total_hops: int
    refetches: int
    deferred_reads: int
    contention: dict[str, float]

    @property
    def contention_delay_cycles(self) -> float:
        """Cycles messages spent queueing for (or draining over) links."""
        return self.contention["contention_delay_cycles"]

    @property
    def remote_read_pct(self) -> float:
        return self.stats.remote_read_pct

    def speedup(self, serial_time: float) -> float:
        return serial_time / self.finish_time if self.finish_time else 1.0


@dataclass
class _Context:
    """One in-flight statement instance on a PE (multithreaded mode)."""

    local_idx: int        # index into the PE's instance list
    read_cursor: int = 0  # how many reads are already satisfied


class TimedMachine:
    """Discrete-event replay of a trace on a timed machine."""

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        *,
        topology: str | Topology = "crossbar",
        costs: CostModel | None = None,
        mode: str = "blocking",
        max_outstanding: int = 4,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        self.trace = trace
        self.config = config
        self.costs = costs if costs is not None else CostModel()
        self.mode = mode
        self.max_outstanding = max_outstanding if mode == "multithreaded" else 1
        self.topology = (
            topology
            if isinstance(topology, Topology)
            else make_topology(topology, config.n_pes)
        )
        if self.topology.n_pes != config.n_pes:
            raise ValueError("topology size disagrees with config")
        self.queue = EventQueue()
        self.stats = AccessStats(config.n_pes, trace.array_names)
        self.tables = [
            PageTable(size, config.page_size) for size in trace.array_sizes
        ]
        with span("phase.setup"):
            self._build_placement()
            self._build_memory_state()
        self._pes = [PEState(pe) for pe in range(config.n_pes)]
        for idx, pe in enumerate(self.exec_pe):
            self._pes[pe].instances.append(idx)
        self._caches: list[PageCache] = [
            make_cache(config.cache_policy, config.cache_pages)
            for _ in range(config.n_pes)
        ]
        self._fetch_time: list[dict[tuple[int, int], float]] = [
            {} for _ in range(config.n_pes)
        ]
        self._ready: list[deque[_Context]] = [deque() for _ in range(config.n_pes)]
        self._outstanding = [0] * config.n_pes
        self._burst_scheduled = [False] * config.n_pes
        self.messages = 0
        self.total_hops = 0
        self.refetches = 0
        self.deferred_reads = 0

    # -- setup -----------------------------------------------------------------
    def _build_placement(self) -> None:
        cfg, tr = self.config, self.trace
        w_pages = tr.w_flat // cfg.page_size
        self.exec_pe = _owners_by_array(
            tr.w_arr, w_pages, self.tables, cfg.partition, cfg.n_pes
        )
        # Subrange reductions: the same re-placement and accumulator
        # grouping as the untimed simulator, so both backends agree on
        # which PEs reduce together (and therefore on every counter).
        self._combine_of: dict[Cell, SubrangeGroup] = {}
        if cfg.reduction_strategy == "subrange" and tr.reduction_mask.any():
            self.exec_pe = subrange_placement(
                tr, self.tables, cfg, self.exec_pe
            )
            self._combine_of = {
                _cell(g.array_id, g.flat): g
                for g in subrange_groups(tr, self.tables, cfg, self.exec_pe)
            }
        r_pages = tr.r_flat // cfg.page_size
        self.r_owner = _owners_by_array(
            tr.r_arr, r_pages, self.tables, cfg.partition, cfg.n_pes
        )
        self.r_pages = r_pages

    def _build_memory_state(self) -> None:
        """Per-cell write bookkeeping for deferred reads & partial pages."""
        tr = self.trace
        self._writes_needed: dict[Cell, int] = {}
        for i in range(tr.n_instances):
            cell = _cell(int(tr.w_arr[i]), int(tr.w_flat[i]))
            self._writes_needed[cell] = self._writes_needed.get(cell, 0) + 1
        # A subrange accumulator only becomes defined when its host's
        # combine performs the final write — one write beyond the
        # trace's folds — so readers defer until the gather completes.
        for cell in self._combine_of:
            self._writes_needed[cell] += 1
        # When each accumulator's last trace write *completes* in
        # simulated time (bursts run far ahead of queue.now, so the
        # counting order alone must not time the gather).
        self._acc_write_time: dict[Cell, float] = {}
        self._writes_done: dict[Cell, int] = {}
        self._write_time: dict[Cell, float] = {}
        # Deferred reads parked per cell: (request arrival time, deliver fn).
        self._deferred: dict[Cell, list] = {}

    # -- cell availability --------------------------------------------------------
    def _available_at(self, cell: Cell) -> float | None:
        """Time the cell became fully defined, or None if not yet.

        Cells never written by the trace are initialisation data (§3)
        and are available from time 0.
        """
        needed = self._writes_needed.get(cell)
        if needed is None:
            return 0.0
        if self._writes_done.get(cell, 0) >= needed:
            return self._write_time[cell]
        return None

    # -- main loop -------------------------------------------------------------
    def run(self) -> TimedResult:
        for pe in range(self.config.n_pes):
            state = self._pes[pe]
            self._ready[pe].extend(
                _Context(local_idx=i) for i in range(len(state.instances))
            )
            self._schedule_burst(pe, 0.0)
        with span("phase.event_loop"):
            self.queue.run(max_events=20_000_000)
        per_pe_finish = np.asarray(
            [pe_state.busy_until for pe_state in self._pes]
        )
        if any(self._ready) or any(self._outstanding):
            raise RuntimeError("simulation drained with unfinished work")
        return TimedResult(
            config=self.config,
            topology=self.topology.name,
            mode=self.mode,
            finish_time=float(per_pe_finish.max(initial=0.0)),
            per_pe_finish=per_pe_finish,
            stats=self.stats,
            stall_time=np.asarray([p.stall_time for p in self._pes]),
            messages=self.messages,
            total_hops=self.total_hops,
            refetches=self.refetches,
            deferred_reads=self.deferred_reads,
            contention=self.topology.contention_summary(),
        )

    def _schedule_burst(self, pe: int, at: float) -> None:
        if self._burst_scheduled[pe]:
            return
        self._burst_scheduled[pe] = True
        self.queue.schedule(max(at, self.queue.now), lambda: self._burst(pe))

    def _burst(self, pe: int) -> None:
        """Run the PE until it has no ready work or saturates outstanding."""
        self._burst_scheduled[pe] = False
        ready = self._ready[pe]
        while ready:
            ctx = ready.popleft()
            if not self._execute(pe, ctx):
                # Context parked on a fetch.  A blocking PE (or one at
                # its outstanding limit) stops; a multithreaded PE moves
                # on to the next ready context.
                if self._outstanding[pe] >= self.max_outstanding:
                    return
                continue

    def _execute(self, pe: int, ctx: _Context) -> bool:
        """Advance one context; True if the instance completed."""
        state = self._pes[pe]
        cfg, costs, tr = self.config, self.costs, self.trace
        instance = state.instances[ctx.local_idx]
        lo, hi = int(tr.r_ptr[instance]), int(tr.r_ptr[instance + 1])
        cursor = lo + ctx.read_cursor
        while cursor < hi:
            arr = int(tr.r_arr[cursor])
            flat = int(tr.r_flat[cursor])
            page = int(self.r_pages[cursor])
            owner = int(self.r_owner[cursor])
            if owner == pe:
                state.busy_until = max(state.busy_until, self.queue.now)
                state.busy_until += costs.local_read
                self.stats.add(pe, AccessKind.LOCAL_READ, array_id=arr)
            else:
                key = (arr, page)
                hit = cfg.has_cache and self._caches[pe].contains(key)
                if hit and self._snapshot_valid(pe, key, arr, flat):
                    state.busy_until = max(state.busy_until, self.queue.now)
                    state.busy_until += costs.cached_read
                    self._caches[pe].access(key)  # refresh recency
                    self.stats.add(pe, AccessKind.CACHED_READ, array_id=arr)
                else:
                    if hit:
                        self.refetches += 1
                        self._pes[pe].refetches += 1
                    self._start_fetch(pe, ctx, cursor - lo, arr, flat, page, owner)
                    return False
            ctx.read_cursor = cursor - lo + 1
            cursor += 1
        # All reads satisfied: compute and write.
        state.busy_until = max(state.busy_until, self.queue.now)
        state.busy_until += costs.compute_per_statement + costs.write
        self.stats.add(pe, AccessKind.WRITE)
        cell = _cell(int(tr.w_arr[instance]), int(tr.w_flat[instance]))
        done = self._writes_done.get(cell, 0) + 1
        self._writes_done[cell] = done
        group = self._combine_of.get(cell)
        if group is not None:
            self._acc_write_time[cell] = max(
                self._acc_write_time.get(cell, 0.0), state.busy_until
            )
        if done >= self._writes_needed[cell]:
            self._write_time[cell] = state.busy_until
            self._release_waiters(cell, state.busy_until)
        elif group is not None and done == self._writes_needed[cell] - 1:
            # Every fold has been counted; the remaining write is the
            # host's, performed after it gathers the partials.  The
            # gather begins when the *slowest* counted write completes
            # in simulated time — a PE's burst counts its folds while
            # its local clock is already far past queue.now, so the
            # counting order alone would start the combine early.
            self.queue.schedule(
                self._acc_write_time[cell],
                lambda: self._combine(cell, group),
            )
        return True

    # -- messaging ------------------------------------------------------------
    def _send_at(
        self,
        src: int,
        dst: int,
        depart: float,
        payload_elements: int,
        then,
    ) -> None:
        """Put one message on the wire at ``depart`` (simulated time).

        Counts the message and its hops, then calls
        ``then(hops, queued)`` where ``queued`` is the link-queueing
        delay to add on top of the closed-form latency.

        Without link occupancy (``contention_model="none"``, or
        infinite bandwidth) the transmit is pure accounting and
        ``then`` runs *synchronously* with ``queued == 0.0`` — the
        historical event structure, bit-for-bit.  With occupancy, the
        link reservation is deferred to an event at ``depart``: a PE's
        burst calls this while its local clock runs far ahead of
        ``queue.now``, so reserving at call time would queue messages
        in event-processing order and charge a message delay behind
        traffic that departs *later* in simulated time.  Routing
        reservations through the event queue orders them causally.
        """
        occupancy = (
            self.costs.occupancy(payload_elements)
            if self.costs.contended
            else 0.0
        )
        if occupancy == 0.0:
            hops, _ = self.topology.transmit(src, dst, at=depart)
            self.messages += 1
            self.total_hops += hops
            then(hops, 0.0)
            return

        def reserve() -> None:
            hops, queued = self.topology.transmit(
                src, dst, at=self.queue.now, occupancy=occupancy
            )
            self.messages += 1
            self.total_hops += hops
            then(hops, queued)

        self.queue.schedule(depart, reserve)

    # -- remote fetches -------------------------------------------------------------
    def _snapshot_valid(self, pe: int, key: tuple[int, int], arr: int, flat: int) -> bool:
        """Was this cell defined when the cached page was fetched?"""
        fetched = self._fetch_time[pe].get(key)
        if fetched is None:
            return False
        available = self._available_at(_cell(arr, flat))
        return available is not None and available <= fetched

    def _start_fetch(
        self,
        pe: int,
        ctx: _Context,
        read_offset: int,
        arr: int,
        flat: int,
        page: int,
        owner: int,
    ) -> None:
        """Issue a page request; park the context until the reply."""
        state = self._pes[pe]
        costs = self.costs
        state.busy_until = max(state.busy_until, self.queue.now)
        state.requests_sent += 1
        self._outstanding[pe] += 1
        ctx.read_cursor = read_offset  # retry this read on resume
        depart = state.busy_until
        cell = _cell(arr, flat)
        key = (arr, page)
        page_elems = self.tables[arr].elements_in_page(page)

        def on_request(hops: int, queued: float) -> None:
            request_arrival = depart + costs.request_latency(hops) + queued

            def deliver(ready_time: float) -> None:
                def on_reply(reply_hops: int, reply_queued: float) -> None:
                    arrive = (
                        ready_time
                        + costs.reply_latency(reply_hops, page_elems)
                        + reply_queued
                    )
                    self.queue.schedule(
                        max(arrive, self.queue.now),
                        lambda: self._finish_fetch(
                            pe, ctx, key, arrive, read_offset
                        ),
                    )

                self._send_at(owner, pe, ready_time, page_elems, on_reply)

            available = self._available_at(cell)
            if available is not None:
                deliver(max(request_arrival, available))
            else:
                # I-structure deferred read: parked at the owner until
                # the producing write happens (§3).
                self.deferred_reads += 1
                self._deferred.setdefault(cell, []).append(
                    (request_arrival, deliver)
                )

        self._send_at(pe, owner, depart, 0, on_request)

    def _finish_fetch(
        self,
        pe: int,
        ctx: _Context,
        key: tuple[int, int],
        arrive: float,
        read_offset: int,
    ) -> None:
        state = self._pes[pe]
        stall_start = state.busy_until
        if arrive > stall_start:
            state.stall_time += arrive - stall_start
        state.busy_until = max(state.busy_until, arrive)
        if self.config.has_cache:
            self._caches[pe].access(key)
            self._fetch_time[pe][key] = arrive
            self._prune_fetch_times(pe)
        self.stats.add(pe, AccessKind.REMOTE_READ, array_id=key[0])
        # The fetched read is satisfied by the reply itself; resume after it.
        ctx.read_cursor = read_offset + 1
        self._outstanding[pe] -= 1
        self._ready[pe].appendleft(ctx)  # resume the parked iteration first
        self._schedule_burst(pe, state.busy_until)

    def _prune_fetch_times(self, pe: int) -> None:
        """Keep fetch-time bookkeeping in sync with cache evictions."""
        cache = self._caches[pe]
        book = self._fetch_time[pe]
        if len(book) > cache.capacity_pages:
            resident = set(cache.resident_keys())
            for key in [k for k in book if k not in resident]:
                del book[key]

    def _release_waiters(self, cell: Cell, write_time: float) -> None:
        for request_arrival, deliver in self._deferred.pop(cell, []):
            deliver(max(write_time, request_arrival))

    # -- subrange combine -------------------------------------------------------
    def _combine(self, cell: Cell, group: SubrangeGroup) -> None:
        """Gather one accumulator's partials at its host (§9 subrange).

        Fires once every fold of the accumulator has *completed in
        simulated time* (``queue.now`` is at least the slowest fold's
        write completion, so every partial a reply carries exists when
        it is read).  The host requests one partial from each *other*
        contributing PE (request + single-element reply through the
        network, so distance and — under the per-link model —
        bandwidth contention both delay the gather), folds its own
        partial locally if it made one, then performs the final
        write.  Only then does the accumulator cell become available,
        releasing any deferred readers — the exact charge pattern of
        the untimed simulator's combine phase.
        """
        costs = self.costs
        host = group.host
        state = self._pes[host]
        start = max(state.busy_until, self.queue.now)
        remotes = [c for c in group.contributors if c != host]
        arrivals = [start]
        outstanding = [len(remotes)]

        def finish() -> None:
            done_time = max(arrivals)
            if group.local_partials:
                done_time += costs.local_read
                self.stats.add(
                    host, AccessKind.LOCAL_READ, array_id=group.array_id
                )
            done_time += costs.write
            self.stats.add(host, AccessKind.WRITE, array_id=group.array_id)
            state.busy_until = max(state.busy_until, done_time)
            self._writes_done[cell] += 1
            self._write_time[cell] = done_time
            self._release_waiters(cell, done_time)

        def gather(contributor: int) -> None:
            self.stats.add(
                host, AccessKind.REMOTE_READ, array_id=group.array_id
            )

            def on_request(hops: int, queued: float) -> None:
                request_arrival = (
                    start + costs.request_latency(hops) + queued
                )

                def on_reply(reply_hops: int, reply_queued: float) -> None:
                    arrivals.append(
                        request_arrival
                        + costs.reply_latency(reply_hops, 1)
                        + reply_queued
                    )
                    outstanding[0] -= 1
                    if outstanding[0] == 0:
                        finish()

                self._send_at(contributor, host, request_arrival, 1, on_reply)

            self._send_at(host, contributor, start, 0, on_request)

        if not remotes:
            finish()
            return
        for contributor in remotes:
            gather(contributor)


def serial_time(trace: Trace, costs: CostModel | None = None) -> float:
    """Cycle count of the same trace on one PE (everything local)."""
    costs = costs if costs is not None else CostModel()
    n = trace.n_instances
    return float(
        n * (costs.compute_per_statement + costs.write)
        + trace.n_reads * costs.local_read
    )
