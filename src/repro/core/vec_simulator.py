"""Columnar (vectorised) replay of the untimed simulation.

:func:`simulate_vec` produces **bit-identical** counters to
:func:`repro.core.simulator.simulate` — same :class:`AccessStats`,
same per-PE fetch vectors — but replaces the scalar per-run Python
cache walk with whole-column numpy decisions wherever the replacement
policy admits a closed form:

* **no cache** — classification alone decides everything; fully
  vectorised (the scalar engine already is, modulo the per-PE
  distinct-page loop).
* **no evictions** (distinct pages ≤ capacity) — every key misses
  exactly once, every repeat hits.  Exact for ``lru``, ``fifo`` and
  ``random`` alike: with no evictions the three policies are
  indistinguishable and the random policy's RNG is never consulted.
* **direct** — one slot per key hash at any capacity: a run hits iff
  the previous run hashing to its slot carried the same key, which a
  stable sort by slot answers for every run at once.
* **lru** — a stack algorithm, so the Mattson stack-distance property
  (see :mod:`repro.core.reuse`) decides each run exactly: a re-touch
  hits iff fewer than ``capacity`` distinct keys intervened.  Runs
  whose intervening window is shorter than the capacity are guaranteed
  hits; the remaining few are decided by an exact per-window distinct
  count, under a total-window budget.
* **fifo** — not a stack algorithm (no reuse distance exists), but
  misses are decidable from *eviction-epoch arithmetic*: every miss
  admits its key at a monotonically increasing fill epoch, and a
  reference hits iff its key's latest admission is within ``capacity``
  fills of the current fill count.  :func:`_fifo_fixed_point` solves
  that mutual recursion (epochs depend on misses depend on epochs)
  with a budgeted whole-column fixed-point iteration whose fixed
  points are provably unique — convergence is a certificate of
  exactness, and non-convergence within the round budget falls back.

Order-dependent spans fall back to the *scalar* engine's own
machinery so divergence is impossible by construction: seeded-random
eviction sequences (and the rare non-convergent FIFO span) replay
through :func:`repro.cache.make_cache` run-by-run, and the
subrange-reduction combine is charged by the shared
:func:`repro.core.simulator._charge_subrange_combine`.  The fidelity
contract is enforced generatively by ``tests/test_vec_fidelity.py``.
The full decision tree across backends lives in
``docs/fastpaths.md``.

Its ``phase.*`` spans mirror the scalar engine's (``classify`` /
``cache_sim`` / ``reduction``) as ``classify_vec`` / ``cache_sim_vec``
plus ``fallback_scalar`` for the delegated spans, so a traced run
(``REPRO_OBS``, ``repro obs summary``) attributes replay time to the
vectorised and scalar halves separately.
"""

from __future__ import annotations

import numpy as np

from ..cache import make_cache
from ..ir.trace import Trace
from ..memory.pages import PageTable
from ..obs.spans import span
from .access import AccessKind
from .simulator import (
    MachineConfig,
    SimResult,
    _charge_subrange_combine,
    _owners_by_array,
    subrange_placement,
)
from .stats import AccessStats

__all__ = ["simulate_vec"]

#: Ceiling on the summed undecided-window lengths of one PE's LRU walk
#: before the exact per-window distinct counts would cost more than the
#: scalar replay they replace; past it the PE falls back wholesale.
_WINDOW_BUDGET = 1 << 16

#: Round budget for the FIFO fixed-point iteration.  Each round is a
#: handful of O(n) column passes and the correct prefix provably grows
#: by at least one reference per round, so convergence is guaranteed
#: eventually — but a span still churning after this many rounds is
#: cheaper to hand to the scalar walk than to keep iterating.
_FIFO_ROUNDS = 32


def _fifo_fixed_point(
    keys: np.ndarray,
    capacity: int,
    seg: np.ndarray | None = None,
    max_rounds: int = _FIFO_ROUNDS,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact FIFO miss mask via a budgeted fixed-point iteration.

    ``keys`` is a run-length-compressed reference stream (optionally
    split into independent contiguous segments by ``seg`` — one cold
    FIFO cache per segment).  Returns ``(miss, admit)`` where ``miss``
    is the boolean per-reference miss mask and ``admit[i]`` is the
    key's *inclusive* admission epoch after reference ``i`` (its own
    fill count if ``i`` missed, else the epoch of its latest prior
    miss) — or ``None`` when the iteration has not stabilised within
    ``max_rounds``.

    Why iterate: FIFO admits each missing key at a monotonically
    increasing fill epoch and evicts it exactly ``capacity`` fills
    later, so reference ``i`` to key ``k`` hits iff ``k`` has a prior
    miss ``j`` (same segment, no later miss of ``k``) with
    ``fills(i) - fills(j) <= capacity``, where ``fills(x)`` counts
    misses strictly before ``x``.  Misses determine the fill epochs
    and the fill epochs determine the misses — a mutual recursion with
    no closed form (FIFO is not a stack algorithm).  The iteration
    applies that rule as an operator ``F`` on guess vectors ``m``.

    Why a fixed point is *exact*: any fixed point ``m = F(m)`` equals
    the true simulation, by induction on position.  ``F(m)[i]``
    depends only on ``m`` at positions ``< i``; position 0 of each
    segment is unconditionally cold under ``F``; and if ``m`` agrees
    with the truth on every position before ``i``, the rule computes
    ``i``'s true outcome.  So a stable ``m`` agrees with the truth at
    position 0, hence (applying ``F`` once more, which changes
    nothing) at position 1, and so on — convergence is a certificate,
    never an approximation.  The same argument shows each round
    extends the correct prefix by at least one reference, so the
    iteration terminates in at most ``n`` rounds; in practice a
    handful suffice because corrections propagate in large blocks.
    """
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    # Group each (segment, key) chain contiguously, positions ascending
    # (lexsort/argsort stability), so "latest prior miss of this key"
    # becomes a shift + running max along the sorted axis.
    if seg is None:
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        chain = np.empty(n, dtype=bool)
        chain[0] = True
        chain[1:] = sk[1:] != sk[:-1]
    else:
        order = np.lexsort((keys, seg))
        sk, ss = keys[order], seg[order]
        chain = np.empty(n, dtype=bool)
        chain[0] = True
        chain[1:] = (sk[1:] != sk[:-1]) | (ss[1:] != ss[:-1])
    # Per-chain offsets turn the global running max into a segmented
    # one: fill epochs live in [0, n] and hit markers are -1, so with
    # a chain stride of n + 2 no value can reach into the next chain
    # and chain-start positions decode to "no prior miss" (< 0).
    lim = np.int64(n + 2)
    base = (np.cumsum(chain) - 1) * lim
    miss = np.ones(n, dtype=bool)
    shifted = np.empty(n, dtype=np.int64)
    for _ in range(max_rounds):
        fills = np.cumsum(miss) - miss  # misses strictly before i
        f_sorted = fills[order]
        vals = np.where(miss[order], f_sorted, -1) + base
        shifted[0] = -2
        shifted[1:] = vals[:-1]
        prior = np.maximum.accumulate(shifted) - base
        new_sorted = (prior < 0) | (f_sorted - prior > capacity)
        new = np.empty(n, dtype=bool)
        new[order] = new_sorted
        if np.array_equal(new, miss):
            admit = np.empty(n, dtype=np.int64)
            admit[order] = np.where(new_sorted, f_sorted, prior)
            return new, admit
        miss = new
    return None


def _segments(sorted_pes: np.ndarray):
    """Yield ``(pe, start, end)`` for each PE's contiguous slice."""
    boundaries = np.flatnonzero(sorted_pes[1:] != sorted_pes[:-1]) + 1
    edges = np.concatenate(
        ([0], boundaries, [sorted_pes.size])
    )
    for start, end in zip(edges[:-1].tolist(), edges[1:].tolist()):
        yield int(sorted_pes[start]), start, end


def _count_misses_vec(
    run_keys: np.ndarray,
    run_arrs: np.ndarray,
    run_pages: np.ndarray,
    policy: str,
    capacity: int,
) -> tuple[int | None, int]:
    """``(miss count or None, distinct keys)`` for one PE's runs.

    A None miss count means the sequence is order-dependent under this
    policy (or too expensive to decide columnarly) and must replay
    through the scalar cache.  The distinct-key count is exact either
    way — it is a by-product of the same sort the decision needs.
    """
    n_runs = run_keys.size
    if policy == "direct":
        # The slot holds the key of the most recent run hashed to it;
        # a stable sort by slot makes that previous run adjacent.
        # Mirrors DirectMappedCache._slot_of exactly.
        slots = (run_pages + 0x9E37 * run_arrs) % capacity
        order = np.argsort(slots, kind="stable")
        slot_sorted = slots[order]
        key_sorted = run_keys[order]
        hit_sorted = (slot_sorted[1:] == slot_sorted[:-1]) & (
            key_sorted[1:] == key_sorted[:-1]
        )
        distinct = int(np.unique(run_keys).size)
        return n_runs - int(hit_sorted.sum()), distinct

    # Previous occurrence of each run's key, via one stable sort.
    order = np.argsort(run_keys, kind="stable")
    key_sorted = run_keys[order]
    prev = np.full(n_runs, -1, dtype=np.int64)
    same = key_sorted[1:] == key_sorted[:-1]
    prev[order[1:][same]] = order[:-1][same]
    cold = prev < 0
    n_unique = int(cold.sum())
    if n_unique <= capacity:
        # Fits in cache: no policy ever evicts, so every repeat hits.
        return n_unique, n_unique
    if policy == "fifo":
        solved = _fifo_fixed_point(run_keys, capacity)
        if solved is None:
            return None, n_unique
        return int(solved[0].sum()), n_unique
    if policy != "lru":
        # The random policy's seeded RNG must be consulted in eviction
        # order: scalar replay.
        return None, n_unique
    repeats = np.flatnonzero(~cold)
    windows = repeats - prev[repeats] - 1
    # Run-length compression bounds the distinct count by the window
    # length, so short windows are guaranteed LRU hits.
    undecided = repeats[windows >= capacity]
    misses = n_unique
    if undecided.size:
        starts = prev[undecided] + 1
        spans = undecided - starts
        total = int(spans.sum())
        if total > max(_WINDOW_BUDGET, 8 * n_runs):
            return None, n_unique
        # One batched distinct-count over every undecided window at
        # once: gather all window elements, tag each with its window
        # id, and count first occurrences per (window, key) group via
        # a single lexsort.  Replaces a per-window ``np.unique`` loop
        # whose Python overhead dominated short-trace replays with
        # many modest windows (the hydro_2d small-n regression).
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(spans) - spans, spans
        )
        flat = run_keys[np.repeat(starts, spans) + offsets]
        win_id = np.repeat(
            np.arange(undecided.size, dtype=np.int64), spans
        )
        order = np.lexsort((flat, win_id))
        k_sorted = flat[order]
        w_sorted = win_id[order]
        first = np.empty(total, dtype=bool)
        first[0] = True
        first[1:] = (k_sorted[1:] != k_sorted[:-1]) | (
            w_sorted[1:] != w_sorted[:-1]
        )
        distinct_per_window = np.bincount(
            w_sorted[first], minlength=undecided.size
        )
        misses += int((distinct_per_window >= capacity).sum())
    return misses, n_unique


def _count_misses_scalar(
    run_arrs: np.ndarray, run_pages: np.ndarray, policy: str, capacity: int
) -> int:
    """The scalar engine's own probe loop, one ``access`` per run."""
    cache = make_cache(policy, capacity)
    misses = 0
    for arr, page in zip(run_arrs.tolist(), run_pages.tolist()):
        if not cache.access((arr, page)):
            misses += 1
    return misses


def simulate_vec(
    trace: Trace,
    config: MachineConfig,
    telemetry: dict[str, int] | None = None,
) -> SimResult:
    """Classify every access in ``trace`` under ``config``, columnarly.

    Bit-identical to :func:`repro.core.simulator.simulate` on every
    counter.  ``telemetry``, when given, receives ``vectorised_pes``
    and ``fallback_pes`` — how many PE cache walks each path decided.
    """
    n_pes = config.n_pes
    ps = config.page_size
    tables = [PageTable(size, ps) for size in trace.array_sizes]
    stats = AccessStats(n_pes, trace.array_names)
    if telemetry is not None:
        telemetry["vectorised_pes"] = 0
        telemetry["fallback_pes"] = 0

    if trace.n_instances == 0:
        return SimResult(
            config,
            stats,
            np.zeros(n_pes, dtype=np.int64),
            np.zeros(n_pes, dtype=np.int64),
        )

    columns = trace.columnar()

    with span("phase.classify_vec"):
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
        if (
            config.reduction_strategy == "subrange"
            and trace.reduction_mask.any()
        ):
            # The combine phase is inherently ordered per accumulator;
            # charge it through the scalar engine's shared routine.
            with span("phase.fallback_scalar"):
                _charge_subrange_combine(
                    trace, tables, config, exec_pe, stats
                )
        return SimResult(config, stats, page_fetches, distinct_pages)

    if trace.n_reads == 0:
        return finish(
            np.zeros(n_pes, dtype=np.int64), np.zeros(n_pes, dtype=np.int64)
        )

    with span("phase.classify_vec"):
        r_exec = exec_pe[columns.r_instance]
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

    with span("phase.cache_sim_vec"):
        nl_exec = r_exec[nonlocal_idx]
        nl_arr = columns.r_arr64[nonlocal_idx]
        nl_page = r_pages[nonlocal_idx]
        composite = nl_arr * (1 << 40) + nl_page
        # One stable sort groups every PE's accesses contiguously while
        # preserving each PE's program order — the segmented mirror of
        # the scalar engine's per-PE boolean masks.
        order = np.argsort(nl_exec, kind="stable")
        seg_exec = nl_exec[order]
        seg_keys = composite[order]

    if not config.has_cache:
        with span("phase.cache_sim_vec"):
            remote = np.bincount(nl_exec, minlength=n_pes)
            stats.add_vector(AccessKind.REMOTE_READ, remote)
            page_fetches += remote
            for pe, start, end in _segments(seg_exec):
                distinct_pages[pe] = np.unique(seg_keys[start:end]).size
        return finish(page_fetches, distinct_pages)

    cached_per_pe = np.zeros(n_pes, dtype=np.int64)
    remote_per_pe = np.zeros(n_pes, dtype=np.int64)
    pending: list[tuple[int, np.ndarray, np.ndarray, int]] = []
    with span("phase.cache_sim_vec"):
        capacity = config.cache_pages
        for pe, start, end in _segments(seg_exec):
            keys = seg_keys[start:end]
            # Run-length compression: consecutive touches of one page
            # collapse into a single cache probe.
            change = np.empty(keys.size, dtype=bool)
            change[0] = True
            np.not_equal(keys[1:], keys[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            run_keys = keys[starts]
            # Unpack the composite back into (array, page) — exact,
            # since pages occupy the low 40 bits by construction.
            run_arrs = run_keys >> 40
            run_pages = run_keys & ((1 << 40) - 1)
            misses, distinct_pages[pe] = _count_misses_vec(
                run_keys, run_arrs, run_pages, config.cache_policy, capacity
            )
            if misses is None:
                pending.append((pe, run_arrs, run_pages, keys.size))
                continue
            if telemetry is not None:
                telemetry["vectorised_pes"] += 1
            # Per run: a hit caches `length` reads; a miss fetches the
            # page (1 remote read) and caches the remaining length-1.
            cached_per_pe[pe] = keys.size - misses
            remote_per_pe[pe] = misses
    if pending:
        with span("phase.fallback_scalar"):
            for pe, run_arrs, run_pages, n_accesses in pending:
                misses = _count_misses_scalar(
                    run_arrs, run_pages, config.cache_policy, capacity
                )
                if telemetry is not None:
                    telemetry["fallback_pes"] += 1
                cached_per_pe[pe] = n_accesses - misses
                remote_per_pe[pe] = misses
    stats.add_vector(AccessKind.CACHED_READ, cached_per_pe)
    stats.add_vector(AccessKind.REMOTE_READ, remote_per_pe)
    page_fetches += remote_per_pe
    return finish(page_fetches, distinct_pages)
