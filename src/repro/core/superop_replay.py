"""Super-op replay: untimed counters in O(unique behavior).

Replays a :class:`~repro.ir.superops.SuperOpTrace` against one machine
configuration with results bit-identical to
``simulate(sot.expand(), config)`` — without materialising the trips.

The engine walks the trace-order segments.  Residual (flat) segments
are classified vectorised and cache-walked run-length compressed,
exactly like :func:`repro.core.simulator.simulate`, but against
*persistent* per-PE caches so segment boundaries are invisible:
re-probing a just-touched page is a guaranteed hit with an identical
state effect under every policy (LRU's ``move_to_end`` is idempotent;
FIFO/random/direct hits are no-ops; the random policy's RNG is only
consulted on evictions), so splitting a PE's access stream at any
point is exact.

A super-op segment is evaluated *piecewise*: the page number of an
affine access stream ``(f0 + k*d) // page_size`` is a staircase in the
trip counter ``k``, so merging every stream's breakpoints splits the
trips into pieces within which all write owners, all read owners and
all read localities are constant.  Per piece, write and local-read
counters are closed-form (count x piece length, vectorised across
pieces); only pieces with nonlocal reads touch the caches — one probed
trip, then, if every distinct page of the per-trip sequence is still
resident (the steady state: an all-hit trip provably leaves every
policy's state unchanged), the remaining trips collapse into
``(trips-1) x touches`` cached reads.  Bodies whose cache state does
not reach that fixed point fall back to an explicit scalar trip loop —
exactness first.

The probes themselves are decided *columnarly* whenever a closed
form is exact.  Under LRU, with every piece's distinct key set
fitting in the cache, a reduced run (one probe per steady-state
window) misses iff its key is new to the op or at least ``capacity``
distinct keys were touched since its previous run — the classic
stack-distance property, evaluated for every PE's whole op segment in
a handful of array passes (the same batched window-distinct trick as
``vec_simulator._count_misses_vec``).  A *warm* LRU entry cache is
covered too: the live recency stack seeds each first-in-op touch's
distance (the stack is, by the LRU stack property, an exact summary
of pre-op history), so back-to-back ops over the same arrays stay on
the fast path.  Under FIFO the miss mask is the unique fixed point of
the eviction-epoch rule (``vec_simulator._fifo_fixed_point``), run
over the reduced stream per PE from a cold cache, with a per-piece
residency check guarding the all-hit fast-forward (FIFO hits never
refresh admission epochs, so fitting in the cache is not enough).
The exact exit state — last ``capacity`` distinct keys in last-touch
order for LRU, last ``capacity`` admissions in admission order for
FIFO — is rebuilt afterwards, so later segments are none the wiser.
PEs no closed form covers — random/direct policies, warm FIFO
caches, a piece outgrowing the cache, an over-budget or
non-convergent profile — take the per-piece path above instead; see
``docs/fastpaths.md`` for the full decision tree.

Everything capacity- and policy-independent — piece boundaries, owner
classification, the write/local closed-form sums, the reduced runs
and their reuse-distance profile — is compiled once per (op, machine
geometry) into an :class:`_OpProgram` memoised on the trace, so warm
replays of a stored trace (the store's steady state) reduce to
comparing the distance profile against the cache capacity and a
handful of segment sums.
"""

from __future__ import annotations

from typing import MutableMapping

import numpy as np

from ..cache import make_cache
from ..ir.superops import SuperOp, SuperOpTrace
from ..memory.pages import PageTable
from ..obs.spans import span
from .access import AccessKind
from .simulator import MachineConfig, SimResult, _owners_by_array, simulate
from .stats import AccessStats
from .vec_simulator import _WINDOW_BUDGET, _fifo_fixed_point

__all__ = ["replay_superops"]

#: Composite (array, page) key packing, as in the flat simulators.
_KEY_SHIFT = 1 << 40


class _OpProgram:
    """One super-op compiled against one machine *geometry*.

    Every field is a pure function of (op, page size, PE count,
    partition scheme) — independent of cache policy, capacity and warm
    cache state — so repeated replays of one stored trace (the store's
    warm-replay case) skip classification and the reuse-distance
    passes entirely and go straight to the decisions.
    ``dist`` is the op's reuse-distance profile over reduced runs
    (one probe per steady-state window): under LRU a re-touch misses
    iff its distance reaches the cache capacity.
    """

    __slots__ = (
        "n_pieces",
        "piece_len",
        "writes",
        "local",
        "r_exec",
        "r_pages",
        "nl_mask",
        "rpe",
        "rq",
        "ra",
        "rp",
        "touches",
        "pe_ids",
        "pe_starts",
        "base_per_pe",
        "maxdist",
        "cold",
        "re_idx",
        "dist",
        "over_budget",
        "firsts",
        "tail_pos",
        "tail_pe",
        "tail_bounds",
        "resid_pos",
        "resid_end",
    )


class _Replay:
    """One replay pass: persistent per-PE caches + counter state."""

    def __init__(
        self,
        sot: SuperOpTrace,
        config: MachineConfig,
        telemetry: MutableMapping | None,
    ) -> None:
        self.sot = sot
        self.config = config
        self.telemetry = telemetry
        self.ps = config.page_size
        self.n_pes = config.n_pes
        self.tables = [PageTable(size, self.ps) for size in sot.array_sizes]
        self.writes = np.zeros(self.n_pes, dtype=np.int64)
        self.local = np.zeros(self.n_pes, dtype=np.int64)
        self.cached = np.zeros(self.n_pes, dtype=np.int64)
        self.remote = np.zeros(self.n_pes, dtype=np.int64)
        self.caches = [
            make_cache(config.cache_policy, config.cache_pages)
            for _ in range(self.n_pes)
        ]
        self.distinct: list[list[np.ndarray]] = [
            [] for _ in range(self.n_pes)
        ]
        self.fallback_pes: set[int] = set()
        self.n_pieces = 0
        self.n_flat_ops = 0
        self.closed_pe_ops = 0
        self.piece_pe_ops = 0

    # -- shared accounting helpers ---------------------------------------------
    def _owners(self, arr_ids: np.ndarray, pages: np.ndarray) -> np.ndarray:
        return _owners_by_array(
            arr_ids, pages, self.tables, self.config.partition, self.n_pes
        )

    def _probe(self, pe: int, arr: int, page: int, touches: int) -> None:
        """One RLE run: ``touches`` consecutive touches of one page."""
        if self.caches[pe].access((arr, page)):
            self.cached[pe] += touches
        else:
            self.remote[pe] += 1
            self.cached[pe] += touches - 1

    def _walk_pe(
        self, pe: int, arrs: np.ndarray, pages: np.ndarray, keys: np.ndarray
    ) -> None:
        """Run-length-compressed cache walk of one PE's access slice."""
        change = np.empty(len(keys), dtype=bool)
        change[0] = True
        np.not_equal(keys[1:], keys[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        lengths = np.diff(np.append(starts, len(keys)))
        for start, length in zip(starts.tolist(), lengths.tolist()):
            self._probe(pe, int(arrs[start]), int(pages[start]), length)
        self.distinct[pe].append(np.unique(keys))

    # -- flat (residual) segments ----------------------------------------------
    def _flat_columns(
        self,
        w_arr: np.ndarray,
        w_flat: np.ndarray,
        rpi: np.ndarray,
        r_arr: np.ndarray,
        r_flat: np.ndarray,
    ) -> None:
        """Classify + cache-walk explicit flat columns (trace order)."""
        with span("phase.classify"):
            exec_pe = self._owners(w_arr, w_flat // self.ps)
            self.writes += np.bincount(exec_pe, minlength=self.n_pes)
            if len(r_arr) == 0:
                return
            r_exec = np.repeat(exec_pe, rpi)
            r_pages = r_flat // self.ps
            r_owner = self._owners(r_arr, r_pages)
            local_mask = r_owner == r_exec
            self.local += np.bincount(
                r_exec[local_mask], minlength=self.n_pes
            )
            nonlocal_idx = np.flatnonzero(~local_mask)
        if nonlocal_idx.size == 0:
            return
        with span("phase.cache_sim"):
            nl_exec = r_exec[nonlocal_idx]
            nl_arr = r_arr[nonlocal_idx].astype(np.int64)
            nl_page = r_pages[nonlocal_idx]
            composite = nl_arr * _KEY_SHIFT + nl_page
            order = np.argsort(nl_exec, kind="stable")
            sorted_pes = nl_exec[order]
            bounds = np.flatnonzero(
                np.diff(np.concatenate(([-1], sorted_pes, [-1])))
            )
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                idx = order[lo:hi]
                self._walk_pe(
                    int(sorted_pes[lo]),
                    nl_arr[idx],
                    nl_page[idx],
                    composite[idx],
                )

    def _flat_segment(self, lo: int, hi: int) -> None:
        sot = self.sot
        rlo, rhi = int(sot.f_r_ptr[lo]), int(sot.f_r_ptr[hi])
        self._flat_columns(
            sot.f_w_arr[lo:hi],
            sot.f_w_flat[lo:hi],
            np.diff(sot.f_r_ptr[lo : hi + 1]),
            sot.f_r_arr[rlo:rhi],
            sot.f_r_flat[rlo:rhi],
        )

    def _op_as_flat(self, op: SuperOp) -> None:
        """Degenerate op (pieces ~ trips): expand locally, walk flat."""
        self.n_flat_ops += 1
        m = op.trips
        k = np.arange(m, dtype=np.int64)[:, None]
        self._flat_columns(
            np.tile(op.b_w_arr, m),
            (op.b_w_flat[None, :] + k * op.w_stride[None, :]).ravel(),
            np.tile(np.diff(op.b_r_ptr), m),
            np.tile(op.b_r_arr, m),
            (op.b_r_flat[None, :] + k * op.r_stride[None, :]).ravel(),
        )

    # -- super-op segments ------------------------------------------------------
    @staticmethod
    def _stream_breaks(f0: int, d: int, ps: int, m: int) -> np.ndarray:
        """Trip indices in ``(0, m)`` where ``(f0 + k*d) // ps`` steps."""
        if d == 0 or m <= 1:
            return np.zeros(0, dtype=np.int64)
        first = f0 // ps
        last = (f0 + (m - 1) * d) // ps
        if d > 0:
            pages = np.arange(first + 1, last + 1, dtype=np.int64)
            # ceildiv(P*ps - f0, d): first trip on or past page P.
            return -((f0 - pages * ps) // d)
        pages = np.arange(first - 1, last - 1, -1, dtype=np.int64)
        # First trip at or below page P: f0 + k*d <= (P+1)*ps - 1.
        return -(-(f0 - (pages + 1) * ps + 1) // (-d))

    def _op_breaks(self, op: SuperOp) -> np.ndarray | None:
        """Merged piece boundaries of all streams, or None if the
        piecewise form degenerates (about one piece per trip)."""
        m = op.trips
        ps = self.ps
        # Cheap pre-gate on the breakpoint count before generating any.
        est = 0
        for f0, d in zip(op.b_w_flat.tolist(), op.w_stride.tolist()):
            est += abs(d) * (m - 1) // ps + 1 if d else 0
        for f0, d in zip(op.b_r_flat.tolist(), op.r_stride.tolist()):
            est += abs(d) * (m - 1) // ps + 1 if d else 0
        if est >= m:
            return None
        parts = [np.array([0, m], dtype=np.int64)]
        for f0, d in zip(op.b_w_flat.tolist(), op.w_stride.tolist()):
            parts.append(self._stream_breaks(f0, d, ps, m))
        for f0, d in zip(op.b_r_flat.tolist(), op.r_stride.tolist()):
            parts.append(self._stream_breaks(f0, d, ps, m))
        boundaries = np.unique(np.concatenate(parts))
        if len(boundaries) - 1 >= m:
            return None
        return boundaries

    def _op_segment(self, op: SuperOp) -> None:
        prog = self._op_program(op)
        if prog is None:
            self._op_as_flat(op)
            return
        self.n_pieces += prog.n_pieces
        self.writes += prog.writes
        self.local += prog.local
        if prog.rpe is None:  # the op has no nonlocal reads at all
            return
        with span("phase.cache_sim"):
            slow_pes = self._op_decide(prog)
            self.closed_pe_ops += prog.pe_ids.size - len(slow_pes)
            self.piece_pe_ops += len(slow_pes)
            if slow_pes:
                slow = prog.nl_mask & np.isin(
                    prog.r_exec, sorted(slow_pes)
                )
                for q in np.flatnonzero(slow.any(axis=1)).tolist():
                    self._op_piece(
                        op,
                        int(prog.piece_len[q]),
                        np.flatnonzero(slow[q]),
                        prog.r_exec[q],
                        prog.r_pages[q],
                    )

    def _op_program(self, op: SuperOp) -> "_OpProgram | None":
        """The op compiled against this machine geometry, memoised on
        the trace: warm replays of one stored trace compile once.
        ``None`` marks an op whose piecewise form degenerates."""
        memo = self.sot.__dict__.get("_op_programs")
        if memo is None:
            memo = {}
            object.__setattr__(self.sot, "_op_programs", memo)
        key = (
            id(op),
            self.ps,
            self.n_pes,
            type(self.config.partition).__name__,
            self.config.partition.label,
        )
        if key not in memo:
            with span("phase.classify"):
                memo[key] = self._compile_op(op)
        return memo[key]

    def _compile_op(self, op: SuperOp) -> "_OpProgram | None":
        boundaries = self._op_breaks(op)
        if boundaries is None:
            return None
        prog = _OpProgram()
        piece_len = np.diff(boundaries)
        rep = boundaries[:-1]  # representative trip per piece
        n_pieces = len(rep)
        p = op.body_len
        prog.n_pieces = n_pieces
        prog.piece_len = piece_len
        prog.rpe = None
        w_pages = (
            op.b_w_flat[None, :] + rep[:, None] * op.w_stride[None, :]
        ) // self.ps
        exec_pe = self._owners(
            np.tile(op.b_w_arr.astype(np.int64), n_pieces),
            w_pages.ravel(),
        ).reshape(n_pieces, p)
        prog.writes = np.zeros(self.n_pes, dtype=np.int64)
        np.add.at(
            prog.writes, exec_pe.ravel(), np.repeat(piece_len, p)
        )
        prog.local = np.zeros(self.n_pes, dtype=np.int64)
        n_reads = op.n_body_reads
        if n_reads == 0:
            return prog
        r_pages = (
            op.b_r_flat[None, :] + rep[:, None] * op.r_stride[None, :]
        ) // self.ps
        owner = self._owners(
            np.tile(op.b_r_arr.astype(np.int64), n_pieces),
            r_pages.ravel(),
        ).reshape(n_pieces, n_reads)
        # Body row of each read; its executing PE per piece.
        row = (
            np.searchsorted(
                op.b_r_ptr,
                np.arange(n_reads, dtype=np.int64),
                side="right",
            )
            - 1
        )
        r_exec = exec_pe[:, row]
        local_mask = owner == r_exec
        weights = np.broadcast_to(piece_len[:, None], local_mask.shape)
        np.add.at(prog.local, r_exec[local_mask], weights[local_mask])
        prog.r_exec = r_exec
        prog.r_pages = r_pages
        prog.nl_mask = ~local_mask
        if not prog.nl_mask.any():
            return prog
        # -- reduced runs: one probe per steady-state window -----------
        # PE-major entry order (stable: piece-then-touch order kept),
        # RLE'd but never merged across piece or PE bounds.
        q_idx, col = np.nonzero(prog.nl_mask)
        pes = r_exec[prog.nl_mask]
        order = np.argsort(pes, kind="stable")
        pe_s = pes[order]
        q_s = q_idx[order]
        a_s = op.b_r_arr.astype(np.int64)[col][order]
        g_s = r_pages[prog.nl_mask][order]
        k_s = a_s * _KEY_SHIFT + g_s
        n = len(order)
        brk = np.empty(n, dtype=bool)
        brk[0] = True
        brk[1:] = (
            (k_s[1:] != k_s[:-1])
            | (q_s[1:] != q_s[:-1])
            | (pe_s[1:] != pe_s[:-1])
        )
        starts = np.flatnonzero(brk)
        t_len = np.diff(np.append(starts, n))  # touches per trip
        rk = k_s[starts]
        rq = q_s[starts]
        rpe = pe_s[starts]
        prog.rpe = rpe
        prog.rq = rq
        prog.ra = a_s[starts]
        prog.rp = g_s[starts]
        # Each run's probe plus its (trips - 1) all-hit fast-forward.
        prog.touches = t_len * piece_len[rq]
        n_runs = len(rk)
        seg = np.flatnonzero(np.diff(np.concatenate(([-1], rpe, [-1]))))
        prog.pe_starts = seg[:-1]
        prog.pe_ids = rpe[prog.pe_starts]
        prog.base_per_pe = np.add.reduceat(prog.touches, prog.pe_starts)
        # Largest per-piece distinct key count of each PE: the all-hit
        # fast-forward is exact for LRU iff it fits in the cache.
        by_piece = np.lexsort((rk, rq, rpe))
        k2, q2, pe2 = rk[by_piece], rq[by_piece], rpe[by_piece]
        group = np.empty(n_runs, dtype=bool)
        group[0] = True
        group[1:] = (q2[1:] != q2[:-1]) | (pe2[1:] != pe2[:-1])
        fresh = group.copy()
        fresh[1:] |= k2[1:] != k2[:-1]
        gid = np.cumsum(group) - 1
        prog.maxdist = np.zeros(self.n_pes, dtype=np.int64)
        np.maximum.at(
            prog.maxdist,
            pe2[np.flatnonzero(group)],
            np.bincount(gid[fresh]),
        )
        # Previous run of the same (PE, key) -> cold mask + the reuse-
        # distance profile.  Runs between two same-PE runs all belong
        # to that PE's contiguous block, so distances never mix PEs.
        by_key = np.lexsort((rk, rpe))
        sk, spe = rk[by_key], rpe[by_key]
        dup = np.empty(n_runs, dtype=bool)
        dup[0] = False
        dup[1:] = (sk[1:] == sk[:-1]) & (spe[1:] == spe[:-1])
        prev = np.full(n_runs, -1, dtype=np.int64)
        di = np.flatnonzero(dup)
        prev[by_key[di]] = by_key[di - 1]
        prog.cold = prev < 0
        prog.re_idx = np.flatnonzero(~prog.cold)
        prog.dist = np.zeros(prog.re_idx.size, dtype=np.int64)
        prog.over_budget = False
        if prog.re_idx.size:
            w_start = prev[prog.re_idx] + 1
            spans = prog.re_idx - w_start
            total = int(spans.sum())
            if total > max(_WINDOW_BUDGET, 8 * n_runs):
                prog.over_budget = True
            elif total:
                # Batched distinct-per-window, as in the vec engine.
                offsets = np.arange(total, dtype=np.int64) - np.repeat(
                    np.cumsum(spans) - spans, spans
                )
                flat = rk[np.repeat(w_start, spans) + offsets]
                win = np.repeat(
                    np.arange(prog.re_idx.size, dtype=np.int64), spans
                )
                o = np.lexsort((flat, win))
                kf, wf = flat[o], win[o]
                first = np.empty(total, dtype=bool)
                first[0] = True
                first[1:] = (kf[1:] != kf[:-1]) | (wf[1:] != wf[:-1])
                prog.dist = np.bincount(
                    wf[first], minlength=prog.re_idx.size
                )
        # Distinct fetched keys per PE (= the cold runs, PE-major).
        firsts = np.flatnonzero(~dup)
        fpe, fk = spe[firsts], sk[firsts]
        bounds = np.flatnonzero(
            np.diff(np.concatenate(([-1], fpe, [-1])))
        )
        prog.firsts = [
            (int(fpe[lo]), fk[lo:hi])
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ]
        # Last run of each (PE, key), PE-major then chronological: the
        # final LRU state is the tail `capacity` of each PE segment.
        last = np.empty(n_runs, dtype=bool)
        last[-1] = True
        last[:-1] = (sk[1:] != sk[:-1]) | (spe[1:] != spe[:-1])
        last_pos = by_key[last]
        tail_order = np.lexsort((last_pos, rpe[last_pos]))
        prog.tail_pos = last_pos[tail_order]
        prog.tail_pe = rpe[prog.tail_pos]
        prog.tail_bounds = np.flatnonzero(
            np.diff(np.concatenate(([-1], prog.tail_pe, [-1])))
        )
        # FIFO residency-check sites.  The all-hit fast-forward of a
        # multi-trip piece is exact only if its probe block ends with
        # every one of the piece's keys still resident — which under
        # FIFO (hits never refresh admission epochs) is *not* implied
        # by fitting in the cache.  Record, for each (PE, piece, key)
        # group of every multi-trip piece, the key's last in-block run
        # and the block's final run; the replay-time check compares
        # their fill epochs against the capacity.
        glast = np.empty(n_runs, dtype=bool)
        glast[-1] = True
        glast[:-1] = fresh[1:]
        cand = by_piece[glast]
        cand = cand[piece_len[rq[cand]] > 1]
        blk = np.empty(n_runs, dtype=bool)
        blk[0] = True
        blk[1:] = (rq[1:] != rq[:-1]) | (rpe[1:] != rpe[:-1])
        blk_ends = np.append(np.flatnonzero(blk)[1:], n_runs) - 1
        prog.resid_pos = cand
        prog.resid_end = blk_ends[(np.cumsum(blk) - 1)[cand]]
        return prog

    def _op_decide(self, prog: "_OpProgram") -> set[int]:
        """Apply one compiled op's cache decisions columnarly.

        Under LRU a reduced run misses iff its key is cold or its
        reuse distance reaches the capacity; a *warm* entry cache is
        covered by seeding each cold run's distance against the live
        recency stack (:meth:`_seeded_cold`).  Under FIFO the miss
        mask is the unique fixed point of the eviction-epoch rule
        (:func:`~repro.core.vec_simulator._fifo_fixed_point`), from a
        cold cache, with a residency check guarding each multi-trip
        piece's all-hit fast-forward.  Returns the PEs the closed
        forms do not cover (random/direct policies, warm FIFO caches,
        an oversized piece, an over-budget or non-convergent
        profile); the caller replays those per piece.  The exact exit
        cache state is rebuilt per policy (:meth:`_rebuild_exit`), so
        later segments are none the wiser.
        """
        capacity = self.config.cache_pages
        policy = self.config.cache_policy
        all_pes = set(prog.pe_ids.tolist())
        if capacity == 0:
            return all_pes
        if policy == "lru":
            decided = self._decide_lru(prog, capacity, all_pes)
        elif policy == "fifo":
            decided = self._decide_fifo(prog, capacity, all_pes)
        else:
            decided = None
        if decided is None:
            return all_pes
        miss, slow = decided
        if slow == all_pes:
            return slow
        if not slow:
            miss_per_pe = np.add.reduceat(
                miss.astype(np.int64), prog.pe_starts
            )
            self.cached[prog.pe_ids] += prog.base_per_pe - miss_per_pe
            self.remote[prog.pe_ids] += miss_per_pe
        else:
            kept = ~np.isin(prog.rpe, sorted(slow))
            ki = np.flatnonzero(kept)
            mi = np.flatnonzero(miss & kept)
            np.add.at(self.cached, prog.rpe[ki], prog.touches[ki])
            np.subtract.at(self.cached, prog.rpe[mi], 1)
            np.add.at(self.remote, prog.rpe[mi], 1)
        for pe, fk in prog.firsts:
            if pe not in slow:
                self.distinct[pe].append(fk)
        self._rebuild_exit(prog, miss, slow, capacity, policy)
        return slow

    def _decide_lru(
        self, prog: "_OpProgram", capacity: int, all_pes: set[int]
    ) -> tuple[np.ndarray, set[int]] | None:
        """LRU miss mask + uncovered PEs, or None to uncover the op.

        Cold caches: the compiled reuse-distance profile decides every
        run directly.  Warm caches: exact, provided the seeded cold
        decisions stay within budget — the in-op repeat distances are
        unaffected by pre-op history (their windows lie entirely
        inside the op), so only the cold runs are rescored.
        """
        if prog.over_budget:
            return None
        slow = {pe for pe in all_pes if prog.maxdist[pe] > capacity}
        miss = prog.cold.copy()
        if prog.re_idx.size:
            miss[prog.re_idx[prog.dist >= capacity]] = True
        pe_ends = np.append(prog.pe_starts[1:], prog.rpe.size)
        for pos, pe in enumerate(prog.pe_ids.tolist()):
            if pe in slow or not len(self.caches[pe]):
                continue
            lo, hi = int(prog.pe_starts[pos]), int(pe_ends[pos])
            seeded = self._seeded_cold(pe, lo, hi, prog, capacity)
            if seeded is None:
                slow.add(pe)
                continue
            miss[lo + np.flatnonzero(prog.cold[lo:hi])] = seeded
        return miss, slow

    def _seeded_cold(
        self, pe: int, lo: int, hi: int, prog: "_OpProgram", capacity: int
    ) -> np.ndarray | None:
        """Per-cold-run miss decisions for one warm LRU PE, or None.

        The LRU stack property makes the entry cache a perfect
        summary of pre-op history: a key resident at depth ``d`` from
        the MRU end was last touched exactly ``d`` distinct keys ago
        (anything touched after it that is *not* above it would have
        been evicted first), and an absent key's reuse distance
        already reached the capacity at its eviction and only grows.
        So each cold run of an absent key is an exact miss, and each
        cold run of a resident key scores an exact distance over the
        *mini-stream* ``[entry stack, LRU->MRU] + [this PE's reduced
        runs, chronological]`` — the window from the key's stack slot
        to the run covers precisely the stack keys above it plus the
        op keys touched before it, and the batched distinct count
        handles their overlap.  Returns None when the windows blow
        the budget (the caller replays the PE per piece instead).
        """
        stack_pairs = self.caches[pe].resident_keys()  # LRU -> MRU
        s = len(stack_pairs)
        stack = np.array(
            [a * _KEY_SHIFT + g for a, g in stack_pairs], dtype=np.int64
        )
        seg_keys = prog.ra[lo:hi] * _KEY_SHIFT + prog.rp[lo:hi]
        ci = np.flatnonzero(prog.cold[lo:hi])
        cold_keys = seg_keys[ci]
        sorter = np.argsort(stack)
        ssorted = stack[sorter]
        loc = np.minimum(np.searchsorted(ssorted, cold_keys), s - 1)
        present = ssorted[loc] == cold_keys
        miss = ~present
        start = np.where(present, sorter[loc] + 1, 0)
        end = s + ci  # mini-stream position of the cold run itself
        span = end - start
        undecided = np.flatnonzero(present & (span >= capacity))
        if undecided.size:
            spans = span[undecided]
            total = int(spans.sum())
            if total > max(_WINDOW_BUDGET, 8 * (s + hi - lo)):
                return None
            ministream = np.concatenate([stack, seg_keys])
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(spans) - spans, spans
            )
            flat = ministream[np.repeat(start[undecided], spans) + offsets]
            win = np.repeat(
                np.arange(undecided.size, dtype=np.int64), spans
            )
            o = np.lexsort((flat, win))
            kf, wf = flat[o], win[o]
            first = np.empty(total, dtype=bool)
            first[0] = True
            first[1:] = (kf[1:] != kf[:-1]) | (wf[1:] != wf[:-1])
            distinct = np.bincount(wf[first], minlength=undecided.size)
            miss[undecided[distinct >= capacity]] = True
        return miss

    def _decide_fifo(
        self, prog: "_OpProgram", capacity: int, all_pes: set[int]
    ) -> tuple[np.ndarray, set[int]] | None:
        """FIFO miss mask + uncovered PEs, or None to uncover the op.

        Runs the eviction-epoch fixed point over the op's reduced-run
        stream, segmented per PE (the per-PE caches are independent).
        Warm PEs are uncovered — a FIFO admission queue's epochs are
        not reconstructible from the resident set alone.  The
        residency check uncovers a PE the moment any multi-trip piece
        would fast-forward with an already-evicted key (``E - I > C``
        for the block-end fill count ``E`` and the key's inclusive
        admission epoch ``I`` at its last in-block run); decisions
        past a PE's first violation are unreliable, which is fine
        because that whole PE replays per piece — and up to the first
        violation the fixed point equals the true simulation, so the
        first violation is always detected.
        """
        slow = {pe for pe in all_pes if len(self.caches[pe])}
        if slow == all_pes:
            return None
        keys = prog.ra * _KEY_SHIFT + prog.rp
        solved = _fifo_fixed_point(keys, capacity, seg=prog.rpe)
        if solved is None:
            return None
        miss, admit = solved
        if prog.resid_pos.size:
            fills = np.cumsum(miss) - miss
            end_fills = fills[prog.resid_end] + miss[prog.resid_end]
            viol = end_fills - admit[prog.resid_pos] > capacity
            if viol.any():
                slow |= set(prog.rpe[prog.resid_pos[viol]].tolist())
        return miss, slow

    def _rebuild_exit(
        self,
        prog: "_OpProgram",
        miss: np.ndarray,
        slow: set[int],
        capacity: int,
        policy: str,
    ) -> None:
        """Rebuild each covered PE's exact exit cache state.

        LRU: the final stack is the last ``capacity`` distinct keys
        in last-touch order — preceded, for a warm entry cache, by
        its *untouched* resident keys in entry order (untouched keys
        keep their relative recency and sit below everything the op
        touched; re-accessing the whole virtual stack bottom-to-top
        lets the cache itself evict whatever fell off).  FIFO: the
        queue is the last ``capacity`` admissions in admission order,
        i.e. the tail of the PE's miss sequence — keys within any
        ``capacity`` consecutive admissions are distinct (a key must
        be evicted, ``capacity`` fills after admission, before it can
        be re-admitted), so replaying them into the cold cache is
        exact.
        """
        if policy == "fifo":
            pe_ends = np.append(prog.pe_starts[1:], prog.rpe.size)
            for pos, pe in enumerate(prog.pe_ids.tolist()):
                if pe in slow:
                    continue
                lo, hi = int(prog.pe_starts[pos]), int(pe_ends[pos])
                mi = lo + np.flatnonzero(miss[lo:hi])
                cache = self.caches[pe]  # cold: warm FIFO is uncovered
                for i in mi[-capacity:].tolist():
                    cache.access((int(prog.ra[i]), int(prog.rp[i])))
            return
        first_keys = dict(prog.firsts)
        tb = prog.tail_bounds
        for lo, hi in zip(tb[:-1].tolist(), tb[1:].tolist()):
            pe = int(prog.tail_pe[lo])
            if pe in slow:
                continue
            cache = self.caches[pe]
            if len(cache):
                touched = set(first_keys[pe].tolist())
                entry = [
                    pair
                    for pair in cache.resident_keys()
                    if pair[0] * _KEY_SHIFT + pair[1] not in touched
                ]
                cache.clear()
                for pair in entry:
                    cache.access(pair)
            for i in prog.tail_pos[max(lo, hi - capacity) : hi].tolist():
                cache.access((int(prog.ra[i]), int(prog.rp[i])))

    def _op_piece(
        self,
        op: SuperOp,
        trips: int,
        nonlocal_ts: np.ndarray,
        r_exec: np.ndarray,
        r_pages: np.ndarray,
    ) -> None:
        """Cache-walk one piece: per-trip sequences are constant, so
        probe one trip, then fast-forward the steady state (or fall
        back to the scalar trip loop when there is none)."""
        pes = r_exec[nonlocal_ts]
        arrs = op.b_r_arr[nonlocal_ts].astype(np.int64)
        pages = r_pages[nonlocal_ts]
        keys = arrs * _KEY_SHIFT + pages
        for pe in np.unique(pes).tolist():
            sel = pes == pe
            seq_arrs = arrs[sel]
            seq_pages = pages[sel]
            seq_keys = keys[sel]
            touches = len(seq_keys)
            self.distinct[pe].append(np.unique(seq_keys))
            self._walk_pe_trip(pe, seq_arrs, seq_pages, seq_keys)
            if trips == 1:
                continue
            cache = self.caches[pe]
            resident = all(
                cache.contains((int(a), int(g)))
                for a, g in zip(*_unique_pairs(seq_arrs, seq_pages))
            )
            if resident:
                # Steady state: every further trip is all hits, and an
                # all-hit replay of the same sequence leaves the cache
                # state of every policy unchanged.
                self.cached[pe] += (trips - 1) * touches
            else:
                # No fixed point (the sequence thrashes its own pages):
                # replay the remaining trips explicitly.
                self.fallback_pes.add(pe)
                for _ in range(trips - 1):
                    self._walk_pe_trip(pe, seq_arrs, seq_pages, seq_keys)

    def _walk_pe_trip(
        self, pe: int, arrs: np.ndarray, pages: np.ndarray, keys: np.ndarray
    ) -> None:
        """One trip of one PE's nonlocal sequence (RLE within the trip;
        the distinct-key set is collected by the caller)."""
        change = np.empty(len(keys), dtype=bool)
        change[0] = True
        np.not_equal(keys[1:], keys[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        lengths = np.diff(np.append(starts, len(keys)))
        for start, length in zip(starts.tolist(), lengths.tolist()):
            self._probe(pe, int(arrs[start]), int(pages[start]), length)

    # -- driver -----------------------------------------------------------------
    def run(self) -> SimResult:
        for seg in self.sot.segments():
            if seg[0] == "flat":
                self._flat_segment(seg[1], seg[2])
            else:
                self._op_segment(seg[1])
        stats = AccessStats(self.n_pes, self.sot.array_names)
        stats.add_vector(AccessKind.WRITE, self.writes)
        stats.add_vector(AccessKind.LOCAL_READ, self.local)
        stats.add_vector(AccessKind.CACHED_READ, self.cached)
        stats.add_vector(AccessKind.REMOTE_READ, self.remote)
        distinct = np.zeros(self.n_pes, dtype=np.int64)
        for pe in range(self.n_pes):
            parts = self.distinct[pe]
            if not parts:
                continue
            if len(parts) == 1:
                # Every appended chunk is already deduplicated.
                distinct[pe] = len(parts[0])
            else:
                distinct[pe] = len(np.unique(np.concatenate(parts)))
        if self.telemetry is not None:
            self.telemetry["mode"] = "superop"
            self.telemetry["superop_ops"] = len(self.sot.ops)
            self.telemetry["superop_pieces"] = self.n_pieces
            self.telemetry["superop_flat_ops"] = self.n_flat_ops
            self.telemetry["superop_closed_pes"] = self.closed_pe_ops
            self.telemetry["superop_piece_pes"] = self.piece_pe_ops
            self.telemetry["fallback_pes"] = len(self.fallback_pes)
        return SimResult(
            self.config, stats, self.remote.copy(), distinct
        )


def _unique_pairs(
    arrs: np.ndarray, pages: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (array, page) pairs of one sequence."""
    keys, idx = np.unique(arrs * _KEY_SHIFT + pages, return_index=True)
    return arrs[idx], pages[idx]


def replay_superops(
    sot: SuperOpTrace,
    config: MachineConfig,
    telemetry: MutableMapping | None = None,
) -> SimResult:
    """Counters of ``simulate(sot.expand(), config)``, bit-identical,
    in O(unique behavior) instead of O(trace length).

    Falls back to the flat simulator wholesale for the configurations
    whose accounting is not per-access separable here: cacheless
    machines (distinct-page bookkeeping would dominate) and subrange
    reductions (the combine phase re-places instances globally).  The
    piecewise engine handles everything else; see the module docstring
    for the exactness argument.
    """
    if not config.has_cache or (
        config.reduction_strategy == "subrange" and sot.has_reductions
    ):
        if telemetry is not None:
            telemetry["mode"] = "superop-expanded"
            telemetry["fallback_pes"] = config.n_pes
        return simulate(sot.expand(), config)
    return _Replay(sot, config, telemetry).run()
