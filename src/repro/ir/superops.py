"""Trace-specializing super-ops: cost O(unique behavior), not O(n).

Stencil sweeps repeat one loop body millions of times with only the
addresses sliding by a constant stride.  This module detects those
cycles in a frozen :class:`~repro.ir.trace.Trace` (the tracing-JIT
idiom: find the hot back-edge, record one body, execute the
specialized form), collapses each run into a parameterized
:class:`SuperOp` — one body of statement instances plus a trip count
and per-access strides — and packages the result as a
:class:`SuperOpTrace`: the ordered mix of super-ops and the residual
flat instances they do not cover.

Detection is *exact*: a candidate cycle found by hashing the
per-instance access skeleton is verified column-by-column (same
statement ids, same written arrays, affine write/read addresses,
identical read structure) and truncated to the longest prefix of trips
that verifies, so ``compact(trace).expand()`` reproduces the original
trace bit-for-bit — dtypes included.  Imperfect tails and interludes
stay in the residual.  The untimed replay engine
(:mod:`repro.core.superop_replay`) exploits the closed form; the timed
machine replays the expanded trace.  The store format v2
(:meth:`repro.ir.trace.Trace.save`) persists it at O(unique behavior)
size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .trace import Trace

__all__ = ["SuperOp", "SuperOpTrace", "compact"]

#: Hash multipliers for the per-instance access skeleton.  Collisions
#: are harmless (candidates are verified exactly); they only waste a
#: verification pass.
_M_STMT = np.int64(1000003)
_M_WARR = np.int64(8191)
_M_MASK = np.int64(131071)
_M_RPI = np.int64(524287)
_M_READ = np.int64(0x9E3779B1)


@dataclass(frozen=True)
class SuperOp:
    """``trips`` repetitions of a ``body_len``-instance body.

    The body columns hold trip 0 verbatim; trip ``k`` of the cycle is
    the body with ``k * w_stride`` / ``k * r_stride`` added to the
    write / read addresses (strides may be zero — reduction
    accumulators repeat the same cell).  ``start`` is the first
    covered instance index in the flat trace.
    """

    start: int
    body_len: int
    trips: int
    b_stmt: np.ndarray  # int32[body_len]
    b_w_arr: np.ndarray  # int16[body_len]
    b_w_flat: np.ndarray  # int64[body_len] — trip-0 write addresses
    b_mask: np.ndarray  # bool[body_len]
    b_r_ptr: np.ndarray  # int64[body_len + 1] — body-local CSR
    b_r_arr: np.ndarray  # int16[n_body_reads]
    b_r_flat: np.ndarray  # int64[n_body_reads] — trip-0 read addresses
    w_stride: np.ndarray  # int64[body_len] — per-trip write deltas
    r_stride: np.ndarray  # int64[n_body_reads] — per-trip read deltas

    @property
    def n_body_reads(self) -> int:
        return len(self.b_r_arr)

    @property
    def span(self) -> int:
        """Flat instances covered: ``body_len * trips``."""
        return self.body_len * self.trips


@dataclass(frozen=True)
class SuperOpTrace:
    """A trace as an ordered mix of super-ops and residual instances.

    ``ops`` are non-overlapping and sorted by ``start``; the ``f_*``
    columns hold the uncovered instances in original order with their
    own CSR read structure.  :meth:`expand` (memoised) reconstructs
    the flat :class:`Trace` bit-identically; :meth:`segments` yields
    the trace-order walk the replay engines follow.
    """

    array_names: tuple[str, ...]
    array_sizes: tuple[int, ...]
    n_instances: int
    ops: tuple[SuperOp, ...]
    f_stmt: np.ndarray
    f_w_arr: np.ndarray
    f_w_flat: np.ndarray
    f_mask: np.ndarray
    f_r_ptr: np.ndarray
    f_r_arr: np.ndarray
    f_r_flat: np.ndarray

    @property
    def n_residual(self) -> int:
        return len(self.f_stmt)

    @property
    def n_stored_rows(self) -> int:
        """Instance rows a v2 file stores: bodies + residual."""
        return sum(op.body_len for op in self.ops) + self.n_residual

    @property
    def coverage(self) -> float:
        """Fraction of instances captured by super-ops."""
        if self.n_instances == 0:
            return 0.0
        return 1.0 - self.n_residual / self.n_instances

    @property
    def has_reductions(self) -> bool:
        return bool(self.f_mask.any()) or any(
            bool(op.b_mask.any()) for op in self.ops
        )

    def segments(self) -> tuple[tuple, ...]:
        """Trace-order walk: ``("flat", lo, hi)`` residual-row ranges
        (indices into the ``f_*`` instance columns) interleaved with
        ``("op", op)`` entries.  Memoised."""
        cached = self.__dict__.get("_segments")
        if cached is not None:
            return cached
        segs: list[tuple] = []
        cursor = 0  # original instance index
        f_cursor = 0  # residual row index
        for op in self.ops:
            if op.start > cursor:
                count = op.start - cursor
                segs.append(("flat", f_cursor, f_cursor + count))
                f_cursor += count
            segs.append(("op", op))
            cursor = op.start + op.span
        if cursor < self.n_instances:
            segs.append(
                ("flat", f_cursor, f_cursor + self.n_instances - cursor)
            )
        result = tuple(segs)
        object.__setattr__(self, "_segments", result)
        return result

    def expand(self) -> Trace:
        """The bit-identical flat :class:`Trace` (memoised)."""
        cached = self.__dict__.get("_expanded")
        if cached is not None:
            return cached
        stmt: list[np.ndarray] = []
        w_arr: list[np.ndarray] = []
        w_flat: list[np.ndarray] = []
        mask: list[np.ndarray] = []
        rpi: list[np.ndarray] = []
        r_arr: list[np.ndarray] = []
        r_flat: list[np.ndarray] = []
        for seg in self.segments():
            if seg[0] == "flat":
                _, lo, hi = seg
                stmt.append(self.f_stmt[lo:hi])
                w_arr.append(self.f_w_arr[lo:hi])
                w_flat.append(self.f_w_flat[lo:hi])
                mask.append(self.f_mask[lo:hi])
                rpi.append(np.diff(self.f_r_ptr[lo : hi + 1]))
                r_arr.append(self.f_r_arr[self.f_r_ptr[lo] : self.f_r_ptr[hi]])
                r_flat.append(
                    self.f_r_flat[self.f_r_ptr[lo] : self.f_r_ptr[hi]]
                )
            else:
                op = seg[1]
                m = op.trips
                k = np.arange(m, dtype=np.int64)[:, None]
                stmt.append(np.tile(op.b_stmt, m))
                w_arr.append(np.tile(op.b_w_arr, m))
                w_flat.append(
                    (op.b_w_flat[None, :] + k * op.w_stride[None, :]).ravel()
                )
                mask.append(np.tile(op.b_mask, m))
                rpi.append(np.tile(np.diff(op.b_r_ptr), m))
                r_arr.append(np.tile(op.b_r_arr, m))
                r_flat.append(
                    (op.b_r_flat[None, :] + k * op.r_stride[None, :]).ravel()
                )

        def cat(parts: list[np.ndarray], dtype) -> np.ndarray:
            if not parts:
                return np.zeros(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        all_rpi = cat(rpi, np.int64)
        r_ptr = np.zeros(len(all_rpi) + 1, dtype=np.int64)
        np.cumsum(all_rpi, out=r_ptr[1:])
        trace = Trace(
            array_names=self.array_names,
            array_sizes=self.array_sizes,
            stmt_ids=cat(stmt, np.int32),
            w_arr=cat(w_arr, np.int16),
            w_flat=cat(w_flat, np.int64),
            r_ptr=r_ptr,
            r_arr=cat(r_arr, np.int16),
            r_flat=cat(r_flat, np.int64),
            reduction_mask=cat(mask, bool),
        )
        object.__setattr__(self, "_expanded", trace)
        return trace

    # -- persistence payload (store format v2) ---------------------------------
    def to_payload(self) -> dict[str, np.ndarray]:
        """npz columns for a v2 file (see :meth:`Trace.save`)."""
        ops = self.ops

        def cat(parts, dtype):
            parts = [p for p in parts]
            if not parts:
                return np.zeros(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        body_rpi = cat([np.diff(op.b_r_ptr) for op in ops], np.int64)
        so_b_r_ptr = np.zeros(len(body_rpi) + 1, dtype=np.int64)
        np.cumsum(body_rpi, out=so_b_r_ptr[1:])
        return {
            "so_start": np.array([op.start for op in ops], dtype=np.int64),
            "so_body_len": np.array(
                [op.body_len for op in ops], dtype=np.int64
            ),
            "so_trips": np.array([op.trips for op in ops], dtype=np.int64),
            "so_b_stmt": cat([op.b_stmt for op in ops], np.int32),
            "so_b_w_arr": cat([op.b_w_arr for op in ops], np.int16),
            "so_b_w_flat": cat([op.b_w_flat for op in ops], np.int64),
            "so_b_mask": cat([op.b_mask for op in ops], bool),
            "so_b_r_ptr": so_b_r_ptr,
            "so_b_r_arr": cat([op.b_r_arr for op in ops], np.int16),
            "so_b_r_flat": cat([op.b_r_flat for op in ops], np.int64),
            "so_w_stride": cat([op.w_stride for op in ops], np.int64),
            "so_r_stride": cat([op.r_stride for op in ops], np.int64),
            "f_stmt": self.f_stmt,
            "f_w_arr": self.f_w_arr,
            "f_w_flat": self.f_w_flat,
            "f_mask": self.f_mask,
            "f_r_ptr": self.f_r_ptr,
            "f_r_arr": self.f_r_arr,
            "f_r_flat": self.f_r_flat,
        }

    @classmethod
    def from_payload(
        cls,
        array_names: tuple[str, ...],
        array_sizes: tuple[int, ...],
        n_instances: int,
        data,
    ) -> "SuperOpTrace":
        """Inverse of :meth:`to_payload` (``data`` is npz-like)."""
        starts = data["so_start"]
        body_lens = data["so_body_len"]
        trips = data["so_trips"]
        row_ptr = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(body_lens, out=row_ptr[1:])
        b_r_ptr_all = data["so_b_r_ptr"]
        ops = []
        for i in range(len(starts)):
            lo, hi = int(row_ptr[i]), int(row_ptr[i + 1])
            r_lo = int(b_r_ptr_all[lo])
            r_hi = int(b_r_ptr_all[hi])
            ops.append(
                SuperOp(
                    start=int(starts[i]),
                    body_len=int(body_lens[i]),
                    trips=int(trips[i]),
                    b_stmt=data["so_b_stmt"][lo:hi],
                    b_w_arr=data["so_b_w_arr"][lo:hi],
                    b_w_flat=data["so_b_w_flat"][lo:hi],
                    b_mask=data["so_b_mask"][lo:hi],
                    b_r_ptr=(b_r_ptr_all[lo : hi + 1] - r_lo).astype(
                        np.int64
                    ),
                    b_r_arr=data["so_b_r_arr"][r_lo:r_hi],
                    b_r_flat=data["so_b_r_flat"][r_lo:r_hi],
                    w_stride=data["so_w_stride"][lo:hi],
                    r_stride=data["so_r_stride"][r_lo:r_hi],
                )
            )
        return cls(
            array_names=array_names,
            array_sizes=array_sizes,
            n_instances=n_instances,
            ops=tuple(ops),
            f_stmt=data["f_stmt"],
            f_w_arr=data["f_w_arr"],
            f_w_flat=data["f_w_flat"],
            f_mask=data["f_mask"],
            f_r_ptr=data["f_r_ptr"],
            f_r_arr=data["f_r_arr"],
            f_r_flat=data["f_r_flat"],
        )

    def describe(self) -> dict[str, object]:
        """Summary for CLI/tool output."""
        return {
            "n_instances": self.n_instances,
            "n_ops": len(self.ops),
            "n_stored_rows": self.n_stored_rows,
            "coverage": round(self.coverage, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SuperOpTrace({len(self.ops)} ops, "
            f"{self.n_stored_rows}/{self.n_instances} rows, "
            f"coverage {self.coverage:.1%})"
        )


def _struct_hash(trace: Trace) -> np.ndarray:
    """Per-instance access-skeleton hash (int64, wraparound).

    Two instances that could be consecutive trips of one body hash
    equal: same statement, same written array, same reduction flag and
    the same read structure (count, arrays, positions).  Addresses are
    deliberately excluded — they vary affinely across trips and are
    checked exactly during verification.
    """
    rpi = np.diff(trace.r_ptr)
    h = trace.stmt_ids.astype(np.int64) * _M_STMT
    h += trace.w_arr.astype(np.int64) * _M_WARR
    h += trace.reduction_mask.astype(np.int64) * _M_MASK
    h += rpi * _M_RPI
    if trace.n_reads:
        pos = np.arange(trace.n_reads, dtype=np.int64) - np.repeat(
            trace.r_ptr[:-1], rpi
        )
        vals = (trace.r_arr.astype(np.int64) + 1) * ((pos + 1) * _M_READ)
        csum = np.zeros(len(vals) + 1, dtype=np.int64)
        np.cumsum(vals, out=csum[1:])
        h += csum[trace.r_ptr[1:]] - csum[trace.r_ptr[:-1]]
    return h


def _good_prefix(ok_rows: np.ndarray) -> int:
    """Count of leading True rows."""
    bad = np.flatnonzero(~ok_rows)
    return int(bad[0]) if bad.size else len(ok_rows)


def _verify(trace: Trace, s: int, p: int, m: int, min_trips: int):
    """Exact column verification of an ``m``-trip period-``p`` cycle
    at instance ``s``; returns a :class:`SuperOp` for the longest
    verified trip prefix, or None below ``min_trips``."""

    def rows_equal(col: np.ndarray, trips: int) -> int:
        rows = col[s : s + trips * p].reshape(trips, p)
        return _good_prefix((rows == rows[0]).all(axis=1))

    def affine(col: np.ndarray, trips: int) -> tuple[int, np.ndarray]:
        rows = col[s : s + trips * p].reshape(trips, p)
        stride = rows[1] - rows[0]
        k = np.arange(trips, dtype=np.int64)[:, None]
        ok = (rows == rows[0][None, :] + k * stride[None, :]).all(axis=1)
        return _good_prefix(ok), stride

    for col in (trace.stmt_ids, trace.w_arr, trace.reduction_mask):
        m = rows_equal(col, m)
        if m < min_trips:
            return None
    rpi = np.diff(trace.r_ptr)
    m = rows_equal(rpi, m)
    if m < min_trips:
        return None
    m, w_stride = affine(trace.w_flat, m)
    if m < min_trips:
        return None

    lo = int(trace.r_ptr[s])
    n_body_reads = int(trace.r_ptr[s + p]) - lo
    if n_body_reads:
        # Equal per-instance read counts across the verified trips
        # guarantee the read slab reshapes cleanly: trips x body-reads.
        def read_rows(col: np.ndarray, trips: int) -> np.ndarray:
            return col[lo : lo + trips * n_body_reads].reshape(
                trips, n_body_reads
            )

        rows = read_rows(trace.r_arr, m)
        m = _good_prefix((rows == rows[0]).all(axis=1))
        if m < min_trips:
            return None
        rows = read_rows(trace.r_flat, m)
        r_stride = rows[1] - rows[0]
        k = np.arange(m, dtype=np.int64)[:, None]
        ok = (rows == rows[0][None, :] + k * r_stride[None, :]).all(axis=1)
        m = _good_prefix(ok)
        if m < min_trips:
            return None
        r_stride = r_stride.astype(np.int64)
    else:
        r_stride = np.zeros(0, dtype=np.int64)

    return SuperOp(
        start=s,
        body_len=p,
        trips=m,
        b_stmt=trace.stmt_ids[s : s + p].copy(),
        b_w_arr=trace.w_arr[s : s + p].copy(),
        b_w_flat=trace.w_flat[s : s + p].copy(),
        b_mask=trace.reduction_mask[s : s + p].copy(),
        b_r_ptr=(trace.r_ptr[s : s + p + 1] - lo).astype(np.int64),
        b_r_arr=trace.r_arr[lo : lo + n_body_reads].copy(),
        b_r_flat=trace.r_flat[lo : lo + n_body_reads].copy(),
        w_stride=w_stride.astype(np.int64),
        r_stride=r_stride,
    )


def compact(
    trace: Trace, *, min_trips: int = 4, max_period: int = 32
) -> SuperOpTrace:
    """Detect repeated-body cycles in ``trace`` and collapse them.

    Greedy, smallest period first: a period-``p`` candidate is any
    maximal run of instances whose skeleton hash equals its ``p``-th
    successor's; each candidate is verified exactly and truncated to
    the trip prefix that verifies.  Accepted cycles mark their span
    covered, so nested repetition collapses innermost-first and later
    scans work on the remainder.  ``compact(t).expand()`` is always
    bit-identical to ``t``.
    """
    if min_trips < 2:
        raise ValueError("min_trips must be at least 2")
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    n = trace.n_instances
    ops: list[SuperOp] = []
    covered = np.zeros(n, dtype=bool)
    if n >= 2 * min_trips:
        struct = _struct_hash(trace)
        for p in range(1, max_period + 1):
            if p * min_trips > n:
                break
            eq = struct[p:] == struct[:-p]
            eq &= ~covered[p:]
            eq &= ~covered[:-p]
            idx = np.flatnonzero(eq)
            if idx.size == 0:
                continue
            breaks = np.flatnonzero(np.diff(idx) > 1)
            run_los = np.concatenate(([0], breaks + 1))
            run_his = np.concatenate((breaks, [idx.size - 1]))
            for rl, rh in zip(run_los.tolist(), run_his.tolist()):
                s = int(idx[rl])
                span = int(idx[rh]) + 1 + p - s
                m = span // p
                if m < min_trips:
                    continue
                # Clamp to the uncovered prefix: an op accepted earlier
                # in this same scan may overlap the tail of this run.
                hit = np.flatnonzero(covered[s : s + m * p])
                if hit.size:
                    m = int(hit[0]) // p
                    if m < min_trips:
                        continue
                op = _verify(trace, s, p, m, min_trips)
                if op is None:
                    continue
                ops.append(op)
                covered[op.start : op.start + op.span] = True
    ops.sort(key=lambda op: op.start)

    keep = ~covered
    rpi = np.diff(trace.r_ptr)
    read_keep = (
        np.repeat(keep, rpi)
        if trace.n_reads
        else np.zeros(0, dtype=bool)
    )
    f_rpi = rpi[keep]
    f_r_ptr = np.zeros(len(f_rpi) + 1, dtype=np.int64)
    np.cumsum(f_rpi, out=f_r_ptr[1:])
    return SuperOpTrace(
        array_names=trace.array_names,
        array_sizes=trace.array_sizes,
        n_instances=n,
        ops=tuple(ops),
        f_stmt=trace.stmt_ids[keep],
        f_w_arr=trace.w_arr[keep],
        f_w_flat=trace.w_flat[keep],
        f_mask=trace.reduction_mask[keep],
        f_r_ptr=f_r_ptr,
        f_r_arr=trace.r_arr[read_keep],
        f_r_flat=trace.r_flat[read_keep],
    )


def payload_meta(sot: SuperOpTrace) -> str:
    """The embedded JSON document of a v2 trace file."""
    from .trace import TRACE_FORMAT_VERSION

    return json.dumps(
        {
            "format_version": TRACE_FORMAT_VERSION,
            "layout": "superops",
            "array_names": list(sot.array_names),
            "array_sizes": list(sot.array_sizes),
            "n_instances": sot.n_instances,
        }
    )
