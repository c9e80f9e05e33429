"""Access traces: the interface between interpretation and simulation.

The paper's evaluation is *trace driven*: a kernel is executed once,
every array-element access is recorded in program order, and the
multiprocessor simulation then classifies each access as write / local
read / cached read / remote read for a given machine configuration
(§6).  Because the trace depends only on the program and its data — not
on the number of PEs, the page size, or the cache — one trace serves an
entire parameter sweep.

A :class:`Trace` stores one record per executed statement *instance*:
the statement id, the written element (array id + flattened element
index) and the list of read elements.  Reads are stored CSR-style
(``r_ptr`` offsets into flat ``r_arr``/``r_flat`` arrays) so that the
simulator can vectorise owner computations with NumPy.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "TRACE_DIGEST_VERSION",
    "TRACE_FORMAT_VERSION",
    "Trace",
    "TraceBuilder",
    "TraceColumns",
]

#: On-disk ``.npz`` layout version.  Version 1 is the flat columnar
#: layout; version 2 adds the super-op layout (repeated loop bodies
#: stored once with trip counts and strides — see
#: :mod:`repro.ir.superops`).  :meth:`Trace.load` reads both and
#: refuses anything else so a stale store entry can never be misread
#: silently.
TRACE_FORMAT_VERSION = 2

#: Semantic version of trace *content*, used in the store's
#: build-parameter digests.
#: Deliberately decoupled from :data:`TRACE_FORMAT_VERSION`: the v2
#: layout reads back losslessly, so re-encoding a trace must not
#: change its identity or orphan existing store entries.  Bump only
#: when identical build parameters would yield semantically different
#: traces.
TRACE_DIGEST_VERSION = 1

#: ``save()`` only attempts cycle detection on traces at least this
#: long — compaction pays off on sweep-scale traces, not unit-test
#: fixtures.
_AUTO_COMPACT_MIN = 512

#: The numpy columns of a trace, in canonical order.
_COLUMNS = (
    "stmt_ids",
    "w_arr",
    "w_flat",
    "r_ptr",
    "r_arr",
    "r_flat",
    "reduction_mask",
)


@dataclass(frozen=True)
class TraceColumns:
    """Configuration-independent columnar expansion of a trace.

    The simulators flatten the CSR read structure into one row per
    read — ``r_instance`` maps each read back to its statement
    instance, so any per-instance column (the executing PE above all)
    expands to per-read shape by plain fancy indexing.  None of this
    depends on the machine configuration, so one expansion serves an
    entire parameter sweep; :meth:`Trace.columnar` memoises it on the
    trace.  The vectorised replay engine
    (:mod:`repro.core.vec_simulator`) is the main consumer.
    """

    #: ``int64[n_instances]`` — reads per statement instance.
    reads_per_instance: np.ndarray
    #: ``int64[n_reads]`` — owning instance of each read row.
    r_instance: np.ndarray
    #: ``int64[n_reads]`` — read array ids, widened once for composite
    #: (array, page) key arithmetic.
    r_arr64: np.ndarray


@dataclass(frozen=True)
class Trace:
    """An immutable, frozen access trace.

    Attributes
    ----------
    array_names:
        Maps array id (small int) to the array's name.
    array_sizes:
        Flattened element count per array id.
    stmt_ids:
        ``int32[n_instances]`` — originating statement of each instance.
    w_arr, w_flat:
        Written element of each instance (array id, flat element index).
    r_ptr:
        ``int64[n_instances + 1]`` — CSR offsets into the read arrays.
    r_arr, r_flat:
        Concatenated read accesses in evaluation order.
    reduction_mask:
        ``bool[n_instances]`` — True where the instance belongs to a
        :class:`~repro.ir.stmt.Reduction` (the write target is re-used,
        which is exempt from the single-assignment write-once rule).
    """

    array_names: tuple[str, ...]
    array_sizes: tuple[int, ...]
    stmt_ids: np.ndarray
    w_arr: np.ndarray
    w_flat: np.ndarray
    r_ptr: np.ndarray
    r_arr: np.ndarray
    r_flat: np.ndarray
    reduction_mask: np.ndarray

    @property
    def n_instances(self) -> int:
        return len(self.stmt_ids)

    @property
    def n_reads(self) -> int:
        return len(self.r_flat)

    def array_id(self, name: str) -> int:
        return self.array_names.index(name)

    def columnar(self) -> TraceColumns:
        """The memoised columnar view (see :class:`TraceColumns`)."""
        cached = self.__dict__.get("_columns")
        if cached is None:
            reads_per_instance = np.diff(self.r_ptr)
            cached = TraceColumns(
                reads_per_instance=reads_per_instance,
                r_instance=np.repeat(
                    np.arange(self.n_instances, dtype=np.int64),
                    reads_per_instance,
                ),
                r_arr64=self.r_arr.astype(np.int64),
            )
            object.__setattr__(self, "_columns", cached)
        return cached

    # -- super-op view ---------------------------------------------------------
    def attach_superops(self, superops) -> None:
        """Memoise a verified super-op view of this trace.

        The view (:class:`repro.ir.superops.SuperOpTrace`) is attached
        by ``load()`` of a v2 file and by ``save()``'s auto-compaction,
        so replay backends can take the O(unique behavior) path without
        re-detecting cycles.  The flat columns stay authoritative —
        the view is an acceleration structure, never a substitute.
        """
        object.__setattr__(self, "_superops", superops)

    def attached_superops(self):
        """The attached super-op view, or None (see
        :meth:`attach_superops`)."""
        return self.__dict__.get("_superops")

    def reads_of(self, instance: int) -> list[tuple[int, int]]:
        """(array id, flat index) pairs read by one instance."""
        lo, hi = self.r_ptr[instance], self.r_ptr[instance + 1]
        return list(zip(self.r_arr[lo:hi].tolist(), self.r_flat[lo:hi].tolist()))

    def instances(self) -> Iterator[tuple[int, int, int, list[tuple[int, int]]]]:
        """Yield (stmt_id, write array, write flat, reads) per instance."""
        for i in range(self.n_instances):
            yield (
                int(self.stmt_ids[i]),
                int(self.w_arr[i]),
                int(self.w_flat[i]),
                self.reads_of(i),
            )

    # -- persistence -----------------------------------------------------------
    def _superops_for_save(self, compact: bool | None):
        """The super-op view ``save()`` should persist, or None.

        ``compact=None`` (the default) is automatic: reuse an attached
        view, or run detection once on traces long enough to be worth
        it (the no-cycles outcome is attached too, so repeated saves
        never re-scan).  A view too large to pay is detached, so the
        trace keeps exactly the view :meth:`load` gives its file.
        ``compact=True`` forces detection; ``compact=False`` forces the
        flat v1 layout.
        """
        if compact is False:
            return None
        superops = self.attached_superops()
        if superops is None and (
            compact is True or self.n_instances >= _AUTO_COMPACT_MIN
        ):
            from .superops import compact as _compact

            superops = _compact(self)
            self.attach_superops(superops)
        if superops is None or not superops.ops:
            return None
        # Only the super-op layout when it actually pays: the v2 file
        # stores one row per body instance plus the residual.
        if superops.n_stored_rows > self.n_instances // 2:
            # The flat file loads with no view, so drop it here too: a
            # fresh trace must replay through the same engine as its
            # disk copy.
            self.__dict__.pop("_superops", None)
            return None
        return superops

    def save(
        self, path: str | os.PathLike, *, compact: bool | None = None
    ) -> Path:
        """Serialise to a compressed ``.npz`` file (atomic replace).

        The numpy columns keep their exact dtypes; names, sizes and the
        format version travel as an embedded JSON document.  The write
        goes through a temporary file in the destination directory so
        concurrent writers (parallel sweep workers, several processes
        warming one trace store) can never leave a torn file behind.

        When the trace compacts well (see :mod:`repro.ir.superops`),
        the file uses the super-op layout of format v2 — repeated loop
        bodies stored once with trip counts and strides, orders of
        magnitude smaller on sweep traces.  ``compact`` overrides the
        automatic choice (True forces detection, False forces the flat
        layout); either way :meth:`load` returns the bit-identical
        trace.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        superops = self._superops_for_save(compact)
        if superops is not None:
            from .superops import payload_meta

            meta = payload_meta(superops)
            payload = superops.to_payload()
        else:
            meta = json.dumps(
                {
                    "format_version": TRACE_FORMAT_VERSION,
                    "layout": "flat",
                    "array_names": list(self.array_names),
                    "array_sizes": list(self.array_sizes),
                }
            )
            payload = {name: getattr(self, name) for name in _COLUMNS}
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(fh, meta=np.array(meta), **payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Trace":
        """Load a trace saved by :meth:`save` (validated, exact dtypes).

        Reads the flat layout (format v1, and v2 files that did not
        compact) and the super-op layout (v2) transparently; a
        super-op file expands to the bit-identical flat trace with the
        view attached for the replay fast paths.
        """
        with np.load(Path(path), allow_pickle=False) as data:
            try:
                meta = json.loads(str(data["meta"][()]))
            except KeyError as exc:
                raise ValueError(f"not a trace file: missing {exc}") from None
            version = meta.get("format_version")
            if version not in (1, TRACE_FORMAT_VERSION):
                raise ValueError(
                    f"unsupported trace format version {version!r} "
                    f"(expected <= {TRACE_FORMAT_VERSION})"
                )
            try:
                if meta.get("layout", "flat") == "superops":
                    from .superops import SuperOpTrace

                    superops = SuperOpTrace.from_payload(
                        array_names=tuple(meta["array_names"]),
                        array_sizes=tuple(
                            int(s) for s in meta["array_sizes"]
                        ),
                        n_instances=int(meta["n_instances"]),
                        data=data,
                    )
                    trace = superops.expand()
                    trace.attach_superops(superops)
                    trace.validate()
                    return trace
                columns = {name: data[name] for name in _COLUMNS}
            except KeyError as exc:
                raise ValueError(f"not a trace file: missing {exc}") from None
        trace = cls(
            array_names=tuple(meta["array_names"]),
            array_sizes=tuple(int(s) for s in meta["array_sizes"]),
            **columns,
        )
        trace.validate()
        return trace

    def identical(self, other: "Trace") -> bool:
        """Bit-exact equality: same metadata, same arrays, same dtypes."""
        if (
            self.array_names != other.array_names
            or self.array_sizes != other.array_sizes
        ):
            return False
        for field in _COLUMNS:
            mine, theirs = getattr(self, field), getattr(other, field)
            if mine.dtype != theirs.dtype or not np.array_equal(mine, theirs):
                return False
        return True

    def validate(self) -> None:
        """Internal-consistency checks (used by tests)."""
        n = self.n_instances
        if len(self.w_arr) != n or len(self.w_flat) != n:
            raise ValueError("write columns length mismatch")
        if len(self.r_ptr) != n + 1:
            raise ValueError("r_ptr length mismatch")
        if self.r_ptr[0] != 0 or self.r_ptr[-1] != self.n_reads:
            raise ValueError("r_ptr endpoints mismatch")
        if np.any(np.diff(self.r_ptr) < 0):
            raise ValueError("r_ptr must be nondecreasing")
        for col_arr, col_flat in ((self.w_arr, self.w_flat), (self.r_arr, self.r_flat)):
            if len(col_arr) == 0:
                continue
            if col_arr.min() < 0 or col_arr.max() >= len(self.array_names):
                raise ValueError("array id out of range")
            sizes = np.asarray(self.array_sizes)[col_arr]
            if np.any(col_flat < 0) or np.any(col_flat >= sizes):
                raise ValueError("flat element index out of range")


class TraceBuilder:
    """Accumulates accesses during interpretation; ``freeze()`` → Trace."""

    def __init__(self, array_names: Sequence[str], array_sizes: Sequence[int]) -> None:
        if len(array_names) != len(array_sizes):
            raise ValueError("names/sizes length mismatch")
        self.array_names = tuple(array_names)
        self.array_sizes = tuple(int(s) for s in array_sizes)
        self._ids = {name: i for i, name in enumerate(self.array_names)}
        self._stmt_ids: list[int] = []
        self._w_arr: list[int] = []
        self._w_flat: list[int] = []
        self._r_ptr: list[int] = [0]
        self._r_arr: list[int] = []
        self._r_flat: list[int] = []
        self._reduction: list[bool] = []
        # reads staged for the instance currently being evaluated
        self._pending_r_arr: list[int] = []
        self._pending_r_flat: list[int] = []

    def array_id(self, name: str) -> int:
        return self._ids[name]

    def record_read(self, array_id: int, flat: int) -> None:
        self._pending_r_arr.append(array_id)
        self._pending_r_flat.append(flat)

    def commit_instance(
        self, stmt_id: int, w_array_id: int, w_flat: int, is_reduction: bool
    ) -> None:
        """Finish one statement instance, attaching the staged reads."""
        self._stmt_ids.append(stmt_id)
        self._w_arr.append(w_array_id)
        self._w_flat.append(w_flat)
        self._r_arr.extend(self._pending_r_arr)
        self._r_flat.extend(self._pending_r_flat)
        self._r_ptr.append(len(self._r_arr))
        self._reduction.append(is_reduction)
        self._pending_r_arr.clear()
        self._pending_r_flat.clear()

    def abort_instance(self) -> None:
        """Discard staged reads (used on evaluation errors)."""
        self._pending_r_arr.clear()
        self._pending_r_flat.clear()

    def freeze(self) -> Trace:
        if self._pending_r_arr:
            raise RuntimeError("uncommitted reads at freeze()")
        trace = Trace(
            array_names=self.array_names,
            array_sizes=self.array_sizes,
            stmt_ids=np.asarray(self._stmt_ids, dtype=np.int32),
            w_arr=np.asarray(self._w_arr, dtype=np.int16),
            w_flat=np.asarray(self._w_flat, dtype=np.int64),
            r_ptr=np.asarray(self._r_ptr, dtype=np.int64),
            r_arr=np.asarray(self._r_arr, dtype=np.int16),
            r_flat=np.asarray(self._r_flat, dtype=np.int64),
            reduction_mask=np.asarray(self._reduction, dtype=bool),
        )
        trace.validate()
        return trace
