"""Persistent, content-addressed, *sharded* trace/result store.

The paper's method is trace-once / sweep-many: a kernel's access trace
depends only on the program and its data, never on the machine
configuration, so one interpreter run drives an entire parameter space
(§6).  The store pushes that to its logical end — a kernel is
interpreted once *per machine, ever*.  Traces are serialised to
compressed ``.npz`` files (:meth:`repro.ir.trace.Trace.save`) and
addressed by a digest of ``(kernel name, build parameters, trace
format version)``, so a change to any ingredient yields a fresh entry
instead of a stale hit.

This module is also the single code path for trace *acquisition*:
:func:`build_trace` is the only place the interpreter (or its
vectorised fast path) is invoked on behalf of the engine, the bench
harness and the CLI, which is what lets the test suite assert that a
warm store performs **zero** interpreter executions.

The store also caches *results*: an evaluation is pure in
``(trace, scenario, backend)``, so a :class:`ResultKey` content-address
maps to a persisted :class:`~repro.backends.base.EvalOutcome` and a
re-run of an identical campaign skips simulation entirely.  Result
hits and misses are counted (``result_counters``) exactly like trace
acquisitions, and the backends' ``evaluation_count`` mirrors the
interpretation counter on the evaluation side.

On-disk layout (fleet scale: many campaigns, bounded disk)
----------------------------------------------------------

A flat directory stops working once campaign traffic fans out — at a
few thousand artifacts every ``readdir`` and every eviction decision
touches one giant directory, and nothing bounds disk use.  The store
therefore shards::

    <root>/
      traces/<ab>/<name>-<digest16>.npz     trace shards
      results/<cd>/<backend>-<digest20>.npz result shards
      leases/<k>-<ref>.json                 claim leases (k: t or r)
      leases/hb/<host>-<pid>-<n>.json       lease holders, one per store
      …/<final>.<host>-<pid>-<n>.tmp        a write not yet renamed

* **Shards** — every artifact lives under a two-hex-character prefix
  directory derived from its digest (:func:`shard_of`, i.e.
  ``digest[:2]``: 256-way fan-out, stable forever).
* **The filesystem is the index** — every artifact is single-
  assignment: content-addressed, written once by atomic rename, never
  changed afterwards.  Its path already records its kind and *ref*
  (the digest prefix embedded in the filename), and ``stat`` records
  the rest: size, creation time (mtime) and last use (atime).  A
  lookup opens the canonical path and nothing else; a file that has
  vanished is a miss.  Totals (``len``, ``stats``, GC) come from one
  ``os.scandir`` walk over the shard directories.
* **Recency** — a put sets atime = mtime from one clock, and every hit
  re-stamps atime only (``os.utime``), so LRU order survives process
  boundaries with nothing to flush.  Each evaluated job of a campaign
  is a use of its trace: the campaign's own process tallies them,
  whichever executor ran the job, and stamps each trace once when the
  campaign completes (:meth:`TraceStore.merge_touches`).  No store
  file is ever appended to.
* **GC** — ``TraceStore(max_bytes=...)`` bounds disk use:
  :meth:`TraceStore.gc` (also run automatically after a put that
  takes the store over its budget) evicts least-recently-used
  **result-cache entries first, then traces** (results are cheap to
  recompute from a stored trace; a trace costs an interpreter run) —
  oldest atime first — stops as soon as the budget is met, and never
  evicts an entry a reader currently has pinned
  (:meth:`TraceStore.reading`).  Evictions are counted per kind
  (``counters.evictions`` / ``result_counters.evictions``).  Puts stay O(1): with no budget they
  do no scan at all, and with one they add to a running byte total
  that one scan seeds and every GC pass recomputes.
* **Claim leases** — in-process claims (threads, streams) coordinate
  through :class:`threading.Event`; *cross-process* claims through
  leases under ``leases/``.  Before its first lease, a store writes one
  *holder* file (``leases/hb/``) naming its pid and host; a lease is
  one atomic ``os.link`` of it to ``leases/<k>-<ref>.json``, and the
  holder's mtime is the expiry of every lease linked to it, so a
  heartbeat tick is one ``os.utime``.  A rival *steals* a lease once
  that expiry has passed (its holder crashed, or stalled past
  ``LEASE_TTL_S``), or at once when it names a pid dead on this host.
  A holder whose expiry has passed forgets its leases and links later
  ones to a new holder file, so an expired inode is never renewed.
  Without hard links, a lease is its own exclusively created file,
  renewed by the heartbeat too.  A crash delays rivals by at most
  ``LEASE_TTL_S``; a live builder is never duplicated.  The process
  that made a holder unlinks it when its store is finalised or the
  interpreter exits; a lease still linked to it keeps the inode, and
  rivals steal it as they would after a crash.
* **Temp files** — every artifact and holder is written through a
  temp named for its writer and renamed into place
  (:func:`repro._files.write_once`).  Explicit :meth:`TraceStore.gc`
  passes and :meth:`TraceStore.clear` remove a temp once its pid is
  dead on this host, or once it has sat untouched for ``LEASE_TTL_S``.
* **One claim protocol** — lookup → claim → re-check → deferral →
  compute → put (or abandon) is written once, in :class:`TraceStore`;
  the executor and the fleet worker call it.

Files outside the shard directories (a legacy flat-layout root, a
stale ``index.json``) are ignored: the store is a cache, so anything
it cannot address is simply rebuilt.

``repro store stats`` and ``repro store gc`` expose the same machinery
on the command line.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import itertools
import threading
import time
import warnings
import weakref
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .. import obs
from .._files import HOST, pid_alive, reap_orphan, write_once
from ..backends.base import EvalOutcome, Scenario
from ..core.stats import AccessStats
from ..ir.loops import Program
from ..ir.trace import TRACE_DIGEST_VERSION, Trace

__all__ = [
    "LEASE_TTL_S",
    "RESULT_FORMAT_VERSION",
    "STORE_MAX_BYTES_ENV",
    "TRACE_STORE_ENV",
    "Claim",
    "GCReport",
    "ResultKey",
    "StoreCounters",
    "TraceKey",
    "TraceStore",
    "build_trace",
    "default_store",
    "interpretation_count",
    "kernel_trace_cached",
    "kernel_trace_key",
    "set_default_store",
    "shard_of",
]

#: Environment variable overriding the default store root.
TRACE_STORE_ENV = "REPRO_TRACE_STORE"

#: Environment variable setting the default store's disk budget (bytes).
STORE_MAX_BYTES_ENV = "REPRO_STORE_MAX_BYTES"

_TRACES_DIR = "traces"
_RESULTS_DIR = "results"
_LEASES_DIR = "leases"

#: The claim protocol's one deadline: how long a caller defers to a
#: live holder (a thread of this process, or another process's lease)
#: before building the entry itself.
_INFLIGHT_TIMEOUT_S = 120.0

#: Validity of a cross-process claim lease.  A store's holder file is
#: renewed every ``LEASE_TTL_S / 3`` (one ``os.utime`` covering every
#: lease linked to it), so only a crashed (or wedged) holder ever lets
#: its leases go stale.  It also bounds how long a temp file may sit
#: untouched before GC takes it for a dead writer's.
LEASE_TTL_S = 30.0

#: How often a cross-process lease waiter re-checks for the peer's
#: result (or the lease's disappearance).
_LEASE_POLL_S = 0.05

#: Holder files live in a subdirectory so the ``*-*.json`` globs over
#: claim-lease files never pick one up.
_HB_DIR = "hb"
_holder_serial = itertools.count()


def shard_of(digest: str) -> str:
    """The shard directory for a digest: its first two hex characters.

    Stable forever by construction — test-asserted, because changing it
    would orphan every existing store entry.
    """
    return digest[:2]


# ---------------------------------------------------------------------------
# the one interpretation path
# ---------------------------------------------------------------------------

_interpretations = 0


def interpretation_count() -> int:
    """How many traces this process has generated from scratch.

    Every trace acquisition in the repo funnels through
    :func:`build_trace`, so this counter is exactly the number of
    interpreter / fast-path executions — a warm store keeps it flat.
    """
    return _interpretations


def build_trace(program: Program, inputs: Mapping[str, np.ndarray]) -> Trace:
    """Generate a trace from scratch (the *only* interpretation path).

    Uses the vectorised affine fast path (bit-identical to the
    interpreter, asserted by the test suite) and falls back to the
    interpreter for kernels with indirect subscripts.
    """
    global _interpretations
    _interpretations += 1
    from ..ir.vectorize import fast_trace

    return fast_trace(program, inputs)


# ---------------------------------------------------------------------------
# content addressing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceKey:
    """Identity of a stored trace: kernel name + canonicalised params.

    The digest covers the trace *digest* version too — the semantic
    content version, deliberately not the on-disk layout version: the
    super-op layout (format v2) reads back bit-identically, so
    re-encoding a shard must never orphan it.  A digest-version bump
    invalidates every old entry instead of misreading it.
    """

    kernel: str
    params: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def make(kernel: str, **params: object) -> "TraceKey":
        return TraceKey(kernel=kernel, params=tuple(sorted(params.items())))

    @property
    def digest(self) -> str:
        from .. import __version__

        # The package version is part of the identity: a release that
        # changes kernel builders or the trace generator invalidates
        # every old entry instead of silently replaying stale traces.
        # (Within one dev version, ``TraceStore.clear()`` or deleting
        # the store root forces a rebuild.)
        document = json.dumps(
            {
                "kernel": self.kernel,
                "params": list(self.params),
                "format_version": TRACE_DIGEST_VERSION,
                "package_version": __version__,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(document.encode()).hexdigest()

    @property
    def ref(self) -> str:
        """The digest prefix embedded in the filename (the entry's name)."""
        return self.digest[:16]

    @property
    def filename(self) -> str:
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", self.kernel) or "trace"
        return f"{safe}-{self.ref}.npz"

    def describe(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kernel}({args})"


#: Version of the persisted result layout; a bump invalidates every
#: cached outcome instead of misreading it.  Version 2: ``untimed`` is
#: the columnar engine, whose outcomes carry ``vec_fallback_pes``.
RESULT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class ResultKey:
    """Identity of a cached evaluation: trace x scenario x backend.

    The trace digest already covers kernel identity, build parameters,
    trace format and package version; the scenario digest covers the
    machine configuration and every backend knob; ``backend`` names
    the backend that computed the outcome.  Everything that can change
    an outcome is in the address, so stale hits are impossible within
    a package version.
    """

    trace_digest: str
    scenario_digest: str
    backend: str

    @staticmethod
    def make(trace_key: "TraceKey", scenario: Scenario) -> "ResultKey":
        """The canonical key of one evaluation point."""
        return ResultKey(
            trace_digest=trace_key.digest,
            scenario_digest=scenario.digest,
            backend=scenario.backend,
        )

    @property
    def digest(self) -> str:
        document = json.dumps(
            {
                "trace": self.trace_digest,
                "scenario": self.scenario_digest,
                "backend": self.backend,
                "result_format": RESULT_FORMAT_VERSION,
            },
            sort_keys=True,
        )
        return hashlib.sha256(document.encode()).hexdigest()

    @property
    def ref(self) -> str:
        """The digest prefix embedded in the filename (the entry's name)."""
        return self.digest[:20]

    @property
    def filename(self) -> str:
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", self.backend) or "backend"
        return f"{safe}-{self.ref}.npz"


def _ref_from_filename(name: str) -> str:
    """Recover an entry's ref from its filename (``<safe>-<hex>.npz``).

    Filenames that do not follow the convention (hand-copied files)
    fall back to the whole stem — still counted and GC-able, just
    never addressed by a key lookup.
    """
    stem = Path(name).stem
    candidate = stem.rsplit("-", 1)[-1]
    if len(candidate) >= 2 and all(c in "0123456789abcdef" for c in candidate):
        return candidate
    return stem


class _Entry(NamedTuple):
    """One artifact as the shard walk sees it."""

    kind: str  # "trace" or "result"
    ref: str
    path: Path
    bytes: int
    atime_ns: int  # last use
    mtime_ns: int  # creation


def _stamp(path: Path) -> None:
    """Record a use of an artifact: atime moves forward, mtime stays.

    A file that vanished (evicted, or cleared by another process) is
    ignored — recency is a hint, never worth failing a lookup over.
    """
    try:
        os.utime(path, ns=(time.time_ns(), os.stat(path).st_mtime_ns))
    except OSError:
        pass


def _save_outcome(path: Path, outcome: EvalOutcome) -> Path:
    """Persist an outcome to ``.npz`` (written once, exact dtypes)."""
    meta = json.dumps(
        {
            "result_format": RESULT_FORMAT_VERSION,
            "backend": outcome.backend,
            "scenario": outcome.scenario.to_dict(),
            "metrics": outcome.metrics,
            "array_names": list(outcome.stats.array_names),
            "per_pe_keys": sorted(outcome.per_pe),
        },
        sort_keys=True,
    )
    payload = {
        "counts": outcome.stats.counts,
        "by_array": outcome.stats.by_array,
    }
    for name in outcome.per_pe:
        payload[f"per_pe__{name}"] = outcome.per_pe[name]
    return write_once(
        path,
        lambda fh: np.savez_compressed(fh, meta=np.array(meta), **payload),
    )


def _load_outcome(path: Path) -> EvalOutcome:
    """Load an outcome saved by :func:`_save_outcome` (validated)."""
    with np.load(Path(path), allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["meta"][()]))
            counts = data["counts"]
            by_array = data["by_array"]
            per_pe = {
                name: data[f"per_pe__{name}"]
                for name in meta.get("per_pe_keys", [])
            }
        except KeyError as exc:
            raise ValueError(f"not a result file: missing {exc}") from None
    version = meta.get("result_format")
    if version != RESULT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(expected {RESULT_FORMAT_VERSION})"
        )
    stats = AccessStats(
        n_pes=int(counts.shape[0]),
        array_names=tuple(meta["array_names"]),
    )
    stats.counts = counts
    stats.by_array = by_array
    return EvalOutcome(
        backend=str(meta["backend"]),
        scenario=Scenario.from_dict(meta["scenario"]),
        stats=stats,
        metrics=dict(meta["metrics"]),
        per_pe=per_pe,
    )


@dataclass
class StoreCounters:
    """Observability: where each ``get`` was satisfied, plus GC work."""

    memory_hits: int = 0  # traces only: results live on disk
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def total(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class GCReport:
    """What one :meth:`TraceStore.gc` pass did."""

    #: ``(kind, ref, bytes)`` per evicted entry, in eviction order.
    evicted: list[tuple[str, str, int]] = field(default_factory=list)
    freed_bytes: int = 0
    #: store size after the pass
    total_bytes: int = 0
    #: the budget the pass enforced (``None``: nothing to enforce)
    max_bytes: int | None = None
    #: entries spared because a reader had them pinned
    pinned_skipped: int = 0

    @property
    def evicted_results(self) -> int:
        return sum(1 for kind, _r, _b in self.evicted if kind == "result")

    @property
    def evicted_traces(self) -> int:
        return sum(1 for kind, _r, _b in self.evicted if kind == "trace")

    def as_dict(self) -> dict[str, object]:
        return {
            "evicted_results": self.evicted_results,
            "evicted_traces": self.evicted_traces,
            "freed_bytes": self.freed_bytes,
            "total_bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "pinned_skipped": self.pinned_skipped,
        }


class _Holder(NamedTuple):
    """The file every lease of one store links to (module docstring)."""

    path: Path
    ident: tuple[int, int]  # (st_dev, st_ino)
    pid: int  # its maker: a forked child makes its own
    #: removes the file, at most once: when called, when the store is
    #: finalised, or at interpreter exit
    unlink: weakref.finalize


def _unlink_holder(path: Path, pid: int) -> None:
    """Remove a holder file, only in the process that made it: a forked
    child inherits its parent's finalizers."""
    if os.getpid() == pid:
        with contextlib.suppress(OSError):
            os.unlink(path)


class _Seen(NamedTuple):
    """A lease as a reader judged it: why it is stale (``None`` while
    live), its holder ``{pid, host, expires}`` and its inode."""

    stale: str | None
    holder: dict | None
    ident: tuple[int, int]


def _judge_lease(path: Path) -> _Seen | None:
    """Judge the lease at ``path`` (``None``: there is none).

    A lease is stale when its document is unreadable, once its mtime —
    its holder's expiry — has passed, or when it names a pid that is
    dead on this host.  The file is opened before it is fstat'ed,
    because the open makes NFS revalidate its attributes.
    """
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            raw = fh.read()
    except OSError:
        return None
    ident = (st.st_dev, st.st_ino)
    try:
        data = json.loads(raw)
        holder = {"pid": int(data["pid"]), "host": str(data["host"])}
    except (KeyError, TypeError, ValueError):
        return _Seen("junk", None, ident)
    holder["expires"] = st.st_mtime
    if st.st_mtime <= time.time():
        return _Seen("expired", holder, ident)
    if holder["host"] == HOST and not pid_alive(holder["pid"]):
        return _Seen("dead-holder", holder, ident)
    return _Seen(None, holder, ident)


def _holder_document(fh: BinaryIO) -> None:
    fh.write(json.dumps({"pid": os.getpid(), "host": HOST}).encode())


def _create_own_lease(path: Path, expires: float) -> tuple[int, int] | None:
    """A lease that is its own file, where hard links are missing
    (``None``: one is there).  A reader that opens it before its
    document and expiry land judges it stale, as junk or expired."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except FileExistsError:
        return None
    with os.fdopen(fd, "wb") as fh:
        _holder_document(fh)
        st = os.fstat(fd)
    os.utime(path, (time.time(), expires))
    return (st.st_dev, st.st_ino)


class _LeaseWaiter:
    """Cross-process analogue of an in-process claim's ``Event``.

    Returned by the claim step when a *different process* holds an
    entry's lease.  ``wait(timeout)`` polls until the peer's artifact
    lands or the lease goes away (released, stolen, expired — the
    caller then steps again), or the timeout elapses.
    """

    def __init__(
        self, store: "TraceStore", kind: str, ref: str, artifact: Path
    ) -> None:
        self._store = store
        self._kind = kind
        self._ref = ref
        self._artifact = artifact

    def wait(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while not self._artifact.is_file():
            if self._store.lease_holder(self._ref, kind=self._kind) is None:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            time.sleep(min(_LEASE_POLL_S, remaining))
        return True


class Claim(NamedTuple):
    """Where the claim protocol left its caller.

    ``hit`` is the artifact.  ``waiter`` is a live holder to
    ``wait(timeout)`` on: a thread's :class:`threading.Event` or
    another process's :class:`_LeaseWaiter`.  With neither, the caller
    computes the entry; ``owned`` says whether it holds the claim (and
    must put or abandon it) or computes unclaimed past the deadline.
    """

    hit: object = None
    waiter: _Waiter | None = None
    owned: bool = False


#: Claim-protocol callables: the lookup takes ``count`` (False for
#: the re-check); the claim returns ``None`` (owned) or a waiter.
_Waiter = threading.Event | _LeaseWaiter
_Lookup = Callable[[bool], object]
_ClaimFn = Callable[[], "_Waiter | None"]


class TraceStore:
    """Sharded on-disk cache of traces and results.

    ``get`` resolves a :class:`TraceKey` against the in-process trace
    map first, then the ``.npz`` file in its shard directory, and only
    then invokes the builder — persisting its result for every later
    process.  Results live only on disk: a lookup opens its file, so a
    long-lived store holds no outcome it has put or read.  Unreadable
    or stale-format files are treated as misses and rebuilt in place,
    never propagated.  See the module docstring for the on-disk
    layout, stat-based recency and the GC policy.

    ``max_bytes`` bounds the store's disk use: when set, a put that
    takes the store over budget triggers an LRU garbage-collection
    pass that evicts result-cache entries first, then traces, skipping
    entries currently pinned by a reader.  Builds and result
    computations are single-flighted per key, and reads pin their
    entry so GC can never unlink a file mid-read — the store is safe
    for any number of threads/streams in one process.

    Builds are additionally guarded *across processes* by leases (see
    the module docstring): a store that wins the in-process flight
    also links its holder file to the entry's lease under ``leases/``,
    and a heartbeat thread renews the holder until the last lease is
    released; a process that finds a foreign lease waits on a
    :class:`_LeaseWaiter` instead of building.  ``LEASE_TTL_S`` is the
    crash-recovery bound — how long a rival waits before stealing a
    dead holder's lease (a holder whose pid is dead on the same host
    is stolen from at once).
    """

    def __init__(
        self, root: str | os.PathLike, *, max_bytes: int | None = None
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.counters = StoreCounters()
        #: where each result lookup was satisfied (mirrors ``counters``)
        self.result_counters = StoreCounters()
        self._memory: dict[TraceKey, Trace] = {}
        self._lock = threading.RLock()
        #: running on-disk byte total for auto-GC; ``None`` until a
        #: budgeted put seeds it with one scan
        self._bytes: int | None = None
        #: refs currently being read (GC must not evict them)
        self._pins: Counter[str] = Counter()
        #: single-flight builds/claims: "t:<ref>" / "r:<ref>" -> Event
        self._inflight: dict[str, threading.Event] = {}
        #: cross-process leases this store holds: (kind, ref) -> the
        #: inode it published (its holder's, or the lease's own file)
        self._held_leases: dict[tuple[str, str], tuple[int, int]] = {}
        #: the file this store's leases link to, and its expiry (mtime)
        self._holder: _Holder | None = None
        self._holder_expires = 0.0
        self._lease_thread: threading.Thread | None = None
        #: set while no lease is held: wakes the heartbeat to exit
        self._leases_idle = threading.Event()

    # -- paths -----------------------------------------------------------------
    def path_for(self, key: TraceKey) -> Path:
        """Canonical shard path of a trace entry."""
        return self.root / _TRACES_DIR / shard_of(key.digest) / key.filename

    def result_path_for(self, key: ResultKey) -> Path:
        """Canonical shard path of a result entry."""
        return self.root / _RESULTS_DIR / shard_of(key.digest) / key.filename

    def __contains__(self, key: TraceKey) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return sum(1 for entry in self._scan() if entry.kind == "trace")

    # -- the shard walk --------------------------------------------------------
    def _scan(self, *, reap: bool = False) -> list[_Entry]:
        """Every artifact under ``traces/<ab>/`` and ``results/<ab>/``.

        The store's only O(entries) operation: ``len``, result counts,
        sizes, stats, GC and ``clear`` read the ground truth from here,
        one ``stat`` per artifact.  Temp files and anything outside the
        two-hex-character shard directories are skipped; with ``reap``,
        temps whose writer was killed before the rename are unlinked.
        """
        entries: list[_Entry] = []
        for kind, base in (("trace", _TRACES_DIR), ("result", _RESULTS_DIR)):
            try:
                shards = [
                    shard.path
                    for shard in os.scandir(self.root / base)
                    if len(shard.name) == 2 and shard.is_dir()
                ]
            except OSError:
                continue
            for shard in shards:
                try:
                    files = list(os.scandir(shard))
                except OSError:
                    continue
                for item in files:
                    if not item.name.endswith(".npz"):
                        if reap:
                            reap_orphan(item, LEASE_TTL_S)
                        continue
                    try:
                        st = item.stat()
                    except OSError:
                        continue  # evicted mid-walk
                    entries.append(
                        _Entry(
                            kind,
                            _ref_from_filename(item.name),
                            Path(item.path),
                            st.st_size,
                            st.st_atime_ns,
                            st.st_mtime_ns,
                        )
                    )
        return entries

    def _written(self, path: Path) -> None:
        """Stamp a just-written artifact and enforce the budget (locked).

        atime = mtime from one clock marks creation and first use.
        With a budget, the running byte total — seeded by one scan,
        recomputed by every GC pass — decides whether to collect, so a
        put never walks the shard tree unless the store is over budget.
        """
        now = time.time_ns()
        with contextlib.suppress(OSError):
            os.utime(path, ns=(now, now))
        if self.max_bytes is None:
            self._bytes = None  # unbudgeted puts are not tracked
            return
        if self._bytes is None:
            self._bytes = sum(entry.bytes for entry in self._scan())
        else:
            with contextlib.suppress(OSError):
                self._bytes += path.stat().st_size
        if self._bytes > self.max_bytes:
            self.gc(sweep=False)

    # -- read pinning ----------------------------------------------------------
    @contextlib.contextmanager
    def reading(self, ref: str) -> Iterator[None]:
        """Pin an entry while a reader uses its file.

        GC skips pinned entries — even if that leaves the store over
        budget — so an eviction can never unlink an ``.npz`` under a
        reader mid-load.  Used internally by every disk read; exposed
        so tests (and long-lived readers) can hold a pin explicitly.
        """
        with self._lock:
            self._pins[ref] += 1
        try:
            yield
        finally:
            with self._lock:
                self._pins[ref] -= 1
                if self._pins[ref] <= 0:
                    del self._pins[ref]

    # -- cross-process claim leases --------------------------------------------
    @property
    def lease_dir(self) -> Path:
        """Where cross-process claim leases live."""
        return self.root / _LEASES_DIR

    def _lease_path(self, kind: str, ref: str) -> Path:
        return self.lease_dir / f"{kind[0]}-{ref}.json"

    def lease_holder(self, ref: str, *, kind: str = "result") -> dict | None:
        """The *live* lease on an entry — ``{pid, host, expires}`` — or
        ``None``: a stale one (junk, expired, or naming a pid that is
        dead on this host) is free to steal."""
        seen = _judge_lease(self._lease_path(kind, ref))
        return None if seen is None or seen.stale else seen.holder

    def _holder_here(self) -> _Holder | None:
        """This store's holder if this process made it (locked): a
        forked child inherits neither the holder, nor its leases, nor
        its flights, whose events no thread of the child would set."""
        if self._holder is not None and self._holder.pid != os.getpid():
            self._holder, self._held_leases = None, {}
            self._inflight = {}
        return self._holder

    def _new_holder(self) -> None:
        """Write a new holder file, expiring one TTL from now (locked)."""
        pid = os.getpid()
        name = f"{HOST}-{pid}-{next(_holder_serial)}.json"
        path = write_once(self.lease_dir / _HB_DIR / name, _holder_document)
        self._holder_expires = time.time() + LEASE_TTL_S
        os.utime(path, (time.time(), self._holder_expires))
        st = os.stat(path)
        unlink = weakref.finalize(self, _unlink_holder, path, pid)
        self._holder = _Holder(path, (st.st_dev, st.st_ino), pid, unlink)

    def _renew_holder(self) -> bool:
        """Move the holder's expiry one TTL on, unless it has passed or
        the file is gone (locked); whether it moved."""
        now = time.time()
        try:
            if os.stat(self._holder.path).st_mtime <= now:
                return False
            os.utime(self._holder.path, (now, now + LEASE_TTL_S))
        except OSError:
            return False
        self._holder_expires = now + LEASE_TTL_S
        return True

    def _expire_holder(self) -> None:
        """Forget the holder and its leases, once its expiry has passed
        or its file vanished (locked).  Rivals may have stolen the
        leases since, so the inode is never renewed again: the next
        lease links to a new holder.  Builds in flight go on
        unprotected — at worst one redundant, atomically replaced
        build."""
        for kind, ref in self._held_leases:
            obs.emit("lease.expire", kind=kind, ref=ref)
        self._held_leases = {}
        self._leases_idle.set()
        self._holder.unlink()
        self._holder = None

    def _holder_for_lease(self) -> _Holder:
        """The holder the next lease links to (locked): kept fresh by the
        heartbeat while leases are held, renewed by the first lease
        after an idle spell, replaced once expired or vanished."""
        if self._holder_here() is not None:
            fresh = self._held_leases and self._holder_expires > time.time()
            if fresh or self._renew_holder():
                return self._holder
            self._expire_holder()
        self._new_holder()
        return self._holder

    def acquire_lease(self, ref: str, *, kind: str = "result") -> bool:
        """Take the cross-process build lease for an entry.

        Returns ``True`` when this store now holds the lease (renewed
        by the heartbeat until :meth:`release_lease`), ``False`` when
        another *live* holder does.  Taking it is one atomic
        ``os.link`` of the store's holder file; a stale lease is stolen
        first (:meth:`_steal_stale_lease`).  Never two holders.
        """
        path = self._lease_path(kind, ref)
        for _attempt in range(8):
            with self._lock:
                holder = self._holder_for_lease()
                try:
                    os.link(holder.path, path)
                    ident = holder.ident
                except FileExistsError:
                    ident = None
                except OSError:  # no hard links here: a file of its own
                    ident = _create_own_lease(path, self._holder_expires)
                if ident is not None:
                    self._held_leases[(kind, ref)] = ident
                    self._leases_idle.clear()
                    self._ensure_lease_heartbeat()
                    obs.emit("lease.acquire", kind=kind, ref=ref)
                    return True
            seen = _judge_lease(path)
            if seen is not None and seen.stale is None:
                return False  # a live peer holds it
            self._steal_stale_lease(path)
        return False

    def _steal_stale_lease(self, path: Path) -> None:
        """Retire a stale lease atomically (rename aside, then delete).

        A blind unlink would race rival stealers: the slower one's
        queued unlink could remove the winner's fresh lease.  Instead
        the lease is re-judged, then renamed aside — of several rivals
        exactly one wins the rename, and the losers loop and observe
        the winner's new lease.  The judgment is bound to the inode
        that was opened: if the inode taken is not the one judged, a
        rival republished in the judge→rename gap, so its fresh lease
        is restored (hard link back) and the steal backs off.  All
        leases of one store share its holder's inode; the check stays
        sound because an inode whose expiry has passed is never renewed
        or linked again, and a dead holder links nothing.  A wrong
        steal stays undone unless a third actor publishes into the
        emptied path first: then one redundant, atomically replaced
        build, never a torn artifact.
        """
        seen = _judge_lease(path)
        if seen is None or seen.stale is None:
            return  # retired by a rival stealer, or fresh again
        aside = path.parent / (
            f"{path.name}.stale-{os.getpid()}-{time.monotonic_ns()}"
        )
        try:
            os.rename(path, aside)
            taken = os.stat(aside)
        except OSError:
            return  # another stealer won the rename; back off
        if (taken.st_dev, taken.st_ino) != seen.ident:
            # We took a lease republished after our judgment — a live
            # rival's. Put it back and back off.
            with contextlib.suppress(OSError):
                os.link(aside, path)
            with contextlib.suppress(OSError):
                os.unlink(aside)
            return
        with contextlib.suppress(OSError):
            os.unlink(aside)
        letter, _, ref = path.name.removesuffix(".json").partition("-")
        kind = {"t": "trace", "r": "result"}.get(letter, letter)
        obs.emit("lease.steal", reason=seen.stale, kind=kind, ref=ref)

    def release_lease(self, ref: str, *, kind: str = "result") -> None:
        """Drop a lease *if this store acquired it* (no-op otherwise).

        A pid match alone is not ownership — another ``TraceStore`` of
        this process may hold the lease — so only a held lease's path
        is unlinked, and only while it is still the inode this store
        published in this process: a lease a rival stole since stays.
        """
        with self._lock:
            self._holder_here()
            ident = self._held_leases.pop((kind, ref), None)
            if ident is None:
                return
            if not self._held_leases:
                self._leases_idle.set()
        path = self._lease_path(kind, ref)
        with contextlib.suppress(OSError):
            st = os.stat(path)
            if (st.st_dev, st.st_ino) == ident:
                os.unlink(path)
                obs.emit("lease.release", kind=kind, ref=ref)

    def _ensure_lease_heartbeat(self) -> None:
        """Start the renewal thread if it is not running (locked)."""
        if self._lease_thread is None or not self._lease_thread.is_alive():
            self._lease_thread = threading.Thread(
                target=self._lease_heartbeat,
                name="repro-lease-heartbeat",
                daemon=True,
            )
            self._lease_thread.start()

    def _lease_heartbeat(self) -> None:
        """Renew the holder every ``LEASE_TTL_S / 3``; exits when idle.

        One ``os.utime`` per tick covers every lease linked to the
        holder (plus one per lease that is a file of its own), however
        many there are.  A crash stops the ticks and rivals steal the
        leases once the holder's expiry passes; a tick that finds it
        passed (this thread stalled) expires the holder instead.  The
        last release wakes the thread at once, so it stops holding the
        store alive.
        """
        interval = min(max(LEASE_TTL_S / 3.0, 0.02), 10.0)
        while True:
            idle = self._leases_idle.wait(interval)
            with self._lock:
                if not self._held_leases:
                    self._lease_thread = None
                    return
                if idle:
                    continue
                if not self._renew_holder():
                    self._expire_holder()
                    continue
                times = (time.time(), self._holder_expires)
                for (kind, ref), ident in self._held_leases.items():
                    if ident != self._holder.ident:  # a file of its own
                        with contextlib.suppress(OSError):
                            os.utime(self._lease_path(kind, ref), times)
                held = len(self._held_leases)
            obs.emit("lease.renew", kind="hb", held=held)

    def active_leases(self) -> int:
        """How many live (unexpired) leases exist under this root.

        Takes no store lock — only lease files are read — so it is
        safe to call from observability paths without stalling
        concurrent lookups and puts.
        """
        judged = map(_judge_lease, self.lease_dir.glob("*-*.json"))
        return sum(1 for seen in judged if seen and seen.stale is None)

    def sweep_stale_leases(self) -> int:
        """Retire stale lease files, and what crashed holders left.

        A campaign killed mid-grid leaves one lease per claimed point;
        this sweep — run by every explicit :meth:`gc` pass — retires
        them through the steal protocol, so a live holder is never
        touched.  Returns how many lease files were retired.
        """
        swept = 0
        for path in self.lease_dir.glob("*-*.json"):
            seen = _judge_lease(path)
            if seen is not None and seen.stale:
                self._steal_stale_lease(path)
                swept += 1
        # Rename-aside leftovers and holder files go a full TTL past
        # their mtime, so an owner renewing right now is never raced.
        now = time.time()
        hb = self.lease_dir / _HB_DIR
        for path in [*self.lease_dir.glob("*.stale-*"), *hb.glob("*")]:
            with contextlib.suppress(OSError):
                if reap_orphan(path, LEASE_TTL_S):
                    continue
                if path.stat().st_mtime + LEASE_TTL_S < now:
                    path.unlink()
        return swept

    # -- the claim protocol ----------------------------------------------------
    # Every build runs: counted lookup → claim (in-process flight, then
    # cross-process lease) → uncounted re-check (a peer may have
    # published between the miss and the claim) → deferral to a live
    # holder, up to one deadline (``_INFLIGHT_TIMEOUT_S``) → compute →
    # put, or abandon on failure.  Only the lookup and the claim differ
    # between traces and results.
    def _claim(self, kind: str, ref: str, artifact: Path) -> _Waiter | None:
        """Take the flight, then the lease; else the holder to wait on.

        A foreign lease hands the flight back, so other threads reach
        the same :class:`_LeaseWaiter`.
        """
        token = f"{kind[0]}:{ref}"
        with self._lock:
            self._holder_here()
            event = self._inflight.get(token)
            if event is not None:
                return event
            self._inflight[token] = threading.Event()
        if self.acquire_lease(ref, kind=kind):
            return None
        self._end_flight(token)
        return _LeaseWaiter(self, kind, ref, artifact)

    def _end_flight(self, token: str) -> None:
        with self._lock:
            event = self._inflight.pop(token, None)
        if event is not None:
            event.set()

    def _release(self, kind: str, ref: str) -> None:
        """Drop a claim: release the lease, wake the flight's waiters."""
        self.release_lease(ref, kind=kind)
        self._end_flight(f"{kind[0]}:{ref}")

    def _step(
        self, kind: str, ref: str, lookup: _Lookup, claim: _ClaimFn
    ) -> Claim:
        """One non-blocking step: counted lookup → claim → re-check."""
        hit = lookup(True)
        if hit is not None:
            return Claim(hit=hit)
        waiter = claim()
        if waiter is not None:
            return Claim(waiter=waiter)
        return self._recheck(kind, ref, lookup)

    def _recheck(self, kind: str, ref: str, lookup: _Lookup) -> Claim:
        """A new owner's uncounted re-check; a hit abandons the claim."""
        hit = lookup(False)
        if hit is None:
            return Claim(owned=True)
        self._release(kind, ref)
        return Claim(hit=hit)

    def _acquire(
        self,
        kind: str,
        ref: str,
        lookup: _Lookup,
        claim: _ClaimFn,
        waiter: _Waiter | None = None,
    ) -> Claim:
        """Step and wait until a hit, or until the caller must compute.

        ``waiter`` continues from an earlier step.  Past the deadline a
        thread of this process has its flight stolen (its put, should it
        come, replaces ours with identical content), and a live foreign
        holder is given up on: ``claim.expired``, compute unclaimed.
        """
        started = time.monotonic()
        token = f"{kind[0]}:{ref}"
        while True:
            if waiter is None:
                step = self._step(kind, ref, lookup, claim)
                if step.waiter is None:
                    return step
                waiter = step.waiter
            remaining = started + _INFLIGHT_TIMEOUT_S - time.monotonic()
            if waiter.wait(timeout=max(0.0, remaining)):
                waiter = None  # delivered, released or gone: step again
            elif isinstance(waiter, threading.Event):
                with self._lock:
                    stolen = self._inflight.get(token) is waiter
                    if stolen:
                        self._inflight[token] = threading.Event()
                waiter.set()  # wake the stragglers behind the wedged owner
                if stolen:
                    return self._recheck(kind, ref, lookup)
                waiter = None
            else:
                obs.emit(
                    "claim.expired",
                    kind=kind,
                    ref=ref,
                    waited_s=round(time.monotonic() - started, 3),
                )
                return Claim()

    # -- trace access ----------------------------------------------------------
    def load(self, key: TraceKey) -> Trace | None:
        """Disk lookup only; ``None`` on absent or unreadable entries."""
        path = self.path_for(key)
        with self.reading(key.ref):
            try:
                trace = Trace.load(path)
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                return None
        _stamp(path)
        return trace

    def put(self, key: TraceKey, trace: Trace) -> Path:
        with self._lock:
            self._memory[key] = trace
        path = trace.save(self.path_for(key))
        with self._lock:
            self._written(path)
        self._release("trace", key.ref)  # wake any claim waiters
        return path

    def compact_traces(
        self, refs: "Iterable[str] | None" = None
    ) -> list[dict]:
        """Rewrite stored traces in the super-op layout where it pays.

        Loads every stored trace shard (or only ``refs``), runs cycle
        detection (:mod:`repro.ir.superops`) and re-saves in place —
        the atomic-replace write and the layout-independent digests
        mean concurrent readers see either the old or the new bytes,
        both of which load bit-identically.  Shards that do not
        compact are rewritten flat.  The rewrite keeps each shard's
        access and creation times, so GC order is unchanged.  Returns
        one report row per shard for the CLI.
        """
        wanted = None if refs is None else set(refs)
        entries = sorted(
            (
                entry
                for entry in self._scan()
                if entry.kind == "trace"
                and (wanted is None or entry.ref in wanted)
            ),
            key=lambda entry: entry.ref,
        )
        report: list[dict] = []
        for entry in entries:
            try:
                trace = Trace.load(entry.path)
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                continue
            trace.save(entry.path, compact=True)
            with contextlib.suppress(OSError):
                os.utime(entry.path, ns=(entry.atime_ns, entry.mtime_ns))
            superops = trace.attached_superops()
            n_ops = len(superops.ops) if superops is not None else 0
            coverage = superops.coverage if superops is not None else 0.0
            report.append(
                {
                    "ref": entry.ref,
                    "path": str(entry.path.relative_to(self.root)),
                    "bytes_before": entry.bytes,
                    "bytes_after": entry.path.stat().st_size,
                    "n_ops": n_ops,
                    "coverage": round(coverage, 4),
                }
            )
        return report

    def _lookup_trace(self, key: TraceKey) -> Trace | None:
        """Memory → disk; counts hits (the build counts misses)."""
        with self._lock:
            trace = self._memory.get(key)
        if trace is not None:
            self.merge_touches({key: 1})
            return trace
        trace = self.load(key)
        if trace is not None:
            with self._lock:
                self.counters.disk_hits += 1
                self._memory[key] = trace
        return trace

    def get(self, key: TraceKey, builder: Callable[[], Trace]) -> Trace:
        """Memory → disk → ``builder()`` (which is then persisted).

        The claim protocol makes concurrent misses — threads or
        processes on the root — one builder call, unless a live foreign
        holder outlasts the deadline (then a benign duplicate build).
        """
        claim = self._acquire(
            "trace",
            key.ref,
            lambda _count: self._lookup_trace(key),
            lambda: self._claim("trace", key.ref, self.path_for(key)),
        )
        if claim.hit is not None:
            return claim.hit
        try:
            with self._lock:
                self.counters.misses += 1
            obs.emit("trace.build.start", ref=key.ref)
            build_t0 = time.perf_counter()
            with obs.span("store.build_trace", ref=key.ref):
                trace = builder()
            obs.emit(
                "trace.build.done",
                ref=key.ref,
                dur_s=time.perf_counter() - build_t0,
            )
            self.put(key, trace)  # publishing releases the claim
        except BaseException:
            if claim.owned:
                self._release("trace", key.ref)
            raise
        return trace

    # -- result cache ----------------------------------------------------------
    def n_results(self) -> int:
        return sum(1 for entry in self._scan() if entry.kind == "result")

    def lookup_result(
        self, key: ResultKey, *, count: bool = True
    ) -> EvalOutcome | None:
        """Read a result from its file; counts the hit or miss.

        ``count=False`` is the uncounted *peek* the claim protocol uses
        to close the lookup→claim race — a re-check, not a new lookup,
        so it must not distort the hit/miss telemetry.
        """
        path = self.result_path_for(key)
        with self.reading(key.ref):
            try:
                outcome = _load_outcome(path)
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                outcome = None  # absent, vanished, torn or stale-format
        if outcome is not None:
            _stamp(path)
        if not count:
            return outcome
        with self._lock:
            if outcome is None:
                self.result_counters.misses += 1
            else:
                self.result_counters.disk_hits += 1
        if outcome is None:
            obs.emit("cache.miss", ref=key.ref)
        else:
            obs.emit("cache.hit", ref=key.ref, tier="disk")
        return outcome

    def claim_result(self, key: ResultKey) -> _Waiter | None:
        """The protocol's claim step for a result: ``None`` when the
        caller now owns the claim (it must :meth:`put_result` or
        :meth:`abandon_result_claim`), else the holder to wait on."""
        return self._claim("result", key.ref, self.result_path_for(key))

    def abandon_result_claim(self, key: ResultKey) -> None:
        """Release a claim without a result (waiters wake and recompute)."""
        self._release("result", key.ref)

    def put_result(self, key: ResultKey, outcome: EvalOutcome) -> Path:
        path = _save_outcome(self.result_path_for(key), outcome)
        with self._lock:
            self._written(path)
        self._release("result", key.ref)  # wake any claim waiters
        return path

    def _result_steps(self, key: ResultKey) -> tuple[_Lookup, _ClaimFn]:
        # Through ``self``, so every lookup and claim stays one call of
        # the public method.
        return (
            lambda count: self.lookup_result(key, count=count),
            lambda: self.claim_result(key),
        )

    def try_claim_result(self, key: ResultKey) -> Claim:
        """One non-blocking step of the claim protocol: a hit, an owned
        claim, or a live holder's waiter for :meth:`get_result`."""
        return self._step("result", key.ref, *self._result_steps(key))

    def get_result(
        self,
        key: ResultKey,
        compute: Callable[[], EvalOutcome],
        *,
        waiter: _Waiter | None = None,
    ) -> EvalOutcome:
        """Disk → ``compute()`` (which is then persisted).

        The blocking claim protocol, then compute and put: callers for
        one key — threads or processes on the root — compute it once
        while its owner is alive.  ``waiter`` continues from a
        :meth:`try_claim_result` step.  The claim is abandoned only on
        failure.
        """
        steps = self._result_steps(key)
        claim = self._acquire("result", key.ref, *steps, waiter)
        if claim.hit is not None:
            return claim.hit
        try:
            outcome = compute()
            self.put_result(key, outcome)  # publishing releases the claim
        except BaseException:
            if claim.owned:
                self.abandon_result_claim(key)
            raise
        return outcome

    # -- trace uses ------------------------------------------------------------
    def merge_touches(self, uses: Mapping[TraceKey, int]) -> None:
        """Count trace uses as memory hits and stamp each trace once.

        ``uses`` maps a trace to how many times it was used.  A campaign
        tallies every evaluated job whose outcome reaches it, whichever
        executor ran the job, and passes the tally here once when it
        completes, so a trace's atime moves once per campaign rather
        than once per job; a lookup served from memory passes one use.
        ``benchmarks/campaign/spans.py`` times this under its name.
        """
        with self._lock:
            self.counters.memory_hits += sum(uses.values())
        for key in uses:
            _stamp(self.path_for(key))

    # -- garbage collection ----------------------------------------------------
    def total_bytes(self) -> int:
        return sum(entry.bytes for entry in self._scan())

    def gc(
        self, max_bytes: int | None = None, *, sweep: bool = True
    ) -> GCReport:
        """Evict entries until the store fits its disk budget.

        Eviction order is **results first, then traces** (results are
        recomputable from a stored trace in milliseconds; a trace costs
        an interpreter run), least-recently-used (oldest atime) first
        within each kind.  The pass stops the moment the budget is met
        — it never over-evicts below ``max_bytes`` — and entries pinned
        by an in-flight reader are skipped even if that leaves the
        store over budget.  With no budget (neither argument nor
        construction-time) it is a no-op that reports the current
        size.  Explicit passes also sweep stale lease files (crashed
        campaigns leave one per claimed point) — before taking the
        store lock, because the sweep is pure directory I/O — and reap
        the temps of killed writers in their shard walk; the auto-GC
        path, which enters with the lock already held, does neither.
        """
        if sweep:
            self.sweep_stale_leases()
        with self._lock:
            entries = self._scan(reap=sweep)
            budget = self.max_bytes if max_bytes is None else max_bytes
            total = sum(entry.bytes for entry in entries)
            report = GCReport(total_bytes=total, max_bytes=budget)
            if budget is not None and total > budget:
                entries.sort(
                    key=lambda e: (e.kind != "result", e.atime_ns, e.ref)
                )
                for entry in entries:
                    if total <= budget:
                        break
                    if self._pins.get(entry.ref):
                        report.pinned_skipped += 1
                        continue
                    entry.path.unlink(missing_ok=True)
                    total -= entry.bytes
                    report.freed_bytes += entry.bytes
                    report.evicted.append((entry.kind, entry.ref, entry.bytes))
                    if entry.kind == "result":
                        self.result_counters.evictions += 1
                    else:
                        self.counters.evictions += 1
                        for key in list(self._memory):
                            if key.ref == entry.ref:
                                del self._memory[key]
                report.total_bytes = total
            self._bytes = total
        if report.evicted:
            obs.emit(
                "gc.evicted",
                n=len(report.evicted),
                results=report.evicted_results,
                traces=report.evicted_traces,
                freed_bytes=report.freed_bytes,
                total_bytes=report.total_bytes,
            )
        return report

    # -- observability ---------------------------------------------------------
    def stats_registry(self) -> "obs.MetricsRegistry":
        """Layout, sizes and counters as one metrics registry.

        This is the single emission path behind ``repro store stats``
        (``--json`` and ``--prometheus``): gauges for layout/sizes,
        ``_total``-suffixed counters for the monotonic hit/miss/
        eviction counts.  It walks the whole shard tree and judges
        every lease, so it runs only when asked.
        """
        # The shard walk and the lease scan are pure file I/O, done
        # without the store lock so they never stall concurrent
        # lookups/puts.
        active = self.active_leases()
        entries = self._scan()
        registry = obs.MetricsRegistry()
        registry.label("root", str(self.root))
        registry.label("max_bytes", self.max_bytes)
        for kind in ("trace", "result"):
            mine = [entry for entry in entries if entry.kind == kind]
            registry.gauge(
                f"{kind}_entries", f"stored {kind} artifacts"
            ).set(len(mine))
            registry.gauge(
                f"{kind}_bytes", f"on-disk bytes of {kind} artifacts"
            ).set(sum(entry.bytes for entry in mine))
        registry.gauge("total_bytes", "total on-disk bytes").set(
            sum(entry.bytes for entry in entries)
        )
        registry.gauge("shards", "populated shard directories").set(
            len({entry.path.parent for entry in entries})
        )
        registry.gauge("active_leases", "live claim leases").set(active)
        with self._lock:
            for kind, counters in (
                ("trace", self.counters),
                ("result", self.result_counters),
            ):
                for name, value in counters.as_dict().items():
                    registry.counter(
                        f"{kind}_{name}", f"{kind} store {name}"
                    ).inc(value)
        return registry

    def stats(self) -> dict[str, object]:
        """One JSON-friendly snapshot of layout, sizes and counters.

        Canonical snake_case schema: monotonic counts suffixed
        ``_total`` (see :meth:`stats_registry`).
        """
        return self.stats_registry().snapshot()

    # -- maintenance -----------------------------------------------------------
    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    def clear(self) -> None:
        """Drop the trace memory and delete every on-disk entry.

        Leases and holder files go too; temps go as in :meth:`gc`, so a
        live writer's rename still lands.
        """
        with self._lock:
            self.clear_memory()
            for entry in self._scan(reap=True):
                entry.path.unlink(missing_ok=True)
            self._bytes = None
            self._held_leases, self._holder = {}, None
            self._leases_idle.set()
            for path in [
                *self.lease_dir.glob("*-*.json"),
                *(self.lease_dir / _HB_DIR).glob("*.json"),
            ]:
                path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"TraceStore({str(self.root)!r}, max_bytes={self.max_bytes})"


# ---------------------------------------------------------------------------
# default store
# ---------------------------------------------------------------------------

_override: TraceStore | None = None
_instances: dict[Path, TraceStore] = {}


def set_default_store(store: TraceStore | None) -> None:
    """Globally override (or with ``None`` reset) the default store.

    The test suite points the default at a tmpdir through this hook so
    runs never pollute the user's cache directory.
    """
    global _override
    _override = store


def default_store() -> TraceStore:
    """The process-wide store: ``$REPRO_TRACE_STORE`` or ``~/.cache``.

    Instances are memoised per resolved root so the in-memory traces
    survives repeated calls while env-var changes take effect.
    ``$REPRO_STORE_MAX_BYTES`` (bytes) sets the disk budget the
    store's GC enforces.
    """
    if _override is not None:
        return _override
    env = os.environ.get(TRACE_STORE_ENV)
    root = (
        Path(env).expanduser()
        if env
        else Path.home() / ".cache" / "repro" / "traces"
    )
    budget_env = os.environ.get(STORE_MAX_BYTES_ENV)
    max_bytes: int | None = None
    if budget_env:
        try:
            max_bytes = int(budget_env)
            if max_bytes < 0:
                raise ValueError(budget_env)
        except ValueError:
            warnings.warn(
                f"ignoring invalid {STORE_MAX_BYTES_ENV}={budget_env!r} "
                "(expected a non-negative integer byte count)",
                RuntimeWarning,
                stacklevel=2,
            )
            max_bytes = None
    store = _instances.get(root)
    if store is None:
        store = _instances.setdefault(
            root, TraceStore(root, max_bytes=max_bytes)
        )
    elif store.max_bytes != max_bytes:
        # Budget changes take effect on memoised instances too.
        store.max_bytes = max_bytes
    return store


def kernel_trace_key(
    name: str, n: int | None = None, seed: int | None = None
) -> TraceKey:
    """Store identity of a registry kernel's trace.

    ``n`` is resolved to the kernel's default so equivalent requests
    share one store entry — the same resolution
    :func:`kernel_trace_cached` applies, exposed so result caching can
    address ``(trace, scenario, backend)`` without re-acquiring.
    """
    from ..kernels import get_kernel

    kernel = get_kernel(name)
    eff_n = kernel.default_n if n is None else n
    return TraceKey.make(name, n=eff_n, seed=seed)


def kernel_trace_cached(
    name: str,
    n: int | None = None,
    seed: int | None = None,
    store: TraceStore | None = None,
) -> Trace:
    """Trace of a registered kernel, interpreted at most once per machine.

    The canonical acquisition path for everything keyed by a registry
    kernel name: resolves ``n`` to the kernel's default so equivalent
    requests share one store entry, and only builds (program, inputs)
    on a miss.
    """
    from ..kernels import get_kernel

    kernel = get_kernel(name)
    eff_n = kernel.default_n if n is None else n
    key = TraceKey.make(name, n=eff_n, seed=seed)
    target = store if store is not None else default_store()

    def _build() -> Trace:
        program, inputs = kernel.build(n=eff_n, seed=seed)
        return build_trace(program, inputs)

    return target.get(key, _build)
