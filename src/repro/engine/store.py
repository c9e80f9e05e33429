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
      touch/<tag>-<host>-<pid>.jsonl        pool-worker access logs

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
  boundaries with nothing to flush.
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
* **Worker access logs** — multiprocessing pool workers (and service
  workers) append one JSON line per evaluation to their own
  ``touch/<tag>-<host>-<pid>.jsonl`` file; the campaign parent merges
  them when the campaign completes (:meth:`TraceStore.merge_touches`):
  access times are applied with ``os.utime``, and trace-hit counters
  and worker-side evaluation counts join the parent's.
* **Claim leases** — in-process claims (threads, streams) coordinate
  through :class:`threading.Event`; *cross-process* claims coordinate
  through lock-file leases under ``leases/``: one small JSON file per
  in-flight build recording the holder's pid, host and an expiry
  timestamp.  A lease is published atomically (written to a temp file,
  then hard-linked into place, so a reader can never observe a
  half-written lease) and *stolen* by a rival once it goes stale — or
  immediately, when the holder's pid is provably dead on the same
  host.  Liveness past the lease's own expiry comes from a single
  per-process *heartbeat manifest* (``leases/hb/<host>-<pid>.json``)
  renewed with one atomic replace per tick, so heartbeat I/O is O(1)
  per tick no matter how many leases a campaign holds: a lease is
  live while its own expiry is in the future *or* its holder's
  heartbeat is fresh.  Two independent processes sharing one store
  root therefore never build the same entry twice while the first
  builder is alive; a crash stops the heartbeat and delays rivals by
  at most ``lease_ttl_s``.
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
import socket
import tempfile
import threading
import time
import warnings
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .. import obs
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
    "append_touch",
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
_TOUCH_DIR = "touch"
_LEASES_DIR = "leases"

#: The claim protocol's one deadline: how long a caller defers to a
#: live holder (a thread of this process, or another process's lease)
#: before building the entry itself.
_INFLIGHT_TIMEOUT_S = 120.0

#: Default validity of a cross-process claim lease.  A holder's
#: per-process heartbeat manifest is renewed every ``lease_ttl_s / 3``
#: (one atomic replace covering every lease it holds), so only a
#: crashed (or wedged) holder ever lets its leases go stale.
LEASE_TTL_S = 30.0

#: How often a cross-process lease waiter re-checks for the peer's
#: result (or the lease's disappearance).
_LEASE_POLL_S = 0.05

_HOSTNAME = socket.gethostname() or "localhost"

#: Heartbeat manifests live in a subdirectory so the ``*-*.json``
#: globs over claim-lease files never pick one up.
_HB_DIR = "hb"


def _safe_host(host: str) -> str:
    """A hostname reduced to filename-safe characters."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", host) or "localhost"


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness of a pid on *this* host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists, owned by someone else (or unknowable)
    return True


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


def _stamp(path: Path, at_ns: int | None = None) -> None:
    """Record a use of an artifact: atime moves forward, mtime stays.

    A file that vanished (evicted, or cleared by another process) is
    ignored — recency is a hint, never worth failing a lookup over.
    """
    try:
        st = os.stat(path)
        atime = time.time_ns() if at_ns is None else max(at_ns, st.st_atime_ns)
        os.utime(path, ns=(atime, st.st_mtime_ns))
    except OSError:
        pass


def _save_outcome(path: Path, outcome: EvalOutcome) -> Path:
    """Persist an outcome to ``.npz`` (atomic replace, exact dtypes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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


def append_touch(
    touch_dir: str | os.PathLike, tag: str, ref: str, *, evals: int = 0
) -> None:
    """Append one access record for a trace entry.

    Pool and service workers call this once per evaluated job: each
    process appends to its *own* ``<tag>-<host>-<pid>.jsonl`` file, so
    no two writers ever share a file.  The campaign parent applies the
    records — access times, trace-hit counters and worker-side
    evaluation counts — via :meth:`TraceStore.merge_touches`.
    Failures are swallowed: touches are advisory (LRU hints and
    observability), never worth failing an evaluation over.
    """
    try:
        directory = Path(touch_dir)
        directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {
                "ref": ref,
                "kind": "trace",
                "at": time.time(),
                "evals": int(evals),
            }
        )
        # Host + pid in the filename: fleet workers on different hosts
        # sharing one store root may reuse a pid.
        name = f"{tag}-{_safe_host(_HOSTNAME)}-{os.getpid()}.jsonl"
        with open(directory / name, "a") as fh:
            fh.write(line + "\n")
    except OSError:
        pass


@dataclass
class StoreCounters:
    """Observability: where each ``get`` was satisfied, plus GC work."""

    memory_hits: int = 0
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


def _lease_fields(path: Path) -> dict[str, str]:
    """Event fields (kind, ref) recovered from a lease file name."""
    letter, _, rest = path.name.partition("-")
    ref = rest[:-5] if rest.endswith(".json") else rest
    kind = {"t": "trace", "r": "result"}.get(letter, letter)
    return {"kind": kind, "ref": ref}


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
    """Sharded two-level (memory, disk) cache of traces and results.

    ``get`` resolves a :class:`TraceKey` against the in-process map
    first, then the ``.npz`` file in its shard directory, and only then
    invokes the builder — persisting its result for every later
    process.  Unreadable or stale-format files are treated as misses
    and rebuilt in place, never propagated.  See the module docstring
    for the on-disk layout, stat-based recency and the GC policy.

    ``max_bytes`` bounds the store's disk use: when set, a put that
    takes the store over budget triggers an LRU garbage-collection
    pass that evicts result-cache entries first, then traces, skipping
    entries currently pinned by a reader.  Builds and result
    computations are single-flighted per key, and reads pin their
    entry so GC can never unlink a file mid-read — the store is safe
    for any number of threads/streams in one process.

    Builds are additionally guarded *across processes* by lock-file
    leases (see the module docstring): a process that wins the
    in-process flight also takes a lease under ``leases/``, renewed by
    a heartbeat thread until released; a process that finds a foreign
    lease waits on a :class:`_LeaseWaiter` instead of building.
    ``lease_ttl_s`` is the crash-recovery bound — how long a rival
    waits before stealing a dead holder's lease (a holder whose pid is
    provably dead on the same host is stolen from immediately).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        max_bytes: int | None = None,
        lease_ttl_s: float = LEASE_TTL_S,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.lease_ttl_s = lease_ttl_s
        self.counters = StoreCounters()
        #: where each result lookup was satisfied (mirrors ``counters``)
        self.result_counters = StoreCounters()
        self._memory: dict[TraceKey, Trace] = {}
        self._result_memory: dict[ResultKey, EvalOutcome] = {}
        self._lock = threading.RLock()
        #: running on-disk byte total for auto-GC; ``None`` until a
        #: budgeted put seeds it with one scan
        self._bytes: int | None = None
        #: refs currently being read (GC must not evict them)
        self._pins: Counter[str] = Counter()
        #: single-flight builds/claims: "t:<ref>" / "r:<ref>" -> Event
        self._inflight: dict[str, threading.Event] = {}
        #: cross-process leases this store currently holds: (kind, ref)
        self._held_leases: set[tuple[str, str]] = set()
        self._lease_thread: threading.Thread | None = None
        #: set while no lease is held: wakes the heartbeat to exit
        self._leases_idle = threading.Event()
        #: (host, pid) -> (checked_monotonic, expires): short-lived
        #: cache of holder heartbeat manifests, so scanning N leases of
        #: one holder costs one manifest read, not N
        self._hb_cache: dict[tuple[str, int], tuple[float, float]] = {}

    # -- paths -----------------------------------------------------------------
    @property
    def touch_dir(self) -> Path:
        """Where per-worker access logs live."""
        return self.root / _TOUCH_DIR

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
    def _scan(self) -> list[_Entry]:
        """Every artifact under ``traces/<ab>/`` and ``results/<ab>/``.

        The store's only O(entries) operation: ``len``, result counts,
        sizes, stats, GC and ``clear`` read the ground truth from here,
        one ``stat`` per artifact.  In-flight temp files and anything
        outside the two-hex-character shard directories are skipped.
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
            self.gc(sweep_leases=False)

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

    @staticmethod
    def _parse_lease(raw: bytes) -> dict | None:
        """Validate one lease document's bytes (``None`` if torn/junk)."""
        try:
            data = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(data, dict):
            return None
        try:
            return {
                "pid": int(data["pid"]),
                "host": str(data.get("host", "")),
                "acquired": float(data.get("acquired", 0.0)),
                "expires": float(data["expires"]),
            }
        except (KeyError, TypeError, ValueError):
            return None

    def _read_lease(self, path: Path) -> dict | None:
        """The lease document, or ``None`` for absent/unreadable files.

        Leases are published and renewed atomically (hard link /
        rename), so an unreadable file is crash junk, never a healthy
        lease caught mid-write.
        """
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        return self._parse_lease(raw)

    def _heartbeat_path(self, host: str, pid: int) -> Path:
        """Where ``(host, pid)``'s per-process heartbeat manifest lives."""
        return self.lease_dir / _HB_DIR / f"{_safe_host(host)}-{int(pid)}.json"

    def _heartbeat_expires(self, host: str, pid: int) -> float:
        """When ``(host, pid)``'s heartbeat manifest expires (0.0 = none).

        Reads are cached for a small fraction of the TTL: a sweep over
        thousands of leases held by one campaign process costs one
        manifest read, not one per lease.
        """
        now = time.monotonic()
        window = min(1.0, self.lease_ttl_s / 6.0)
        cached = self._hb_cache.get((host, pid))
        if cached is not None and now - cached[0] <= window:
            return cached[1]
        info = self._read_lease(self._heartbeat_path(host, pid))
        expires = 0.0
        if info is not None and info["pid"] == pid and info["host"] == host:
            expires = info["expires"]
        self._hb_cache[(host, pid)] = (now, expires)
        return expires

    def _lease_stale(self, info: dict) -> bool:
        """Dead holder, or expired with no fresh holder heartbeat.

        A lease file is written once (at acquire, with one TTL of
        validity) and never rewritten; past its own expiry it stays
        live for as long as the holder's per-process heartbeat
        manifest is fresh.
        """
        if info["host"] == _HOSTNAME and not _pid_alive(info["pid"]):
            return True
        now = time.time()
        if info["expires"] > now:
            return False
        return self._heartbeat_expires(info["host"], info["pid"]) <= now

    def lease_holder(self, ref: str, *, kind: str = "result") -> dict | None:
        """The *live* lease on an entry, or ``None``.

        Stale leases (expired with no holder heartbeat, or a same-host
        holder whose pid is dead) read as ``None``: they are free to
        steal.  The reported ``expires`` is the *effective* one — the
        later of the lease file's own expiry and the holder's
        heartbeat expiry.
        """
        info = self._read_lease(self._lease_path(kind, ref))
        if info is None or self._lease_stale(info):
            return None
        heartbeat = self._heartbeat_expires(info["host"], info["pid"])
        if heartbeat > info["expires"]:
            info["expires"] = heartbeat
        return info

    def _write_lease_tmp(self) -> Path:
        """A fully-written lease document in a temp file (atomic source)."""
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        now = time.time()
        document = json.dumps(
            {
                "pid": os.getpid(),
                "host": _HOSTNAME,
                "acquired": now,
                "expires": now + self.lease_ttl_s,
            }
        )
        fd, tmp = tempfile.mkstemp(dir=self.lease_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(document + "\n")
        return Path(tmp)

    def acquire_lease(self, ref: str, *, kind: str = "result") -> bool:
        """Take the cross-process build lease for an entry.

        Returns ``True`` when this process now holds the lease (it is
        renewed by the heartbeat until :meth:`release_lease`), ``False``
        when another *live* process does.  Publication is atomic — the
        document is written to a temp file and hard-linked into place,
        so no reader ever sees a torn lease — and stale leases
        (expired, or a provably-dead same-host holder) are stolen.
        Stealing moves the observed stale lease *aside* with an atomic
        rename before publishing a fresh one: of several rivals racing
        the steal, exactly one wins the rename — the losers loop,
        observe the winner's fresh lease, and back off.  Never two
        holders.
        """
        path = self._lease_path(kind, ref)
        for _attempt in range(8):
            tmp = self._write_lease_tmp()
            try:
                os.link(tmp, path)
            except FileExistsError:
                info = self._read_lease(path)
                if info is not None and not self._lease_stale(info):
                    return False  # a live peer holds it
                self._steal_stale_lease(path)
                continue
            except OSError:
                # Filesystem without hard links: fall back to an
                # exclusive create (tiny torn-read window, same steal
                # protocol).
                try:
                    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    fd = os.open(path, flags)
                except FileExistsError:
                    info = self._read_lease(path)
                    if info is not None and not self._lease_stale(info):
                        return False
                    self._steal_stale_lease(path)
                    continue
                with os.fdopen(fd, "w") as fh:
                    fh.write(tmp.read_text())
            finally:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            with self._lock:
                first_hold = not self._held_leases
                self._held_leases.add((kind, ref))
                self._leases_idle.clear()
            if first_hold:
                # Publish the liveness manifest right away: the lease
                # file itself carries one TTL of validity, but the
                # manifest is what keeps it alive past that.  Publish
                # before the heartbeat starts, so its first tick finds
                # the manifest a full interval old and renews it.
                self._renew_manifest(force=True)
            with self._lock:
                self._ensure_lease_heartbeat()
            obs.emit("lease.acquire", kind=kind, ref=ref)
            return True
        return False

    def _steal_stale_lease(self, path: Path) -> None:
        """Retire a stale lease atomically (rename aside, then delete).

        A blind unlink would race rival stealers: the slower rival's
        queued unlink could remove the *winner's* freshly published
        lease, yielding two holders.  Instead the lease is re-judged
        immediately before an atomic ``os.rename`` aside — a fresh
        lease that appeared since the caller's check is left alone,
        and of several rivals racing the rename exactly one wins
        while the losers loop and observe the winner's new lease.

        The judgment is bound to the *file identity*: the staleness
        check fstats the very fd it reads, and after winning the
        rename the inode of what was actually taken is compared to
        what was judged.  A mismatch means a rival republished inside
        the judge→rename gap and we moved its *fresh* lease aside —
        it is restored (hard link back; a no-op if the path has
        already been repopulated) and the steal backs off.  That
        narrows the residual window dramatically: a wrong steal is
        detected and undone unless a *third* actor publishes into the
        emptied path before the restore lands, in which case the
        wronged holder's heartbeat notices the foreign pid within
        ``ttl/3`` and downgrades to the protocol's documented worst
        case — one redundant, atomically-replaced build, never a torn
        artifact.
        """
        try:
            with open(path, "rb") as fh:
                judged = os.fstat(fh.fileno())
                info = self._parse_lease(fh.read())
        except OSError:
            return  # already retired by a rival stealer
        if info is not None and not self._lease_stale(info):
            return  # a fresh lease appeared since we judged: back off
        if info is None:
            reason = "junk"
        elif info["expires"] <= time.time():
            reason = "expired"
        else:
            reason = "dead-holder"
        aside = path.parent / (
            f"{path.name}.stale-{os.getpid()}-{time.monotonic_ns()}"
        )
        try:
            os.rename(path, aside)
        except OSError:
            return  # another stealer won the rename; back off
        try:
            taken = os.stat(aside)
        except OSError:
            return
        if (taken.st_ino, taken.st_dev) != (judged.st_ino, judged.st_dev):
            # We took a lease republished after our judgment — a live
            # rival's. Put it back and back off.
            with contextlib.suppress(OSError):
                os.link(aside, path)
            with contextlib.suppress(OSError):
                os.unlink(aside)
            return
        with contextlib.suppress(OSError):
            os.unlink(aside)
        obs.emit("lease.steal", reason=reason, **_lease_fields(path))

    def release_lease(self, ref: str, *, kind: str = "result") -> None:
        """Drop a lease *if this store acquired it* (no-op otherwise).

        Membership in the held set is checked first — a pid match
        alone is not ownership, because another thread (or another
        ``TraceStore`` instance) of this same process may be the one
        actually holding the lease, and its build must stay protected.
        """
        with self._lock:
            if (kind, ref) not in self._held_leases:
                return
            self._held_leases.discard((kind, ref))
            if not self._held_leases:
                self._leases_idle.set()
        path = self._lease_path(kind, ref)
        info = self._read_lease(path)
        if info is None:
            return
        if info["pid"] == os.getpid() and info["host"] == _HOSTNAME:
            with contextlib.suppress(OSError):
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
        """Renew the per-process heartbeat manifest; exits when idle.

        One atomic replace per tick covers *every* lease this process
        holds — renewal I/O is O(1), not O(held leases), so campaigns
        that claim a 10⁵-point grid up front cost the same per tick as
        one that claims a single point.  A crash kills this thread
        with the process, the manifest goes stale, and rivals steal
        the leases after ``lease_ttl_s`` — the manifest *is* the
        holder's liveness signal.  The last release wakes the thread
        at once, so it stops holding the store alive.
        """
        interval = min(max(self.lease_ttl_s / 3.0, 0.02), 10.0)
        while True:
            idle = self._leases_idle.wait(interval)
            with self._lock:
                if not self._held_leases:
                    self._lease_thread = None
                    return
            if not idle:
                self._renew_manifest()

    def _renew_manifest(self, *, force: bool = False) -> None:
        """Push this process's heartbeat manifest forward (one replace).

        ``force`` publishes unconditionally (first acquire); otherwise
        a manifest another store instance of this same process renewed
        moments ago is left alone, and a manifest that *already
        expired* (this heartbeat stalled past the TTL) first drops the
        held leases rivals were entitled to steal in the gap — never
        resurrect a lease a rival may have legitimately taken.
        """
        path = self._heartbeat_path(_HOSTNAME, os.getpid())
        now = time.time()
        info = self._read_lease(path)
        own = (
            info is not None
            and info["pid"] == os.getpid()
            and info["host"] == _HOSTNAME
        )
        if not force:
            if own and info["expires"] - now > self.lease_ttl_s * (2.0 / 3.0):
                return  # freshly renewed (another instance's tick)
            if not own or info["expires"] <= now:
                self._drop_stalled_leases(now)
        expires = now + self.lease_ttl_s
        document = json.dumps(
            {
                "pid": os.getpid(),
                "host": _HOSTNAME,
                "acquired": now,
                "expires": expires,
            }
        )
        tmp = ""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                fh.write(document + "\n")
            os.replace(tmp, path)
        except OSError:
            # Renewal is advisory; the next tick retries.  Failed
            # renewals must not litter leases/hb/ with temp files.
            if tmp:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            return
        self._hb_cache[(_HOSTNAME, os.getpid())] = (time.monotonic(), expires)
        if not force:
            with self._lock:
                held = len(self._held_leases)
            obs.emit("lease.renew", kind="hb", held=held)

    def _drop_stalled_leases(self, now: float) -> None:
        """Forget held leases a stalled heartbeat let go stale.

        Called when this process's manifest is found already expired:
        any held lease whose own file expiry has also passed (or whose
        file a rival replaced) was fair game to steal, so renewing the
        manifest over it could yield two holders.  The in-flight
        builds continue unprotected — the worst case is one redundant,
        atomically-replaced evaluation, never a torn artifact.
        """
        with self._lock:
            held = list(self._held_leases)
        for kind, ref in held:
            info = self._read_lease(self._lease_path(kind, ref))
            if (
                info is not None
                and info["pid"] == os.getpid()
                and info["host"] == _HOSTNAME
                and info["expires"] > now
            ):
                continue  # acquired after the stall: still safely ours
            with self._lock:
                self._held_leases.discard((kind, ref))
                if not self._held_leases:
                    self._leases_idle.set()
            obs.emit("lease.expire", kind=kind, ref=ref)

    def active_leases(self) -> int:
        """How many live (unexpired) leases exist under this root.

        Takes no store lock — only lease files are read — so it is
        safe to call from observability paths without stalling
        concurrent lookups and puts.
        """
        if not self.lease_dir.is_dir():
            return 0
        count = 0
        for path in self.lease_dir.glob("*-*.json"):
            info = self._read_lease(path)
            if info is not None and not self._lease_stale(info):
                count += 1
        return count

    def sweep_stale_leases(self) -> int:
        """Remove stale lease files (and rename-aside leftovers).

        A campaign killed mid-grid leaves one lease file per claimed
        point that nothing else revisits unless the exact ref is
        re-claimed; this sweep — run by every :meth:`gc` pass —
        retires them through the same judge-then-rename-aside protocol
        stealing uses, so a live holder is never touched.  Returns how
        many lease files were retired.
        """
        if not self.lease_dir.is_dir():
            return 0
        swept = 0
        for path in self.lease_dir.glob("*-*.json"):
            info = self._read_lease(path)
            if info is not None and not self._lease_stale(info):
                continue
            self._steal_stale_lease(path)
            swept += 1
        # Rename-aside leftovers (an unlink that failed mid-steal) are
        # plain junk once they have sat for a while.
        for path in self.lease_dir.glob("*.stale-*"):
            try:
                if time.time() - path.stat().st_mtime > 60.0:
                    path.unlink(missing_ok=True)
            except OSError:
                continue
        # Heartbeat manifests of exited (or long-idle) processes: give
        # a full extra TTL of grace so an owner republishing at this
        # very moment is never raced.
        hb_dir = self.lease_dir / _HB_DIR
        if hb_dir.is_dir():
            for path in hb_dir.glob("*.json"):
                info = self._read_lease(path)
                if (
                    info is None
                    or info["expires"] + self.lease_ttl_s < time.time()
                ):
                    with contextlib.suppress(OSError):
                        path.unlink(missing_ok=True)
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

    def touch(self, key: TraceKey) -> None:
        """Count one use of an in-memory trace and stamp its recency.

        The serial executor calls this once per evaluated job (pool
        workers log the same use to their access files instead).
        """
        with self._lock:
            self.counters.memory_hits += 1
        _stamp(self.path_for(key))

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
            self.touch(key)
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
        """Memory → disk result lookup; counts the hit/miss either way.

        ``count=False`` is the uncounted *peek* the claim protocol uses
        to close the lookup→claim race — a re-check, not a new lookup,
        so it must not distort the hit/miss telemetry.
        """
        path = self.result_path_for(key)
        with self._lock:
            outcome = self._result_memory.get(key)
            if outcome is not None and count:
                self.result_counters.memory_hits += 1
        if outcome is not None:
            _stamp(path)
            if count:
                obs.emit("cache.hit", ref=key.ref, tier="memory")
            return outcome
        with self.reading(key.ref):
            try:
                outcome = _load_outcome(path)
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                outcome = None  # absent, vanished, torn or stale-format
        if outcome is not None:
            _stamp(path)
        with self._lock:
            if outcome is not None:
                if count:
                    self.result_counters.disk_hits += 1
                self._result_memory[key] = outcome
            elif count:
                self.result_counters.misses += 1
        if count:
            if outcome is not None:
                obs.emit("cache.hit", ref=key.ref, tier="disk")
            else:
                obs.emit("cache.miss", ref=key.ref)
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
        with self._lock:
            self._result_memory[key] = outcome
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
        """Memory → disk → ``compute()`` (which is then persisted).

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

    # -- worker access logs ----------------------------------------------------
    def merge_touches(
        self, tag: str | None = None, *, stale_after_s: float = 0.0
    ) -> dict[str, int]:
        """Apply per-worker access logs to the store, then delete them.

        Every record counts as a trace-store memory hit (the job
        evaluated against the already-acquired table), its time moves
        the trace's atime forward (``os.utime``, so LRU order sees
        worker use), and worker-side evaluation counts are summed for
        the caller to merge into the process counter.  With ``tag``
        only that campaign's files are merged, so a completing campaign
        never swallows (and half-reads) the logs of one still in
        flight.  Untagged callers (the ``repro store`` admin commands,
        which cannot know which campaigns are live in other processes)
        pass ``stale_after_s`` to merge only files idle at least that
        long — a file still being appended to belongs to a running
        campaign and is left for its owner.  Malformed trailing lines
        (a worker killed mid-write) are skipped, not propagated.
        """
        pattern = f"{tag}-*.jsonl" if tag else "*.jsonl"
        merged = {"files": 0, "touches": 0, "evaluations": 0}
        if not self.touch_dir.is_dir():
            return merged
        #: ref -> latest access time (ns) over every merged record
        latest: dict[str, int] = {}
        for path in sorted(self.touch_dir.glob(pattern)):
            try:
                if (
                    stale_after_s
                    and time.time() - path.stat().st_mtime < stale_after_s
                ):
                    continue  # a live campaign's access log
                lines = path.read_text().splitlines()
            except OSError:
                continue
            for line in lines:
                try:
                    record = json.loads(line)
                    ref = str(record["ref"])
                    at_ns = int(float(record.get("at", 0.0)) * 1e9)
                    evals = int(record.get("evals", 0))
                except (ValueError, TypeError, KeyError):
                    continue  # torn line
                latest[ref] = max(latest.get(ref, 0), at_ns)
                merged["touches"] += 1
                merged["evaluations"] += evals
            path.unlink(missing_ok=True)
            merged["files"] += 1
        with self._lock:
            self.counters.memory_hits += merged["touches"]
        for ref, at_ns in latest.items():
            shard = self.root / _TRACES_DIR / shard_of(ref)
            for path in shard.glob(f"*-{ref}.npz"):
                _stamp(path, at_ns)
        return merged

    # -- garbage collection ----------------------------------------------------
    def total_bytes(self) -> int:
        return sum(entry.bytes for entry in self._scan())

    def gc(
        self, max_bytes: int | None = None, *, sweep_leases: bool = True
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
        store lock, because the sweep is pure directory I/O; the
        auto-GC path, which enters with the lock already held, skips
        it.
        """
        if sweep_leases:
            self.sweep_stale_leases()
        with self._lock:
            entries = self._scan()
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
                    self._evict_memory(entry.ref, entry.kind)
                    total -= entry.bytes
                    report.freed_bytes += entry.bytes
                    report.evicted.append((entry.kind, entry.ref, entry.bytes))
                    if entry.kind == "result":
                        self.result_counters.evictions += 1
                    else:
                        self.counters.evictions += 1
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

    def _evict_memory(self, ref: str, kind: str) -> None:
        """Drop the in-memory copies of an evicted entry (locked)."""
        if kind == "trace":
            for key in [k for k in self._memory if k.ref == ref]:
                del self._memory[key]
        else:
            for key in [k for k in self._result_memory if k.ref == ref]:
                del self._result_memory[key]

    # -- observability ---------------------------------------------------------
    def stats_registry(self) -> "obs.MetricsRegistry":
        """Layout, sizes and counters as one metrics registry.

        This is the single emission path behind ``repro store stats``
        (``--json`` and ``--prometheus``) and
        ``CampaignResult.store_stats``: gauges for layout/sizes,
        ``_total``-suffixed counters for the monotonic hit/miss/
        eviction counts.
        """
        # The shard walk and the lease scan are pure file I/O, done
        # without the store lock so they never stall concurrent
        # lookups/puts.
        active = self.active_leases()
        entries = self._scan()
        pending = (
            sum(1 for _ in self.touch_dir.glob("*.jsonl"))
            if self.touch_dir.is_dir()
            else 0
        )
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
        registry.gauge(
            "pending_touch_files", "unmerged worker access logs"
        ).set(pending)
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
            self._result_memory.clear()

    def clear(self) -> None:
        """Drop the memory maps and delete every on-disk entry."""
        with self._lock:
            self.clear_memory()
            for entry in self._scan():
                entry.path.unlink(missing_ok=True)
            self._bytes = None
            if self.touch_dir.is_dir():
                for path in self.touch_dir.glob("*.jsonl"):
                    path.unlink(missing_ok=True)
            if self.lease_dir.is_dir():
                self._held_leases.clear()
                self._leases_idle.set()
                for path in self.lease_dir.glob("*-*.json"):
                    path.unlink(missing_ok=True)
                for path in (self.lease_dir / _HB_DIR).glob("*.json"):
                    path.unlink(missing_ok=True)
                self._hb_cache.clear()

    def __repr__(self) -> str:
        return (
            f"TraceStore({str(self.root)!r}, entries={len(self)}, "
            f"results={self.n_results()}, "
            f"max_bytes={self.max_bytes})"
        )


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

    Instances are memoised per resolved root so the in-memory layer
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
