"""repro.engine — the system's single evaluation surface.

The production layer between the pluggable evaluation backends
(:mod:`repro.backends`) and the bench/CLI surface, exploiting the
paper's trace-once / sweep-many structure at scale:

* :mod:`~repro.engine.store` — sharded, content-addressed ``.npz``
  stores for *traces* (a kernel is interpreted once per machine, ever
  — the single trace-acquisition path) and for *results* (an
  evaluation is pure in ``(trace, scenario, backend)``, so re-running
  an identical campaign skips simulation entirely), both with
  hit/miss/eviction counters;
* :mod:`~repro.engine.campaign` — declarative sweep specs (kernels ×
  PEs × page sizes × caches × policies × partitions, plus the timed
  backend's topologies × modes × cost models), JSON in and out; each
  value is checked once, when the spec is built;
* :mod:`~repro.engine.schema` — the versioned JSON Schema of the spec
  file format, which ``CampaignSpec.from_dict`` checks every document
  against before the registries are consulted;
* :mod:`~repro.engine.executor` — a multiprocessing fan-out that
  dispatches through the backend registry, with copy-on-write trace
  sharing, deterministic result ordering, a serial fallback, and
  streaming (:class:`~repro.engine.executor.CampaignStream`) for
  progress on long sweeps;
* :mod:`~repro.engine.service` — :class:`~repro.engine.service.EvalService`,
  one resident worker pool: every campaign handed the same service
  (``run_campaign(spec, service=svc)``) submits its jobs there, two
  per worker at a time, instead of forking a pool of its own, and
  each job still runs on the backend its spec declares;
* :mod:`~repro.engine.results` — backend-tagged typed records with
  bit-exact comparison and JSON export.

Quickstart::

    from repro.engine import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="demo",
        kernels=("hydro_fragment", "iccg"),
        pes=(1, 4, 16, 64),
        page_sizes=(32, 64),
        cache_elems=(256, 0),
    )
    result = run_campaign(spec)           # parallel, store-backed
    print(result.to_json())

    timed = CampaignSpec(
        name="demo-timed",
        backend="timed",                  # same engine, timed model
        kernels=("hydro_fragment",),
        pes=(4, 16),
        topologies=("mesh2d", "torus2d"),
        modes=("blocking", "multithreaded"),
    )
    for record in run_campaign(timed, stream=True):   # progress
        print(record.index, record.metrics["speedup"])

Store layout (fleet scale)
--------------------------

The store fans artifacts out across 256 prefix shards, so campaign
traffic never funnels into one flat directory, and disk use stays
bounded.  There is no index file: every artifact is written once by
atomic rename and never changed, so its path and ``stat`` are the
whole record::

    <root>/traces/<ab>/...   trace .npz, shard = digest[:2]
    <root>/results/<cd>/...  cached EvalOutcome .npz, same scheme;
                             size = st_size, created = mtime,
                             last used = atime (re-stamped per hit,
                             and once per campaign for a trace it
                             evaluated against)
    <root>/leases/*.json     cross-process claim leases: hard links to
                             a holder file whose mtime, heartbeat-
                             renewed, is their expiry; independent
                             processes sharing the root build every
                             trace and result exactly once, and steal
                             a crashed holder's lease after its TTL

``TraceStore(max_bytes=...)`` (or
``$REPRO_STORE_MAX_BYTES``) turns on eviction: ``store.gc()`` — also
run after any put that takes the store over budget — drops
least-recently-used (oldest atime) **result entries first, then
traces**, stops the moment the budget is met, and never unlinks an
entry a reader has pinned.  Files outside the shard directories (a
legacy flat layout, an old ``index.json``) are ignored.
``repro store stats`` / ``repro store gc`` expose the same machinery
on the command line.
"""

from .campaign import (
    DEFAULT_CACHES,
    DEFAULT_PAGE_SIZES,
    DEFAULT_PES,
    CampaignSpec,
    KernelSpec,
)
from .executor import CampaignStream, default_workers, run_campaign, run_grid
from .results import CampaignResult, EvalRecord
from .service import EvalService
from .store import (
    LEASE_TTL_S,
    RESULT_FORMAT_VERSION,
    STORE_MAX_BYTES_ENV,
    TRACE_STORE_ENV,
    GCReport,
    ResultKey,
    StoreCounters,
    TraceKey,
    TraceStore,
    build_trace,
    default_store,
    interpretation_count,
    kernel_trace_cached,
    kernel_trace_key,
    set_default_store,
    shard_of,
)

__all__ = [
    "DEFAULT_CACHES",
    "DEFAULT_PAGE_SIZES",
    "DEFAULT_PES",
    "LEASE_TTL_S",
    "RESULT_FORMAT_VERSION",
    "STORE_MAX_BYTES_ENV",
    "TRACE_STORE_ENV",
    "CampaignResult",
    "CampaignSpec",
    "CampaignStream",
    "EvalRecord",
    "EvalService",
    "GCReport",
    "KernelSpec",
    "ResultKey",
    "StoreCounters",
    "TraceKey",
    "TraceStore",
    "build_trace",
    "default_store",
    "default_workers",
    "interpretation_count",
    "kernel_trace_cached",
    "kernel_trace_key",
    "run_campaign",
    "run_grid",
    "set_default_store",
    "shard_of",
]
