"""The campaign benchmark's workloads and the child processes that run them.

``run.py`` starts each step of a run as a fresh process of this script,
so that preparation never counts in a metric and every measurement
starts from a cold interpreter:

    python workloads.py prep    --workload W --seed S --work DIR
    python workloads.py measure --workload W --seed S --work DIR --seconds R --trace 0|1
    python workloads.py setup   --workload W --seed S --work DIR

``prep`` fills the workload's store (traces, or traces and results) and
computes every point's counters with the scalar oracle
:func:`repro.core.simulate` on the flat trace, into ``DIR/oracle.json``.
``measure`` runs timed passes of the workload's campaign until
``--seconds`` have passed, checks every record against the oracle, and
writes ``DIR/measure.json``.  ``setup`` is one fresh-process start-up:
import ``repro``, open the store, build the spec.

Every pass is serial (``run_campaign(..., parallel=False)``): one
closed-loop client with one point in flight.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.simulator import simulate
from repro.engine import (
    DEFAULT_CACHES,
    DEFAULT_PAGE_SIZES,
    CampaignSpec,
    KernelSpec,
    TraceStore,
    kernel_trace_cached,
    run_campaign,
)
from repro.kernels import paper_kernels

from spans import ROOT, Tracer, layer_metrics

#: The paper's PE axis thinned to three of its seven counts, so that a
#: run holds several passes: a cold pass over all seven takes about
#: 18 s.  Of the subsets tried, this one keeps a cold pass's replay and
#: result-write shares nearest to the full axis's (README.md).
PAPER_PES = (1, 8, 64)
POLICIES = ("lru", "fifo")
REDUCTIONS = ("host", "subrange")

#: Kernels whose replay is cheap at n=64, so a store-fill pass spends
#: its time writing results.
FILL_KERNELS = (
    "hydro_fragment",
    "first_diff",
    "first_sum",
    "tri_diagonal",
    "inner_product",
    "equation_of_state",
)
FILL_N = 64
FILL_PAGE_SIZES = (8, 16, 32, 64)
FILL_CACHES = (0, 16, 64, 256)


#: The store prep fills, under the run's work directory.
STORE = "store"


@dataclass(frozen=True)
class Workload:
    grid: str  # "paper" or "fill"
    #: what prep leaves in the measured store: "nothing" (every pass
    #: starts on an empty root), "traces", or "results"
    prepared: str
    use_cache: bool = True


WORKLOADS = {
    "paper_cold": Workload("paper", "nothing"),
    "paper_warm": Workload("paper", "results"),
    "paper_replay": Workload("paper", "traces", use_cache=False),
    "store_fill": Workload("fill", "nothing"),
}


def build_spec(workload: str, seed: int, quick: bool = False) -> CampaignSpec:
    """The campaign one pass of ``workload`` runs.

    Seed 0 keeps every kernel's registry default seed; any other seed
    is passed to every kernel as ``KernelSpec.seed``.
    """
    kseed = None if seed == 0 else seed
    if WORKLOADS[workload].grid == "paper":
        if quick:
            sizes = [("hydro_fragment", 600), ("iccg", 256), ("pic_1d", 128)]
        else:
            sizes = [(k.name, None) for k in paper_kernels()]
        return CampaignSpec(
            name=workload,
            kernels=tuple(KernelSpec(name, n=n, seed=kseed) for name, n in sizes),
            pes=(1, 4) if quick else PAPER_PES,
            page_sizes=(32,) if quick else DEFAULT_PAGE_SIZES,
            cache_elems=DEFAULT_CACHES,
            cache_policies=POLICIES,
            reduction_strategies=REDUCTIONS,
        )
    return CampaignSpec(
        name=workload,
        kernels=tuple(
            KernelSpec(name, n=FILL_N, seed=kseed)
            for name in (FILL_KERNELS[:2] if quick else FILL_KERNELS)
        ),
        pes=(1, 4) if quick else PAPER_PES,
        page_sizes=(8, 32) if quick else FILL_PAGE_SIZES,
        cache_elems=(0, 64) if quick else FILL_CACHES,
        cache_policies=POLICIES,
        reduction_strategies=REDUCTIONS,
    )


# -- the counter oracle --------------------------------------------------------


def counter_digest(counts, by_array, page_fetches, distinct_pages) -> str:
    """Digest of one point's counters (metric columns are not counters)."""
    h = hashlib.sha256()
    for column in (counts, by_array, page_fetches, distinct_pages):
        column = np.ascontiguousarray(column, dtype=np.int64)
        h.update(repr(column.shape).encode())
        h.update(column.tobytes())
    return h.hexdigest()[:16]


def outcome_digest(outcome) -> str:
    return counter_digest(
        outcome.stats.counts,
        outcome.stats.by_array,
        outcome.per_pe["page_fetches"],
        outcome.per_pe["distinct_pages_fetched"],
    )


def oracle(spec: CampaignSpec, store: TraceStore) -> dict:
    """Every point's counter digest, from the scalar engine, plus one
    digest per kernel over its points (what ``golden.json`` holds)."""
    traces = {
        k.label: kernel_trace_cached(k.name, n=k.n, seed=k.seed, store=store)
        for k in spec.kernels
    }
    points = []
    for kernel, scenario in spec.points():
        result = simulate(traces[kernel.label], scenario.config)
        points.append(
            counter_digest(
                result.stats.counts,
                result.stats.by_array,
                result.page_fetches,
                result.distinct_pages_fetched,
            )
        )
    per_kernel = len(spec.scenarios())
    kernels = {
        k.label: hashlib.sha256(
            "".join(points[i * per_kernel : (i + 1) * per_kernel]).encode()
        ).hexdigest()[:16]
        for i, k in enumerate(spec.kernels)
    }
    return {"points": points, "kernels": kernels}


def failed_points(result, expected: list[str]) -> int:
    """Points whose counters differ from the oracle's, or are missing."""
    seen = {record.index: outcome_digest(record.outcome) for record in result}
    return sum(seen.get(i) != digest for i, digest in enumerate(expected))


# -- one pass ------------------------------------------------------------------


def run_pass(spec, root: Path, use_cache: bool, tracer: Tracer | None = None):
    """One timed campaign: (wall_s, plan_s, CampaignResult).

    ``plan_s`` runs from the call to the first record: result lookups,
    claims and trace acquisition.  With a ``tracer`` the pass is traced
    and the program's own functions are restored afterwards.
    """
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span(ROOT) if tracer else nullcontext():
            stream = run_campaign(
                spec,
                store=TraceStore(root),
                parallel=False,
                stream=True,
                use_cache=use_cache,
            )
            next(iter(stream))
            plan_s = time.perf_counter() - t0
            result = stream.result()
        return time.perf_counter() - t0, plan_s, result
    finally:
        if tracer is not None:
            tracer.uninstall()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


# -- the child processes --------------------------------------------------------


def prep(args) -> None:
    spec = build_spec(args.workload, args.seed, args.quick)
    store = TraceStore(args.work / STORE)
    workload = WORKLOADS[args.workload]
    if workload.prepared == "results":
        run_campaign(spec, store=store, parallel=False)
    expected = {"grid": workload.grid, **oracle(spec, store)}
    (args.work / "oracle.json").write_text(json.dumps(expected))


def measure(args) -> None:
    workload = WORKLOADS[args.workload]
    spec = build_spec(args.workload, args.seed, args.quick)
    expected = json.loads((args.work / "oracle.json").read_text())["points"]
    tracer = Tracer() if args.trace else None
    passes: list[dict] = []
    traced: dict[int, dict] = {}
    started = time.perf_counter()
    while True:
        i = len(passes)
        # A traced run alternates untraced and traced passes, so the
        # tracing overhead is measured under the same conditions.
        tracing = tracer is not None and i % 2 == 1
        if workload.prepared == "nothing":
            root = args.work / f"pass-{i}"
        else:
            root = args.work / STORE
        if tracing:
            tracer.pass_id = i
        wall, plan_s, result = run_pass(
            spec, root, workload.use_cache, tracer if tracing else None
        )
        passes.append(
            {
                "wall_s": wall,
                "points": spec.n_points,
                "failed": failed_points(result, expected),
                "traced": tracing,
                "store_bytes": tree_bytes(root),
            }
        )
        if tracing:
            traced[i] = {"wall_s": wall, "plan_s": plan_s}
        del result
        if i == 0:
            # Each pass's store stays alive until its lease-heartbeat
            # thread next wakes (up to 10 s), so the peak over the whole
            # run would depend on how many passes fit; take the first.
            first_pass_rss = peak_rss_mb()
        if workload.prepared == "nothing":
            shutil.rmtree(root)
        elapsed = time.perf_counter() - started
        # Stop at the pass boundary nearest to the time budget; a
        # traced run always ends on a traced pass.
        if elapsed + wall / 2 >= args.seconds and (tracer is None or tracing):
            break
    out = {"passes": passes, "peak_rss_mb": first_pass_rss}
    if tracer is not None:
        out["per_layer"] = layer_metrics(
            tracer.spans,
            traced,
            [p["wall_s"] for p in passes if not p["traced"]],
        )
        tracer.write_jsonl(args.spans)
    (args.work / "measure.json").write_text(json.dumps(out))


def setup(args) -> None:
    # Importing this module imported repro; what remains of a start-up
    # is opening the store and building the spec.
    TraceStore(args.work / STORE)
    build_spec(args.workload, args.seed, args.quick)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("prep", "measure", "setup"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seconds", type=float, help="measure: time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    {"prep": prep, "measure": measure, "setup": setup}[args.step](args)


if __name__ == "__main__":
    main()
