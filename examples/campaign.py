"""Engine walkthrough: one evaluation API, pluggable backends.

The end-to-end ``repro.engine`` workflow:

1. acquire a trace through the persistent store (`Trace.save`/`load`
   under the hood — the kernel is interpreted at most once per machine);
2. declare a sweep campaign (kernels × machine axes) in Python, show
   its JSON form;
3. execute it with the process-parallel executor (results arrive in
   canonical order, bit-identical to a serial run) and export JSON;
4. run the *same* campaign again — every record replays from the
   store's result cache, zero simulations;
5. switch the backend to the timed discrete-event machine and sweep
   its own axes (topologies × execution modes), streaming records as
   workers complete them;
6. inspect the store's sharded layout and garbage-collect it under a
   disk budget.

Store layout: artifacts are sharded under two-hex-char prefix
directories derived from their digest (``traces/ab/…npz``,
``results/cd/…npz``).  There is no index file: each artifact is
written once by atomic rename, its path names it, and ``stat`` holds
its byte size, creation time (mtime) and last use (atime, re-stamped
on every hit).  ``TraceStore(max_bytes=…, policy="lru")`` bounds disk use:
``store.gc()`` evicts least-recently-used *result* entries first,
then traces — results are recomputable from a stored trace in
milliseconds, a trace costs an interpreter run — and never evicts an
entry a reader has pinned.  ``repro store stats`` / ``repro store gc``
expose the same machinery on the command line.

Run:  python examples/campaign.py
"""

import json
import tempfile
from pathlib import Path

from repro.backends import evaluation_count
from repro.bench import render_table
from repro.engine import (
    CampaignSpec,
    KernelSpec,
    TraceStore,
    interpretation_count,
    kernel_trace_cached,
    run_campaign,
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-campaign-"))
    store = TraceStore(workdir / "traces")

    # -- 1. the trace store ------------------------------------------------
    trace = kernel_trace_cached("hydro_fragment", n=1000, store=store)
    print(f"trace store at {store.root}")
    print(f"  hydro_fragment: {trace.n_instances} instances, "
          f"{trace.n_reads} reads, entries on disk: {len(store)}")
    kernel_trace_cached("hydro_fragment", n=1000, store=store)
    print(f"  second acquisition: {store.counters.as_dict()} "
          "(no new interpretation)\n")

    # -- 2. a declarative campaign ----------------------------------------
    spec = CampaignSpec(
        name="paper-figures-1-2",
        kernels=(
            KernelSpec("hydro_fragment", n=1000),
            KernelSpec("iccg", n=1024),
        ),
        pes=(1, 4, 16, 64),
        page_sizes=(32, 64),
        cache_elems=(256, 0),
    )
    spec_path = spec.save(workdir / "campaign.json")
    print(f"campaign spec ({spec.n_points} points) saved to {spec_path}:")
    print("  " + "\n  ".join(spec.to_json().splitlines()[:6]) + "\n  ...\n")

    # -- 3. parallel execution --------------------------------------------
    before = interpretation_count()
    result = run_campaign(spec, store=store, parallel=True)
    print(f"executed via {result.executor} in {result.elapsed_s:.2f}s; "
          f"interpreter runs: {interpretation_count() - before} "
          "(iccg cold, hydro warm)")
    json_path = result.save_json(workdir / "results.json")
    data = json.loads(json_path.read_text())
    print(f"wrote {len(data['results'])} records to {json_path}\n")

    # -- 4. the result cache ----------------------------------------------
    before_evals = evaluation_count()
    again = run_campaign(spec, store=store, parallel=False)
    print(f"identical re-run: executor={again.executor}, "
          f"evaluations={evaluation_count() - before_evals}, "
          f"bit-identical={again.identical(result)}")
    print(f"  result cache counters: {store.result_counters.as_dict()}\n")

    # -- 5. the timed backend, streamed -----------------------------------
    timed = CampaignSpec(
        name="timed-topologies",
        backend="timed",
        kernels=(KernelSpec("hydro_fragment", n=1000),),
        pes=(4, 16),
        page_sizes=(32,),
        cache_elems=(256,),
        topologies=("mesh", "torus"),          # aliases are canonicalised
        modes=("blocking", "multithreaded"),
    )
    print(f"timed campaign ({timed.n_points} points), streaming:")
    stream = run_campaign(timed, store=store, parallel=True, stream=True)
    for record in stream:
        print(f"  [{record.index:2d}] {record.scenario.label():<55} "
              f"speedup {record.metrics['speedup']:.2f}")
    timed_result = stream.result()

    rows = [
        [
            topology,
            mode,
            timed_result.find(
                n_pes=16, topology=topology, mode=mode
            ).metrics["finish_time"],
            timed_result.find(
                n_pes=16, topology=topology, mode=mode
            ).metrics["speedup"],
        ]
        for topology in ("mesh2d", "torus2d")
        for mode in ("blocking", "multithreaded")
    ]
    print()
    print(render_table(
        ["topology", "mode", "finish (cycles)", "speedup"],
        rows,
        title="Hydro Fragment at 16 PEs — the §9 questions, engine-run",
    ))

    # -- 6. the sharded store: stats and GC under a disk budget ------------
    stats = store.stats()
    print(f"\nstore layout: {stats['trace_entries']} traces + "
          f"{stats['result_entries']} results across "
          f"{stats['shards']} shards, {stats['total_bytes']} bytes")
    budget = stats["total_bytes"] // 2
    report = store.gc(max_bytes=budget)
    print(f"gc to {budget} bytes: evicted {report.evicted_results} results "
          f"and {report.evicted_traces} traces "
          f"({report.freed_bytes} bytes freed) — results always go first")
    rerun = run_campaign(spec, store=store, parallel=False)
    print(f"post-gc re-run: executor={rerun.executor} "
          "(survivors hit, evicted points rebuilt)")


if __name__ == "__main__":
    main()
