"""Shared evaluation service: N concurrent campaigns, one worker pool.

An :class:`~repro.engine.EvalService` is an executor that campaigns
are handed (``run_campaign(spec, service=svc)``), end to end:

1. build one service (its pool size);
2. launch three campaigns *concurrently* through it — each would
   otherwise fork its own multiprocessing pool; through the service
   each submits its jobs, two per worker at a time, to one resident
   pool;
3. read the service's stats: one ``pool_launches_total``, every
   submission completed;
4. run an overlapping campaign — points another campaign already
   built replay from the store's result cache (claims and, across
   independent processes, lock-file leases guarantee every entry is
   built exactly once — see ``docs/architecture.md``);
5. send a timed spec through the very same service: each job runs on
   the backend its spec declares, so the timed machine's axes apply.

Run:  python examples/service_campaigns.py
"""

import tempfile
import threading

from repro.backends import evaluation_count
from repro.bench import render_table
from repro.engine import (
    CampaignSpec,
    EvalService,
    KernelSpec,
    TraceStore,
    run_campaign,
)


def spec(slot: int) -> CampaignSpec:
    return CampaignSpec(
        name=f"svc-demo-{slot}",
        kernels=(KernelSpec("first_diff", n=200),),
        pes=(1, 2, 4, 8),
        page_sizes=(32,),
        cache_elems=(64 + slot, 0),  # distinct grid per campaign
    )


def main() -> None:
    store = TraceStore(tempfile.mkdtemp(prefix="repro-service-"))

    # 1. One resident pool, shared by every campaign handed to it.
    service = EvalService(workers=2)
    try:
        # 2. Three campaigns at once — no per-campaign pool forks.
        results: dict[int, object] = {}

        def drive(slot: int) -> None:
            results[slot] = run_campaign(
                spec(slot), store=store, service=service
            )

        threads = [
            threading.Thread(target=drive, args=(slot,)) for slot in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for slot in sorted(results):
            print(
                f"campaign {slot}: {len(results[slot])} points "
                f"via {results[slot].executor}"
            )

        # 3. What the sharing did.
        stats = service.stats()
        print()
        print(
            render_table(
                ["field", "value"],
                [[key, stats[key]] for key in sorted(stats)],
                title="service stats after 3 concurrent campaigns",
            )
        )
        assert stats["pool_launches_total"] <= 1  # ONE pool served all

        # 4. An overlapping campaign: shared points come from the cache.
        before = evaluation_count()
        overlap = run_campaign(spec(0), store=store, service=service)
        print(
            f"\noverlapping re-run: executor {overlap.executor!r}, "
            f"{evaluation_count() - before} new evaluations"
        )

        # 5. A timed spec through the same service: its own physics.
        timed = CampaignSpec(
            name="svc-demo-timed",
            backend="timed",
            kernels=(KernelSpec("first_diff", n=200),),
            pes=(2, 4),
            page_sizes=(32,),
            cache_elems=(64,),
            topologies=("mesh", "torus"),  # the timed backend's axes
        )
        result = run_campaign(timed, store=store, service=service)
        record = result.records[0]
        print(
            f"\ntimed through the service: {len(result)} points, e.g. "
            f"{record.scenario.label()} -> speedup "
            f"{record.metrics['speedup']:.2f}"
        )
    finally:
        service.close()


if __name__ == "__main__":
    main()
