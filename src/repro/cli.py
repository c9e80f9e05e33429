"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list                     # registered kernels
    python -m repro figure 1                 # regenerate Figure 1..5
    python -m repro tables                   # T1-T3
    python -m repro classify hydro_fragment  # one kernel's class
    python -m repro sweep iccg --pes 4 16 64 # custom sweep
    python -m repro sweep iccg --backend timed --topology mesh torus
    python -m repro sweep iccg --backend timed --cost-model contended \
        --reduction subrange                 # bandwidth-aware + subrange
    python -m repro sweep --campaign spec.json --parallel --json out.json
    python -m repro advise hydro_2d          # §9 partitioning advisor
    python -m repro store stats              # sharded store: sizes/counters
    python -m repro store gc --max-bytes 50000000   # evict to a budget
    python -m repro serve --campaign a.json --campaign b.json  # shared pool
    python -m repro obs summary              # telemetry event/span rollup

The ``sweep`` subcommand runs on :mod:`repro.engine`: traces come from
the persistent store (interpreted once per machine), results replay
from the store's result cache, a JSON campaign spec can drive
multi-kernel / multi-axis sweeps, ``--backend timed`` evaluates on the
discrete-event machine model (topologies × modes × cost models), and
``--parallel`` fans the scenario grid out across cores with a
streaming progress line.  The ``store`` subcommand administers the
sharded on-disk store: ``stats`` reports entry/byte counts per kind
plus hit/miss/eviction counters, ``gc`` evicts least-recently-used
entries (results before traces) down to a byte budget.  The ``serve``
subcommand runs several campaigns *concurrently* over one evaluation
service: a single resident worker pool executes every campaign —
instead of one forked pool each — each on the backend its spec
declares, and a stats table shows what the sharing did (jobs submitted
and completed, pool launches).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main"]


def _cmd_list(_: argparse.Namespace) -> int:
    from .kernels import all_kernels

    print(f"{'name':<22} {'LFK#':>4}  {'paper class':<12} title")
    for kernel in all_kernels():
        paper = str(kernel.paper_class) if kernel.paper_class else "-"
        print(
            f"{kernel.name:<22} {kernel.number or '-':>4}  {paper:<12} "
            f"{kernel.title}"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .bench import figure1, figure2, figure3, figure4, figure5, render

    generators = {1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5}
    numbers = args.numbers or sorted(generators)
    for number in numbers:
        if number not in generators:
            print(f"no such figure: {number}", file=sys.stderr)
            return 2
        print(render(generators[number]()))
        print()
    return 0


def _cmd_tables(_: argparse.Namespace) -> int:
    from .bench import (
        class_table,
        conclusions_table,
        render_class_table,
        render_survey_table,
        render_table,
        skew_reduction,
    )

    print(render_class_table(class_table()))
    print()
    print(render_survey_table(conclusions_table()))
    print()
    no_cache, with_cache = skew_reduction()
    print(
        render_table(
            ["configuration", "% of reads remote"],
            [
                ["no cache (paper: 22%)", no_cache],
                ["cache 256 (paper: 1%)", with_cache],
            ],
            title="T3: Hydro Fragment skew reduction (§8)",
        )
    )
    return 0


def _build(name: str, n: int | None):
    from .kernels import get_kernel

    kernel = get_kernel(name)
    return kernel, kernel.build(n=n)


def _cmd_classify(args: argparse.Namespace) -> int:
    from .core import classify

    kernel, (program, inputs) = _build(args.kernel, args.n)
    result = classify(program, inputs)
    print(result)
    print()
    print(result.dynamic.table())
    if args.verbose:
        print()
        for pattern in result.static.patterns:
            print(f"  stmt {pattern.stmt_id}: {pattern.describe()}")
    if kernel.paper_class is not None:
        agrees = "agrees" if result.final == kernel.paper_class else "DISAGREES"
        print(f"\npaper label: {kernel.paper_class} ({agrees})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .bench import Sweep, render_series_table, render_table
    from .engine import CampaignSpec, KernelSpec, run_campaign

    if args.campaign:
        spec = CampaignSpec.load(args.campaign)
        if args.kernel:
            spec = spec.subset(args.kernel)
    elif args.kernel:
        spec = CampaignSpec(
            name="cli-sweep",
            kernels=tuple(KernelSpec(k, n=args.n) for k in args.kernel),
            backend=args.backend,
            pes=tuple(args.pes),
            page_sizes=tuple(args.page_sizes),
            cache_elems=(args.cache, 0) if args.cache else (0,),
            cache_policies=(args.policy,),
            partitions=(args.partition,),
            reduction_strategies=tuple(args.reduction),
            topologies=tuple(args.topology),
            modes=tuple(args.mode),
            cost_models=tuple(args.cost_model),
        )
    else:
        print("error: need a kernel name or --campaign FILE", file=sys.stderr)
        return 2
    use_cache = not args.no_cache
    if args.parallel:
        # Stream records as workers complete them.  The progress line
        # renders through the observability event log: subscribing to
        # ``campaign.point`` events activates emission, and the
        # subscriber guarantees a final newline on close, so the table
        # below never lands mid-line.
        from . import obs

        stream = run_campaign(
            spec,
            parallel=True,
            workers=args.workers,
            stream=True,
            use_cache=use_cache,
        )
        with obs.ProgressLine():
            for _record in stream:
                pass
        result = stream.result()
    else:
        result = run_campaign(spec, parallel=False, use_cache=use_cache)
    if args.json:
        print(f"wrote {result.save_json(args.json)}")
    # Figure-style series tables need one value per (page size, cache
    # on/off, PEs) cell; richer grids get the flat record table.
    series_friendly = (
        spec.backend == "untimed"
        and len(spec.cache_policies) == 1
        and len(spec.partitions) == 1
        and len(spec.reduction_strategies) == 1
        and len([c for c in spec.cache_elems if c]) <= 1
    )
    for label in result.kernels():
        if series_friendly:
            sweep = Sweep.from_campaign(result, label)
            print(
                render_series_table(
                    "PEs",
                    sweep.pe_axis(),
                    sweep.series(),
                    title=f"{label}: % of reads remote",
                    unit="",
                )
            )
        else:
            headers, rows = result.rows(label)
            print(
                render_table(
                    headers, rows, title=f"{label}: campaign records"
                )
            )
        print()
    return 0


def _store_for(args: argparse.Namespace):
    from .engine import TraceStore, default_store

    if args.root:
        return TraceStore(args.root)
    return default_store()


def _cmd_store_stats(args: argparse.Namespace) -> int:
    import json as _json

    from .bench import render_table

    store = _store_for(args)
    if args.prometheus:
        print(store.stats_registry().to_prometheus(), end="")
        return 0
    stats = store.stats()
    if args.json:
        print(_json.dumps(stats, indent=2, sort_keys=True))
        return 0
    budget = stats["max_bytes"]
    rows = [
        ["root", stats["root"]],
        ["max_bytes", "unbounded" if budget is None else budget],
        ["shards", stats["shards"]],
        ["traces", f"{stats['trace_entries']} entries, "
                   f"{stats['trace_bytes']} bytes"],
        ["results", f"{stats['result_entries']} entries, "
                    f"{stats['result_bytes']} bytes"],
        ["total_bytes", stats["total_bytes"]],
    ]
    for kind in ("trace", "result"):
        counters = {
            name: stats[f"{kind}_{name}_total"]
            for name in ("memory_hits", "disk_hits", "misses", "evictions")
        }
        rows.append([f"{kind} counters", counters])
    print(render_table(["field", "value"], rows, title="trace store stats"))
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _store_for(args)
    report = store.gc(max_bytes=args.max_bytes)
    if report.max_bytes is None:
        print(
            f"no disk budget set (store holds {report.total_bytes} bytes); "
            "pass --max-bytes or set REPRO_STORE_MAX_BYTES"
        )
        return 0
    print(
        f"evicted {report.evicted_results} results and "
        f"{report.evicted_traces} traces "
        f"({report.freed_bytes} bytes freed); "
        f"store now {report.total_bytes} bytes "
        f"(budget {report.max_bytes})"
        + (
            f"; {report.pinned_skipped} pinned entries skipped"
            if report.pinned_skipped
            else ""
        )
    )
    return 0


def _cmd_trace_compact(args: argparse.Namespace) -> int:
    import json as _json

    from .bench import render_table

    store = _store_for(args)
    report = store.compact_traces(refs=args.refs or None)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0
    if not report:
        print("no stored traces to compact")
        return 0
    rows = []
    before = after = 0
    for row in report:
        before += row["bytes_before"]
        after += row["bytes_after"]
        rows.append(
            [
                row["ref"][:12],
                row["n_ops"],
                f"{row['coverage'] * 100:.1f}%",
                row["bytes_before"],
                row["bytes_after"],
            ]
        )
    print(
        render_table(
            ["ref", "super-ops", "coverage", "bytes before", "bytes after"],
            rows,
            title="trace compaction",
        )
    )
    ratio = before / after if after else 1.0
    print(
        f"{len(report)} shard(s): {before} -> {after} bytes "
        f"({ratio:.1f}x smaller)"
    )
    return 0


def _cmd_serve_listen(args: argparse.Namespace) -> int:
    """Run the fleet server: admit campaigns, hand points to workers."""
    from .engine import CampaignSpec
    from .fleet import FleetCoordinator, parse_address
    from .fleet.server import FleetServer

    host, port = parse_address(args.listen)
    coordinator = FleetCoordinator(
        max_attempts=args.max_attempts, max_campaigns=args.max_campaigns
    )
    server = FleetServer(coordinator, host=host, port=port)
    server.start()
    try:
        # The bound port (meaningful with --listen HOST:0) goes to
        # stdout in a stable, parseable form before any campaign work.
        print(f"fleet: listening on {host}:{server.port}", flush=True)
        # No connection is served yet, so admitting needs no lock.
        for path in args.campaign or ():
            spec = CampaignSpec.load(path)
            accepted = coordinator.submit(spec)
            print(
                f"fleet: admitted campaign {spec.name!r} "
                f"({accepted['points']} points, {accepted['campaign'][:12]})",
                flush=True,
            )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run N campaigns concurrently over one shared evaluation service."""
    import json as _json
    import threading
    from pathlib import Path

    from .bench import render_table
    from .engine import CampaignSpec, EvalService, run_campaign

    if args.listen:
        return _cmd_serve_listen(args)
    if not args.campaign:
        print(
            "error: pass --campaign FILE (or --listen HOST:PORT to run "
            "the fleet server)",
            file=sys.stderr,
        )
        return 2
    specs = [CampaignSpec.load(path) for path in args.campaign]
    results: dict[int, object] = {}
    errors: list[tuple[str, BaseException]] = []
    service = EvalService(workers=args.workers)

    def drive(slot: int, spec: CampaignSpec) -> None:
        try:
            results[slot] = run_campaign(
                spec, service=service, use_cache=not args.no_cache
            )
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append((spec.name, exc))

    threads = [
        threading.Thread(target=drive, args=(slot, spec))
        for slot, spec in enumerate(specs)
    ]
    # One shared progress line across all campaigns, fed by the event
    # log; closing it guarantees the stats tables start on a fresh
    # line instead of appending to a half-drawn progress line.
    from . import obs

    try:
        with obs.ProgressLine():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        stats = service.stats()
    finally:
        service.close()
    for name, exc in errors:
        print(f"error in campaign {name!r}: {exc}", file=sys.stderr)
    if errors:
        return 1
    rows = [
        [
            spec.name,
            len(results[slot]),  # type: ignore[arg-type]
            results[slot].executor,  # type: ignore[union-attr]
            f"{results[slot].elapsed_s:.2f}s",  # type: ignore[union-attr]
        ]
        for slot, spec in enumerate(specs)
    ]
    print(
        render_table(
            ["campaign", "points", "executor", "wall"],
            rows,
            title=f"{len(specs)} campaigns over one evaluation service",
        )
    )
    print()
    print(
        render_table(
            ["field", "value"],
            [[key, stats[key]] for key in sorted(stats)],
            title="service stats",
        )
    )
    if args.json:
        document = {
            "service": stats,
            "campaigns": [
                results[slot].to_dict()  # type: ignore[union-attr]
                for slot in range(len(specs))
            ],
        }
        Path(args.json).write_text(
            _json.dumps(document, indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one fleet worker (TCP mode or filesystem spool mode)."""
    from .engine import TraceStore
    from .fleet.worker import run_spool_worker, run_worker

    store = (
        TraceStore(args.store_root) if args.store_root is not None else None
    )
    if args.connect:
        return run_worker(
            args.connect,
            store=store,
            max_jobs=args.max_jobs,
            idle_exit_s=args.idle_exit,
        )
    if store is None:
        print(
            "error: pass --connect HOST:PORT (TCP mode) or "
            "--store-root PATH (spool mode)",
            file=sys.stderr,
        )
        return 2
    return run_spool_worker(store=store, once=not args.watch)


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Validate, print the schema for, or submit campaign specs."""
    import json as _json
    from pathlib import Path

    from .engine import CampaignSpec
    from .engine.schema import CAMPAIGN_SCHEMA

    if args.campaign_command == "schema":
        print(_json.dumps(CAMPAIGN_SCHEMA, indent=2))
        return 0

    if args.campaign_command == "validate":
        failures = 0
        for name in args.spec:
            try:
                document = _json.loads(Path(name).read_text())
            except (OSError, ValueError) as exc:
                print(f"{name}: unreadable: {exc}")
                failures += 1
                continue
            try:
                spec = CampaignSpec.from_dict(document)
            except (KeyError, ValueError) as exc:
                failures += 1
                print(f"{name}: INVALID")
                print(f"  {exc}")
            else:
                print(
                    f"{name}: ok — campaign {spec.name!r}, "
                    f"{spec.n_points} points, backend {spec.backend!r}"
                )
        return 1 if failures else 0

    # submit: over TCP to a fleet server, or into a spool directory.
    if args.campaign_command == "submit":
        if args.store_root is not None:
            from .engine import TraceStore
            from .fleet.worker import spool_dir

            spool = spool_dir(TraceStore(args.store_root))
            spool.mkdir(parents=True, exist_ok=True)
            for name in args.spec:
                spec = CampaignSpec.load(name)
                target = spool / f"{spec.digest[:16]}.json"
                spec.save(target)
                print(f"spooled {spec.name!r} -> {target}")
            return 0
        if not args.connect:
            print(
                "error: pass --connect HOST:PORT or --store-root PATH",
                file=sys.stderr,
            )
            return 2
        from .fleet import FleetClient

        exit_code = 0
        with FleetClient(args.connect) as client:
            digests = []
            for name in args.spec:
                document = _json.loads(Path(name).read_text())
                reply = client.request({"op": "submit", "spec": document})
                print(
                    f"accepted {name}: campaign {reply['campaign'][:12]} "
                    f"({reply['points']} points, backend {reply['backend']!r}"
                    + (", already known)" if reply.get("known") else ")")
                )
                digests.append(reply["campaign"])
            if args.wait:
                for digest in digests:
                    while True:
                        status = client.request(
                            {"op": "wait", "campaign": digest, "timeout": 30}
                        )
                        if status["state"] != "running":
                            break
                        print(
                            f"waiting on {digest[:12]}: "
                            f"{status['done']}/{status['total']} done",
                            flush=True,
                        )
                    failures = status.get("failures") or {}
                    print(
                        f"campaign {digest[:12]} {status['state']}: "
                        f"{status['done']}/{status['total']} points"
                        + (f", {len(failures)} failed" if failures else "")
                    )
                    for index, error in sorted(failures.items()):
                        print(f"  point {index}: {error}")
                    if status["state"] != "done":
                        exit_code = 1
        return exit_code
    raise AssertionError(f"unknown campaign command {args.campaign_command}")


def _cmd_obs(args: argparse.Namespace) -> int:
    """Inspect the observability event log: tail, summary, merge.

    Every subcommand folds the per-process ``<stem>-<host>-<pid>.jsonl``
    files into the merged ``<stem>.jsonl`` first, so the view is
    always current even while campaigns are running.
    """
    import json as _json
    from collections import Counter as _Counter

    from . import obs

    merged = obs.merge(args.stem)
    if merged is None:
        print(
            "error: no event log configured; pass --stem PATH or set "
            "REPRO_OBS=jsonl:<path>",
            file=sys.stderr,
        )
        return 2
    events = list(obs.read_events(merged))
    if args.obs_command == "merge":
        print(f"merged {len(events)} events into {merged}")
        return 0
    if args.obs_command == "tail":
        for record in events[-args.lines:]:
            print(_json.dumps(record, default=str))
        return 0
    # summary: event-type histogram plus aggregated span durations.
    from .bench import render_table

    kinds = _Counter(str(e.get("event", "?")) for e in events)
    print(
        render_table(
            ["event", "count"],
            [[name, kinds[name]] for name in sorted(kinds)],
            title=f"{len(events)} events in {merged}",
        )
    )
    spans = [e for e in events if e.get("event") == "span"]
    if spans:
        count: _Counter = _Counter()
        total: dict[str, float] = {}
        for entry in spans:
            name = str(entry.get("name", "?"))
            count[name] += 1
            total[name] = total.get(name, 0.0) + float(
                entry.get("dur_s", 0.0) or 0.0
            )
        rows = [
            [
                name,
                count[name],
                f"{total[name]:.4f}s",
                f"{total[name] / count[name]:.4f}s",
            ]
            for name in sorted(total, key=lambda n: -total[n])
        ]
        print()
        print(
            render_table(
                ["span", "count", "total", "mean"],
                rows,
                title="span durations",
            )
        )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core import advise

    _, (program, inputs) = _build(args.kernel, args.n)
    advice = advise(program, inputs, n_pes=args.pes)
    print(advice.table())
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from .ir import format_program

    _, (program, _inputs) = _build(args.kernel, args.n)
    print(format_program(program))
    return 0


def _cmd_report(_: argparse.Namespace) -> int:
    """Everything in one document: figures, tables, survey."""
    from . import __version__
    from .bench import figure1, figure2, figure3, figure4, figure5, render

    print(
        "Reproduction report — Bic, Nagel & Roy (1989), "
        f"repro v{__version__}"
    )
    print("=" * 72)
    for generator in (figure1, figure2, figure3, figure4, figure5):
        print()
        print(render(generator()))
    print()
    _cmd_tables(_)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .cache import POLICIES
    from .core.simulator import REDUCTION_STRATEGIES
    from .machine.pe import MODES

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Bic, Nagel & Roy (1989): automatic "
            "data/program partitioning using single assignment."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered kernels").set_defaults(
        fn=_cmd_list
    )

    fig = sub.add_parser("figure", help="regenerate paper figures")
    fig.add_argument("numbers", nargs="*", type=int, help="figure numbers 1-5")
    fig.set_defaults(fn=_cmd_figure)

    sub.add_parser("tables", help="regenerate tables T1-T3").set_defaults(
        fn=_cmd_tables
    )

    cls = sub.add_parser("classify", help="classify one kernel")
    cls.add_argument("kernel")
    cls.add_argument("--n", type=int, default=None, help="problem size")
    cls.add_argument("-v", "--verbose", action="store_true")
    cls.set_defaults(fn=_cmd_classify)

    swp = sub.add_parser(
        "sweep", help="sweep evaluation scenarios (engine-backed)"
    )
    swp.add_argument(
        "kernel", nargs="*", help="kernel name(s); optional with --campaign"
    )
    swp.add_argument("--n", type=int, default=None)
    swp.add_argument(
        "--backend",
        default="untimed",
        help="evaluation backend (untimed [default], timed)",
    )
    swp.add_argument(
        "--pes", nargs="+", type=int, default=[1, 4, 8, 16, 32, 64]
    )
    swp.add_argument("--page-sizes", nargs="+", type=int, default=[32, 64])
    swp.add_argument(
        "--cache", type=int, default=256, help="cache elements (0 = none)"
    )
    swp.add_argument(
        "--policy",
        default="lru",
        choices=sorted(POLICIES),
        help="cache replacement policy",
    )
    swp.add_argument(
        "--partition",
        default="modulo",
        help="partition scheme (modulo, block, block-cyclic:K)",
    )
    swp.add_argument(
        "--reduction",
        nargs="+",
        default=["host"],
        choices=REDUCTION_STRATEGIES,
        help="reduction strategies (host funnel, subrange collection)",
    )
    swp.add_argument(
        "--topology",
        nargs="+",
        default=["crossbar"],
        help=(
            "timed backend: interconnect topologies (crossbar, bus, ring, "
            "mesh, torus, hypercube)"
        ),
    )
    swp.add_argument(
        "--mode",
        nargs="+",
        default=["blocking"],
        choices=MODES,
        help="timed backend: PE execution modes",
    )
    swp.add_argument(
        "--cost-model",
        nargs="+",
        default=["default"],
        help="timed backend: cost-model presets (default, fast-network, "
        "slow-network, contended, infinite-bw)",
    )
    swp.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the store's result cache (force re-evaluation)",
    )
    swp.add_argument(
        "--campaign",
        metavar="FILE",
        default=None,
        help="JSON campaign spec (overrides the axis flags)",
    )
    swp.add_argument(
        "--json",
        metavar="OUT",
        default=None,
        help="write full campaign results as JSON",
    )
    swp.add_argument(
        "--parallel",
        action="store_true",
        help="fan the configuration grid out across cores",
    )
    swp.add_argument(
        "--workers", type=int, default=None, help="worker processes"
    )
    swp.set_defaults(fn=_cmd_sweep)

    store = sub.add_parser(
        "store", help="administer the sharded trace/result store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    stats = store_sub.add_parser(
        "stats", help="entry/byte counts per kind, shard and counter stats"
    )
    stats.add_argument(
        "--root", default=None, help="store root (default: the active store)"
    )
    stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="Prometheus text-format export of the stats registry",
    )
    stats.set_defaults(fn=_cmd_store_stats)
    gc = store_sub.add_parser(
        "gc", help="evict LRU entries (results first) down to a byte budget"
    )
    gc.add_argument(
        "--root", default=None, help="store root (default: the active store)"
    )
    gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="disk budget to enforce (default: the store's own budget)",
    )
    gc.set_defaults(fn=_cmd_store_gc)

    trace_parser = sub.add_parser(
        "trace", help="inspect and rewrite stored access traces"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    tcompact = trace_sub.add_parser(
        "compact",
        help=(
            "rewrite stored trace shards into the super-op v2 layout "
            "(lossless; replay stays bit-identical)"
        ),
    )
    tcompact.add_argument(
        "--root", default=None, help="store root (default: the active store)"
    )
    tcompact.add_argument(
        "refs",
        nargs="*",
        help="trace refs to compact (default: every stored trace)",
    )
    tcompact.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    tcompact.set_defaults(fn=_cmd_trace_compact)

    serve = sub.add_parser(
        "serve",
        help=(
            "run campaigns over one shared evaluation service, or "
            "(--listen) serve them to fleet workers"
        ),
    )
    serve.add_argument(
        "--campaign",
        metavar="FILE",
        action="append",
        help="JSON campaign spec (repeat for concurrent campaigns)",
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help=(
            "fleet mode: listen for workers and campaign submissions "
            "(port 0 picks a free port, printed on startup)"
        ),
    )
    serve.add_argument(
        "--max-campaigns",
        type=int,
        default=None,
        help="fleet mode: bound on concurrently open campaigns",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="fleet mode: attempts per point before a structured failure",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="resident pool size (default: one per core; 0 = inline)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the store's result cache (force re-evaluation)",
    )
    serve.add_argument(
        "--json",
        metavar="OUT",
        default=None,
        help="write campaign results + service stats as JSON",
    )
    serve.set_defaults(fn=_cmd_serve)

    worker = sub.add_parser(
        "worker", help="run one fleet worker against a shared store root"
    )
    worker.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="fleet server to pull jobs from (TCP mode)",
    )
    worker.add_argument(
        "--store-root",
        metavar="PATH",
        default=None,
        help=(
            "shared store root (default: the active store); without "
            "--connect this selects spool mode"
        ),
    )
    worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after settling this many points",
    )
    worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        help="exit 0 after this many seconds without work",
    )
    worker.add_argument(
        "--watch",
        action="store_true",
        help="spool mode: keep polling instead of one pass",
    )
    worker.set_defaults(fn=_cmd_worker)

    campaign = sub.add_parser(
        "campaign", help="validate, describe, or submit campaign specs"
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )
    validate = campaign_sub.add_parser(
        "validate", help="check spec files against the versioned schema"
    )
    validate.add_argument("spec", nargs="+", metavar="FILE")
    validate.set_defaults(fn=_cmd_campaign)
    campaign_sub.add_parser(
        "schema", help="print the campaign-spec JSON Schema"
    ).set_defaults(fn=_cmd_campaign)
    submit = campaign_sub.add_parser(
        "submit", help="submit spec files to a fleet server (or spool)"
    )
    submit.add_argument("spec", nargs="+", metavar="FILE")
    submit.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="fleet server address",
    )
    submit.add_argument(
        "--store-root", metavar="PATH", default=None,
        help="spool the specs under this store root instead",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the submitted campaigns finish",
    )
    submit.set_defaults(fn=_cmd_campaign)

    obs_parser = sub.add_parser(
        "obs", help="inspect the observability event log (REPRO_OBS)"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    for name, help_text in (
        ("tail", "print the last N merged events as JSON lines"),
        ("summary", "event-type histogram and span duration rollup"),
        ("merge", "fold per-process event files into <stem>.jsonl"),
    ):
        obs_cmd = obs_sub.add_parser(name, help=help_text)
        obs_cmd.add_argument(
            "--stem",
            default=None,
            help="event log stem/path (default: parsed from REPRO_OBS)",
        )
        if name == "tail":
            obs_cmd.add_argument(
                "-n", "--lines", type=int, default=20, help="events to show"
            )
        obs_cmd.set_defaults(fn=_cmd_obs)

    adv = sub.add_parser("advise", help="recommend scheme and page size (§9)")
    adv.add_argument("kernel")
    adv.add_argument("--n", type=int, default=None)
    adv.add_argument("--pes", type=int, default=16)
    adv.set_defaults(fn=_cmd_advise)

    show = sub.add_parser(
        "show", help="print a kernel as DO-loop pseudo-Fortran"
    )
    show.add_argument("kernel")
    show.add_argument("--n", type=int, default=None)
    show.set_defaults(fn=_cmd_show)

    sub.add_parser(
        "report", help="full reproduction report (all figures + tables)"
    ).set_defaults(fn=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # e.g. `repro obs tail | head`: the consumer closed the pipe.
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
