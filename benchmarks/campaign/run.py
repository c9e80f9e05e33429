"""Campaign benchmark: points per second on the default path, by layer.

Run from the repository root (only the standard library is needed here;
each step runs in a fresh child process of ``workloads.py`` that
imports ``repro`` from ``src/``):

    python3 benchmarks/campaign/run.py --seed 0               # every workload
    python3 benchmarks/campaign/run.py --workload paper_cold --seed 3 --seconds 20
    python3 benchmarks/campaign/run.py --trace 1              # per-layer run
    python3 benchmarks/campaign/run.py --repeat 10            # spread per metric
    python3 benchmarks/campaign/run.py --write-golden         # refresh golden.json

For each workload a run

1. prepares its store and the scalar oracle's counters (``prep``, not
   timed and counted in no metric);
2. measures timed serial passes for ``--seconds`` in a fresh process
   and checks every record's counters against the oracle (``measure``);
3. times ``SETUP_RUNS`` fresh-process start-ups (``setup``), unless
   tracing;

then deletes its temporary directory.  Children inherit no ``REPRO_*``
variable.  Every metric is printed by name with its unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 only when every
point's counters matched (and, at seed 0, matched ``golden.json``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
GOLDEN = HERE / "golden.json"

#: name -> why it is in the benchmark (BENCHMARK.json carries the same).
WORKLOADS = {
    "paper_cold": "paper grid into an empty store: trace acquisition, replay and result writes, as a first-time user pays",
    "paper_warm": "paper grid against a populated store, new store object per pass: only result lookup runs",
    "paper_replay": "paper grid with the result cache off over stored traces: every point replays, no result writes",
    "store_fill": "cheap kernels at n=64 over a wide grid into an empty store: replay is negligible, the result write path dominates",
}

#: name -> (unit, better).
END_TO_END = {
    "points_per_s": ("points/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "store_bytes": ("bytes", "lower"),
}

SETUP_RUNS = 11
DEFAULT_SECONDS = 20


class StepFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _step(
    step: str, workload: str, seed: int, work: Path, quick: bool, *extra: str,
    timeout: float = 150,
) -> float:
    """Run one child step to completion; return its wall time."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        step,
        "--workload", workload,
        "--seed", str(seed),
        "--work", str(work),
        *(["--quick"] if quick else []),
        *extra,
    ]
    t0 = time.perf_counter()
    # Children print nothing on success; route any output to stderr so
    # the last line of standard output stays the JSON result.
    child = subprocess.Popen(cmd, env=_child_env(), stdout=sys.stderr)
    # Wait without a timeout, which blocks until the child exits:
    # Popen.wait(timeout) polls in steps of up to 50 ms, and so would
    # round every start-up time up to the next step.  A timer enforces
    # the time limit instead.
    watchdog = threading.Timer(timeout, child.kill)
    watchdog.start()
    try:
        returncode = child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    wall = time.perf_counter() - t0
    if wall >= timeout:
        raise StepFailed(f"{workload}: {step} took longer than {timeout:.0f} s")
    if returncode != 0:
        raise StepFailed(f"{workload}: {step} exited with {returncode}")
    return wall


def spans_path(workload: str, seed: int, quick: bool) -> Path:
    suffix = "-quick" if quick else ""
    return RESULTS / f"{workload}-seed{seed}{suffix}.spans.jsonl"


@contextlib.contextmanager
def _work_dir(workload: str):
    """A temporary directory for one run, deleted afterwards."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            WORK.rmdir()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One run of one workload: prep, measure, set-up times."""
    spans = spans_path(workload, seed, quick)
    with _work_dir(workload) as work:
        steps = {"prep": _step("prep", workload, seed, work, quick)}
        expected = json.loads((work / "oracle.json").read_text())
        steps["measure"] = _step(
            "measure", workload, seed, work, quick,
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--spans", str(spans),
            timeout=150 + seconds,
        )
        measured = json.loads((work / "measure.json").read_text())
        setup = [] if trace else [
            _step("setup", workload, seed, work, quick) for _ in range(SETUP_RUNS)
        ]
        steps["setup"] = sum(setup)
    golden_mismatch = []
    if seed == 0 and not quick:
        golden = json.loads(GOLDEN.read_text())[expected["grid"]]
        kernels = expected["kernels"]
        golden_mismatch = sorted(k for k in golden if kernels.get(k) != golden[k])
    untraced = [p for p in measured["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    return {
        "workload": workload,
        "seed": seed,
        "passes": measured["passes"],
        "attempted": sum(p["points"] for p in measured["passes"]),
        "failed": sum(p["failed"] for p in measured["passes"]),
        "golden_mismatch": golden_mismatch,
        "steps": steps,
        "spans": spans if trace else None,
        "end_to_end": {
            "points_per_s": untraced[0]["points"] / statistics.median(walls),
            "setup_s": statistics.median(setup) if setup else None,
            "peak_rss_mb": measured["peak_rss_mb"],
            "store_bytes": statistics.median(p["store_bytes"] for p in untraced),
        },
        "per_layer": measured.get("per_layer"),
    }


def _table(trace: bool) -> tuple[str, dict[str, tuple[str, str]]]:
    """Which metrics a run reports: per-layer when traced."""
    return ("per_layer", LAYER_METRICS) if trace else ("end_to_end", END_TO_END)


def _report(run: dict, trace: bool) -> None:
    walls = [p["wall_s"] for p in run["passes"] if not p["traced"]]
    print(
        f"{run['workload']} seed={run['seed']}: {len(walls)} untraced passes of "
        f"{run['passes'][0]['points']} points, pass wall s = "
        + ", ".join(f"{w:.3f}" for w in walls)
    )
    print("  step wall s: " + ", ".join(f"{k} {v:.2f}" for k, v in run["steps"].items()))
    print(f"  error_rate = {run['failed'] / run['attempted']:.6g} fraction "
          f"({run['failed']} of {run['attempted']} points)")
    if run["golden_mismatch"]:
        print(f"  golden.json mismatch for kernels: {', '.join(run['golden_mismatch'])}")
    if run["spans"]:
        print(f"  spans written to {run['spans']}")
    part, table = _table(trace)
    for name, (unit, _better) in table.items():
        print(f"  {name} = {run[part][name]:.6g} {unit}")


def _report_repeats(workload: str, runs: list[dict]) -> None:
    print(f"{workload}: {len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}")
    for name, (unit, _better) in END_TO_END.items():
        values = [run["end_to_end"][name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(
            f"  {name}: median {median:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g}, "
            f"spread {(q3 - q1) / median:.2%} of median"
        )


def write_golden() -> None:
    golden = {}
    for workload in WORKLOADS:
        with _work_dir(workload) as work:
            _step("prep", workload, 0, work, False)
            expected = json.loads((work / "oracle.json").read_text())
        golden[expected["grid"]] = expected["kernels"]
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps each kernel's registry seed; any other value seeds every kernel")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1; prints median and quartiles")
    parser.add_argument("--quick", action="store_true",
                        help="tiny grids for the self-test")
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute golden.json from the seed-0 oracle")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    # Turn a termination into an exception, so that the child steps are
    # killed and the work directories deleted on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.write_golden:
        write_golden()
        return 0

    trace = bool(args.trace)
    workloads = args.workload or list(WORKLOADS)
    part, table = _table(trace)
    attempted = failed = 0
    correct = True
    metrics: dict[str, dict] = {}
    try:
        for workload in workloads:
            runs = [
                run_workload(workload, args.seed + i, args.seconds, trace, args.quick)
                for i in range(args.repeat)
            ]
            for run in runs:
                _report(run, trace)
                attempted += run["attempted"]
                failed += run["failed"]
                correct &= run["failed"] == 0 and not run["golden_mismatch"]
            if args.repeat > 1 and not trace:
                _report_repeats(workload, runs)
            for name, (unit, _better) in table.items():
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                value = statistics.median(run[part][name] for run in runs)
                metrics[key] = {"value": value, "unit": unit}
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
