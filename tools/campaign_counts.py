#!/usr/bin/env python3
"""The campaign benchmark's per-layer counts, committed and checked.

Runs every workload of the campaign benchmark once, traced, at the
seed ``golden.json`` pins:

    python3 benchmarks/campaign/run.py --seed 0 --seconds 0 --trace 1

That covers the full paper and fill grids, one untraced and one traced
pass per workload, and every point's counters against the scalar
oracle and ``golden.json``.  The run must be correct with no failed
point.  Of its per-layer metrics this keeps the ones that no host
changes: every metric whose unit is ``count`` (calls per layer and
replay engine, super-op piece PEs, leases) and every ``*_ratio``
(result hits, closed-form and fallback shares).  They move only when
the program sends a point down another engine path, store call or
lease, so they are compared exactly.

Usage::

    python tools/campaign_counts.py --out BENCH_campaign.json    # regenerate
    python tools/campaign_counts.py --check BENCH_campaign.json  # CI gate

Standard output is the measured document, the one ``--out`` writes;
the benchmark's own report goes to standard error.  ``--check`` exits
1 naming each ``workload.metric`` that differs from the committed
file.  The traced passes' spans stay in
``benchmarks/campaign/results/<workload>-seed0.spans.jsonl``, so a
moved count can be traced to its layer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "benchmarks/campaign/run.py --seed 0 --seconds 0 --trace 1".split()


def measure() -> dict:
    """Run the benchmark and return the document of its counts."""
    done = subprocess.run(
        [sys.executable, *COMMAND], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    *report, last = done.stdout.splitlines() or [""]
    print("\n".join(report), file=sys.stderr)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.exit(f"error: the benchmark exited with {done.returncode}, no result")
    if not result["correct"] or result["failed"]:
        sys.exit(
            f"error: the run is not correct ({result['failed']} of "
            f"{result['attempted']} points failed; see its report above)"
        )
    counts = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count" or name.endswith("_ratio")
    }
    return {"command": " ".join(["python3", *COMMAND]), "counts": counts}


def differences(committed: dict, measured: dict) -> list[str]:
    """One line per name whose count differs between the two maps."""
    names = sorted(committed.keys() | measured.keys())
    return [
        f"{name}: committed {committed.get(name)}, measured {measured.get(name)}"
        for name in names
        if committed.get(name) != measured.get(name)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the measured counts here")
    mode.add_argument("--check", type=Path, help="compare with this committed file")
    args = parser.parse_args()

    document = measure()
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    print(text, end="")
    if args.out:
        args.out.write_text(text)
        return 0
    committed = json.loads(args.check.read_text())["counts"]
    moved = differences(committed, document["counts"])
    for line in moved:
        print(line, file=sys.stderr)
    print(
        f"{len(moved)} of {len(committed)} counts differ from {args.check}",
        file=sys.stderr,
    )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
