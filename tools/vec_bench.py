#!/usr/bin/env python
"""Columnar-replay speedup: ``simulate`` vs ``simulate_vec``, recorded.

Times warm-store replay (the trace is built once and excluded from the
timing — exactly the sweep-many regime the engine exists for) of the
scalar oracle and the columnar engine over representative kernels, asserts the counters are
bit-identical on every case while doing so, and records the per-case
wall seconds and speedups.  The committed ``BENCH_vec.json`` is the
performance evidence for the columnar engine: its headline case must
hold a >=5x speedup on at least one warm-store replay kernel.

CI's bench-smoke job re-runs this in ``REPRO_BENCH_FAST`` mode (small
traces, lower speedups — vectorisation amortises per-call overhead
over trace length) and gates on the fast-mode baseline: the case set
must match, counters must still be bit-identical, and no case may
lose more than half of its committed speedup.  Timings are noisy on
shared runners; halving is a collapse, not jitter.

Usage::

    python tools/vec_bench.py --out BENCH_vec.json     # regenerate
    python tools/vec_bench.py --check BENCH_vec.json   # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: minimum fraction of a case's committed speedup the gate demands.
RETAIN = 0.5


def fast() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def cases() -> tuple[dict, ...]:
    """(kernel, n, config knobs) per case; smaller in fast mode.

    The inner-product cases are the headline: host reduction funnels
    every fold to PE 0, whose alternating x/y page stream the columnar
    engine classifies with short-window shortcuts — no scalar walk at
    all.  The fifo case solves through the eviction-epoch fixed point
    (``docs/fastpaths.md``); ``run_cases`` asserts no case touched the
    scalar fallback, so a silent regression to the escape hatch fails
    the bench before any timing gate does.
    """
    scale = 1 if fast() else 6
    return (
        {
            "name": "inner_product",
            "n": 20_000 * scale,
            "pes": 8,
            "page_size": 32,
            "cache_elems": 256,
            "policy": "lru",
        },
        {
            "name": "inner_product",
            "n": 20_000 * scale,
            "pes": 32,
            "page_size": 32,
            "cache_elems": 256,
            "policy": "lru",
        },
        {
            "name": "hydro_2d",
            "n": 40 * (2 if fast() else 5),
            "pes": 16,
            "page_size": 32,
            "cache_elems": 256,
            "policy": "lru",
        },
        {
            "name": "inner_product",
            "n": 20_000 * scale,
            "pes": 8,
            "page_size": 32,
            "cache_elems": 64,
            "policy": "fifo",
        },
    )


def _case_key(case: dict) -> str:
    return (
        f"{case['name']}[n={case['n']},pes={case['pes']},"
        f"ps={case['page_size']},cache={case['cache_elems']},"
        f"{case['policy']}]"
    )


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_cases() -> list[dict]:
    import numpy as np

    from repro.bench import kernel_trace
    from repro.core import MachineConfig, simulate, simulate_vec
    from repro.kernels import get_kernel

    reps = 3 if fast() else 5
    rows = []
    for case in cases():
        program, inputs = get_kernel(case["name"]).build(n=case["n"])
        trace = kernel_trace(program, inputs)
        config = MachineConfig(
            n_pes=case["pes"],
            page_size=case["page_size"],
            cache_elems=case["cache_elems"],
            cache_policy=case["policy"],
        )
        scalar = simulate(trace, config)
        telemetry: dict[str, int] = {}
        vec = simulate_vec(trace, config, telemetry)
        if not (
            np.array_equal(scalar.stats.counts, vec.stats.counts)
            and np.array_equal(scalar.page_fetches, vec.page_fetches)
        ):
            raise AssertionError(f"fidelity broken on {_case_key(case)}")
        if telemetry.get("fallback_pes", 0):
            raise AssertionError(
                f"{_case_key(case)}: {telemetry['fallback_pes']} PE(s) "
                "took the scalar fallback — every committed case must "
                "replay through a closed form"
            )
        scalar_s = _best_of(lambda: simulate(trace, config), reps)
        vec_s = _best_of(lambda: simulate_vec(trace, config), reps)
        rows.append(
            {
                "case": _case_key(case),
                "scalar_s": round(scalar_s, 6),
                "vec_s": round(vec_s, 6),
                "speedup": round(scalar_s / max(vec_s, 1e-9), 2),
            }
        )
    return rows


def document(rows: list[dict]) -> dict:
    return {
        "schema": 1,
        "fast": fast(),
        "cases": rows,
        "headline_speedup": max(row["speedup"] for row in rows),
    }


def check(baseline: dict, current: dict) -> list[str]:
    """Speedup-collapse failures of ``current`` against ``baseline``."""
    failures: list[str] = []
    base_rows = {row["case"]: row for row in baseline.get("cases", ())}
    cur_rows = {row["case"]: row for row in current.get("cases", ())}
    if set(base_rows) != set(cur_rows):
        failures.append(
            f"case set changed: baseline {sorted(base_rows)} vs current "
            f"{sorted(cur_rows)} (regenerate with --out if intentional)"
        )
        return failures
    for key, base in base_rows.items():
        floor = RETAIN * float(base["speedup"])
        got = float(cur_rows[key]["speedup"])
        if got < floor:
            failures.append(
                f"{key}: speedup {got:.2f}x collapsed below {floor:.2f}x "
                f"(baseline {base['speedup']:.2f}x, retain {RETAIN:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE", help="write the report")
    group.add_argument(
        "--check",
        metavar="BASELINE",
        help="bench now and gate speedups against BASELINE",
    )
    args = parser.parse_args(argv)

    doc = document(run_cases())
    for row in doc["cases"]:
        print(
            f"  {row['case']:<60} scalar {row['scalar_s']:>9.4f}s  "
            f"vec {row['vec_s']:>9.4f}s  {row['speedup']:>6.2f}x"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}: headline {doc['headline_speedup']:.2f}x")
        return 0

    with open(args.check, encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = check(baseline, doc)
    if failures:
        print("vec speedup regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"vec speedups within tolerance (headline "
        f"{doc['headline_speedup']:.2f}x vs baseline "
        f"{baseline.get('headline_speedup', 0.0):.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
