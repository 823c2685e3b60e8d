"""Benchmark-regression gate: diff fresh bench output against a baseline.

Usage::

    PYTHONPATH=src python -m repro bench-diagram --json fresh.json [...]
    python benchmarks/compare.py fresh.json \
        [--baseline benchmarks/BENCH_diagram.json] [--tolerance 0.4]

    PYTHONPATH=src python -m repro bench-exec --engine all --rows 110000 \
        --json fresh-exec.json
    python benchmarks/compare.py fresh-exec.json \
        --baseline benchmarks/BENCH_executor.json

    PYTHONPATH=src python -m repro bench-serve --json fresh-serve.json
    python benchmarks/compare.py fresh-serve.json \
        --baseline benchmarks/BENCH_serve.json

The :data:`GATES` table declares the gate kind of every key across all
baseline kinds (diagram pipeline, executor, serving tier); :func:`compare`
only gates keys the baseline actually carries, so one gate serves every
benchmark JSON.  On top of the per-kind checks, **every key the baseline
carries must still exist in the fresh output** — a renamed or dropped
metric fails the gate (with a per-metric diff table) instead of silently
un-gating itself.

Two classes of checks:

* **Deterministic facts must match exactly.**  Corpus composition, the
  number of distinct diagrams, the overall cache hit rate and the
  per-stage hit/miss counters are pure functions of the corpus and the
  pipeline — any drift is a behavior change (lost dedup, a stage suddenly
  recompiling), not noise, and fails the gate.
* **Performance ratios must stay inside a tolerance band.**  Absolute
  milliseconds vary per machine, so the gate compares the *speedup ratios*
  the benchmark derives (batched-vs-cold, persistent-warm-vs-cold): each
  must reach ``baseline * (1 - tolerance)``.  The default band (40%) is
  wide on purpose — the gate exists to catch "the cache stopped working"
  (a 5-10x collapse), not 10% jitter on shared CI runners.

Exit code 0 = within bounds, 1 = regression, 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Gate kind per key: ``exact`` (deterministic given the corpus + pipeline
#: version), ``ratio`` (fresh >= baseline * (1 - tol)), ``flag`` (must stay
#: truthy), ``info`` (machine-dependent: reported, never gated) or
#: ``stages`` (per-stage hits/misses, exact).  Other keys are "not gated".
GATES: dict[str, str] = {
    # diagram pipeline
    "corpus_queries": "exact",
    "distinct_generated": "exact",
    "schema": "exact",
    "formats": "exact",
    "distinct_diagrams": "exact",
    "cache_hit_rate": "exact",
    "workers": "exact",
    "stages": "stages",
    "speedup": "ratio",
    "persistent_speedup_vs_cold": "ratio",
    "parallel_identical": "flag",
    "cold_ms": "info",
    "batched_ms": "info",
    "parallel_ms": "info",
    "persistent_populate_ms": "info",
    "persistent_warm_ms": "info",
    # executor
    "engine": "exact",
    "workload_queries": "exact",
    "database_rows": "exact",
    "skew": "exact",
    "result_rows": "exact",
    "topk_engine": "exact",
    "topk_queries": "exact",
    "columnar_speedup_cold": "ratio",
    "columnar_speedup_warm": "ratio",
    "sql_vs_planned_cold": "ratio",
    "sql_vs_planned_warm": "ratio",
    "topk_vs_full_cold": "ratio",
    "topk_vs_full_warm": "ratio",
    "results_identical": "flag",
    "topk_results_consistent": "flag",
    "rows_cold_ms": "info",
    "rows_warm_ms": "info",
    "columnar_cold_ms": "info",
    "columnar_warm_ms": "info",
    "sql_cold_ms": "info",
    "sql_warm_ms": "info",
    "topk_cold_ms": "info",
    "topk_warm_ms": "info",
    "topk_full_cold_ms": "info",
    "topk_full_warm_ms": "info",
    # environment provenance: self-describing artifacts, never comparable
    # across machines
    "python_version": "info",
    "sqlite_version": "info",
    "numpy_version": "info",
    # serving tier (seeded workload against a fresh in-process server)
    "distinct_queries": "exact",
    "concurrency": "exact",
    "warm_repeat": "exact",
    "burst_distinct": "exact",
    "burst_duplicates": "exact",
    "requests_cold": "exact",
    "requests_warm": "exact",
    "burst_requests": "exact",
    "burst_unique_compiles": "exact",
    "burst_unique_fraction": "exact",
    "failed_requests": "exact",
    "warm_speedup_p50": "ratio",
    "coalesce_collapse": "ratio",
    "cold_p50_ms": "info",
    "cold_p95_ms": "info",
    "cold_p99_ms": "info",
    "cold_rps": "info",
    "warm_p50_ms": "info",
    "warm_p95_ms": "info",
    "warm_p99_ms": "info",
    "warm_rps": "info",
    "burst_p50_ms": "info",
    "burst_p95_ms": "info",
    "burst_p99_ms": "info",
    "burst_rps": "info",
    "retried_requests": "info",
    # how many requests *observably* awaited an in-flight compile is a
    # race between workers — the deterministic gate is burst_unique_compiles
    "coalesced_requests": "info",
    # pool leg: corpus composition is seeded, and a chaos-free bench run
    # must see a chaos-free pool (zero failures, zero restarts)
    "pool_workers": "exact",
    "pool_distinct": "exact",
    "pool_requests": "exact",
    "pool_failed_requests": "exact",
    "pool_worker_restarts": "exact",
    "pool_worker_crashes": "exact",
    # N-worker pool vs single process on the stalled-compile corpus; the
    # stall makes this portable across 1-to-N-core CI hosts (servebench).
    "pool_vs_single_warm_throughput": "ratio",
    # pool-leg timings: per-machine, the gated number is the ratio above
    "pool_single_rps": "info",
    "pool_rps": "info",
    "pool_single_p50_ms": "info",
    "pool_p50_ms": "info",
    "pool_p99_ms": "info",
    # disk-cache health: eviction/degradation counts depend on what an
    # earlier run (or a hostile filesystem) left in the store directory —
    # report them so a corrupt store is visible, never gate on them
    "disk_evictions": "info",
    "disk_corrupt_evictions": "info",
    "disk_stale_evictions": "info",
    "disk_degraded": "info",
}


def compare(
    fresh: dict, baseline: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Return (failures, notes) from diffing ``fresh`` against ``baseline``.

    A fresh value of the wrong type is a failure, never a traceback.
    """
    failures: list[str] = []
    notes: list[str] = []
    for key, expected in baseline.items():
        kind = GATES.get(key)
        measured = fresh.get(key)
        if kind == "stages":
            stages = fresh.get(key, {})
            if not isinstance(stages, dict):
                failures.append(f"{key}: expected an object, measured {stages!r}")
                continue
            for stage, counters in expected.items():
                found = stages.get(stage)
                if not isinstance(found, dict):
                    failures.append(
                        f"{key}.{stage}: missing from fresh output" if found is None
                        else f"{key}.{stage}: expected an object, measured {found!r}"
                    )
                    continue
                failures += [
                    f"{key}.{stage}.{name}: expected {counters.get(name)}, "
                    f"measured {found.get(name)}"
                    for name in ("hits", "misses")
                    if found.get(name) != counters.get(name)
                ]
        elif kind == "flag":
            if not measured:
                failures.append(f"{key}: baseline requires it, fresh output says no")
        elif kind == "ratio":
            floor = expected * (1.0 - tolerance)
            if measured is None:
                failures.append(f"{key}: missing from fresh output")
            elif not isinstance(measured, (int, float)):
                failures.append(f"{key}: expected a number, measured {measured!r}")
            elif measured < floor:
                failures.append(
                    f"{key}: measured {measured:.2f}x, below tolerance floor "
                    f"{floor:.2f}x (baseline {expected:.2f}x - {tolerance:.0%})"
                )
            else:
                notes.append(
                    f"{key}: {measured:.2f}x (baseline {expected:.2f}x, floor {floor:.2f}x)"
                )
        elif kind == "exact":
            if key not in fresh:
                failures.append(f"{key}: missing from fresh output")
            elif measured != expected:
                failures.append(f"{key}: expected {expected!r}, measured {measured!r}")
        elif key not in fresh:
            failures.append(
                f"{key}: present in baseline but missing from fresh "
                "output (renamed or dropped metric?)"
            )
        elif kind == "info":
            notes.append(
                f"{key}: {measured} (baseline machine: {expected}; "
                "absolute times are informational only)"
            )
        elif isinstance(expected, dict):
            notes.append(f"{key}: present (nested, not gated)")
        else:
            notes.append(f"{key}: {measured!r} (baseline {expected!r}; not gated)")
    return failures, notes


def _cell(value: object) -> str:
    text = repr(value)
    return text if len(text) <= 28 else text[:25] + "..."


def diff_table(fresh: dict, baseline: dict) -> list[str]:
    """Per-metric table of baseline vs fresh, flagging missing keys."""
    rows = [f"  {'':1} {'metric':<28} {'baseline':<30} fresh"]
    for key in sorted(baseline):
        missing = key not in fresh
        marker = "!" if missing else " "
        fresh_cell = "(missing)" if missing else _cell(fresh[key])
        rows.append(
            f"  {marker} {key:<28} {_cell(baseline[key]):<30} {fresh_cell}"
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff fresh `repro bench-diagram --json` output "
        "against a checked-in baseline"
    )
    parser.add_argument("fresh", help="path to the freshly measured JSON")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "BENCH_diagram.json"),
        help="checked-in baseline JSON (default: benchmarks/BENCH_diagram.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.4,
        help="allowed relative shortfall on speedup ratios (default: 0.4)",
    )
    args = parser.parse_args(argv)

    try:
        fresh = json.loads(Path(args.fresh).read_text())
        baseline = json.loads(Path(args.baseline).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for path, document in ((args.fresh, fresh), (args.baseline, baseline)):
        if not isinstance(document, dict):
            print(f"error: {path}: not a JSON object", file=sys.stderr)
            return 2

    failures, notes = compare(fresh, baseline, args.tolerance)
    for note in notes:
        print(f"  ok    {note}")
    for failure in failures:
        print(f"  FAIL  {failure}")
    if any(key not in fresh for key in baseline):
        print("\nbaseline vs fresh metric diff (! = missing from fresh):")
        for row in diff_table(fresh, baseline):
            print(row)
    if failures:
        print(
            f"\n{len(failures)} benchmark regression(s) vs {args.baseline} "
            f"(tolerance {args.tolerance:.0%})"
        )
        return 1
    print(f"\nbenchmarks within bounds of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
