"""Run one workload of the benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 15 --trace 0

Every metric is printed by name with its unit, then the run's output
checks, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is the separate traced run
that reports the per-layer metrics and writes its spans to
``.perfbench/trace-<workload>-<seed>-<source>.jsonl``.  Layers the workload
does not reach are traced on the other workloads' inputs, so every
per-layer metric is measured.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "compile-cold": "compile_cold",
    "serve-zipf": "serve_zipf",
    "exec-rw": "exec_rw",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Used by perfbench/selftest.py: corrupt one output so the checks must fire.
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Exit through the finally blocks that stop the server subprocesses.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"error: the program's source is missing ({package} not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import OUT_DIR

    def run_workload(name: str):
        module = importlib.import_module(f"perfbench.{WORKLOADS[name]}")
        return module.run(args.seed, args.seconds, bool(args.trace),
                          args.corrupt and name == args.workload)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = run_workload(args.workload)
    runs = {args.workload: result}
    if args.trace:
        # A traced run reports every per-layer metric.  The layers this
        # workload does not reach are traced on the other workloads'
        # inputs, from the same seed, so each value is measured.
        metrics = dict(result.metrics)
        for other in WORKLOADS:
            absent = [m["name"] for m in wanted if m["name"] not in metrics]
            if not absent:
                break
            if other in runs:
                continue
            runs[other] = run_workload(other)
            metrics.update({name: runs[other].metrics[name]
                            for name in absent if name in runs[other].metrics})
    else:
        metrics = result.metrics
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"error: {args.workload} did not measure {absent}", file=sys.stderr)
        return 1
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted = sum(run.attempted for run in runs.values())
    failed = sum(run.failed for run in runs.values())
    print(f"failed_frac = {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted} operations failed or wrong)")
    for name, run in runs.items():
        prefix = "" if name == args.workload else f"[{name}] "
        for note in run.notes:
            print(f"  {prefix}{note}")
        for check, passed in run.checks.items():
            print(f"check {'ok  ' if passed else 'FAIL'} {prefix}{check}")
    if not result.valid:
        print("run invalid: no result reported", file=sys.stderr)
        return 3
    for name, run in runs.items():
        if run.tracer is not None:
            path = OUT_DIR / f"trace-{args.workload}-{args.seed}-{name}.jsonl"
            run.tracer.write(path)
            print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": all(run.correct for run in runs.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
