"""Shared pieces of the benchmark: statistics, results, spans, memory."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

clock = time.perf_counter

#: Repository root: the benchmark runs from a checkout and writes only below it.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch output (span files, the serving workload's disk cache).
OUT_DIR = ROOT / ".perfbench"

#: Percentiles the tail is chosen from; the highest one with at least
#: ``TAIL_BEYOND`` samples above it is reported.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9)
TAIL_BEYOND = 10


def percentile(sorted_values: list[float], p: float) -> float:
    """Linearly interpolated percentile of an ascending, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = (len(sorted_values) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def tail_percentile(n: int) -> float:
    """The highest tracked percentile with ``TAIL_BEYOND`` samples beyond it."""
    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            chosen = p
    return chosen


@dataclass
class Latencies:
    """p50 and tail of one sample of per-operation latencies (seconds)."""

    p50_ms: float
    tail_ms: float
    tail_p: float
    count: int

    @classmethod
    def of(cls, seconds: list[float]) -> "Latencies":
        ordered = sorted(seconds)
        p = tail_percentile(len(ordered))
        return cls(
            p50_ms=percentile(ordered, 50.0) * 1e3,
            tail_ms=percentile(ordered, p) * 1e3,
            tail_p=p,
            count=len(ordered),
        )

    def note(self) -> str:
        beyond = self.count * (100.0 - self.tail_p) / 100.0
        return (
            f"latency_tail_ms is p{self.tail_p:g} of {self.count} samples "
            f"({beyond:.0f} beyond it)"
        )


def median(values: list[float]) -> float:
    return percentile(sorted(values), 50.0)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class Result:
    """What one run of a workload measured and checked."""

    attempted: int = 0
    #: Operations that failed or returned a wrong output (wrong ⊆ failed).
    failed: int = 0
    wrong: int = 0
    #: Metric name → (value, unit), in the order they are printed.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Whole-run checks (name → passed) beyond the per-operation ones.
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: False when the load generator could not keep its schedule.
    valid: bool = True
    #: Spans of a traced run, written out when the run ends.
    tracer: "Tracer | None" = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, wrong: bool, message: str) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.notes) < 40:
            self.notes.append(("wrong: " if wrong else "failed: ") + message)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and all(self.checks.values())


class Tracer:
    """In-memory spans: name, start, end, parent span, request id.

    Spans are recorded by the benchmark around calls into each layer's
    public functions and written out once the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []

    def add(self, name: str, start: float, end: float, parent: int = -1,
            request: int = -1) -> int:
        self.spans.append((name, start, end, parent, request))
        return len(self.spans) - 1

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name → (summed self time in seconds, span count)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total, count = totals.get(name, (0.0, 0))
            totals[name] = (total + end - start - child_time[index], count + 1)
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")

