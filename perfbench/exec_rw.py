"""``exec-rw``: batch execution over a zipf-skewed Chinook database, with writes.

A :class:`BatchExecutor` on the default (rows) engine runs passes over a
23-query mix (the 12 join queries, the 8 mixed subquery/aggregate shapes
and the 3 top-k shapes at k=10), closed loop, in-process.  Passes come in
cold/warm pairs: before every second pass, from the third on, it inserts
a seeded batch into the fact tables; each
``insert_many`` call is an operation too.  Any insert changes
``total_rows()``, so every plan, scan and subquery memo is dropped: the
pass after a write is as slow as the cold first pass.
"""

from __future__ import annotations

import random

import repro.relational.planner as planner_module
from repro.relational import BatchExecutor, ExecutionMode
from repro.workloads import (
    chinook_join_workload,
    chinook_mixed_workload,
    chinook_topk_workload,
    scaled_bench_database,
    zipf_sampler,
)

from .common import Latencies, Result, Tracer, clock, median, peak_rss_mb

#: Target database size.  At this size the rows engine's correlated EXISTS
#: takes most of a cold pass and sqlite's ``>= ALL`` most of an SQL pass,
#: while a run of write/read pass pairs still fits the time budget.
ROWS = 18_000
SKEW = 1.1
#: Rows per write, by fact table.
WRITE_ROWS = {"Invoice": 10, "InvoiceLine": 50, "PlaylistTrack": 20}
#: The traced run's pass schedule: cold, warm, after a write, warm.
TRACED_PASSES = 4

_JOIN_SHAPES = ("join_genre", "join_country", "join_media", "join_quantity")
_MIXED_SHAPES = ("semi_in", "anti_not_in", "exists_correlated", "ge_all",
                 "group_by_join", "global_agg_lines", "global_agg_tracks",
                 "join_filter")
_COUNTRIES = ("USA", "France", "Canada", "Germany", "Brazil")
_TOPK_SHAPES = ("topk_distinct_join", "topk_scan", "topk_fk_join")


def query_mix() -> list[tuple[str, object]]:
    """The 23 queries as (shape name, AST) pairs."""
    join_params = (4, 3, 2, 3)  # queries per join template, in order
    shapes = [name for name, count in zip(_JOIN_SHAPES, join_params)
              for _ in range(count)]
    joins = chinook_join_workload()
    mixed = chinook_mixed_workload()
    topk = [ranked for _, ranked, _ in chinook_topk_workload(ks=(10,))]
    return (list(zip(shapes, joins)) + list(zip(_MIXED_SHAPES, mixed))
            + list(zip(_TOPK_SHAPES, topk)))


def build_database(seed: int):
    return scaled_bench_database(total_rows=ROWS, seed=seed, skew=SKEW)


class Writer:
    """Seeded insert batches into Invoice, InvoiceLine and PlaylistTrack."""

    def __init__(self, database, seed: int) -> None:
        self._db = database
        self._rng = random.Random(seed ^ 0x1A5E27)
        self._next_invoice = database.row_count("Invoice") + 1
        self._next_line = database.row_count("InvoiceLine") + 1
        self._tracks = database.row_count("Track")
        self._customers = database.row_count("Customer")
        self._playlists = len(database.relation("Playlist").rows)
        self._entries = {
            (row["PlaylistId"], row["TrackId"])
            for row in database.relation("PlaylistTrack").rows
        }
        self._track_of = zipf_sampler(self._rng, self._tracks, SKEW)

    def batches(self) -> list[tuple[str, list[list]]]:
        rng = self._rng
        invoices = []
        for _ in range(WRITE_ROWS["Invoice"]):
            invoices.append([
                self._next_invoice, rng.randint(1, self._customers), "", "", "",
                "Ohio", rng.choice(_COUNTRIES), "", round(rng.uniform(1, 30), 2),
            ])
            self._next_invoice += 1
        lines = []
        for _ in range(WRITE_ROWS["InvoiceLine"]):
            lines.append([self._next_line, rng.randint(1, self._next_invoice - 1),
                          self._track_of(), 0.99, rng.randint(1, 3)])
            self._next_line += 1
        entries = []
        while len(entries) < WRITE_ROWS["PlaylistTrack"]:
            entry = (rng.randint(1, self._playlists), self._track_of())
            if entry not in self._entries:
                self._entries.add(entry)
                entries.append(list(entry))
        return [("Invoice", invoices), ("InvoiceLine", lines),
                ("PlaylistTrack", entries)]


def same_result(query, actual, expected) -> bool:
    if query.order_by:
        return actual.rows == expected.rows
    return actual.as_set() == expected.as_set()


def run(seed: int, seconds: float, trace: bool, corrupt: bool) -> Result:
    """``setup_s`` is the median over database builds spread over the run:
    the one the run uses, then one more per pass pair."""
    if trace:
        return run_traced(seed)
    result = Result()
    setup = []

    def time_setup():
        start = clock()
        built = build_database(seed)
        setup.append(clock() - start)
        return built

    database = time_setup()
    mix = query_mix()
    batch = BatchExecutor(database)
    reference = BatchExecutor(database, mode=ExecutionMode.COLUMNAR)
    writer = Writer(database, seed)
    latencies: list[float] = []
    busy = 0.0
    passes = 0
    # Whole cold/warm pairs only, so every run has the same mix of passes.
    while busy < seconds or passes % 2 == 1:
        if passes % 2 == 1:
            time_setup()  # outside the timed calls; the copy is dropped
        if passes and passes % 2 == 0:
            for table, rows in writer.batches():
                before = database.row_count(table)
                result.attempted += 1
                start = clock()
                inserted = database.insert_many(table, rows)
                elapsed = clock() - start
                busy += elapsed
                latencies.append(elapsed)
                if inserted != len(rows) or database.row_count(table) != before + len(rows):
                    result.fail(True, f"insert into {table} lost rows")
        expected = [reference.execute(query) for _, query in mix]
        for index, (shape, query) in enumerate(mix):
            result.attempted += 1
            start = clock()
            try:
                actual = batch.execute(query)
            except Exception as error:  # noqa: BLE001 — counted, not fatal
                result.fail(False, f"{shape}: {type(error).__name__}: {error}")
                continue
            elapsed = clock() - start
            busy += elapsed
            latencies.append(elapsed)
            if corrupt and passes == 0 and index == 0:
                actual = type(actual)(actual.columns, actual.rows[1:])
            if not same_result(query, actual, expected[index]):
                result.fail(True, f"pass {passes} {shape} differs from the columnar engine")
        passes += 1

    stats = Latencies.of(latencies)
    ops = len(latencies) / busy
    result.metric("setup_s", median(setup), "s")
    result.metric("ops_per_s", ops, "ops/s")
    result.metric("latency_p50_ms", stats.p50_ms, "ms")
    result.metric("latency_tail_ms", stats.tail_ms, "ms")
    result.metric("max_rate_rps", ops, "req/s")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    result.notes.append(stats.note())
    result.notes.append("max_rate_rps: one closed-loop caller, so it equals ops_per_s")
    result.notes.append(
        f"{passes} passes over {database.total_rows()} rows at the end, "
        f"{busy:.2f} s busy; {batch.stats().describe()}"
    )
    return result


# --------------------------------------------------------------------------- #
# traced run
# --------------------------------------------------------------------------- #

ENGINES = (("rows", ExecutionMode.PLANNED), ("columnar", ExecutionMode.COLUMNAR),
           ("sql", ExecutionMode.SQL))


def _passes(seed: int, mode: ExecutionMode, engine: str, tracer: Tracer | None,
            current: list[int]):
    """Runs the traced pass schedule on a fresh database.

    ``current`` holds the open engine span and its request id, so that
    planning spans can nest under it.  Returns the batch executor, the
    per-pass wall times and the per-shape execution times.
    """
    database = build_database(seed)
    batch = BatchExecutor(database, mode=mode)
    writer = Writer(database, seed)
    mix = query_mix()
    pass_times: list[float] = []
    shape_times: dict[str, list[float]] = {shape: [] for shape, _ in mix}
    request = 0
    for number in range(TRACED_PASSES):
        root = tracer.add("pass", 0.0, 0.0) if tracer else -1
        pass_start = clock()
        if number and number % 2 == 0:
            for table, rows in writer.batches():
                start = clock()
                database.insert_many(table, rows)
                if tracer:
                    tracer.add("relational.insert", start, clock(), root, request)
                request += 1
        for shape, query in mix:
            if tracer:
                current[:] = [tracer.add(f"relational.{engine}", 0.0, 0.0, root, request),
                              request]
            start = clock()
            batch.execute(query)
            end = clock()
            shape_times[shape].append(end - start)
            if tracer:
                tracer.spans[current[0]] = (f"relational.{engine}", start, end, root, request)
            request += 1
        pass_end = clock()
        pass_times.append(pass_end - pass_start)
        if tracer:
            tracer.spans[root] = ("pass", pass_start, pass_end, -1, -1)
    return batch, pass_times, shape_times


def run_traced(seed: int) -> Result:
    """Each engine over the same pass schedule, with spans around planning,
    every engine's execute and every insert; the rows engine runs once more
    untraced to give the tracing overhead."""
    result = Result()
    tracer = Tracer()
    current = [-1, -1]
    original_plan = planner_module.Planner.plan

    def traced_plan(self, query):
        start = clock()
        plan = original_plan(self, query)
        tracer.add("relational.plan", start, clock(), current[0], current[1])
        return plan

    # The untraced rows passes bracket the traced ones, so drift in the
    # machine's speed over the run cancels out of the overhead.
    _, before, _ = _passes(seed, ExecutionMode.PLANNED, "rows", None, current)
    planner_module.Planner.plan = traced_plan
    try:
        per_engine = {
            engine: _passes(seed, mode, engine, tracer, current)
            for engine, mode in ENGINES
        }
    finally:
        planner_module.Planner.plan = original_plan
    _, after, _ = _passes(seed, ExecutionMode.PLANNED, "rows", None, current)
    untraced = [(first + second) / 2 for first, second in zip(before, after)]

    rows_batch, rows_times, rows_shapes = per_engine["rows"]
    plan_total, plans = tracer.self_times().get("relational.plan", (0.0, 0))
    result.metric("relational.plan_ms", plan_total / max(plans, 1) * 1e3, "ms")
    stats = rows_batch.stats()
    for name, hits, misses in (
        ("plan", stats.plan_hits, stats.plan_misses),
        ("scan", stats.scan_hits, stats.scan_misses),
        ("subquery", stats.subquery_hits, stats.subquery_misses),
    ):
        result.metric(f"relational.{name}_hit_rate", hits / max(hits + misses, 1),
                      "fraction")
    for engine, (_, pass_times, _) in per_engine.items():
        result.metric(f"relational.{engine}_ms",
                      sum(pass_times) / len(pass_times) * 1e3, "ms")
    for shape, times in rows_shapes.items():
        result.metric(f"relational.template.{shape}_ms",
                      sum(times) / len(times) * 1e3, "ms")
    inserts = tracer.durations("relational.insert")
    result.metric("relational.insert_ms", sum(inserts) / len(inserts) * 1e3, "ms")
    overhead = (sum(rows_times) - sum(untraced)) / len(untraced)
    result.metric("trace.overhead_ms", overhead * 1e3, "ms")
    result.attempted = TRACED_PASSES * len(query_mix()) * (len(ENGINES) + 2)
    result.notes.append(
        "ms per pass (cold, warm, after a write, warm): rows untraced "
        + ", ".join(f"{t * 1e3:.0f}" for t in untraced)
    )
    for engine, (_, pass_times, _) in per_engine.items():
        result.notes.append(
            f"ms per pass, {engine} traced: "
            + ", ".join(f"{t * 1e3:.0f}" for t in pass_times)
        )
    result.tracer = tracer
    return result
