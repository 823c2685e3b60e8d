"""The shared counter base and the stats documents built on it.

``repro.counters.Counters`` gives every stats class its ``as_dict`` and
``merge``.  The key pins below were captured from the hand-written
serializers these classes used to carry: ``/stats`` and ``/healthz`` are
read by dashboards and by the benchmark, so their key names and order must
not move when a class changes how it serializes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.counters import Counters
from repro.pipeline import DiskCacheStats, PipelineStats, StageCounter
from repro.relational.executor import ExecutionStats
from repro.serve import CompileService, PoolConfig, PoolService, ServiceConfig
from repro.serve.lru import LRUStats
from repro.serve.supervisor import PoolStats

SQL = "SELECT S.sname FROM Sailor S WHERE S.rating > 7"

SERVICE_COUNTERS = [
    "requests", "compiles", "lru_hits", "coalesced", "shed", "timeouts",
    "bad_requests", "internal_errors", "stage_cache_clears", "compile_retries",
    "executor_restarts",
]
LRU_KEYS = ["hits", "misses", "evictions"]
DISK_KEYS = [
    "hits", "misses", "writes", "evictions", "corrupt_evictions",
    "stale_evictions", "write_errors", "disk_degraded",
]
POOL_KEYS = [
    "dispatched", "worker_crashes", "worker_restarts", "failovers",
    "heartbeat_timeouts", "deadline_kills", "spawn_failures", "dispatch_faults",
    "reloads", "reload_min_ready",
]
SINGLE_STATS = ["uptime_s", "draining", "in_flight", "pending", *SERVICE_COUNTERS,
                "lru", "pipeline", "disk"]
SINGLE_HEALTHZ = ["status", "in_flight", "pending", "compile_retries",
                  "executor_restarts", "disk_degraded", "engine_breakers"]
POOL_STATS = [
    "mode", "uptime_s", "draining", "workers", "ready_workers", "pending",
    "requests", "compiles", "lru_hits", "coalesced", "shed", "timeouts",
    "bad_requests", "internal_errors", "front_shed", "front_timeouts",
    "stage_cache_clears", "pool", "workers_stats",
]
POOL_HEALTHZ = [
    "status", "mode", "workers", "ready_workers", "broken_slots", "pending",
    "in_flight", "worker_restarts", "worker_crashes", "failovers",
    "disk_degraded", "engine_breakers", "slots",
]


@dataclass
class _Sample(Counters):
    count: int = 0
    ratio: float = 0.0
    by_name: dict[str, int] = field(default_factory=dict)
    nested: StageCounter = field(default_factory=StageCounter)
    state: str = "closed"
    peak: int = field(default=0, metadata={"merge": max})


# --------------------------------------------------------------------- #
# the Counters base
# --------------------------------------------------------------------- #


def test_as_dict_lists_fields_in_order_and_copies_nested_values():
    sample = _Sample(count=2, by_name={"a": 1}, nested=StageCounter(hits=3))
    payload = sample.as_dict()
    assert list(payload) == ["count", "ratio", "by_name", "nested", "state", "peak"]
    assert payload["nested"] == {"hits": 3, "misses": 0, "disk_hits": 0}
    payload["by_name"]["a"] = 99
    assert sample.by_name == {"a": 1}


def test_merge_adds_recurses_and_honours_a_field_fold():
    mine = _Sample(count=1, ratio=0.5, by_name={"a": 1}, nested=StageCounter(1, 2, 0), peak=7)
    theirs = _Sample(
        count=2, ratio=0.25, by_name={"a": 2, "b": 5}, nested=StageCounter(3, 4, 1),
        state="open", peak=4,
    )
    mine.merge(theirs)
    assert mine == _Sample(
        count=3, ratio=0.75, by_name={"a": 3, "b": 5}, nested=StageCounter(4, 6, 1),
        state="open", peak=7,
    )
    theirs.by_name["b"] = 0
    assert mine.by_name["b"] == 5


def test_pipeline_merge_keeps_keys_present_on_one_side_only():
    mine = PipelineStats(queries=2, disk={"hits": 1})
    del mine.counters["render"]
    theirs = PipelineStats(queries=3, counters={"front": StageCounter(1, 1, 1),
                                                "render": StageCounter(0, 2, 0)},
                           disk={"writes": 4})
    mine.merge(theirs)
    assert mine.queries == 5
    assert mine.counters["front"] == StageCounter(1, 1, 1)
    assert mine.counters["render"] == StageCounter(0, 2, 0)
    assert mine.counters["render"] is not theirs.counters["render"]
    assert mine.counters["diagram"] == StageCounter()
    assert mine.disk == {"hits": 1, "writes": 4}


def test_execution_stats_merge_keeps_peaks_and_latest_breaker_state():
    mine = ExecutionStats(plan_hits=1, topk_held_rows=10, breaker_state={"sql": "open"})
    mine.merge(ExecutionStats(plan_hits=2, topk_held_rows=3, breaker_state={"sql": "closed"}))
    assert (mine.plan_hits, mine.topk_held_rows) == (3, 10)
    assert mine.breaker_state == {"sql": "closed"}


def test_pool_merge_keeps_the_last_observed_reload():
    mine = PoolStats(reloads=1, reload_min_ready=2)
    mine.merge(PoolStats())
    assert (mine.reloads, mine.reload_min_ready) == (1, 2)
    mine.merge(PoolStats(reloads=1, reload_min_ready=3))
    assert (mine.reloads, mine.reload_min_ready) == (2, 3)


# --------------------------------------------------------------------- #
# pinned key names and order
# --------------------------------------------------------------------- #


def test_counter_set_keys_are_pinned():
    assert list(LRUStats().as_dict()) == LRU_KEYS
    assert list(DiskCacheStats().as_dict()) == DISK_KEYS
    assert list(PoolStats().as_dict()) == POOL_KEYS
    assert PoolStats().as_dict()["reload_min_ready"] == -1


def test_single_process_stats_and_healthz_keys_are_pinned(tmp_path):
    service = CompileService(disk_cache=tmp_path / "store")

    async def scenario():
        await service.compile(SQL, ("text",))
        await service.compile(SQL, ("text",))

    try:
        asyncio.run(scenario())
        stats = service.stats_payload()
        health = service.healthz()
    finally:
        service.close()
    assert list(stats) == SINGLE_STATS
    assert list(stats["lru"]) == ["entries", *LRU_KEYS]
    assert list(stats["pipeline"]) == ["queries", "hit_rate", "stages", "disk"]
    assert list(stats["disk"]) == DISK_KEYS
    assert stats["requests"] == {"compile": 2, "stats": 1}
    assert (stats["compiles"], stats["lru_hits"]) == (1, 1)
    assert list(health) == SINGLE_HEALTHZ


def test_pool_stats_and_healthz_keys_are_pinned():
    async def scenario():
        service = PoolService(
            config=ServiceConfig(max_pending=16, request_timeout=30.0),
            pool_config=PoolConfig(workers=1, min_uptime=0.0, backoff_base=0.01,
                                   backoff_cap=0.05),
        )
        assert await service.start() == 1
        try:
            await service.compile(SQL, ("text",))
            return await service.stats_payload(), service.healthz()
        finally:
            service.close()

    stats, health = asyncio.run(scenario())
    assert list(stats) == POOL_STATS
    assert list(stats["pool"]) == POOL_KEYS
    (worker,) = stats["workers_stats"]
    assert list(worker) == [*SINGLE_STATS[:-1], "pid", "slot"]
    assert stats["compiles"] == 1
    assert list(health) == POOL_HEALTHZ
