"""Tests for the batch execution pipeline and its shared caches."""

from __future__ import annotations

import pytest

from repro.relational import (
    BatchExecutor,
    ExecutionMode,
    execute,
    execute_batch,
)
from repro.sql import parse
from repro.workloads import (
    chinook_bench_database,
    chinook_join_workload,
    sailors_database,
)


@pytest.fixture
def db():
    return sailors_database()


class TestBatchExecutor:
    def test_accepts_sql_text_and_asts(self, db):
        batch = BatchExecutor(db)
        from_text = batch.execute("SELECT S.sname FROM Sailor S")
        from_ast = batch.execute(parse("SELECT S.sname FROM Sailor S"))
        assert from_text.as_set() == from_ast.as_set()

    def test_matches_single_query_execution(self, db):
        queries = [
            "SELECT S.sname FROM Sailor S WHERE S.rating >= 5",
            "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid",
            "SELECT B.color, COUNT(*) FROM Boat B GROUP BY B.color",
        ]
        batch_results = execute_batch(queries, db)
        for sql, result in zip(queries, batch_results):
            assert result.as_set() == execute(parse(sql), db).as_set()

    def test_plan_cache_hits_on_repeated_queries(self, db):
        batch = BatchExecutor(db)
        query = parse("SELECT S.sname FROM Sailor S WHERE S.rating >= 5")
        batch.run([query, query, query])
        stats = batch.stats()
        assert stats.queries == 3
        assert stats.plan_misses == 1
        assert stats.plan_hits == 2

    def test_subquery_cache_shared_across_queries(self, db):
        # Two *different* top-level queries containing the same uncorrelated
        # subquery: the subquery must be evaluated once for the whole batch.
        sub = "(SELECT R.sid FROM Reserves R WHERE R.bid = 102)"
        batch = BatchExecutor(db)
        batch.execute(f"SELECT S.sname FROM Sailor S WHERE S.sid IN {sub}")
        before = batch.stats().subquery_misses
        batch.execute(f"SELECT S.age FROM Sailor S WHERE S.sid IN {sub}")
        stats = batch.stats()
        assert stats.subquery_misses == before  # second query hit the cache
        assert stats.subquery_hits >= 1

    def test_correlated_subquery_memoized_per_distinct_value(self, db):
        # Reserves has many rows per sid; the correlated EXISTS must run once
        # per distinct sid, not once per outer row enumeration.
        batch = BatchExecutor(db)
        batch.execute(
            "SELECT S.sname FROM Sailor S WHERE EXISTS "
            "(SELECT * FROM Reserves R WHERE R.sid = S.sid)"
        )
        stats = batch.stats()
        n_sailors = len(db.relation("Sailor").rows)
        assert stats.subquery_misses <= n_sailors
        # Repeating the query is answered entirely from the caches.
        batch.execute(
            "SELECT S.sname FROM Sailor S WHERE EXISTS "
            "(SELECT * FROM Reserves R WHERE R.sid = S.sid)"
        )
        assert batch.stats().subquery_misses == stats.subquery_misses

    def test_stats_is_a_copy_that_later_queries_leave_alone(self, db):
        # The cache tests above compare an earlier stats() against a later
        # one; that only means something if stats() is not the live object.
        sql = "SELECT S.sname FROM Sailor S WHERE S.sid IN (SELECT R.sid FROM Reserves R)"
        batch = BatchExecutor(db)
        batch.execute(sql)
        stats = batch.stats()
        before = stats.as_dict()
        batch.execute("SELECT S.age FROM Sailor S WHERE S.rating > 7")
        batch.execute(sql)
        assert stats.as_dict() == before
        assert stats.breaker_state is not batch.context.stats.breaker_state
        later = batch.stats()
        assert (later.queries, later.plan_misses) == (3, stats.plan_misses + 1)

    def test_inserts_between_queries_invalidate_caches(self, db):
        # The subquery/scan caches must not serve stale results after the
        # database grows (versioned by total row count).
        sql = (
            "SELECT S.sname FROM Sailor S WHERE S.sid IN "
            "(SELECT R.sid FROM Reserves R WHERE R.bid = 102)"
        )
        batch = BatchExecutor(db)
        before = batch.execute(sql).as_set()
        db.insert("Reserves", [1, 102, "sun"])  # sailor 1 now reserves 102
        after = batch.execute(sql).as_set()
        assert after == execute(parse(sql), db, mode=ExecutionMode.NAIVE).as_set()
        assert after != before

    def test_iter_run_streams_pairs(self, db):
        batch = BatchExecutor(db)
        queries = ["SELECT S.sname FROM Sailor S", "SELECT B.bname FROM Boat B"]
        pairs = list(batch.iter_run(queries))
        assert [q for q, _ in pairs] == queries
        assert all(len(result.columns) == 1 for _, result in pairs)

    def test_explain(self, db):
        batch = BatchExecutor(db)
        text = batch.explain(
            "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid"
        )
        assert "HashJoin" in text

    def test_naive_mode_oracle(self, db):
        planned = BatchExecutor(db)
        naive = BatchExecutor(db, mode=ExecutionMode.NAIVE)
        sql = "SELECT S.sname FROM Sailor S, Reserves R WHERE S.sid = R.sid"
        assert planned.execute(sql).as_set() == naive.execute(sql).as_set()

    def test_stats_describe_is_readable(self, db):
        batch = BatchExecutor(db)
        batch.execute("SELECT S.sname FROM Sailor S")
        text = batch.stats().describe()
        assert "1 queries" in text and "plans" in text


class TestChinookWorkload:
    def test_workload_queries_parse_and_agree(self):
        db = chinook_bench_database(scale=1)
        queries = chinook_join_workload()
        assert len(queries) == 12
        planned = execute_batch(queries, db)
        naive = execute_batch(queries, db, mode=ExecutionMode.NAIVE)
        for p, n in zip(planned, naive):
            assert p.as_set() == n.as_set()

    def test_repeat_extends_batch(self):
        assert len(chinook_join_workload(repeat=3)) == 36
