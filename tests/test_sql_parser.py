"""Unit tests for the recursive-descent SQL parser."""

from __future__ import annotations

import pytest

from repro.sql import (
    AggregateCall,
    ColumnRef,
    Comparison,
    Exists,
    InSubquery,
    Literal,
    OrderItem,
    QuantifiedComparison,
    SQLSyntaxError,
    Star,
    UnsupportedSQLError,
    parse,
)
from repro.sql.parser import MAX_SUBQUERY_DEPTH


class TestSelectAndFrom:
    def test_simple_select(self):
        query = parse("SELECT T.a FROM T")
        assert query.select_items == (ColumnRef("T", "a"),)
        assert query.from_tables[0].name == "T"
        assert query.from_tables[0].alias is None

    def test_select_star(self):
        query = parse("SELECT * FROM T")
        assert query.is_select_star

    def test_select_multiple_columns(self):
        query = parse("SELECT A.x, A.y, B.z FROM A, B")
        assert len(query.select_items) == 3

    def test_alias_without_as(self):
        query = parse("SELECT L1.drinker FROM Likes L1")
        assert query.from_tables[0].alias == "L1"
        assert query.from_tables[0].effective_alias == "L1"

    def test_alias_with_as(self):
        query = parse("SELECT L.drinker FROM Likes AS L")
        assert query.from_tables[0].alias == "L"

    def test_multiple_tables(self):
        query = parse("SELECT F.person FROM Frequents F, Likes L, Serves S")
        assert [t.alias for t in query.from_tables] == ["F", "L", "S"]

    def test_unqualified_column(self):
        query = parse("SELECT drinker FROM Likes")
        assert query.select_items[0] == ColumnRef(None, "drinker")

    def test_trailing_semicolon_allowed(self):
        parse("SELECT T.a FROM T;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT T.a FROM T extra stuff here")


class TestWherePredicates:
    def test_join_predicate(self):
        query = parse("SELECT A.x FROM A, B WHERE A.x = B.y")
        predicate = query.where[0]
        assert isinstance(predicate, Comparison)
        assert predicate.is_join and not predicate.is_selection

    def test_selection_predicate_string(self):
        query = parse("SELECT B.bid FROM Boat B WHERE B.color = 'red'")
        predicate = query.where[0]
        assert predicate.is_selection
        assert predicate.right == Literal("red")

    def test_selection_predicate_number(self):
        query = parse("SELECT T.x FROM T WHERE T.x < 270000")
        assert query.where[0].right == Literal(270000)

    def test_selection_predicate_float(self):
        query = parse("SELECT T.x FROM T WHERE T.UnitPrice > 2.5")
        assert query.where[0].right == Literal(2.5)

    def test_conjunction_of_predicates(self):
        query = parse(
            "SELECT A.x FROM A, B WHERE A.x = B.y AND A.z <> B.w AND A.q >= 3"
        )
        assert len(query.where) == 3

    @pytest.mark.parametrize("op", ["<", "<=", "=", "<>", ">=", ">"])
    def test_all_operators(self, op):
        query = parse(f"SELECT A.x FROM A, B WHERE A.x {op} B.y")
        assert query.where[0].op == op

    def test_not_equal_spelling_normalized(self):
        query = parse("SELECT A.x FROM A, B WHERE A.x != B.y")
        assert query.where[0].op == "<>"


class TestSubqueries:
    def test_exists(self):
        query = parse(
            "SELECT A.x FROM A WHERE EXISTS (SELECT * FROM B WHERE B.y = A.x)"
        )
        predicate = query.where[0]
        assert isinstance(predicate, Exists) and not predicate.negated

    def test_not_exists(self):
        query = parse(
            "SELECT A.x FROM A WHERE NOT EXISTS (SELECT * FROM B WHERE B.y = A.x)"
        )
        assert isinstance(query.where[0], Exists) and query.where[0].negated

    def test_in_subquery(self):
        query = parse("SELECT A.x FROM A WHERE A.x IN (SELECT B.y FROM B)")
        predicate = query.where[0]
        assert isinstance(predicate, InSubquery) and not predicate.negated

    def test_not_in_subquery(self):
        query = parse("SELECT A.x FROM A WHERE A.x NOT IN (SELECT B.y FROM B)")
        assert isinstance(query.where[0], InSubquery) and query.where[0].negated

    def test_any_subquery(self):
        query = parse("SELECT A.x FROM A WHERE A.x = ANY (SELECT B.y FROM B)")
        predicate = query.where[0]
        assert isinstance(predicate, QuantifiedComparison)
        assert predicate.quantifier == "ANY" and not predicate.negated

    def test_all_subquery(self):
        query = parse("SELECT A.x FROM A WHERE A.x >= ALL (SELECT B.y FROM B)")
        predicate = query.where[0]
        assert predicate.quantifier == "ALL" and predicate.op == ">="

    def test_negated_any(self):
        query = parse("SELECT A.x FROM A WHERE NOT A.x = ANY (SELECT B.y FROM B)")
        predicate = query.where[0]
        assert isinstance(predicate, QuantifiedComparison) and predicate.negated

    def test_nesting_depth(self, unique_set_query):
        assert unique_set_query.nesting_depth() == 3

    def test_unique_set_structure(self, unique_set_query):
        root_subqueries = unique_set_query.subquery_predicates()
        assert len(root_subqueries) == 1
        level1 = root_subqueries[0].query
        assert len(level1.subquery_predicates()) == 2

    def test_table_count(self, unique_set_query):
        assert unique_set_query.table_count() == 6

    def test_scalar_subquery_rejected(self):
        with pytest.raises(UnsupportedSQLError):
            parse("SELECT A.x FROM A WHERE A.x = (SELECT B.y FROM B)")


class TestGroupBy:
    def test_group_by_single_column(self):
        query = parse(
            "SELECT T.AlbumId, MAX(T.Milliseconds) FROM Track T GROUP BY T.AlbumId"
        )
        assert query.group_by == (ColumnRef("T", "AlbumId"),)
        assert isinstance(query.select_items[1], AggregateCall)

    def test_group_by_multiple_columns(self):
        query = parse(
            "SELECT P.PlaylistId, G.Name, COUNT(T.TrackId) FROM Playlist P, Genre G, "
            "Track T GROUP BY P.PlaylistId, G.Name"
        )
        assert len(query.group_by) == 2

    def test_count_star(self):
        query = parse("SELECT A.x, COUNT(*) FROM A GROUP BY A.x")
        aggregate = query.select_items[1]
        assert isinstance(aggregate.argument, Star)

    def test_has_aggregates(self):
        query = parse("SELECT A.x, SUM(A.y) FROM A GROUP BY A.x")
        assert query.has_aggregates


class TestDistinctAndOrderBy:
    def test_select_distinct(self):
        query = parse("SELECT DISTINCT A.x FROM A")
        assert query.distinct
        assert query.select_items == (ColumnRef("A", "x"),)

    def test_order_by_defaults_ascending(self):
        query = parse("SELECT A.x FROM A ORDER BY A.x")
        assert query.order_by == (OrderItem(ColumnRef("A", "x"), descending=False),)

    def test_order_by_mixed_directions(self):
        query = parse("SELECT A.x, A.y FROM A ORDER BY A.x DESC, A.y ASC")
        assert query.order_by == (
            OrderItem(ColumnRef("A", "x"), descending=True),
            OrderItem(ColumnRef("A", "y"), descending=False),
        )

    def test_limit_and_offset(self):
        query = parse("SELECT A.x FROM A ORDER BY A.x LIMIT 10 OFFSET 5")
        assert query.limit == 10
        assert query.offset == 5

    def test_limit_without_order_by(self):
        query = parse("SELECT A.x FROM A LIMIT 3")
        assert query.limit == 3
        assert query.offset == 0
        assert query.order_by == ()

    def test_order_by_after_group_by(self):
        query = parse(
            "SELECT A.x, COUNT(*) FROM A GROUP BY A.x ORDER BY A.x DESC LIMIT 2"
        )
        assert query.group_by == (ColumnRef("A", "x"),)
        assert query.order_by == (OrderItem(ColumnRef("A", "x"), descending=True),)
        assert query.limit == 2

    def test_order_by_columns_are_referenced(self):
        query = parse("SELECT A.x FROM A ORDER BY A.y")
        assert ColumnRef("A", "y") in query.referenced_columns()

    def test_limit_requires_integer(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT A.x FROM A LIMIT 2.5")
        with pytest.raises(SQLSyntaxError):
            parse("SELECT A.x FROM A LIMIT B")


class TestUnsupportedConstructs:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT A.x FROM A WHERE A.x = 1 OR A.y = 2",
            "SELECT A.x FROM A JOIN B ON A.x = B.y",
            "SELECT A.x FROM A GROUP BY A.x HAVING COUNT(*) > 1",
            "SELECT A.x FROM A UNION SELECT B.y FROM B",
        ],
    )
    def test_rejected_with_unsupported_error(self, sql):
        with pytest.raises(UnsupportedSQLError):
            parse(sql)

    def test_syntax_error_missing_from(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT A.x WHERE A.x = 1")

    def test_syntax_error_empty(self):
        with pytest.raises(SQLSyntaxError):
            parse("")

    def test_nesting_depth_is_capped(self, nested_exists_sql):
        assert parse(nested_exists_sql(MAX_SUBQUERY_DEPTH)).nesting_depth() == (
            MAX_SUBQUERY_DEPTH
        )
        with pytest.raises(UnsupportedSQLError, match="nested deeper than"):
            parse(nested_exists_sql(MAX_SUBQUERY_DEPTH + 1))


class TestPaperQueries:
    def test_all_paper_queries_parse(self, unique_set_sql, q_some_sql, q_only_sql):
        for sql in (unique_set_sql, q_some_sql, q_only_sql):
            query = parse(sql)
            assert query.from_tables

    def test_q_some_is_flat(self, q_some_query):
        assert q_some_query.nesting_depth() == 0
        assert len(q_some_query.where) == 3

    def test_q_only_is_depth_two(self, q_only_query):
        assert q_only_query.nesting_depth() == 2
