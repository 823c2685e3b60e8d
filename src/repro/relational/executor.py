"""SQL executor for the supported fragment.

The executor evaluates a :class:`~repro.sql.ast.SelectQuery` over a
:class:`~repro.relational.database.Database`.  :class:`ExecutionMode`
selects one of the pluggable engines registered with
:mod:`repro.relational.backends`:

* ``PLANNED`` (default) — the query is compiled by
  :mod:`repro.relational.planner` into a logical plan (predicate pushdown,
  hash equi-joins, semi-/anti-joins for decorrelated ``[NOT] IN``, memoized
  correlated subqueries) and the plan is interpreted as a pipeline of
  generators over flat row tuples.  Lives in this module.
* ``COLUMNAR`` — the same compiled plan interpreted batch-at-a-time by the
  vectorized backend (:mod:`repro.relational.columnar`): column-major
  storage, selection-vector filters, cardinality-chosen hash-join build
  sides.  Fastest on large databases; results are identical sets.
* ``SQL`` — the plan lowered to parameterized SQL text and executed on
  stdlib ``sqlite3`` (:mod:`repro.relational.sqlbackend`): an
  *independent* engine implementation, which is what gives the
  differential suite real adversarial power.
* ``NAIVE`` — the original nested-loop reference semantics: the FROM clause
  enumerates the cartesian product of its tables; WHERE predicates are
  evaluated per combination, with correlated subqueries receiving the outer
  bindings through an environment of scopes.  This path is kept as the
  ground-truth oracle for differential testing of the planner.

All modes implement the same fragment: ``EXISTS`` / ``IN`` / ``ANY`` /
``ALL`` follow standard SQL semantics restricted to 2-valued logic (no
NULLs); the result uses *set semantics* (duplicate result tuples are
collapsed) unless the query carries aggregates, in which case GROUP BY
semantics apply (Appendix C.3 extension).  The modes return identical
``as_set()`` results; only the tuple enumeration order may differ
(documented edge divergences live in ``docs/sql_backend.md``).

Compiled plans, materialized scans, subquery results and per-backend state
are cached on an :class:`ExecutionContext`, which can be shared across many
queries — see :mod:`repro.relational.batch` for the batch pipeline built on
top.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .columnar import ColumnarTable

from ..sql.ast import (
    AggregateCall,
    ColumnRef,
    Comparison,
    Exists,
    InSubquery,
    Literal,
    Predicate,
    QuantifiedComparison,
    SelectQuery,
    Star,
)
from ..counters import Counters
from ..faults import fault_point
from .aggregates import apply_aggregate
from .backends import ExecutionBackend, backend_for, register_backend, with_fallback
from .database import Database, Relation, Row
from .errors import (
    AmbiguousColumnError,
    EngineError,
    TypeMismatchError,
    UnknownColumnError,
)
from .plan import (
    Aggregate,
    AntiJoin,
    BlockPlan,
    Col,
    CompiledComparison,
    Const,
    Distinct,
    Filter,
    HashJoin,
    NestedLoopJoin,
    PlanNode,
    Project,
    ScalarExpr,
    Scan,
    SemiJoin,
    SubqueryPred,
    TopK,
)
from .planner import Planner
from .resolve import match_column as _match_column
from .resolve import matches_group_key, order_key_position, result_columns
from .values import OrderKey, Value, compare


class ExecutionMode(enum.Enum):
    """How queries are evaluated: rows, columnar, lowered SQL or the oracle."""

    NAIVE = "naive"
    PLANNED = "planned"
    COLUMNAR = "columnar"
    SQL = "sql"


@dataclass(frozen=True, slots=True)
class ResultSet:
    """The result of executing a query: column labels plus result rows."""

    columns: tuple[str, ...]
    rows: tuple[tuple[Value, ...], ...]
    #: Cache for :meth:`as_set`.  A real (non-init, non-compare) field so
    #: the cache works with ``slots=True`` and never leaks into equality
    #: or repr; writes go through ``object.__setattr__`` because the
    #: dataclass is frozen.
    _row_set: frozenset | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def as_set(self) -> frozenset[tuple[Value, ...]]:
        """The rows as a set (the comparison used in equivalence checks).

        The frozenset is computed once and cached, so repeated equivalence
        checks and ``in`` tests don't rebuild it.
        """
        cached = self._row_set
        if cached is None:
            cached = frozenset(self.rows)
            object.__setattr__(self, "_row_set", cached)
        return cached

    def __reduce__(self):
        # Pickle only the payload: the cache is derivable, and dropping it
        # keeps persisted results (e.g. the batch disk cache) compact and
        # independent of whether as_set() happened to have been called.
        return (type(self), (self.columns, self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: tuple[Value, ...]) -> bool:
        # Set semantics: containment is membership in the row *set*, not a
        # linear scan of the tuple (the two agree because rows are deduped,
        # but the set probe is O(1)).
        return row in self.as_set()


# ---------------------------------------------------------------------- #
# shared execution context (caches + statistics)
# ---------------------------------------------------------------------- #


@dataclass
class ExecutionStats(Counters):
    """Counters for the context's caches (useful for batch diagnostics)."""

    plan_hits: int = 0
    plan_misses: int = 0
    subquery_hits: int = 0
    subquery_misses: int = 0
    scan_hits: int = 0
    scan_misses: int = 0
    # SQL backend: in-memory store (re)builds and lowering-cache traffic.
    sql_store_builds: int = 0
    sql_lower_hits: int = 0
    sql_lower_misses: int = 0
    # Ranked output: rows consumed by TopK operators vs the peak number of
    # rows any single TopK kept resident.  The gap between the two is the
    # non-materialization guarantee — a bounded-heap `LIMIT 10` over a
    # million-row join shows topk_input_rows in the millions while
    # topk_held_rows stays at 10.
    topk_input_rows: int = 0
    topk_held_rows: int = field(default=0, metadata={"merge": max})
    # Graceful degradation (only moves under a FallbackBackend): queries
    # re-executed on the fallback engine, executions that skipped a
    # primary outright because its breaker was open, and the last
    # observed breaker state per wrapped engine.
    fallbacks: int = 0
    breaker_skips: int = 0
    breaker_state: dict[str, str] = field(default_factory=dict)


class ExecutionContext:
    """Caches shared by planned executions over one database.

    * **plan cache** — query AST → compiled :class:`~.plan.BlockPlan`;
    * **scan cache** — materialized row tuples per relation (invalidated by
      row-count changes, i.e. inserts);
    * **subquery cache** — subquery AST + parameter values → result, shared
      across queries so a batch re-evaluates each distinct subquery once;
    * **backend state** — one opaque bucket per registered backend (the SQL
      backend's sqlite store + lowering cache live here), invalidated with
      the data-dependent caches on every version bump.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self.stats = ExecutionStats()
        self._planner = Planner(database)
        self._plans: dict[SelectQuery, BlockPlan] = {}
        self._scans: dict[str, tuple[int, list[tuple[Value, ...]]]] = {}
        self._columnar: dict[str, tuple[int, "ColumnarTable"]] = {}
        self._subqueries: dict[tuple, object] = {}
        self._backend_state: dict[str, object] = {}
        self._version = database.total_rows()

    def refresh(self) -> None:
        """Drop data-dependent caches if the database grew since last use.

        Called at every top-level execution.  Versioning is by total row
        count, so plain inserts invalidate naturally; in-place mutation of
        existing rows is not detected (treat relations as append-only while
        a context is alive).  Plans are invalidated too: join orders are
        cardinality-guided, so a plan compiled against yesterday's row
        counts may be arbitrarily bad against today's.
        """
        version = self.database.total_rows()
        if version != self._version:
            self._version = version
            self._plans.clear()
            self._scans.clear()
            self._columnar.clear()
            self._subqueries.clear()
            self._backend_state.clear()

    def backend_state(self, key: str, factory: Callable[[], object]) -> object:
        """Per-backend state bucket, dropped whenever the database grows.

        ``key`` namespaces one backend (conventionally its mode value);
        ``factory`` builds the initial state on first use after any
        invalidation.  This is the generic version of the ``_columnar``
        table cache: backends park anything derived from the data here and
        inherit the same version-bump invalidation.
        """
        state = self._backend_state.get(key)
        if state is None:
            state = factory()
            self._backend_state[key] = state
        return state

    # -- plans ---------------------------------------------------------- #

    def plan(self, query: SelectQuery) -> BlockPlan:
        plan = self._plans.get(query)
        if plan is None:
            self.stats.plan_misses += 1
            plan = self._planner.plan(query)
            self._plans[query] = plan
        else:
            self.stats.plan_hits += 1
        return plan

    # -- scans ---------------------------------------------------------- #

    def scan_rows(self, relation: Relation) -> list[tuple[Value, ...]]:
        """Rows of ``relation`` as flat tuples, memoized per row count."""
        key = relation.name.lower()
        count = len(relation.rows)
        cached = self._scans.get(key)
        if cached is not None and cached[0] == count:
            self.stats.scan_hits += 1
            return cached[1]
        self.stats.scan_misses += 1
        columns = relation.columns
        rows = [tuple(row[c] for c in columns) for row in relation.rows]
        self._scans[key] = (count, rows)
        return rows

    def columnar_table(self, relation: Relation) -> "ColumnarTable":
        """The relation loaded column-major, memoized per row count."""
        key = relation.name.lower()
        count = len(relation.rows)
        cached = self._columnar.get(key)
        if cached is not None and cached[0] == count:
            self.stats.scan_hits += 1
            return cached[1]
        from .columnar import ColumnarTable

        self.stats.scan_misses += 1
        table = ColumnarTable.from_relation(relation)
        self._columnar[key] = (count, table)
        return table

    # -- subqueries ------------------------------------------------------ #
    #
    # ``runner`` evaluates a block plan's operator tree and returns its row
    # tuples; ``None`` selects the row pipeline.  The columnar backend
    # passes its own runner so nested blocks run columnar too.  Results are
    # engine-independent (the differential suite asserts it), so both
    # engines safely share one memo table.

    def _run_subplan(self, plan: BlockPlan, params: tuple, runner) -> Iterator[tuple]:
        if runner is None:
            return _iter_node(plan.root, self, params)
        return iter(runner(plan, self, params))

    def subquery_exists(
        self,
        plan: BlockPlan,
        params: tuple[Value, ...],
        runner: Callable[..., list[tuple]] | None = None,
    ) -> bool:
        key = (*plan.cache_key, params, "exists")
        cached = self._subqueries.get(key)
        if cached is None:
            self.stats.subquery_misses += 1
            if _prechecks_pass(plan, self, params):
                cached = next(self._run_subplan(plan, params, runner), None) is not None
            else:
                cached = False
            self._subqueries[key] = cached
        else:
            self.stats.subquery_hits += 1
        return cached

    def subquery_values(
        self,
        plan: BlockPlan,
        params: tuple[Value, ...],
        runner: Callable[..., list[tuple]] | None = None,
    ) -> "_SubqueryValues":
        key = (*plan.cache_key, params, "values")
        cached = self._subqueries.get(key)
        if cached is None:
            self.stats.subquery_misses += 1
            if _prechecks_pass(plan, self, params):
                values = tuple(
                    row[0] for row in self._run_subplan(plan, params, runner)
                )
            else:
                values = ()
            cached = _SubqueryValues(values)
            self._subqueries[key] = cached
        else:
            self.stats.subquery_hits += 1
        return cached


class _SubqueryValues:
    """Materialized single-column subquery result with probe fast paths.

    The value family is classified once on construction: ``"num"``,
    ``"str"``, ``"mixed"`` (both families present) or ``"empty"``.  Probing
    a non-empty result with a value of the other family, or probing a
    mixed-family result with anything, raises
    :class:`~.errors.TypeMismatchError` *deterministically* — the check is
    up-front and order-independent, instead of relying on a comparison loop
    whose short-circuit point (and therefore whether it raises at all)
    would depend on the engine-specific enumeration order of the subquery.
    With the family validated, the set/min/max fast paths are always safe.
    """

    __slots__ = ("values", "family", "_set", "_min", "_max")

    def __init__(self, values: tuple[Value, ...]) -> None:
        self.values = values
        families = {_family(v) for v in values}
        if not families:
            self.family = "empty"
        elif len(families) == 1:
            self.family = families.pop()
        else:
            self.family = "mixed"
        self._set: frozenset | None = None
        self._min: Value | None = None
        self._max: Value | None = None

    def _check(self, value: Value) -> None:
        """Validate the probe's family (values are known non-empty here)."""
        if self.family == "mixed":
            raise TypeMismatchError(
                "subquery result mixes string and numeric values; "
                "comparing against it is not well-typed"
            )
        if _family(value) != self.family:
            raise TypeMismatchError(
                f"cannot compare {type(value).__name__} with the subquery's "
                f"{self.family} values"
            )

    def as_set(self) -> frozenset:
        if self._set is None:
            self._set = frozenset(self.values)
        return self._set

    def _bounds(self) -> tuple[Value, Value]:
        if self._min is None:
            if self.family not in ("num", "str"):  # pragma: no cover - guarded
                raise TypeMismatchError(
                    "min/max of a mixed-type subquery result is undefined"
                )
            self._min = min(self.values)
            self._max = max(self.values)
        return self._min, self._max

    def contains(self, value: Value) -> bool:
        """``value = ANY(values)`` — the IN membership check."""
        if not self.values:
            return False
        self._check(value)
        return value in self.as_set()

    def quantified(self, value: Value, op: str, quantifier: str) -> bool:
        """``value op ANY/ALL (values)`` with min/max shortcuts."""
        if not self.values:
            return quantifier == "ALL"
        self._check(value)
        lo, hi = self._bounds()
        if quantifier == "ANY":
            if op == "=":
                return value in self.as_set()
            if op == "<>":
                members = self.as_set()
                return len(members) > 1 or value not in members
            if op == "<":
                return value < hi
            if op == "<=":
                return value <= hi
            if op == ">":
                return value > lo
            return value >= lo  # ">="
        # ALL
        if op == "=":
            return self.as_set() == {value}
        if op == "<>":
            return value not in self.as_set()
        if op == "<":
            return value < lo
        if op == "<=":
            return value <= lo
        if op == ">":
            return value > hi
        return value >= hi  # ">="


def _family(value: Value) -> str:
    return "num" if isinstance(value, (int, float)) else "str"


# ---------------------------------------------------------------------- #
# plan interpretation: generator pipelines over flat row tuples
# ---------------------------------------------------------------------- #


def _eval_expr(expr: ScalarExpr, row: tuple, params: tuple) -> Value:
    if type(expr) is Col:
        return row[expr.slot]
    if type(expr) is Const:
        return expr.value
    return params[expr.index]


def _eval_pred(pred, row: tuple, params: tuple, context: ExecutionContext) -> bool:
    if type(pred) is CompiledComparison:
        return compare(
            _eval_expr(pred.left, row, params),
            pred.op,
            _eval_expr(pred.right, row, params),
        )
    return _eval_subquery_pred(pred, row, params, context)


def _eval_subquery_pred(
    pred: SubqueryPred, row: tuple, params: tuple, context: ExecutionContext
) -> bool:
    actual = tuple(_eval_expr(e, row, params) for e in pred.param_exprs)
    if pred.kind == "exists":
        found = context.subquery_exists(pred.plan, actual)
        return not found if pred.negated else found
    value = _eval_expr(pred.value_expr, row, params)
    values = context.subquery_values(pred.plan, actual)
    if pred.kind == "in":
        found = values.contains(value)
        return not found if pred.negated else found
    holds = values.quantified(value, pred.op, pred.quantifier)
    return not holds if pred.negated else holds


def _prechecks_pass(
    plan: BlockPlan, context: ExecutionContext, params: tuple
) -> bool:
    return all(_eval_pred(p, (), params, context) for p in plan.prechecks)


def _iter_node(
    node: PlanNode, context: ExecutionContext, params: tuple
) -> Iterator[tuple]:
    handler = _NODE_HANDLERS.get(type(node))
    if handler is None:
        raise EngineError(f"unsupported plan node: {type(node).__name__}")
    return handler(node, context, params)


def _iter_scan(node: Scan, context: ExecutionContext, params: tuple) -> Iterator[tuple]:
    yield from context.scan_rows(context.database.relation(node.table))


def _iter_filter(
    node: Filter, context: ExecutionContext, params: tuple
) -> Iterator[tuple]:
    predicates = node.predicates
    for row in _iter_node(node.child, context, params):
        if all(_eval_pred(p, row, params, context) for p in predicates):
            yield row


def _iter_hash_join(
    node: HashJoin, context: ExecutionContext, params: tuple
) -> Iterator[tuple]:
    build: dict[tuple, list[tuple]] = {}
    key_families: list[set[str]] = [set() for _ in node.right_keys]
    for right_row in _iter_node(node.right, context, params):
        key = tuple(_eval_expr(e, right_row, params) for e in node.right_keys)
        for index, value in enumerate(key):
            key_families[index].add(_family(value))
        build.setdefault(key, []).append(right_row)
    if not build:
        return
    left_keys = node.left_keys
    for left_row in _iter_node(node.left, context, params):
        key = tuple(_eval_expr(e, left_row, params) for e in left_keys)
        for index, value in enumerate(key):
            families = key_families[index]
            # Mirror the naive executor: comparing a string column with a
            # numeric one is a type error, not an empty join.
            if len(families) > 1 or _family(value) not in families:
                raise TypeMismatchError(
                    f"cannot compare {type(value).__name__} with "
                    f"values of join key {node.right_keys[index]}"
                )
        matches = build.get(key)
        if matches:
            for right_row in matches:
                yield left_row + right_row


def _iter_nested_loop(
    node: NestedLoopJoin, context: ExecutionContext, params: tuple
) -> Iterator[tuple]:
    right_rows = list(_iter_node(node.right, context, params))
    if not right_rows:
        return
    predicates = node.predicates
    for left_row in _iter_node(node.left, context, params):
        for right_row in right_rows:
            row = left_row + right_row
            if all(_eval_pred(p, row, params, context) for p in predicates):
                yield row


def _iter_semi_join(
    node: SemiJoin, context: ExecutionContext, params: tuple
) -> Iterator[tuple]:
    # The subquery is uncorrelated with this block: its parameters depend
    # only on enclosing blocks, so the membership set is built exactly once.
    actual = tuple(_eval_expr(e, (), params) for e in node.param_exprs)
    values = context.subquery_values(node.plan, actual)
    anti = type(node) is AntiJoin
    probe = node.probe
    for row in _iter_node(node.child, context, params):
        if values.contains(_eval_expr(probe, row, params)) != anti:
            yield row


def _iter_project(
    node: Project, context: ExecutionContext, params: tuple
) -> Iterator[tuple]:
    exprs = node.exprs
    for row in _iter_node(node.child, context, params):
        yield tuple(_eval_expr(e, row, params) for e in exprs)


def _iter_distinct(
    node: Distinct, context: ExecutionContext, params: tuple
) -> Iterator[tuple]:
    seen: set[tuple] = set()
    for row in _iter_node(node.child, context, params):
        if row not in seen:
            seen.add(row)
            yield row


def _iter_aggregate(
    node: Aggregate, context: ExecutionContext, params: tuple
) -> Iterator[tuple]:
    groups: dict[tuple, list[tuple]] = {}
    order: list[tuple] = []
    for row in _iter_node(node.child, context, params):
        key = tuple(_eval_expr(e, row, params) for e in node.group_exprs)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [row]
            order.append(key)
        else:
            bucket.append(row)
    for key in order:
        rows = groups[key]
        out: list[Value] = []
        for item in node.items:
            if item[0] == "col":
                out.append(_eval_expr(item[1], rows[0], params))
            else:
                _, func, expr = item
                if expr is None:
                    out.append(apply_aggregate("COUNT", [1] * len(rows)))
                else:
                    out.append(
                        apply_aggregate(func, [_eval_expr(expr, r, params) for r in rows])
                    )
        yield tuple(out)


class _ReverseRanked:
    """Heap entry whose ordering is reversed, turning heapq into a max-heap.

    ``heap[0]`` is then the *worst* of the resident top-k rows — exactly the
    row a strictly better candidate should evict.
    """

    __slots__ = ("key", "row")

    def __init__(self, key: OrderKey, row: tuple) -> None:
        self.key = key
        self.row = row

    def __lt__(self, other: "_ReverseRanked") -> bool:
        return other.key < self.key


def _topk_distinct_heap(
    rows: Iterator[tuple], sort_key, cutoff: int, stats: ExecutionStats
) -> list[tuple]:
    """Top ``cutoff`` *distinct* rows holding at most ``cutoff`` resident.

    Duplicates of resident rows are skipped via the ``members`` set; a
    non-resident row evicts the current worst only when strictly better.
    An evicted row's duplicates can never re-enter: the heap's worst key
    only ever improves, and equal keys do not evict — so a duplicate of an
    evicted row always compares >= the current worst and is skipped.  Rows
    tied at the boundary are chosen arbitrarily, which only ever truncates
    the final tie group of the output (the contract a LIMIT implies).
    """
    heap: list[_ReverseRanked] = []
    members: set[tuple] = set()
    for row in rows:
        if row in members:
            continue
        key = sort_key(row)
        if len(heap) < cutoff:
            heapq.heappush(heap, _ReverseRanked(key, row))
            members.add(row)
        elif key < heap[0].key:
            members.discard(heap[0].row)
            heapq.heapreplace(heap, _ReverseRanked(key, row))
            members.add(row)
    stats.topk_held_rows = max(stats.topk_held_rows, len(heap))
    return [entry.row for entry in sorted(heap, key=lambda entry: entry.key)]


def _iter_topk(
    node: TopK, context: ExecutionContext, params: tuple
) -> Iterator[tuple]:
    """Ranked output without materializing beyond the cutoff.

    Three shapes, cheapest first:

    * **key-less LIMIT** — a lazy ``islice`` over the child generator; the
      pipeline stops pulling rows the moment the slice is satisfied, so a
      ``LIMIT 10`` over a huge join does bounded work end to end;
    * **heap strategy** — a bounded heap keyed by
      :class:`~.values.OrderKey`: the whole child is consumed (ordering
      needs every candidate) but at most ``limit + offset`` rows are ever
      resident;
    * **sort strategy** — full sort then slice, chosen by the planner when
      the cutoff would swallow most of the estimated input anyway (or when
      there is no LIMIT at all).

    When the planner fused a Distinct into the node (``node.distinct``),
    the key-less path dedups lazily (the seen-set is bounded by the
    cutoff thanks to islice's early exit), the heap path runs the bounded
    distinct heap of :func:`_topk_distinct_heap`, and the sort path dedups
    before sorting.
    """
    stats = context.stats
    child = _iter_node(node.child, context, params)

    def counted(rows: Iterator[tuple]) -> Iterator[tuple]:
        for row in rows:
            stats.topk_input_rows += 1
            yield row

    def deduped(rows: Iterator[tuple]) -> Iterator[tuple]:
        seen: set[tuple] = set()
        for row in rows:
            if row not in seen:
                seen.add(row)
                yield row

    limit, offset = node.limit, node.offset
    if not node.keys:
        if limit is None:  # pragma: no cover - planner never emits this
            yield from counted(child)
            return
        # Early exit: islice stops advancing the child once exhausted, so
        # upstream operators never produce rows beyond the cutoff.
        source = counted(child)
        if node.distinct:
            source = deduped(source)
        yield from islice(source, offset, offset + limit)
        return

    descending = node.descending
    keys = node.keys

    def sort_key(row: tuple) -> OrderKey:
        return OrderKey(
            tuple(_eval_expr(key, row, params) for key in keys), descending
        )

    if limit is not None and node.strategy == "heap":
        cutoff = limit + offset
        if node.distinct:
            top = _topk_distinct_heap(counted(child), sort_key, cutoff, stats)
        else:
            top = heapq.nsmallest(cutoff, counted(child), key=sort_key)
            stats.topk_held_rows = max(stats.topk_held_rows, len(top))
        yield from top[offset:]
        return
    source = counted(child)
    if node.distinct:
        source = deduped(source)
    rows = sorted(source, key=sort_key)
    stats.topk_held_rows = max(stats.topk_held_rows, len(rows))
    if limit is not None:
        yield from rows[offset : offset + limit]
    elif offset:  # pragma: no cover - parser requires LIMIT before OFFSET
        yield from rows[offset:]
    else:
        yield from rows


_NODE_HANDLERS = {
    Scan: _iter_scan,
    Filter: _iter_filter,
    HashJoin: _iter_hash_join,
    NestedLoopJoin: _iter_nested_loop,
    SemiJoin: _iter_semi_join,
    AntiJoin: _iter_semi_join,
    Project: _iter_project,
    Distinct: _iter_distinct,
    Aggregate: _iter_aggregate,
    TopK: _iter_topk,
}


def run_block(
    plan: BlockPlan, context: ExecutionContext, params: tuple = ()
) -> ResultSet:
    """Execute a compiled block plan and materialize its result set."""
    if not _prechecks_pass(plan, context, params):
        return ResultSet(columns=plan.columns, rows=())
    rows = tuple(_iter_node(plan.root, context, params))
    return ResultSet(columns=plan.columns, rows=rows)


# ---------------------------------------------------------------------- #
# naive reference execution (the differential-testing oracle)
# ---------------------------------------------------------------------- #


class _Scope:
    """One query block's bindings: alias (lower-cased) -> (relation, row)."""

    def __init__(self) -> None:
        self.bindings: dict[str, tuple[Relation, Row]] = {}

    def bind(self, alias: str, relation: Relation, row: Row) -> None:
        self.bindings[alias.lower()] = (relation, row)


class _Environment:
    """A stack of scopes, innermost last, used to resolve column references."""

    def __init__(self, scopes: Sequence[_Scope] = ()) -> None:
        self._scopes = list(scopes)

    def child(self, scope: _Scope) -> "_Environment":
        return _Environment([*self._scopes, scope])

    def resolve(self, column: ColumnRef) -> Value:
        if column.table is not None:
            return self._resolve_qualified(column)
        return self._resolve_unqualified(column)

    def _resolve_qualified(self, column: ColumnRef) -> Value:
        alias = column.table.lower()
        for scope in reversed(self._scopes):
            binding = scope.bindings.get(alias)
            if binding is None:
                continue
            relation, row = binding
            key = _match_column(relation, column.column)
            if key is None:
                raise UnknownColumnError(
                    f"table {column.table} has no column {column.column!r}"
                )
            return row[key]
        raise UnknownColumnError(f"unknown table alias {column.table!r}")

    def _resolve_unqualified(self, column: ColumnRef) -> Value:
        for scope in reversed(self._scopes):
            matches = []
            for relation, row in scope.bindings.values():
                key = _match_column(relation, column.column)
                if key is not None:
                    matches.append(row[key])
            if len(matches) > 1:
                raise AmbiguousColumnError(
                    f"column {column.column!r} is ambiguous in this scope"
                )
            if matches:
                return matches[0]
        raise UnknownColumnError(f"unknown column {column.column!r}")


class Executor:
    """Evaluates queries of the supported fragment against a database.

    ``mode`` selects the evaluation strategy — dispatched through the
    backend registry (:mod:`repro.relational.backends`), so any registered
    engine is reachable here without this facade naming it; ``context``
    lets callers share plan/subquery caches across executors (see
    :class:`ExecutionContext`).

    ``fallback=True`` wraps the engine in a breaker-guarded
    :class:`~.backends.FallbackBackend`: recoverable engine failures
    (IO faults, sqlite operational errors, injected chaos) re-execute on
    the PLANNED rows engine instead of raising, counted in
    ``context.stats.fallbacks``.  Off by default — differential suites
    need engines that fail loudly (see ``docs/robustness.md``).
    """

    def __init__(
        self,
        database: Database,
        mode: ExecutionMode = ExecutionMode.PLANNED,
        context: ExecutionContext | None = None,
        fallback: bool = False,
    ) -> None:
        self._db = database
        self._mode = mode
        self._context = context if context is not None else ExecutionContext(database)
        self._backend: ExecutionBackend | None = (
            with_fallback(mode) if fallback else None
        )

    @property
    def mode(self) -> ExecutionMode:
        return self._mode

    @property
    def context(self) -> ExecutionContext:
        return self._context

    def execute(self, query: SelectQuery) -> ResultSet:
        """Execute ``query`` and return its result set."""
        backend = self._backend if self._backend is not None else backend_for(self._mode)
        return backend.execute(query, self._context)

    def explain(self, query: SelectQuery) -> str:
        """EXPLAIN-style rendering of the plan the query would execute.

        Backends may append engine-specific detail — the SQL backend adds
        the generated SQL text and its bound parameters.
        """
        return backend_for(self._mode).explain(query, self._context)


class _NaiveInterpreter:
    """The nested-loop reference semantics (the differential oracle)."""

    def __init__(self, database: Database) -> None:
        self._db = database

    def execute(self, query: SelectQuery) -> ResultSet:
        return self._ranked(query, self._project_block(query, _Environment()))

    # ------------------------------------------------------------------ #
    # block evaluation
    # ------------------------------------------------------------------ #

    def _execute_block(self, query: SelectQuery, outer: _Environment) -> ResultSet:
        # Nested blocks feed predicates; ranking them is meaningless under
        # set semantics, and the planner rejects it too — the oracle must
        # agree on what is an error, not only on what results are.
        if query.order_by or query.limit is not None:
            raise EngineError(
                "nested query blocks may not use ORDER BY or LIMIT"
            )
        return self._project_block(query, outer)

    def _project_block(self, query: SelectQuery, outer: _Environment) -> ResultSet:
        matches = list(self._matching_environments(query, outer))
        if query.has_aggregates or query.group_by:
            return self._project_grouped(query, matches)
        return self._project_plain(query, matches)

    def _ranked(self, query: SelectQuery, result: ResultSet) -> ResultSet:
        """ORDER BY / LIMIT reference semantics: one full sort, then slice.

        Deliberately naive — no heap, no partial selection — so the
        differential suite checks the optimized engines against the
        simplest possible implementation of the same contract.
        """
        if not query.order_by and query.limit is None:
            return result
        rows = list(result.rows)
        if query.order_by:
            relations = [
                self._db.relation(table.name) for table in query.from_tables
            ]
            descending = tuple(item.descending for item in query.order_by)
            positions = []
            for item in query.order_by:
                position = order_key_position(item.column, query, relations)
                if position is None:
                    raise EngineError(
                        f"ORDER BY column {item.column} must appear in the "
                        "SELECT list"
                    )
                positions.append(position)
            rows.sort(
                key=lambda row: OrderKey(
                    tuple(row[p] for p in positions), descending
                )
            )
        if query.limit is not None:
            rows = rows[query.offset : query.offset + query.limit]
        return ResultSet(columns=result.columns, rows=tuple(rows))

    def _matching_environments(
        self, query: SelectQuery, outer: _Environment
    ) -> Iterator[_Environment]:
        """Enumerate bindings of the FROM tables that satisfy the WHERE clause.

        The join is a nested loop, but comparison predicates are evaluated as
        soon as every table they reference is bound ("predicate pushdown").
        Without this, the 10-table conjunctive queries of the user study
        (e.g. Q3) would enumerate the full cartesian product.  Subquery
        predicates are evaluated once the whole block is bound.
        """
        relations = [self._db.relation(table.name) for table in query.from_tables]
        aliases = [table.effective_alias for table in query.from_tables]
        local_aliases = {alias.lower() for alias in aliases}
        comparisons = [p for p in query.where if isinstance(p, Comparison)]
        subqueries = [p for p in query.where if not isinstance(p, Comparison)]
        staged: list[list[Comparison]] = [[] for _ in aliases]
        prechecks: list[Comparison] = []
        for predicate in comparisons:
            position = self._pushdown_position(predicate, aliases, local_aliases)
            if position is None:
                prechecks.append(predicate)
            else:
                staged[position].append(predicate)

        if not all(self._evaluate_predicate(p, outer) for p in prechecks):
            return

        def extend(index: int, env: _Environment) -> Iterator[_Environment]:
            if index == len(relations):
                if all(self._evaluate_predicate(p, env) for p in subqueries):
                    yield env
                return
            relation = relations[index]
            alias = aliases[index]
            for row in relation.rows:
                scope = _Scope()
                scope.bind(alias, relation, row)
                candidate = env.child(scope)
                if all(self._evaluate_predicate(p, candidate) for p in staged[index]):
                    yield from extend(index + 1, candidate)

        yield from extend(0, outer)

    @staticmethod
    def _pushdown_position(
        predicate: Comparison, aliases: list[str], local_aliases: set[str]
    ) -> int | None:
        """Earliest FROM position after which ``predicate`` can be evaluated.

        Returns ``None`` when the predicate only references outer tables (it
        can be checked before binding anything locally).  Unqualified column
        references are conservatively deferred to the last position.
        """
        last_required = None
        for operand in (predicate.left, predicate.right):
            if not isinstance(operand, ColumnRef):
                continue
            if operand.table is None:
                return len(aliases) - 1
            lowered = operand.table.lower()
            if lowered not in local_aliases:
                continue
            position = next(
                index for index, alias in enumerate(aliases) if alias.lower() == lowered
            )
            last_required = position if last_required is None else max(last_required, position)
        return last_required

    # ------------------------------------------------------------------ #
    # predicates
    # ------------------------------------------------------------------ #

    def _evaluate_predicate(self, predicate: Predicate, env: _Environment) -> bool:
        if isinstance(predicate, Comparison):
            left = self._operand_value(predicate.left, env)
            right = self._operand_value(predicate.right, env)
            return compare(left, predicate.op, right)
        if isinstance(predicate, Exists):
            result = self._execute_block(predicate.query, env)
            found = len(result) > 0
            return not found if predicate.negated else found
        if isinstance(predicate, InSubquery):
            value = env.resolve(predicate.column)
            members = self._single_column_values(predicate.query, env)
            found = any(compare(value, "=", member) for member in members)
            return not found if predicate.negated else found
        if isinstance(predicate, QuantifiedComparison):
            value = env.resolve(predicate.column)
            members = self._single_column_values(predicate.query, env)
            if predicate.quantifier == "ANY":
                holds = any(compare(value, predicate.op, m) for m in members)
            else:  # ALL
                holds = all(compare(value, predicate.op, m) for m in members)
            return not holds if predicate.negated else holds
        raise EngineError(f"unsupported predicate type: {type(predicate).__name__}")

    def _single_column_values(
        self, query: SelectQuery, env: _Environment
    ) -> list[Value]:
        result = self._execute_block(query, env)
        if len(result.columns) != 1:
            raise EngineError(
                "IN / ANY / ALL subqueries must return exactly one column, "
                f"got {len(result.columns)}"
            )
        return [row[0] for row in result.rows]

    def _operand_value(self, operand: ColumnRef | Literal, env: _Environment) -> Value:
        if isinstance(operand, Literal):
            return operand.value
        return env.resolve(operand)

    # ------------------------------------------------------------------ #
    # projection
    # ------------------------------------------------------------------ #

    def _project_plain(
        self, query: SelectQuery, matches: list[_Environment]
    ) -> ResultSet:
        columns = self._result_columns(query)
        seen: set[tuple[Value, ...]] = set()
        rows: list[tuple[Value, ...]] = []
        for env in matches:
            row = self._project_row(query, env)
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return ResultSet(columns=columns, rows=tuple(rows))

    def _project_row(self, query: SelectQuery, env: _Environment) -> tuple[Value, ...]:
        if query.is_select_star:
            values: list[Value] = []
            # SELECT * projects all columns of the block's own tables, in
            # FROM-clause order.  The block's tables occupy the innermost
            # scopes (one scope per table).  Only used by EXISTS subqueries.
            own_scopes = env._scopes[-len(query.from_tables) :]  # noqa: SLF001
            for scope in own_scopes:
                for relation, row in scope.bindings.values():
                    values.extend(row[column] for column in relation.columns)
            return tuple(values)
        values = []
        for item in query.select_items:
            if isinstance(item, ColumnRef):
                values.append(env.resolve(item))
            else:
                raise EngineError(
                    "aggregate select items require GROUP BY handling"
                )
        return tuple(values)

    def _project_grouped(
        self, query: SelectQuery, matches: list[_Environment]
    ) -> ResultSet:
        columns = self._result_columns(query)
        groups: dict[tuple[Value, ...], list[_Environment]] = {}
        order: list[tuple[Value, ...]] = []
        for env in matches:
            key = tuple(env.resolve(column) for column in query.group_by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(env)
        rows: list[tuple[Value, ...]] = []
        for key in order:
            group_envs = groups[key]
            row: list[Value] = []
            for item in query.select_items:
                if isinstance(item, ColumnRef):
                    if item not in query.group_by and not matches_group_key(
                        item, query
                    ):
                        raise EngineError(
                            f"column {item} must appear in GROUP BY to be selected"
                        )
                    row.append(group_envs[0].resolve(item))
                elif isinstance(item, AggregateCall):
                    row.append(self._aggregate_value(item, group_envs))
                else:
                    raise EngineError("SELECT * cannot be combined with GROUP BY")
            rows.append(tuple(row))
        return ResultSet(columns=columns, rows=tuple(rows))

    def _aggregate_value(
        self, item: AggregateCall, group_envs: list[_Environment]
    ) -> Value:
        if isinstance(item.argument, Star):
            return apply_aggregate("COUNT", [1] * len(group_envs))
        values = [env.resolve(item.argument) for env in group_envs]
        return apply_aggregate(item.func, values)

    def _result_columns(self, query: SelectQuery) -> tuple[str, ...]:
        return result_columns(
            query, [self._db.relation(table.name) for table in query.from_tables]
        )


# ---------------------------------------------------------------------- #
# backend registrations — the oracle and the row pipeline live here;
# COLUMNAR and SQL register themselves from their own modules.
# ---------------------------------------------------------------------- #


class _NaiveBackend(ExecutionBackend):
    """``NAIVE``: nested loops over the AST with runtime scoping.

    Deliberately bypasses every context cache (plans, scans, subqueries) —
    the oracle must stay independent of the machinery it checks.
    """

    mode = ExecutionMode.NAIVE

    def execute(self, query: SelectQuery, context: ExecutionContext) -> ResultSet:
        return _NaiveInterpreter(context.database).execute(query)


class _PlannedRowBackend(ExecutionBackend):
    """``PLANNED``: compiled plans interpreted tuple-at-a-time."""

    mode = ExecutionMode.PLANNED

    def execute(self, query: SelectQuery, context: ExecutionContext) -> ResultSet:
        # The rows engine is the fallback of last resort — its fault point
        # exists so chaos tests can prove that when *every* engine dies the
        # failure propagates instead of looping.
        fault_point("engine.planned.execute")
        context.refresh()
        return run_block(context.plan(query), context)


register_backend(_NaiveBackend())
register_backend(_PlannedRowBackend())


def execute(
    query: SelectQuery,
    database: Database,
    mode: ExecutionMode = ExecutionMode.PLANNED,
) -> ResultSet:
    """Convenience wrapper around :class:`Executor`."""
    return Executor(database, mode=mode).execute(query)
