"""Seeded input generation; nothing here is timed."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from repro.catalog import (
    actors_schema,
    beers_fig3_schema,
    beers_schema,
    chinook_schema,
    sailors_schema,
    students_schema,
)
from repro.paper_queries import (
    FIG24_VARIANTS,
    PATTERN_SCHEMAS,
    Q_ONLY_SQL,
    Q_SOME_SQL,
    UNIQUE_SET_SQL,
    pattern_query,
)
from repro.sql import format_query
from repro.sql.ast import Exists, SelectQuery
from repro.workloads import (
    QueryGenConfig,
    QueryGenerator,
    beers_database,
    chinook_database,
    sailors_database,
)

#: Schemas the generated corpora draw from.
CORPUS_SCHEMAS = {
    "sailors": sailors_schema,
    "beers": beers_schema,
    "chinook": chinook_schema,
}

#: Every table name of every built-in schema: the output checks look for
#: the names a query's text mentions, independently of the compiler.
TABLE_NAMES = sorted({
    table.name
    for make in (sailors_schema, beers_schema, beers_fig3_schema, chinook_schema,
                 students_schema, actors_schema)
    for table in make()
})
_TABLE_PATTERN = re.compile(r"\b(" + "|".join(TABLE_NAMES) + r")\b")


def tables_named(sql: str) -> frozenset[str]:
    """Catalog table names that occur as words in ``sql``."""
    return frozenset(_TABLE_PATTERN.findall(sql))


@dataclass(frozen=True)
class Query:
    """One corpus entry: SQL text plus what the checks need to know."""

    sql: str
    kind: str  # "gen", "paper", "fig24" or "wide:<dimension>:<n>"
    schema: str = ""
    #: Generated AST (querygen corpora only), used to pick the semantic sample.
    ast: SelectQuery | None = None


def generator_config(max_depth: int, max_tables: int) -> QueryGenConfig:
    return QueryGenConfig(
        max_depth=max_depth,
        max_tables_per_block=max_tables,
        order_by_probability=0.2,
        limit_probability=0.15,
    )


def querygen_corpus(seed: int, count: int, max_depth: int = 4,
                    max_tables: int = 3) -> list[Query]:
    """``count`` distinct generated queries, round-robin over the schemas."""
    rng = random.Random(seed)
    generators = [
        (name, QueryGenerator(make(), generator_config(max_depth, max_tables)))
        for name, make in CORPUS_SCHEMAS.items()
    ]
    seen: set[str] = set()
    corpus: list[Query] = []
    index = 0
    while len(corpus) < count:
        name, generator = generators[index % len(generators)]
        index += 1
        ast = generator.generate(rng.getrandbits(48))
        sql = format_query(ast)
        if sql not in seen:
            seen.add(sql)
            corpus.append(Query(sql=sql, kind="gen", schema=name, ast=ast))
    return corpus


def paper_queries() -> list[Query]:
    """The paper's running examples; the Fig. 24 trio is marked ``fig24``."""
    queries = [
        Query(sql=UNIQUE_SET_SQL, kind="paper"),
        Query(sql=Q_SOME_SQL, kind="paper"),
        Query(sql=Q_ONLY_SQL, kind="paper"),
    ]
    queries += [Query(sql=sql, kind="fig24") for sql in FIG24_VARIANTS]
    queries += [
        Query(sql=pattern_query(kind, schema), kind="paper")
        for kind in ("no", "only", "all")
        for schema in PATTERN_SCHEMAS
    ]
    return queries


# --------------------------------------------------------------------------- #
# the wide stratum: pairs of queries at size n and 4n
# --------------------------------------------------------------------------- #

WIDE_SIZES = {"conjuncts": (250, 1000), "tables": (25, 100), "depth": (10, 40)}


def _wide_conjuncts(n: int, offset: int) -> str:
    predicates = ["S.sid = R.sid", "R.bid = B.bid"]
    predicates += [f"S.rating <> {offset + i}" for i in range(n - 2)]
    return ("SELECT S.sname FROM Sailor S, Reserves R, Boat B WHERE "
            + " AND ".join(predicates))


def _wide_tables(n: int, offset: int) -> str:
    # A join chain Sailor–Reserves–Boat–Sailor–…; Boat and Sailor join on names.
    kinds = ("Sailor", "Reserves", "Boat")
    aliases = [f"{kinds[i % 3][0]}{i}" for i in range(n)]
    froms = [f"{kinds[i % 3]} {aliases[i]}" for i in range(n)]
    predicates = []
    for i in range(1, n):
        left, right = aliases[i - 1], aliases[i]
        if left[0] == "S":
            predicates.append(f"{left}.sid = {right}.sid")
        elif left[0] == "R":
            predicates.append(f"{left}.bid = {right}.bid")
        else:
            predicates.append(f"{left}.bname = {right}.sname")
    predicates.append(f"S0.rating > {offset}")
    return ("SELECT S0.sname FROM " + ", ".join(froms) + " WHERE "
            + " AND ".join(predicates))


def _wide_depth(n: int, offset: int) -> str:
    sql = "SELECT S0.sname FROM Sailor S0 WHERE "
    for i in range(1, n + 1):
        sql += (f"NOT EXISTS (SELECT * FROM Sailor S{i} "
                f"WHERE S{i}.rating > S{i - 1}.rating AND ")
    return sql + f"S{n}.age > {offset}" + ")" * n


def wide_queries(seed: int) -> list[Query]:
    """The wide stratum, smallest first within each dimension."""
    offset = random.Random(seed).randint(1, 9)
    makers = {"conjuncts": _wide_conjuncts, "tables": _wide_tables,
              "depth": _wide_depth}
    return [
        Query(sql=makers[dimension](n, offset), kind=f"wide:{dimension}:{n}")
        for dimension, sizes in WIDE_SIZES.items()
        for n in sizes
    ]


# --------------------------------------------------------------------------- #
# the semantic sample: small databases and which queries they can evaluate
# --------------------------------------------------------------------------- #


def small_databases() -> dict:
    """Tiny databases per corpus schema, for the recovered-tree check."""
    return {
        "sailors": sailors_database(n_sailors=4, n_boats=3, n_reservations=6),
        "beers": beers_database(n_drinkers=3, n_beers=3, n_bars=3),
        "chinook": chinook_database(n_artists=2, n_albums=3, n_tracks=4,
                                    n_customers=2, n_invoices=3),
    }


def _depth(query: SelectQuery) -> int:
    nested = [p.query for p in query.where if isinstance(p, Exists)]
    return 1 + max(map(_depth, nested)) if nested else 0


def _tables(query: SelectQuery) -> int:
    nested = [p.query for p in query.where if isinstance(p, Exists)]
    return len(query.from_tables) + sum(_tables(child) for child in nested)


def semantic_candidate(query: Query) -> bool:
    """Depth ≤ 3, no LIMIT (an arbitrary k-subset) and small enough to evaluate."""
    ast = query.ast
    return (
        ast is not None
        and ast.limit is None
        and _depth(ast) <= 3
        and _tables(ast) <= 5
    )
