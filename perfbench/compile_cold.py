"""``compile-cold``: one caller compiles distinct SQL texts in-process.

A fresh :class:`DiagramCompiler` without a disk cache sees every text for
the first time, so every stage misses: this is the compile-bound floor.
One compiler serves a slice of ``SLICE`` queries and is then replaced, so
its caches, and the process's memory, stay bounded.  Serving, relational
and disk-cache code is bypassed.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import xml.etree.ElementTree as ET

from repro.diagram import (
    build_diagram,
    ensure_unique_aliases,
    flatten_existential_blocks,
    recover_logic_tree,
)
from repro.logic import evaluate_logic_tree, simplify_logic_tree, sql_to_logic_tree
from repro.pipeline import DiagramCompiler, fingerprint_and_roles
from repro.relational import execute
from repro.render import diagram_to_dot, diagram_to_svg, diagram_to_text
from repro.render.layout import DEFAULT_LAYOUT_CONFIG, layout_diagram
from repro.sql.lexer import scan
from repro.sql.parser import Parser

from .common import Latencies, Result, Tracer, clock, median, peak_rss_mb
from .inputs import (
    Query,
    paper_queries,
    querygen_corpus,
    semantic_candidate,
    small_databases,
    tables_named,
    wide_queries,
)

FORMATS = ("svg", "dot", "text")
#: Queries per compiler; the run cycles over the corpus in slices this long.
SLICE = 1000
#: Distinct texts in the corpus (the run wraps around with fresh compilers).
CORPUS = 3000
#: ``setup_s`` times a block of this many compiler constructions (one
#: takes microseconds) once per ``SETUP_EVERY`` compiles, outside the timed
#: calls, and reports the median block's time per construction.  Spread
#: over the run, the blocks see the machine's fast and slow stretches alike.
SETUP_BLOCK = 1000
SETUP_EVERY = 250
#: One in this many semantic candidates is checked against a small database.
SEMANTIC_EVERY = 10
#: The traced run collects garbage between texts, once per this many.
GC_EVERY = 100
#: The rebuild check's noise floor, as a share of the bare chain's time:
#: the stage spans leave out the release of each text's objects, which
#: happens after the last span ends.
REBUILD_NOISE = 0.05


def build_corpus(seed: int) -> list[Query]:
    """Paper queries first, then generated ones, with one wide query per
    ``SLICE // 2`` positions so every compiler slice holds one wide pair."""
    fixed = paper_queries()
    wide = wide_queries(seed)
    generated = querygen_corpus(seed, CORPUS - len(fixed) - len(wide))
    corpus = fixed + generated
    spacing = SLICE // 2
    for index, query in enumerate(wide):
        corpus.insert(index * spacing + spacing // 2, query)
    return corpus


class OutputChecker:
    """Checks each compiled artifact against references made without it."""

    def __init__(self, seed: int) -> None:
        self.databases = small_databases()
        self._rng = random.Random(seed ^ 0x5EED)
        self.fig24: set[str] = set()
        self.semantic_checked = 0

    def check(self, query: Query, artifact, result: Result) -> None:
        svg = artifact.outputs.get("svg", "")
        try:
            root = ET.fromstring(svg)
        except ET.ParseError as error:
            result.fail(True, f"SVG is not well-formed XML ({error}): {query.sql[:60]!r}")
            return
        texts = " ".join(node.text for node in root.iter() if node.text)
        missing = [name for name in tables_named(query.sql) if name not in texts]
        if missing:
            result.fail(True, f"SVG does not name {missing}: {query.sql[:60]!r}")
            return
        if not all(artifact.outputs.get(fmt) for fmt in FORMATS):
            result.fail(True, f"empty output: {query.sql[:60]!r}")
            return
        if query.kind == "fig24":
            self.fig24.add(artifact.fingerprint)
        if (semantic_candidate(query)
                and self._rng.randrange(SEMANTIC_EVERY) == 0
                and not self._semantics_hold(query, artifact)):
            result.fail(True, f"recovered tree disagrees with SQL: {query.sql[:60]!r}")

    def _semantics_hold(self, query: Query, artifact) -> bool:
        """The tree recovered from the unsimplified diagram evaluates to the
        rows the relational engine gives for the SQL."""
        self.semantic_checked += 1
        database = self.databases[query.schema]
        expected = execute(query.ast, database).as_set()
        try:
            prepared = flatten_existential_blocks(ensure_unique_aliases(artifact.logic_tree))
            recovered = recover_logic_tree(build_diagram(prepared))
            return evaluate_logic_tree(recovered, database).as_set() == expected
        except Exception:  # noqa: BLE001 — an unrecoverable diagram is a wrong output
            return False


def run(seed: int, seconds: float, trace: bool, corrupt: bool) -> Result:
    corpus = build_corpus(seed)
    # The corpus is the benchmark's, not the program's: keep the collector
    # from scanning it, so that collections cost what the compiler's own
    # objects make them cost.
    gc.collect()
    gc.freeze()
    if trace:
        return run_traced(corpus, seconds)
    result = Result()
    checker = OutputChecker(seed)
    setup: list[float] = []

    def time_setup() -> None:
        start = clock()
        for _ in range(SETUP_BLOCK):
            DiagramCompiler()
        setup.append((clock() - start) / SETUP_BLOCK)

    latencies: list[float] = []
    #: Per compiler slice: its latencies (the last slice may be partial).
    slices: list[list[float]] = []
    busy = 0.0
    index = 0
    compiler = None
    while busy < seconds:
        if index % SETUP_EVERY == 0:
            time_setup()
        if index % SLICE == 0:
            compiler = DiagramCompiler()
            slices.append([])
        query = corpus[index % len(corpus)]
        index += 1
        result.attempted += 1
        start = clock()
        try:
            artifact = compiler.compile(query.sql, formats=FORMATS)
        except Exception as error:  # noqa: BLE001 — counted, not fatal
            result.fail(False, f"{type(error).__name__}: {error}")
            continue
        elapsed = clock() - start
        busy += elapsed
        latencies.append(elapsed)
        slices[-1].append(elapsed)
        if corrupt and index == 1:
            artifact = _corrupted(artifact)
        checker.check(query, artifact, result)

    result.checks["fig24 trio shares one fingerprint"] = len(checker.fig24) == 1
    result.checks["semantic sample checked"] = checker.semantic_checked > 0
    stats = Latencies.of(latencies)
    # The run's top 0.2% mixes the wide stratum with collector pauses, so
    # its value depends on how a run's few largest events fall.  Each
    # compiler slice has the same composition; its tail, taken per slice
    # and reported as the median over whole slices, repeats from run to run.
    whole = [Latencies.of(part) for part in slices if len(part) == SLICE] or [stats]
    ops = len(latencies) / busy
    result.metric("setup_s", median(setup), "s")
    result.metric("ops_per_s", ops, "ops/s")
    result.metric("latency_p50_ms", stats.p50_ms, "ms")
    result.metric("latency_tail_ms", median([part.tail_ms for part in whole]), "ms")
    result.metric("max_rate_rps", ops, "req/s")
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    result.notes.append(
        f"latency_tail_ms is the median over {len(whole)} compiler slices of each "
        f"slice's p{whole[0].tail_p:g} ({whole[0].count} samples per slice); the "
        f"whole run's p{stats.tail_p:g} of {stats.count} samples is {stats.tail_ms:.2f} ms"
    )
    result.notes.append("max_rate_rps: one closed-loop caller, so it equals ops_per_s")
    result.notes.append(
        f"{result.attempted} compiles over {busy:.2f} s busy, "
        f"{checker.semantic_checked} checked against a small database"
    )
    return result


def _corrupted(artifact):
    outputs = dict(artifact.outputs)
    outputs["svg"] = outputs["svg"][: len(outputs["svg"]) // 2]
    return dataclasses.replace(artifact, outputs=outputs)


# --------------------------------------------------------------------------- #
# traced run
# --------------------------------------------------------------------------- #

STAGES = (
    "sql.lex", "sql.parse", "logic.translate", "logic.simplify",
    "pipeline.fingerprint", "diagram.build", "render.layout",
    "render.svg", "render.dot", "render.text",
)


RENDERERS = (("svg", "render.svg", diagram_to_svg), ("dot", "render.dot", diagram_to_dot),
             ("text", "render.text", diagram_to_text))


def stage_chain(text: str, tracer: Tracer | None = None, request: int = -1,
                formats: tuple[str, ...] = FORMATS) -> int:
    """The compiler's stages called directly, in pipeline order.

    With a tracer, a root span ``compile`` holds one child span per stage;
    returns the number of tokens lexed.
    """
    text = text.strip()
    root = tracer.add("compile", 0.0, 0.0, -1, request) if tracer else -1
    marks = [clock()]
    stream = scan(text)
    marks.append(clock())
    ast = Parser(stream).parse_query()
    marks.append(clock())
    tree = sql_to_logic_tree(ast)
    marks.append(clock())
    simplified = simplify_logic_tree(tree)
    marks.append(clock())
    fingerprint_and_roles(simplified)
    marks.append(clock())
    diagram = build_diagram(simplified, None)
    marks.append(clock())
    layout = layout_diagram(diagram, DEFAULT_LAYOUT_CONFIG)
    marks.append(clock())
    names = list(STAGES[:7])
    for fmt, name, render in RENDERERS:
        if fmt in formats:
            render(diagram, layout=layout)
            marks.append(clock())
            names.append(name)
    if tracer:
        tracer.spans[root] = ("compile", marks[0], marks[-1], -1, request)
        for name, start, end in zip(names, marks, marks[1:]):
            tracer.add(name, start, end, root, request)
    return len(stream.types)


def run_traced(corpus: list[Query], seconds: float) -> Result:
    """Per-layer self times and the tracing overhead.

    Each text is compiled three ways: by the compiler (untraced), by the
    bare stage chain, and by the traced stage chain.  The order rotates
    from one text to the next, so first-sight costs (the lexer's word
    memo, allocator growth) fall on each way equally.  The collector runs
    between texts only, so its pauses land in none of the three timings.
    """
    result = Result()
    tracer = Tracer()
    untraced = bare = traced = 0.0
    tokens = texts = 0
    compiler = DiagramCompiler()

    def compile_untraced(text: str) -> float:
        start = clock()
        compiler.compile(text, formats=FORMATS)
        return clock() - start

    def chain_bare(text: str) -> float:
        start = clock()
        stage_chain(text)
        return clock() - start

    def chain_traced(text: str) -> float:
        nonlocal tokens
        start = clock()
        tokens += stage_chain(text, tracer, texts)
        return clock() - start

    ways = (compile_untraced, chain_bare, chain_traced)
    budget_end = clock() + seconds
    gc.disable()
    for query in corpus:
        if clock() >= budget_end:
            break
        if query.kind.startswith("wide:"):
            continue
        if texts % GC_EVERY == 0:
            gc.collect()
        if texts and texts % SLICE == 0:
            compiler = DiagramCompiler()
        times = {}
        for step in range(3):
            way = ways[(texts + step) % 3]
            times[way] = way(query.sql)
        untraced += times[compile_untraced]
        bare += times[chain_bare]
        traced += times[chain_traced]
        texts += 1
    gc.enable()
    untraced, bare, traced = untraced / texts, bare / texts, traced / texts
    selfs = tracer.self_times()
    stage_sum = sum(selfs[name][0] for name in STAGES) / texts

    wide = [query for query in corpus if query.kind.startswith("wide:")]
    wide_tracer = Tracer()
    for request, query in enumerate(wide):
        stage_chain(query.sql, wide_tracer, request)
    wide_build = {q.kind: d for q, d in zip(wide, wide_tracer.durations("diagram.build"))}

    for name in STAGES:
        result.metric(f"{name}_ms", selfs[name][0] / texts * 1e3, "ms")
    result.metric("sql.tokens", tokens / texts, "count")
    result.metric("pipeline.overhead_ms", (untraced - stage_sum) * 1e3, "ms")
    result.metric("diagram.build_ms.wide",
                  sum(wide_build.values()) / len(wide_build) * 1e3, "ms")
    for dimension in ("conjuncts", "tables", "depth"):
        small, large = [d for kind, d in wide_build.items()
                        if kind.split(":")[1] == dimension]
        result.metric(f"diagram.build_growth.{dimension}", large / small, "x")
    overhead = traced - bare
    result.metric("trace.overhead_ms", overhead * 1e3, "ms")
    gap = stage_sum - bare
    result.checks["stage self times + pipeline.overhead_ms rebuild the "
                  "untraced compile time within the tracing overhead"] = (
        abs(gap) <= max(abs(overhead), REBUILD_NOISE * bare))
    result.attempted = texts * 3 + len(wide)
    result.notes.append(
        f"{texts} texts: untraced compile {untraced * 1e3:.3f} ms, bare stage "
        f"chain {bare * 1e3:.3f} ms, traced chain {traced * 1e3:.3f} ms, "
        f"stage self-time sum {stage_sum * 1e3:.3f} ms (gap to bare chain "
        f"{gap * 1e3:+.4f} ms)"
    )
    result.tracer = tracer
    return result
