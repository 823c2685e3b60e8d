"""``serve-zipf``: open-loop zipf traffic against ``repro serve --workers 2``.

The server runs as a subprocess with a fresh disk cache.  One process
sends Poisson arrivals at a fixed nominal rate over at most ``nproc``
keep-alive connections, timing each request from when it was due, then
measures the server's capacity closed loop over the same connections.
Popularity is zipfian over a pool of distinct queries larger than the
server's response LRU, so the head hits the LRU while the tail compiles
and evicts.  A share of requests are equivalent respellings (alias
renames, whitespace and case, reordered conjuncts, the Fig. 24 trio),
which the server must answer by fingerprint, not by text.
"""

from __future__ import annotations

import dataclasses
import gc
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from repro.paper_queries import FIG24_VARIANTS
from repro.pipeline import DiagramCompiler, fingerprint_sql
from repro.sql import format_query

from .common import (
    OUT_DIR,
    ROOT,
    Latencies,
    Result,
    Tracer,
    clock,
    median,
    peak_rss_mb,
    percentile,
)
from .compile_cold import STAGES, stage_chain
from .inputs import querygen_corpus

WORKERS = 2
#: Response-LRU entries per worker.  The head's queries, respellings and
#: two output formats outgrow it, so the LRU evicts; at the default of
#: 1024 entries nothing would be evicted within a run.
LRU_SIZE = 256
#: Distinct base queries: a head of ``HEAD`` popular ones, drawn zipfian,
#: and a tail of queries that are each requested once.
POOL = 600
HEAD = 200
ZIPF_S = 1.0
#: Share of each measured step's requests that go to the tail.  It is
#: exact, not drawn, so the share of first-sight compiles, each of which
#: writes through to the disk cache, does not vary from seed to seed.
TAIL_SHARE = 0.005
#: Share of head requests that respell their base query.
RESPELL_SHARE = 0.15
#: Endpoint mix: (share of requests, path).
ENDPOINTS = ((0.8, "/compile"), (0.1, "/fingerprint"), (0.1, "/render"))
#: Rounds per run, each on a freshly spawned server; every end-to-end
#: metric, ``setup_s`` too, is the median over the rounds.
ROUNDS = 3

#: Each round: a closed-loop warm-up, the open-loop nominal rate for a
#: share of the round, then the closed-loop capacity step.
NOMINAL = (100.0, 0.70)
#: Requests of the capacity step, sent closed loop over every connection.
CAPACITY = 1500
#: The nominal tail is taken per window of this many consecutive requests
#: and reported as the median over the run's windows.  Over a whole
#: round, the p95 fell on the edge between the hits and the few requests
#: a first-sight compile stalls, and spread by 40% from run to run.
WINDOW = 100
#: A step meets the limit when its tail latency is at most this.
LIMIT_MS = 100.0
#: An open-loop step's backlog has grown when a request is sent this late;
#: the rest of the step is skipped.
BACKLOG_S = 0.5
#: Generator health: the p99 of how late an idle sender woke for a due
#: request.  A run whose nominal step exceeds it is invalid.
GEN_LAG_BOUND_MS = 20.0


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #

_KEYWORDS = re.compile(r"\b(SELECT|FROM|WHERE|AND|NOT|EXISTS|ORDER|BY|LIMIT|"
                       r"OFFSET|DESC|ASC|DISTINCT)\b")
_ALIAS = re.compile(r"\b([A-Z])(\d+)\b")


def _respell_case(sql: str, rng: random.Random) -> str:
    lowered = _KEYWORDS.sub(lambda m: m.group(0).lower(), sql)
    return re.sub(r"\s+", lambda m: " " * rng.randint(1, 3), lowered)


def _respell_aliases(sql: str) -> str:
    return _ALIAS.sub(lambda m: f"{m.group(1)}q{m.group(2)}", sql)


def _respell_order(ast) -> str | None:
    if len(ast.where) < 2:
        return None
    return format_query(dataclasses.replace(ast, where=tuple(reversed(ast.where))))


@dataclass(frozen=True)
class Request:
    offset: float  # seconds after the step starts
    step: int
    path: str
    sql: str
    base: int  # index of the base query in the pool
    kind: str  # "base", "tail", "case", "alias", "order" or "fig24"

    def body(self) -> bytes:
        if self.path == "/compile":
            return json.dumps({"sql": self.sql, "formats": ["svg"]}).encode()
        if self.path == "/render":
            return json.dumps({"sql": self.sql, "format": "text"}).encode()
        return json.dumps({"sql": self.sql}).encode()


def build_pool(seed: int) -> list[tuple[str, object]]:
    """(SQL, AST) per base query; entry 0 stands for the Fig. 24 trio."""
    corpus = querygen_corpus(seed, POOL - 1, max_depth=2, max_tables=2)
    return [(FIG24_VARIANTS[0], None)] + [(q.sql, q.ast) for q in corpus]


def respellings(seed: int, pool) -> list[list[tuple[str, str]]]:
    """Per head query, its (kind, SQL) respellings, fixed for the run."""
    forms = [[("fig24", sql) for sql in FIG24_VARIANTS[1:]]]
    for base in range(1, HEAD):
        sql, ast = pool[base]
        rng = random.Random(seed * 100_003 + base)
        candidates = [("case", _respell_case(sql, rng)), ("alias", _respell_aliases(sql)),
                      ("order", _respell_order(ast))]
        forms.append([(kind, text) for kind, text in candidates if text is not None])
    return forms


def _zipf_cumulative(count: int) -> list[float]:
    cumulative, total = [], 0.0
    for rank in range(count):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)
    return cumulative


@dataclass(frozen=True)
class Phase:
    """One phase of a round."""

    name: str
    count: int
    #: Open loop over this many seconds; 0 sends closed loop.
    seconds: float = 0.0


def round_phases(seconds: float, trace: bool = False) -> list[Phase]:
    """Warm-up, nominal and capacity phases of a round of ``seconds``.

    The traced run measures the nominal rate twice, untraced then traced,
    and has no capacity phase.
    """
    rate, share = NOMINAL
    nominal = Phase("nominal", round(rate * share * seconds), share * seconds)
    if trace:
        return [Phase("warm-up", 0), nominal, nominal]
    return [Phase("warm-up", 0), nominal, Phase("capacity", CAPACITY)]


def schedule(seed: int, pool, phases: list[Phase]) -> list[Request]:
    """The requests of every phase, in order of their due offsets.

    The warm-up sends every head query once to each endpoint and each of
    its respellings once.  In the other phases, exactly ``TAIL_SHARE`` of
    the requests, at random positions, are tail queries seen once; the
    rest draw zipfian from the head, some respelled.  Open-loop arrivals
    come at uniformly drawn times (a Poisson process conditioned on its
    count).
    """
    rng = random.Random(seed ^ 0x2E4F)
    forms = respellings(seed, pool)
    head = list(range(HEAD))
    rng.shuffle(head)  # popularity rank → pool index
    cumulative = _zipf_cumulative(HEAD)
    tail = iter(range(HEAD, len(pool)))

    def endpoint() -> str:
        pick = rng.random()
        for weight, path in ENDPOINTS:
            if pick < weight:
                return path
            pick -= weight
        return ENDPOINTS[-1][1]

    requests = []
    for step, phase in enumerate(phases):
        if phase.name == "warm-up":
            for base in head:
                sql = pool[base][0]
                requests += [Request(0.0, step, path, sql, base, "base")
                             for _, path in ENDPOINTS]
                requests += [Request(0.0, step, "/compile", text, base, kind)
                             for kind, text in forms[base]]
            continue
        offsets = sorted(rng.uniform(0.0, phase.seconds) for _ in range(phase.count))
        tail_at = set(rng.sample(range(phase.count), round(phase.count * TAIL_SHARE)))
        for index, offset in enumerate(offsets):
            if index in tail_at:
                base = next(tail)
                requests.append(Request(offset, step, endpoint(), pool[base][0], base, "tail"))
                continue
            base = head[_bisect(cumulative, rng.random() * cumulative[-1])]
            kind, sql = "base", pool[base][0]
            if rng.random() < RESPELL_SHARE:
                kind, sql = rng.choice(forms[base])
            requests.append(Request(offset, step, endpoint(), sql, base, kind))
    return requests


def _bisect(cumulative: list[float], value: float) -> int:
    low, high = 0, len(cumulative) - 1
    while low < high:
        middle = (low + high) // 2
        if cumulative[middle] < value:
            low = middle + 1
        else:
            high = middle
    return low


# --------------------------------------------------------------------------- #
# the server
# --------------------------------------------------------------------------- #


class Server:
    """``repro serve --workers 2`` as a subprocess with a fresh disk cache."""

    def __init__(self, cache_dir) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = clock()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--lru-size", str(LRU_SIZE),
             "--disk-cache", str(cache_dir)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = None
        try:
            for line in self.process.stdout:
                if line.startswith("serving on "):
                    self.port = int(line.rsplit(":", 1)[1])
                    break
            if self.port is None:
                raise RuntimeError("server exited before it was serving")
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock() - start

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def _wait_ready(self) -> None:
        deadline = clock() + 60.0
        while clock() < deadline:
            health = self.get("/healthz")
            if health.get("status") == "ok" and health.get("ready_workers") == WORKERS:
                return
            time.sleep(0.01)
        raise RuntimeError("workers did not become ready within 60 s")

    def peak_rss_mb(self) -> float:
        pids = [self.process.pid] + [slot["pid"] for slot in self.get("/healthz")["slots"]]
        return sum(peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# --------------------------------------------------------------------------- #
# the load generator
# --------------------------------------------------------------------------- #


@dataclass
class Outcome:
    request: Request
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    served: str = ""
    fingerprint: str = ""
    #: How late an idle sender woke for this request (None: it was busy).
    lag: float | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.status == 200


@dataclass
class Step:
    """One phase of a round as driven."""

    phase: Phase
    outcomes: list[Outcome]
    #: A request came due more than ``BACKLOG_S`` before a sender was free.
    overloaded: bool

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def stats(self) -> Latencies:
        return Latencies.of([o.done - o.due for o in self.outcomes])

    @property
    def elapsed_s(self) -> float:
        return max(o.done for o in self.outcomes) - min(o.due for o in self.outcomes)

    @property
    def answered_rps(self) -> float:
        return len(self.outcomes) / self.elapsed_s

    def window_tails(self) -> list[Latencies]:
        """Latencies of each whole window of ``WINDOW`` consecutive requests."""
        latencies = [o.done - o.due for o in self.outcomes]
        return [Latencies.of(latencies[start:start + WINDOW])
                for start in range(0, len(latencies) - WINDOW + 1, WINDOW)]

    @property
    def gen_lag_ms(self) -> float:
        lags = sorted(o.lag for o in self.outcomes if o.lag is not None)
        return percentile(lags, 99.0) * 1e3 if lags else 0.0

    def meets_limit(self) -> bool:
        """Everything answered, nothing failed, no growing backlog, a
        healthy generator and the tail within ``LIMIT_MS``."""
        return (not self.overloaded and self.failed == 0
                and len(self.outcomes) == self.phase.count
                and self.gen_lag_ms <= GEN_LAG_BOUND_MS
                and self.stats.tail_ms <= LIMIT_MS)

    def describe(self) -> str:
        text = f"{self.phase.name}: {len(self.outcomes)}/{self.phase.count} sent"
        if self.outcomes:
            stats = self.stats
            text += (f", answered {self.answered_rps:.1f} req/s, p50 {stats.p50_ms:.2f} ms,"
                     f" p{stats.tail_p:g} {stats.tail_ms:.2f} ms")
        text += f", {self.failed} failed, generator lag p99 {self.gen_lag_ms:.2f} ms"
        return text + ("" if self.meets_limit() else " — misses the limit")


def drive_step(port: int, queue: list[Request], phase: Phase) -> Step:
    """Sends one phase's requests over at most ``nproc`` keep-alive
    connections (one sender thread each): on schedule for an open-loop
    phase, back to back for a closed-loop one."""
    lock = threading.Lock()
    cursor = [0]
    overloaded = [False]
    outcomes: list[Outcome] = []
    step_start = clock() + 0.05

    def sender() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(queue) or overloaded[0]:
                    return
                request = queue[index]
                # Closed loop, a request is due when a sender is free for it.
                now = clock()
                outcome = Outcome(request, step_start + request.offset
                                  if phase.seconds else max(now, step_start))
                if now < outcome.due:
                    time.sleep(outcome.due - now)
                    outcome.lag = clock() - outcome.due
                elif phase.seconds and now - outcome.due > BACKLOG_S:
                    overloaded[0] = True
                    return
                outcome.sent = clock()
                try:
                    connection.request("POST", request.path, body=request.body(),
                                       headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    body = response.read()
                    outcome.status = response.status
                    outcome.served = response.getheader("X-Repro-Served", "")
                    if body.startswith(b'{"fingerprint": "'):
                        outcome.fingerprint = body[17:81].decode("ascii")
                except (OSError, http.client.HTTPException) as error:
                    outcome.error = f"{type(error).__name__}: {error}"
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                outcome.done = clock()
                with lock:
                    outcomes.append(outcome)
        finally:
            connection.close()

    connections = min(len(os.sched_getaffinity(0)), 2)
    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcomes.sort(key=lambda o: o.due)
    return Step(phase, outcomes, overloaded[0])


def max_rate(steps: list[Step]) -> float:
    """The capacity step's answered rate, if it meets the limit, else 0.

    Closed loop over every connection, the server answers as fast as it
    can; an open-loop arrival rate above that makes the backlog grow.
    """
    capacity = steps[-1]
    return capacity.answered_rps if capacity.meets_limit() else 0.0


# --------------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------------- #


def _stats_totals(stats: dict) -> dict[str, float]:
    """Sums of the /stats counters the per-layer metrics use."""
    totals = {"stage_hits": 0, "stage_lookups": 0, "disk_writes": 0, "disk_hits": 0}
    for worker in stats.get("workers_stats", []):
        pipeline = worker.get("pipeline", {})
        for counter in pipeline.get("stages", {}).values():
            totals["stage_hits"] += counter.get("hits", 0)
            totals["stage_lookups"] += counter.get("hits", 0) + counter.get("misses", 0)
        disk = worker.get("disk", {})
        totals["disk_writes"] += disk.get("writes", 0)
        totals["disk_hits"] += disk.get("hits", 0)
    totals["shed"] = stats.get("shed", 0) + stats.get("front_shed", 0)
    totals["failovers"] = stats.get("pool", {}).get("failovers", 0)
    return totals


def _check(outcomes: list[Outcome], expected: dict[str, str], result: Result) -> None:
    for outcome in outcomes:
        result.attempted += 1
        if outcome.error or outcome.status != 200:
            result.fail(False, f"{outcome.request.path}: status {outcome.status} "
                               f"{outcome.error}")
        elif outcome.fingerprint != expected[outcome.request.sql]:
            result.fail(True, f"{outcome.request.path} answered fingerprint "
                              f"{outcome.fingerprint[:12]}… for {outcome.request.sql[:50]!r}")


def _expected_fingerprints(outcomes, pool, result: Result) -> dict[str, str]:
    """``fingerprint_sql`` in this process, plus the check that every
    respelling shares its base query's fingerprint."""
    expected: dict[str, str] = {}
    for outcome in outcomes:
        sql = outcome.request.sql
        if sql not in expected:
            expected[sql] = fingerprint_sql(sql)
    respellings_agree = True
    for outcome in outcomes:
        request = outcome.request
        if request.kind not in ("base", "tail"):
            base_sql = pool[request.base][0]
            if base_sql not in expected:
                expected[base_sql] = fingerprint_sql(base_sql)
            respellings_agree &= expected[request.sql] == expected[base_sql]
    result.checks["respellings share their base query's fingerprint"] = respellings_agree
    return expected


def _drive_round(cache_dir, requests: list[Request], phases: list[Phase]) -> dict:
    """One fresh server through every phase of a round."""
    server = Server(cache_dir)
    try:
        steps: list[Step] = []
        for index, phase in enumerate(phases):
            if index == 1:
                before = _stats_totals(server.get("/stats"))
            queue = [r for r in requests if r.step == index]
            steps.append(drive_step(server.port, queue, phase))
        after = _stats_totals(server.get("/stats"))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"setup_s": server.setup_s, "warmup_s": steps[0].elapsed_s,
            "steps": steps[1:], "rss": rss, "before": before, "after": after}


def run(seed: int, seconds: float, trace: bool, corrupt: bool) -> Result:
    """``ROUNDS`` rounds, each on a freshly spawned server with a fresh disk
    cache, share ``seconds``; each metric is the median over the rounds,
    so a slow stretch of the machine during one round does not move it."""
    result = Result()
    pool = build_pool(seed)
    rounds_wanted = 1 if trace else ROUNDS
    phases = round_phases(seconds / rounds_wanted, trace)
    requests = schedule(seed, pool, phases)
    cache_root = OUT_DIR / f"serve-{os.getpid()}"
    rounds = []
    # The inputs stay alive for the whole run; frozen and with the
    # collector off, this process's garbage collection cannot stall a
    # sender and show up as server latency.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for number in range(rounds_wanted):
            rounds.append(_drive_round(cache_root / str(number), requests, phases))
    finally:
        gc.enable()
        gc.unfreeze()
        shutil.rmtree(cache_root, ignore_errors=True)

    measured = [o for r in rounds for step in r["steps"] for o in step.outcomes]
    if corrupt:
        next(o for o in rounds[0]["steps"][0].outcomes if o.ok).fingerprint = "0" * 64
    expected = _expected_fingerprints(measured, pool, result)
    _check(measured, expected, result)
    if trace:
        only = rounds[0]
        return _traced_result(result, only["steps"], only["before"], only["after"])

    nominals = [r["steps"][0] for r in rounds]
    lag = median([step.gen_lag_ms for step in nominals])
    if lag > GEN_LAG_BOUND_MS:
        result.valid = False
        result.notes.append(
            f"INVALID RUN: generator lateness p99 {lag:.1f} ms at the nominal rate "
            f"exceeds the bound of {GEN_LAG_BOUND_MS:g} ms")
    result.metric("setup_s", median([r["setup_s"] for r in rounds]), "s")
    result.metric("ops_per_s", median([step.answered_rps for step in nominals]), "ops/s")
    result.metric("latency_p50_ms", median([step.stats.p50_ms for step in nominals]), "ms")
    windows = ([window for step in nominals for window in step.window_tails()]
               or [step.stats for step in nominals])
    result.metric("latency_tail_ms", median([window.tail_ms for window in windows]), "ms")
    result.metric("max_rate_rps", median([max_rate(r["steps"]) for r in rounds]), "req/s")
    result.metric("peak_rss_mb", median([r["rss"] for r in rounds]), "MB")
    result.notes.append(
        f"each metric is the median over {len(rounds)} rounds, at the nominal "
        f"{NOMINAL[0]:g} req/s; latency_tail_ms is each window's p{windows[0].tail_p:g} "
        f"({WINDOW} requests per window), median over {len(windows)} windows")
    result.notes.append("ops_per_s: answered rate at the nominal step")
    result.notes.append(f"max_rate_rps: closed-loop capacity; tail limit {LIMIT_MS:g} ms")
    for number, r in enumerate(rounds):
        result.notes.append(f"round {number}: setup {r['setup_s']:.2f} s, warm-up "
                            f"{r['warmup_s']:.1f} s")
        result.notes += ["  " + step.describe() for step in r["steps"]]
    return result


def _traced_result(result: Result, steps: list[Step], before: dict,
                   after: dict) -> Result:
    """Per-layer metrics from client-side spans, /stats deltas and an
    in-process replay of the compile-served texts.

    ``steps`` are the nominal rate untraced, then traced.  A request's
    root span runs from when it was due to its answer; its children are
    the wait for a free connection (due → sent) and the server's part
    (sent → answered), named after the layer in ``X-Repro-Served``.
    """
    tracer = Tracer()
    untraced, traced = steps
    for request_id, outcome in enumerate(traced.outcomes):
        root = tracer.add("request", outcome.due, outcome.done, -1, request_id)
        tracer.add("client.queue", outcome.due, outcome.sent, root, request_id)
        layer = outcome.served.split("@")[0] or "error"
        tracer.add(f"serve.{layer}", outcome.sent, outcome.done, root, request_id)

    answered = [o for o in traced.outcomes if o.request.path != "/fingerprint"]
    by_layer: dict[str, list[float]] = {}
    for outcome in answered:
        by_layer.setdefault(outcome.served.split("@")[0], []).append(
            outcome.done - outcome.sent)
    for layer, metric in (("lru", "serve.lru_hit_ms"), ("compile", "serve.compile_ms")):
        result.metric(metric, median(by_layer[layer]) * 1e3, "ms")
    for layer, metric in (("lru", "serve.lru_hit_share"), ("compile", "serve.compile_share"),
                          ("coalesced", "serve.coalesced_share")):
        result.metric(metric, len(by_layer.get(layer, [])) / len(answered), "fraction")

    # Replay the compile-served texts in-process: the gap to the served
    # latency is what HTTP, the front end and the pool hop add.
    compiled = [o for o in answered if o.served.startswith("compile")]
    gaps = []
    in_process = tokens = 0.0
    for request_id, outcome in enumerate(compiled, start=len(traced.outcomes)):
        formats = ("svg",) if outcome.request.path == "/compile" else ("text",)
        start = clock()
        DiagramCompiler().compile(outcome.request.sql, formats=formats)
        elapsed = clock() - start
        in_process += elapsed
        gaps.append(outcome.done - outcome.sent - elapsed)
        tokens += stage_chain(outcome.request.sql, tracer, request_id, formats)
    result.metric("serve.frontend_ms", median(gaps) * 1e3, "ms")
    selfs = tracer.self_times()
    for name in STAGES:
        if name in selfs:  # the server renders no dot
            result.metric(f"{name}_ms", selfs[name][0] / len(compiled) * 1e3, "ms")
    result.metric("sql.tokens", tokens / len(compiled), "count")
    stage_sum = sum(selfs.get(name, (0.0, 0))[0] for name in STAGES)
    result.metric("pipeline.overhead_ms", (in_process - stage_sum) / len(compiled) * 1e3, "ms")

    lookups = after["stage_lookups"] - before["stage_lookups"]
    result.metric("pipeline.stage_hit_rate",
                  (after["stage_hits"] - before["stage_hits"]) / max(lookups, 1), "fraction")
    for name in ("disk_writes", "disk_hits"):
        result.metric(f"pipeline.{name}", after[name] - before[name], "count")
    result.metric("serve.shed", after["shed"] - before["shed"], "count")
    result.metric("serve.failovers", after["failovers"] - before["failovers"], "count")
    result.metric("serve.gen_lag_ms", traced.gen_lag_ms, "ms")
    overhead = traced.stats.p50_ms - untraced.stats.p50_ms
    result.metric("trace.overhead_ms", overhead, "ms")
    result.notes.append(
        f"nominal {NOMINAL[0]:g} req/s: untraced p50 {untraced.stats.p50_ms:.3f} ms, "
        f"traced p50 {traced.stats.p50_ms:.3f} ms; {len(compiled)} compile-served texts "
        f"replayed in-process with stage spans")
    result.tracer = tracer
    return result
