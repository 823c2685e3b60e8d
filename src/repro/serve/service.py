"""Application core of the compile server — transport-free and fully async.

:class:`CompileService` owns one :class:`~repro.pipeline.DiagramCompiler`
and answers the questions the HTTP layer (:mod:`repro.serve.http`) routes
to it.  It layers three caches, probed in order:

1. **Response LRU** (:mod:`repro.serve.lru`) — bounded, in-memory, keyed
   by ``(fingerprint, roles, formats)``.  A hit returns a fully rendered
   JSON payload without touching the compiler thread.
2. **In-flight table** — the coalescing layer.  The first request for a
   canonical key starts one compile task; every concurrent request for an
   equivalent query (verbatim duplicate, predicate reordering, the
   Fig. 24 trio…) awaits *that same task* instead of compiling again.
3. **Compiler caches** — the pipeline's stage caches backed by the shared
   persistent :class:`~repro.pipeline.DiskCache`, exactly as in batch
   runs.  Stage caches are bounded here (``STAGE_CACHE_BOUND``): a
   long-running server clears them when they outgrow the bound and
   warm-starts from disk.

Coalescing needs the canonical key *before* the expensive back half, so
every request first runs the cheap front half (lex → … → fingerprint) on a
dedicated fingerprint thread; compiles run on a separate single compile
thread.  Two threads may race through the shared stage caches — that is
benign by design: stages are deterministic, so a lost race recomputes the
same value.

Overload policy: at most ``max_pending`` requests are admitted at once and
every admitted request is bounded by ``request_timeout``; both violations
shed with :class:`ServiceUnavailable` (HTTP 503) rather than queueing
without bound.  A shed or timed-out request never cancels the underlying
compile — the in-flight task is shielded and still populates the caches,
so the retry the 503 invites is cheap.

Fault policy (see docs/robustness.md): the compile worker is *supervised*
— a crashed or broken executor is replaced on the spot
(``stats.executor_restarts``) — and every compile gets one cheap retry
when it fails on a *recoverable* error (an injected fault, an IO error, a
broken worker; ``stats.compile_retries``) before the request joins the
503 shed path.  Semantic failures (bad SQL) stay 400 and never retry.  A
failed in-flight task is popped without populating the response LRU, so a
poisoned coalesced compile never serves stale errors: the next request
recompiles.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from ..catalog.schema import Schema
from ..counters import Counters
from ..faults import InjectedCrash, fault_point
from ..pipeline import RENDERERS, DiagramCompiler, DiskCache
from ..relational.backends import breaker_states, is_recoverable
from ..render.layout import LayoutConfig
from ..sql.errors import SQLError
from .lru import LRUCache

#: Clear the compiler's in-memory stage caches beyond this many entries
#: (summed across stages); the disk cache absorbs the cost.
STAGE_CACHE_BOUND = 50_000


class BadRequest(Exception):
    """The request is malformed (HTTP 400): bad JSON, bad SQL, bad format."""


class ServiceUnavailable(Exception):
    """The request was shed (HTTP 503): overload, timeout, or draining."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`CompileService` (see docs/serving.md)."""

    #: Response-LRU capacity in fully rendered payloads (<= 0 disables it).
    lru_entries: int = 1024
    #: Admission bound: requests beyond this many concurrently admitted
    #: ones are shed with 503 instead of queueing without bound.
    max_pending: int = 64
    #: Per-request wall-clock budget in seconds; exceeding it sheds 503.
    request_timeout: float = 10.0
    #: Formats compiled when a /compile request names none.
    default_formats: tuple[str, ...] = ("text",)


@dataclass(frozen=True)
class ServedResponse:
    """One endpoint answer: decoded payload + its canonical encoding.

    ``body`` is the UTF-8 JSON encoding of ``payload``; for /compile it is
    produced once per compile and cached in the response LRU, so the hot
    warm path writes cached bytes instead of re-serializing (potentially
    large) rendered outputs per request.  ``served`` says which layer
    answered — ``compile``, ``coalesced`` or ``lru`` — and travels as the
    ``X-Repro-Served`` response header, keeping the cached body identical
    across layers.
    """

    payload: dict
    body: bytes
    served: str

    @classmethod
    def encode(cls, payload: dict, served: str) -> "ServedResponse":
        return cls(payload, json.dumps(payload).encode("utf-8"), served)


@dataclass
class ServiceStats(Counters):
    """Structured counters surfaced verbatim on ``/stats``."""

    requests: dict[str, int] = field(default_factory=dict)
    compiles: int = 0
    lru_hits: int = 0
    coalesced: int = 0
    shed: int = 0
    timeouts: int = 0
    bad_requests: int = 0
    internal_errors: int = 0
    stage_cache_clears: int = 0
    compile_retries: int = 0
    executor_restarts: int = 0

    def count(self, endpoint: str) -> None:
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1


class RequestFrontEnd:
    """Shared request-side half of a serving façade.

    Both serving modes — the single-process :class:`CompileService` and
    the multi-process ``PoolService`` (:mod:`repro.serve.supervisor`) —
    need the same front half on the event loop: admission control with a
    per-request budget, the draining flag, and the verbatim-text →
    canonical-key memo that lets exact-text repeats (the overwhelmingly
    common case in real traffic) resolve their coalescing/affinity
    identity without leaving the event loop.  Subclasses decide how a
    *new* text gets its key — a local fingerprint thread vs. a worker
    process — and where the expensive back half runs.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        # Sized like the response LRU: several spellings per cached
        # response is typical, unbounded distinct traffic must still not
        # grow it forever.
        self._text_keys = LRUCache(max(4 * self.config.lru_entries, 1024))
        self._pending = 0
        self._draining = False
        self._started = time.monotonic()

    @property
    def draining(self) -> bool:
        return self._draining

    async def _admitted(self, work) -> dict:
        """Admission control + per-request timeout around ``work``."""
        work = asyncio.ensure_future(work)
        if self._draining:
            work.cancel()
            self.stats.shed += 1
            raise ServiceUnavailable("server is draining", retry_after=5.0)
        if self._pending >= self.config.max_pending:
            work.cancel()
            self.stats.shed += 1
            raise ServiceUnavailable(
                f"overloaded: {self._pending} requests pending"
            )
        self._pending += 1
        try:
            return await asyncio.wait_for(work, self.config.request_timeout)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            raise ServiceUnavailable(
                f"request exceeded {self.config.request_timeout:.1f}s budget"
            ) from None
        finally:
            self._pending -= 1

    def request_text(self, sql: str) -> str:
        """Validate and normalize the raw request text (400 on empty)."""
        if not isinstance(sql, str) or not sql.strip():
            self.stats.bad_requests += 1
            raise BadRequest("request carries no SQL text")
        return sql.strip()

    def begin_drain(self) -> None:
        """Stop admitting work; in-flight requests keep running."""
        self._draining = True


class CompileService(RequestFrontEnd):
    """Coalescing, cache-layered façade over one :class:`DiagramCompiler`."""

    def __init__(
        self,
        schema: Schema | None = None,
        simplify: bool = True,
        layout_config: LayoutConfig | None = None,
        disk_cache: DiskCache | str | Path | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        super().__init__(config=config)
        self._compiler = DiagramCompiler(
            schema=schema,
            simplify=simplify,
            layout_config=layout_config,
            disk_cache=disk_cache,
        )
        self._lru = LRUCache(self.config.lru_entries)
        self._inflight: dict[tuple, asyncio.Task] = {}
        # Fingerprinting must stay responsive while a compile occupies the
        # back half — otherwise concurrent duplicates could not reach the
        # coalescing layer until the compile they should have joined had
        # already finished.
        self._fp_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-fp"
        )
        # Compiles run on their own single thread, separate from the
        # fingerprint thread: compiles serialize among themselves (shared
        # caches, one CPU-bound interpreter), requests interleave on the
        # event loop.
        self._compile_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compile"
        )

    @property
    def compiler(self) -> DiagramCompiler:
        return self._compiler

    @property
    def lru(self) -> LRUCache:
        return self._lru

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    async def _canonical_key(self, sql: str) -> tuple[str, tuple]:
        """Coalescing/LRU identity: text memo → fingerprint thread."""
        text = self.request_text(sql)
        key = self._text_keys.get(text)
        if key is not None:
            return key
        loop = asyncio.get_running_loop()
        try:
            key = await loop.run_in_executor(
                self._fp_executor, self._compiler.canonical_key, text
            )
        except SQLError as error:
            self.stats.bad_requests += 1
            raise BadRequest(f"invalid SQL: {error}") from error
        self._text_keys.put(text, key)
        return key

    async def fingerprint(self, sql: str) -> ServedResponse:
        """Canonical fingerprint only; the /fingerprint answer."""
        self.stats.count("fingerprint")

        async def _fingerprint() -> ServedResponse:
            fingerprint, _roles = await self._canonical_key(sql)
            return ServedResponse.encode(
                {"fingerprint": fingerprint}, "fingerprint"
            )

        return await self._admitted(_fingerprint())

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #

    async def compile(
        self, sql: str, formats: tuple[str, ...]
    ) -> ServedResponse:
        """Compile ``sql`` to ``formats``; the /compile answer."""
        self.stats.count("compile")
        return await self._admitted(self._compile_coalesced(sql, formats))

    async def render(self, sql: str, fmt: str) -> ServedResponse:
        """One rendered format; the /render answer."""
        self.stats.count("render")

        async def _render() -> ServedResponse:
            response = await self._compile_coalesced(sql, (fmt,))
            return ServedResponse.encode(
                {
                    "fingerprint": response.payload["fingerprint"],
                    "format": fmt,
                    "output": response.payload["outputs"][fmt],
                },
                response.served,
            )

        return await self._admitted(_render())

    def healthz(self) -> dict:
        """Liveness + degradation report: cheap enough for tight probes.

        ``status`` is ``ok``, ``degraded`` (still answering, but the disk
        cache went memory-only or an engine breaker is not closed) or
        ``draining`` (503 — take this replica out of rotation).
        """
        self.stats.count("healthz")
        disk = self._compiler.disk_cache
        disk_degraded = bool(disk is not None and disk.degraded)
        breakers = breaker_states()
        if self._draining:
            status = "draining"
        elif disk_degraded or any(
            state != "closed" for state in breakers.values()
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "in_flight": len(self._inflight),
            "pending": self._pending,
            "compile_retries": self.stats.compile_retries,
            "executor_restarts": self.stats.executor_restarts,
            "disk_degraded": disk_degraded,
            "engine_breakers": breakers,
        }

    def stats_payload(self) -> dict:
        """The /stats document: service, LRU, pipeline and disk counters."""
        self.stats.count("stats")
        compiler = self._compiler
        payload = {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "in_flight": len(self._inflight),
            "pending": self._pending,
            **self.stats.as_dict(),
            "lru": {"entries": len(self._lru), **self._lru.stats.as_dict()},
            "pipeline": compiler.stats().as_dict(),
        }
        if compiler.disk_cache is not None:
            payload["disk"] = compiler.disk_cache.stats.as_dict()
        return payload

    # ------------------------------------------------------------------ #
    # coalescing and compilation (admission lives on RequestFrontEnd)
    # ------------------------------------------------------------------ #

    async def _compile_coalesced(
        self, sql: str, formats: tuple[str, ...]
    ) -> ServedResponse:
        for fmt in formats:
            if fmt not in RENDERERS:
                self.stats.bad_requests += 1
                raise BadRequest(
                    f"unknown format {fmt!r}; known: {sorted(RENDERERS)}"
                )
        fingerprint, roles = await self._canonical_key(sql)
        key = (fingerprint, roles, tuple(sorted(set(formats))))
        cached = self._lru.get(key)
        if cached is not None:
            self.stats.lru_hits += 1
            payload, body = cached
            return ServedResponse(payload, body, "lru")
        task = self._inflight.get(key)
        if task is not None:
            self.stats.coalesced += 1
            payload, body = await asyncio.shield(task)
            return ServedResponse(payload, body, "coalesced")
        self.stats.compiles += 1
        task = asyncio.get_running_loop().create_task(
            self._do_compile(key, sql, formats)
        )
        self._inflight[key] = task

        def _on_done(done: asyncio.Task) -> None:
            self._inflight.pop(key, None)
            # Retrieve the exception (if any) so a compile whose every
            # waiter was shed never logs "exception was never retrieved".
            if not done.cancelled():
                done.exception()

        task.add_done_callback(_on_done)
        # Shielded: a shed/timed-out waiter must not cancel the shared
        # compile other requests are (or will be) coalesced onto.
        payload, body = await asyncio.shield(task)
        return ServedResponse(payload, body, "compile")

    async def _do_compile(
        self, key: tuple, sql: str, formats: tuple[str, ...]
    ) -> tuple[dict, bytes]:
        loop = asyncio.get_running_loop()
        try:
            artifact = await self._run_compile(loop, sql, formats)
        except Exception as error:
            if not self._recoverable(error):
                raise
            # One cheap retry before the 503 path: transient faults (a
            # torn cache read, a crashed worker thread) usually clear
            # immediately — and a restarted executor deserves one chance
            # before this replica starts shedding.
            self.stats.compile_retries += 1
            try:
                artifact = await self._run_compile(loop, sql, formats)
            except Exception as retry_error:
                if self._recoverable(retry_error):
                    raise ServiceUnavailable(
                        "compile failed twice on a recoverable fault; "
                        "retry later"
                    ) from retry_error
                raise
        payload = {
            "fingerprint": artifact.fingerprint,
            "formats": sorted(artifact.outputs),
            "outputs": dict(artifact.outputs),
        }
        # Encode once, serve many: the LRU keeps the response bytes next
        # to the payload so warm hits never re-serialize rendered outputs.
        body = json.dumps(payload).encode("utf-8")
        self._lru.put(key, (payload, body))
        return payload, body

    async def _run_compile(self, loop, sql: str, formats: tuple[str, ...]):
        """One supervised executor hop: restart the worker on crash."""
        try:
            return await loop.run_in_executor(
                self._compile_executor, self._compile_sync, sql, formats
            )
        except (BrokenExecutor, InjectedCrash):
            self._restart_compile_executor()
            raise
        except RuntimeError as error:
            # "cannot schedule new futures after (interpreter) shutdown":
            # the pool is unusable; replace it before re-raising.
            if "shutdown" in str(error):
                self._restart_compile_executor()
            raise

    @staticmethod
    def _recoverable(error: BaseException) -> bool:
        """Whether a failed compile deserves the retry/503 path (not 400/500)."""
        return isinstance(error, BrokenExecutor) or is_recoverable(error)

    def _restart_compile_executor(self) -> None:
        """Supervision: replace a crashed compile worker with a fresh one."""
        self.stats.executor_restarts += 1
        old = self._compile_executor
        self._compile_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compile"
        )
        old.shutdown(wait=False, cancel_futures=True)

    def _compile_sync(self, sql: str, formats: tuple[str, ...]):
        # Chaos stand-in for everything that can kill a compile mid-flight
        # (worker thread death, cache IO errors surfacing as exceptions).
        fault_point("serve.compile")
        artifact = self._compiler.compile(sql, formats=formats)
        if self._compiler.bound_caches(STAGE_CACHE_BOUND):
            self.stats.stage_cache_clears += 1
        return artifact

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def drain(self, timeout: float = 30.0) -> bool:
        """Await completion of admitted work; ``True`` if fully drained."""
        deadline = time.monotonic() + timeout
        while self._pending or self._inflight:
            tasks = list(self._inflight.values())
            if tasks:
                remaining = max(0.0, deadline - time.monotonic())
                await asyncio.wait(tasks, timeout=remaining or None)
            else:
                await asyncio.sleep(0.01)
            if time.monotonic() >= deadline:
                return not (self._pending or self._inflight)
        return True

    def close(self) -> None:
        """Release the worker threads (idempotent)."""
        self._fp_executor.shutdown(wait=False)
        self._compile_executor.shutdown(wait=False)
