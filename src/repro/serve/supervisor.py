"""Supervised multi-process worker pool behind the asyncio front end.

A single Python process cannot serve concurrent compile-bound traffic past
one core — the GIL serializes the compile thread.  :class:`PoolService`
keeps the existing asyncio HTTP front end (:mod:`repro.serve.http`) and
moves the expensive back half into N supervised worker *processes*, each
running today's :class:`~repro.serve.service.CompileService`
(:mod:`repro.serve.pool`), connected over inherited UNIX socketpairs with
the length-prefixed frame protocol.

Dispatch — learned fingerprint affinity
=======================================

The front end never parses SQL: the canonical-key front half (lex → … →
fingerprint) is itself half the cost of a full compile, so running it
per-request on the front end would cap pool speed-up near 1×.  Instead the
front end asks the *pool* for the key: the first sight of a request text
dispatches a cheap ``fingerprint`` op round-robin to any ready worker,
concurrent duplicates of that text coalesce onto the same in-flight key
lookup, and the answer lands in the front end's bounded text → fingerprint
memo.  Every compile/render then routes by true canonical fingerprint:
``slot = fp % N``, walking forward to the next ready slot when the
preferred one is down or draining.  Equivalent queries — verbatim repeats,
the Fig. 24 spelling trio — share a fingerprint, therefore a worker,
therefore that worker's response LRU and in-flight coalescing table:
duplicate bursts still collapse to one compile even though the pool has N
independent caches.

Supervision — a worker dying is a non-event
===========================================

* **Liveness**: a monitor task pings every worker each
  ``heartbeat_interval``; a worker whose last pong is older than
  ``heartbeat_timeout``, or whose oldest in-flight dispatch exceeds
  ``request_deadline`` (a wedged compile thread answers pings happily), is
  killed and replaced.
* **Crash recovery**: worker EOF fails its in-flight dispatch futures with
  :class:`WorkerCrashed`; the dispatcher transparently retries each such
  request once on a sibling slot (``stats.failovers``) before shedding
  503.  The dead slot respawns after an exponential backoff
  (``backoff_base · 2^(consecutive-1)``, capped at ``backoff_cap``).
* **Restart-storm budget**: more than ``restart_budget`` *consecutive*
  fast deaths (a worker that never survived ``min_uptime``) marks the
  slot **broken** — no more spawns, ``/healthz`` flips to ``degraded``
  (still 200: the surviving slots keep answering) — instead of
  spin-looping fork bombs.  Death classification uses an injectable
  ``clock`` (like the circuit breakers in ``relational/backends.py``), so
  tests control it deterministically.
* **Per-worker breakers**: PR 9's engine circuit breakers are
  process-global state — which in a pool means naturally *per-worker*.
  Each heartbeat pong carries the worker's own ``healthz`` document
  (breaker states, disk degradation); ``/healthz`` aggregates the worst
  state per engine across workers plus the per-worker detail.

Zero-downtime operations
========================

* **SIGHUP hot reload** (:meth:`WorkerSupervisor.reload`): one slot at a
  time — mark the old worker draining (ready count drops to N−1, never
  lower), spawn and await its replacement, swap, then retire the old
  worker gracefully (drain op, close pipe).  A failed replacement spawn
  restores the old worker to ready; ``stats.reload_min_ready`` records
  the observed floor.
* **SIGTERM drain**: the front end stops admitting, in-flight dispatches
  finish, every worker drains its own in-flight compiles, then the pool
  closes.

The only cross-worker state is the shared multi-process-safe disk cache
(``pipeline/diskcache.py``) — a replacement worker warms from it, and a
fingerprint re-routed after a crash finds its stages precompiled.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from ..counters import Counters
from ..faults import current_plan, fault_point, InjectedFault
from ..pipeline import RENDERERS
from .pool import (
    WORKER_ENV,
    encode_frame,
    read_frame,
    service_config_to_spec,
)
from .service import (
    BadRequest,
    RequestFrontEnd,
    ServedResponse,
    ServiceConfig,
    ServiceUnavailable,
)

#: Ranking for aggregating per-worker breaker states into one per engine.
_BREAKER_SEVERITY = {"closed": 0, "half_open": 1, "open": 2}


class WorkerCrashed(Exception):
    """The worker died (EOF on its pipe) with this request in flight."""


class SpawnFailed(Exception):
    """A worker process exited or timed out before reporting ready."""


@dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs of one :class:`WorkerSupervisor` (see docs/serving.md)."""

    #: Number of worker processes.
    workers: int = 2
    #: Forwarded to each worker's ``DiagramCompiler``.
    simplify: bool = True
    #: Shared persistent disk cache directory (the only cross-worker state).
    disk_cache: str | None = None
    #: ``ServiceConfig`` each worker runs under.  Admission is enforced at
    #: the front end, so workers get generous bounds by default.
    worker_service: ServiceConfig = field(
        default_factory=lambda: ServiceConfig(max_pending=1024, request_timeout=30.0)
    )
    #: Fault-plan spec (dict) forwarded to every worker — chaos runs.
    worker_fault_plan: dict | None = None
    #: Seconds between heartbeat pings.
    heartbeat_interval: float = 1.0
    #: A worker whose last pong is older than this is killed.
    heartbeat_timeout: float = 5.0
    #: Budget for a spawned worker to report ready.
    boot_timeout: float = 20.0
    #: A worker whose oldest in-flight dispatch is older than this is
    #: killed (wedged compile thread — pings alone cannot see it).
    request_deadline: float = 30.0
    #: Restart backoff: ``backoff_base * 2**(consecutive_fast_deaths-1)``…
    backoff_base: float = 0.1
    #: …capped here.
    backoff_cap: float = 5.0
    #: More than this many *consecutive* fast deaths marks the slot broken.
    restart_budget: int = 5
    #: A worker that survived at least this long resets the fast-death run.
    min_uptime: float = 1.0


@dataclass
class PoolStats(Counters):
    """Supervisor-side counters (per-worker compile counters live in the
    workers and are aggregated by ``stats_payload``)."""

    dispatched: int = 0
    worker_crashes: int = 0
    worker_restarts: int = 0
    failovers: int = 0
    heartbeat_timeouts: int = 0
    deadline_kills: int = 0
    spawn_failures: int = 0
    dispatch_faults: int = 0
    reloads: int = 0
    #: Lowest ready-worker count observed during the last reload (-1: never).
    reload_min_ready: int = field(
        default=-1, metadata={"merge": lambda mine, theirs: mine if theirs < 0 else theirs}
    )


class _Pending:
    """One in-flight dispatch on a worker pipe.

    ``future`` becomes ``None`` when the waiting request was cancelled
    (shed/timed out at the front end): the entry stays as a *tombstone* so
    the request-deadline monitor still supervises the worker actually
    doing the work, and the eventual response is discarded.
    """

    __slots__ = ("future", "at")

    def __init__(self, future: asyncio.Future | None, at: float) -> None:
        self.future = future
        self.at = at


class WorkerHandle:
    """One live worker process and its pipe."""

    def __init__(self, slot: int, proc: subprocess.Popen, reader, writer, pid: int) -> None:
        self.slot = slot
        self.proc = proc
        self.reader: asyncio.StreamReader = reader
        self.writer: asyncio.StreamWriter = writer
        self.pid = pid
        self.pending: dict[int, _Pending] = {}
        self.ready = False
        self.draining = False
        self.retired = False  # expected exit (reload/drain/close), not a crash
        self.closed = False
        self.ready_at = 0.0
        self.last_pong = 0.0
        self.health: dict = {}
        self.reader_task: asyncio.Task | None = None

    @property
    def available(self) -> bool:
        return self.ready and not self.draining and not self.closed


class _Slot:
    """One pool position: at most one live worker plus restart bookkeeping."""

    __slots__ = ("index", "worker", "broken", "fast_deaths", "spawns", "restart_task")

    def __init__(self, index: int) -> None:
        self.index = index
        self.worker: WorkerHandle | None = None
        self.broken = False
        self.fast_deaths = 0  # consecutive deaths under min_uptime
        self.spawns = 0
        self.restart_task: asyncio.Task | None = None


class WorkerSupervisor:
    """Spawns, dispatches to, and supervises the worker processes."""

    def __init__(
        self,
        config: PoolConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or PoolConfig()
        self.stats = PoolStats()
        self.clock = clock
        self._slots = [_Slot(i) for i in range(self.config.workers)]
        self._ids = itertools.count(1)
        self._rr = itertools.count()
        self._closing = False
        self._monitor_task: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        # Replaced-but-not-yet-drained workers (reload) and corpse reaps
        # live outside ``_tasks``: close() must finish them, not cancel
        # them, or their processes and pipes outlive the supervisor.
        self._retiring: set[WorkerHandle] = set()
        self._reaps: set[asyncio.Future] = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> int:
        """Spawn every slot's first worker; returns the ready count.

        A slot whose first spawn fails enters the normal backoff/restart
        machinery in the background (it may come up late or end broken);
        ``start`` itself never raises on worker failure.
        """
        await asyncio.gather(*(self._bring_up(slot) for slot in self._slots))
        self._monitor_task = asyncio.create_task(self._monitor())
        return self.ready_count()

    def ready_count(self) -> int:
        return sum(
            1
            for slot in self._slots
            if slot.worker is not None and slot.worker.available
        )

    async def drain(self, timeout: float = 30.0) -> bool:
        """Ask every live worker to drain its in-flight compiles."""
        workers = [
            slot.worker
            for slot in self._slots
            if slot.worker is not None and not slot.worker.closed
        ]
        if not workers:
            return True
        results = await asyncio.gather(
            *(self._drain_worker(worker, timeout) for worker in workers),
            return_exceptions=True,
        )
        return all(result is True for result in results)

    async def _drain_worker(self, worker: WorkerHandle, timeout: float) -> bool:
        worker.draining = True
        try:
            header, _body = await asyncio.wait_for(
                self._dispatch_to(worker, "drain", {"timeout": timeout}),
                timeout + 5.0,
            )
        except (WorkerCrashed, asyncio.TimeoutError, ServiceUnavailable):
            return False
        return bool((header.get("payload") or {}).get("drained"))

    def close(self) -> None:
        """Stop supervision and terminate every worker (idempotent)."""
        self._closing = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        for task in list(self._tasks):
            task.cancel()
        for slot in self._slots:
            if slot.restart_task is not None:
                slot.restart_task.cancel()
            worker = slot.worker
            if worker is None:
                continue
            worker.retired = True
            self._close_pipe(worker)
            self._terminate(worker.proc)
            slot.worker = None
        # Workers replaced by a reload still draining when close() lands:
        # their _retire task is cancelled above, so finish the job here.
        for worker in list(self._retiring):
            worker.retired = True
            self._close_pipe(worker)
            self._terminate(worker.proc)
        self._retiring.clear()

    @staticmethod
    def _close_pipe(worker: WorkerHandle) -> None:
        try:
            worker.writer.close()
        except RuntimeError:
            pass  # event loop already gone

    @staticmethod
    def _reap_now(proc: subprocess.Popen) -> None:
        """Kill outright and reap — for teardown paths that cannot wait."""
        try:
            proc.kill()
        except OSError:
            pass
        proc.wait(timeout=5.0)

    @staticmethod
    def _terminate(proc: subprocess.Popen) -> None:
        """Closed pipe → worker retires on EOF; escalate if it lingers."""
        try:
            proc.wait(timeout=2.0)
            return
        except subprocess.TimeoutExpired:
            pass
        proc.terminate()
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5.0)

    # ------------------------------------------------------------------ #
    # spawning and supervision
    # ------------------------------------------------------------------ #

    def _worker_spec(self, slot_index: int) -> dict:
        return {
            "slot": slot_index,
            "simplify": self.config.simplify,
            "disk_cache": self.config.disk_cache,
            "service": service_config_to_spec(self.config.worker_service),
            "fault_plan": self.config.worker_fault_plan,
        }

    async def _spawn_worker(self, slot: _Slot) -> WorkerHandle:
        """Spawn one worker and await its ready frame (or raise SpawnFailed)."""
        import socket as socket_mod

        parent_sock, child_sock = socket_mod.socketpair()
        env = dict(os.environ)
        env[WORKER_ENV] = json.dumps(self._worker_spec(slot.index))
        # Make ``-m repro.serve.pool`` importable regardless of the
        # child's cwd: point PYTHONPATH at the directory holding the
        # package we ourselves were imported from.
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
        # A fresh interpreter via ``-c`` rather than ``-m``: the package
        # __init__ already imports ``repro.serve.pool``, and runpy warns
        # (loudly, under -W error) when re-executing an imported module.
        entry = "import sys; from repro.serve.pool import main; sys.exit(main(sys.argv[1:]))"
        try:
            proc = subprocess.Popen(
                [sys.executable, "-c", entry, "--fd", str(child_sock.fileno())],
                pass_fds=(child_sock.fileno(),),
                env=env,
            )
        except OSError as error:
            parent_sock.close()
            child_sock.close()
            raise SpawnFailed(f"worker spawn failed: {error}") from error
        child_sock.close()
        try:
            reader, writer = await asyncio.open_connection(sock=parent_sock)
        except OSError as error:
            parent_sock.close()
            self._terminate(proc)
            raise SpawnFailed(f"worker pipe failed: {error}") from error
        except asyncio.CancelledError:
            # close() cancelled a restart mid-spawn: reap, don't leak.
            parent_sock.close()
            self._reap_now(proc)
            raise
        try:
            header, _body = await asyncio.wait_for(
                read_frame(reader), self.config.boot_timeout
            )
            if header.get("op") != "ready":
                raise SpawnFailed(f"unexpected first frame {header.get('op')!r}")
        except (asyncio.IncompleteReadError, ConnectionError) as error:
            writer.close()
            self._terminate(proc)
            raise SpawnFailed("worker exited before ready") from error
        except asyncio.TimeoutError as error:
            writer.close()
            self._terminate(proc)
            raise SpawnFailed(
                f"worker not ready within {self.config.boot_timeout:.1f}s"
            ) from error
        except asyncio.CancelledError:
            writer.close()
            self._reap_now(proc)
            raise
        worker = WorkerHandle(slot.index, proc, reader, writer, int(header.get("pid", proc.pid)))
        worker.ready = True
        worker.ready_at = self.clock()
        worker.last_pong = worker.ready_at
        slot.spawns += 1
        worker.reader_task = asyncio.create_task(self._read_worker(slot, worker))
        return worker

    async def _bring_up(self, slot: _Slot) -> bool:
        """Spawn into ``slot``, applying the fast-death budget on failure."""
        while not self._closing and not slot.broken:
            try:
                slot.worker = await self._spawn_worker(slot)
                return True
            except SpawnFailed:
                self.stats.spawn_failures += 1
                if not self._record_fast_death(slot):
                    return False
                await asyncio.sleep(self.backoff_delay(slot.fast_deaths))
        return False

    def backoff_delay(self, consecutive: int) -> float:
        """Exponential restart backoff: ``base * 2^(n-1)``, capped."""
        exponent = max(0, consecutive - 1)
        return min(self.config.backoff_base * (2**exponent), self.config.backoff_cap)

    def _record_fast_death(self, slot: _Slot) -> bool:
        """Count one fast death; ``False`` once the budget is tripped."""
        slot.fast_deaths += 1
        if slot.fast_deaths > self.config.restart_budget:
            slot.broken = True
            return False
        return True

    async def _read_worker(self, slot: _Slot, worker: WorkerHandle) -> None:
        try:
            while True:
                header, body = await read_frame(worker.reader)
                if header.get("op") == "response":
                    entry = worker.pending.pop(header.get("id"), None)
                    if entry is not None and entry.future is not None:
                        if not entry.future.done():
                            entry.future.set_result((header, body))
        except (asyncio.IncompleteReadError, ConnectionError, ValueError, OSError):
            pass
        except asyncio.CancelledError:
            return  # teardown: exit accounting is handled by close()
        self._on_worker_exit(slot, worker)

    def _on_worker_exit(self, slot: _Slot, worker: WorkerHandle) -> None:
        worker.closed = True
        worker.ready = False
        for entry in worker.pending.values():
            if entry.future is not None and not entry.future.done():
                entry.future.set_exception(
                    WorkerCrashed(f"worker {worker.pid} (slot {slot.index}) died")
                )
        worker.pending.clear()
        self._close_pipe(worker)
        loop = asyncio.get_running_loop()
        # Reap the corpse off-loop: wait() on a process that just EOF'd is
        # near-instant, but never worth stalling dispatch for.  Reaps go in
        # ``_reaps`` (never cancelled) so close() can't orphan a zombie.
        reap = loop.run_in_executor(None, self._terminate, worker.proc)
        self._reaps.add(reap)
        reap.add_done_callback(self._reaps.discard)
        if slot.worker is worker:
            slot.worker = None
        if worker.retired or self._closing or slot.broken:
            return
        self.stats.worker_crashes += 1
        uptime = self.clock() - worker.ready_at
        if uptime >= self.config.min_uptime:
            slot.fast_deaths = 0
        if not self._record_fast_death(slot):
            return
        slot.restart_task = loop.create_task(self._restart_slot(slot))

    async def _restart_slot(self, slot: _Slot) -> None:
        await asyncio.sleep(self.backoff_delay(slot.fast_deaths))
        if self._closing or slot.broken:
            return
        if await self._bring_up(slot):
            self.stats.worker_restarts += 1

    def _kill_worker(self, worker: WorkerHandle) -> None:
        """Hard-kill a live worker (liveness violation or test-injected)."""
        worker.ready = False
        try:
            worker.proc.kill()
        except OSError:
            pass
        # EOF on the pipe drives the normal exit path in _read_worker.

    def kill_slot(self, index: int) -> int | None:
        """Test/chaos hook: SIGKILL the worker in ``index``; returns its pid."""
        worker = self._slots[index].worker
        if worker is None or worker.closed:
            return None
        pid = worker.pid
        self._kill_worker(worker)
        return pid

    async def _monitor(self) -> None:
        while not self._closing:
            await asyncio.sleep(self.config.heartbeat_interval)
            now = self.clock()
            for slot in self._slots:
                worker = slot.worker
                if worker is None or not worker.ready or worker.closed:
                    continue
                oldest = min((entry.at for entry in worker.pending.values()), default=None)
                if oldest is not None and now - oldest > self.config.request_deadline:
                    self.stats.deadline_kills += 1
                    self._kill_worker(worker)
                    continue
                if now - worker.last_pong > self.config.heartbeat_timeout:
                    self.stats.heartbeat_timeouts += 1
                    self._kill_worker(worker)
                    continue
                self._spawn_task(self._ping(worker))

    def _spawn_task(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _ping(self, worker: WorkerHandle) -> None:
        try:
            header, _body = await asyncio.wait_for(
                self._dispatch_to(worker, "ping", {}),
                self.config.heartbeat_timeout,
            )
        except (WorkerCrashed, asyncio.TimeoutError, ServiceUnavailable):
            return  # staleness (or EOF) is handled by the monitor/reader
        except asyncio.CancelledError:
            return
        worker.last_pong = self.clock()
        worker.health = header.get("payload") or {}

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _pick_slot(self, affinity: str | None, exclude: set[int]) -> _Slot | None:
        count = len(self._slots)
        if affinity:
            start = int(affinity[:16], 16) % count
        else:
            start = next(self._rr) % count
        for offset in range(count):
            slot = self._slots[(start + offset) % count]
            if slot.index in exclude:
                continue
            worker = slot.worker
            if worker is not None and worker.available:
                return slot
        return None

    async def dispatch(
        self, op: str, fields: dict, affinity: str | None = None, body: bytes = b""
    ) -> tuple[dict, bytes, int]:
        """Send one operation to the pool; returns (header, body, slot).

        A request whose worker dies mid-flight is transparently retried
        once on a sibling slot; a second crash (or an empty pool) sheds
        with 503.  Worker-reported errors are mapped back onto the service
        error taxonomy and never retried here (the worker already applied
        its own retry policy).
        """
        if current_plan() is not None:
            # Chaos hook on the dispatch path.  ``latency`` faults sleep in
            # a thread so an injected delay never stalls the event loop;
            # other kinds surface as a shed (the dispatch never happened).
            try:
                await asyncio.to_thread(fault_point, "serve.dispatch.latency")
            except InjectedFault as error:
                self.stats.dispatch_faults += 1
                raise ServiceUnavailable(f"injected dispatch fault: {error}") from error
        tried: set[int] = set()
        for attempt in range(2):
            slot = self._pick_slot(affinity, tried)
            if slot is None:
                break
            worker = slot.worker
            assert worker is not None
            self.stats.dispatched += 1
            try:
                header, payload = await self._dispatch_to(worker, op, fields, body)
                return header, payload, slot.index
            except WorkerCrashed:
                tried.add(slot.index)
                if attempt == 0:
                    self.stats.failovers += 1
                    continue
                raise ServiceUnavailable(
                    "worker crashed twice for this request; retry later"
                ) from None
        raise ServiceUnavailable("no ready workers", retry_after=2.0)

    async def _dispatch_to(
        self, worker: WorkerHandle, op: str, fields: dict, body: bytes = b""
    ) -> tuple[dict, bytes]:
        if worker.closed:
            raise WorkerCrashed(f"worker {worker.pid} is gone")
        rid = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        entry = _Pending(future, self.clock())
        worker.pending[rid] = entry
        try:
            worker.writer.write(encode_frame({"op": op, "id": rid, **fields}, body))
            await worker.writer.drain()
        except (ConnectionError, RuntimeError, OSError) as error:
            worker.pending.pop(rid, None)
            raise WorkerCrashed(f"worker {worker.pid} pipe failed: {error}") from error
        try:
            header, response_body = await future
        except asyncio.CancelledError:
            # The waiter was shed/timed out.  Leave a tombstone: the work
            # is still running in the worker and the deadline monitor must
            # keep supervising it; its eventual response is discarded.
            if rid in worker.pending:
                entry.future = None
            raise
        if header.get("ok"):
            return header, response_body
        kind = header.get("kind")
        message = header.get("error", "worker error")
        if kind == "bad_request":
            raise BadRequest(message)
        if kind == "unavailable":
            raise ServiceUnavailable(message, retry_after=float(header.get("retry_after", 1.0)))
        raise RuntimeError(f"worker error: {message}")

    # ------------------------------------------------------------------ #
    # hot reload
    # ------------------------------------------------------------------ #

    async def reload(self) -> dict:
        """Roll every worker, one slot at a time, without dropping below N−1.

        Returns ``{"replaced": [...pids...], "failed": [...slots...]}``.
        """
        self.stats.reloads += 1
        self.stats.reload_min_ready = self.ready_count()
        replaced: list[int] = []
        failed: list[int] = []
        for slot in self._slots:
            if self._closing:
                break
            old = slot.worker
            if slot.broken or old is None or old.closed:
                # A dead/broken slot cannot lower the ready count; a reload
                # is an explicit operator action, so forgive the budget and
                # try to bring a fresh worker up.
                slot.broken = False
                slot.fast_deaths = 0
                if slot.restart_task is not None:
                    slot.restart_task.cancel()
                if await self._bring_up(slot):
                    replaced.append(self._slots[slot.index].worker.pid)  # type: ignore[union-attr]
                else:
                    failed.append(slot.index)
                self._note_reload_ready()
                continue
            old.draining = True
            self._note_reload_ready()
            try:
                replacement = await self._spawn_worker(slot)
            except SpawnFailed:
                self.stats.spawn_failures += 1
                old.draining = False  # keep serving on the old worker
                failed.append(slot.index)
                continue
            old.retired = True
            slot.worker = replacement
            slot.fast_deaths = 0
            self._note_reload_ready()
            replaced.append(replacement.pid)
            # Register before scheduling: if close() lands before the task
            # ever runs, the worker must already be visible to cleanup.
            self._retiring.add(old)
            self._spawn_task(self._retire(old))
        return {"replaced": replaced, "failed": failed}

    def _note_reload_ready(self) -> None:
        ready = self.ready_count()
        if self.stats.reload_min_ready < 0 or ready < self.stats.reload_min_ready:
            self.stats.reload_min_ready = ready

    async def _retire(self, worker: WorkerHandle) -> None:
        """Gracefully stop a replaced worker: drain, then close its pipe."""
        try:
            await asyncio.wait_for(
                self._dispatch_to(worker, "drain", {"timeout": 10.0}), 15.0
            )
        except (WorkerCrashed, asyncio.TimeoutError, ServiceUnavailable, RuntimeError):
            pass
        finally:
            self._close_pipe(worker)
            self._retiring.discard(worker)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def slots_snapshot(self) -> list[dict]:
        snapshot = []
        for slot in self._slots:
            worker = slot.worker
            if slot.broken:
                state = "broken"
            elif worker is None:
                state = "restarting"
            elif worker.draining:
                state = "draining"
            elif worker.available:
                state = "ready"
            else:
                state = "down"
            entry: dict = {
                "slot": slot.index,
                "state": state,
                "spawns": slot.spawns,
                "fast_deaths": slot.fast_deaths,
            }
            if worker is not None:
                entry["pid"] = worker.pid
                entry["in_flight"] = len(worker.pending)
                health = worker.health
                if health:
                    entry["worker_status"] = health.get("status")
                    entry["disk_degraded"] = health.get("disk_degraded")
                    entry["engine_breakers"] = health.get("engine_breakers")
            snapshot.append(entry)
        return snapshot

    def aggregated_breakers(self) -> dict[str, str]:
        """Worst observed breaker state per engine across all workers."""
        merged: dict[str, str] = {}
        for slot in self._slots:
            worker = slot.worker
            if worker is None:
                continue
            for mode, state in (worker.health.get("engine_breakers") or {}).items():
                best = merged.get(mode)
                if best is None or _BREAKER_SEVERITY.get(state, 0) > _BREAKER_SEVERITY.get(best, 0):
                    merged[mode] = state
        return merged


class PoolService(RequestFrontEnd):
    """Duck-types :class:`CompileService` for :class:`CompileServer`,
    backed by the supervised worker pool.

    The front half here is deliberately parse-free: admission control and
    the text → fingerprint memo run on the event loop, and everything that
    touches SQL — fingerprinting included — runs in the workers.  A text
    seen for the first time costs one extra (cheap, round-robin) worker
    round trip for its key; after that every request routes by true
    canonical fingerprint.  ``X-Repro-Served`` values gain a ``@wN``
    suffix naming the answering slot.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        pool_config: PoolConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(config=config)
        self.pool_config = pool_config or PoolConfig()
        self.supervisor = WorkerSupervisor(self.pool_config, clock=clock)
        # In-flight key lookups: concurrent first sights of the same text
        # share one worker ``fingerprint`` round trip.
        self._key_inflight: dict[str, asyncio.Task] = {}

    async def start(self) -> int:
        return await self.supervisor.start()

    # ------------------------------------------------------------------ #
    # routing identity
    # ------------------------------------------------------------------ #

    async def _affinity_key(self, sql: str) -> tuple[str, str]:
        """(text, fingerprint) for routing: memo → pooled key lookup."""
        text = self.request_text(sql)
        fingerprint = self._text_keys.get(text)
        if fingerprint is not None:
            return text, fingerprint
        task = self._key_inflight.get(text)
        if task is None:
            task = asyncio.get_running_loop().create_task(self._fetch_key(text))
            self._key_inflight[text] = task

            def _on_done(done: asyncio.Task) -> None:
                self._key_inflight.pop(text, None)
                if not done.cancelled():
                    done.exception()

            task.add_done_callback(_on_done)
        try:
            # Shielded: a shed waiter must not cancel the lookup that
            # concurrent duplicates (and the memo) are waiting on.
            return text, await asyncio.shield(task)
        except BadRequest:
            self.stats.bad_requests += 1
            raise

    async def _fetch_key(self, text: str) -> str:
        header, _body, _slot = await self.supervisor.dispatch(
            "fingerprint", {"sql": text}
        )
        fingerprint = str((header.get("payload") or {}).get("fingerprint", ""))
        self._text_keys.put(text, fingerprint)
        return fingerprint

    # ------------------------------------------------------------------ #
    # endpoints (same shapes as CompileService)
    # ------------------------------------------------------------------ #

    async def fingerprint(self, sql: str) -> ServedResponse:
        self.stats.count("fingerprint")

        async def _fingerprint() -> ServedResponse:
            _text, fingerprint = await self._affinity_key(sql)
            return ServedResponse.encode(
                {"fingerprint": fingerprint}, "fingerprint"
            )

        return await self._admitted(_fingerprint())

    async def compile(self, sql: str, formats: tuple[str, ...]) -> ServedResponse:
        self.stats.count("compile")
        return await self._admitted(self._dispatch_compile(sql, formats))

    async def render(self, sql: str, fmt: str) -> ServedResponse:
        self.stats.count("render")

        async def _render() -> ServedResponse:
            if fmt not in RENDERERS:
                self.stats.bad_requests += 1
                raise BadRequest(f"unknown format {fmt!r}; known: {sorted(RENDERERS)}")
            text, fingerprint = await self._affinity_key(sql)
            header, body, slot = await self.supervisor.dispatch(
                "render", {"sql": text, "format": fmt}, affinity=fingerprint
            )
            return ServedResponse({}, body, f"{header.get('served', '?')}@w{slot}")

        return await self._admitted(_render())

    async def _dispatch_compile(self, sql: str, formats: tuple[str, ...]) -> ServedResponse:
        for fmt in formats:
            if fmt not in RENDERERS:
                self.stats.bad_requests += 1
                raise BadRequest(f"unknown format {fmt!r}; known: {sorted(RENDERERS)}")
        text, fingerprint = await self._affinity_key(sql)
        header, body, slot = await self.supervisor.dispatch(
            "compile", {"sql": text, "formats": list(formats)}, affinity=fingerprint
        )
        return ServedResponse({}, body, f"{header.get('served', '?')}@w{slot}")

    def healthz(self) -> dict:
        """Aggregated pool health; stays synchronous (cached heartbeat data).

        ``degraded`` — a broken/restarting slot, a degraded worker, or a
        non-closed breaker anywhere in the pool — still answers 200; only
        ``draining`` is 503, exactly as in single-process mode.
        """
        self.stats.count("healthz")
        slots = self.supervisor.slots_snapshot()
        ready = self.supervisor.ready_count()
        breakers = self.supervisor.aggregated_breakers()
        workers_degraded = any(
            entry.get("worker_status") == "degraded" or entry.get("disk_degraded")
            for entry in slots
        )
        if self._draining:
            status = "draining"
        elif (
            ready < self.pool_config.workers
            or workers_degraded
            or any(state != "closed" for state in breakers.values())
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "mode": "pool",
            "workers": self.pool_config.workers,
            "ready_workers": ready,
            "broken_slots": [s["slot"] for s in slots if s["state"] == "broken"],
            "pending": self._pending,
            "in_flight": sum(s.get("in_flight", 0) for s in slots),
            "worker_restarts": self.supervisor.stats.worker_restarts,
            "worker_crashes": self.supervisor.stats.worker_crashes,
            "failovers": self.supervisor.stats.failovers,
            "disk_degraded": any(bool(s.get("disk_degraded")) for s in slots),
            "engine_breakers": breakers,
            "slots": slots,
        }

    async def stats_payload(self) -> dict:
        """The /stats document: front-end, supervisor and per-worker counters."""
        self.stats.count("stats")
        workers_stats: list[dict] = []
        totals = {"compiles": 0, "lru_hits": 0, "coalesced": 0, "shed": 0, "timeouts": 0}
        for slot in self.supervisor._slots:
            worker = slot.worker
            if worker is None or not worker.ready:
                continue
            try:
                header, _body = await asyncio.wait_for(
                    self.supervisor._dispatch_to(worker, "stats", {}), 5.0
                )
            except (WorkerCrashed, asyncio.TimeoutError, ServiceUnavailable, RuntimeError):
                continue
            payload = header.get("payload") or {}
            payload["slot"] = slot.index
            workers_stats.append(payload)
            for key in totals:
                totals[key] += int(payload.get(key, 0))
        return {
            "mode": "pool",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "workers": self.pool_config.workers,
            "ready_workers": self.supervisor.ready_count(),
            "pending": self._pending,
            "requests": dict(self.stats.requests),
            # Worker-side totals: the pool-wide view of the cache hierarchy.
            **totals,
            "bad_requests": self.stats.bad_requests,
            "internal_errors": self.stats.internal_errors,
            "front_shed": self.stats.shed,
            "front_timeouts": self.stats.timeouts,
            "stage_cache_clears": self.stats.stage_cache_clears,
            "pool": self.supervisor.stats.as_dict(),
            "workers_stats": workers_stats,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def reload(self) -> dict:
        """SIGHUP entry point: roll the workers one at a time."""
        return await self.supervisor.reload()

    async def drain(self, timeout: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout
        while self._pending and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        remaining = max(1.0, deadline - time.monotonic())
        drained = await self.supervisor.drain(remaining)
        return drained and not self._pending

    def close(self) -> None:
        self.supervisor.close()


def worker_pids(service: PoolService) -> list[int]:
    """Live worker pids (CLI/diagnostics helper)."""
    return [
        slot.worker.pid
        for slot in service.supervisor._slots
        if slot.worker is not None and not slot.worker.closed
    ]

