"""Shard pools for the sharded serving tier.

:class:`~repro.serve.sharded.ShardedQueryService` coordinates every
sharded query through one interface: ``pool.handle(shard_id).request(
<wire message>)`` (plus ``shard_ids``, ``promote``, ``cold_cache`` and
``close`` on the pool).  One session implementation answers those
messages — :class:`ShardStack`, a shard's executor, caches and open
searches — and two pools serve it:

* :class:`InProcessShardPool` (``mode="thread"``) keeps one stack per
  shard in this interpreter; a handle *is* the stack, so a request is a
  direct method call, with no pickling and no pipe.
* :class:`ProcessShardPool` (``mode="process"``) moves each shard's
  *entire* stack — :class:`~repro.storage.device.BlockDevice`, buffer
  pool, cube snapshot, shared caches — into a long-lived **worker
  process** that owns it exclusively, so shard steps run GIL-free:

  * **Bootstrap** — workers start from the spawn context
    (:func:`repro.core.parallel.spawn_context`) and warm-start from the
    shard's persisted :class:`~repro.persist.Workspace` snapshot,
    verified against the SHA-256 pin in the shard manifest.  A respawned
    worker therefore always serves byte-identical state to the one it
    replaces.
  * **Protocol** — length-prefixed pickle frames (:mod:`repro.serve.wire`)
    over a :func:`multiprocessing.Pipe`; one request at a time per
    worker, sessions keyed by request id so many front-end queries can
    interleave rounds on one worker.
  * **Failure** — a worker death mid-conversation surfaces as a typed
    :class:`~repro.serve.wire.WorkerDiedError`; the pool respawns the
    worker from the pinned snapshot (bounded, with retries) while the
    affected queries degrade to the
    :class:`~repro.core.executor.QueryAbortedError` path.

Each closed session reports the per-query counter deltas of the stack's
own :class:`~repro.obs.metrics.MetricsRegistry` and its completed span
trees, and the front end folds them into its registry/span tree, so
``bench profile`` and the golden-trace suite see one coherent tree per
query in either mode.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import replace
from pathlib import Path

from ..core.anyk import AnyKCursor
from ..core.executor import (
    ExecutorTrace,
    ProgressiveSearch,
    RankingCubeExecutor,
    _push_topk,
)
from ..core.reverse import count_preceding
from ..core.parallel import spawn_context
from ..obs.metrics import MetricsRegistry, diff_counter_items
from ..obs.tracing import Tracer
from ..shard.builder import clone_shard
from ..shard.map import ShardError
from ..storage.device import StorageError
from . import wire
from .cache import BoundMemo, PseudoBlockCache

#: Seconds the front end waits on a worker reply before declaring it dead.
DEFAULT_WORKER_TIMEOUT = 60.0
#: Seconds a fresh worker gets to load its snapshot and report ready.
DEFAULT_START_TIMEOUT = 120.0
#: Respawn attempts before the pool gives a shard up as unservable.
DEFAULT_RESPAWN_RETRIES = 2


class ProcPoolError(RuntimeError):
    """Pool misuse or an unservable shard (respawn retries exhausted)."""


# ----------------------------------------------------------------------
# the shard session implementation (both pools)
# ----------------------------------------------------------------------
class _Session:
    """One open progressive search (or any-k cursor) on a shard stack.

    ``cursor`` is None for batched top-k sessions; enumeration sessions
    (:class:`~repro.serve.wire.OpenEnum`) hold their
    :class:`~repro.core.anyk.AnyKCursor` here and alias ``search`` to the
    cursor's underlying :class:`ProgressiveSearch` so accounting
    (:func:`_session_blocks`, :class:`~repro.serve.wire.CloseSearch`)
    works identically for both kinds.
    """

    __slots__ = (
        "request_id", "search", "trace", "tracer", "io_before",
        "counters_before", "local_topk", "k", "rounds", "cursor",
    )

    def __init__(self, request_id, search, trace, tracer, io_before, counters_before, k, cursor=None):
        self.request_id = request_id
        self.search = search
        self.trace = trace
        self.tracer = tracer
        self.io_before = io_before
        self.counters_before = counters_before
        self.local_topk: list[tuple[float, int]] = []
        self.k = k
        self.rounds = 0
        self.cursor = cursor


class ShardStack:
    """One shard's serving stack and the sessions open on it.

    A worker process owns exactly one and answers every request it
    receives with :meth:`request`; :class:`InProcessShardPool` keeps one
    per shard and hands it out as the shard's handle.  Either way the
    same code opens, steps and closes every session.
    """

    #: A stack in this interpreter never dies (only a worker process can).
    alive = True

    def __init__(self, shard_id: int, db, table, cube, options: dict):
        self.shard_id = shard_id
        self.db = db
        self.cube = cube
        self.registry = getattr(db.pool, "registry", None) or MetricsRegistry()
        self._listener = None
        if options.get("share_caches", True):
            self.pseudo_cache = PseudoBlockCache(registry=self.registry)
            self.bound_memo = BoundMemo(registry=self.registry)
            # appends and compaction swaps must drop cached pseudo blocks
            self._listener = self.pseudo_cache.invalidate_cuboids
            cube.add_invalidation_listener(self._listener)
        else:
            self.pseudo_cache = self.bound_memo = None
        self.executor = RankingCubeExecutor(
            cube,
            table,
            buffer_pseudo_blocks=options.get("buffer_pseudo_blocks", True),
            pseudo_cache=self.pseudo_cache,
            bound_memo=self.bound_memo,
        )
        self.sessions: dict[int, _Session] = {}

    def close(self) -> None:
        """Unhook the cache from the cube (idempotent)."""
        if self._listener is not None:
            self.cube.remove_invalidation_listener(self._listener)
            self._listener = None

    def _open(self, msg, query, *, enum: bool) -> _Session:
        if msg.request_id in self.sessions:
            raise wire.WireError(f"session {msg.request_id} already open")
        trace = ExecutorTrace()
        io_before = self.db.io_snapshot()
        counters_before = self.registry.counter_items()
        if enum:
            cursor = AnyKCursor(self.executor, query, trace, tracer=None)
            search = cursor.search
        else:
            search, cursor = ProgressiveSearch(self.executor, query, trace), None
        session = _Session(
            msg.request_id, search, trace,
            Tracer(self.registry) if msg.trace else None,
            io_before, counters_before, query.k, cursor=cursor,
        )
        self.sessions[msg.request_id] = session
        return session

    def request(self, msg):
        """Serve one wire request; ``None`` answers :class:`~repro.serve
        .wire.Shutdown`.  Typed storage errors propagate to the caller."""
        if isinstance(msg, wire.OpenSearch):
            session = self._open(msg, msg.query, enum=False)
            return self._step_session(session, msg.kth, msg.max_steps, opening=True)
        if isinstance(msg, wire.StepBatch):
            session = self.sessions.get(msg.request_id)
            if session is None:
                raise wire.WireError(f"no open session {msg.request_id}")
            return self._step_session(session, msg.kth, msg.max_steps, opening=False)
        if isinstance(msg, wire.OpenEnum):
            query = msg.query
            if query.projection is not None:
                # the front end projects from global tids after the merge
                query = replace(query, projection=None)
            return self._enum_next(self._open(msg, query, enum=True), msg.count)
        if isinstance(msg, wire.StepNext):
            session = self.sessions.get(msg.request_id)
            if session is None or session.cursor is None:
                raise wire.WireError(f"no open enum session {msg.request_id}")
            return self._enum_next(session, msg.count)
        if isinstance(msg, wire.ReverseCount):
            io_before = self.db.io_snapshot()
            counters_before = self.registry.counter_items()
            preceding, sub = count_preceding(
                self.executor, msg.query, msg.t_score, msg.tie_tid
            )
            return wire.ReverseCounted(
                request_id=msg.request_id,
                preceding=preceding,
                blocks_accessed=sub.blocks_accessed,
                candidates_examined=sub.candidates_examined,
                tuples_examined=sub.tuples_examined,
                device_reads=self.db.io_since(io_before).reads,
                counter_deltas=diff_counter_items(
                    counters_before, self.registry.counter_items()
                ),
            )
        if isinstance(msg, wire.CloseSearch):
            session = self.sessions.pop(msg.request_id, None)
            if session is None:
                raise wire.WireError(f"no open session {msg.request_id}")
            result = session.search.result
            return wire.SearchClosed(
                request_id=msg.request_id,
                blocks_accessed=result.blocks_accessed,
                candidates_examined=result.candidates_examined,
                tuples_examined=result.tuples_examined,
                device_reads=self.db.io_since(session.io_before).reads,
                counter_deltas=diff_counter_items(
                    session.counters_before, self.registry.counter_items()
                ),
                spans=list(session.tracer.roots) if session.tracer is not None else [],
            )
        if isinstance(msg, wire.ColdCache):
            self.db.cold_cache()
            if self.pseudo_cache is not None:
                self.pseudo_cache.clear()
            if self.bound_memo is not None:
                self.bound_memo.clear()
            return wire.Ack()
        if isinstance(msg, wire.Ping):
            return wire.Pong(shard_id=self.shard_id, pid=os.getpid(), rows=0)
        if isinstance(msg, wire.Shutdown):
            return None
        raise wire.WireError(f"unknown request {type(msg).__name__}")

    def _step_session(self, session: _Session, kth, max_steps, *, opening: bool):
        """Run one batch (plus delta rows when opening), traced if requested."""
        delta_rows: list[tuple[float, int]] = []
        if session.tracer is not None:
            with session.tracer.span(
                "shard_batch", shard=self.shard_id, round=session.rounds
            ) as span:
                if opening:
                    delta_rows = session.search.delta_rows()
                scored, steps = _run_batch(session, kth, max_steps)
                span.add_many(steps=steps, scored=len(scored))
                if opening:
                    span.add("delta_rows", len(delta_rows))
        else:
            if opening:
                delta_rows = session.search.delta_rows()
            scored, steps = _run_batch(session, kth, max_steps)
        for score, tid in delta_rows:
            _push_topk(session.local_topk, session.k, score, tid)
        session.rounds += 1
        return wire.SearchBatch(
            request_id=session.request_id,
            scored=scored,
            best_unseen=session.search.best_unseen,
            exhausted=session.search.exhausted,
            steps=steps,
            delta_rows=delta_rows,
        )

    def _enum_next(self, session: _Session, count: int):
        """Pull the next certified enumeration rows, traced if requested."""
        cursor = session.cursor
        if session.tracer is not None:
            with session.tracer.span(
                "shard_enum_batch", shard=self.shard_id, round=session.rounds
            ) as span:
                rows = cursor.next_batch(count)
                span.add_many(rows=len(rows))
        else:
            rows = cursor.next_batch(count)
        session.rounds += 1
        return wire.NextBatch(
            request_id=session.request_id,
            rows=[(row.score, row.tid) for row in rows],
            exhausted=cursor.exhausted,
        )


def _run_batch(session: _Session, kth: float | None, max_steps: int):
    """Step a session's search under the merge's continue rules.

    Stops at ``max_steps``, at exhaustion, when the global bound prunes
    the shard (``best_unseen > kth``, the strict complement of the
    merge's non-strict continue), or when the shard's *local* top-k is
    certified — locally certified means no further step can change this
    shard's contribution to any global answer, which is exactly where
    the naive per-shard executor stops too.
    """
    search = session.search
    scored: list[tuple[float, int]] = []
    steps = 0
    while steps < max_steps and not search.exhausted:
        bound = search.best_unseen
        if kth is not None and bound > kth:
            break
        if len(session.local_topk) >= session.k and bound > -session.local_topk[0][0]:
            break
        for score, tid in search.step():
            _push_topk(session.local_topk, session.k, score, tid)
            scored.append((score, tid))
        steps += 1
    return scored, steps


def _session_blocks(sessions: dict, msg) -> int:
    session = sessions.get(getattr(msg, "request_id", None))
    return session.search.result.blocks_accessed if session is not None else 0


# ----------------------------------------------------------------------
# in-process pool (thread mode)
# ----------------------------------------------------------------------
class InProcessShardPool:
    """Every shard's :class:`ShardStack` in this interpreter.

    A handle is the stack itself, so ``handle(sid).request(msg)`` is a
    direct call.  A search opens without stepping and then steps once per
    round: a round costs only a function call, so the merge refreshes its
    global k-th bound after every block, as the serial executor does.

    Stacks are created on demand, so a shard whose cube was built after
    the pool (first append into an empty shard) is served too.  With
    ``replicas > 0`` every shard keeps that many
    :func:`~repro.shard.builder.clone_shard` copies; :meth:`promote`
    swaps one into the deployment when the primary's storage fails.
    """

    #: Frontier steps shipped with an opening and with each round.
    open_steps = 0
    round_steps = 1

    def __init__(
        self,
        cube,
        *,
        options: dict | None = None,
        registry: MetricsRegistry | None = None,
        fault_hook=None,
        replicas: int = 0,
    ):
        self.cube = cube
        self.options = dict(options or {})
        self.registry = registry if registry is not None else MetricsRegistry()
        #: test seam: ``fault_hook("promote", shard_id)`` fires before a
        #: replica is taken off the bench
        self.fault_hook = fault_hook
        self.replicas = replicas
        self._stacks: dict[int, ShardStack] = {}
        self._standbys: dict[int, list] = {}
        self._lock = threading.Lock()
        for shard_id in self.shard_ids:
            self.handle(shard_id)
        self.refresh_replicas()

    @property
    def shard_ids(self) -> list[int]:
        return [s.shard_id for s in self.cube.shards if s.cube is not None]

    def handle(self, shard_id: int) -> ShardStack:
        stack = self._stacks.get(shard_id)
        if stack is not None:
            return stack
        with self._lock:
            stack = self._stacks.get(shard_id)
            if stack is None:
                shard = self.cube.shards[shard_id]
                if shard.cube is None:
                    raise ProcPoolError(f"shard {shard_id} holds no rows")
                stack = self._stacks[shard_id] = _stack_of(shard, self.options)
            return stack

    def refresh_replicas(self) -> None:
        """(Re)clone the warm replicas from the current shards.

        Replicas are point-in-time clones: rows appended after cloning
        make a replica stale, and a stale replica is *rejected* at
        promotion time rather than silently losing rows.  Call this after
        appends to re-arm failover.
        """
        with self._lock:
            self._standbys = {
                shard.shard_id: [clone_shard(shard) for _ in range(self.replicas)]
                for shard in self.cube.shards
                if shard.cube is not None
            }

    def promote(self, shard_id: int) -> ShardStack:
        """Swap a warm replica in for ``shard_id``'s primary.

        Raises :class:`ProcPoolError` when no replica remains or every
        remaining one is stale.
        """
        with self._lock:
            bench = self._standbys.get(shard_id, [])
            while bench:
                # fire the fault seam *before* consuming the clone: a
                # crash at the promotion instant must not burn the warm
                # standby it never installed
                if self.fault_hook is not None:
                    self.fault_hook("promote", shard_id)
                replica = bench.pop(0)
                try:
                    self.cube.replace_shard(shard_id, replica)
                except ShardError:
                    continue  # stale or mismatched clone
                old = self._stacks.pop(shard_id, None)
                if old is not None:
                    old.close()
                stack = self._stacks[shard_id] = _stack_of(replica, self.options)
                self.registry.counter(
                    "shard.replica.promotions", shard=str(shard_id)
                ).inc()
                # refill the bench from the healthy replica so a second
                # failure still finds a warm copy
                bench.append(clone_shard(replica))
                return stack
        raise ProcPoolError(f"shard {shard_id} has no usable replica left")

    def cold_cache(self) -> None:
        """Drop every shard's buffered pages and shared caches."""
        for shard_id in self.shard_ids:
            self.handle(shard_id).request(wire.ColdCache())

    def cache_stats(self) -> dict[int, dict[str, int]]:
        """Per-shard pseudo-block cache counters (empty when disabled)."""
        return {
            shard_id: stack.pseudo_cache.stats.snapshot()
            for shard_id, stack in sorted(self._stacks.items())
            if stack.pseudo_cache is not None
        }

    def close(self) -> None:
        for stack in self._stacks.values():
            stack.close()


def _stack_of(shard, options: dict) -> ShardStack:
    return ShardStack(shard.shard_id, shard.db, shard.table, shard.cube, options)


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _verify_pinned_snapshot(directory: Path, entry: dict) -> bytes:
    """Read a shard snapshot and check it against its manifest pin."""
    from ..persist import PersistError

    path = directory / entry["file"]
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise PersistError(f"missing shard snapshot {entry['file']!r}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    if digest != entry["sha256"]:
        raise PersistError(
            f"shard snapshot {entry['file']!r} does not match its manifest "
            f"pin (expected {entry['sha256'][:12]}…, found {digest[:12]}…)"
        )
    return data


def _bootstrap_stack(directory: str, entry: dict, cube_name: str, options: dict):
    """Load the pinned snapshot and assemble the shard's serving stack."""
    from ..persist import Workspace

    directory = Path(directory)
    _verify_pinned_snapshot(directory, entry)
    workspace = Workspace.load(directory / entry["file"])
    db = workspace.db
    return ShardStack(
        int(entry["shard_id"]),
        db,
        db.table(cube_name),
        workspace.cubes[cube_name],
        options,
    )


def _shard_worker_main(conn, directory: str, entry: dict, cube_name: str, options: dict):
    """Worker process entry point: bootstrap, then the request loop."""
    try:
        stack = _bootstrap_stack(directory, entry, cube_name, options)
    except Exception as exc:
        try:
            wire.send_msg(conn, wire.WorkerFault(request_id=None, error=exc))
        finally:
            conn.close()
        return
    wire.send_msg(
        conn,
        wire.Pong(
            shard_id=stack.shard_id,
            pid=os.getpid(),
            rows=int(entry["rows"]),
            role=options.get("role", "primary"),
        ),
    )

    while True:
        try:
            msg = wire.recv_msg(conn)
        except (EOFError, OSError):
            break
        try:
            reply = stack.request(msg)
        except (StorageError, wire.WireError) as exc:
            reply = wire.WorkerFault(
                request_id=getattr(msg, "request_id", None),
                error=exc,
                blocks_accessed=_session_blocks(stack.sessions, msg),
            )
        except Exception as exc:  # never die silently on a bad request
            reply = wire.WorkerFault(
                request_id=getattr(msg, "request_id", None), error=exc
            )
        if reply is None:  # Shutdown
            break
        try:
            wire.send_msg(conn, reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ----------------------------------------------------------------------
# front-end side
# ----------------------------------------------------------------------
class ShardWorkerHandle:
    """Parent-side endpoint of one shard worker process."""

    def __init__(
        self,
        directory: str | Path,
        entry: dict,
        cube_name: str,
        options: dict,
        *,
        timeout: float = DEFAULT_WORKER_TIMEOUT,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        role: str = "primary",
        replica_index: int = 0,
    ):
        self.shard_id = int(entry["shard_id"])
        self.entry = entry
        self.timeout = timeout
        self.role = role
        self._lock = threading.Lock()
        ctx = spawn_context()
        self._conn, child_conn = ctx.Pipe()
        # Replicas get a distinct process name so the kill harness can
        # target primaries by name without sniping the warm standbys.
        if role == "primary":
            name = f"repro-shard-worker-{self.shard_id}"
        else:
            name = f"repro-shard-replica-{self.shard_id}-{replica_index}"
        worker_options = dict(options, role=role)
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, str(directory), dict(entry), cube_name, worker_options),
            name=name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        try:
            ready = wire.recv_msg(self._conn, timeout=start_timeout)
        except (TimeoutError, EOFError, OSError) as exc:
            self.kill()
            raise wire.WorkerDiedError(
                f"shard {self.shard_id} worker never came up: {exc}",
                shard_id=self.shard_id,
            ) from exc
        if isinstance(ready, wire.WorkerFault):
            self.kill()
            raise ready.error
        if not isinstance(ready, wire.Pong):
            self.kill()
            raise wire.WireError(f"unexpected ready message {ready!r}")

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def request(self, message, timeout: float | None = None):
        """One send/receive round trip; raises WorkerDiedError on hangup."""
        deadline = self.timeout if timeout is None else timeout
        with self._lock:
            try:
                wire.send_msg(self._conn, message)
                reply = wire.recv_msg(self._conn, timeout=deadline)
            except (EOFError, OSError, TimeoutError) as exc:
                raise wire.WorkerDiedError(
                    f"shard {self.shard_id} worker died mid-request "
                    f"({type(message).__name__}): {exc}",
                    shard_id=self.shard_id,
                ) from exc
        if isinstance(reply, wire.WorkerFault):
            raise reply.error
        return reply

    def kill(self) -> None:
        """Hard-stop the process and close the pipe (idempotent)."""
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
        finally:
            try:
                self._conn.close()
            except OSError:
                pass

    def shutdown(self, timeout: float = 5.0) -> None:
        """Orderly stop; falls back to kill when the worker does not exit."""
        try:
            with self._lock:
                wire.send_msg(self._conn, wire.Shutdown())
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.kill()


class ProcessShardPool:
    """All shard workers of one process-mode service, plus respawn logic.

    A round trip costs a pipe write, a pickle and a context switch, so
    every opening and every round ships ``step_batch`` frontier steps.
    """

    def __init__(
        self,
        directory: str | Path,
        manifest: dict,
        *,
        options: dict | None = None,
        timeout: float = DEFAULT_WORKER_TIMEOUT,
        respawn_retries: int = DEFAULT_RESPAWN_RETRIES,
        registry: MetricsRegistry | None = None,
        fault_hook=None,
        replicas: int = 0,
        step_batch: int = wire.DEFAULT_STEP_BATCH,
    ):
        self.open_steps = self.round_steps = step_batch
        self.directory = Path(directory)
        self.manifest = manifest
        self.cube_name = manifest["name"]
        self.options = dict(options or {})
        self.timeout = timeout
        self.respawn_retries = respawn_retries
        self.registry = registry if registry is not None else MetricsRegistry()
        #: test seam: ``fault_hook(point, shard_id)`` fires at protocol
        #: points ("respawn"/"promote" here; the service adds
        #: scatter/merge points)
        self.fault_hook = fault_hook
        #: warm standby workers per shard; every standby boots from the
        #: same pinned snapshot as its primary, so a promotion serves
        #: byte-identical state
        self.replicas = replicas
        self._handles: dict[int, ShardWorkerHandle] = {}
        self._standbys: dict[int, list[ShardWorkerHandle]] = {}
        self._replica_seq: dict[int, int] = {}
        self._respawn_locks: dict[int, threading.Lock] = {}
        self._closed = False
        for entry in manifest["shards"]:
            if entry["rows"] == 0:
                continue  # empty shard: no cube, nothing to serve
            shard_id = int(entry["shard_id"])
            self._respawn_locks[shard_id] = threading.Lock()
            self._handles[shard_id] = self._spawn(entry)
            self._replica_seq[shard_id] = 0
            self._standbys[shard_id] = [
                self._spawn_standby(shard_id) for _ in range(replicas)
            ]

    def _spawn(
        self, entry: dict, *, role: str = "primary", replica_index: int = 0
    ) -> ShardWorkerHandle:
        return ShardWorkerHandle(
            self.directory, entry, self.cube_name, self.options,
            timeout=self.timeout, role=role, replica_index=replica_index,
        )

    def _spawn_standby(self, shard_id: int) -> ShardWorkerHandle:
        index = self._replica_seq[shard_id]
        self._replica_seq[shard_id] = index + 1
        return self._spawn(
            self._entry(shard_id), role="replica", replica_index=index
        )

    def _entry(self, shard_id: int) -> dict:
        for entry in self.manifest["shards"]:
            if int(entry["shard_id"]) == shard_id:
                return entry
        raise ProcPoolError(f"no manifest entry for shard {shard_id}")

    @property
    def shard_ids(self) -> list[int]:
        return sorted(self._handles)

    def handle(self, shard_id: int) -> ShardWorkerHandle:
        """The live handle for a shard, reviving a dead worker first.

        With replicas a dead primary is revived by *promotion* (warm
        standby, no snapshot reload); without, by a cold respawn.
        """
        handle = self._handles.get(shard_id)
        if handle is None:
            raise ProcPoolError(f"shard {shard_id} has no worker (empty shard?)")
        if not handle.alive:
            if self.replicas:
                return self.promote(shard_id)
            return self.respawn(shard_id)
        return handle

    def respawn(self, shard_id: int) -> ShardWorkerHandle:
        """Replace a dead worker from its pinned snapshot (bounded retries).

        Thread-safe and idempotent: concurrent callers for the same shard
        serialize on a per-shard lock, and a handle that is already alive
        again (someone else respawned it first) is returned as-is.
        """
        if self._closed:
            raise ProcPoolError("pool is closed")
        lock = self._respawn_locks[shard_id]
        with lock:
            handle = self._handles.get(shard_id)
            if handle is not None and handle.alive:
                return handle
            entry = self._entry(shard_id)
            started = time.perf_counter()
            last_error: Exception | None = None
            for _attempt in range(self.respawn_retries + 1):
                if handle is not None:
                    handle.kill()
                try:
                    handle = self._spawn(entry)
                    if self.fault_hook is not None:
                        self.fault_hook("respawn", shard_id)
                    # health-check the fresh worker: a hook (or a crash
                    # during bootstrap races) may have killed it already
                    handle.request(wire.Ping(), timeout=self.timeout)
                except (wire.WorkerDiedError, OSError) as exc:
                    last_error = exc
                    continue
                self._handles[shard_id] = handle
                self.registry.counter(
                    "shard.pool.respawns", shard=str(shard_id)
                ).inc()
                self.registry.histogram("shard.pool.respawn_s").observe(
                    time.perf_counter() - started
                )
                return handle
            raise ProcPoolError(
                f"shard {shard_id} worker could not be respawned after "
                f"{self.respawn_retries + 1} attempt(s): {last_error}"
            )

    # ------------------------------------------------------------------
    # replica promotion
    # ------------------------------------------------------------------
    def promote(self, shard_id: int) -> ShardWorkerHandle:
        """Replace a dead primary with a warm standby replica.

        The standby booted from the same SHA-256-pinned snapshot as the
        primary it replaces, so the promoted worker serves byte-identical
        state — no replay, no rebuild, promotion cost is one health-check
        round trip.  A replacement standby is spawned immediately so a
        second failure still finds a warm copy.  With no live standby
        (replication off, or every copy dead) this degrades to a cold
        :meth:`respawn` from the snapshot.

        Thread-safe: serializes on the shard's respawn lock, and a
        primary that is already alive again (a concurrent caller won the
        race) is returned as-is.
        """
        if self._closed:
            raise ProcPoolError("pool is closed")
        lock = self._respawn_locks[shard_id]
        with lock:
            handle = self._handles.get(shard_id)
            if handle is not None and handle.alive:
                return handle
            standbys = self._standbys.get(shard_id, [])
            started = time.perf_counter()
            while standbys:
                # fault seam fires before the pop: a kill at the promotion
                # instant leaves the standby on the bench for the retry
                if self.fault_hook is not None:
                    self.fault_hook("promote", shard_id)
                candidate = standbys.pop(0)
                try:
                    candidate.request(wire.Ping(), timeout=self.timeout)
                except (wire.WorkerDiedError, OSError):
                    candidate.kill()
                    continue
                if handle is not None:
                    handle.kill()
                self._handles[shard_id] = candidate
                self.registry.counter(
                    "shard.replica.promotions", shard=str(shard_id)
                ).inc()
                self.registry.histogram("shard.replica.promote_s").observe(
                    time.perf_counter() - started
                )
                try:
                    standbys.append(self._spawn_standby(shard_id))
                except (wire.WorkerDiedError, OSError):
                    # a failed refill must not fail the promotion; the
                    # next promote simply finds one fewer warm copy
                    self.registry.counter(
                        "shard.replica.refill_failures", shard=str(shard_id)
                    ).inc()
                return candidate
        return self.respawn(shard_id)

    def refresh_replicas(self) -> None:
        """Nothing to do: standbys boot from the pinned snapshot, so they
        are never stale against the workers they stand in for."""

    def cache_stats(self) -> dict[int, dict[str, int]]:
        """Empty: worker caches are not reachable from the front end."""
        return {}

    def cold_cache(self) -> None:
        """Drop every worker's buffered pages and caches (bench regime).

        Standbys are cooled too: a promotion must hand queries the same
        cold-start determinism the primary had.
        """
        for shard_id in self.shard_ids:
            self.handle(shard_id).request(wire.ColdCache())
        for standbys in self._standbys.values():
            for standby in standbys:
                if standby.alive:
                    standby.request(wire.ColdCache())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            handle.shutdown()
        self._handles.clear()
        for standbys in self._standbys.values():
            for standby in standbys:
                standby.shutdown()
        self._standbys.clear()
