"""Scatter-gather top-k serving over a sharded ranking cube.

:class:`ShardedQueryService` is one coordinator over a *shard pool*.
It fans each :class:`TopKQuery` out to one search session per consulted
shard and merges their candidate streams in a global frontier:

* **Scatter** — the :class:`~repro.shard.map.ShardMap` picks the shards
  (a single one when an equality selection pins the shard key, all of
  them otherwise); each opens a session over its own cube snapshot.
* **Gather** — a merge loop steps every *eligible* shard concurrently,
  pushing returned ``(score, global tid)`` pairs into one global top-k
  heap.  A shard stays eligible while the global answer is short of
  ``k`` **or** its certified ``best_unseen`` bound is ``<=`` the k-th
  best seen score — the same non-strict continue condition the serial
  executor uses, so tid-ascending tie-breaking survives the merge.  The
  loop stops when no shard is eligible: every unexamined block on every
  shard then bounds strictly above the k-th score and can never
  displace a kept row.
* **Delta** — per-shard delta rows carry no block bound and merge
  unconditionally with each shard's opening reply.

Answers are *byte-identical* to an unsharded executor over the same
rows (property-tested at 1/2/4 shards, pristine and faulty devices):
scores are computed from the same stored values by the same function,
global tids are preserved by the build, and stepping shards in any
interleaving changes amortization only.  Any-k enumeration
(:class:`ShardedAnyKCursor`) and reverse top-k ride the same sessions.

The coordinator speaks to every shard through one interface,
``pool.handle(shard_id).request(<wire message>)`` (:mod:`repro.serve
.wire`), and every shard answers with one session implementation,
:class:`~repro.serve.procpool.ShardStack`.  The serving mode only picks
the pool:

* ``mode="thread"`` (default) — :class:`~repro.serve.procpool
  .InProcessShardPool`: every stack lives in this interpreter and a
  request is a direct call.  Searches open without stepping and step
  once per round.  Cache-warm and live (appends are visible at once),
  but GIL-bound: shard steps serialize on the interpreter lock.
* ``mode="process"`` — :class:`~repro.serve.procpool.ProcessShardPool`:
  each shard's whole stack (device, buffer pool, cube snapshot, caches)
  lives in a long-lived worker **process**, warm-started from a
  SHA-256-pinned shard snapshot, speaking length-prefixed pickle
  frames.  Each opening and each round ships ``step_batch`` steps, so
  pipe round trips amortize over real block work.

Worker-side metrics and span trees come back with each closed session
and are folded into the front-end registry/trace in both modes.

Failure semantics: shards are independent — a storage fault on one
(past its retry budget) or a dead worker aborts the *query* with
:class:`~repro.core.executor.QueryAbortedError` carrying the merged
partial rows; the sessions the query opened on other shards are closed.
With replication a dead primary is promoted away and the query retried
whole instead.  Each shard keeps its **own** pseudo-block cache and
bound memo (cuboid names and pids collide across shards, so sharing one
cache would alias entries).  The front end adds admission control
(``max_inflight``) and duplicate in-flight query coalescing.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import threading
import time
from bisect import bisect_left
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import count

from ..core.executor import QueryAbortedError, _push_topk, _rows_from_heap
from ..core.reverse import ReverseTopKQuery, ReverseTopKResult
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Span, Tracer, adopt_spans, maybe_span
from ..relational.query import QueryResult, ResultRow, ShardIO, TopKQuery
from ..shard.builder import ShardedCube
from ..storage.device import StorageError
from . import wire
from .procpool import InProcessShardPool, ProcessShardPool, ProcPoolError
from .service import (
    DEFAULT_SPAN_CAPACITY,
    ServiceClosedError,
    ServiceOverloadedError,
)

#: Failures of one shard that abort (or fail over) the request using it.
_SHARD_FAULTS = (StorageError, wire.WorkerDiedError, ProcPoolError)


@dataclass(frozen=True)
class ShardedQueryRecord:
    """Per-query accounting for one scatter-gathered execution."""

    latency_s: float
    shards_consulted: int
    merge_rounds: int
    shard_steps: int
    blocks_accessed: int
    candidates_examined: int
    tuples_examined: int
    aborted: bool = False


@dataclass
class ShardedServiceStats:
    """Aggregate view over every query the service has finished."""

    records: list[ShardedQueryRecord] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return len(self.records)

    @property
    def aborted(self) -> int:
        return sum(1 for r in self.records if r.aborted)

    def mean(self, attribute: str) -> float:
        if not self.records:
            return 0.0
        return sum(getattr(r, attribute) for r in self.records) / len(self.records)

    def total(self, attribute: str) -> int:
        return sum(getattr(r, attribute) for r in self.records)


def _blame_shard(exc: BaseException, shard_id: int) -> None:
    """Attach the faulting shard id to a storage error (and its cause).

    A storage error raised by a shard's stack carries no shard
    attribution; the failover path needs to know *which* primary died to
    promote its replica (a :class:`~repro.serve.wire.WorkerDiedError`
    names its shard itself).  Annotating the ``cause`` too matters
    because the service wraps a per-shard :class:`QueryAbortedError` by
    re-blaming its cause, not the wrapper.
    """
    for target in (exc, getattr(exc, "cause", None)):
        if target is not None and getattr(target, "shard_id", None) is None:
            try:
                target.shard_id = shard_id
            except AttributeError:
                pass  # exotic exception with __slots__: no attribution


def _cause(exc: BaseException) -> BaseException:
    return exc.cause if isinstance(exc, QueryAbortedError) else exc


class ShardedAnyKCursor:
    """Certified rank-order enumeration over a sharded deployment.

    A k-way merge over per-shard enumeration sessions
    (:class:`~repro.serve.wire.OpenEnum`, refilled with ``StepNext``):
    each shard yields its matches in ascending ``(score, gtid)`` order,
    and :meth:`next_batch` repeatedly emits the smallest head across
    shards — the same tie-breaking contract as every other path, at
    every depth.  Each session pins its shard's snapshot at open time,
    so the whole cursor answers as of its open point regardless of
    appends or compaction runs that land mid-enumeration.

    Not thread-safe: one consumer steps it.  A storage fault or worker
    death surfaces from :meth:`next_batch` as a typed
    :class:`~repro.core.executor.QueryAbortedError` (surviving shard
    sessions are closed best-effort, a dead worker respawns quietly in
    the background) and the cursor is then dead.  Call :meth:`close`
    when done — it folds per-shard counters, I/O attribution, and the
    shards' span trees into the service's registry and span ring, and
    returns the accounting as a rows-free
    :class:`~repro.relational.query.QueryResult`.
    """

    def __init__(
        self,
        service: "ShardedQueryService",
        query: TopKQuery,
        shard_query: TopKQuery,
        tracer: Tracer | None,
    ):
        self._service = service
        self.query = query
        #: the projection-stripped query the shards enumerate — kept so
        #: a failover can reopen every session with the exact same plan
        self._shard_query = shard_query
        self._batch = service.step_batch
        self._tracer = tracer
        self._refills = 0
        self.rank = 0
        #: rows to silently discard after a failover reopen: the merge is
        #: deterministic, so skipping exactly ``rank`` rows fast-forwards
        #: the fresh sessions to the first row not yet emitted
        self._skip = 0
        self._failovers = 0
        self._dead = False
        self._result: QueryResult | None = None
        self._open()

    def _open(self) -> None:
        self._request_id, self._handles, self._pending = (
            self._service._open_enum(self._shard_query, self._tracer)
        )
        self._order = sorted(self._handles)
        self._heads: dict[int, deque] = {sid: deque() for sid in self._order}
        self._finished: set[int] = set()

    @property
    def exhausted(self) -> bool:
        return (
            len(self._finished) == len(self._order)
            and not any(self._heads[sid] for sid in self._order)
        )

    def _refill(self, sid: int):
        """The shard's next rows: its opening reply first, then StepNext."""
        batch = self._pending.pop(sid, None)
        if batch is None:
            batch = self._service._request(
                sid, "enum_next",
                wire.StepNext(request_id=self._request_id, count=self._batch),
                self._handles,
            )
        shard = self._service.cube.shards[sid]
        rows = [(score, shard.to_global(tid)) for score, tid in batch.rows]
        return rows, batch.exhausted

    def next_batch(self, count: int) -> list[ResultRow]:
        """The next ``count`` rows in global certified order (fewer only
        at exhaustion; empty means done)."""
        if self._dead:
            raise QueryAbortedError(
                "enumeration cursor is dead (a previous batch aborted)",
                partial_rows=[], blocks_accessed=0, cause=None,
            )
        if self._result is not None:
            raise ServiceClosedError("enumeration cursor is closed")
        out: list[ResultRow] = []
        while len(out) < count:
            try:
                for sid in self._order:
                    if sid in self._finished or self._heads[sid]:
                        continue
                    rows, done = self._refill(sid)
                    self._refills += 1
                    self._heads[sid].extend(rows)
                    if done or not rows:
                        self._finished.add(sid)
                best_sid = None
                best_head = None
                for sid in self._order:
                    if not self._heads[sid]:
                        continue
                    head = self._heads[sid][0]
                    if best_head is None or head < best_head:
                        best_head, best_sid = head, sid
                if best_sid is None:
                    break
                score, gtid = self._heads[best_sid].popleft()
                if self._skip:
                    self._skip -= 1  # replaying an already-emitted row
                    continue
                row = ResultRow(tid=gtid, score=score)
                if self.query.projection:
                    row = self._service._project(row, self.query)
            except _SHARD_FAULTS as exc:
                if self._try_failover(exc):
                    continue  # fresh sessions, fast-forwarding past rank
                self._abort(exc, out)
            out.append(row)
            self.rank += 1
        return out

    def __iter__(self):
        """Iterate remaining rows (internally batched by step_batch)."""
        while True:
            batch = self.next_batch(self._batch)
            if not batch:
                return
            yield from batch

    def _try_failover(self, exc: Exception) -> bool:
        """Promote the dead shard's replica and reopen every session.

        Enumeration is stateful — each session's cursor position dies
        with its shard — so failover reopens *all* sessions from scratch
        and fast-forwards by discarding the first :attr:`rank` merged
        rows (the merge is deterministic, so those are exactly the rows
        already emitted).  Returns ``False`` when the fault names no
        shard, the failover budget is spent, or no replica remains —
        the caller then aborts as it would without replication.
        """
        service = self._service
        sid = getattr(exc, "shard_id", None)
        if (
            sid is None
            or self._failovers >= service._max_failovers
            or not service._failover(sid, self._tracer)
        ):
            return False
        self._failovers += 1
        service._abort_cleanup(self._handles, self._request_id, exc)
        try:
            self._open()
        except Exception:
            return False  # reopen failed: fall through to the abort path
        self._skip = self.rank
        return True

    def _abort(self, exc: Exception, partial: list[ResultRow]) -> None:
        self._dead = True
        blocks = self._service._abort_cleanup(
            self._handles, self._request_id, exc
        )
        raise QueryAbortedError(
            f"sharded enumeration aborted at rank {self.rank}: {exc}",
            partial_rows=partial,
            blocks_accessed=blocks,
            cause=_cause(exc),
        ) from exc

    def close(self) -> QueryResult:
        """Fold accounting and release shard sessions (idempotent)."""
        if self._result is not None:
            return self._result
        result = QueryResult(shard_io={})
        if self._dead:
            self._result = result
            return result
        shard_spans: list = []
        for sid in self._order:
            closed = self._service._request(
                sid, None, wire.CloseSearch(self._request_id), self._handles
            )
            shard_spans.extend(self._service._fold_closed(result, sid, closed))
        if self._tracer is not None:
            with self._tracer.span(
                "anyk_query",
                k=self.query.k,
                selections=dict(sorted(self.query.selections.items())),
                ranking=",".join(self.query.ranking.dims),
                shards=list(self._order),
            ) as root:
                root.add_many(
                    rows=self.rank,
                    refills=self._refills,
                    blocks_accessed=result.blocks_accessed,
                    candidates_examined=result.candidates_examined,
                )
                adopt_spans(root, shard_spans)
            self._service._retain_spans(self._tracer)
        self._result = result
        return result

    def __enter__(self) -> "ShardedAnyKCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._dead:
            self.close()


class ShardedQueryService:
    """Scatter-gather serving over a :class:`ShardedCube`.

    Parameters
    ----------
    cube:
        The sharded deployment to serve.
    workers:
        Concurrent queries in flight (front-end pool width).
    step_workers:
        Width of the *separate* shard-request pool the coordinator fans
        out on (default ``max(workers, num_shards)``).  Two pools because
        a query thread blocks on its shards' request futures — shard
        requests never submit further work, so the layering cannot
        deadlock.
    share_caches / buffer_pseudo_blocks:
        As on :class:`~repro.serve.service.QueryService`, but the shared
        caches are **per shard** (see module docstring).
    registry:
        Service-level metrics spine: global query/abort/latency series
        plus per-shard *labeled* series (``shard.service.steps`` etc.,
        one series per ``shard=<id>`` label).  Private when omitted —
        shard storage trees keep their own registries either way.  Each
        shard's per-query counter deltas are merged in under an added
        ``shard=<id>`` label.
    trace_spans:
        Retain per-query span trees (``query`` → ``shard_merge``) in
        :attr:`spans`, a bounded ring like the unsharded service's.  The
        shards' ``shard_batch`` spans are adopted under the merge span.
    mode:
        ``"thread"`` (default) or ``"process"`` — which shard pool serves
        the sessions (see the module docstring).  Process mode snapshots
        the deployment at construction time: rows appended to ``cube``
        afterwards are not visible to the workers until a new service is
        built.
    spill_dir:
        Process mode only: directory holding (or to hold) the pinned
        per-shard snapshots.  When omitted the service spills to a
        private temporary directory and removes it on :meth:`close`; an
        existing directory with a manifest is reused as-is (workers
        verify the SHA-256 pins either way).
    max_inflight:
        Admission control: queries allowed in flight at once before
        :meth:`submit` raises :class:`ServiceOverloadedError`
        (``None`` = unbounded, the default).
    coalesce:
        Share one execution among identical in-flight queries (their
        futures all resolve to the same result).  No effect on answers,
        only amortization.  Defaults to on in process mode and off in
        thread mode, where repeated identical queries are how callers
        deliberately warm the per-shard caches.
    step_batch / worker_timeout_s / fault_hook:
        ``step_batch`` is the rows per any-k refill in both modes and,
        in process mode, the frontier steps per worker round trip;
        ``worker_timeout_s`` is the process-mode reply deadline after
        which a worker is declared dead.  ``fault_hook`` is a test seam
        called as ``fault_hook(point, shard_id)`` in *both* modes, before
        the coordinator's request to a shard at that point:
        ``"scatter"`` (open a top-k session), ``"merge_round"`` (each
        step round), ``"finish"`` (close it), ``"enum_open"`` /
        ``"enum_next"`` (open / refill an any-k session) and
        ``"reverse_count"``; the pools add ``"promote"`` (before a
        replica leaves the bench) and, process mode only,
        ``"respawn"`` (after a fresh worker spawns).  An exception the
        hook raises surfaces exactly as a real fault at that point
        would, which is how the failover kill matrix steers deaths.
    """

    def __init__(
        self,
        cube: ShardedCube,
        workers: int = 4,
        step_workers: int | None = None,
        share_caches: bool = True,
        buffer_pseudo_blocks: bool = True,
        registry: MetricsRegistry | None = None,
        trace_spans: bool = False,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        mode: str = "thread",
        spill_dir: str | None = None,
        max_inflight: int | None = None,
        coalesce: bool | None = None,
        step_batch: int = wire.DEFAULT_STEP_BATCH,
        worker_timeout_s: float = 60.0,
        fault_hook=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if step_batch < 1:
            raise ValueError("step_batch must be >= 1")
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        self.cube = cube
        self.workers = workers
        self.mode = mode
        self.share_caches = share_caches
        self.buffer_pseudo_blocks = buffer_pseudo_blocks
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_spans = trace_spans
        self.span_capacity = span_capacity
        self.spans: list[Span] = []
        self.stats = ShardedServiceStats()
        self._stats_lock = threading.Lock()
        self.max_inflight = max_inflight
        self.coalesce = coalesce if coalesce is not None else mode == "process"
        self.step_batch = step_batch
        self._fault_hook = fault_hook
        self._inflight_lock = threading.Lock()
        self._inflight_count = 0
        self._inflight: dict[bytes, Future] = {}
        self._request_ids = count(1)
        self._owned_spill_dir: str | None = None
        #: replication: N-1 warm copies per shard (``ShardMap``), so a
        #: dead primary fails the query over instead of aborting it
        self.replication_factor = cube.shard_map.replication_factor
        self._replicas_enabled = self.replication_factor > 1
        self._max_failovers = (
            max(1, self.replication_factor - 1) if self._replicas_enabled else 0
        )
        options = {
            "share_caches": share_caches,
            "buffer_pseudo_blocks": buffer_pseudo_blocks,
        }
        if mode == "thread":
            self._shard_pool = InProcessShardPool(
                cube,
                options=options,
                registry=self.registry,
                fault_hook=fault_hook,
                replicas=self.replication_factor - 1,
            )
        else:
            self._shard_pool = self._start_proc_pool(
                spill_dir, options, worker_timeout_s
            )
        self._queries_counter = self.registry.counter("shard.service.queries")
        self._searches_counter = self.registry.counter(
            "shard.service.searches_opened"
        )
        self._reverse_counter = self.registry.counter(
            "shard.service.reverse_queries"
        )
        self._aborted_counter = self.registry.counter("shard.service.aborted")
        self._coalesced_counter = self.registry.counter("shard.service.coalesced")
        self._overloaded_counter = self.registry.counter("shard.service.overloaded")
        self._latency_hist = self.registry.histogram("shard.service.latency_s")
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shard-serve"
        )
        if step_workers is None:
            step_workers = max(workers, cube.num_shards)
        self._step_pool = ThreadPoolExecutor(
            max_workers=step_workers, thread_name_prefix="repro-shard-step"
        )
        self._closed = False

    def _start_proc_pool(
        self, spill_dir: str | None, options: dict, worker_timeout_s: float
    ) -> ProcessShardPool:
        """Spill the deployment (unless already pinned) and boot workers."""
        from ..persist import SHARD_MANIFEST, ShardedWorkspace
        import json
        from pathlib import Path

        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="repro-shard-spill-")
            self._owned_spill_dir = spill_dir
        directory = Path(spill_dir)
        manifest_path = directory / SHARD_MANIFEST
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
        else:
            manifest = ShardedWorkspace(cube=self.cube).save(directory)
        return ProcessShardPool(
            directory,
            manifest,
            options=options,
            timeout=worker_timeout_s,
            registry=self.registry,
            fault_hook=self._fault_hook,
            replicas=self.replication_factor - 1,
            step_batch=self.step_batch,
        )

    # ------------------------------------------------------------------
    # replica failover
    # ------------------------------------------------------------------
    def refresh_replicas(self) -> None:
        """Re-clone thread-mode warm replicas from the current shards.

        Thread-mode replicas are point-in-time clones
        (:func:`~repro.shard.builder.clone_shard`): rows appended after
        cloning make a replica stale, and a stale replica is *rejected*
        at promotion time rather than silently losing rows.  Call this
        after appends to re-arm failover.  No-op in process mode
        (standbys boot from the same pinned snapshot as the workers).
        """
        self._shard_pool.refresh_replicas()

    @staticmethod
    def _dead_shard_of(exc: BaseException) -> int | None:
        """Which shard the abort blames, if it (or its cause) names one."""
        sid = getattr(getattr(exc, "cause", None), "shard_id", None)
        if sid is None:
            sid = getattr(exc, "shard_id", None)
        return sid

    def _failover(self, shard_id: int, tracer: Tracer | None) -> bool:
        """Promote a warm replica for ``shard_id``; True if the query
        should retry.

        The pool does the promotion: a warm standby worker from the same
        pinned snapshot in process mode, a :func:`clone_shard` copy
        swapped into the deployment in thread mode.  Returns ``False`` —
        and the original abort stands — when replication is off, no live
        replica remains, or the replica is stale.
        """
        if not self._replicas_enabled:
            return False
        with maybe_span(
            tracer, "failover", shard=shard_id, mode=self.mode
        ) as span:
            try:
                self._shard_pool.promote(shard_id)
            except Exception:
                return False
            self.registry.counter(
                "shard.replica.failovers", shard=str(shard_id)
            ).inc()
            if span is not None:
                span.add("promoted", 1)
        return True

    def _with_failover(self, attempt):
        """Run one attempt, retrying it whole on replica promotion.

        Failover retries the *entire* request rather than resuming it:
        per-shard session state died with the shard, and the merge is
        deterministic, so a clean re-run on the promoted replica is
        byte-identical to a run that never saw the fault.  Each failed
        query attempt is still recorded as an aborted attempt in
        :attr:`stats`; the failover itself shows up in the
        ``shard.replica.failovers`` counter.
        """
        attempts = 0
        while True:
            try:
                return attempt()
            except StorageError as exc:  # includes QueryAbortedError
                sid = self._dead_shard_of(exc)
                if sid is None or attempts >= self._max_failovers:
                    raise
                tracer = Tracer(self.registry) if self.trace_spans else None
                if not self._failover(sid, tracer):
                    raise
                self._retain_spans(tracer)
                attempts += 1

    # ------------------------------------------------------------------
    # serving APIs
    # ------------------------------------------------------------------
    def submit(self, query: TopKQuery) -> "Future[QueryResult]":
        """Enqueue one query; the future resolves to its merged answer.

        Applies admission control (``max_inflight``) and duplicate
        coalescing: an identical query already in flight returns the
        *same* future instead of executing again.
        """
        key = pickle.dumps(query) if self.coalesce else None
        return self._admit(self._run_one, query, key)

    def submit_reverse(
        self, query: ReverseTopKQuery
    ) -> "Future[ReverseTopKResult]":
        """Enqueue one reverse top-k query (admission-controlled like
        :meth:`submit`; never coalesced — the payload includes function
        families that are awkward as cache keys and reverse queries are
        rarely identical)."""
        return self._admit(self._run_reverse, query, None)

    def _admit(self, run, query, key: bytes | None) -> Future:
        if self._closed:
            raise ServiceClosedError("ShardedQueryService is closed")
        with self._inflight_lock:
            if key is not None:
                existing = self._inflight.get(key)
                if existing is not None:
                    self._coalesced_counter.inc()
                    return existing
            if (
                self.max_inflight is not None
                and self._inflight_count >= self.max_inflight
            ):
                self._overloaded_counter.inc()
                raise ServiceOverloadedError(
                    f"{self._inflight_count} query(ies) already in flight "
                    f"(max_inflight={self.max_inflight})"
                )
            future = self._pool.submit(run, query)
            self._inflight_count += 1
            if key is not None:
                self._inflight[key] = future
        future.add_done_callback(lambda _f, key=key: self._release_inflight(key))
        return future

    def _release_inflight(self, key: bytes | None) -> None:
        with self._inflight_lock:
            self._inflight_count -= 1
            if key is not None:
                self._inflight.pop(key, None)

    def run_batch(self, queries) -> list[QueryResult]:
        """Run a batch concurrently, returning answers in request order."""
        futures = [self.submit(q) for q in queries]
        return [f.result() for f in futures]

    def open_search(self, query: TopKQuery) -> ShardedAnyKCursor:
        """Open a resumable any-k cursor over every consulted shard.

        Unlike :meth:`submit` this is caller-stepped (no pool, no
        admission control, no coalescing): the returned cursor yields
        rows in certified global ``(score, tid)`` order — past
        ``query.k``, on demand — until the snapshot it pinned at open
        time is exhausted.  Projection is applied at the front end from
        global tids; the shards enumerate bare ``(score, tid)`` pairs.
        """
        if self._closed:
            raise ServiceClosedError("ShardedQueryService is closed")
        query.validate_against(self.cube.schema)
        self._searches_counter.inc()
        tracer = Tracer(self.registry) if self.trace_spans else None
        shard_query = (
            query if query.projection is None
            else replace(query, projection=None)
        )
        return self._with_failover(
            lambda: ShardedAnyKCursor(self, query, shard_query, tracer)
        )

    def _open_enum(self, query: TopKQuery, tracer: Tracer | None):
        """Open one enumeration session per consulted shard.

        Returns ``(request_id, handles, opening replies)``; the opening
        replies carry each shard's first rows.
        """
        request_id = next(self._request_ids)
        handles: dict = {}
        opening = wire.OpenEnum(
            request_id=request_id,
            query=query,
            count=self.step_batch,
            trace=tracer is not None,
        )
        try:
            replies = self._fan_out(
                self._targets(query.selections), "enum_open", opening, handles
            )
        except _SHARD_FAULTS as exc:
            self._abort_cleanup(handles, request_id, exc)
            raise QueryAbortedError(
                f"sharded enumeration failed to open: {exc}",
                partial_rows=[],
                blocks_accessed=0,
                cause=_cause(exc),
            ) from exc
        return request_id, handles, dict(replies)

    # ------------------------------------------------------------------
    # shard requests
    # ------------------------------------------------------------------
    def _fault(self, point: str, shard_id: int) -> None:
        if self._fault_hook is not None:
            self._fault_hook(point, shard_id)

    def _targets(self, selections: dict) -> list[int]:
        """The consulted shards that hold rows, in shard-map order."""
        served = set(self._shard_pool.shard_ids)
        return [
            sid
            for sid in self.cube.shard_map.shards_for_query(selections)
            if sid in served
        ]

    def _request(self, sid: int, point: str | None, message, handles=None):
        """One request to shard ``sid``, after fault point ``point``.

        ``handles`` pins the handle a session lives on: the first request
        records it there and later ones reuse it, so they reach that
        session's stack and never a replacement (a respawned worker knows
        no session).  Storage errors are blamed on ``sid``.
        """
        try:
            if point is not None:
                self._fault(point, sid)
            handle = handles.get(sid) if handles is not None else None
            if handle is None:
                handle = self._shard_pool.handle(sid)
                if handles is not None:
                    handles[sid] = handle
            return handle.request(message)
        except StorageError as exc:
            _blame_shard(exc, sid)
            raise

    def _fan_out(self, sids: list[int], point: str, message, handles: dict):
        """:meth:`_request` to every shard in ``sids``, concurrently when
        there are several; returns ``[(sid, reply)]`` in ``sids`` order.

        Waits for every request before raising the first failure, so the
        caller's cleanup sees every session that opened and never races
        a request still in flight.
        """
        if len(sids) <= 1:
            return [
                (sid, self._request(sid, point, message, handles)) for sid in sids
            ]
        futures = [
            (
                sid,
                self._step_pool.submit(self._request, sid, point, message, handles),
            )
            for sid in sids
        ]
        for _sid, future in futures:
            future.exception()  # waits for it without raising its error
        return [(sid, future.result()) for sid, future in futures]

    def _fold_closed(self, result: QueryResult, sid: int, closed) -> list:
        """Add a closed session's accounting to ``result`` and the
        registry; returns the session's span trees."""
        result.blocks_accessed += closed.blocks_accessed
        result.candidates_examined += closed.candidates_examined
        result.tuples_examined += closed.tuples_examined
        result.shard_io[sid] = ShardIO(
            blocks_accessed=closed.blocks_accessed,
            candidates_examined=closed.candidates_examined,
            tuples_examined=closed.tuples_examined,
            device_reads=closed.device_reads,
        )
        self.registry.counter(
            "shard.service.blocks_accessed", shard=str(sid)
        ).inc(closed.blocks_accessed)
        self.registry.counter(
            "shard.service.device_reads", shard=str(sid)
        ).inc(closed.device_reads)
        self.registry.merge_counter_items(closed.counter_deltas, shard=str(sid))
        return closed.spans

    def _abort_cleanup(self, handles: dict, request_id: int, exc: Exception) -> int:
        """Close the sessions a failed request left open; revive a dead
        worker.

        Returns the block count recovered from the shards that could
        still answer a :class:`~repro.serve.wire.CloseSearch` — the
        abort's ``blocks_accessed`` is therefore a lower bound.
        """
        blocks = 0
        dead = exc.shard_id if isinstance(exc, wire.WorkerDiedError) else None
        for sid, handle in sorted(handles.items()):
            if sid == dead or not handle.alive:
                continue
            try:
                closed = handle.request(wire.CloseSearch(request_id))
            except Exception:
                continue  # no session opened there, or it died meanwhile
            blocks += closed.blocks_accessed
            self.registry.merge_counter_items(
                closed.counter_deltas, shard=str(sid)
            )
        handles.clear()
        self._revive(exc)
        return blocks

    def _revive(self, exc: Exception) -> None:
        """Respawn a dead worker in the background (with replication the
        failover path promotes a standby instead)."""
        if isinstance(exc, wire.WorkerDiedError) and not self._replicas_enabled:
            threading.Thread(
                target=self._respawn_quietly,
                args=(exc.shard_id,),
                name=f"repro-shard-respawn-{exc.shard_id}",
                daemon=True,
            ).start()

    def _respawn_quietly(self, shard_id: int) -> None:
        try:
            self._shard_pool.respawn(shard_id)
        except Exception:
            pass  # the next query's handle() lookup retries once more

    # ------------------------------------------------------------------
    # top-k
    # ------------------------------------------------------------------
    def _run_one(self, query: TopKQuery) -> QueryResult:
        query.validate_against(self.cube.schema)
        return self._with_failover(lambda: self._run_one_attempt(query))

    def _run_one_attempt(self, query: TopKQuery) -> QueryResult:
        tracer = Tracer(self.registry) if self.trace_spans else None
        started = time.perf_counter()
        with maybe_span(
            tracer,
            "query",
            k=query.k,
            selections=dict(sorted(query.selections.items())),
            ranking=",".join(query.ranking.dims),
        ) as query_span:
            try:
                result, rounds, steps = self._scatter_gather(query, tracer)
            except QueryAbortedError as exc:
                self._retain_spans(tracer)
                self._record_abort(started, query.selections, exc)
                raise
            if query_span is not None:
                query_span.add_many(
                    blocks_accessed=result.blocks_accessed,
                    candidates_examined=result.candidates_examined,
                    tuples_examined=result.tuples_examined,
                    rows_returned=len(result.rows),
                )
        self._retain_spans(tracer)
        self._record(
            time.perf_counter() - started,
            shards=len(result.shard_io or ()),
            rounds=rounds,
            steps=steps,
            blocks=result.blocks_accessed,
            candidates=result.candidates_examined,
            tuples=result.tuples_examined,
            aborted=False,
        )
        return result

    def _absorb_batch(
        self,
        states: dict,
        topk: list[tuple[float, int]],
        k: int,
        sid: int,
        batch: "wire.SearchBatch",
        max_steps: int,
    ) -> int:
        """Fold one shard round into the global heap + per-shard state.

        A batch that asked for steps, took none and is not exhausted
        means the shard certified its *local* top-k (its stop rules are
        otherwise the strict complement of our eligibility check,
        evaluated on the same bound and the same shipped ``kth``) — no
        further step can change this shard's contribution, so it leaves
        the frontier.
        """
        shard = self.cube.shards[sid]
        for score, local_tid in batch.scored:
            _push_topk(topk, k, score, shard.to_global(local_tid))
        states[sid] = {
            "best_unseen": batch.best_unseen,
            "done": batch.exhausted or (max_steps > 0 and batch.steps == 0),
        }
        if batch.steps:
            self.registry.counter(
                "shard.service.steps", shard=str(sid)
            ).inc(batch.steps)
        return batch.steps

    def _scatter_gather(
        self, query: TopKQuery, tracer: Tracer | None
    ) -> tuple[QueryResult, int, int]:
        """The merge loop; returns (result, merge rounds, shard steps)."""
        pool = self._shard_pool
        targets = self._targets(query.selections)
        request_id = next(self._request_ids)
        topk: list[tuple[float, int]] = []
        states: dict[int, dict] = {}
        #: shards whose session may be open — what an abort must close
        handles: dict = {}
        rounds = 0
        steps = 0
        try:
            with maybe_span(
                tracer, "shard_merge", shards=list(targets)
            ) as merge_span:
                # scatter: open one session per shard, first batch included
                opening = wire.OpenSearch(
                    request_id=request_id,
                    query=query,
                    kth=None,
                    max_steps=pool.open_steps,
                    trace=tracer is not None,
                )
                opened = self._fan_out(targets, "scatter", opening, handles)
                for sid, batch in opened:
                    shard = self.cube.shards[sid]
                    # delta rows carry no block bound: merge unconditionally
                    for score, local_tid in batch.delta_rows:
                        _push_topk(topk, query.k, score, shard.to_global(local_tid))
                    steps += self._absorb_batch(
                        states, topk, query.k, sid, batch, pool.open_steps
                    )

                # gather: step eligible shards in rounds, refreshing kth
                while True:
                    kth = -topk[0][0] if len(topk) >= query.k else None
                    eligible = [
                        sid
                        for sid in targets
                        if not states[sid]["done"]
                        and (kth is None or states[sid]["best_unseen"] <= kth)
                    ]
                    if not eligible:
                        break
                    rounds += 1
                    step = wire.StepBatch(
                        request_id=request_id, kth=kth, max_steps=pool.round_steps
                    )
                    stepped = self._fan_out(eligible, "merge_round", step, handles)
                    for sid, batch in stepped:
                        steps += self._absorb_batch(
                            states, topk, query.k, sid, batch, pool.round_steps
                        )

                # finish: collect per-shard accounting + observability.
                # Inside the merge span on purpose: shard span trees are
                # adopted while their new parent is still open.
                result = QueryResult(shard_io={})
                for sid in sorted(targets):
                    closed = self._request(
                        sid, "finish", wire.CloseSearch(request_id), handles
                    )
                    del handles[sid]
                    adopt_spans(merge_span, self._fold_closed(result, sid, closed))
                if merge_span is not None:
                    merge_span.add_many(merge_rounds=rounds, shard_steps=steps)
        except _SHARD_FAULTS as exc:
            blocks = self._abort_cleanup(handles, request_id, exc)
            raise QueryAbortedError(
                f"sharded query aborted after {blocks} block fetch(es): {exc}",
                partial_rows=_rows_from_heap(topk),
                blocks_accessed=blocks,
                cause=_cause(exc),
            ) from exc
        rows = _rows_from_heap(topk)
        if query.projection:
            rows = [self._project(row, query) for row in rows]
        result.rows = rows
        return result, rounds, steps

    def _project(self, row: ResultRow, query: TopKQuery) -> ResultRow:
        try:
            record = self.cube.fetch_by_tid(row.tid)
        except StorageError as exc:
            owner = self.cube._owner.get(row.tid)
            if owner is not None:
                _blame_shard(exc, owner[0])
            raise
        schema = self.cube.schema
        values = tuple(
            record[schema.position(name)] for name in (query.projection or ())
        )
        return ResultRow(tid=row.tid, score=row.score, values=values)

    # ------------------------------------------------------------------
    # reverse top-k
    # ------------------------------------------------------------------
    def _run_reverse(self, query: ReverseTopKQuery) -> ReverseTopKResult:
        return self._with_failover(lambda: self._run_reverse_attempt(query))

    def _run_reverse_attempt(self, query: ReverseTopKQuery) -> ReverseTopKResult:
        tracer = Tracer(self.registry) if self.trace_spans else None
        started = time.perf_counter()
        self._reverse_counter.inc()
        with maybe_span(
            tracer,
            "reverse_query",
            tid=query.tid,
            k=query.k,
            selections=dict(sorted(query.selections.items())),
            functions=len(query.functions),
        ) as qspan:
            try:
                result = self._reverse(query, tracer)
            except QueryAbortedError as exc:
                self._retain_spans(tracer)
                self._record_abort(started, query.selections, exc)
                raise
            if qspan is not None:
                qspan.add_many(
                    qualifying=len(result.qualifying),
                    blocks_accessed=result.blocks_accessed,
                    candidates_examined=result.candidates_examined,
                )
        self._retain_spans(tracer)
        self._record(
            time.perf_counter() - started,
            shards=len(self.cube.shard_map.shards_for_query(query.selections)),
            rounds=0,
            steps=0,
            blocks=result.blocks_accessed,
            candidates=result.candidates_examined,
            tuples=result.tuples_examined,
            aborted=False,
        )
        return result

    def _reverse_target(self, query: ReverseTopKQuery):
        """The target row and whether it matches the query selections."""
        schema = self.cube.schema
        try:
            target = self.cube.fetch_by_tid(query.tid)
        except StorageError as exc:
            # the fetch touched exactly the owning shard's device
            owner = self.cube._owner.get(query.tid)
            if owner is not None:
                _blame_shard(exc, owner[0])
            raise
        matches = all(
            target[schema.position(name)] == value
            for name, value in query.selections.items()
        )
        return schema, target, matches

    def _reverse(
        self, query: ReverseTopKQuery, tracer: Tracer | None
    ) -> ReverseTopKResult:
        result = ReverseTopKResult()
        targets = self._targets(query.selections)
        try:
            schema, target, matches = self._reverse_target(query)
            result.target_matches = matches
            for index, fn in enumerate(query.functions):
                t_score = fn.score(
                    [target[schema.position(d)] for d in fn.dims]
                )
                result.target_scores.append(t_score)
                if not matches:
                    continue
                with maybe_span(
                    tracer, "reverse_function",
                    index=index, ranking=",".join(fn.dims),
                ) as fspan:
                    forward = TopKQuery(query.k, query.selections, fn)
                    preceding = 0
                    for sid in targets:
                        # the target's insertion position in this shard's
                        # (monotone) tid map: local tids before it precede
                        # the target on score ties, all others do not
                        tie_bound = bisect_left(
                            self.cube.shards[sid].tid_map, query.tid
                        )
                        reply = self._request(
                            sid,
                            "reverse_count",
                            wire.ReverseCount(
                                request_id=next(self._request_ids),
                                query=forward,
                                t_score=t_score,
                                tie_tid=tie_bound,
                            ),
                        )
                        preceding += reply.preceding
                        result.blocks_accessed += reply.blocks_accessed
                        result.candidates_examined += (
                            reply.candidates_examined
                        )
                        result.tuples_examined += reply.tuples_examined
                        self.registry.counter(
                            "shard.service.blocks_accessed", shard=str(sid)
                        ).inc(reply.blocks_accessed)
                        self.registry.counter(
                            "shard.service.device_reads", shard=str(sid)
                        ).inc(reply.device_reads)
                        self.registry.merge_counter_items(
                            reply.counter_deltas, shard=str(sid)
                        )
                        if preceding >= query.k:
                            break
                    in_topk = preceding < query.k
                    if in_topk:
                        result.qualifying.append(index)
                    if fspan is not None:
                        fspan.add("preceding", preceding)
                        fspan.add("in_topk", int(in_topk))
        except _SHARD_FAULTS as exc:
            self._revive(exc)
            raise QueryAbortedError(
                f"sharded reverse top-k aborted after "
                f"{result.blocks_accessed} block fetch(es): {exc}",
                partial_rows=[],
                blocks_accessed=result.blocks_accessed,
                cause=_cause(exc),
            ) from exc
        return result

    # ------------------------------------------------------------------
    def _record(
        self,
        latency_s: float,
        *,
        shards: int,
        rounds: int,
        steps: int,
        blocks: int,
        candidates: int,
        tuples: int,
        aborted: bool,
    ) -> None:
        record = ShardedQueryRecord(
            latency_s=latency_s,
            shards_consulted=shards,
            merge_rounds=rounds,
            shard_steps=steps,
            blocks_accessed=blocks,
            candidates_examined=candidates,
            tuples_examined=tuples,
            aborted=aborted,
        )
        with self._stats_lock:
            self.stats.records.append(record)
        self._queries_counter.inc()
        if aborted:
            self._aborted_counter.inc()
        self._latency_hist.observe(latency_s)

    def _record_abort(
        self, started: float, selections: dict, exc: QueryAbortedError
    ) -> None:
        self._record(
            time.perf_counter() - started,
            shards=len(self.cube.shard_map.shards_for_query(selections)),
            rounds=0,
            steps=0,
            blocks=exc.blocks_accessed,
            candidates=0,
            tuples=0,
            aborted=True,
        )

    def _retain_spans(self, tracer: Tracer | None) -> None:
        if tracer is None or not tracer.roots:
            return
        with self._stats_lock:
            self.spans.extend(tracer.roots)
            if len(self.spans) > self.span_capacity:
                del self.spans[: len(self.spans) - self.span_capacity]

    # ------------------------------------------------------------------
    # cache administration
    # ------------------------------------------------------------------
    def cold_cache(self) -> None:
        """Evict every shard's buffered pages *and* shared caches.

        Mode-transparent: :class:`~repro.serve.wire.ColdCache` goes to
        every shard (in process mode to the standbys too).
        """
        self._shard_pool.cold_cache()

    def shard_cache_stats(self) -> dict[int, dict[str, int]]:
        """Per-shard pseudo-block cache counters (empty when disabled,
        and in process mode, where the caches live in the workers)."""
        return self._shard_pool.cache_stats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting queries, drain pools, stop workers, unhook."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait)
        self._step_pool.shutdown(wait=wait)
        self._shard_pool.close()
        if self._owned_spill_dir is not None:
            shutil.rmtree(self._owned_spill_dir, ignore_errors=True)
            self._owned_spill_dir = None

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
