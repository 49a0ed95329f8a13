"""The four benchmark workloads: seeded inputs, set-up, one closed-loop step.

Each workload generates its rows and queries from ``--seed`` before
anything is timed; the program only ever receives those inputs.  The
runner in ``run.py`` calls :meth:`Workload.setup` (timed, repeated),
:meth:`Workload.warmup`, then :meth:`Workload.step` from each client
thread until the window ends, then :meth:`Workload.finish` and
:meth:`Workload.checks`.

Answers are recorded as ``(score, tid)`` tuples keyed by query index and
the visible row count, and compared bitwise with the brute-force oracle
of :mod:`repro.workloads.oracle` after the timed loop.
"""

from __future__ import annotations

import itertools
import random
import shutil
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import Database, LinearFunction, LpDistance, RankingCube, RankingCubeExecutor
from repro.persist import ShardedWorkspace, Workspace
from repro.relational.query import TopKQuery
from repro.workloads import SyntheticSpec, brute_force_topk, generate, shifted_rows

#: Ranking dims, k and page size of every workload.
RANKING_DIMS = 2
TOP_K = 20
PAGE_SIZE = 4096


@dataclass(frozen=True)
class Sizes:
    """Input and system sizes of one workload at one scale."""

    rows: int
    selection_dims: int = 4
    cardinality: int = 10
    buffer_frames: int = 4096
    block_size: int = 30
    distinct_queries: int = 0      #: 0 = a fresh query per request
    check_fraction: float = 1.0    #: seeded share of answers checked
    setups: int = 3
    warmup_queries: int = 20
    batch_rows: int = 0
    queries_per_batch: int = 0
    compact_threshold: int = 0
    checkpoint_after_batches: int = 0
    drift_threshold: float = 2.0
    warmup_batches: int = 0


SIZES: dict[str, dict[str, Sizes]] = {
    "full": {
        "adhoc_cold": Sizes(rows=100_000, buffer_frames=1024, check_fraction=0.1,
                            setups=2),
        "dashboard_hot": Sizes(rows=20_000, cardinality=5, distinct_queries=40,
                               setups=5),
        # 40-row compaction threshold = 40 queries per cycle: the slow
        # first query after each compaction is 2.5% of queries, so p99
        # lies inside that population rather than on its edge (at 1% it
        # swung from run to run)
        "live_ingest": Sizes(rows=5_000, selection_dims=3, cardinality=5,
                             check_fraction=0.05, batch_rows=10,
                             queries_per_batch=10, compact_threshold=40,
                             checkpoint_after_batches=40,
                             drift_threshold=1.5,
                             warmup_batches=20, setups=15),
        # 3 set-ups, not 2: the first worker start of a run is now and
        # then 50% slower, and the median of 3 drops it
        "sharded_fanout": Sizes(rows=40_000, cardinality=5, check_fraction=0.1,
                                setups=3),
    },
    "tiny": {
        "adhoc_cold": Sizes(rows=3_000, buffer_frames=48, setups=2,
                            warmup_queries=3),
        "dashboard_hot": Sizes(rows=2_000, distinct_queries=8, setups=2,
                               warmup_queries=3),
        "live_ingest": Sizes(rows=2_000, selection_dims=3, cardinality=5,
                             batch_rows=50, queries_per_batch=4,
                             compact_threshold=200, checkpoint_after_batches=3,
                             warmup_batches=4,
                             setups=2),
        "sharded_fanout": Sizes(rows=3_000, setups=2, warmup_queries=3),
    },
}


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def make_rows(seed: int, sizes: Sizes):
    """Uniform synthetic relation with two ranking dims."""
    spec = SyntheticSpec(
        num_selection_dims=sizes.selection_dims,
        num_ranking_dims=RANKING_DIMS,
        num_tuples=sizes.rows,
        cardinality=sizes.cardinality,
        seed=seed,
    )
    dataset = generate(spec)
    return dataset.schema, dataset.rows


def make_queries(schema, seed: int, count: int) -> list[TopKQuery]:
    """Ad hoc top-k queries: 1-3 equality selections, linear or L2 ranking.

    The selection count cycles 1, 2, 3 and the ranking family alternates
    linear / L2 with the query index, so every run mixes the same shapes
    in the same proportions; dims, values, weights and targets are drawn.
    """
    rng = random.Random(f"perfbench-queries-{seed}")
    sel_names = list(schema.selection_names)
    rank_names = list(schema.ranking_names)
    queries = []
    for i in range(count):
        dims = rng.sample(sel_names, 1 + i % 3)
        selections = {d: rng.randrange(schema.attribute(d).cardinality) for d in dims}
        if (i // 3) % 2 == 0:
            ranking = LinearFunction(rank_names, [rng.uniform(0.2, 1.0) for _ in rank_names])
        else:
            ranking = LpDistance(rank_names, [rng.random() for _ in rank_names], p=2)
        queries.append(TopKQuery(TOP_K, selections, ranking))
    return queries


def zipf_stream(seed: int, distinct: int, count: int, s: float = 1.1) -> list[int]:
    """Indexes into a pool of ``distinct`` queries, zipf(s)-popular."""
    rng = random.Random(f"perfbench-zipf-{seed}")
    weights = [1.0 / (rank + 1) ** s for rank in range(distinct)]
    return rng.choices(range(distinct), weights=weights, k=count)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
class Oracle:
    """Brute-force top-k over a row prefix, via ``repro.workloads.oracle``.

    Rows failing a selection cannot be in the answer, so the oracle runs
    on the matching rows only (found with NumPy) and maps their local
    tids back; the map is increasing, so ``(score, tid)`` order and the
    scores themselves are exactly what a full scan would produce.
    """

    def __init__(self, schema, rows):
        self.schema = schema
        self.rows = rows
        self.columns = {
            name: np.fromiter((row[schema.position(name)] for row in rows),
                              dtype=np.int64, count=len(rows))
            for name in schema.selection_names
        }

    def expected(self, query: TopKQuery, visible: int) -> tuple:
        mask = np.ones(visible, dtype=bool)
        for name, value in query.selections.items():
            mask &= self.columns[name][:visible] == value
        tids = np.flatnonzero(mask)
        subset = [self.rows[t] for t in tids]
        return tuple(
            (score, int(tids[local]))
            for score, local in brute_force_topk(self.schema, subset, query)
        )


def bits(answer: tuple) -> tuple:
    """An answer in bitwise-comparable form (IEEE-754 bytes, tid)."""
    return tuple((struct.pack("<d", score), tid) for score, tid in answer)


@dataclass
class Check:
    """One printed check: ``pass``, ``fail`` or ``not_evaluated:<reason>``."""

    name: str
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Shared bookkeeping; subclasses define set-up and one step."""

    name = ""
    clients = 1

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.schema, self.rows = make_rows(seed, sizes)
        self.oracle_rows = self.rows
        self._lock = threading.Lock()
        self._next = itertools.count().__next__
        self.latencies: list[float] = []
        self.finished_at: list[float] = []
        self.blocks: list[int] = []
        self.tuples_examined = 0
        self.rows_returned = 0
        self.answers: dict[tuple[int, int], Counter] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.service = None
        self.load_s = 0.0   # snapshot load time, timed only in traced runs

    # -- set-up / tear-down ------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release the system built by :meth:`setup`."""

    def warmup(self) -> None:
        # the pool's tail, which the timed loop never reaches
        for i in range(self.sizes.warmup_queries):
            self.run_query(self.queries[-1 - i % len(self.queries)])

    # -- the closed loop ---------------------------------------------------
    def step(self, client: int) -> None:
        """One request of one client: a query (or, where defined, a write)."""
        self.query_step(self._next())

    def query_step(self, index: int) -> None:
        query_index = self.query_index(index)
        query = self.queries[query_index]
        visible = self.visible_rows()
        started = time.perf_counter()
        try:
            result = self.run_query(query)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._record_error(exc)
            return
        latency = time.perf_counter() - started
        self.record(query_index, visible, latency, result)

    def query_index(self, index: int) -> int:
        return index % len(self.queries)

    def visible_rows(self) -> int:
        return len(self.rows)

    def run_query(self, query: TopKQuery):
        raise NotImplementedError

    def record(self, query_index: int, visible: int, latency: float, result) -> None:
        with self._lock:
            self.attempted += 1
            self.latencies.append(latency)
            self.finished_at.append(time.perf_counter())
            self.blocks.append(result.blocks_accessed)
            self.tuples_examined += result.tuples_examined
            self.rows_returned += len(result.rows)
            if query_index in self.checked:
                answer = tuple((row.score, row.tid) for row in result.rows)
                self.answers.setdefault((query_index, visible), Counter())[answer] += 1

    def _record_error(self, exc: BaseException) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")

    def rate_span(self, start: float, end: float) -> tuple[float, float]:
        """The part of the loop [start, end] whose throughput is ``qps``.

        The whole loop by default; a workload with periodic background
        work narrows it to whole periods of that work.
        """
        return start, end

    # -- after the loop ----------------------------------------------------
    def describe(self) -> str:
        """One line on what the run did beyond queries (may be empty)."""
        return ""

    def finish(self, timed_load: bool) -> None:
        """Post-loop work (recovery, persistence probes); untimed."""

    def checks(self) -> list[Check]:
        oracle = Oracle(self.schema, self.oracle_rows)
        checked = wrong = 0
        for (query_index, visible), variants in sorted(self.answers.items()):
            expected = bits(oracle.expected(self.queries[query_index], visible))
            for answer, count in variants.items():
                checked += count
                if bits(answer) != expected:
                    wrong += count
        self.failed += wrong
        return [
            Check("answers_match_oracle", verdict(checked > 0 and wrong == 0),
                  f"checked={checked} wrong={wrong} of {len(self.latencies)} answered"),
            Check("no_failed_operations", verdict(not self.errors),
                  "; ".join(self.errors) or "failed=0"),
        ]

    # -- metrics the runner asks for ---------------------------------------
    def cube_bytes_per_row(self) -> float:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Cumulative counters; the runner takes deltas over each window."""
        with self._lock:
            out = {
                "queries": len(self.latencies),
                "client.latency_s": sum(self.latencies),
                "tuples_examined": self.tuples_examined,
                "rows_returned": self.rows_returned,
            }
        out.update(self.program_counters())
        return out

    def program_counters(self) -> dict[str, float]:
        """Cumulative counters the program keeps (device, pool, caches)."""
        return {}

    def extra_layer_metrics(self, traced: dict, untraced: dict) -> dict[str, float]:
        """Per-layer metrics from program counters and whole-run reports."""
        return {}


def _checked_indexes(seed: int, count: int, fraction: float) -> frozenset:
    rng = random.Random(f"perfbench-check-{seed}")
    return frozenset(i for i in range(count) if rng.random() < fraction)


def _pool_counters(pool) -> dict[str, float]:
    device = pool.device.stats
    return {
        "device.reads": device.reads,
        "device.cost": device.cost(),
        "buffer.hits": pool.stats.hits,
        "buffer.misses": pool.stats.misses,
    }


def _cache_counters(service) -> dict[str, float]:
    out = {}
    for label in ("pseudo_cache", "bound_memo", "columnar_cache"):
        cache = getattr(service, label, None)
        if cache is not None:
            out[f"{label}.hits"] = cache.stats.hits
            out[f"{label}.misses"] = cache.stats.misses
            out[f"{label}.evictions"] = cache.stats.evictions
    return out


def _service_counters(pool, service) -> dict[str, float]:
    out = _pool_counters(pool)
    out.update(_cache_counters(service))
    records = service.stats.records
    out["service.run_s"] = sum(r.latency_s for r in records)
    out["service.queries"] = len(records)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _storage_and_cache_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """Buffer / cache hit rates over the traced windows, I/O cost untraced."""
    hits = traced.get("buffer.hits", 0)
    out = {
        "storage.buffer.hit_rate": _ratio(hits, hits + traced.get("buffer.misses", 0)),
        "io_cost_per_query": _ratio(untraced.get("device.cost", 0),
                                    untraced.get("queries", 0)),
        "serve.cache.evictions": sum(
            traced.get(f"{label}.evictions", 0)
            for label in ("pseudo_cache", "bound_memo", "columnar_cache")
        ),
    }
    for label, metric in (("pseudo_cache", "pseudo_hit_rate"),
                          ("bound_memo", "bound_memo_hit_rate"),
                          ("columnar_cache", "columnar_hit_rate")):
        h = traced.get(f"{label}.hits", 0)
        out[f"serve.cache.{metric}"] = _ratio(h, h + traced.get(f"{label}.misses", 0))
    return out


class AdhocCold(Workload):
    """One client, direct ``RankingCubeExecutor.execute``, distinct queries."""

    name = "adhoc_cold"

    def __init__(self, sizes, seed, workdir, query_count: int = 30_000):
        super().__init__(sizes, seed, workdir)
        self.queries = make_queries(self.schema, seed, query_count)
        self.checked = _checked_indexes(seed, query_count, sizes.check_fraction)

    def setup(self) -> None:
        self.db = Database(page_size=PAGE_SIZE, buffer_capacity=self.sizes.buffer_frames)
        self.table = self.db.load_table("R", self.schema, self.rows)
        self.cube = RankingCube.build(self.table, block_size=self.sizes.block_size)
        self.executor = RankingCubeExecutor(self.cube, self.table)

    def teardown(self) -> None:
        self.db = self.table = self.cube = self.executor = None

    def run_query(self, query):
        return self.executor.execute(query)

    def cube_bytes_per_row(self) -> float:
        return self.cube.size_in_bytes / len(self.rows)

    def program_counters(self) -> dict[str, float]:
        return _pool_counters(self.db.pool)

    def extra_layer_metrics(self, traced, untraced):
        return _storage_and_cache_metrics(traced, untraced)


class DashboardHot(Workload):
    """Two clients, ``QueryService(workers=2, use_vector=True)``, zipf stream."""

    name = "dashboard_hot"
    clients = 2

    def __init__(self, sizes, seed, workdir, stream_length: int = 1_000_000):
        super().__init__(sizes, seed, workdir)
        self.queries = make_queries(self.schema, seed, sizes.distinct_queries)
        self.stream = zipf_stream(seed, sizes.distinct_queries, stream_length)
        self.checked = frozenset(range(len(self.queries)))

    def warmup(self) -> None:
        for query in self.queries:
            self.run_query(query)

    def query_index(self, index: int) -> int:
        return self.stream[index % len(self.stream)]

    def setup(self) -> None:
        from repro.serve import QueryService

        self.db = Database(page_size=PAGE_SIZE, buffer_capacity=self.sizes.buffer_frames)
        self.table = self.db.load_table("R", self.schema, self.rows)
        self.cube = RankingCube.build(self.table, block_size=self.sizes.block_size)
        self.service = QueryService(self.cube, self.table, workers=2, use_vector=True)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
        self.db = self.table = self.cube = self.service = None

    def run_query(self, query):
        return self.service.submit(query).result()

    def cube_bytes_per_row(self) -> float:
        return self.cube.size_in_bytes / len(self.rows)

    def program_counters(self) -> dict[str, float]:
        return _service_counters(self.db.pool, self.service)

    def extra_layer_metrics(self, traced, untraced):
        out = _storage_and_cache_metrics(traced, untraced)
        out.update(_service_split(traced))
        return out


def _service_split(traced: dict) -> dict[str, float]:
    """Queue wait = client-observed latency minus the service's run time."""
    queries = traced.get("service.queries", 0)
    if not queries:
        return {}
    run_us = traced["service.run_s"] / queries * 1e6
    client_us = traced["client.latency_s"] / queries * 1e6
    return {
        "serve.service.run_us": run_us,
        "serve.service.queue_wait_us": max(0.0, client_us - run_us),
    }


class LiveIngest(Workload):
    """Durable appends beside routed queries, one client; recovery at the end."""

    name = "live_ingest"

    def __init__(self, sizes, seed, workdir, batches: int = 2_000, query_count: int = 30_000):
        super().__init__(sizes, seed, workdir)
        self.shifted = shifted_rows(
            self.schema, batches * sizes.batch_rows, seed=seed
        )
        self.oracle_rows = self.rows + self.shifted
        self.queries = make_queries(self.schema, seed, query_count)
        self.checked = _checked_indexes(seed, query_count, sizes.check_fraction)
        self.batches_done = 0
        self.rows_appended = 0
        self.append_s = 0.0
        self.delta_sizes: list[int] = []
        self.checkpoint_rows = 0
        self.compacted_at: list[float] = []
        #: queries per compaction cycle; also the drift check interval
        self.cycle_queries = (
            sizes.compact_threshold // sizes.batch_rows * sizes.queries_per_batch
        )

    def setup(self) -> None:
        from repro.ingest import StreamIngestor
        from repro.serve.routed import RoutedQueryService

        self.teardown()
        store = self.workdir / "ingest"
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
        self.snapshot_path = store / "R.snapshot"
        self.wal_path = store / "R.wal"
        self.db = Database(page_size=PAGE_SIZE, buffer_capacity=self.sizes.buffer_frames)
        self.table = self.db.load_table("R", self.schema, self.rows)
        self.cube = RankingCube.build(self.table, block_size=self.sizes.block_size)
        self.workspace = Workspace(db=self.db, cubes={"R": self.cube})
        self.workspace.save(self.snapshot_path)
        self.ingestor = StreamIngestor(
            self.workspace, "R", self.wal_path,
            compact_threshold=self.sizes.compact_threshold,
        )
        self.ingestor.snapshot_path = self.snapshot_path
        self.service = RoutedQueryService(
            self.cube, self.table, workers=1,
            drift_check_interval=self.cycle_queries,
            drift_threshold=self.sizes.drift_threshold,
        )

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.ingestor.close()
        self.service = self.ingestor = None

    def warmup(self) -> None:
        """Run whole compaction cycles of the loop, untimed.

        The drift check interval is the queries of one compaction cycle
        (``cycle_queries``), so every drift check, and any repartition it
        triggers, falls right after a compaction, with an empty delta.  A
        repartition that absorbed delta rows would leave the ingestor's
        delta tiers counting them, and compaction would then fire before
        the threshold; the alignment keeps every run in one regime.
        """
        for _ in range(self.sizes.warmup_batches * (self.sizes.queries_per_batch + 1)):
            self.step(0)
        with self._lock:
            for series in (self.latencies, self.finished_at, self.blocks,
                           self.delta_sizes, self.compacted_at):
                series.clear()
            self.tuples_examined = self.rows_returned = 0

    def step(self, client: int) -> None:
        index = self._next()
        if index % (self.sizes.queries_per_batch + 1) == 0:
            self._append()
        else:
            self.delta_sizes.append(self.cube.delta_size)
            self.query_step(index)

    def _append(self) -> None:
        start = self.batches_done * self.sizes.batch_rows
        batch = self.shifted[start : start + self.sizes.batch_rows]
        if not batch:
            return  # the planned appends are exhausted; keep querying
        compactor = self.ingestor.compactor
        runs = compactor.runs
        started = time.perf_counter()
        try:
            self.ingestor.append(batch)
        except Exception as exc:
            self._record_error(exc)
            return
        elapsed = time.perf_counter() - started
        if compactor.runs != runs and compactor.last_report.swapped:
            self.compacted_at.append(started + elapsed)
        self.attempted += 1
        self.append_s += elapsed
        self.batches_done += 1
        self.rows_appended += len(batch)
        if self.batches_done == self.sizes.checkpoint_after_batches:
            self.ingestor.checkpoint()
            self.checkpoint_rows = self.table.num_rows

    def visible_rows(self) -> int:
        return self.table.num_rows

    def rate_span(self, start: float, end: float) -> tuple[float, float]:
        # first to last compaction: whole cycles, each with the same
        # appends and queries and exactly one threshold compaction
        inside = [t for t in self.compacted_at if start <= t <= end]
        return (inside[0], inside[-1]) if len(inside) >= 2 else (start, end)

    def run_query(self, query):
        return self.service.submit(query).result()

    def finish(self, timed_load: bool) -> None:
        from repro.ingest import StreamIngestor

        self.repartitions = list(self.service.repartitions)
        self.teardown()
        started = time.perf_counter()
        recovered = StreamIngestor.recover(self.snapshot_path, "R", self.wal_path)
        self.recovery_s = time.perf_counter() - started
        try:
            scanned = list(recovered.table.scan())
            self.recovered_rows = [tuple(rec[1:]) for rec in scanned]
            self.recovered_tids = [rec[0] for rec in scanned]
            executor = RankingCubeExecutor(recovered.cube, recovered.table)
            sample = sorted({qi for qi, _visible in self.answers})[:20] or [0]
            self.recovered_answers = [
                (qi, tuple((r.score, r.tid) for r in executor.execute(self.queries[qi]).rows))
                for qi in sample
            ]
        finally:
            recovered.close()
        if timed_load:
            started = time.perf_counter()
            Workspace.load(self.snapshot_path)
            self.load_s = time.perf_counter() - started
        self.snapshot_bytes_per_row = (
            self.snapshot_path.stat().st_size / max(1, self.checkpoint_rows or len(self.rows))
        )

    def describe(self) -> str:
        return (
            f"batches={self.batches_done} rows_appended={self.rows_appended} "
            f"compactions={len(self.compacted_at)} repartitions={len(self.repartitions)} "
            f"checkpoint_rows={self.checkpoint_rows} recovery_s={self.recovery_s:.4f}"
        )

    def checks(self) -> list[Check]:
        checks = super().checks()
        total = len(self.rows) + self.rows_appended
        expected_rows = self.oracle_rows[:total]
        state_ok = (
            self.recovered_rows == [tuple(r) for r in expected_rows]
            and self.recovered_tids == list(range(total))
        )
        if not state_ok:
            self.failed += 1
        checks.append(Check(
            "recovered_state_matches", verdict(state_ok),
            f"rows={len(self.recovered_rows)} expected={total} "
            f"checkpoint_rows={self.checkpoint_rows}",
        ))
        oracle = Oracle(self.schema, self.oracle_rows)
        wrong = sum(
            bits(answer) != bits(oracle.expected(self.queries[qi], total))
            for qi, answer in self.recovered_answers
        )
        self.failed += wrong
        checks.append(Check(
            "recovered_answers_match_oracle", verdict(wrong == 0),
            f"checked={len(self.recovered_answers)} wrong={wrong}",
        ))
        return checks

    def cube_bytes_per_row(self) -> float:
        return self.cube.size_in_bytes / len(self.rows)

    def program_counters(self) -> dict[str, float]:
        out = _service_counters(self.db.pool, self.service)
        out["append.rows"] = self.rows_appended
        out["append.s"] = self.append_s
        return out

    def extra_layer_metrics(self, traced, untraced):
        out = _storage_and_cache_metrics(traced, untraced)
        out.update(_service_split(traced))
        out.update({
            "route.drift.repartitions": len(self.repartitions),
            "route.drift.repartition_s": (
                sum(r.wall_s for r in self.repartitions) / len(self.repartitions)
                if self.repartitions else 0.0
            ),
            "core.compaction.runs": len(self.compacted_at),
            "core.cube.delta_rows_per_query": (
                sum(self.delta_sizes) / len(self.delta_sizes) if self.delta_sizes else 0.0
            ),
            "ingest_rows_per_s": _ratio(untraced.get("append.rows", 0),
                                        untraced.get("append.s", 0)),
            "recovery_s": self.recovery_s,
            "persist.load_s": self.load_s,
            "persist.snapshot_bytes_per_row": self.snapshot_bytes_per_row,
        })
        return out


class ShardedFanout(Workload):
    """One client, ``ShardedQueryService(mode="process")`` over 2 shards.

    One client, not two: each query already keeps both shard workers
    busy on a 2-core host, and a second client queued three busy
    processes on two cores, which turned every slow spell of a shared
    host into latencies twice as long.
    """

    name = "sharded_fanout"

    def __init__(self, sizes, seed, workdir, query_count: int = 30_000):
        super().__init__(sizes, seed, workdir)
        self.queries = make_queries(self.schema, seed, query_count)
        self.checked = _checked_indexes(seed, query_count, sizes.check_fraction)

    def setup(self) -> None:
        from repro.serve import ShardedQueryService
        from repro.shard import build_sharded

        self.teardown()
        self.spill_dir = self.workdir / "spill"
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        self.cube = build_sharded(
            self.schema, self.rows, 2, mode="tid_range",
            block_size=self.sizes.block_size,
            buffer_capacity=self.sizes.buffer_frames,
        )
        self.service = ShardedQueryService(
            self.cube, workers=2, mode="process", spill_dir=str(self.spill_dir),
        )

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
        self.service = None

    def run_query(self, query):
        return self.service.submit(query).result()

    def finish(self, timed_load: bool) -> None:
        self.teardown()
        self.snapshot_bytes_per_row = sum(
            f.stat().st_size for f in self.spill_dir.rglob("*") if f.is_file()
        ) / len(self.rows)
        if timed_load:
            started = time.perf_counter()
            ShardedWorkspace.load(self.spill_dir)
            self.load_s = time.perf_counter() - started

    def cube_bytes_per_row(self) -> float:
        return sum(s.cube.size_in_bytes for s in self.cube.shards) / len(self.rows)

    def program_counters(self) -> dict[str, float]:
        records = self.service.stats.records
        return {
            "shard.records": len(records),
            "shard.consulted": sum(r.shards_consulted for r in records),
        }

    def extra_layer_metrics(self, traced, untraced):
        return {
            "serve.sharded.fanout_per_query": _ratio(
                traced.get("shard.consulted", 0), traced.get("shard.records", 0)
            ),
            "persist.load_s": self.load_s,
            "persist.snapshot_bytes_per_row": self.snapshot_bytes_per_row,
        }


WORKLOADS = {
    cls.name: cls for cls in (AdhocCold, DashboardHot, LiveIngest, ShardedFanout)
}
