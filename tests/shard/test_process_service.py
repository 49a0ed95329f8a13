"""Sharded serving contracts in both modes, and process-mode policies.

Thread and process mode run one coordinator over two shard pools, so
the observability contracts (shard attribution, counters folded under
``shard=<id>``, span adoption), every documented ``fault_hook`` point and
session cleanup on abort are checked in both.  The deep worker-kill
matrix lives in ``tests/faults/test_worker_kill.py``; the rest of this
suite covers process-mode identity and the front-end policies
(coalescing, admission control, spill-directory lifecycle).
"""

import random
import threading

import pytest

from repro.core import QueryAbortedError, ReverseTopKQuery, simplex_grid_family
from repro.obs.metrics import MetricsRegistry
from repro.persist import save_sharded_workspace
from repro.ranking import LinearFunction
from repro.relational import (
    Schema,
    TopKQuery,
    ranking_attr,
    selection_attr,
)
from repro.serve import (
    ServiceClosedError,
    ServiceOverloadedError,
    ShardedQueryService,
)
from repro.serve import wire
from repro.shard import build_sharded
from repro.storage import StorageError

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

SCHEMA = Schema.of(
    [
        selection_attr("a1", 3),
        selection_attr("a2", 4),
        ranking_attr("n1"),
        ranking_attr("n2"),
    ]
)


def make_rows(count=150, seed=11):
    rng = random.Random(seed)
    return [
        (rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
        for _ in range(count)
    ]


def query(k=5, **selections):
    return TopKQuery(k, selections, LinearFunction(["n1", "n2"], [1.0, 0.5]))


def signature(result):
    return [(row.tid, round(row.score, 9)) for row in result.rows]


@pytest.fixture(scope="module")
def cube():
    return build_sharded(SCHEMA, make_rows(), 3, block_size=8)


@pytest.fixture(scope="module")
def proc_service(cube):
    with ShardedQueryService(cube, workers=2, mode="process") as service:
        yield service


QUERIES = [
    query(k=4, a1=1),
    query(k=7),
    query(k=3, a2=2),
    query(k=1, a1=0, a2=3),
    TopKQuery(5, {}, LinearFunction(["n2"], [1.0])),
    TopKQuery(2, {"a1": 2}, LinearFunction(["n1", "n2"], [0.2, 1.0]),
              projection=("a2",)),
]


class TestProcessModeIdentity:
    def test_answers_match_thread_mode_exactly(self, cube, proc_service):
        with ShardedQueryService(cube, workers=2) as threaded:
            expected = [threaded.submit(q).result() for q in QUERIES]
        got = [proc_service.submit(q).result() for q in QUERIES]
        for want, have in zip(expected, got):
            assert signature(want) == signature(have)
            assert [r.values for r in want.rows] == [r.values for r in have.rows]


@pytest.mark.parametrize("mode", ["thread", "process"])
class TestBothModes:
    def test_shard_attribution_is_complete(self, cube, mode):
        with ShardedQueryService(cube, workers=2, mode=mode) as service:
            result = service.submit(query(k=4, a1=1)).result()
        assert sorted(result.shard_io) == [0, 1, 2]
        assert result.blocks_accessed == sum(
            io.blocks_accessed for io in result.shard_io.values()
        )
        assert result.tuples_examined == sum(
            io.tuples_examined for io in result.shard_io.values()
        )

    def test_counters_fold_under_shard_label(self, cube, mode):
        registry = MetricsRegistry()
        with ShardedQueryService(
            cube, workers=1, mode=mode, registry=registry
        ) as service:
            service.submit(query(k=4)).result()
        snap = registry.snapshot()
        assert snap["shard.service.queries"] == 1
        # shard-side storage/cache series land here with a shard label
        merged = [k for k in snap if "shard=" in k and k.startswith("serve.cache.")]
        assert merged, sorted(snap)

    def test_spans_adopted_under_merge_span(self, cube, mode):
        with ShardedQueryService(
            cube, workers=1, mode=mode, trace_spans=True
        ) as service:
            service.submit(query(k=3, a1=0)).result()
        root = service.spans[-1]
        assert root.name == "query"
        (merge,) = [c for c in root.children if c.name == "shard_merge"]
        batches = [c for c in merge.children if c.name == "shard_batch"]
        assert {b.attributes["shard"] for b in batches} == {0, 1, 2}
        assert merge.counters["shard_steps"] >= 1


#: Every point ``fault_hook`` documents for both modes.
FAULT_POINTS = (
    "scatter", "merge_round", "finish", "enum_open", "enum_next",
    "reverse_count", "promote",
)


@pytest.mark.parametrize("mode", ["thread", "process"])
class TestFaultSeams:
    def test_every_documented_fault_point_fires(self, mode):
        rows = make_rows()
        cube = build_sharded(
            SCHEMA, rows, 2, block_size=8, replication_factor=2
        )
        fired = set()
        kill = {"armed": False}

        def hook(point, shard_id):
            fired.add(point)
            if kill["armed"] and point == "scatter" and shard_id == 1:
                kill["armed"] = False  # one primary death, then heal
                if mode == "thread":
                    raise StorageError("injected primary death (shard 1)")
                worker = service._shard_pool._handles[1].process
                worker.kill()
                worker.join(timeout=10)

        with ShardedQueryService(
            cube, workers=1, mode=mode, fault_hook=hook, step_batch=2,
            worker_timeout_s=30.0,
        ) as service:
            expected = signature(service.submit(query(k=20)).result())
            with service.open_search(query(k=3)) as cursor:
                assert len(cursor.next_batch(12)) == 12
            best = min(range(len(rows)), key=lambda t: (rows[t][2] + rows[t][3], t))
            service.submit_reverse(
                ReverseTopKQuery(best, 5, {}, simplex_grid_family(["n1", "n2"], 3))
            ).result()
            kill["armed"] = True
            assert signature(service.submit(query(k=20)).result()) == expected
        assert set(FAULT_POINTS) <= fired, sorted(set(FAULT_POINTS) - fired)


@pytest.mark.parametrize("mode", ["thread", "process"])
class TestAbortCleanup:
    def test_aborted_open_closes_the_sessions_that_opened(self, mode):
        """Shard 1 fails to open; the session shard 0 opened must close."""
        cube = build_sharded(SCHEMA, make_rows(), 2, block_size=8)

        def hook(point, shard_id):
            if point == "scatter" and shard_id == 1:
                raise StorageError("injected scatter fault (shard 1)")

        with ShardedQueryService(
            cube, workers=1, mode=mode, fault_hook=hook
        ) as service:
            handle = service._shard_pool.handle(0)
            request = handle.request
            sent = []

            def recording(message, *args, **kwargs):
                sent.append(message)
                return request(message, *args, **kwargs)

            handle.request = recording
            with pytest.raises(QueryAbortedError):
                service.submit(query(k=5)).result()
            (opened,) = [
                m.request_id for m in sent if isinstance(m, wire.OpenSearch)
            ]
            if mode == "thread":
                assert handle.sessions == {}
            with pytest.raises(wire.WireError, match="no open session"):
                request(wire.CloseSearch(opened))


class TestFrontEndPolicies:
    def test_identical_inflight_queries_coalesce(self, cube):
        release = threading.Event()
        entered = threading.Event()

        def hook(point, shard_id):
            if point == "scatter":
                entered.set()
                release.wait(timeout=60)

        registry = MetricsRegistry()
        with ShardedQueryService(
            cube, workers=2, mode="process", registry=registry, fault_hook=hook
        ) as service:
            first = service.submit(query(k=4, a1=1))
            assert entered.wait(timeout=60)
            second = service.submit(query(k=4, a1=1))
            assert second is first
            release.set()
            assert signature(first.result()) == signature(second.result())
        assert registry.snapshot()["shard.service.coalesced"] == 1
        assert registry.snapshot()["shard.service.queries"] == 1

    def test_admission_control_sheds_excess_load(self, cube):
        release = threading.Event()
        entered = threading.Event()

        def hook(point, shard_id):
            if point == "scatter":
                entered.set()
                release.wait(timeout=60)

        registry = MetricsRegistry()
        with ShardedQueryService(
            cube, workers=2, mode="process", registry=registry,
            max_inflight=1, fault_hook=hook,
        ) as service:
            first = service.submit(query(k=4, a1=1))
            assert entered.wait(timeout=60)
            with pytest.raises(ServiceOverloadedError):
                service.submit(query(k=2, a2=0))  # distinct: not coalesced
            release.set()
            first.result()
            # capacity freed: the same query is admitted now
            service.submit(query(k=2, a2=0)).result()
        assert registry.snapshot()["shard.service.overloaded"] == 1

    def test_coalescing_can_be_disabled(self, cube):
        with ShardedQueryService(
            cube, workers=2, mode="process", coalesce=False
        ) as service:
            first = service.submit(query(k=3))
            second = service.submit(query(k=3))
            assert second is not first
            assert signature(first.result()) == signature(second.result())


class TestLifecycle:
    def test_reuses_pinned_spill_directory(self, cube, tmp_path):
        manifest = save_sharded_workspace(cube, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        with ShardedQueryService(
            cube, workers=1, mode="process", spill_dir=str(tmp_path)
        ) as service:
            result = service.submit(query(k=3)).result()
        assert len(result.rows) == 3
        # a caller-owned directory survives close()
        assert (tmp_path / "manifest.json").exists()
        assert manifest["shards"]

    def test_close_terminates_workers_and_rejects_queries(self, cube):
        service = ShardedQueryService(cube, workers=1, mode="process")
        pool = service._shard_pool
        procs = [h.process for h in pool._handles.values()]
        assert all(p.is_alive() for p in procs)
        service.close()
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()
        with pytest.raises(ServiceClosedError):
            service.submit(query(k=1))

    def test_cold_cache_round_trips_to_workers(self, proc_service):
        proc_service.cold_cache()
        result = proc_service.submit(query(k=4, a1=1)).result()
        # a cooled worker re-reads from its device: physical reads visible
        assert sum(io.device_reads for io in result.shard_io.values()) > 0
