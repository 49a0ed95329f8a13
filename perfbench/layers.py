"""Per-layer probes and the per-layer metrics of the traced run.

:func:`plan_probes` lists every public call the traced run wraps, each
under the ``repro`` module (layer) it belongs to.  :data:`PER_LAYER`
names every per-layer metric with its unit, in the order
``BENCHMARK.json`` lists them; :func:`span_metrics` derives the
span-based ones from a :class:`~spans.SpanRecorder`.  Metrics of a layer
the workload never calls read 0 — that is the bypass prediction.
"""

from __future__ import annotations

from spans import CALLS, MAX_NS, SELF_NS, TOTAL_NS, UNITS, SpanRecorder

#: (name, unit) of every per-layer metric, in ``BENCHMARK.json`` order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("storage.device.reads_per_query", "count"),
    ("storage.device.read_us_per_query", "us"),
    ("storage.buffer.hit_rate", "ratio"),
    ("storage.buffer.get_us_per_query", "us"),
    ("storage.pages.decode_calls_per_query", "count"),
    ("storage.pages.decode_us_per_query", "us"),
    ("index.bptree.lookups_per_query", "count"),
    ("index.bptree.lookup_us_per_query", "us"),
    ("core.chains.get_us_per_query", "us"),
    ("core.chains.records_per_get", "count"),
    ("core.cuboid.pseudo_blocks_per_query", "count"),
    ("core.cuboid.retrieve_us_per_query", "us"),
    ("core.base_table.blocks_per_query", "count"),
    ("core.base_table.decode_us_per_query", "us"),
    ("ranking.bound_calls_per_query", "count"),
    ("ranking.bound_us_per_query", "us"),
    ("core.blocks.us_per_query", "us"),
    ("core.executor.self_us_per_query", "us"),
    ("core.executor.tuples_examined_per_query", "count"),
    ("core.executor.useful_ratio", "ratio"),
    ("vector.kernels.us_per_query", "us"),
    ("serve.cache.pseudo_hit_rate", "ratio"),
    ("serve.cache.bound_memo_hit_rate", "ratio"),
    ("serve.cache.columnar_hit_rate", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.service.queue_wait_us", "us"),
    ("serve.service.run_us", "us"),
    ("serve.sharded.fanout_per_query", "count"),
    ("serve.wire.round_trips_per_query", "count"),
    ("serve.wire.bytes_per_query", "bytes"),
    ("serve.wire.send_us_per_query", "us"),
    ("serve.wire.recv_wait_us_per_query", "us"),
    ("route.router.decide_us_per_query", "us"),
    ("route.router.probe_rate", "ratio"),
    ("route.drift.repartitions", "count"),
    ("route.drift.repartition_s", "s"),
    ("ingest.wal.append_us_per_batch", "us"),
    ("ingest.wal.bytes_per_row", "bytes"),
    ("core.cube.refresh_delta_us_per_batch", "us"),
    ("core.cube.delta_rows_per_query", "count"),
    ("core.compaction.runs", "count"),
    ("core.compaction.max_stall_ms", "ms"),
    ("persist.save_s", "s"),
    ("persist.load_s", "s"),
    ("persist.snapshot_bytes_per_row", "bytes"),
    ("io_cost_per_query", "cost"),
    ("ingest_rows_per_s", "rows/s"),
    ("recovery_s", "s"),
    ("trace.qps_untraced", "1/s"),
    ("trace.qps_traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def plan_probes(recorder: SpanRecorder) -> None:
    """Plan a span around every query-path entry point (traced windows)."""
    from multiprocessing.connection import Connection

    from repro.core import executor as core_executor
    from repro.core.base_table import BaseBlockTable
    from repro.core.blocks import BlockGrid
    from repro.core.chains import ChainStore
    from repro.core.cuboid import RankingCuboid
    from repro.core.executor import RankingCubeExecutor
    from repro.index.bptree import BPlusTree
    from repro.ranking import functions
    from repro.route.router import AdaptiveRouter
    from repro.serve import wire
    from repro.storage.buffer import BufferPool
    from repro.storage.device import BlockDevice
    from repro.storage.pages import BytesPage, RecordPage
    from repro.vector.layout import ColumnarBlock

    patch = recorder.patch
    patch(BlockDevice, "read", "storage.device")
    patch(BufferPool, "get", "storage.buffer")
    patch(RecordPage, "from_bytes", "storage.pages")
    patch(BytesPage, "from_bytes", "storage.pages")
    patch(BPlusTree, "get", "index.bptree")
    patch(ChainStore, "get", "core.chains", observe=_returned_len)
    patch(RankingCuboid, "decode_pseudo_block", "core.cuboid")
    patch(RankingCuboid, "get_pseudo_block", "core.cuboid")
    patch(BaseBlockTable, "get_base_block", "core.base_table")
    # every concrete bound implementation; subclasses without their own
    # (QuadraticForm, ConvexFunction) run the base class's numeric one
    for cls in (
        functions.RankingFunction,
        functions.LinearFunction,
        functions.LpDistance,
        functions.NegatedFunction,
    ):
        for attr in ("min_over_box", "min_over_boxes"):
            if attr in vars(cls):
                patch(cls, attr, "ranking")
    # neighbors() is a generator: its time lands in the executor's self
    for attr in ("sub_box", "locate", "project", "box", "coords_of", "bid_of"):
        patch(BlockGrid, attr, "core.blocks")
    patch(RankingCubeExecutor, "execute", "core.executor")
    # the executor imported the kernels by name: patch its namespace
    for attr in ("apply_selection", "block_bounds", "eval_scores",
                 "gather_tids", "topk_select"):
        patch(core_executor, attr, "vector.kernels")
    patch(ColumnarBlock, "from_records", "vector.kernels")
    patch(wire, "send_msg", "serve.wire")
    patch(wire, "recv_msg", "serve.wire")
    # frame bytes, counted where the pipe carries them (the base class
    # that defines the methods Connection inherits)
    for attr, observe in (("send_bytes", _sent_len), ("recv_bytes", _returned_len)):
        owner = next(c for c in Connection.__mro__ if attr in vars(c))
        patch(owner, attr, "serve.wire.conn", observe=observe)
    patch(AdaptiveRouter, "decide", "route.router", observe=_probed)


def plan_event_probes(recorder: SpanRecorder) -> None:
    """Plan spans around rare, heavy calls (the whole traced run).

    Writes, compactions, repartitions and snapshots happen a few times
    per run, so halving their sample by tracing only some windows would
    make them read 0 or 1 by chance; wrapping them costs nothing
    measurable, so they are recorded from the last set-up to the end.
    """
    from repro.core.compaction import CubeCompactor
    from repro.core.cube import RankingCube
    from repro.ingest.stream import StreamIngestor
    from repro.ingest.wal import WriteAheadLog
    from repro.persist import ShardedWorkspace, Workspace
    from repro.route.drift import DriftDetector
    from repro.serve import routed

    patch = recorder.patch
    patch(StreamIngestor, "append", "ingest.stream", observe=_returned)
    patch(WriteAheadLog, "append_durable", "ingest.wal", observe=_returned)
    patch(RankingCube, "refresh_delta", "core.cube")
    patch(CubeCompactor, "compact_once", "core.compaction", observe=_swapped)
    patch(DriftDetector, "check", "route.drift")
    patch(routed, "repartition_cube", "route.drift")
    patch(Workspace, "save", "persist")
    patch(ShardedWorkspace, "save", "persist")


def _returned(_args, result) -> int:
    return int(result)


def _returned_len(_args, result) -> int:
    return len(result)


def _sent_len(args, _result) -> int:
    return len(args[1])


def _probed(_args, decision) -> int:
    return 1 if decision.probe else 0


def _swapped(_args, report) -> int:
    return 1 if report.swapped else 0


def span_metrics(recorder: SpanRecorder, queries: int) -> dict[str, float]:
    """Per-layer metrics from the traced windows' query-path spans."""
    q = max(1, queries)

    def per_query_us(layer: str) -> float:
        return recorder.layer(layer)[SELF_NS] / 1e3 / q

    def per_query(layer: str) -> float:
        return recorder.layer(layer)[CALLS] / q

    chains = recorder.layer("core.chains")
    decide = recorder.layer("route.router")
    send = recorder.layer("serve.wire", "wire.send_msg")
    recv = recorder.layer("serve.wire", "wire.recv_msg")
    wire_bytes = recorder.layer("serve.wire.conn")[UNITS]
    return {
        "storage.device.reads_per_query": per_query("storage.device"),
        "storage.device.read_us_per_query": per_query_us("storage.device"),
        "storage.buffer.get_us_per_query": per_query_us("storage.buffer"),
        "storage.pages.decode_calls_per_query": per_query("storage.pages"),
        "storage.pages.decode_us_per_query": per_query_us("storage.pages"),
        "index.bptree.lookups_per_query": per_query("index.bptree"),
        "index.bptree.lookup_us_per_query": per_query_us("index.bptree"),
        "core.chains.get_us_per_query": chains[SELF_NS] / 1e3 / q,
        "core.chains.records_per_get": chains[UNITS] / max(1, chains[CALLS]),
        "core.cuboid.pseudo_blocks_per_query": per_query("core.cuboid"),
        "core.cuboid.retrieve_us_per_query": per_query_us("core.cuboid"),
        "core.base_table.blocks_per_query": per_query("core.base_table"),
        "core.base_table.decode_us_per_query": per_query_us("core.base_table"),
        "ranking.bound_calls_per_query": per_query("ranking"),
        "ranking.bound_us_per_query": per_query_us("ranking"),
        "core.blocks.us_per_query": per_query_us("core.blocks"),
        "core.executor.self_us_per_query": per_query_us("core.executor"),
        "vector.kernels.us_per_query": per_query_us("vector.kernels"),
        "serve.wire.round_trips_per_query": recv[CALLS] / q,
        "serve.wire.bytes_per_query": wire_bytes / q,
        "serve.wire.send_us_per_query": send[TOTAL_NS] / 1e3 / q,
        "serve.wire.recv_wait_us_per_query": recv[TOTAL_NS] / 1e3 / q,
        "route.router.decide_us_per_query": decide[TOTAL_NS] / 1e3 / q,
        "route.router.probe_rate": decide[UNITS] / max(1, decide[CALLS]),
    }


def event_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics from the rare-event spans of the whole run."""
    ingest = recorder.layer("ingest.stream")
    batches = ingest[CALLS]
    if batches:
        wal = recorder.layer("ingest.wal")
        refresh = recorder.layer("core.cube")
        out = {
            "ingest.wal.append_us_per_batch": wal[TOTAL_NS] / 1e3 / batches,
            "ingest.wal.bytes_per_row": wal[UNITS] / max(1, ingest[UNITS]),
            "core.cube.refresh_delta_us_per_batch": refresh[TOTAL_NS] / 1e3 / batches,
        }
    else:
        out = {}
    compaction = recorder.layer("core.compaction")
    saves = recorder.layer("persist")
    out["core.compaction.max_stall_ms"] = compaction[MAX_NS] / 1e6
    out["persist.save_s"] = saves[TOTAL_NS] / 1e9 / max(1, saves[CALLS])
    return out
