"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc_cold --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each):

* ``adhoc_cold``     one client, ``RankingCubeExecutor.execute``, distinct
                     queries, data several times the buffer pool;
* ``dashboard_hot``  two clients, ``QueryService(workers=2, use_vector=True)``,
                     a zipf stream over a few dozen queries, data in memory;
* ``live_ingest``    one client, durable appends beside routed queries,
                     compaction, a checkpoint, recovery at the end;
* ``sharded_fanout`` one client, process-mode ``ShardedQueryService`` over
                     two shards.

Every run generates its inputs from ``--seed``, sets the system up
several times (the median is ``setup_s``), warms it, drives a closed
loop for ``--seconds``, then checks answers against the brute-force
oracle.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced windows, reports the per-layer metrics
and the tracing overhead, and writes the spans under ``perfbench/out/``.
The last line of standard output is one JSON object; the exit code is
0 only when every check passed.  ``--scale tiny`` shrinks every input
for the benchmark's own tests.  Before it exits, on every path, the run
stops and reaps every process it started (:func:`stop_children`).

End-to-end times are stated in reference-host time.  On a shared
2-vCPU cloud host, CPU speed drifts by 20-30% over tens of seconds
(the same for wall and CPU time), which no affordable run length
averages out.  So a fixed piece of pure-Python work
(:func:`calibration_loop`) runs every ``CALIBRATION_EVERY_S`` of the
loop, with the clients stopped, and around every set-up; each time is
divided by the mean calibration time over ``REFERENCE_CALIBRATION_S``
(throughput multiplied).  The wall-clock figures are printed on the
``# wall`` line.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import struct
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: (name, unit) of every end-to-end metric, in ``BENCHMARK.json`` order.
END_TO_END = (
    ("qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("setup_s", "s"),
    ("blocks_per_query", "blocks"),
    ("peak_rss_mb", "MB"),
    ("cube_bytes_per_row", "bytes"),
)

#: Length of one untraced or traced window in a ``--trace 1`` run.
TRACE_WINDOW_S = 1.0
#: Seconds of closed loop between two calibration probes.
CALIBRATION_EVERY_S = 0.5
#: Calibration probes before and after each set-up.
CALIBRATIONS_PER_SETUP = 5
#: Median time of :func:`calibration_loop` on the reference host, a
#: 2-vCPU Intel Xeon at 2.1 GHz running CPython 3.11 (see module docstring).
REFERENCE_CALIBRATION_S = 0.014
WAL_FLUSH_POLICY = "fsync-per-batch"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class _Probe:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


def calibration_loop() -> float:
    """Seconds one fixed piece of pure-Python work takes: the host's speed.

    Object creation, attribute and dict access, float arithmetic, list
    sorting and ``struct`` packing, the operations the query path spends
    its interpreter time on.  The garbage collector is off meanwhile, so
    the probe's time does not grow with the program's heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict[int, _Probe] = {}
        heap: list[tuple[float, int]] = []
        total = 0.0
        for i in range(12_000):
            probe = _Probe(i & 511, i * 0.5)
            table[probe.key] = probe
            other = table.get((i * 7) & 511)
            if other is not None:
                total += other.value * 1.0001
            heap.append((total, i))
            if len(heap) > 64:
                heap.sort()
                del heap[32:]
            struct.pack("<d", total)
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def slowdown(calibrations: list[float]) -> float:
    """How much slower than the reference host the host ran (>1 = slower)."""
    return statistics.mean(calibrations) / REFERENCE_CALIBRATION_S


def active_seconds(lo: float, hi: float, pauses: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] minus the calibration pauses inside it."""
    paused = sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in pauses)
    return hi - lo - paused


def throughput(workload, start: float, end: float,
               pauses: list[tuple[float, float]]) -> tuple[float, int]:
    """Queries/s over the workload's rate span inside [start, end].

    Calibration pauses do not count as time.  Returns the rate and the
    number of queries it counts.
    """
    lo, hi = workload.rate_span(start, end)
    stamps = sorted(workload.finished_at)
    done = bisect.bisect_right(stamps, hi) - bisect.bisect_right(stamps, lo)
    return done / active_seconds(lo, hi, pauses), done


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux mountinfo)."""
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return "unknown"
    best, fstype = "", "unknown"
    target = str(path.resolve())
    for line in lines:
        fields = line.split()
        mount = fields[4]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
            best, fstype = mount, fields[fields.index("-") + 1]
    return fstype


def run_window(workload, seconds: float) -> tuple[float, float]:
    """Drive the closed loop from every client for ``seconds``.

    Returns the window's start and end on the ``perf_counter`` clock.
    """
    started = time.perf_counter()
    deadline = started + seconds

    def client(index: int) -> None:
        while time.perf_counter() < deadline:
            workload.step(index)

    if workload.clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}")
            for i in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return started, time.perf_counter()


def calibrated_loop(workload, seconds: float):
    """The untraced closed loop, in slices with a calibration probe between.

    The clients stop at the end of each ``CALIBRATION_EVERY_S`` slice
    (a request in flight completes first), the probe runs alone, and the
    clients resume.  Returns the loop's start and end, the pauses and the
    probe times.
    """
    pauses: list[tuple[float, float]] = []
    calibrations = [calibration_loop()]
    started = time.perf_counter()
    remaining = seconds
    while True:
        slice_start, slice_end = run_window(workload, min(remaining, CALIBRATION_EVERY_S))
        remaining -= slice_end - slice_start
        if remaining <= 1e-9:
            break
        calibrations.append(calibration_loop())
        pauses.append((slice_end, time.perf_counter()))
    ended = time.perf_counter()
    calibrations.append(calibration_loop())
    return started, ended, pauses, calibrations


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def accumulate(into: dict, more: dict) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


def span_nesting_ok(recorder) -> tuple[bool, str]:
    """Every child lies inside its parent and children never sum past it."""
    import numpy as np

    spans = np.frombuffer(recorder.spans, dtype=np.int64).reshape(-1, 6)
    if len(spans) == 0:
        return False, "no spans recorded"
    ids, parents = spans[:, 0], spans[:, 1]
    start, end = spans[:, 4], spans[:, 5]
    order = np.argsort(ids)
    children = np.flatnonzero(parents != 0)
    slot = np.searchsorted(ids[order], parents[children])
    slot = np.minimum(slot, len(order) - 1)
    parent_rows = order[slot]
    known = ids[parent_rows] == parents[children]
    kids, owners = children[known], parent_rows[known]
    inside = (start[kids] >= start[owners]) & (end[kids] <= end[owners])
    covered = np.zeros(len(spans), dtype=np.int64)
    np.add.at(covered, owners, end[kids] - start[kids])
    within = covered <= end - start
    ok = bool(inside.all() and within.all() and (end >= start).all())
    return ok, (
        f"spans={len(spans)} dropped={recorder.dropped} children={len(kids)} "
        f"outside_parent={int((~inside).sum())} over_parent={int((~within).sum())}"
    )


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The program joins its shard workers on ``close``; what outlives it is
    multiprocessing's resource tracker, started with the first spawned
    worker, which would otherwise end only after this process has exited.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def _terminated(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy

    import layers
    from spans import SpanRecorder
    from workloads import SIZES, WORKLOADS, Check, verdict

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    sizes = SIZES[args.scale][args.workload]
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = None
    recorder = events = None
    try:
        # inputs first: generation is not part of set-up time
        workload = WORKLOADS[args.workload](sizes, args.seed, workdir)
        if traced:
            recorder, events = SpanRecorder(), SpanRecorder(capacity=100_000)
            layers.plan_probes(recorder)
            layers.plan_event_probes(events)

        setup_times, setup_wall = [], []
        for attempt in range(sizes.setups):
            last = attempt == sizes.setups - 1
            if last and traced:
                events.install()
            gc.collect()
            probes = [calibration_loop() for _ in range(CALIBRATIONS_PER_SETUP)]
            started = time.perf_counter()
            workload.setup()
            setup_wall.append(time.perf_counter() - started)
            probes += [calibration_loop() for _ in range(CALIBRATIONS_PER_SETUP)]
            setup_times.append(setup_wall[-1] / slowdown(probes))
            if not last:
                workload.teardown()
        cube_bytes = workload.cube_bytes_per_row()
        workload.warmup()

        totals = {"untraced": {}, "traced": {}}
        elapsed = {"untraced": 0.0, "traced": 0.0}
        if traced:
            remaining = args.seconds
            phase = "untraced"
            while remaining > 1e-9:
                window = min(remaining, TRACE_WINDOW_S)
                if phase == "traced":
                    recorder.install()
                before = workload.counters()
                try:
                    start, end = run_window(workload, window)
                    elapsed[phase] += end - start
                finally:
                    if phase == "traced":
                        recorder.remove()
                accumulate(totals[phase], delta(workload.counters(), before))
                remaining -= window
                phase = "traced" if phase == "untraced" else "untraced"
            events.remove()
        else:
            before = workload.counters()
            start, end, pauses, calibrations = calibrated_loop(workload, args.seconds)
            accumulate(totals["untraced"], delta(workload.counters(), before))
        workload.finish(timed_load=traced)
        rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0
        checks = workload.checks()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if workload is not None:
            try:
                workload.teardown()
            except Exception:
                traceback.print_exc()
        shutil.rmtree(workdir, ignore_errors=True)

    # ------------------------------------------------------------------
    untraced = totals["untraced"]
    queries = int(untraced.get("queries", 0))
    latencies = sorted(workload.latencies)
    samples: dict[str, int] = {}
    wall_line = ""
    if traced:
        traced_totals = totals["traced"]
        traced_queries = int(traced_totals.get("queries", 0))
        nesting_ok, nesting_detail = span_nesting_ok(recorder)
        checks.append(Check("trace_spans_nest", verdict(nesting_ok), nesting_detail))
        values = {name: 0.0 for name, _unit in layers.PER_LAYER}
        values.update(layers.span_metrics(recorder, traced_queries))
        values.update(layers.event_metrics(events))
        values.update(workload.extra_layer_metrics(traced_totals, untraced))
        tuples = traced_totals.get("tuples_examined", 0)
        values["core.executor.tuples_examined_per_query"] = tuples / max(1, traced_queries)
        values["core.executor.useful_ratio"] = (
            traced_totals.get("rows_returned", 0) / tuples if tuples else 0.0
        )
        qps_untraced = queries / elapsed["untraced"] if elapsed["untraced"] else 0.0
        qps_traced = traced_queries / elapsed["traced"] if elapsed["traced"] else 0.0
        values["trace.qps_untraced"] = qps_untraced
        values["trace.qps_traced"] = qps_traced
        values["trace.overhead_ratio"] = qps_traced / qps_untraced if qps_untraced else 0.0
        units = dict(layers.PER_LAYER)
        samples = {name: traced_queries for name in values}
        samples["trace.qps_untraced"] = queries
        out_dir = HERE / "out"
        stem = f"{args.workload}-seed{args.seed}"
        recorder.dump(out_dir / f"{stem}-spans.bin")
        events.dump(out_dir / f"{stem}-events.bin")
    else:
        checks.append(Check("trace_spans_nest", "not_evaluated:untraced run"))
        qps, counted = throughput(workload, start, end, pauses)
        p50 = percentile(latencies, 0.50) if latencies else 0.0
        p99 = percentile(latencies, 0.99) if latencies else 0.0
        host = slowdown(calibrations)
        wall_line = (
            f"# wall qps={qps:.6g} query_p50_ms={p50 * 1e3:.6g} "
            f"query_p99_ms={p99 * 1e3:.6g} setup_s={statistics.median(setup_wall):.6g} "
            f"host_slowdown={host:.4f} calibrations={len(calibrations)}"
        )
        values = {
            "qps": qps * host,
            "query_p50_ms": p50 * 1e3 / host,
            "query_p99_ms": p99 * 1e3 / host,
            "setup_s": statistics.median(setup_times),
            "blocks_per_query": sum(workload.blocks) / max(1, len(workload.blocks)),
            "peak_rss_mb": rss_mb,
            "cube_bytes_per_row": cube_bytes,
        }
        units = dict(END_TO_END)
        samples = {name: queries for name in values}
        samples["qps"] = counted
        samples["setup_s"] = len(setup_times)
        samples["peak_rss_mb"] = samples["cube_bytes_per_row"] = 1

    correct = not any(check.failed for check in checks)
    attempted = max(1, workload.attempted)
    wal_fs = filesystem_of(workdir.parent) if args.workload == "live_ingest" else "n/a"
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale} "
          f"clients={workload.clients} loop=closed")
    print(f"# env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} wal_fs={wal_fs} wal_flush="
          f"{WAL_FLUSH_POLICY if args.workload == 'live_ingest' else 'n/a'}")
    if workload.describe():
        print(f"# {workload.name} {workload.describe()}")
    print(f"# setup_s samples: {' '.join(f'{t:.4f}' for t in setup_times)}")
    if wall_line:
        print(wall_line)
    print(f"# operations attempted={workload.attempted} failed={workload.failed} "
          f"error_rate={workload.failed / attempted:.6g}")
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]} n={samples[name]}")
    for check in checks:
        print(f"check {check.name} {check.status} {check.detail}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": int(workload.failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
