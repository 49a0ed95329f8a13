"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

They run every workload at ``--scale tiny`` for a couple of seconds, so
the whole file takes well under a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import SIZES, WORKLOADS, bits  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_the_metrics_the_program_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "2",
                 "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert printed == {m["name"]: m["unit"] for m in expected}
    for line in lines:
        if line.startswith("check "):
            status = line.split()[2]
            assert status in ("pass", "fail") or status.startswith("not_evaluated:")
    if trace == "0":
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
        assert any(line.startswith("# wall qps=") for line in lines)
    else:
        metrics = result["metrics"]
        assert metrics["trace.qps_traced"]["value"] > 0
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert "check trace_spans_nest pass" in proc.stdout


def test_second_seed_gives_other_inputs_and_same_seed_the_same():
    sizes = SIZES["tiny"]["adhoc_cold"]
    a = WORKLOADS["adhoc_cold"](sizes, 1, BENCH / ".work" / "unused")
    b = WORKLOADS["adhoc_cold"](sizes, 1, BENCH / ".work" / "unused")
    c = WORKLOADS["adhoc_cold"](sizes, 2, BENCH / ".work" / "unused")
    assert a.rows == b.rows and a.rows != c.rows
    assert [q.selections for q in a.queries[:50]] == [q.selections for q in b.queries[:50]]
    assert [q.selections for q in a.queries[:50]] != [q.selections for q in c.queries[:50]]


def test_correctness_check_fires_on_a_corrupted_answer(tmp_path):
    workload = WORKLOADS["adhoc_cold"](SIZES["tiny"]["adhoc_cold"], 5, tmp_path)
    workload.setup()
    for _ in range(30):
        workload.step(0)
    clean = {c.name: c.status for c in workload.checks()}
    assert clean["answers_match_oracle"] == "pass"
    assert workload.failed == 0

    # flip the lowest mantissa bit of one recorded score
    key, variants = next(iter(workload.answers.items()))
    answer, count = next(iter(variants.items()))
    (score, tid), rest = answer[0], answer[1:]
    (word,) = struct.unpack("<q", struct.pack("<d", score))
    (nudged,) = struct.unpack("<d", struct.pack("<q", word ^ 1))
    assert nudged != score and bits(((nudged, tid),)) != bits(((score, tid),))
    del variants[answer]
    variants[((nudged, tid),) + rest] = count
    checks = {c.name: c.status for c in workload.checks()}
    assert checks["answers_match_oracle"] == "fail"
    assert workload.failed == count


def test_child_spans_never_exceed_their_parent():
    recorder = SpanRecorder()

    class Layered:
        def outer(self, n):
            return sum(self.inner(i) for i in range(n))

        def inner(self, i):
            return i * i

    recorder.patch(Layered, "outer", "top")
    recorder.patch(Layered, "inner", "bottom")
    with recorder:
        assert Layered().outer(50) == sum(i * i for i in range(50))
    assert Layered.outer.__name__ == "outer" and "traced" not in repr(Layered.inner)
    spans = {s[0]: s for s in recorder.records()}
    assert len(spans) == 51
    for span_id, parent, query, _name, start, end in spans.values():
        assert end >= start
        if parent:
            assert spans[parent][4] <= start and end <= spans[parent][5]
            assert query == parent
    children = sum(e - s for _i, p, _q, _n, s, e in spans.values() if p)
    root = next(s for s in spans.values() if not s[1])
    assert children <= root[5] - root[4]
    ok, detail = run.span_nesting_ok(recorder)
    assert ok, detail
    top = recorder.layer("top")
    assert top[0] == 1 and 0 <= top[2] <= top[1]


def test_calibration_pauses_do_not_count_as_loop_time():
    pauses = [(1.0, 1.5), (3.0, 3.25), (9.0, 9.5)]
    assert run.active_seconds(0.0, 4.0, pauses) == 4.0 - 0.5 - 0.25
    assert run.active_seconds(1.25, 3.1, pauses) == pytest.approx(3.1 - 1.25 - 0.25 - 0.1)
    assert run.active_seconds(5.0, 6.0, pauses) == 1.0
    assert run.calibration_loop() > 0
    assert run.slowdown([run.REFERENCE_CALIBRATION_S] * 3) == 1.0


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = bench("--workload", "adhoc_cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout



def processes_in(directory: Path) -> set[int]:
    """Ids of the processes (other than this one) working in ``directory``."""
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and int(entry.name) != run.os.getpid():
            try:
                if Path(entry, "cwd").resolve() == directory:
                    found.add(int(entry.name))
            except OSError:
                continue
    return found


def start_bench(tmp_path: Path, *args: str) -> tuple[subprocess.Popen, Path]:
    """Start a run whose output goes to a file: a pipe would make the
    caller wait for every process holding it, hiding one left behind."""
    out = tmp_path / "stdout.txt"
    with open(out, "w") as sink:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", *args],
            cwd=ROOT, stdout=sink, stderr=subprocess.DEVNULL,
        )
    return proc, out


needs_proc = pytest.mark.skipif(not Path("/proc/self/cwd").exists(),
                                reason="needs Linux /proc")


@needs_proc
def test_run_leaves_no_process_behind(tmp_path):
    before = processes_in(ROOT)
    proc, out = start_bench(tmp_path, "--workload", "sharded_fanout", "--seed", "2",
                            "--seconds", "1", "--trace", "0", "--scale", "tiny")
    assert proc.wait(timeout=170) == 0, out.read_text()
    assert processes_in(ROOT) - before == set()


@needs_proc
def test_terminated_run_leaves_no_process_behind(tmp_path):
    before = processes_in(ROOT)
    proc, out = start_bench(tmp_path, "--workload", "sharded_fanout", "--seed", "2",
                            "--seconds", "30", "--trace", "0", "--scale", "tiny")
    try:
        run.time.sleep(4.0)
        proc.terminate()
        assert proc.wait(timeout=60) != 0
    finally:
        proc.kill()
    assert '"correct"' not in out.read_text()
    assert processes_in(ROOT) - before == set()
