"""Self-test of the benchmark harness on the tiny end-to-end world.

    python3 -m pytest perfbench/tests -q

Runs the benchmark untraced and traced with a reference recorded into a
temporary directory, checks that the printed metrics are the ones
BENCHMARK.json declares, that a wrong reference is caught, and that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, *extra, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "tiny", "--seed", "13",
         "--seconds", "1", "--reference-dir", str(tmp_path / "ref"),
         "--out-dir", str(tmp_path / "out"), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_and_traced_runs_report_declared_metrics(tmp_path):
    recorded = _result(_run(tmp_path, "--record"))
    assert recorded["failed"] == 0
    ref = json.loads((tmp_path / "ref" / "tiny.json").read_text())
    assert list(ref) == ["3"]  # seed 13 realises world seed 3

    res = _result(_run(tmp_path, "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 6
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0

    res = _result(_run(tmp_path, "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert res["metrics"]["outputs.digest_mismatches"]["value"] == 0
    assert res["metrics"]["detector.rows"]["value"] == \
        res["metrics"]["input.rows"]["value"]

    detail = json.loads((tmp_path / "out" / "tiny-seed13-trace1.json")
                        .read_text())
    for stage, cover in detail["stage_cover"].items():
        assert abs(cover["children_s"] + cover["self_s"]
                   - cover["stage_s"]) < 1e-3, stage


def test_changed_decisions_fail_the_run(tmp_path):
    _result(_run(tmp_path, "--record"))
    path = tmp_path / "ref" / "tiny.json"
    ref = json.loads(path.read_text())
    ref["3"]["flags_sha256"] = "0" * 64
    ref["3"]["outputs_sha256"]["world/trace.csv"] = "0" * 64
    path.write_text(json.dumps(ref))
    res = _result(_run(tmp_path, "--trace", "1"))
    assert not res["correct"] and res["failed"] >= 1
    assert res["metrics"]["outputs.digest_mismatches"]["value"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "demo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _log(rows):
    """Queue log rows: flow, clique, enqueue, dequeue, complete, benign."""
    return np.array(rows, dtype=np.float64).reshape(-1, 6)


def test_single_flow_busy_share():
    log = _log([[1, 0, 0, 0, 5, 1],     # period A: flow 1 alone
                [1, 0, 1, 5, 8, 1],
                [2, 0, 20, 20, 25, 1],  # period B: flows 2 and 3
                [3, 0, 21, 25, 30, 1],
                [4, 1, 0, 0, 5, 1]])    # other clique, alone
    assert checks.single_flow_busy_share(log) == 3 / 5


def test_queue_log_problems():
    trace = np.array([[0, 1, 10, 0], [1, 2, 10, 0]], dtype=np.int64)
    good = _log([[1, 0, 0, 0, 5, 1], [2, 0, 1, 5, 9, 1]])
    assert checks.queue_log_problems(good, trace) == []
    overlap = _log([[1, 0, 0, 0, 5, 1], [2, 0, 1, 4, 9, 1]])
    assert any("overlapping" in p
               for p in checks.queue_log_problems(overlap, trace))
    early = _log([[1, 0, 0, 0, 5, 1], [2, 0, 1, 0.5, 9, 1]])
    assert checks.queue_log_problems(early, trace)


def test_self_time_excludes_children_and_counted_calls():
    tr = tracing.Tracer()
    leaf = tr.count("leaf", lambda: sum(range(1000)))
    mid = tr.span("mid", lambda: [leaf() for _ in range(3)])
    root = tr.span("root", lambda: (mid(), mid()))
    root()
    s = tracing.summarize(tr.dump())
    assert s["leaf"]["calls"] == 6 and s["mid"]["calls"] == 2
    assert abs(s["mid"]["self_s"] + s["leaf"]["total_s"]
               - s["mid"]["total_s"]) < 1e-9
    assert abs(s["root"]["self_s"] + s["mid"]["total_s"]
               - s["root"]["total_s"]) < 1e-9
