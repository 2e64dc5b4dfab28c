"""scripts/ab_pairs.py on canned results: two stand-in checkouts whose
perfbench prints fixed metrics, so that the order of the runs and the
summary can be checked without running a benchmark."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "_ab_pairs", ROOT / "scripts" / "ab_pairs.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def canned_tree(root: Path, side: str, calls: Path, stage_s: float,
                correct: bool = True) -> Path:
    """A checkout whose perfbench/run.py logs `side workload seed seconds`
    to calls and
    reads stage_s + seed / 100 as replay_base_s, twice that as unscaled
    wall seconds, and 1000 + seed rows per second."""
    (root / "src" / "flowgate").mkdir(parents=True)
    (root / "src" / "flowgate" / "__init__.py").write_text("")
    (root / "src" / "flowgate" / "cli.py").write_text("")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(f"""\
        import argparse, json, pathlib
        ap = argparse.ArgumentParser()
        for flag in ("--workload", "--seed", "--seconds", "--trace",
                     "--out-dir"):
            ap.add_argument(flag)
        a = ap.parse_args()
        seed = int(a.seed)
        with open({str(calls)!r}, "a") as fh:
            fh.write(f"{side} {{a.workload}} {{seed}} {{a.seconds}}\\n")
        value = {stage_s} + seed / 100
        pathlib.Path(a.out_dir, f"{{a.workload}}-seed{{seed}}-trace0.json"
                     ).write_text(json.dumps({{"raw_metrics": {{
                         "replay_base_s": [2 * value, "s"]}}}}))
        print("decisions alarms=1 outputs.digest_mismatches=1")
        print(json.dumps({{"correct": {correct}, "attempted": 6,
                           "failed": 0, "metrics": {{
            "replay_base_s": {{"value": value, "unit": "s"}},
            "rows_per_s": {{"value": 1000 + seed, "unit": "1/s"}}}}}}))
        """))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "end_to_end": [
            {"name": "replay_base_s", "better": "lower"},
            {"name": "rows_per_s", "better": "higher"}]}))
    return root


@pytest.fixture
def trees(tmp_path):
    calls = tmp_path / "calls.txt"
    return (canned_tree(tmp_path / "base", "base", calls, 0.25),
            canned_tree(tmp_path / "head", "head", calls, 0.20), calls)


def test_pairs_alternate_which_tree_runs_first(trees, tmp_path):
    base, head, calls = trees
    out = tmp_path / "ab.json"
    assert ab.main([str(base), str(head), "--workload", "demo", "--pairs",
                    "4", "--out", str(out)]) == 0
    # pair i runs world seed i for BENCHMARK.json's run_seconds
    assert calls.read_text().splitlines() == [
        "base demo 0 7", "head demo 0 7", "head demo 1 7", "base demo 1 7",
        "base demo 2 7", "head demo 2 7", "head demo 3 7", "base demo 3 7"]
    doc = json.loads(out.read_text())
    assert set(doc["machine"]) == {"nproc", "python", "numpy", "os"}
    run = doc["workloads"]["demo"]
    assert run["first"] == ["base", "head", "base", "head"]
    assert run["runs"] == [{s: {"correct": True, "attempted": 6, "failed": 0,
                                "digest_mismatches": 1}
                            for s in ("base", "head")}] * 4
    # seeds 0-3: base reads 0.25-0.28, head 0.05 lower in every pair
    replay = run["metrics"]["replay_base_s"]
    assert replay["base"] == {"median": 0.265, "q1": 0.2575, "q3": 0.2725}
    assert replay["head"] == {"median": 0.215, "q1": 0.2075, "q3": 0.2225}
    assert replay["pair_deltas"] == [-0.05] * 4
    assert replay["head_wins"] == 4
    assert replay["median_change"] == round(0.215 / 0.265 - 1, 4)
    assert replay["wall_s"]["base"]["median"] == 0.53
    # equal and higher-is-better: no pair is a win
    rows = run["metrics"]["rows_per_s"]
    assert rows["pair_deltas"] == [0] * 4 and rows["head_wins"] == 0
    assert "wall_s" not in rows


def test_a_second_workload_joins_the_same_file(trees, tmp_path):
    base, head, _ = trees
    out = tmp_path / "ab.json"
    for workload in ("demo", "audit"):
        ab.main([str(base), str(head), "--workload", workload, "--pairs", "1",
                 "--out", str(out)])
    assert sorted(json.loads(out.read_text())["workloads"]) == ["audit",
                                                                "demo"]


def test_an_incorrect_run_fails_the_comparison(tmp_path):
    calls = tmp_path / "calls.txt"
    base = canned_tree(tmp_path / "base", "base", calls, 0.25)
    head = canned_tree(tmp_path / "head", "head", calls, 0.20, correct=False)
    assert ab.main([str(base), str(head), "--workload", "demo", "--pairs",
                    "1", "--out", str(tmp_path / "ab.json")]) == 1
