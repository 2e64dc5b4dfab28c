"""scripts/decision_diff.py on a tiny world: no difference between a tree
and itself, and a reported one against a mutant of it."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff = _load("_decision_diff", ROOT / "scripts" / "decision_diff.py")
workloads = _load("_bench_workloads", ROOT / "perfbench" / "workloads.py")


def test_decision_diff_tells_a_tree_from_a_mutant(tmp_path):
    src = ROOT / "src"
    mutant = tmp_path / "mutant"
    shutil.copytree(src, mutant,
                    ignore=shutil.ignore_patterns("__pycache__"))
    features = mutant / "flowgate" / "features.py"
    text = features.read_text()
    assert "\nCLIP = 8.0 " in text
    features.write_text(text.replace("\nCLIP = 8.0 ", "\nCLIP = 7.0 "))
    config = workloads.tiny_config()
    for name, tree in (("a", src), ("b", src), ("m", mutant)):
        diff.run_tree(tree, config, 0, (0.99,), tmp_path / name,
                      ("--w-min", "20"))

    [same] = diff.compare(tmp_path / "a", tmp_path / "b", (0.99,))
    for counts in (same.pop("alarms"), same.pop("flags")):
        base, head = counts.split("/")
        assert base == head != "0"
    assert same == {"q": 0.99, **dict.fromkeys(
        ("world", "scores", "thresholds", *diff.DECISIONS[1:]), "=")}
    assert not diff.changed(same)

    [mutated] = diff.compare(tmp_path / "a", tmp_path / "m", (0.99,))
    assert mutated["world"] == "="
    assert mutated["scores"].startswith("E ")
    assert mutated["thresholds"] != "="
    assert mutated["decisions"] == "≠" and diff.changed(mutated)
