"""scripts/decision_diff.py on a tiny world: no difference between a tree
and itself, a reported one against a mutant of it, and none against a tree
whose records alone differ."""

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


def _mutant(tmp_path, name, module, old, new):
    """A copy of src in which module's text old reads new."""
    tree = tmp_path / name
    shutil.copytree(ROOT / "src", tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tree / "flowgate" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return tree


def test_decision_diff_tells_a_tree_from_a_mutant(tmp_path):
    src = ROOT / "src"
    mutant = _mutant(tmp_path, "mutant", "features.py", "\nCLIP = 8.0 ",
                     "\nCLIP = 7.0 ")
    # another tool_version changes every record and nothing else
    versioned = _mutant(tmp_path, "versioned", "trace.py",
                        'TOOL_VERSION = "0.1.0"', 'TOOL_VERSION = "0.1.1"')
    config = workloads.tiny_config()
    for name, tree in (("a", src), ("b", src), ("m", mutant),
                       ("v", versioned)):
        diff.run_tree(tree, config, 0, (0.99,), tmp_path / name,
                      ("--w-min", "20"))

    [same] = diff.compare(tmp_path / "a", tmp_path / "b", (0.99,))
    for counts in (same.pop("alarms"), same.pop("flags")):
        base, head = counts.split("/")
        assert base == head != "0"
    assert same == {"q": 0.99, **dict.fromkeys(
        ("world", "records", "scores", "thresholds", *diff.DECISIONS[1:]),
        "=")}
    assert not diff.changed(same)

    [records] = diff.compare(tmp_path / "a", tmp_path / "v", (0.99,))
    assert records.pop("records") == (
        "base/replay_manifest.json q0.99/det/detect_manifest.json "
        "q0.99/gated/replay_manifest.json world/manifest.json")
    del records["alarms"], records["flags"]
    assert records == {k: v for k, v in same.items() if k != "records"}
    assert not diff.changed(records)

    [mutated] = diff.compare(tmp_path / "a", tmp_path / "m", (0.99,))
    assert mutated["world"] == "="
    assert mutated["scores"].startswith("E ")
    assert mutated["thresholds"] != "="
    assert mutated["decisions"] == "≠" and diff.changed(mutated)
