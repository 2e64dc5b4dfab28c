"""Decision diff: run two source trees' pipelines on the same worlds and
compare what they wrote, artifact by artifact.

    python3 scripts/decision_diff.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the `src` directories of two checkouts, for
example a `git archive` export of the parent commit and this checkout's
`src`. Each tree's CLI runs in subprocesses on the demo world
(configs/demo_world.json) and the benchmark's audit world
(perfbench/workloads.py), world seeds 0-9, with detect at quantiles 0.99
and 0.999 and every other knob at its default.

One line per (world, seed, quantile) says which artifacts are identical
("="): the world's data files (config.json, trace.csv and its twin,
feasibility.json and the exports), the run records (manifest.json,
detect_manifest.json and both replay_manifest.json), scores.csv (else the
columns that moved, with the largest move in ulps), the thresholds
detect_manifest.json records (detector on S, baseline on E), the alarm and
flag counts of each tree, the (flow, window, a, z) rows, the gate
schedule, both queue logs and the report (report.json's metrics other than
timing, and episodes.csv). Scores are read by their header, so a dropped
or added column shows as such. Exits 1 when a decision differs: a world
data file, the (flow, window, a, z) rows, the schedule, a queue log or the
report. A record that differs alone is not a decision.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(10)
QUANTILES = (0.99, 0.999)
DECISIONS = ("world", "decisions", "schedule", "base_log", "gated_log",
             "report")


def _worlds() -> dict:
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {"demo": workloads.demo_config(ROOT),
            "audit": workloads.audit_config()}


def _cli(src: Path, argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run([sys.executable, "-m", "flowgate.cli", *argv],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{src}: flowgate {' '.join(argv)}: "
                           f"{done.stderr.strip()}")


def run_tree(src, config: dict, seed: int, quantiles, out,
             detect_args=()) -> None:
    """Every stage of the pipeline of the tree at src on world seed seed
    of config, detect and what follows it once per quantile, into out."""
    out = Path(out)
    out.mkdir(parents=True)
    (out / "config.json").write_text(json.dumps(config))
    w = str(out / "world")
    _cli(src, ["gen-world", "--config", str(out / "config.json"),
               "--seed", str(seed), "--out", w])
    _cli(src, ["replay", "--world", w, "--mode", "base",
               "--out", str(out / "base")])
    for q in quantiles:
        d = out / f"q{q}"
        scores = str(d / "det" / "scores.csv")
        _cli(src, ["detect", "--world", w, "--quantile", str(q),
                   *detect_args, "--out", str(d / "det")])
        _cli(src, ["replay", "--world", w, "--mode", "gated",
                   "--scores", scores, "--out", str(d / "gated")])
        _cli(src, ["report", "--world", w, "--scores", scores,
                   "--base-log", str(out / "base" / "queue_log.csv"),
                   "--gated-log", str(d / "gated" / "queue_log.csv"),
                   "--out", str(d / "rep")])


def _same(a: Path, b: Path) -> bool:
    return a.exists() and b.exists() and a.read_bytes() == b.read_bytes()


def _mark(same: bool) -> str:
    return "=" if same else "≠"


def _columns(path: Path) -> dict[str, list[str]]:
    """The CSV at path as its columns' text, by header name."""
    lines = path.read_text().splitlines()
    return dict(zip(lines[0].split(","),
                    zip(*(line.split(",") for line in lines[1:]))))


def _move(a, b) -> str:
    """"=" for equal values, else the largest move in ulps, or "≠" for a
    move of 2**32 ulps or more (an integer or a flag that changed)."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if a.tobytes() == b.tobytes():
        return "="
    if a.shape != b.shape:
        return "≠"
    ulps = np.abs(a.view(np.int64) - b.view(np.int64)).max()
    return f"{ulps} ulp" if ulps < 1 << 32 else "≠"


def _thresholds(path: Path) -> np.ndarray:
    flows = json.loads(path.read_text())["flows"]
    return np.array([[np.nan if t[k] is None else t[k] for k in
                      ("detector", "baseline")] for t in flows.values()])


def _metrics(rep: Path) -> tuple:
    metrics = json.loads((rep / "report.json").read_text())["metrics"]
    return ({k: v for k, v in metrics.items() if not k.startswith("timing")},
            (rep / "episodes.csv").read_bytes())


def _differ(base: Path, head: Path, names) -> list[str]:
    """The names, paths relative to base and to head, of the files that
    are not byte-identical at the two, sorted."""
    return sorted(n for n in names if not _same(base / n, head / n))


def compare(base, head, quantiles) -> list[dict]:
    """One row per quantile comparing the run_tree outputs at base and at
    head; each value is "=" or what differs."""
    base, head = Path(base), Path(head)
    # every world file but manifest.json, a record, holds data
    moved = _differ(base / "world", head / "world", {
        p.name for t in (base, head) for p in (t / "world").iterdir()
        if p.name != "manifest.json"})
    base_log = _mark(_same(*(t / "base" / "queue_log.csv"
                             for t in (base, head))))
    rows = []
    for q in quantiles:
        b, h = base / f"q{q}", head / f"q{q}"
        cb, ch = (_columns(t / "det" / "scores.csv") for t in (b, h))
        cols = {n: ("dropped" if n not in ch else "added" if n not in cb
                    else _move(cb[n], ch[n])) for n in {**cb, **ch}}
        key = ("flow_id", "window", "a", "z")
        tb, th = (_thresholds(t / "det" / "detect_manifest.json")
                  for t in (b, h))
        # the records bind the artifacts to the world and to each other;
        # what else they hold is compared in its own column
        records = _differ(base, head, [
            "world/manifest.json", "base/replay_manifest.json",
            f"q{q}/det/detect_manifest.json",
            f"q{q}/gated/replay_manifest.json"])
        rows.append({
            "q": q,
            "world": "=" if not moved else " ".join(moved),
            "records": "=" if not records else " ".join(records),
            "scores": "=" if _same(b / "det" / "scores.csv",
                                   h / "det" / "scores.csv")
            else ", ".join(f"{n} {m}" for n, m in sorted(cols.items())
                           if m != "="),
            "thresholds": "=" if tb.tobytes() == th.tobytes() else
            f"S {_move(tb[:, 0], th[:, 0])}, E {_move(tb[:, 1], th[:, 1])}",
            "alarms": "/".join(str(c.get("a", ()).count("1"))
                               for c in (cb, ch)),
            "flags": "/".join(str(c.get("z", ()).count("1"))
                              for c in (cb, ch)),
            "decisions": _mark(all(n in cb and n in ch and cb[n] == ch[n]
                                   for n in key)),
            "schedule": _mark(_same(b / "gated" / "schedule.csv",
                                    h / "gated" / "schedule.csv")),
            "base_log": base_log,
            "gated_log": _mark(_same(b / "gated" / "queue_log.csv",
                                     h / "gated" / "queue_log.csv")),
            "report": _mark(_metrics(b / "rep") == _metrics(h / "rep")),
        })
    return rows


def changed(row: dict) -> bool:
    """Whether a compare row holds a decision difference."""
    return any(row[k] != "=" for k in DECISIONS)


HEADER = ("world", "seed", "q", "world files", "records", "scores.csv",
          "thresholds", "alarms", "flags", "(f,w,a,z)", "schedule",
          "base log", "gated log", "report")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: decision_diff.py BASE_SRC HEAD_SRC", file=sys.stderr)
        return 2
    print("| " + " | ".join(HEADER) + " |")
    print("|" + "---|" * len(HEADER))
    differ = 0
    worlds = _worlds()
    for name, config in worlds.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="decision_diff_") as tmp:
                runs = [Path(tmp) / t for t in "bh"]
                for src, out in zip(argv, runs):
                    run_tree(src, config, seed, QUANTILES, out)
                for row in compare(*runs, QUANTILES):
                    differ += changed(row)
                    print("| " + " | ".join(
                        [name, str(seed), str(row.pop("q"))]
                        + list(row.values())) + " |", flush=True)
    print(f"\n{differ} of {len(worlds) * len(SEEDS) * len(QUANTILES)} runs "
          "with a decision difference")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
