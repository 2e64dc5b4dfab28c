"""Paired A/B benchmark: run two checkouts' perfbench in turn and compare
every end-to-end metric pair by pair.

    python3 scripts/ab_pairs.py BASE_ROOT HEAD_ROOT --workload demo \\
        --pairs 10 --out BENCH_AB.json

BASE_ROOT and HEAD_ROOT are checkout roots, for example a `git archive`
export of the parent commit and this checkout. Pair i runs
`perfbench/run.py --workload W --seed i --seconds S --trace 0` in
each tree, one after the other, S being the `run_seconds` of HEAD_ROOT's
BENCHMARK.json: the base first in even pairs and the head first in odd
ones, because on a shared machine the second of two
back-to-back runs can read several percent slower. Each tree gets its own
bytecode cache (PYTHONPYCACHEPREFIX), filled by one import before the
first pair, so that stale or missing bytecode does not move setup_s.

The JSON written to --out holds the machine (nproc, Python, numpy) and,
under the workload's name (other workloads already in the file stay),
each run's verdict and, for each metric: each side's median and
quartiles over its runs, in perfbench's reference seconds and in
unscaled wall seconds, the per-pair deltas (head minus base) and the
number of pairs the head won (read better, in the direction HEAD_ROOT's
BENCHMARK.json gives). It exits 1 when a run does not read correct: true.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("base", "head")


def run_side(root: Path, workload: str, seed: int, seconds: float, env: dict,
             out_dir: Path) -> dict:
    """One perfbench run of the tree at root: its verdict, its digest
    mismatches and its metrics, scaled and, where perfbench kept them in
    its detail JSON, unscaled."""
    out_dir.mkdir(parents=True)
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0", "--out-dir", str(out_dir)],
        env=env, cwd=root, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{root}: perfbench exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    result = json.loads(done.stdout.splitlines()[-1])
    mismatches = re.search(r"outputs\.digest_mismatches=(\d+)", done.stdout)
    detail = out_dir / f"{workload}-seed{seed}-trace0.json"
    raw = (json.loads(detail.read_text()).get("raw_metrics") or {}
           if detail.is_file() else {})
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "digest_mismatches": mismatches and int(mismatches[1]),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "wall_s": {k: v[0] for k, v in raw.items()}}


def _spread(values: list) -> dict:
    """Median and inclusive quartiles, rounded to 0.1 ms or 0.1 kB."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs: list, better: dict) -> dict:
    """Per metric of pairs ({"base": run, "head": run} each, run_side's
    records): each side's spread, the pair deltas and the head's wins.
    better maps a metric to "lower" or "higher"; lower by default."""
    out = {}
    names = [k for k in pairs[0]["base"]["metrics"]
             if all(k in p[s]["metrics"] for p in pairs for s in SIDES)]
    for name in names:
        side = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        deltas = [h - b for b, h in zip(side["base"], side["head"])]
        sign = 1 if better.get(name, "lower") == "lower" else -1
        row = {s: _spread(side[s]) for s in SIDES}
        row["pair_deltas"] = [round(d, 4) for d in deltas]
        row["head_wins"] = sum(sign * d < 0 for d in deltas)
        base = row["base"]["median"]
        row["median_change"] = (round(row["head"]["median"] / base - 1, 4)
                                if base else None)
        wall = {s: [p[s]["wall_s"].get(name) for p in pairs] for s in SIDES}
        if all(v is not None for s in SIDES for v in wall[s]):
            row["wall_s"] = {s: _spread(wall[s]) for s in SIDES}
        out[name] = row
    return out


def _machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "os": f"{platform.system()} {platform.release()}"}


def _bytecode_env(root: Path, prefix: Path) -> dict:
    """The environment of root's runs: bytecode kept under prefix, and
    filled there by one import of the CLI."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    subprocess.run([sys.executable, "-c", "import flowgate.cli"], check=True,
                   env=dict(env, PYTHONPATH=str(root / "src")))
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="the base checkout's root")
    ap.add_argument("head", type=Path, help="the head checkout's root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    bench = json.loads((roots["head"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    pairs, order = [], []
    with tempfile.TemporaryDirectory() as tmp:
        envs = {s: _bytecode_env(roots[s], Path(tmp) / s / "pycache")
                for s in SIDES}
        for i in range(args.pairs):
            first = SIDES[i % 2]
            pair = {}
            for s in sorted(SIDES, key=lambda s: s != first):
                pair[s] = run_side(roots[s], args.workload, i,
                                   bench["run_seconds"], envs[s],
                                   Path(tmp) / s / f"run{i}")
                print(f"pair {i} {s}: correct={pair[s]['correct']} "
                      + " ".join(f"{k}={v:.4g}" for k, v
                                 in pair[s]["metrics"].items()), flush=True)
            pairs.append(pair)
            order.append(first)

    doc = (json.loads(args.out.read_text()) if args.out.is_file()
           else {"machine": _machine(), "workloads": {}})
    doc["workloads"][args.workload] = {
        "method": f"scripts/ab_pairs.py --workload {args.workload} --pairs "
                  f"{args.pairs}: pair i runs perfbench/run.py --seed i "
                  f"--seconds {bench['run_seconds']} --trace 0 in each tree, "
                  "the side named in `first` before the other",
        "first": order,
        "runs": [{s: {k: p[s][k] for k in ("correct", "attempted", "failed",
                                           "digest_mismatches")}
                  for s in SIDES} for p in pairs],
        "metrics": summarize(pairs, better)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(p[s]["correct"] for p in pairs for s in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
