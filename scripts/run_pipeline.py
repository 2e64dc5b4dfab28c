"""Run the full pipeline on a world config: generate, score, replay, report.

Each stage shells through the flowgate CLI entry points so the script
exercises exactly what an operator would run by hand:

    python3 scripts/run_pipeline.py --config configs/demo_world.json --out runs/demo
"""

import argparse
import json
import sys
from pathlib import Path

from flowgate.cli import main as flowgate_main


def run(argv) -> int:
    print("+ flowgate " + " ".join(argv))
    rc = flowgate_main(argv)
    if rc != 0:
        print(f"stage failed with exit code {rc}", file=sys.stderr)
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="configs/demo_world.json",
                    help="world config JSON")
    ap.add_argument("--out", default="runs/demo", help="output directory")
    ap.add_argument("--quantile", type=float, default=None,
                    help="calibration quantile (detect default if omitted)")
    args = ap.parse_args(argv)

    out = Path(args.out)
    world = out / "world"
    det = out / "det"
    base = out / "replay_base"
    gated = out / "replay_gated"
    rep = out / "report"

    if run(["gen-world", "--config", args.config, "--out", str(world)]):
        return 1
    detect_argv = ["detect", "--world", str(world), "--out", str(det)]
    if args.quantile is not None:
        detect_argv += ["--quantile", str(args.quantile)]
    if run(detect_argv):
        return 1
    if run(["replay", "--world", str(world), "--mode", "base",
            "--out", str(base)]):
        return 1
    if run(["replay", "--world", str(world), "--mode", "gated",
            "--scores", str(det / "scores.csv"), "--out", str(gated)]):
        return 1
    if run(["report", "--world", str(world),
            "--scores", str(det / "scores.csv"),
            "--base-log", str(base / "queue_log.csv"),
            "--gated-log", str(gated / "queue_log.csv"),
            "--out", str(rep)]):
        return 1

    doc = json.loads((rep / "report.json").read_text())
    print("\npipeline complete")
    print(f"  report: {rep / 'report.json'}")
    metrics = doc["metrics"]
    print(f"  alarm fpr:       {metrics['achieved_fpr_alarm']:.5f}")
    print(f"  incident recall: {metrics['incident_recall']}")
    print(f"  d p99.9 delay:   {metrics['delta_p999_delay_ms']:+.3f} ms")
    print(f"  d p99.9 collat:  {metrics['delta_p999_collateral_ms']:+.3f} ms")
    cost = metrics["timing_us_per_row"]["mean"]
    print("  scoring cost:    "
          + ("n/a" if cost is None else f"{cost:.2f} us/row"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
