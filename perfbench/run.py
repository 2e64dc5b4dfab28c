"""The flowgate benchmark: every pipeline stage on one workload.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 60 --trace 0

Load model: a closed loop with one client. The stages of one workload run in
sequence, gen-world -> detect -> replay base -> replay gated -> report ->
audit, each call in a fresh child process (stage.py), one at a time. A
stage shorter than MIN_STAGE_S is called again in the same pass, and the
pass repeats while another one fits in --seconds. The seed picks the world
realisations passed to `gen-world --seed`: pass i realises world seed
(seed + i) mod RECORDED_SEEDS, so that a run's medians span several worlds.
The program sees only the generated world.

Times are in reference seconds: each call's wall time is scaled by how fast
the machine ran a fixed probe loop around and during it (stage.py), because
this machine's speed swings by 1.6x for seconds at a time. Stage times are
medians over every call in the run. The unscaled wall-time medians are
printed next to them and kept in the detailed result JSON.

With --trace 0 the metrics are the end-to-end stage times, set-up time and
peak RSS. With --trace 1 every call of a stage is an untraced call followed
by a traced one, and the run reports per-layer metrics from the first
traced call of each stage (see tracing.py); per-layer times are wall
seconds. Tracing overhead is the median traced call minus the median
untraced call of a stage, in reference seconds.

Every pass's outputs (with --trace 1, those of the traced calls, which come
last) are checked (checks.py) against structural rules and the reference
recorded for the workload and its world seed. A stage with a
failed check counts as a failed operation. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

`--record` runs one pass and stores its decisions and digests as the
reference for the world seed instead of checking against it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STAGES = ("gen_world", "detect", "replay_base", "replay_gated", "report",
          "audit")
CLI_STAGES = STAGES[:5]
RUN_LIMIT_S = 170.0  # a run ends well within the 180 s it is allowed
# A stage shorter than this runs again, each time in a fresh process, until
# its calls add up to this long or it has run MAX_CALLS times in the pass.
MIN_STAGE_S = 1.0
MAX_CALLS = 5
# Reference seconds are wall seconds of a machine on which stage.probe()
# takes this long; on the machine in RESULTS.md it takes 0.15-0.25 ms.
PROBE_REFERENCE_S = 200e-6


@dataclass(frozen=True)
class Workload:
    config: Callable[[Path], dict]  # checkout root -> WorldConfig dict
    detect_args: tuple = ()
    report_args: tuple = ()
    infeasible: tuple = ()  # episodes the audit must find infeasible


WORKLOADS = {
    "demo": Workload(workloads.demo_config),
    # Not in BENCHMARK.json: gen-world on it spends 0.2-1.6 s in the power
    # iteration for rho(W), depending on the world seed, so its time spreads
    # across seeds by more than any bound. Traced runs of it still size the
    # features, detector and dense-graph layers (RESULTS.md).
    "wide": Workload(lambda root: workloads.wide_config()),
    "audit": Workload(lambda root: workloads.audit_config(),
                      infeasible=(106,)),
    # the harness self-test's world, run with the arguments of the
    # end-to-end determinism test; not a benchmark workload
    "tiny": Workload(lambda root: workloads.tiny_config(),
                     detect_args=("--w-min", "20"),
                     report_args=("--bench-rows", "4000")),
}

def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Run:
    workload: Workload
    work_dir: Path
    deadline: float
    world_seed: int = 0
    problems: dict = field(default_factory=dict)  # this pass's, by stage

    def argv(self, stage: str) -> list[str]:
        d = self.work_dir
        w = str(d / "world")
        return {
            "gen_world": ["gen-world", "--config", str(d / "config.json"),
                          "--seed", str(self.world_seed), "--out", w],
            "detect": ["detect", "--world", w, "--out", str(d / "det"),
                       *self.workload.detect_args],
            "replay_base": ["replay", "--world", w, "--mode", "base",
                            "--out", str(d / "base")],
            "replay_gated": ["replay", "--world", w, "--mode", "gated",
                             "--scores", str(d / "det" / "scores.csv"),
                             "--out", str(d / "gated")],
            "report": ["report", "--world", w,
                       "--scores", str(d / "det" / "scores.csv"),
                       "--base-log", str(d / "base" / "queue_log.csv"),
                       "--gated-log", str(d / "gated" / "queue_log.csv"),
                       "--out", str(d / "rep"), *self.workload.report_args],
        }.get(stage, [])

    def stage(self, stage: str, trace: bool) -> dict | None:
        """Run one stage in a fresh process; None if it did not succeed."""
        d = self.work_dir
        spec = d / f"{stage}.spec.json"
        result = d / f"{stage}.result.json"
        result.unlink(missing_ok=True)
        spec.write_text(json.dumps({
            "stage": stage, "argv": self.argv(stage),
            "world": str(d / "world"), "src": str(ROOT / "src"),
            "trace": trace, "result": str(result)}))
        log = d / f"{stage}.log"
        timeout = self.deadline - _now()
        if timeout <= 0:
            self.problems[stage].append("run time limit reached")
            return None
        with open(log, "w") as out:
            t_spawn = _now()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "stage.py"), str(spec),
                     repr(t_spawn)], stdout=out, stderr=subprocess.STDOUT,
                    cwd=ROOT, timeout=timeout)
            except subprocess.TimeoutExpired:
                self.problems[stage].append("timed out")
                return None
        if proc.returncode != 0 or not result.is_file():
            tail = log.read_text()[-2000:]
            self.problems[stage].append(
                f"exit code {proc.returncode}: {tail.strip()}")
            return None
        return json.loads(result.read_text())

    def pipeline(self, world_seed: int, trace: bool,
                 min_s: float) -> dict[str, list[dict]]:
        """One pass over every stage on one world seed, each call of a stage
        in a fresh process; stops at the first call that fails. With
        `trace`, each untraced call is followed by a traced one."""
        self.world_seed = world_seed
        self.problems = {s: [] for s in STAGES}
        modes = (False, True) if trace else (False,)
        results = {}
        for stage in STAGES:
            calls = []
            while not calls or (
                    sum(r["stage_s"] for r in untraced(calls)) < min_s
                    and len(calls) < MAX_CALLS * len(modes)):
                for with_trace in modes:
                    r = self.stage(stage, with_trace)
                    if r is None:
                        return results
                    calls.append(r)
            results[stage] = calls
        return results


def untraced(calls: list[dict]) -> list[dict]:
    return [r for r in calls if r["trace"] is None]


def traced(calls: list[dict]) -> list[dict]:
    return [r for r in calls if r["trace"] is not None]


def _reference_path(reference_dir: Path, workload: str) -> Path:
    return reference_dir / f"{workload}.json"


def _load_reference(reference_dir: Path, workload: str, world_seed: int):
    path = _reference_path(reference_dir, workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(world_seed))


def _store_reference(reference_dir: Path, workload: str, world_seed: int,
                     entry: dict) -> None:
    path = _reference_path(reference_dir, workload)
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc[str(world_seed)] = entry
    reference_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(sorted(doc.items(), key=lambda kv:
                                           int(kv[0]))), indent=1) + "\n")


def scaled_stage(r: dict) -> float:
    """A call's time in reference seconds: its wall time times
    PROBE_REFERENCE_S over the mean probe time around and during the
    call."""
    return r["stage_s"] * PROBE_REFERENCE_S / r["probe_s"]


def scaled_setup(r: dict) -> float:
    return r["setup_s"] * PROBE_REFERENCE_S / r["probe_setup_s"]


def end_to_end(passes: list[dict], scaled: bool = True) -> dict[
        str, tuple[float, str]]:
    """Medians over every call of a stage in the run, and over every stage
    process for set-up; in reference seconds, or in wall seconds if not
    `scaled`."""
    median = statistics.median
    stage_s = scaled_stage if scaled else (lambda r: r["stage_s"])
    setup_s = scaled_setup if scaled else (lambda r: r["setup_s"])
    procs = [r for p in passes for calls in p.values() for r in calls]
    m = {"setup_s": (median([setup_s(r) for r in procs]), "s")}
    for s in STAGES:
        m[f"{s}_s"] = (median([stage_s(r) for p in passes for r in p[s]]),
                       "s")
    m["pipeline_s"] = (median([
        sum(median([stage_s(r) for r in p[s]]) for s in CLI_STAGES)
        for p in passes]), "s")
    m["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in procs), "MB")
    return m


def per_layer(passes: list[dict], facts: dict,
              mismatches: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the first traced call of each stage; see
    BENCHMARK.json."""
    summ = {s: tracing.summarize(traced(passes[0][s])[0]["trace"])
            for s in STAGES}

    def get(stage, name, key="total_s"):
        return summ[stage].get(name, {}).get(key, 0)

    def over(stages, name, key="total_s"):
        return sum(get(s, name, key) for s in stages)

    mb = 1e-6
    replays = ("replay_base", "replay_gated")
    rows = get("detect", "detector.process_window", "work")
    replay_packets = over(replays, "wfq.replay", "work")
    m = {
        "trace.read_s": (over(STAGES, "trace.read_trace_csv"), "s"),
        "trace.write_s": (get("gen_world", "trace.write_trace_csv"), "s"),
        "trace.packets": (facts["packets"], "count"),
        "features.windowize_s": (get("detect", "features.windowize"), "s"),
        "features.windowize_peak_mb": (
            get("detect", "features.windowize", "peak_bytes") * mb, "MB"),
        "features.row_view_s": (get("detect", "features.row_view"), "s"),
        "features.row_view_calls": (
            get("detect", "features.row_view", "calls"), "count"),
        "features.normalizer_s": (get("detect", "features.normalizer"), "s"),
        "features.normalizer_calls": (
            get("detect", "features.normalizer", "calls"), "count"),
        "detector.process_window_s": (
            get("detect", "detector.process_window", "self_s"), "s"),
        "detector.rows": (rows, "count"),
        "detector.us_per_row": (
            get("detect", "detector.process_window") / max(rows, 1) * 1e6,
            "us/row"),
        "detector.write_scores_s": (
            get("detect", "detector.write_scores_csv"), "s"),
        "detector.read_scores_s": (
            over(("replay_gated", "report"), "detector.read_scores_csv"),
            "s"),
        "detector.scores_mb": (facts["sizes"]["det/scores.csv"] * mb, "MB"),
        "detector.alarms": (facts["alarms"], "count"),
        "detector.actionable": (facts["actionable"], "count"),
        "wfq.replay_base_s": (get("replay_base", "wfq.replay"), "s"),
        "wfq.replay_gated_s": (get("replay_gated", "wfq.replay"), "s"),
        "wfq.replay_packets": (replay_packets, "count"),
        "wfq.us_per_packet": (
            over(replays, "wfq.replay") / max(replay_packets, 1) * 1e6,
            "us/packet"),
        "wfq.single_flow_busy_share": (facts["single_flow_busy_share"],
                                       "share"),
        "wfq.gate_controller_s": (
            get("replay_gated", "wfq.gate_controller"), "s"),
        "wfq.gated_flows": (facts["gated_flows"], "count"),
        "wfq.write_log_s": (over(replays, "wfq.write_queue_log"), "s"),
        "wfq.read_log_s": (get("report", "wfq.read_queue_log"), "s"),
        "wfq.log_mb": (facts["sizes"]["base/queue_log.csv"] * mb, "MB"),
        "worlds.generate_s": (get("gen_world", "worlds.build_world"), "s"),
        "worlds.graph_s": (
            get("gen_world", "worlds.build_contention_graph"), "s"),
        "worlds.graph_load_s": (
            over(STAGES, "worlds.graph_load_json")
            + over(STAGES, "worlds.graph_from_dict"), "s"),
        "worlds.graph_mb": (facts["contention_bytes"] * mb, "MB"),
        "worlds.enforce_s": (
            get("gen_world", "worlds.enforce_contention"), "s"),
        "worlds.enforce_calls": (
            get("gen_world", "worlds.enforce_contention", "calls"), "count"),
        "worlds.thinning_iterations": (facts["thinning_iterations"],
                                       "count"),
        "worlds.project_s": (get("gen_world", "worlds.project_iats"), "s"),
        "worlds.project_calls": (
            get("gen_world", "worlds.project_iats", "calls"), "count"),
        "worlds.w1_calls": (
            get("gen_world", "worlds.w1_empirical", "calls"), "count"),
        "worlds.replay_s": (over(("gen_world", "audit"), "worlds.replay"),
                            "s"),
        "worlds.replay_calls": (
            over(("gen_world", "audit"), "worlds.replay", "calls"), "count"),
        "worlds.replay_packets": (
            over(("gen_world", "audit"), "worlds.replay", "work"), "count"),
        "worlds.write_s": (get("gen_world", "worlds.write_world"), "s"),
        "worlds.audit_s": (get("audit", "worlds.audit_budgets"), "s"),
        "worlds.audit_distortion_s": (
            get("audit", "worlds.window_distortions"), "s"),
        "metrics.compute_report_s": (
            get("report", "metrics.compute_report"), "s"),
        "metrics.episode_table_s": (
            get("report", "metrics.write_episode_table"), "s"),
        "metrics.bench_scoring_s": (
            get("report", "metrics.bench_scoring"), "s"),
        "outputs.digest_mismatches": (mismatches, "count"),
    }
    for s in STAGES:
        m[f"cli.{s}.self_s"] = (get(s, f"cli.{s}", "self_s"), "s")
    for s in STAGES:
        m[f"trace_overhead.{s}_s"] = (
            statistics.median(scaled_stage(r) for p in passes
                              for r in traced(p[s]))
            - statistics.median(scaled_stage(r) for p in passes
                                for r in untraced(p[s])), "s")
    for k in ("flows", "windows", "rows", "episodes", "contention_bytes"):
        m[f"input.{k}"] = (facts[k], "B" if k.endswith("bytes") else "count")
    return m


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="start another pass only while it fits in this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this world seed's reference instead of "
                    "checking against it")
    ap.add_argument("--reference-dir", type=Path, default=HERE / "reference")
    ap.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench_runs",
                    help="scratch space for the pass artifacts and the "
                    "detailed result JSON")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flowgate" / "cli.py").is_file():
        print(f"error: no flowgate sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # On SIGTERM unwind, so that subprocess.run kills the running stage and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_start = _now()
    workload = WORKLOADS[args.workload]
    work_dir = args.out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        (work_dir / "config.json").write_text(
            json.dumps(workload.config(ROOT), indent=1) + "\n")
        run = Run(workload, work_dir, t_start + RUN_LIMIT_S)
        return _measure(args, run, t_start)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, run: Run, t_start: float) -> int:
    passes: list[dict] = []
    seeds: list[int] = []
    problems: list[dict] = []  # per pass: stage -> messages
    facts = None
    mismatches = 0
    min_s = 0.0 if args.record else MIN_STAGE_S
    while True:
        t_pass = _now()
        world_seed = (args.seed + len(passes)) % workloads.RECORDED_SEEDS
        p = run.pipeline(world_seed, args.trace == 1, min_s)
        passes.append(p)
        seeds.append(world_seed)
        problems.append(run.problems)
        if len(p) == len(STAGES):
            found, pass_facts = checks.check_pass(
                run.work_dir, p["audit"][0]["audit"], run.workload.infeasible)
            for s, msgs in found.items():
                run.problems[s] += msgs
            facts = facts or pass_facts
            if args.record:
                if not any(run.problems.values()):
                    _store_reference(args.reference_dir, args.workload,
                                     world_seed, pass_facts["reference"])
                    print(f"recorded reference for {args.workload} world "
                          f"seed {world_seed}")
            else:
                recorded = _load_reference(args.reference_dir, args.workload,
                                           world_seed)
                for s, msgs in checks.reference_problems(
                        pass_facts["reference"], recorded).items():
                    run.problems[s] += msgs
                mismatches = max(mismatches, checks.digest_mismatches(
                    pass_facts["reference"], recorded))
        if args.record or len(p) < len(STAGES):
            break  # a failed check is counted, but the run goes on
        pass_s = _now() - t_pass
        if _now() - t_start + pass_s > args.seconds:
            break

    # a stage counts as failed in a pass if a check on it failed or it
    # never ran because an earlier stage of the pass failed
    failed = sum(1 for p, probs in zip(passes, problems) for s in STAGES
                 if s not in p or probs[s])
    complete = [p for p in passes if len(p) == len(STAGES)]
    metrics: dict = {}
    raw: dict = {}
    if args.trace == 0 and complete:
        metrics = end_to_end(complete)
        raw = end_to_end(complete, scaled=False)
    elif args.trace == 1 and complete:
        metrics = per_layer(complete, facts, mismatches)

    print(f"workload={args.workload} seed={args.seed} "
          f"world_seeds={','.join(map(str, seeds))} trace={args.trace} "
          f"passes={len(passes)} nproc={os.cpu_count()} "
          f"python={sys.version.split()[0]}")
    if facts is not None:
        print("input " + " ".join(f"{k}={facts[k]}" for k in (
            "flows", "windows", "rows", "packets", "episodes",
            "contention_bytes")) + f" (world seed {seeds[0]})")
        print(f"decisions alarms={facts['alarms']} "
              f"actionable={facts['actionable']} "
              f"gated_flows={facts['gated_flows']} "
              f"single_flow_busy_share={facts['single_flow_busy_share']:.4f}"
              + ("" if args.record else
                 f" outputs.digest_mismatches={mismatches}"))
    for i, probs in enumerate(problems):
        for s, msgs in probs.items():
            for msg in msgs:
                print(f"check failed [pass {i}, world seed {seeds[i]}, {s}]: "
                      f"{msg}", file=sys.stderr)
    tops = {}
    if metrics and args.trace == 1:
        first = {s: traced(complete[0][s])[0] for s in STAGES}
        tops = {s: tracing.top_self(tracing.summarize(first[s]["trace"]))
                for s in STAGES}
        for s, top in tops.items():
            print(f"top self time {s}: " + ", ".join(
                f"{name} {secs:.3f}s" for name, secs in top))
    _print_metrics(metrics)
    if raw:
        print("unscaled wall-time medians:")
        _print_metrics(raw)

    detail = {"workload": args.workload, "seed": args.seed,
              "world_seeds": seeds, "trace": args.trace,
              "facts": facts, "problems": problems,
              "passes": [{s: [{"traced": r["trace"] is not None,
                               **{k: r[k] for k in (
                                   "setup_s", "stage_s", "probe_setup_s",
                                   "probe_s", "probes", "peak_rss_mb")}}
                              for r in calls]
                          for s, calls in p.items()} for p in passes],
              "metrics": metrics, "raw_metrics": raw,
              "wall_s": _now() - t_start}
    if tops:
        # the root span's children plus its self time against the stage
        # time stage.py measured around the whole call
        detail["top_self"] = tops
        detail["stage_cover"] = {s: {
            "stage_s": first[s]["stage_s"],
            "children_s": tracing.root_children_s(first[s]["trace"]),
            "self_s": metrics[f"cli.{s}.self_s"][0]} for s in STAGES}
    (args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(detail, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes) * len(STAGES),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
