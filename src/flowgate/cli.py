"""Command-line pipeline: gen-world, detect, replay, report.

Every command prints its resolved knobs as key=value lines (each from its
flag, else the built-in default) and writes a manifest next to its outputs.
A world is read through worlds.load_head plus load_traffic (detect, replay)
or load_outcomes (report), so detection and replay never open
feasibility.json, from which the episode labels derive; labels enter only
through the report command. No stage opens contention.json: detect
derives the graph from config.json and the seed (worlds.contention_graph).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from flowgate.detector import (
    BLOCK_WINDOWS,
    Calibration,
    DetectManifest,
    DetectorParams,
    DetectorSession,
    Scores,
    read_scores_csv,
    read_thresholds,
    write_scores_csv,
    write_thresholds,
)
from flowgate.features import windowize
from flowgate.metrics import (
    compute_report,
    read_stage_stats,
    time_to_detect,
    write_episode_table,
    write_report,
    write_stage_stats,
)
from flowgate.trace import (
    RunManifest,
    TableStream,
    from_json,
    load_json,
    to_json,
    write_json,
)
from flowgate.wfq import (
    GateConfig,
    gate_controller,
    read_queue_log,
    replay,
    write_queue_log,
    write_schedule,
)
from flowgate.worlds import (
    GenerationError,
    build_world,
    check_config_flows,
    check_same,
    config_from_json,
    contention_graph,
    load_head,
    load_outcomes,
    load_traffic,
    write_world,
)

# Not called here: perfbench/tracing.py wraps these names in this module and
# resolves each one when it installs its spans.
from flowgate.metrics import bench_scoring  # noqa: F401
from flowgate.trace import (  # noqa: F401
    read_flow_table,
    read_labels,
    read_manifest,
    read_trace_csv,
)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _resolve(name, flag_value, default):
    """flag_value if the flag was given, else default, printed."""
    value = default if flag_value is None else flag_value
    print(f"{name}={value}")
    return value


def _load_json(path) -> dict:
    """trace.load_json, under the name perfbench/tracing.py wraps."""
    return load_json(path)


def _read_params(path) -> DetectorParams:
    """The --params detector knobs at path (the defaults without one), with
    exit 2 on knobs that DetectorParams.validate refuses."""
    params = from_json(DetectorParams, _load_json(path) if path else {}, path)
    try:
        params.validate()
    except ValueError as exc:
        raise ArgumentContractError(f"{path}: {exc}") from None
    return params


@dataclass
class ReplayManifest:
    """replay_manifest.json: the world replayed, the mode, the gate and the
    sha256 of the queue log written. The capacity is config.json's, and
    the rows are the trace's packets."""

    world: RunManifest
    mode: str
    gate: dict
    queue_log_sha256: str


def _recorded_world(artifact, name: str, read, manifest: RunManifest):
    """The record `name` that must lie beside the artifact, as read(path)
    returns it, and its path, refusing one whose `world` is not the given
    world manifest, naming the path and the first key that differs."""
    path = Path(artifact).parent / name
    doc = read(path)
    check_same(path, "world.", doc.world, manifest,
               [f.name for f in fields(RunManifest)], "manifest.json")
    return doc, path


def _burn_in(config) -> int:
    """The windows detect calibrates on: the train share of the horizon."""
    return int(round(config.split[0] * config.horizon_windows))


def _load_scores(path, config, manifest: RunManifest):
    """The scores at path and their detect run's record beside them,
    refusing, naming the file, what _recorded_world and read_scores_csv
    refuse, record flows other than config.json's, and rows other than the
    ones detect writes: each window in [0, horizon) in turn, and at each
    one row for each of config.json's flows in id order. That refusal names
    the first line that differs."""
    record, record_path = _recorded_world(path, "detect_manifest.json",
                                          read_thresholds, manifest)
    check_config_flows(record_path, record.flows, config)
    scores = read_scores_csv(path, (record.scores_sha256, record_path))
    # the record's flows, which check_config_flows found to be the config's
    flows, horizon = np.array(sorted(record.flows)), config.horizon_windows
    want = np.tile(flows, horizon), np.repeat(np.arange(horizon), flows.size)
    got = scores.flow_id, scores.window
    n = min(len(scores), len(want[0]))
    off = (got[0][:n] != want[0][:n]) | (got[1][:n] != want[1][:n])
    if off.any() or len(scores) != len(want[0]):
        i = int(np.argmax(off)) if off.any() else n
        found, wrote = (f"flow {f[i]} at window {w[i]}" if i < len(f)
                        else "no row" for f, w in (got, want))
        raise ValueError(
            f"{path}: line {i + 2}: {found} where detect writes {wrote}, "
            f"one row for each of config.json's {flows.size} flows at each "
            f"window in [0, {horizon}), window by window")
    return scores, record


# ---------------------------------------------------------------------------
# gen-world


def cmd_gen_world(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ArgumentContractError(f"--seed = {args.seed} is negative")
    config = config_from_json(_load_json(args.config), args.config)
    seed = _resolve("seed", args.seed, config.seed)
    try:
        world = build_world(config, seed)
    except ValueError as exc:  # names the flow whose params are refused
        raise ValueError(f"{args.config}: {exc}") from None
    out = Path(args.out)
    write_world(out, world)
    n_feasible = sum(1 for o in world.feasibility if o.feasible)
    print(f"world_id={config.world_id}")
    print(f"config_hash={config.hash()}")
    print(f"packets={world.trace.n_packets}")
    print(f"episodes={len(world.labels)}")
    print(f"feasible_episodes={n_feasible}")
    print(f"out={out}")
    return 0


# ---------------------------------------------------------------------------
# detect


def cmd_detect(args) -> int:
    params = _read_params(args.params)
    calibration = Calibration(**{
        f.name: _resolve(f.name, getattr(args, f.name), f.default)
        for f in fields(Calibration)})
    try:
        calibration.check()
    except ValueError as exc:
        raise ArgumentContractError(str(exc)) from None

    config, manifest = load_head(args.world)
    trace = load_traffic(args.world, config, manifest)
    burn_in = _burn_in(config)
    print(f"burn_in_windows={burn_in}")

    table = windowize(trace, contention_graph(config, manifest.seed))
    session = DetectorSession(
        params, table.flow_ids,
        [trace.flow_table[f].device_class for f in table.flow_ids],
        burn_in, calibration)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "scores.csv"
    n_flows, seconds, rows = len(table.flow_ids), [], []
    # a forked child formats scores.csv while the blocks are scored
    with TableStream(path, Scores,
                     n_flows * table.horizon_windows) as stream:
        for w in range(0, table.horizon_windows, BLOCK_WINDOWS):
            t0 = time.perf_counter()
            part = session.process_window(w, table.x[w:w + BLOCK_WINDOWS])
            seconds.append(time.perf_counter() - t0)
            rows.append(len(part))
            stream.publish(part)
        scores = write_scores_csv(path, stream)
    session.finalize()

    write_stage_stats(out / "stage_stats.json", seconds, rows,
                      table.horizon_windows)
    write_thresholds(out / "detect_manifest.json", DetectManifest(
        **vars(calibration), world=manifest, detector_params=params,
        scores_sha256=stream.sha256, flows=session.thresholds()))
    print(f"flows={n_flows}")
    print(f"records={len(scores)}")
    print(f"alarms={int(scores.a.sum())}")
    print(f"actionable={int(scores.z.sum())}")
    print(f"out={out}")
    return 0


# ---------------------------------------------------------------------------
# replay


# the flags that only --mode=gated reads, by dest: --scores and one per
# GateConfig key, whose dest is the key
GATED_FLAGS = {"scores": "--scores", "omega_0": "--omega-0",
               "omega_minus": "--omega-minus", "t_g_s": "--t-g"}


def cmd_replay(args) -> int:
    if args.mode == "base":
        given = [flag for key, flag in GATED_FLAGS.items()
                 if getattr(args, key) is not None]
        if given:
            raise ArgumentContractError(
                f"--mode=base reads no {', '.join(given)}")
    elif not args.scores:
        raise ArgumentContractError("--scores is required when --mode=gated")
    gc = _gate_config(args) if args.mode == "gated" else None
    config, manifest = load_head(args.world)
    trace = load_traffic(args.world, config, manifest)

    schedule = None if gc is None else gate_controller(
        _load_scores(args.scores, config, manifest)[0], gc, config.window_us)

    log = replay(trace, config.capacity_bps, schedule)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if schedule is not None:
        write_schedule(out / "schedule.csv", schedule)
    sha256 = write_queue_log(out / "queue_log.csv", log)
    write_json(out / "replay_manifest.json", to_json(ReplayManifest(
        manifest, args.mode, {} if gc is None else to_json(gc), sha256)))
    print(f"mode={args.mode}")
    print(f"packets={log.n}")
    print(f"out={out}")
    return 0


def _gate_config(args) -> GateConfig:
    """The gate of a gated replay, each key from its flag, else the default,
    printed. Refuses with exit 2 what GateConfig.validate refuses, naming
    where each key came from."""
    gc = GateConfig(**{f.name: _resolve(f.name, getattr(args, f.name),
                                        f.default)
                       for f in fields(GateConfig)})
    try:
        gc.validate({key: "the default" if getattr(args, key) is None
                     else flag for key, flag in GATED_FLAGS.items()})
    except ValueError as exc:
        raise ArgumentContractError(str(exc)) from None
    return gc


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    config, manifest = load_head(args.world)
    labels, feasibility = load_outcomes(args.world, config, manifest)
    scores, detected = _load_scores(args.scores, config, manifest)
    timing = read_stage_stats(Path(args.scores).parent / "stage_stats.json",
                              scores)
    base_log = _load_queue_log(args.base_log, "base", manifest)
    gated_log = _load_queue_log(args.gated_log, "gated", manifest)
    _check_same_packets(args.base_log, base_log, args.gated_log, gated_log)

    ttds = time_to_detect(scores, labels, detected.m,
                          config.window_us * 1e-6)
    rep = compute_report(scores, labels, ttds, detected, _burn_in(config),
                         feasibility, base_log, gated_log, timing=timing)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out / "report.json", rep, manifest)
    write_episode_table(out / "episodes.csv", labels, ttds)
    for key, val in to_json(rep).items():
        print(f"{key}={json.dumps(val)}")
    print(f"out={out}")
    return 0


def _load_queue_log(path, mode: str, manifest: RunManifest):
    """The queue log at path, bound to the replay manifest beside it,
    refusing, naming the file, what _recorded_world and read_queue_log
    refuse and a replay manifest of another mode."""
    replayed, record_path = _recorded_world(
        path, "replay_manifest.json",
        lambda p: from_json(ReplayManifest, _load_json(p), p), manifest)
    if replayed.mode != mode:
        raise ValueError(f"{record_path}: mode = {replayed.mode!r} is not "
                         f"{mode!r}, as --{mode}-log needs")
    return read_queue_log(path, (replayed.queue_log_sha256, record_path))


def _check_same_packets(base_path, base, gated_path, gated) -> None:
    """Refuse a base and a gated queue log that do not list the same
    packets in the same order, naming the first line that differs: the
    delay deltas of the report compare like with like only then."""
    n = min(base.n, gated.n)
    columns = ("flow_id", "clique_id", "enqueue_us", "benign")
    first = [np.flatnonzero(getattr(base, c)[:n] != getattr(gated, c)[:n])
             for c in columns]
    k = min((int(d[0]) for d in first if d.size), default=n)
    if k == n == base.n == gated.n:
        return
    if k == n:
        what = f"it is in one log only: {base.n} rows against {gated.n}"
    else:
        what = ", ".join(f"{c} {int(getattr(base, c)[k])} against "
                         f"{int(getattr(gated, c)[k])}" for c, d in
                         zip(columns, first) if d.size and d[0] == k)
    raise ValueError(f"{base_path} and {gated_path} do not replay the same "
                     f"packets: line {k + 2} differs ({what})")


# ---------------------------------------------------------------------------
# parser


class ArgumentContractError(Exception):
    """Bad argument values detected after parsing; exits with code 2."""


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flowgate",
        description="Flow scoring, calibration, gating, and replay pipeline.")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-world", help="realize a synthetic world")
    g.add_argument("--config", required=True, help="world config JSON")
    g.add_argument("--seed", type=int, default=None,
                   help="override the config's seed")
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_gen_world)

    d = sub.add_parser("detect", help="score a world's trace")
    d.add_argument("--world", required=True, help="world directory")
    d.add_argument("--params", default=None,
                   help="detector knobs JSON (alpha ... v_max)")
    d.add_argument("--quantile", type=float, default=None)
    d.add_argument("--k", type=int, default=None)
    d.add_argument("--m", type=int, default=None)
    d.add_argument("--w-min", dest="w_min", type=int, default=None)
    d.add_argument("--out", required=True, help="output directory")
    d.set_defaults(func=cmd_detect)

    r = sub.add_parser("replay", help="replay a trace through WFQ")
    r.add_argument("--world", required=True)
    r.add_argument("--mode", choices=["base", "gated"], required=True)
    r.add_argument("--scores", default=None,
                   help="scores CSV (required for gated mode)")
    r.add_argument("--omega-0", dest="omega_0", type=float, default=None)
    r.add_argument("--omega-minus", dest="omega_minus", type=float,
                   default=None)
    r.add_argument("--t-g", dest="t_g_s", type=float, default=None,
                   help="quarantine hold in seconds")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_replay)

    rep = sub.add_parser("report", help="compute metrics from artifacts")
    rep.add_argument("--world", required=True)
    rep.add_argument("--scores", required=True)
    rep.add_argument("--base-log", required=True)
    rep.add_argument("--gated-log", required=True)
    rep.add_argument("--bench-rows", type=int, default=None,
                     help="ignored: the scoring cost comes from "
                          "stage_stats.json beside the scores; still "
                          "accepted because perfbench/run.py's tiny "
                          "workload passes it")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentContractError as exc:
        parser.error(str(exc))
    except (OSError, ValueError, KeyError, FloatingPointError, MemoryError,
            GenerationError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
