"""End-to-end checks for the flowgate command line.

The pipeline fixture runs gen-world, detect, both replays, and report once
into a shared directory; the cheaper contract tests (exit codes, precedence,
determinism, label blindness) drive main() directly.
"""

import argparse
import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowgate.cli import build_parser, main
from flowgate.detector import (
    BLOCK_WINDOWS,
    Calibration,
    DetectorParams,
    DetectorSession,
    Scores,
    read_scores_csv,
    read_thresholds,
)
from flowgate.features import windowize
from flowgate.metrics import read_stage_stats
from flowgate.trace import (
    Budgets,
    Trace,
    from_json,
    read_flow_table,
    read_labels,
    read_table,
    read_trace_csv,
    table_columns,
    to_json,
    twin_columns,
    twin_path,
    write_json,
    write_table,
)
from flowgate.wfq import QueueEventLog, read_queue_log
from flowgate.worlds import (
    BenignFlowSpec,
    ContentionGraph,
    EpisodeSpec,
    WorldConfig,
    audit_budgets,
    episode_labels,
    flow_table,
    iat_references,
    load_head,
    load_outcomes,
    load_traffic,
    load_world,
)
from support import rebind, recorded


def tiny_config(path: Path, seed: int = 5) -> Path:
    flows = [
        BenignFlowSpec(1, "bulk", 0, "bulk_stream",
                       {"rate_bps": 24000.0, "pkt_len": 600, "jitter_frac": 0.4}),
        BenignFlowSpec(2, "bulk", 0, "bulk_stream",
                       {"rate_bps": 20000.0, "pkt_len": 500, "jitter_frac": 0.4}),
        BenignFlowSpec(3, "interactive", 0, "interactive_burst",
                       {"cycle_s": 1.0, "off_fraction": 0.5, "iat_s": 0.02}),
        BenignFlowSpec(4, "telemetry", 1, "periodic_telemetry",
                       {"period_s": 1.0, "jitter_frac": 0.3}),
        BenignFlowSpec(5, "telemetry", 1, "periodic_telemetry",
                       {"period_s": 1.2, "jitter_frac": 0.3}),
    ]
    episodes = [
        EpisodeSpec(100, "bulk", 0, "exfiltration", 90, 112,
                    Budgets(0, math.inf, math.inf),
                    "bulk_stream",
                    {"rate_bps": 20000.0, "pkt_len": 500, "jitter_frac": 0.4},
                    {"rate_bps": 15000.0, "pkt_len": 1000, "jitter_frac": 0.2}),
    ]
    cfg = WorldConfig(world_id="cli-tiny", seed=seed, horizon_windows=120,
                      window_us=250_000, capacity_bps=125_000.0,
                      benign_flows=flows, episodes=episodes)
    write_json(path, to_json(cfg))
    return path


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipe")
    cfg = tiny_config(root / "config.json")
    world = root / "world"
    det = root / "det"
    base = root / "base"
    gated = root / "gated"
    rep = root / "rep"
    assert main(["gen-world", "--config", str(cfg), "--out", str(world)]) == 0
    assert main(["detect", "--world", str(world), "--w-min", "20",
                 "--out", str(det)]) == 0
    assert main(["replay", "--world", str(world), "--mode", "base",
                 "--out", str(base)]) == 0
    assert main(["replay", "--world", str(world), "--mode", "gated",
                 "--scores", str(det / "scores.csv"), "--out", str(gated)]) == 0
    assert main(["report", "--world", str(world),
                 "--scores", str(det / "scores.csv"),
                 "--base-log", str(base / "queue_log.csv"),
                 "--gated-log", str(gated / "queue_log.csv"),
                 "--out", str(rep)]) == 0
    return {"root": root, "cfg": cfg, "world": world, "det": det,
            "base": base, "gated": gated, "rep": rep}


def test_pipeline_writes_expected_artifacts(pipe):
    for name in ("trace.csv", "flows.csv", "labels.csv", "manifest.json",
                 "config.json", "contention.json", "feasibility.json",
                 "references.json"):
        assert (pipe["world"] / name).exists(), name
    assert sorted(f.name for f in pipe["det"].iterdir()) == [
        "detect_manifest.json", "scores.csv", "scores.csv.cols",
        "stage_stats.json"]
    assert (pipe["base"] / "queue_log.csv").exists()
    assert not (pipe["base"] / "schedule.csv").exists()
    assert (pipe["gated"] / "schedule.csv").exists()
    assert (pipe["gated"] / "queue_log.csv").exists()
    assert (pipe["rep"] / "report.json").exists()
    assert (pipe["rep"] / "episodes.csv").exists()


def test_report_json_echoes_manifest_and_metrics(pipe):
    doc = json.loads((pipe["rep"] / "report.json").read_text())
    assert set(doc) == {"manifest", "metrics"}
    assert doc["manifest"]["world_id"] == "cli-tiny"
    for key in ("achieved_fpr_alarm", "incident_recall", "p999_delay_ms",
                "p999_collateral_ms", "feasibility_rate", "timing_us_per_row"):
        assert key in doc["metrics"], key
    header = (pipe["rep"] / "episodes.csv").read_text().splitlines()[0]
    assert header == "episode_id,detected,ttd_s"


def test_detect_manifest_has_no_timing_and_burn_in_from_split(pipe):
    doc = json.loads((pipe["det"] / "detect_manifest.json").read_text())
    assert doc["burn_in_windows"] == 72
    assert "timestamp" not in json.dumps(doc).lower()
    record = read_thresholds(pipe["det"] / "detect_manifest.json")
    assert record.quantile == 0.99 and record.k == 3 and record.m == 8
    assert sorted(record.flows) == [1, 2, 3, 4, 5, 100]


def test_gen_world_deterministic_across_runs(pipe, tmp_path):
    out2 = tmp_path / "world2"
    assert main(["gen-world", "--config", str(pipe["cfg"]),
                 "--out", str(out2)]) == 0
    for name in ("trace.csv", "labels.csv", "flows.csv", "contention.json"):
        assert (out2 / name).read_bytes() == (pipe["world"] / name).read_bytes()


def _same_outputs(out: Path, expected: Path) -> None:
    """out holds exactly the files of expected, byte for byte."""
    assert sorted(f.name for f in out.iterdir()) == \
        sorted(f.name for f in expected.iterdir())
    for f in expected.iterdir():
        assert (out / f.name).read_bytes() == f.read_bytes(), f.name


# the files each reader of a world opens; trace.csv comes with its twin
TRAFFIC_FILES = ("config.json", "manifest.json", "trace.csv",
                 "trace.csv.cols", "contention.json")
OUTCOME_FILES = ("config.json", "manifest.json", "feasibility.json")


def _stripped(pipe, tmp_path, names) -> Path:
    """A copy of the pipeline's world holding only the files names."""
    world = tmp_path / "world_stripped"
    world.mkdir()
    for name in names:
        shutil.copy(pipe["world"] / name, world / name)
    return world


def _stage_runs(pipe, tmp_path, world):
    """The pipeline's detect, replays and report on world, by the pipeline
    output each repeats: the run and the directory it writes."""
    def cli(out, *argv):
        return (lambda: main([*argv, "--world", str(world),
                              "--out", str(tmp_path / out)]), tmp_path / out)

    return {"det": cli("det", "detect", "--w-min", "20"),
            "base": cli("base", "replay", "--mode", "base"),
            "gated": cli("gated", "replay", "--mode", "gated",
                         "--scores", str(pipe["det"] / "scores.csv")),
            "rep": (lambda: _report(pipe, tmp_path, world=world),
                    tmp_path / "r")}


def test_detect_ignores_labels_file(pipe, tmp_path):
    # detect and replay read the head and the traffic only: on a world of
    # exactly those files they write the same bytes
    runs = _stage_runs(pipe, tmp_path,
                       _stripped(pipe, tmp_path, TRAFFIC_FILES))
    for stage in ("det", "base", "gated"):
        run, out = runs[stage]
        assert run() == 0, stage
        _same_outputs(out, pipe[stage])


def test_report_ignores_trace_and_references(pipe, tmp_path):
    # report reads the head and the outcomes only: on a world of exactly
    # those files it writes the same bytes
    run, out = _stage_runs(pipe, tmp_path,
                           _stripped(pipe, tmp_path, OUTCOME_FILES))["rep"]
    assert run() == 0
    _same_outputs(out, pipe["rep"])


def test_load_world_reads_exactly_the_traffic_and_outcomes(pipe, tmp_path):
    world = _stripped(pipe, tmp_path, TRAFFIC_FILES + ("feasibility.json",))
    whole, stripped = load_world(pipe["world"]), load_world(world)
    assert stripped.trace == whole.trace
    assert stripped.labels == whole.labels
    assert stripped.references == whole.references
    assert to_json(stripped.feasibility) == to_json(whole.feasibility)
    assert audit_budgets(stripped) == audit_budgets(whole)


def _own_iat_references(world: Path) -> dict:
    """references.json forged as each episode's own positive IATs, which
    the audit would take for a perfect reference."""
    trace = load_world(world).trace
    doc = json.loads((world / "references.json").read_text())
    forged = {}
    for f in doc:
        d = np.diff(trace.ts_us[trace.flow_id == int(f)])
        forged[f] = np.sort(d[d > 0]).tolist()
    assert forged != doc
    return forged


def _edit_export(world: Path, artifact: str, edit: str) -> None:
    path = world / artifact
    if edit == "truncated":
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
    elif artifact == "flows.csv":  # every label and device class swapped
        doc = json.loads(path.read_text())
        write_json(path, {f: {**info, "device_class": "camera", "label": (
            "benign" if info["label"] == "malicious" else "malicious")}
            for f, info in doc.items()})
    elif artifact == "labels.csv":  # other windows, kinds and feasibility
        write_json(path, [{**lab, "start_window": 0, "end_window": 1,
                           "kind": "scan", "feasible": not lab["feasible"]}
                          for lab in json.loads(path.read_text())])
    else:
        write_json(path, _own_iat_references(world))


@pytest.mark.parametrize("artifact, edit", [
    ("flows.csv", "truncated"), ("flows.csv", "other flows"),
    ("labels.csv", "truncated"), ("labels.csv", "other labels"),
    ("references.json", "truncated"),
    ("references.json", "each episode's own IATs")])
def test_edited_world_exports_are_ignored(pipe, tmp_path, artifact, edit):
    # flows.csv, labels.csv and references.json are exports: no stage and
    # no audit reads them back
    world = _world_copy(pipe, tmp_path)
    audit = audit_budgets(load_world(world))
    _edit_export(world, artifact, edit)
    for stage, (run, out) in _stage_runs(pipe, tmp_path, world).items():
        assert run() == 0, stage
        _same_outputs(out, pipe[stage])
    assert audit_budgets(load_world(world)) == audit


def test_world_exports_are_the_derived_records(pipe):
    # what gen-world exports is what every stage derives
    world = pipe["world"]
    config, manifest = load_head(world)
    trace, _ = load_traffic(world, config, manifest)
    labels, feasibility = load_outcomes(world, config)
    assert read_flow_table(world / "flows.csv") == flow_table(config)
    assert read_labels(world / "labels.csv") == labels == episode_labels(
        config, feasibility)
    assert json.loads((world / "references.json").read_text()) == {
        str(r.flow_id): r.sorted_iats_us.tolist()
        for r in iat_references(config, trace)}


@pytest.mark.parametrize("command", ["replay", "report"])
def test_scores_of_another_world_are_refused(pipe, tmp_path, capsys,
                                             command):
    # the pipeline's scores (world seed 5) against world seed 6 of the same
    # config: detect_manifest.json beside the scores names the seed
    other = tmp_path / "world_seed6"
    assert main(["gen-world", "--config", str(pipe["cfg"]), "--seed", "6",
                 "--out", str(other)]) == 0
    capsys.readouterr()
    if command == "replay":
        rc = main(["replay", "--world", str(other), "--mode", "gated",
                   "--scores", str(pipe["det"] / "scores.csv"),
                   "--out", str(tmp_path / "g")])
    else:
        rc = _report(pipe, tmp_path, world=other)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: ValueError: {pipe['det'] / 'detect_manifest.json'}: "
        "world.seed = 5 is not manifest.json's seed 6")
    assert not (tmp_path / "g" / "queue_log.csv").exists()
    assert not (tmp_path / "r" / "report.json").exists()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_replay_manifest_records_the_world(pipe):
    world = json.loads((pipe["world"] / "manifest.json").read_text())
    for mode in ("base", "gated"):
        doc = json.loads((pipe[mode] / "replay_manifest.json").read_text())
        assert doc["world"] == world
        assert doc["mode"] == mode
        assert doc["queue_log_sha256"] == _sha256(pipe[mode] /
                                                  "queue_log.csv")


def test_every_record_binds_the_trace(pipe):
    # manifest.json binds trace.csv, and every stage's record holds a copy
    world = json.loads((pipe["world"] / "manifest.json").read_text())
    assert world["trace_sha256"] == _sha256(pipe["world"] / "trace.csv")
    for record in (pipe["det"] / "detect_manifest.json",
                   pipe["base"] / "replay_manifest.json",
                   pipe["gated"] / "replay_manifest.json"):
        assert json.loads(record.read_text())["world"] == world
    assert json.loads((pipe["rep"] / "report.json").read_text())[
        "manifest"]["trace_sha256"] == world["trace_sha256"]


def test_queue_logs_of_another_world_are_refused(pipe, tmp_path, capsys):
    # world seed 6 with its own scores, given the queue logs of world seed 5
    other = tmp_path / "world_seed6"
    assert main(["gen-world", "--config", str(pipe["cfg"]), "--seed", "6",
                 "--out", str(other)]) == 0
    assert main(["detect", "--world", str(other), "--w-min", "20",
                 "--out", str(tmp_path / "det6")]) == 0
    capsys.readouterr()
    assert _report(pipe, tmp_path, world=other,
                   scores=tmp_path / "det6" / "scores.csv") == 1
    assert capsys.readouterr().err.startswith(
        f"error: ValueError: {pipe['base'] / 'replay_manifest.json'}: "
        "world.seed = 5 is not manifest.json's seed 6")
    assert not (tmp_path / "r" / "report.json").exists()


def test_swapped_queue_logs_are_refused(pipe, tmp_path, capsys):
    base, gated = (pipe[m] / "queue_log.csv" for m in ("base", "gated"))
    assert _report(pipe, tmp_path, base=gated, gated=base) == 1
    assert capsys.readouterr().err.startswith(
        f"error: ValueError: {pipe['gated'] / 'replay_manifest.json'}: "
        "mode = 'gated' is not 'base'")
    assert not (tmp_path / "r" / "report.json").exists()


def _read_log(path) -> QueueEventLog:
    """The queue log at path, as replay wrote it."""
    return read_queue_log(path, recorded(path))


def _log_copy(pipe, tmp_path, world, mode, edit=None):
    """A copy of a queue log passed through edit, written by write_table
    beside the pipeline's replay manifest of that mode, bound to the copy
    and with packets set to its rows: a log of the pipeline's world as far
    as the manifest tells."""
    out = tmp_path / f"{world.name}_{mode}"
    out.mkdir()
    log = _read_log((pipe[mode] if world == pipe["world"]
                     else world.parent / mode) / "queue_log.csv")
    log = edit(log) if edit else log
    shutil.copy(pipe[mode] / "replay_manifest.json", out)
    rebind(out / "queue_log.csv", log, out / "replay_manifest.json",
           "queue_log_sha256", packets=log.n)
    return out / "queue_log.csv"


def test_queue_logs_of_other_packets_are_refused(pipe, tmp_path, capsys):
    # the base log of world seed 6, beside a manifest of world seed 5,
    # against the gated log of world seed 5
    other = tmp_path / "seed6" / "world"
    assert main(["gen-world", "--config", str(pipe["cfg"]), "--seed", "6",
                 "--out", str(other)]) == 0
    assert main(["replay", "--world", str(other), "--mode", "base",
                 "--out", str(other.parent / "base")]) == 0
    base = _log_copy(pipe, tmp_path, other, "base")
    gated = pipe["gated"] / "queue_log.csv"
    capsys.readouterr()
    assert _report(pipe, tmp_path, base=base) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {base} and {gated} do not "
                          "replay the same packets: line ")
    assert not (tmp_path / "r" / "report.json").exists()


@pytest.mark.parametrize("case", ["last row missing", "benign flipped",
                                  "flow and time edited"])
def test_queue_logs_that_differ_in_a_packet_are_refused(pipe, tmp_path,
                                                        capsys, case):
    gated = pipe["gated"] / "queue_log.csv"
    log = _read_log(gated)
    rows = log.n
    # row 4, line 6, the same in both logs
    f, e, b = (int(getattr(log, c)[4]) for c in ("flow_id", "enqueue_us",
                                                 "benign"))
    edit, line, what = {
        "last row missing": (lambda lg: lg.take(slice(0, rows - 1)),
                             rows + 1, f"it is in one log only: {rows - 1} "
                             f"rows against {rows}"),
        "benign flipped": (lambda lg: _edit_row(lg, 4, benign=1 - b), 6,
                           f"benign {1 - b} against {b}"),
        "flow and time edited": (
            lambda lg: _edit_row(lg, 4, flow_id=9, enqueue_us=7), 6,
            f"flow_id 9 against {f}, enqueue_us 7 against {e}"),
    }[case]
    base = _log_copy(pipe, tmp_path, pipe["world"], "base", edit)
    assert _report(pipe, tmp_path, base=base) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {base} and {gated} do not replay the same "
        f"packets: line {line} differs ({what})\n")


def test_replay_output_is_printed_once(pipe, tmp_path):
    # stdout to a pipe is block-buffered, so the gate's lines are still in
    # the buffer when the shares fork; a child must not flush them
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
            "from flowgate.cli import main; sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "g"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code, "replay", "--world", str(pipe["world"]),
         "--mode", "gated", "--scores", str(pipe["det"] / "scores.csv"),
         "--out", str(out)], stdout=subprocess.PIPE, env=env, check=True,
        text=True)
    packets = len((pipe["gated"] / "queue_log.csv").read_text().splitlines())
    assert proc.stdout.splitlines() == [
        "omega_0=1.0", "omega_minus=0.05", "t_g_s=30.0", "mode=gated",
        f"packets={packets - 1}", f"out={out}"]
    assert (out / "queue_log.csv").read_bytes() == (
        pipe["gated"] / "queue_log.csv").read_bytes()


def test_detect_output_is_printed_once(pipe, tmp_path):
    # the knob lines are in stdout's buffer when the scores writer forks
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from flowgate.cli import main; sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "d"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code, "detect", "--world", str(pipe["world"]),
         "--w-min", "20", "--out", str(out)], stdout=subprocess.PIPE,
        env=env, check=True, text=True)
    lines = proc.stdout.splitlines()
    assert [line.split("=")[0] for line in lines] == [
        "quantile", "k", "m", "w_min", "burn_in_windows", "flows", "records",
        "alarms", "actionable", "out"]
    assert lines[-1] == f"out={out}"
    for name in ("scores.csv", "scores.csv.cols", "detect_manifest.json"):
        assert (out / name).read_bytes() == (pipe["det"] / name).read_bytes()


def test_non_finite_detector_state_is_an_error(pipe, tmp_path, capsys,
                                               monkeypatch):
    # a forked scores writer is running when the state overflows at window 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"a": 1e308, "b": 10.0}))
    out = tmp_path / "d"
    with warnings.catch_warnings():  # the overflow itself is not reported
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["detect", "--world", str(pipe["world"]), "--params",
                     str(params), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "error: FloatingPointError: non-finite detector state for flow 1 at "
        "window 0")
    assert "RuntimeWarning" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(out.iterdir()) == []


def test_memory_error_is_one_error_line(pipe, tmp_path, capsys,
                                       monkeypatch):
    # as a K-of-M ring of --m 1000000000000 windows would raise: patched,
    # since a host that overcommits may grant the allocation
    def no_room(*args):
        raise MemoryError("Unable to allocate 21.8 TiB")

    monkeypatch.setattr("flowgate.detector.Persistence", no_room)
    assert main(["detect", "--world", str(pipe["world"]), "--k", "1",
                 "--m", "1000000000000", "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == (
        "error: MemoryError: Unable to allocate 21.8 TiB\n")
    assert not (tmp_path / "d").exists()


def _readme_cli_lines() -> list[str]:
    """The flowgate command lines of the fenced block under README.md's
    "## CLI" heading, each with its backslash continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("\n```", 1)[0].replace("\\\n", " ")
    return [line for line in block.splitlines()
            if line.startswith("flowgate ")]


def test_readme_cli_block_matches_the_parser():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    shown = {name: set() for name in commands}
    for line in _readme_cli_lines():
        argv = shlex.split(line.replace("[", " ").replace("]", " "))[1:]
        parser.parse_args(argv)  # exits 2 on what the parser refuses
        shown[argv[0]].update(a for a in argv if a.startswith("--"))
    defined = {name: {o for a in sub._actions for o in a.option_strings
                      if o != "--help" and o.startswith("--")}
               for name, sub in commands.items()}
    # accepted and ignored only because perfbench/run.py passes it
    defined["report"].remove("--bench-rows")
    assert shown == defined


def test_detect_has_no_seed(pipe, tmp_path, capsys):
    # the detector draws no random numbers, so there is no seed to give
    assert _usage_error(["detect", "--world", str(pipe["world"]), "--seed",
                         "1", "--out", str(tmp_path / "d")], capsys) == (
        "unrecognized arguments: --seed 1")
    assert not (tmp_path / "d").exists()


def _scores_of(pipe) -> Scores:
    """The pipeline's scores, as detect wrote them."""
    path = pipe["det"] / "scores.csv"
    return read_scores_csv(path, recorded(path))


def _rewrite_scores(pipe, tmp_path, name, edit):
    """The pipeline's scores passed through edit, written by write_table
    to name beside the pipeline's detect_manifest.json bound to them."""
    shutil.copy(pipe["det"] / "detect_manifest.json", tmp_path)
    rebind(tmp_path / name, edit(_scores_of(pipe)),
           tmp_path / "detect_manifest.json", "scores_sha256")
    return tmp_path / name


def test_gated_replay_with_no_actionable_matches_base(pipe, tmp_path):
    def quiet(scores):
        return replace(scores, z=np.zeros(len(scores), dtype=bool))
    scores = _rewrite_scores(pipe, tmp_path, "quiet_scores.csv", quiet)
    out = tmp_path / "gated_quiet"
    assert main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
                 "--scores", str(scores), "--out", str(out)]) == 0
    assert (out / "queue_log.csv").read_bytes() == \
        (pipe["base"] / "queue_log.csv").read_bytes()


def test_gated_replay_requires_scores(pipe, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
              "--out", str(tmp_path / "g")])
    assert exc.value.code == 2


# calibrations that Calibration.check refuses, each with the text its
# refusal must hold
BAD_CALIBRATIONS = {
    "quantile 0": ({"quantile": 0.0}, "quantile = 0.0 is not in (0, 1)"),
    "quantile 1": ({"quantile": 1.0}, "quantile = 1.0 is not in (0, 1)"),
    "quantile 1.5": ({"quantile": 1.5}, "quantile = 1.5 is not in (0, 1)"),
    "k zero": ({"k": 0}, "k = 0 and m = 8 break 1 <= k <= m"),
    "k above m": ({"k": 9, "m": 8}, "k = 9 and m = 8 break 1 <= k <= m"),
    "w_min -1": ({"w_min": -1}, "w_min = -1 is not a nonnegative integer"),
    "w_min -5": ({"w_min": -5}, "w_min = -5 is not a nonnegative integer"),
}


@pytest.mark.parametrize("case", sorted(BAD_CALIBRATIONS))
def test_bad_calibration_is_refused(pipe, tmp_path, capsys, case):
    knobs, message = BAD_CALIBRATIONS[case]
    flags = [a for key, value in knobs.items()
             for a in (f"--{key.replace('_', '-')}", str(value))]
    # detect: exit 2 before anything is written
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--world", str(pipe["world"]), *flags,
              "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (out / "scores.csv").exists()
    assert not (out / "detect_manifest.json").exists()
    # report: exit 1 on a detect_manifest.json that holds it
    scores = _det_copy(pipe, tmp_path)
    path = scores.parent / "detect_manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **knobs}))
    assert _report(pipe, tmp_path, scores=scores) == 1
    assert capsys.readouterr().err == f"error: ValueError: {path}: {message}\n"
    assert not (tmp_path / "r" / "report.json").exists()


def test_report_refuses_thresholds_of_another_detect_run(pipe, tmp_path,
                                                         capsys):
    # report reads thresholds only from the record beside the scores: there
    # is no flag to give another run's
    other = tmp_path / "other"
    assert main(["detect", "--world", str(pipe["world"]), "--quantile", "0.9",
                 "--k", "2", "--m", "4", "--w-min", "20",
                 "--out", str(other)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--world", str(pipe["world"]),
              "--scores", str(pipe["det"] / "scores.csv"),
              "--thresholds", str(other / "detect_manifest.json"),
              "--base-log", str(pipe["base"] / "queue_log.csv"),
              "--gated-log", str(pipe["gated"] / "queue_log.csv"),
              "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --thresholds" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flow, params, edit, message", [
    (3, "params", lambda p: _without(p, "cycle_s"), "missing key 'cycle_s'"),
    (4, "params", lambda p: {**p, "period_s": 0.0},
     "period_s must be positive"),
    (1, "params", lambda p: {**p, "jitter_frac": "x"},
     "jitter_frac = 'x' is not a number"),
    (100, "cover_params", lambda p: _without(p, "rate_bps"),
     "missing key 'rate_bps'"),
    (100, "overlay_params", lambda p: _without(p, "rate_bps"),
     "missing key 'rate_bps'"),
    (1, "params", lambda p: {**p, "rate_bps": "24000"},
     "rate_bps = '24000' is not a number"),
    (1, "params", lambda p: {**p, "rate_bps": True},
     "rate_bps = True is not a number"),
    (1, "params", lambda p: {**p, "pkt_len": 600.9},
     "pkt_len = 600.9 is not an integer"),
    (1, "params", lambda p: {**p, "pkt_len": 600.0},
     "pkt_len = 600.0 is not an integer"),
    (3, "params", lambda p: {**p, "size_min": False},
     "size_min = False is not an integer"),
    (100, "overlay_params", lambda p: {**p, "pkt_len": "1000"},
     "pkt_len = '1000' is not an integer"),
], ids=["missing key", "generator refusal", "string value",
        "episode cover", "episode overlay", "numeric string", "bool number",
        "fractional integer", "integral float", "bool integer",
        "overlay string integer"])
def test_generator_errors_name_the_flow_and_key(tmp_path, capsys, flow,
                                                params, edit, message):
    cfg = tiny_config(tmp_path / "config.json")
    doc = json.loads(cfg.read_text())
    for spec in doc["benign_flows"] + doc["episodes"]:
        if spec["flow_id"] == flow:
            spec[params] = edit(spec[params])
    cfg.write_text(json.dumps(doc))
    assert main(["gen-world", "--config", str(cfg),
                 "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {cfg}: flow {flow}: {params}: {message}\n")
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("kind, key, value", [
    ("scan", "rate_pps", 0), ("scan", "rate_pps", -5.0),
    ("evasive_c2", "burst_every_s", 0), ("evasive_c2", "burst_pkts", -1),
    ("evasive_c2", "intra_iat_s", -0.01),
])
def test_overlay_params_that_are_not_positive_are_refused(tmp_path, capsys,
                                                          kind, key, value):
    cfg = tiny_config(tmp_path / "config.json")
    doc = json.loads(cfg.read_text())
    doc["episodes"][0].update(kind=kind, overlay_params={key: value})
    cfg.write_text(json.dumps(doc))
    assert main(["gen-world", "--config", str(cfg),
                 "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {cfg}: flow 100: overlay_params: {key} must be "
        "positive\n")
    assert not (tmp_path / "w").exists()


def test_no_stage_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, which costs a stage
    # process more than the work it does with it
    cfg = tiny_config(tmp_path / "config.json")
    w, scores = str(tmp_path / "w"), str(tmp_path / "det" / "scores.csv")
    base, gated = (str(tmp_path / d / "queue_log.csv")
                   for d in ("base", "gated"))
    code = f"""if True:
        import sys
        from flowgate.cli import main
        from flowgate.worlds import audit_budgets, load_world
        for argv in (
                ["gen-world", "--config", {str(cfg)!r}, "--out", {w!r}],
                ["detect", "--world", {w!r}, "--w-min", "20",
                 "--out", {str(tmp_path / "det")!r}],
                ["replay", "--world", {w!r}, "--mode", "base",
                 "--out", {str(tmp_path / "base")!r}],
                ["replay", "--world", {w!r}, "--mode", "gated",
                 "--scores", {scores!r}, "--out", {str(tmp_path / "gated")!r}],
                ["report", "--world", {w!r}, "--scores", {scores!r},
                 "--base-log", {base!r}, "--gated-log", {gated!r},
                 "--out", {str(tmp_path / "rep")!r}]):
            assert main(argv) == 0, argv
        assert audit_budgets(load_world({w!r}))
        print("numpy.ma" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=env, check=True, text=True)
    assert (tmp_path / "rep" / "report.json").is_file()
    assert proc.stdout.splitlines()[-1] == "False"


def test_negative_seed_flag_is_refused_before_any_work(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "config.json")
    assert _usage_error(["gen-world", "--config", str(cfg), "--seed", "-1",
                         "--out", str(tmp_path / "w")], capsys) == (
        "--seed = -1 is negative")
    assert not (tmp_path / "w").exists()


def test_negative_config_seed_is_refused(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "config.json", seed=-3)
    assert main(["gen-world", "--config", str(cfg),
                 "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {cfg}: seed = -3 is negative\n")
    assert not (tmp_path / "w").exists()


def test_the_commands_are_the_four_stages(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{gen-world,detect,replay,report}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_missing_config_is_runtime_error(tmp_path):
    assert main(["gen-world", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "w")]) == 1


def test_corrupt_world_is_runtime_error(pipe, tmp_path):
    broken = tmp_path / "world_broken"
    shutil.copytree(pipe["world"], broken)
    (broken / "trace.csv").write_text("flow_id,ts_us\n1,notanumber\n")
    assert main(["detect", "--world", str(broken),
                 "--out", str(tmp_path / "d")]) == 1


def _edited_world(pipe, tmp_path, name, edit):
    """A copy of the pipeline's world whose trace is passed through edit
    and written by write_table, bound to the copy's manifest.json, as
    gen-world would have written a world of that trace. Returns the copy
    and its trace."""
    world = tmp_path / name
    shutil.copytree(pipe["world"], world)
    config, manifest = load_head(world)
    trace = edit(load_traffic(world, config, manifest)[0])
    rebind(world / "trace.csv", trace, world / "manifest.json",
           "trace_sha256")
    return world, trace


def _edit_row(table, k, **values):
    """table with the named columns of row k set to values."""
    cols = {name: getattr(table, name).copy() for name in values}
    for name, value in values.items():
        cols[name][k] = value
    return replace(table, **cols)


def tampered_world(pipe, tmp_path, column: str, value: int):
    """A copy of the pipeline's world with one column of the first packet
    of its trace replaced; returns the copy and that packet's flow id."""
    world, trace = _edited_world(pipe, tmp_path, "world_tampered",
                                 lambda tr: _edit_row(tr, 0, **{column: value}))
    return world, int(trace.flow_id[0])


def test_unknown_flow_in_trace_is_named(pipe, tmp_path, capsys):
    broken, _ = tampered_world(pipe, tmp_path, "flow_id", 999)
    assert main(["detect", "--world", str(broken),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "trace.csv" in err and "flow 999" in err


def test_clique_tag_disagreeing_with_graph_is_refused(pipe, tmp_path, capsys):
    broken, flow = tampered_world(pipe, tmp_path, "clique_id", 7)
    assert main(["replay", "--world", str(broken), "--mode", "base",
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "trace.csv" in err and f"flow {flow} " in err and "clique 7" in err


def test_unsorted_trace_is_refused(pipe, tmp_path, capsys):
    ts = load_world(pipe["world"]).trace.ts_us
    k = next(i for i in range(1, len(ts)) if ts[i] > ts[i - 1])
    order = np.arange(len(ts))
    order[[k - 1, k]] = k, k - 1  # packets k-1 and k swapped
    broken, _ = _edited_world(pipe, tmp_path, "world_unsorted",
                              lambda tr: tr.take(order))
    for argv in (["replay", "--mode", "base", "--out", str(tmp_path / "r")],
                 ["detect", "--out", str(tmp_path / "d")]):
        assert main([*argv, "--world", str(broken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"trace.csv: packet {k} at ts {ts[k - 1]} precedes" in err


def test_trace_with_reordered_header_is_refused(pipe, tmp_path, capsys):
    # manifest.json binds the trace's bytes, its header included
    broken = tmp_path / "world_reordered"
    shutil.copytree(pipe["world"], broken)
    lines = (broken / "trace.csv").read_text().splitlines()
    lines[0] = "len_bytes,clique_id,ts_us,flow_id"
    (broken / "trace.csv").write_text("\n".join(lines) + "\n")
    assert main(["replay", "--world", str(broken), "--mode", "base",
                 "--out", str(tmp_path / "r")]) == 1
    bound = json.loads((broken / "manifest.json").read_text())
    assert capsys.readouterr().err == (
        f"error: ValueError: {broken / 'trace.csv'}: sha256 "
        f"{_sha256(broken / 'trace.csv')} is not the "
        f"{bound['trace_sha256']} that {broken / 'manifest.json'} records\n")


def test_packet_length_outside_bounds_is_refused(pipe, tmp_path, capsys):
    broken, flow = tampered_world(pipe, tmp_path, "len_bytes", 1501)
    assert main(["replay", "--world", str(broken), "--mode", "base",
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (f"trace.csv: packet 0 of flow {flow} has 1501 bytes, outside "
            "[64, 1500]") in err


def _scores_edited_in_place(pipe, tmp_path, edit):
    """A copy of the pipeline's detect output whose scores.csv text is
    passed through edit, beside the record and twin detect wrote. Returns
    the copy's scores and the refusal every reader of them must print."""
    scores = _det_copy(pipe, tmp_path)
    lines = edit(scores.read_text().splitlines())
    scores.write_text("".join(line + "\n" for line in lines))
    record = scores.parent / "detect_manifest.json"
    bound = json.loads(record.read_text())["scores_sha256"]
    return scores, (f"ValueError: {scores}: sha256 {_sha256(scores)} is not "
                    f"the {bound} that {record} records")


def test_scores_with_reordered_header_are_refused(pipe, tmp_path, capsys):
    # detect_manifest.json binds the scores' bytes, their header included
    def reorder(lines):
        return [lines[0].replace("E,S,v,u", "E,v,S,u")] + lines[1:]
    scores, message = _scores_edited_in_place(pipe, tmp_path, reorder)
    for argv in (["replay", "--world", str(pipe["world"]), "--mode", "gated",
                  "--scores", str(scores), "--out", str(tmp_path / "g")],
                 ["report", "--world", str(pipe["world"]),
                  "--scores", str(scores),
                  "--base-log", str(pipe["base"] / "queue_log.csv"),
                  "--gated-log", str(pipe["gated"] / "queue_log.csv"),
                  "--out", str(tmp_path / "r")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g" / "queue_log.csv").exists()
    assert not (tmp_path / "r" / "report.json").exists()


def test_scores_with_a_short_row_are_refused(pipe, tmp_path, capsys):
    def truncate(lines):
        return lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:]
    scores, message = _scores_edited_in_place(pipe, tmp_path, truncate)
    assert main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
                 "--scores", str(scores), "--out", str(tmp_path / "g")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scores_with_a_repeated_flow_window_pair_are_refused(pipe, tmp_path,
                                                            capsys):
    # no stage_stats.json lies beside the copy, so no row count catches it
    scores = _rewrite_scores(pipe, tmp_path, "repeated.csv", lambda s:
                             Scores.concat([s, s.take(slice(4, 8))]))
    intact = _scores_of(pipe)
    n, flow, window = len(intact), intact.flow_id[4], intact.window[4]
    for argv in (["replay", "--world", str(pipe["world"]), "--mode", "gated",
                  "--scores", str(scores), "--out", str(tmp_path / "g")],
                 ["report", "--world", str(pipe["world"]),
                  "--scores", str(scores),
                  "--base-log", str(pipe["base"] / "queue_log.csv"),
                  "--gated-log", str(pipe["gated"] / "queue_log.csv"),
                  "--out", str(tmp_path / "r")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: {scores}: line {n + 2}: flow {flow} at "
            f"window {window} repeats line 6\n")
    assert not (tmp_path / "g" / "schedule.csv").exists()
    assert not (tmp_path / "r" / "report.json").exists()


def test_quantile_precedence_flag_default(pipe, tmp_path, capsys):
    assert main(["detect", "--world", str(pipe["world"]), "--quantile", "0.9",
                 "--out", str(tmp_path / "d1")]) == 0
    assert "quantile=0.9\n" in capsys.readouterr().out

    assert main(["detect", "--world", str(pipe["world"]),
                 "--out", str(tmp_path / "d2")]) == 0
    assert "quantile=0.99\n" in capsys.readouterr().out
    doc = json.loads((tmp_path / "d2" / "detect_manifest.json").read_text())
    assert doc["quantile"] == 0.99


# scores.csv of the pipeline's world at --w-min 20 with zeta = 0.5, as
# detect wrote it when the knob sat under a "detector" key of --params
ZETA_HALF_SCORES_SHA256 = (
    "09c2224619de515b43016f14782f830ca305d3d5c2d25149e02ddfa7f6bff060")


def test_params_file_holds_the_recorded_detector_params(pipe, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"zeta": 0.5}))
    assert main(["detect", "--world", str(pipe["world"]), "--w-min", "20",
                 "--params", str(params), "--out", str(tmp_path / "d1")]) == 0
    scores = (tmp_path / "d1" / "scores.csv").read_bytes()
    assert hashlib.sha256(scores).hexdigest() == ZETA_HALF_SCORES_SHA256
    assert scores != (pipe["det"] / "scores.csv").read_bytes()
    # the object the run recorded, given back as it stands, scores the same
    record = json.loads((tmp_path / "d1" / "detect_manifest.json").read_text())
    assert record["detector_params"] == to_json(DetectorParams(zeta=0.5))
    params.write_text(json.dumps(record["detector_params"]))
    assert main(["detect", "--world", str(pipe["world"]), "--w-min", "20",
                 "--params", str(params), "--out", str(tmp_path / "d2")]) == 0
    assert (tmp_path / "d2" / "scores.csv").read_bytes() == scores


def test_params_file_k_is_the_surrogate_slope(pipe, tmp_path, capsys):
    # as in the recorded detector_params: the K-of-M k comes from --k only
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"k": 2.5}))
    assert main(["detect", "--world", str(pipe["world"]), "--params",
                 str(params), "--out", str(tmp_path / "d")]) == 0
    assert "k=3\n" in capsys.readouterr().out
    record = json.loads((tmp_path / "d" / "detect_manifest.json").read_text())
    assert (record["k"], record["detector_params"]["k"]) == (3, 2.5)


def test_base_and_gated_logs_align_with_trace_order(pipe):
    base = _read_log(pipe["base"] / "queue_log.csv")
    gated = _read_log(pipe["gated"] / "queue_log.csv")
    assert base.n == gated.n
    assert (base.enqueue_us == gated.enqueue_us).all()
    assert (base.flow_id == gated.flow_id).all()
    assert (base.dequeue_us >= base.enqueue_us).all()
    assert (base.complete_us > base.dequeue_us).all()


def _edit_line(lines, k, column, value):
    """lines with field `column` of data row k (line k + 1) set to value."""
    cells = lines[k + 1].split(",")
    cells[column] = str(value)
    return lines[:k + 1] + [",".join(cells)] + lines[k + 2:]


@pytest.mark.parametrize("column, value, message", [
    (1, 120, "window 120 is outside [0, 120)"),
    (1, -1, "window = -1 is not a nonnegative integer"),
    (0, 999, "flow 999 is not in config.json"),
])
def test_gated_replay_refuses_rows_outside_the_world(pipe, tmp_path, capsys,
                                                     column, value, message):
    # an actionable row at window 120 of a 120-window world, at window -1,
    # or of a flow the world does not have
    name = ("flow_id", "window")[column]
    scores = _rewrite_scores(pipe, tmp_path, "outside.csv", lambda s:
                             _edit_row(s, 3, z=True, **{name: value}))
    out = tmp_path / "g"
    assert main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
                 "--scores", str(scores), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {scores}: ")
    assert message in err
    assert not (out / "schedule.csv").exists()


def test_trace_packet_at_the_horizon_is_refused(pipe, tmp_path, capsys):
    broken, trace = _edited_world(pipe, tmp_path, "world_late", lambda tr:
                                  _edit_row(tr, -1, ts_us=120 * 250_000))
    assert main(["detect", "--world", str(broken),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (f"trace.csv: packet {trace.n_packets - 1} of flow "
            f"{trace.flow_id[-1]} at ts 30000000 is outside [0, 30000000)"
            ) in err


def _report(pipe, tmp_path, base=None, gated=None, scores=None, world=None):
    """report on the pipeline's artifacts, with the world, either queue log
    or the scores (and so the thresholds and stage stats beside them)
    replaced."""
    return main(["report", "--world", str(world or pipe["world"]),
                 "--scores", str(scores or pipe["det"] / "scores.csv"),
                 "--base-log", str(base or pipe["base"] / "queue_log.csv"),
                 "--gated-log", str(gated or pipe["gated"] / "queue_log.csv"),
                 "--out", str(tmp_path / "r")])


def test_report_refuses_scores_passed_as_a_queue_log(pipe, tmp_path, capsys):
    # beside a base replay manifest, so that the log's reader sees it
    shutil.copy(pipe["base"] / "replay_manifest.json", tmp_path)
    scores = shutil.copy(pipe["det"] / "scores.csv", tmp_path)
    assert _report(pipe, tmp_path, base=scores) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {scores}: sha256 ")
    assert not (tmp_path / "r" / "report.json").exists()


CORRUPTIONS = {
    "truncated last line": lambda lines: lines[:-1] + [lines[-1][:len(
        lines[-1]) // 2]],
    "nan field": lambda lines: _edit_line(lines, 2, 3, "nan"),
    "reordered header": lambda lines: [",".join(reversed(
        lines[0].split(",")))] + lines[1:],
    "empty file": lambda lines: [],
}


@pytest.mark.parametrize("artifact", ["scores", "queue log"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_scores_and_queue_logs_are_refused(pipe, tmp_path, capsys,
                                                   artifact, corruption):
    src = (pipe["det"] / "scores.csv" if artifact == "scores"
           else pipe["gated"] / "queue_log.csv")
    lines = CORRUPTIONS[corruption](src.read_text().splitlines())
    # beside the record of the intact file, which binds its bytes
    bad = tmp_path / src.name
    bad.write_text("".join(line + "\n" for line in lines))
    shutil.copy(src.parent / ("detect_manifest.json" if artifact == "scores"
                              else "replay_manifest.json"), tmp_path)
    if artifact == "scores":
        rc = main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
                   "--scores", str(bad), "--out", str(tmp_path / "g")])
    else:
        rc = _report(pipe, tmp_path, gated=bad)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: ValueError: {bad}: sha256 ")


# ---------------------------------------------------------------------------
# the record beside each stage output: one loader for replay and report


def _bad_scores(pipe, tmp_path, case):
    """A copy of the pipeline's detect output, without its stage_stats.json
    (telemetry, which no reader needs), broken as case names. Returns the
    copy's scores and the error that every reader of them must print."""
    det = tmp_path / "det"
    shutil.copytree(pipe["det"], det)
    (det / "stage_stats.json").unlink()
    scores, record = det / "scores.csv", det / "detect_manifest.json"
    intact = _scores_of(pipe)
    n = len(intact)

    def rewrite(table):
        rebind(scores, table, record, "scores_sha256")

    if case == "no detect_manifest.json":
        record.unlink()
        return scores, ("FileNotFoundError: [Errno 2] No such file or "
                        f"directory: '{record}'")
    if case == "rows missing beside their own record":
        rewrite(intact.take(slice(0, n - 100)))
        return scores, (f"ValueError: {scores}: {n - 100} rows, but "
                        f"{record} records n_records = {n}")
    if case == "window at or past the horizon":
        rewrite(_edit_row(intact, 3, window=5000))
        return scores, (f"ValueError: {scores}: line 5: window 5000 is "
                        "outside [0, 120)")
    if case == "flow not in config.json":
        rewrite(_edit_row(intact, 3, flow_id=999))
        return scores, (f"ValueError: {scores}: line 5: flow 999 is not in "
                        "config.json")
    if case == "scores of another detect run":
        # same world, rows, flows and windows; another quantile
        other = tmp_path / "other"
        assert main(["detect", "--world", str(pipe["world"]), "--w-min",
                     "20", "--quantile", "0.9", "--out", str(other)]) == 0
        for name in ("scores.csv", "scores.csv.cols"):
            shutil.copy(other / name, det / name)
        assert scores.read_bytes() != (pipe["det"] / "scores.csv").read_bytes()
        digest = hashlib.sha256(scores.read_bytes()).hexdigest()
        recorded = json.loads(record.read_text())["scores_sha256"]
        return scores, (f"ValueError: {scores}: sha256 {digest} is not the "
                        f"{recorded} that {record} records")
    if case == "burn-in of another split":
        doc = json.loads(record.read_text())
        write_json(record, {**doc, "burn_in_windows": 0})
        return scores, (f"ValueError: {record}: burn_in_windows = 0 is not "
                        "72, the train split of config.json's horizon")
    assert case == "record of another world"
    doc = json.loads(record.read_text())
    write_json(record, {**doc, "world": {**doc["world"], "seed": 6}})
    return scores, (f"ValueError: {record}: world.seed = 6 is not "
                    "manifest.json's seed 5")


def _bad_log(pipe, tmp_path, case):
    """A copy of one of the pipeline's queue logs broken as case names, the
    mode of the log and the error report must print for it."""
    mode = "gated" if case.startswith("log of another gated") else "base"
    copy = tmp_path / mode
    shutil.copytree(pipe[mode], copy)
    log, record = copy / "queue_log.csv", copy / "replay_manifest.json"
    doc = json.loads(record.read_text())
    if case == "queue log without replay_manifest.json":
        record.unlink()
        return mode, log, ("FileNotFoundError: [Errno 2] No such file or "
                           f"directory: '{record}'")
    if case == "replay manifest of other packets":
        write_json(record, {**doc, "packets": doc["packets"] + 1})
        return mode, log, (f"ValueError: {log}: {doc['packets']} rows, but "
                           f"{record} records packets = "
                           f"{doc['packets'] + 1}")
    if case == "queue log edited in place, its rows kept":
        lines = log.read_text().splitlines()
        complete = float(lines[1].split(",")[4])
        log.write_text("".join(line + "\n" for line in _edit_line(
            lines, 0, 4, repr(complete + 1.0))))
    else:  # the same world and packets, gated by other scores
        assert case == "log of another gated replay beside this run's record"
        other = tmp_path / "other"
        assert main(["detect", "--world", str(pipe["world"]), "--w-min",
                     "20", "--quantile", "0.9", "--out", str(other)]) == 0
        assert main(["replay", "--world", str(pipe["world"]), "--mode",
                     "gated", "--scores", str(other / "scores.csv"),
                     "--out", str(other)]) == 0
        for name in ("queue_log.csv", "queue_log.csv.cols"):
            shutil.copy(other / name, copy / name)
    assert log.read_bytes() != (pipe[mode] / "queue_log.csv").read_bytes()
    return mode, log, (f"ValueError: {log}: sha256 {_sha256(log)} is not "
                       f"the {doc['queue_log_sha256']} that {record} "
                       "records")


BAD_SCORES = ["no detect_manifest.json",
              "rows missing beside their own record",
              "window at or past the horizon", "flow not in config.json",
              "record of another world", "burn-in of another split",
              "scores of another detect run"]
BAD_LOGS = ["queue log without replay_manifest.json",
            "replay manifest of other packets",
            "queue log edited in place, its rows kept",
            "log of another gated replay beside this run's record"]


@pytest.mark.parametrize("case", BAD_SCORES + BAD_LOGS)
def test_bad_stage_outputs_are_refused_alike(pipe, tmp_path, capsys, case):
    # every reader of a bad stage output exits 1 with the same error and
    # writes nothing
    if case in BAD_LOGS:
        mode, log, message = _bad_log(pipe, tmp_path, case)
        runs = {"r": lambda: _report(pipe, tmp_path, **{mode: log})}
    else:
        scores, message = _bad_scores(pipe, tmp_path, case)
        runs = {"g": lambda: _gated_with(pipe, tmp_path, scores),
                "r": lambda: _report(pipe, tmp_path, scores=scores)}
    for out, run in runs.items():
        assert run() == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / out).exists()


def _gated_with(pipe, tmp_path, scores):
    return main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
                 "--scores", str(scores), "--out", str(tmp_path / "g")])


# ---------------------------------------------------------------------------
# one read path: every table a stage reads is the twin of a CSV whose sha256
# a record names


# each table of a pipeline, by its file, record, the record's key for its
# sha256, a column whose value can move within the bounds the table keeps,
# and the readers that read it
TABLES = {
    "trace": ("world/trace.csv", "manifest.json", "trace_sha256", 2,
              ("detect", "replay", "load_world")),
    "scores": ("det/scores.csv", "detect_manifest.json", "scores_sha256", 5,
               ("replay", "report")),
    "queue log": ("base/queue_log.csv", "replay_manifest.json",
                  "queue_log_sha256", 4, ("report",)),
}
TABLE_CLASSES = {"trace": Trace, "scores": Scores, "queue log": QueueEventLog}
TABLE_FAULTS = ["CSV edited in place within bounds", "twin missing",
                "twin stale", "twin cut short", "twin of another CSV",
                "twin with an int64 column as float64"]


def _break_table(root, table, fault):
    """Break the table of the pipeline copy at root as fault names, and
    return the refusal that each of its readers must print."""
    rel, record_name, key, column, _ = TABLES[table]
    csv = root / rel
    twin, record = twin_path(csv), csv.parent / record_name
    cls = TABLE_CLASSES[table]
    dtypes = [dtype for *_, dtype in table_columns(cls)]
    if fault == "twin missing":
        twin.unlink()
        return ("FileNotFoundError: [Errno 2] No such file or directory: "
                f"'{twin}'")
    if fault in ("CSV edited in place within bounds", "twin stale"):
        bound = json.loads(record.read_text())[key]
        lines = csv.read_text().splitlines()
        value = lines[1].split(",")[column]
        moved = (repr(float(value) + 1.0) if "." in value
                 else str(int(value) + (1 if int(value) < 1500 else -1)))
        csv.write_text("".join(line + "\n" for line in _edit_line(
            lines, 0, column, moved)))
        if fault == "twin stale":  # the record bound to the edited CSV
            write_json(record, {**json.loads(record.read_text()),
                                key: _sha256(csv)})
            return (f"ValueError: {twin}: holds the sha256 of other bytes "
                    f"than {csv}")
        return (f"ValueError: {csv}: sha256 {_sha256(csv)} is not the "
                f"{bound} that {record} records")
    if fault == "twin cut short":  # the digest and part of a record
        twin.write_bytes(twin.read_bytes()[:42])
    elif fault == "twin of another CSV":
        intact = read_table(cls, csv, recorded(csv), **(
            {"flow_table": {}, "horizon_windows": 1, "window_us": 1}
            if cls is Trace else {}))
        other = csv.with_name("other.csv")
        write_table(other, intact.take(slice(1, None)))
        twin_path(other).replace(twin)
        return f"ValueError: {twin}: holds the sha256 of other bytes than {csv}"
    else:
        digest = hashlib.sha256(csv.read_bytes()).digest()
        cols = twin_columns(csv, dtypes, digest)
        with open(twin, "wb") as fh:
            fh.write(digest)
            for col in [cols[0].astype(np.float64), *cols[1:]]:
                np.save(fh, col)
    return (f"ValueError: {twin}: record 0 is not a 1-D {dtypes[0]} column "
            "of the table's length")


def _read_with(root, tmp_path, capsys, reader, table) -> str:
    """The error with which reader, a command or load_world, refuses the
    pipeline copy at root, as "<type>: <message>"; a command must exit 1,
    print one error: line and write nothing."""
    world = root / "world"
    if reader == "load_world":
        with pytest.raises((ValueError, OSError)) as exc:
            load_world(world)
        return f"{type(exc.value).__name__}: {exc.value}"
    out = tmp_path / "out"
    argv = {
        "detect": ["detect", "--world", str(world)],
        "replay": ["replay", "--world", str(world), "--mode", "base"]
        if table == "trace" else
        ["replay", "--world", str(world), "--mode", "gated",
         "--scores", str(root / "det" / "scores.csv")],
        "report": ["report", "--world", str(world),
                   "--scores", str(root / "det" / "scores.csv"),
                   "--base-log", str(root / "base" / "queue_log.csv"),
                   "--gated-log", str(root / "gated" / "queue_log.csv")],
    }[reader]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    return err[len("error: "):-1]


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("fault", TABLE_FAULTS)
def test_bad_tables_are_refused_by_every_reader(pipe, tmp_path, capsys,
                                                table, fault):
    # no reader parses the text: an edited CSV is refused by its record's
    # digest, and a twin that is not the CSV's by the twin's own check
    root = tmp_path / "copy"
    for stage in ("world", "det", "base", "gated"):
        shutil.copytree(pipe[stage], root / stage)
    message = _break_table(root, table, fault)
    for reader in TABLES[table][4]:
        assert _read_with(root, tmp_path, capsys, reader, table) == message


# ---------------------------------------------------------------------------
# scoring cost: measured by detect, read back by report


def test_detect_writes_stage_stats(pipe):
    doc = json.loads((pipe["det"] / "stage_stats.json").read_text())
    # 6 flows x 120 windows is too short for a warm-up batch of 1000 rows
    # plus one counted batch, so the cost is null
    assert doc == {"scoring": {"rows": 6 * 120, "windows": 120,
                               "mean_us_per_row": None,
                               "p90_us_per_row": None,
                               "max_us_per_row": None}}


def test_detect_times_one_call_per_block(tmp_path, monkeypatch):
    # a 400-window world: detect scores it in blocks of BLOCK_WINDOWS, one
    # timed call each, and stage_stats.json still counts windows, so it
    # reads back against the scores with a cost of the counted blocks
    cfg = json.loads(tiny_config(tmp_path / "config.json").read_text())
    write_json(tmp_path / "config.json", {**cfg, "horizon_windows": 400})
    calls = []
    block = DetectorSession.process_window

    def spy(session, window, x):
        calls.append((window, len(x)))
        return block(session, window, x)

    monkeypatch.setattr(DetectorSession, "process_window", spy)
    world, det = tmp_path / "world", tmp_path / "det"
    assert main(["gen-world", "--config", str(tmp_path / "config.json"),
                 "--out", str(world)]) == 0
    assert main(["detect", "--world", str(world), "--out", str(det)]) == 0
    assert calls == [(w, min(BLOCK_WINDOWS, 400 - w))
                     for w in range(0, 400, BLOCK_WINDOWS)]
    scoring = json.loads((det / "stage_stats.json").read_text())["scoring"]
    assert (scoring["rows"], scoring["windows"]) == (6 * 400, 400)
    scores = read_scores_csv(det / "scores.csv", (
        read_thresholds(det / "detect_manifest.json").scores_sha256,
        "detect_manifest.json"))
    cost = read_stage_stats(det / "stage_stats.json", scores)
    assert cost == (scoring["mean_us_per_row"], scoring["p90_us_per_row"],
                    scoring["max_us_per_row"])
    assert 0.0 < cost[0] <= cost[1] <= cost[2]


def test_report_does_not_rescore(pipe, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("report must not score")
    monkeypatch.setattr("flowgate.cli.DetectorSession", refuse)
    assert _report(pipe, tmp_path) == 0
    doc = json.loads((tmp_path / "r" / "report.json").read_text())
    assert doc["metrics"]["timing_us_per_row"] == {
        "mean": None, "p90": None, "max": None}


def _det_copy(pipe, tmp_path, stage_stats=None):
    """A copy of the pipeline's detect output; stage_stats, when given,
    replaces the stage_stats.json document. Returns the copy's scores."""
    det = tmp_path / "det"
    shutil.copytree(pipe["det"], det)
    if stage_stats is not None:
        (det / "stage_stats.json").write_text(json.dumps(stage_stats))
    return det / "scores.csv"


def _stage_stats(**scoring):
    return {"scoring": {"rows": 720, "windows": 120,
                        "mean_us_per_row": 2.09, "p90_us_per_row": 2.5,
                        "max_us_per_row": 7.125, **scoring}}


def test_report_copies_stage_stats_verbatim(pipe, tmp_path):
    scores = _det_copy(pipe, tmp_path, _stage_stats())
    assert _report(pipe, tmp_path, scores=scores) == 0
    doc = json.loads((tmp_path / "r" / "report.json").read_text())
    assert doc["metrics"]["timing_us_per_row"] == {
        "mean": 2.09, "p90": 2.5, "max": 7.125}


def test_report_without_stage_stats_writes_nulls(pipe, tmp_path):
    scores = _det_copy(pipe, tmp_path)
    (scores.parent / "stage_stats.json").unlink()
    assert _report(pipe, tmp_path, scores=scores) == 0
    doc = json.loads((tmp_path / "r" / "report.json").read_text())
    assert doc["metrics"]["timing_us_per_row"] == {
        "mean": None, "p90": None, "max": None}


@pytest.mark.parametrize("stats, message", [
    (_stage_stats(rows=719), "scoring.rows = 719, but the scores hold 720"),
    (_stage_stats(windows=121), "scoring.windows = 121, but the scores hold "
                                "120"),
    (_stage_stats(mean_us_per_row=math.nan), "scoring.mean_us_per_row = nan"),
    (_stage_stats(mean_us_per_row=-1.0), "scoring.mean_us_per_row = -1.0"),
    (_stage_stats(p90_us_per_row="2.5"), "scoring.p90_us_per_row = '2.5'"),
    (_stage_stats(spans=[]), "unknown key 'scoring.spans'"),
    ({**_stage_stats(), "spans": []}, "unknown key 'spans'"),
    ({}, "missing key 'scoring'"),
], ids=["rows off by one", "windows off by one", "nan mean",
        "negative mean", "string p90", "unknown scoring key",
        "unknown top-level key", "missing scoring"])
def test_bad_stage_stats_are_refused(pipe, tmp_path, capsys, stats, message):
    scores = _det_copy(pipe, tmp_path, stats)
    assert _report(pipe, tmp_path, scores=scores) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: ValueError: {scores.parent / 'stage_stats.json'}: ")
    assert message in err
    assert not (tmp_path / "r" / "report.json").exists()


def _edit_thresholds(doc):
    """Named corruptions of the thresholds in a detect_manifest.json,
    each with the text its refusal must hold."""
    flows = doc["flows"]
    f = sorted(flows, key=int)[0]

    def with_flow(entry):
        return {**doc, "flows": {**flows, f: entry}}

    return {
        "missing key": ({k: v for k, v in doc.items() if k != "quantile"},
                        "missing key 'quantile'"),
        "unknown key": ({**doc, "extra": 1}, "unknown key 'extra'"),
        "removed detector key": (
            {**doc, "detector_params": {**doc.get("detector_params", {}),
                                        "g": 0.0}},
            "unknown key 'detector_params.g'"),
        "quantile 1": ({**doc, "quantile": 1.0}, "quantile = 1.0"),
        "quantile 0": ({**doc, "quantile": 0}, "quantile = 0"),
        "k above m": ({**doc, "k": 9}, "k = 9 and m = 8"),
        "k zero": ({**doc, "k": 0}, "k = 0 and m = 8"),
        "m not an integer": ({**doc, "m": 8.5}, "m = 8.5"),
        "negative burn-in": ({**doc, "burn_in_windows": -1},
                             "burn_in_windows = -1"),
        "fractional burn-in": ({**doc, "burn_in_windows": 7.5},
                               "burn_in_windows = 7.5"),
        "scores digest not hex": ({**doc, "scores_sha256": "scores.csv"},
                                  "scores_sha256 = 'scores.csv' is not a "
                                  "sha256 in hex"),
        "flow key not an integer": (
            {**doc, "flows": {**flows, "x1": flows[f]}},
            "flows key 'x1' is not an integer"),
        "nan detector threshold": (with_flow({**flows[f], "detector": math.nan}),
                                   f"flows.{f}.detector = nan"),
        "infinite baseline threshold": (
            with_flow({**flows[f], "baseline": math.inf}),
            f"flows.{f}.baseline = inf"),
        "threshold key missing": (with_flow({"detector": None}),
                                  f"missing key 'flows.{f}.baseline'"),
        "flow missing": ({**doc, "flows": {k: v for k, v in flows.items()
                                           if k != f}},
                         f"flow {f} of config.json is missing"),
        "extra flow": ({**doc, "flows": {**flows, "999": flows[f]}},
                       "flow 999 is not in config.json"),
    }


# the case names; any document on which every edit runs gives them
THRESHOLD_CORRUPTIONS = sorted(_edit_thresholds({"flows": {"1": {}}}))


@pytest.mark.parametrize("corruption", THRESHOLD_CORRUPTIONS)
def test_corrupt_thresholds_are_refused(pipe, tmp_path, capsys, corruption):
    scores = _det_copy(pipe, tmp_path)
    path = scores.parent / "detect_manifest.json"
    bad, message = _edit_thresholds(json.loads(path.read_text()))[corruption]
    path.write_text(json.dumps(bad))
    assert _report(pipe, tmp_path, scores=scores) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {path}: ")
    assert message in err
    assert not (tmp_path / "r" / "report.json").exists()


# ---------------------------------------------------------------------------
# world JSON artifacts


def _world_copy(pipe, tmp_path):
    world = tmp_path / "world_copy"
    shutil.copytree(pipe["world"], world)
    return world


# every JSON file of a world that is read, and the commands that read it;
# load_world reads them all
WORLD_JSON_READERS = {
    "config.json": ("detect", "replay", "report"),
    "contention.json": ("detect", "replay"),
    "feasibility.json": ("report",),
    "manifest.json": ("detect", "replay", "report"),
}


def _refusal(pipe, tmp_path, capsys, world, reader) -> str:
    """The error with which reader, a command or load_world, refuses the
    world, as "<type>: <message>"; a command must exit 1 with an error:
    line."""
    if reader == "load_world":
        with pytest.raises(ValueError) as exc:
            load_world(world)
        return f"ValueError: {exc.value}"
    rc = {"detect": lambda: main(["detect", "--world", str(world),
                                  "--out", str(tmp_path / "d")]),
          "replay": lambda: main(["replay", "--world", str(world), "--mode",
                                  "base", "--out", str(tmp_path / "b")]),
          "report": lambda: _report(pipe, tmp_path, world=world)}[reader]()
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err[len("error: "):]


@pytest.mark.parametrize("artifact, reader", [
    (artifact, reader) for artifact, readers in WORLD_JSON_READERS.items()
    for reader in (*readers, "load_world")])
def test_truncated_world_json_is_named(pipe, tmp_path, capsys, artifact,
                                       reader):
    world = _world_copy(pipe, tmp_path)
    path = world / artifact
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    assert _refusal(pipe, tmp_path, capsys, world, reader).startswith(
        f"ValueError: {path}: ")


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _edit_config(doc):
    """Named corruptions of a config document, each with the text its
    refusal must hold."""
    e = doc["episodes"][0]
    return {
        "missing key": (_without(doc, "window_us"), "missing key 'window_us'"),
        "unknown key": ({**doc, "extra": 1}, "unknown key 'extra'"),
        "string for an int": ({**doc, "horizon_windows": "120"},
                              "horizon_windows = '120' is not an integer"),
        "bool for an int": ({**doc, "seed": True},
                            "seed = True is not an integer"),
        "missing budgets key": (
            {**doc, "episodes": [{**e, "budgets": _without(e["budgets"],
                                                           "r_min_bytes")}]},
            "missing key 'episodes[0].budgets.r_min_bytes'"),
        "split not summing to 1": (
            {**doc, "split": [0.5, 0.2, 0.2]},
            "split must be three positive fractions summing to 1"),
    }


def _edit_manifest(doc):
    """Named corruptions of a world manifest, as _edit_config's."""
    other = "0" * 64
    return {
        "missing key": (_without(doc, "config_hash"),
                        "missing key 'config_hash'"),
        "unknown key": ({**doc, "extra": 1}, "unknown key 'extra'"),
        "string for an int": ({**doc, "seed": "5"},
                              "seed = '5' is not an integer"),
        "negative split": ({**doc, "split": [2.0, -1, 0]},
                           "split = [2.0, -1.0, 0.0] is not three positive "
                           "fractions summing to 1"),
        "short split": ({**doc, "split": [0.5, 0.5]},
                        "split = [0.5, 0.5] is not a JSON list of 3"),
        "split of another config": (
            {**doc, "split": [0.5, 0.25, 0.25]},
            f"split = [0.5, 0.25, 0.25] is not config.json's split "
            f"{doc['split']}"),
        "hash of another config": (
            {**doc, "config_hash": other},
            f"config_hash {other} is not {doc['config_hash']}, the hash of "
            "config.json"),
        "trace digest not hex": ({**doc, "trace_sha256": "trace.csv"},
                                 "trace_sha256 = 'trace.csv' is not a "
                                 "sha256 in hex"),
    }


def _edit_contention(doc):
    """Named corruptions of a contention graph, as _edit_config's."""
    c = sorted(doc["cliques"], key=int)[0]
    w = doc["cliques"][c]["weights"]

    def with_weights(weights):
        return {**doc, "cliques": {**doc["cliques"], c: {
            **doc["cliques"][c], "weights": weights}}}

    return {
        "missing cliques": (_without(doc, "cliques"),
                            "missing key 'cliques'"),
        "string weight": (with_weights([["x", *w[0][1:]], *w[1:]]),
                          f"cliques.{c}.weights[0][0] = 'x' is not a finite "
                          "number"),
        "ragged block": (with_weights([w[0][:-1], *w[1:]]),
                         f"cliques.{c}.weights is not a {len(w)} x {len(w)} "
                         "block"),
        "stored rho of other blocks": (
            {**doc, "spectral_radius": 99.0},
            "contention.json: spectral_radius = 99.0 is not rho of the "
            "blocks"),
        # the layout whose copy of config.json's band nothing read
        "band of an earlier layout": ({**doc, "rho_band": [0.0, 99.0]},
                                      "unknown key 'rho_band'"),
    }


def _edit_feasibility_i_max(doc):
    """A feasibility document written for another config's i_max, as
    _edit_config's; _edit_feasibility holds the report-only cases."""
    o = doc["outcomes"][0]
    return {"i_max of another config": (
        {"i_max": 99, "outcomes": [{**o, "iterations_used": 50},
                                   *doc["outcomes"][1:]]},
        f"i_max = 99 is not config.json's i_max {doc['i_max']}")}


WORLD_JSON_EDITS = {"config.json": _edit_config,
                    "manifest.json": _edit_manifest,
                    "contention.json": _edit_contention,
                    "feasibility.json": _edit_feasibility_i_max}
# the cases; any document on which every edit runs gives their names
WORLD_JSON_CORRUPTIONS = [
    (artifact, corruption, reader)
    for artifact, dummy in (
        ("config.json", {"episodes": [{"budgets": {}}]}),
        ("manifest.json", {"config_hash": "", "split": []}),
        ("contention.json", {"cliques": {"0": {"weights": [[0.0]]}}}),
        ("feasibility.json", {"i_max": 0, "outcomes": [{}]}))
    for corruption in sorted(WORLD_JSON_EDITS[artifact](dummy))
    for reader in (*WORLD_JSON_READERS[artifact], "load_world")]


@pytest.mark.parametrize("artifact, corruption, reader",
                         WORLD_JSON_CORRUPTIONS)
def test_corrupt_world_json_is_refused(pipe, tmp_path, capsys, artifact,
                                       corruption, reader):
    world = _world_copy(pipe, tmp_path)
    path = world / artifact
    bad, message = WORLD_JSON_EDITS[artifact](
        json.loads(path.read_text()))[corruption]
    path.write_text(json.dumps(bad))
    err = _refusal(pipe, tmp_path, capsys, world, reader)
    assert err.startswith(f"ValueError: {path}: ")
    assert message in err


@pytest.mark.parametrize("reader", ["detect", "replay", "report",
                                    "load_world"])
def test_manifest_of_another_config_is_refused(pipe, tmp_path, capsys,
                                               reader):
    world = _world_copy(pipe, tmp_path)
    recorded = json.loads((world / "manifest.json").read_text())
    doc = json.loads((world / "config.json").read_text())
    doc["world_id"] = "elsewhere"
    (world / "config.json").write_text(json.dumps(doc))
    edited = from_json(WorldConfig, doc, "config.json").hash()
    assert edited != recorded["config_hash"]
    err = _refusal(pipe, tmp_path, capsys, world, reader)
    assert err.startswith(
        f"ValueError: {world / 'manifest.json'}: config_hash "
        f"{recorded['config_hash']} is not {edited}, the hash of config.json")


@pytest.mark.parametrize("command", ["detect"])
@pytest.mark.parametrize("doc, message", [
    ({"alpah": 2}, "unknown key 'alpah'"),
    ({"quantiles": 0.9}, "unknown key 'quantiles'"),
    # the calibration comes from its flags only; k is the surrogate's slope
    ({"quantile": "0.9"}, "unknown key 'quantile'"),
    ({"k": True}, "k = True is not a finite number"),
    ({"m": 4}, "unknown key 'm'"),
    ({"w_min": 20}, "unknown key 'w_min'"),
    # the wrapper the knobs sat under in earlier versions
    ({"detector": {"zeta": 0.5}}, "unknown key 'detector'"),
    ({"tau": True}, "unknown key 'tau'"),
    ({"g": 0.2}, "unknown key 'g'"),
    ({"noise_std": 0.01}, "unknown key 'noise_std'"),
    ([], "the document is not a JSON object"),
], ids=["misspelt detector key", "unknown key",
        "string quantile", "bool k", "m", "w_min", "detector wrapper",
        "bool tau", "coupling gain", "drive noise", "detector not an object"])
def test_bad_params_file_is_refused(pipe, tmp_path, capsys, command, doc,
                                    message):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(doc))
    assert main([command, "--world", str(pipe["world"]),
                 "--out", str(tmp_path / "d"), "--params", str(params)]) == 1
    # refused before any output
    assert capsys.readouterr() == ("", f"error: ValueError: {params}: "
                                   f"{message}\n")
    assert not (tmp_path / "d").exists()


def _gated(pipe, tmp_path, *flags):
    return main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
                 "--scores", str(pipe["det"] / "scores.csv"),
                 "--out", str(tmp_path / "g"), *flags])


def _usage_error(argv, capsys) -> str:
    """The message with which main(argv) exits 2, as argparse prints it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    return err.splitlines()[-1].split("error: ", 1)[1]


@pytest.mark.parametrize("command", ["detect"])
@pytest.mark.parametrize("detector, message", [
    ({"dt": 0}, "dt = 0.0 is not positive"),
    ({"lam": -1}, "lam = -1.0 is negative"),
    ({"a": 0, "mu": 0}, "a = 0.0 and mu = 0.0 break a + mu > 0"),
    ({"v_rest": 10.0}, "v_rest = 10.0 and v_max = 10.0 "
                       "break 0 <= v_rest < v_max"),
], ids=["dt", "negative lam", "a and mu", "v_rest"])
def test_bad_detector_knobs_are_refused_before_any_work(tmp_path, capsys,
                                                        command, detector,
                                                        message):
    # as Calibration.check's refusals: exit 2, naming the key and the
    # --params file, before detect opens the world (here there is none)
    params = tmp_path / "params.json"
    params.write_text(json.dumps(detector))
    assert _usage_error([command, "--world", str(tmp_path / "no_world"),
                         "--out", str(tmp_path / "d"),
                         "--params", str(params)], capsys) == (
        f"{params}: {message}")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flags, message", [
    (["--t-g", "-1"], "--t-g: t_g_s = -1.0 is not finite and nonnegative"),
    (["--omega-0", "inf"],
     "the default and --omega-0: omega_minus = 0.05 and omega_0 = inf break "
     "0 < omega_minus < omega_0 < inf"),
    (["--omega-minus", "2", "--omega-0", "1.5"],
     "--omega-minus and --omega-0: omega_minus = 2.0 and omega_0 = 1.5 "
     "break 0 < omega_minus < omega_0 < inf"),
    (["--omega-0", "0.01"],
     "the default and --omega-0: omega_minus = 0.05 and omega_0 = 0.01 "
     "break 0 < omega_minus < omega_0 < inf"),
    # from 2**53 microseconds on, a double does not hold every whole
    # microsecond, so a release instant would not be exact
    (["--t-g", "1e308"], "--t-g: t_g_s = 1e+308 reaches 2**53 microseconds"),
    (["--t-g", "9007199254.740992"],
     "--t-g: t_g_s = 9007199254.740992 reaches 2**53 microseconds"),
], ids=["hold flag", "weight flag", "both weight flags",
        "flag against default", "hold past 2**53 us", "hold of 2**53 us"])
def test_bad_gate_knobs_are_refused_before_any_work(tmp_path, capsys, flags,
                                                    message):
    # exit 2, naming the keys and the flag or default each came from, before
    # replay opens the world or the scores (here there are none)
    out = tmp_path / "g"
    assert _usage_error([
        "replay", "--world", str(tmp_path / "no_world"), "--mode", "gated",
        "--scores", str(tmp_path / "no_scores.csv"), "--out", str(out),
        *flags], capsys) == message
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_long_hold_below_2_53_us_replays(pipe, tmp_path):
    # 1e9 s is 10**15 us: every release instant is exact
    assert _gated(pipe, tmp_path, "--t-g", "1e9") == 0
    from_us = [int(line.split(",")[1]) for line in (
        tmp_path / "g" / "schedule.csv").read_text().splitlines()[1:]]
    assert min(from_us) == 0 and 10**15 <= max(from_us) < 2**53


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tags_past_the_largest_double_are_an_error(pipe, tmp_path, capsys):
    # a weight so small that len / (weight * capacity) overflows would make
    # every gated tag inf and the gate a FIFO
    assert _gated(pipe, tmp_path, "--omega-minus", "1e-320") == 1
    err = capsys.readouterr().err
    assert err == ("error: ValueError: flow 3 at weight 1e-320 gives tag "
                   "increments whose sum is not finite\n")
    assert not (tmp_path / "g" / "queue_log.csv").exists()
    assert not (tmp_path / "g" / "replay_manifest.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_service_times_past_the_largest_double_are_an_error(tmp_path,
                                                             capsys):
    cfg = tiny_config(tmp_path / "config.json")
    doc = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({**doc, "capacity_bps": 1e-300}))
    assert main(["gen-world", "--config", str(cfg),
                 "--out", str(tmp_path / "w")]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {cfg}: capacity_bps = 1e-300 gives service "
        "times whose sum is not finite\n")
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("flags, named", [
    (["--scores", "SCORES"], "--scores"),
    (["--omega-0", "2"], "--omega-0"),
    (["--omega-minus", "0.1"], "--omega-minus"),
    (["--t-g", "5"], "--t-g"),
    (["--scores", "no_scores.csv", "--t-g", "-5"], "--scores, --t-g"),
], ids=["scores", "omega_0", "omega_minus", "hold",
        "missing scores and a bad hold"])
def test_base_replay_refuses_the_gate_flags(pipe, tmp_path, capsys, flags,
                                            named):
    # as gated mode refuses a missing --scores: a flag base mode would not
    # read is refused, not ignored
    flags = [str(pipe["det"] / "scores.csv") if f == "SCORES" else f
             for f in flags]
    out = tmp_path / "b"
    assert _usage_error(["replay", "--world", str(pipe["world"]), "--mode",
                         "base", "--out", str(out), *flags], capsys) == (
        f"--mode=base reads no {named}")
    assert not out.exists()


def test_gate_config_precedence_flag_default(pipe, tmp_path, capsys):
    assert _gated(pipe, tmp_path, "--omega-minus", "0.1") == 0
    out = capsys.readouterr().out
    assert "omega_0=1.0\n" in out and "omega_minus=0.1\n" in out
    doc = json.loads((tmp_path / "g" / "replay_manifest.json").read_text())
    assert doc["gate"] == {"omega_0": 1.0, "omega_minus": 0.1, "t_g_s": 30.0}
    assert _gated(pipe, tmp_path) == 0
    assert "omega_minus=0.05\n" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["base", "gated"])
def test_replay_has_no_gate_config(pipe, tmp_path, capsys, mode):
    # the gate's knobs come from their flags only
    gate = tmp_path / "g.json"
    gate.write_text(json.dumps({"omega_minus": 0.1}))
    out = tmp_path / "r"
    scores = ["--scores", str(pipe["det"] / "scores.csv")] * (mode == "gated")
    assert _usage_error([
        "replay", "--world", str(pipe["world"]), "--mode", mode, *scores,
        "--gate-config", str(gate), "--out", str(out)], capsys) == (
        f"unrecognized arguments: --gate-config {gate}")
    assert not out.exists()


def _edit_feasibility(doc):
    """Named corruptions of a feasibility document, each with the text its
    refusal must hold."""
    o = doc["outcomes"][0]
    i_max = doc["i_max"]

    def with_outcome(**entry):
        return {**doc, "outcomes": [{**o, **entry}, *doc["outcomes"][1:]]}

    return {
        "missing key": ({"outcomes": doc["outcomes"]}, "missing key 'i_max'"),
        "unknown key": ({**doc, "extra": 1}, "unknown key 'extra'"),
        "negative i_max": ({**doc, "i_max": -1}, "i_max = -1"),
        "outcomes not a list": ({**doc, "outcomes": {}},
                                "outcomes is not a JSON list"),
        "missing outcome key": (
            {**doc, "outcomes": [{k: v for k, v in o.items()
                                  if k != "feasible"}]},
            "missing key 'outcomes[0].feasible'"),
        "unknown outcome key": (with_outcome(extra=1),
                                "unknown key 'outcomes[0].extra'"),
        "missing budgets key": (
            with_outcome(budgets={k: v for k, v in o["budgets"].items()
                                  if k != "epsilon_s"}),
            "missing key 'outcomes[0].budgets.epsilon_s'"),
        "unknown budgets key": (
            with_outcome(budgets={**o["budgets"], "extra": 1}),
            "unknown key 'outcomes[0].budgets.extra'"),
        "fractional flow id": (with_outcome(flow_id=o["flow_id"] + 0.5),
                               f"outcomes[0].flow_id = {o['flow_id']}.5"),
        "string flow id": (with_outcome(flow_id=str(o["flow_id"])),
                           f"outcomes[0].flow_id = '{o['flow_id']}'"),
        "feasible not a bool": (with_outcome(feasible=1),
                                "outcomes[0].feasible = 1"),
        "negative iterations": (with_outcome(iterations_used=-1),
                                "outcomes[0].iterations_used = -1"),
        "iterations above i_max": (
            with_outcome(iterations_used=i_max + 1),
            f"outcomes[0].iterations_used = {i_max + 1}"),
        "nan distortion": (with_outcome(final_distortion=math.nan),
                           "outcomes[0].final_distortion = nan"),
        "negative distortion": (with_outcome(final_distortion=-0.5),
                                "outcomes[0].final_distortion = -0.5"),
        "infinite delay delta": (with_outcome(final_delay_delta=math.inf),
                                 "outcomes[0].final_delay_delta = inf"),
        "string delay delta": (with_outcome(final_delay_delta="0"),
                               "outcomes[0].final_delay_delta = '0'"),
        "outcome for an unlabelled flow": (
            {**doc, "outcomes": [*doc["outcomes"], {**o, "flow_id": 999}]},
            "are not the episodes"),
        "labelled flow without an outcome": ({**doc, "outcomes": []},
                                             "are not the episodes"),
    }


# the case names; any document on which every edit runs gives them
FEASIBILITY_CORRUPTIONS = sorted(_edit_feasibility(
    {"i_max": 0, "outcomes": [{"flow_id": 0, "budgets": {}}]}))


@pytest.mark.parametrize("corruption", FEASIBILITY_CORRUPTIONS)
def test_corrupt_feasibility_is_refused(pipe, tmp_path, capsys, corruption):
    world = _world_copy(pipe, tmp_path)
    path = world / "feasibility.json"
    bad, message = _edit_feasibility(json.loads(path.read_text()))[corruption]
    path.write_text(json.dumps(bad))
    assert _report(pipe, tmp_path, world=world) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {path}: ")
    assert message in err
    assert not (tmp_path / "r" / "report.json").exists()


# ---------------------------------------------------------------------------
# causality: a window's scores never depend on later windows


def _score_trace(trace, graph, burn_in):
    table = windowize(trace, graph)
    session = DetectorSession(
        DetectorParams(), table.flow_ids,
        [trace.flow_table[f].device_class for f in table.flow_ids],
        burn_in, Calibration(w_min=20))
    return session.process_window(0, table.x)


@pytest.mark.parametrize("cut", [50, 100])  # before and after burn-in (72)
def test_scores_before_a_cut_ignore_the_rest_of_the_trace(pipe, cut):
    world = pipe["world"]
    config = from_json(WorldConfig, json.loads((world / "config.json")
                                               .read_text()), "config.json")
    trace = read_trace_csv(world / "trace.csv", recorded(world / "trace.csv"),
                           flow_table(config), config.horizon_windows,
                           config.window_us)
    graph = ContentionGraph.from_dict(json.loads((world / "contention.json")
                                                 .read_text()))
    burn_in = json.loads((pipe["det"] / "detect_manifest.json")
                         .read_text())["burn_in_windows"]
    keep = trace.ts_us < cut * config.window_us
    cut_trace = Trace(trace.ts_us[keep], trace.flow_id[keep],
                      trace.len_bytes[keep], trace.clique_id[keep],
                      trace.flow_table, cut, config.window_us)
    whole = _score_trace(trace, graph, burn_in)
    part = _score_trace(cut_trace, graph, burn_in)
    head = whole.window < cut
    assert len(part) == int(head.sum()) > 0
    if cut > burn_in:
        assert part.a.any()  # the cut keeps windows that were rated
    for name in ("flow_id", "window", "E", "S", "v", "u", "s", "a", "z"):
        assert (getattr(part, name).tobytes()
                == getattr(whole, name)[head].tobytes()), name
