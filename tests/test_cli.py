"""End-to-end checks for the flowgate command line.

The pipeline fixture runs gen-world, detect, both replays, and report once
into a shared directory; the cheaper contract tests (exit codes, precedence,
determinism, label blindness) drive main() directly.
"""

import json
import math
import shutil
from pathlib import Path

import pytest

from flowgate.cli import main
from flowgate.detector import read_thresholds
from flowgate.trace import Budgets
from flowgate.wfq import read_queue_log
from flowgate.worlds import BenignFlowSpec, EpisodeSpec, WorldConfig


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
    cfg.to_json(path)
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
                 "--bench-rows", "4000", "--out", str(rep)]) == 0
    return {"root": root, "cfg": cfg, "world": world, "det": det,
            "base": base, "gated": gated, "rep": rep}


def test_pipeline_writes_expected_artifacts(pipe):
    for name in ("trace.csv", "flows.csv", "labels.csv", "manifest.json",
                 "config.json", "contention.json", "feasibility.json",
                 "references.json"):
        assert (pipe["world"] / name).exists(), name
    for name in ("scores.csv", "thresholds.json", "detect_manifest.json"):
        assert (pipe["det"] / name).exists(), name
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
    th = read_thresholds(pipe["det"] / "thresholds.json")
    assert th["quantile"] == 0.99 and th["k"] == 3 and th["m"] == 8


def test_gen_world_deterministic_across_runs(pipe, tmp_path):
    out2 = tmp_path / "world2"
    assert main(["gen-world", "--config", str(pipe["cfg"]),
                 "--out", str(out2)]) == 0
    for name in ("trace.csv", "labels.csv", "flows.csv", "contention.json"):
        assert (out2 / name).read_bytes() == (pipe["world"] / name).read_bytes()


def test_detect_ignores_labels_file(pipe, tmp_path):
    blind = tmp_path / "world_blind"
    shutil.copytree(pipe["world"], blind)
    (blind / "labels.csv").unlink()
    out = tmp_path / "det_blind"
    assert main(["detect", "--world", str(blind), "--w-min", "20",
                 "--out", str(out)]) == 0
    assert (out / "scores.csv").read_bytes() == \
        (pipe["det"] / "scores.csv").read_bytes()


def test_detect_seed_is_inert_without_noise(pipe, tmp_path):
    out = tmp_path / "det_seeded"
    assert main(["detect", "--world", str(pipe["world"]), "--seed", "99",
                 "--w-min", "20", "--out", str(out)]) == 0
    assert (out / "scores.csv").read_bytes() == \
        (pipe["det"] / "scores.csv").read_bytes()


def _rewrite_scores(pipe, tmp_path, name, edit):
    """A copy of the pipeline's scores.csv with edit applied to its lines."""
    lines = (pipe["det"] / "scores.csv").read_text().splitlines()
    path = tmp_path / name
    path.write_text("\n".join(edit(lines)) + "\n")
    return path


def test_gated_replay_with_no_actionable_matches_base(pipe, tmp_path):
    def quiet(lines):
        rows = [ln.split(",") for ln in lines[1:]]
        return lines[:1] + [",".join(r[:8] + ["0"] + r[9:]) for r in rows]
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


def test_detect_rejects_bad_quantile(pipe, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--world", str(pipe["world"]), "--quantile", "1.5",
              "--out", str(tmp_path / "d")])
    assert exc.value.code == 2


def test_detect_rejects_k_above_m(pipe, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--world", str(pipe["world"]), "--k", "9", "--m", "8",
              "--out", str(tmp_path / "d")])
    assert exc.value.code == 2


def test_bench_rejects_small_row_count():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--rows", "5000"])
    assert exc.value.code == 2


def test_missing_config_is_runtime_error(tmp_path):
    assert main(["gen-world", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "w")]) == 1


def test_corrupt_world_is_runtime_error(pipe, tmp_path):
    broken = tmp_path / "world_broken"
    shutil.copytree(pipe["world"], broken)
    (broken / "trace.csv").write_text("flow_id,ts_us\n1,notanumber\n")
    assert main(["detect", "--world", str(broken),
                 "--out", str(tmp_path / "d")]) == 1


def tampered_world(pipe, tmp_path, column: int, value: int):
    """A copy of the pipeline's world with one field of the first packet in
    trace.csv replaced; returns the copy and that packet's flow id."""
    broken = tmp_path / "world_tampered"
    shutil.copytree(pipe["world"], broken)
    lines = (broken / "trace.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = str(value)
    lines[1] = ",".join(cells)
    (broken / "trace.csv").write_text("\n".join(lines) + "\n")
    return broken, int(cells[1])


def test_unknown_flow_in_trace_is_named(pipe, tmp_path, capsys):
    broken, _ = tampered_world(pipe, tmp_path, 1, 999)
    assert main(["detect", "--world", str(broken),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "trace.csv" in err and "flow 999" in err


def test_clique_tag_disagreeing_with_graph_is_refused(pipe, tmp_path, capsys):
    broken, flow = tampered_world(pipe, tmp_path, 3, 7)
    assert main(["replay", "--world", str(broken), "--mode", "base",
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "trace.csv" in err and f"flow {flow} " in err and "clique 7" in err


def test_unsorted_trace_is_refused(pipe, tmp_path, capsys):
    broken = tmp_path / "world_unsorted"
    shutil.copytree(pipe["world"], broken)
    lines = (broken / "trace.csv").read_text().splitlines()
    ts = [int(line.split(",")[0]) for line in lines[1:]]
    k = next(i for i in range(1, len(ts)) if ts[i] > ts[i - 1])
    lines[k], lines[k + 1] = lines[k + 1], lines[k]  # packets k-1 and k
    (broken / "trace.csv").write_text("\n".join(lines) + "\n")
    for argv in (["replay", "--mode", "base", "--out", str(tmp_path / "r")],
                 ["detect", "--out", str(tmp_path / "d")]):
        assert main([*argv, "--world", str(broken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"trace.csv: packet {k} at ts {ts[k - 1]} precedes" in err


def test_trace_with_reordered_header_is_refused(pipe, tmp_path, capsys):
    broken = tmp_path / "world_reordered"
    shutil.copytree(pipe["world"], broken)
    lines = (broken / "trace.csv").read_text().splitlines()
    lines[0] = "len_bytes,clique_id,ts_us,flow_id"
    (broken / "trace.csv").write_text("\n".join(lines) + "\n")
    assert main(["replay", "--world", str(broken), "--mode", "base",
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {broken / 'trace.csv'}: "
                          "line 1: header 'len_bytes,clique_id,ts_us,flow_id'")


def test_packet_length_outside_bounds_is_refused(pipe, tmp_path, capsys):
    broken, flow = tampered_world(pipe, tmp_path, 2, 1501)
    assert main(["replay", "--world", str(broken), "--mode", "base",
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (f"trace.csv: packet 0 of flow {flow} has 1501 bytes, outside "
            "[64, 1500]") in err


def test_scores_with_reordered_header_are_refused(pipe, tmp_path, capsys):
    def reorder(lines):
        return [lines[0].replace("E,S,v,u", "E,v,S,u")] + lines[1:]
    scores = _rewrite_scores(pipe, tmp_path, "reordered.csv", reorder)
    for argv in (["replay", "--world", str(pipe["world"]), "--mode", "gated",
                  "--scores", str(scores), "--out", str(tmp_path / "g")],
                 ["report", "--world", str(pipe["world"]),
                  "--scores", str(scores),
                  "--thresholds", str(pipe["det"] / "thresholds.json"),
                  "--base-log", str(pipe["base"] / "queue_log.csv"),
                  "--gated-log", str(pipe["gated"] / "queue_log.csv"),
                  "--bench-rows", "4000", "--out", str(tmp_path / "r")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ")
        assert f"{scores}: line 1: header" in err
    assert not (tmp_path / "g" / "queue_log.csv").exists()
    assert not (tmp_path / "r" / "report.json").exists()


def test_scores_with_a_short_row_are_refused(pipe, tmp_path, capsys):
    def truncate(lines):
        return lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:]
    scores = _rewrite_scores(pipe, tmp_path, "short.csv", truncate)
    assert main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
                 "--scores", str(scores), "--out", str(tmp_path / "g")]) == 1
    assert f"{scores}: line 6: 9 fields, expected 10" in capsys.readouterr().err


def test_quantile_precedence_flag_file_default(pipe, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"quantile": 0.95}))

    assert main(["detect", "--world", str(pipe["world"]), "--params",
                 str(params), "--quantile", "0.9",
                 "--out", str(tmp_path / "d1")]) == 0
    assert "quantile=0.9\n" in capsys.readouterr().out

    assert main(["detect", "--world", str(pipe["world"]), "--params",
                 str(params), "--out", str(tmp_path / "d2")]) == 0
    assert "quantile=0.95\n" in capsys.readouterr().out

    assert main(["detect", "--world", str(pipe["world"]),
                 "--out", str(tmp_path / "d3")]) == 0
    assert "quantile=0.99\n" in capsys.readouterr().out


def test_base_and_gated_logs_align_with_trace_order(pipe):
    base = read_queue_log(pipe["base"] / "queue_log.csv")
    gated = read_queue_log(pipe["gated"] / "queue_log.csv")
    assert base.n == gated.n
    assert (base.enqueue_us == gated.enqueue_us).all()
    assert (base.flow_id == gated.flow_id).all()
    assert (base.dequeue_us >= base.enqueue_us).all()
    assert (base.complete_us > base.dequeue_us).all()


def _edit_row(lines, k, column, value):
    """lines with field `column` of data row k (line k + 1) set to value."""
    cells = lines[k + 1].split(",")
    cells[column] = str(value)
    return lines[:k + 1] + [",".join(cells)] + lines[k + 2:]


@pytest.mark.parametrize("column, value, message", [
    (1, 120, "window 120 is outside [0, 120)"),
    (1, -1, "window = -1 is not a nonnegative integer"),
    (0, 999, "flow 999 is not in flows.csv"),
])
def test_gated_replay_refuses_rows_outside_the_world(pipe, tmp_path, capsys,
                                                     column, value, message):
    # an actionable row at window 120 of a 120-window world, at window -1,
    # or of a flow the world does not have
    scores = _rewrite_scores(pipe, tmp_path, "outside.csv", lambda lines:
                             _edit_row(_edit_row(lines, 3, 8, 1), 3, column,
                                       value))
    out = tmp_path / "g"
    assert main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
                 "--scores", str(scores), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {scores}: ")
    assert message in err
    assert not (out / "schedule.csv").exists()


def test_trace_packet_at_the_horizon_is_refused(pipe, tmp_path, capsys):
    broken = tmp_path / "world_late"
    shutil.copytree(pipe["world"], broken)
    lines = (broken / "trace.csv").read_text().splitlines()
    cells = lines[-1].split(",")
    cells[0] = str(120 * 250_000)
    lines[-1] = ",".join(cells)
    (broken / "trace.csv").write_text("\n".join(lines) + "\n")
    assert main(["detect", "--world", str(broken),
                 "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (f"trace.csv: packet {len(lines) - 2} of flow {cells[1]} at ts "
            "30000000 is outside [0, 30000000)") in err


def _report(pipe, tmp_path, base=None, gated=None):
    """report on the pipeline's artifacts, with either queue log replaced."""
    return main(["report", "--world", str(pipe["world"]),
                 "--scores", str(pipe["det"] / "scores.csv"),
                 "--base-log", str(base or pipe["base"] / "queue_log.csv"),
                 "--gated-log", str(gated or pipe["gated"] / "queue_log.csv"),
                 "--bench-rows", "4000", "--out", str(tmp_path / "r")])


def test_report_refuses_scores_passed_as_a_queue_log(pipe, tmp_path, capsys):
    scores = pipe["det"] / "scores.csv"
    assert _report(pipe, tmp_path, base=scores) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {scores}: line 1: header")
    assert not (tmp_path / "r" / "report.json").exists()


CORRUPTIONS = {
    "truncated last line": lambda lines: lines[:-1] + [lines[-1][:len(
        lines[-1]) // 2]],
    "nan field": lambda lines: _edit_row(lines, 2, 3, "nan"),
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
    bad = tmp_path / src.name
    bad.write_text("".join(line + "\n" for line in lines))
    if artifact == "scores":
        rc = main(["replay", "--world", str(pipe["world"]), "--mode", "gated",
                   "--scores", str(bad), "--out", str(tmp_path / "g")])
    else:
        rc = _report(pipe, tmp_path, gated=bad)
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: ValueError: {bad}: ")
