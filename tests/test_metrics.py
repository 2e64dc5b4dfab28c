"""Tests for reported metrics: rates, delays, tails, and scoring cost."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate.detector import (
    BLOCK_WINDOWS,
    Calibration,
    DetectorParams,
    DetectManifest,
    DetectorSession,
    FlowThresholds,
    Scores,
    calibrate_threshold,
)
from flowgate.metrics import (
    MetricsReport,
    achieved_fpr,
    bench_scoring,
    compute_report,
    feasibility_rate,
    incident_recall,
    read_stage_stats,
    scoring_cost,
    time_to_detect,
    write_episode_table,
    write_report,
    write_stage_stats,
)
from flowgate.trace import (
    BENIGN,
    Budgets,
    EpisodeLabel,
    FlowInfo,
    RunManifest,
    Trace,
    to_json,
)
from flowgate.wfq import replay
from flowgate.worlds import FeasibilityOutcome
from support import queue_impact, synthetic_feature_stream


def rec(flow_id, window, a=False, z=False):
    """A one-row Scores table."""
    s = 1.0 if a else 0.1
    return Scores([flow_id], [window], [0.0], [0.0], [0.0], [0.0], [s], [a],
                  [z], [0.0])


def table(rows):
    return Scores.concat(rows)


def episode(flow_id, start, end, feasible=True):
    return EpisodeLabel(flow_id, start, end, "exfiltration",
                        Budgets(0, math.inf, math.inf), feasible)


def detect_record(flows) -> DetectManifest:
    """A detect run's record with these thresholds, of no world."""
    return DetectManifest(
        quantile=0.99, k=3, m=8, w_min=5, world=RunManifest(1, "h"),
        detector_params=DetectorParams(), scores_sha256="0" * 64,
        flows=flows)


RECORD = detect_record({1: FlowThresholds(0.5, 0.5),
                        2: FlowThresholds(0.5, 0.5),
                        3: FlowThresholds(math.nan, math.nan)})
BURN_IN = 10  # RECORD's run calibrated on windows [0, 10)


# ---------------------------------------------------------------------------
# achieved_fpr


def test_fpr_counts_test_pairs_only():
    scores = table([
        rec(1, 0, a=True),            # burn-in, ignored
        rec(1, 10, a=True, z=True),   # counted
        rec(1, 11), rec(1, 12), rec(1, 13),
        rec(2, 10), rec(2, 11),       # counted, clean
        rec(3, 10, a=True),           # no threshold, ignored
        rec(9, 10, a=True, z=True),   # malicious, ignored
    ])
    labels = [episode(9, 5, 20)]
    alarm, actionable = achieved_fpr(scores, labels, RECORD, BURN_IN)
    assert alarm == pytest.approx(1 / 6)
    assert actionable == pytest.approx(1 / 6)


def test_fpr_no_alarms_is_zero():
    scores = table(rec(1, w) for w in range(10, 20))
    assert achieved_fpr(scores, [], RECORD, BURN_IN) == (0.0, 0.0)


def test_fpr_all_alarmed_is_one():
    scores = table(rec(1, w, a=True) for w in range(10, 20))
    alarm, actionable = achieved_fpr(scores, [], RECORD, BURN_IN)
    assert alarm == 1.0 and actionable == 0.0


def test_fpr_zero_eligible_raises():
    with pytest.raises(ValueError):
        achieved_fpr(rec(3, 10), [], RECORD, BURN_IN)
    with pytest.raises(ValueError):
        achieved_fpr(rec(1, 5), [], RECORD, BURN_IN)


def test_fpr_iid_scores_match_quantile():
    rng = np.random.default_rng(42)
    q = 0.99
    burn = rng.standard_normal(10_000)
    test = rng.standard_normal(10_000)
    th = calibrate_threshold(burn.tolist(), q)
    n = test.size
    zero = np.zeros(n)
    scores = Scores(np.ones(n), 10_000 + np.arange(n), zero, zero, zero,
                     zero, test, test >= th, np.zeros(n, dtype=bool), zero)
    alarm, _ = achieved_fpr(scores, [], detect_record(
        {1: FlowThresholds(th, th)}), 10_000)
    assert abs(alarm - 0.01) < 0.005


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.5, 0.999))
def test_fpr_burn_in_order_statistic_bound(seed, q):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    scores = rng.standard_normal(n)  # continuous, ties negligible
    th = calibrate_threshold(scores.tolist(), q)
    frac = float(np.mean(scores >= th))
    assert frac <= 1.0 - q + 1.0 / n + 1e-12


# ---------------------------------------------------------------------------
# recall and time-to-detect


def recall(scores, episodes, grace_windows=8):
    return incident_recall(time_to_detect(scores, episodes, grace_windows,
                                          0.25))


def test_recall_two_of_three():
    scores = table([rec(1, 12, z=True), rec(2, 30, z=True), rec(3, 50)])
    eps = [episode(1, 10, 20), episode(2, 25, 35), episode(3, 45, 55)]
    assert recall(scores, eps) == pytest.approx(2 / 3)


def test_recall_grace_boundary():
    scores = rec(1, 21, z=True)
    eps = [episode(1, 10, 20)]
    assert recall(scores, eps, grace_windows=0) == 0.0
    assert recall(scores, eps, grace_windows=1) == 1.0


def test_recall_twenty_of_twentyone():
    scores = table(rec(f, 5, z=True) for f in range(20))
    eps = [episode(f, 0, 10) for f in range(21)]
    assert round(recall(scores, eps), 3) == 0.952


def test_recall_empty_episodes_raises():
    with pytest.raises(ValueError):
        incident_recall([])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_recall_monotone_in_grace(seed):
    rng = np.random.default_rng(seed)
    scores = table(rec(int(f), int(w), z=bool(rng.integers(0, 2)))
                    for f in range(1, 4) for w in range(0, 40))
    eps = [episode(1, 5, 10), episode(2, 12, 20), episode(3, 25, 30)]
    rates = [recall(scores, eps, g) for g in range(0, 12, 2)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_ttd_first_window_zero():
    scores = rec(1, 10, z=True)
    assert time_to_detect(scores, [episode(1, 10, 20)], 8, 0.25) == [0.0]


def test_ttd_four_windows_quarter_second():
    scores = table([rec(1, 14, z=True), rec(1, 15, z=True)])
    assert time_to_detect(scores, [episode(1, 10, 20)], 8,
                          0.25) == [pytest.approx(1.0)]


def test_ttd_undetected_none():
    assert time_to_detect(rec(1, 50, z=True), [episode(1, 10, 20)], 8,
                          0.25) == [None]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_ttd_never_negative(seed):
    rng = np.random.default_rng(seed)
    scores = table(rec(1, int(w), z=bool(rng.integers(0, 2)))
                    for w in range(50))
    ep = episode(1, int(rng.integers(0, 30)), int(rng.integers(30, 45)))
    [t] = time_to_detect(scores, [ep], int(rng.integers(0, 10)), 0.25)
    assert t is None or t >= 0.0


# ---------------------------------------------------------------------------
# queue impact


def _tiny_log(capacity):
    ft = {1: FlowInfo(None, "bulk", BENIGN)}
    ts = np.arange(50, dtype=np.int64) * 100
    trace = Trace(ts, np.full(50, 1, np.int64), np.full(50, 600, np.int64),
                  np.zeros(50, np.int64), ft, 10, 250_000)
    return replay(trace, capacity)


def _deltas(base, gated):
    """The report's two p99.9 deltas, which it derives from its tails: the
    same numbers as each percentile sorted again."""
    rep = compute_report(table(rec(1, w) for w in range(10, 20)), [], [],
                         RECORD, BURN_IN, [], base, gated)
    deltas = (rep.delta_p999_delay_ms, rep.delta_p999_collateral_ms)
    assert deltas == queue_impact(base, gated)
    return deltas


def test_queue_impact_identical_logs_zero():
    log = _tiny_log(1e6)
    assert _deltas(log, log) == (0.0, 0.0)


def test_queue_impact_reduced_delays_negative():
    base = _tiny_log(1e6)
    better = _tiny_log(2e6)
    d, c = _deltas(base, better)
    assert d < 0.0 and c < 0.0


# ---------------------------------------------------------------------------
# scoring cost


def _bench(n_rows):
    flows, buckets, stream = synthetic_feature_stream(n_rows)
    return bench_scoring(
        DetectorSession(DetectorParams(), flows, buckets, 40,
                        Calibration(w_min=10)), stream)


def test_bench_ordering_and_positive():
    mean, p90, mx = _bench(6000)
    assert 0.0 < mean <= p90 <= mx


def test_bench_too_short_raises():
    with pytest.raises(ValueError):
        _bench(500)


def test_scoring_cost_batches_drop_warm_up_and_take_nearest_rank(
        monkeypatch):
    # calls of 600 + 600 rows fill the warm-up batch; then two batches of
    # 1000 rows; the trailing 400 rows are a partial batch and dropped
    cost = scoring_cost([0.25, 0.5, 0.001, 0.001, 0.003, 0.0005],
                        [600, 600, 500, 500, 1000, 400])
    assert cost == ((0.002 + 0.003) / 2000 * 1e6,
                    0.003 / 1000 * 1e6, 0.003 / 1000 * 1e6)
    # ten counted batches: p90 is the 9th smallest, not the max
    seconds = [1.0] + [k * 1e-3 for k in range(1, 11)]
    mean, p90, mx = scoring_cost(seconds, [1000] * 11)
    assert mean == sum(seconds[1:]) / 10_000 * 1e6
    assert p90 == seconds[9] / 1000 * 1e6
    assert mx == seconds[10] / 1000 * 1e6
    monkeypatch.setattr("flowgate.metrics.WARMUP_BATCHES", 0)
    assert scoring_cost(seconds, [1000] * 11)[2] == 1.0 / 1000 * 1e6


def test_scoring_cost_of_a_short_run_is_none():
    assert scoring_cost([], []) is None
    assert scoring_cost([0.1, 0.1], [600, 600]) is None
    assert scoring_cost([0.1] * 3, [600] * 3) is None  # 600 rows left over
    assert scoring_cost([0.1] * 4, [600] * 4) is not None


def test_stage_stats_round_trip(tmp_path):
    seconds = [1e-4 * (1 + w % 7) for w in range(100)]
    rows = [46] * 100
    write_stage_stats(tmp_path / "stage_stats.json", seconds, rows, 100)
    doc = json.loads((tmp_path / "stage_stats.json").read_text())
    cost = scoring_cost(seconds, rows)
    assert doc == {"scoring": {"rows": 4600, "windows": 100,
                               "mean_us_per_row": cost[0],
                               "p90_us_per_row": cost[1],
                               "max_us_per_row": cost[2]}}
    window = np.repeat(np.arange(100), 46)
    scores = Scores(np.tile(np.arange(46), 100), window,
                    *([np.zeros(4600)] * 5), window < 0, window < 0,
                    np.zeros(4600))
    assert read_stage_stats(tmp_path / "stage_stats.json", scores) == cost
    assert all(map(math.isnan, read_stage_stats(tmp_path / "absent.json",
                                                scores)))


def test_synthetic_stream_shape():
    rows = 0
    # 1234 rows of 7 flows are 177 windows, in blocks of BLOCK_WINDOWS
    flows, buckets, stream = synthetic_feature_stream(1234, n_flows=7)
    assert flows == list(range(1, 8)) and len(buckets) == 7
    starts = []
    for w, x in stream:
        starts.append(w)
        rows += x.shape[0] * x.shape[1]
        assert x.shape[1:] == (7, 7)
        assert x.shape[0] == min(BLOCK_WINDOWS, 177 - w)
    assert starts == list(range(0, 177, BLOCK_WINDOWS))
    assert rows == 177 * 7 >= 1234


# ---------------------------------------------------------------------------
# feasibility rate


def test_feasibility_rate():
    mk = lambda ok: FeasibilityOutcome(1, Budgets(0, 1.0, 1.0), ok, 0, 0.0, 0.0)
    assert feasibility_rate([mk(True), mk(True), mk(False)]) == pytest.approx(2 / 3)
    assert feasibility_rate([]) == 1.0


# ---------------------------------------------------------------------------
# report assembly


def test_compute_report_fields_and_round_trip(tmp_path):
    scores = table([rec(1, w) for w in range(10, 30)]
                    + [rec(9, w, a=True, z=(w >= 18)) for w in range(15, 25)])
    labels = [episode(9, 15, 24)]
    feas = [FeasibilityOutcome(9, Budgets(0, math.inf, math.inf), True, 0,
                               0.0, 0.0)]
    base = _tiny_log(1e6)
    gated = _tiny_log(1e6)
    rep = compute_report(scores, labels,
                         time_to_detect(scores, labels, 8, 0.25), RECORD,
                         BURN_IN, feas, base, gated)
    assert rep.achieved_fpr_alarm == 0.0
    assert rep.incident_recall == 1.0
    assert rep.ttd_s == [pytest.approx(0.75)]
    assert rep.feasibility_rate == 1.0
    assert rep.delta_p999_delay_ms == 0.0
    assert math.isnan(rep.timing_us_per_row.mean)

    manifest = RunManifest(1, "h")
    write_report(tmp_path / "report.json", rep, manifest)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc == {"manifest": to_json(manifest), "metrics": to_json(rep)}
    # report prints the metrics as key=value lines in this order
    assert list(to_json(rep)) == [
        "achieved_fpr_alarm", "achieved_fpr_actionable", "incident_recall",
        "ttd_s", "p99_delay_ms", "p999_delay_ms", "p999_collateral_ms",
        "delta_p999_delay_ms", "delta_p999_collateral_ms",
        "feasibility_rate", "timing_us_per_row"]
    assert list(to_json(rep)["timing_us_per_row"]) == ["mean", "p90", "max"]
    assert doc["metrics"]["timing_us_per_row"]["mean"] is None


def test_compute_report_no_episodes():
    scores = table(rec(1, w) for w in range(10, 20))
    log = _tiny_log(1e6)
    rep = compute_report(scores, [], [], RECORD, BURN_IN, [], log, log)
    assert rep.incident_recall is None
    assert rep.ttd_s == []
    assert rep.feasibility_rate == 1.0


def test_episode_table(tmp_path):
    scores = rec(1, 12, z=True)
    labels = [episode(1, 10, 20), episode(2, 30, 40)]
    write_episode_table(tmp_path / "eps.csv", labels,
                        time_to_detect(scores, labels, 8, 0.25))
    text = (tmp_path / "eps.csv").read_text().splitlines()
    assert text[0] == "episode_id,detected,ttd_s"
    assert text[1] == "1,1,0.5"
    assert text[2] == "2,0,"
