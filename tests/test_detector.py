"""Detector dynamics, calibration, and persistence tests.

Hand-computed expectations are frozen as literals; heavier checks lean on
scipy root finding and brute-force reference implementations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from flowgate.detector import (
    DetectorParams,
    DetectorSession,
    PersistenceState,
    ScoreRecord,
    calibrate_threshold,
    coupling_stability_margin,
    derive_flags,
    event_surrogate,
    evidence,
    f_sat,
    f_sat_peak_slope,
    fixed_point_residual,
    persistence_update,
    read_scores_csv,
    read_thresholds,
    solve_fixed_point,
    step,
    write_scores_csv,
    write_thresholds,
)
from flowgate.features import N_FEATURES
from flowgate.worlds import ContentionGraph


# ---------------------------------------------------------------------------
# elementary pieces


def test_f_sat_frozen_values():
    assert f_sat(0.0, 1.0, 1.0) == 0.0
    assert f_sat(100.0, 1.0, 1.0) == 10000.0 / 10001.0
    assert f_sat(100.0, 1.0, 1.0) == pytest.approx(0.9999000099990001, rel=1e-15)
    # alpha scales the whole term, kappa=0 removes saturation
    assert f_sat(2.0, 3.0, 0.0) == 12.0


def test_f_sat_peak_slope_closed_form_vs_grid():
    expected = 3.0 * math.sqrt(3.0) / 8.0
    assert f_sat_peak_slope(1.0, 10.0) == pytest.approx(expected, rel=1e-15)
    assert f_sat_peak_slope(1.0, 10.0) == pytest.approx(0.649519052838329, rel=1e-12)
    for kappa, v_max in [(1.0, 10.0), (4.0, 10.0), (1.0, 0.3), (0.25, 2.0)]:
        grid = np.linspace(0.0, v_max, 2_000_001)
        slopes = 2.0 * grid / (1.0 + kappa * grid * grid) ** 2
        assert f_sat_peak_slope(kappa, v_max) == pytest.approx(
            float(slopes.max()), abs=1e-9)


def test_f_sat_peak_slope_unsaturated():
    # kappa=0: slope 2v is monotone, peak at v_max
    assert f_sat_peak_slope(0.0, 3.0) == 6.0


def test_event_surrogate_frozen():
    assert event_surrogate(0.0, 4.0, 1.0) == pytest.approx(
        0.01798620996209156, rel=1e-15)
    assert event_surrogate(1.0, 4.0, 1.0) == 0.5
    assert event_surrogate(-1000.0, 4.0, 1.0) == 0.0
    assert event_surrogate(1000.0, 4.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_event_surrogate_monotone():
    vs = np.linspace(-5, 15, 401)
    ss = [event_surrogate(v, 4.0, 1.0) for v in vs]
    assert all(b >= a for a, b in zip(ss, ss[1:]))


def test_evidence_frozen():
    assert evidence((1.0, -1.0, 2.0), 0.25, 1.0) == 1.0
    assert evidence((3.0, 4.0), 1.0, 2.0) == 5.0
    assert evidence((1.0, -9.0, 2.0), 0.5, math.inf) == 4.5
    assert evidence((1.0, 2.0), 1.0, 3.0) == pytest.approx(9.0 ** (1 / 3), rel=1e-12)
    assert evidence((), 0.25, 2.0) == 0.0
    assert evidence((), 0.25, math.inf) == 0.0


# ---------------------------------------------------------------------------
# step dynamics


def test_step_frozen_example():
    p = DetectorParams()
    v, u = step(0.0, 0.0, 2.0, 0.0, p)
    assert v == 0.5
    assert u == 0.0


def test_step_rest_is_equilibrium():
    p = DetectorParams()
    assert step(0.0, 0.0, 0.0, 0.0, p) == (0.0, 0.0)


def test_step_u_uses_pre_step_v():
    p = DetectorParams()
    v, u = step(2.0, 0.0, 0.0, 0.0, p)
    # u' = dt * a*b*v_old = 0.25 * 0.05 * 2
    assert u == pytest.approx(0.025, rel=1e-15)
    # dv = f_sat(2) + 0.1*2 - 0.5*2 - 0.2*2 = -0.4
    assert v == pytest.approx(1.9, rel=1e-15)


def test_step_clips_to_bounds():
    p = DetectorParams()
    v_hi, _ = step(9.0, 0.0, 1000.0, 0.0, p)
    assert v_hi == p.v_max
    v_lo, _ = step(0.5, 5.0, 0.0, 0.0, p)
    assert v_lo == 0.0


def test_step_reset_term_subtracts():
    p = DetectorParams(r=1.0)
    v_plain, _ = step(3.0, 0.0, 0.0, 0.0, DetectorParams())
    v_reset, _ = step(3.0, 0.0, 0.0, 0.0, p)
    s = event_surrogate(3.0, p.k, p.theta)
    assert v_reset == pytest.approx(v_plain - s, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=5.0))
def test_step_trajectories_stay_bounded(drives, v0, u0):
    p = DetectorParams()
    v, u = v0, u0
    cap_u = p.b * p.v_max
    for e in drives:
        v, u = step(v, u, e, 0.0, p)
        assert 0.0 <= v <= p.v_max
        assert u <= max(u0, cap_u) + 1e-9
        assert u >= min(0.0, u0) - 1e-9


# ---------------------------------------------------------------------------
# fixed points


@pytest.mark.parametrize("drive", [0.05, 0.1, 0.2])
def test_fixed_point_matches_scipy_and_residual(drive):
    p = DetectorParams()
    v_star, u_star = solve_fixed_point(p, drive)
    ab_over = p.a * p.b / (p.a + p.mu)

    def h(v):
        return (f_sat(v, p.alpha, p.kappa) + p.beta * v + p.gamma
                - ab_over * v + drive - p.lam * v - p.chi * (v - p.v_rest))

    v_ref = brentq(h, 0.0, p.v_max, xtol=1e-14)
    assert v_star == pytest.approx(v_ref, abs=1e-10)
    rv, ru = fixed_point_residual(v_star, u_star, drive, p)
    assert abs(rv) < 1e-9
    assert abs(ru) < 1e-9


@pytest.mark.parametrize("drive", [0.05, 0.1, 0.2])
def test_fixed_point_reached_by_simulation(drive):
    p = DetectorParams()
    v_star, u_star = solve_fixed_point(p, drive)
    v, u = 0.0, 0.0
    for _ in range(20000):
        v, u = step(v, u, drive, 0.0, p)
    assert v == pytest.approx(v_star, abs=1e-5)
    assert u == pytest.approx(u_star, abs=1e-5)


def test_fixed_point_unbracketed_raises():
    p = DetectorParams()
    with pytest.raises(ValueError):
        solve_fixed_point(p, 1e6)


# ---------------------------------------------------------------------------
# coupling margin


def test_coupling_margin_frozen():
    p = DetectorParams(dt=0.25, g=1.0, k=4.0)
    bound, margin, ok = coupling_stability_margin(p, rho=2.0)
    assert bound == 0.5
    expected_margin = 0.5 + 0.2 - 0.1 - 3.0 * math.sqrt(3.0) / 8.0
    assert margin == pytest.approx(expected_margin, rel=1e-12)
    assert not ok


def test_coupling_margin_zero_gain_zero_bound():
    bound, _, _ = coupling_stability_margin(DetectorParams(), rho=5.0)
    assert bound == 0.0


def test_coupling_margin_safe_configuration():
    p = DetectorParams(lam=1.0, g=0.2)
    bound, margin, ok = coupling_stability_margin(p, rho=1.0)
    assert ok
    assert bound < margin


def test_validate_rejects_unstable_coupling():
    p = DetectorParams(g=1.0)
    with pytest.raises(ValueError, match="margin"):
        p.validate(rho=2.0)
    # same gain is fine with stronger leak
    DetectorParams(g=0.2, lam=1.0).validate(rho=1.0)


def test_validate_rejects_bad_params():
    for bad in [dict(dt=0.0), dict(k=0.0), dict(p=0.5), dict(a=0.0, mu=0.0),
                dict(v_rest=10.0, v_max=10.0), dict(zeta=-1.0), dict(tau=-1)]:
        with pytest.raises(ValueError):
            DetectorParams(**bad).validate()


def test_params_dict_round_trip():
    p = DetectorParams(g=0.1, lam=2.0, noise_std=0.01)
    assert DetectorParams.from_dict(p.to_dict()) == p


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_threshold_frozen():
    assert calibrate_threshold(range(1, 101), 0.99) == 99
    assert calibrate_threshold(range(1, 1001), 0.999) == 999
    assert calibrate_threshold([5.0, 1.0, 3.0], 1.0) == 5.0
    assert calibrate_threshold([5.0, 1.0, 3.0], 0.001) == 1.0


def test_calibrate_threshold_errors():
    with pytest.raises(ValueError):
        calibrate_threshold([], 0.99)
    with pytest.raises(ValueError):
        calibrate_threshold([1.0], 0.0)
    with pytest.raises(ValueError):
        calibrate_threshold([1.0], 1.5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=400),
       st.floats(min_value=0.01, max_value=1.0))
def test_calibrate_threshold_rank_property(scores, q):
    theta = calibrate_threshold(scores, q)
    assert theta in scores
    n = len(scores)
    rank = min(n, max(1, math.ceil(q * n)))
    assert sum(1 for s in scores if s <= theta) >= rank
    assert sum(1 for s in scores if s > theta) <= n - rank


# ---------------------------------------------------------------------------
# persistence


def brute_force_flags(alarms, k, m):
    z = False
    out = []
    for t in range(len(alarms)):
        lo = max(0, t - m + 1)
        recent = alarms[lo:t + 1]
        run_clear = 0
        for a in reversed(alarms[:t + 1]):
            if a:
                break
            run_clear += 1
        if sum(recent) >= k:
            z = True
        elif z and run_clear >= m:
            z = False
        out.append(z)
    return out


def run_persistence(alarms, k, m):
    state = PersistenceState(m)
    return [persistence_update(state, a, k, m) for a in alarms]


def test_persistence_alternating_example():
    alarms = [1, 0, 1, 0, 1, 0, 0, 0]
    flags = run_persistence(alarms, k=3, m=8)
    assert flags == [False, False, False, False, True, True, True, True]


def test_persistence_clears_after_m_quiet_windows():
    alarms = [1, 1, 1] + [0] * 10
    flags = run_persistence(alarms, k=3, m=8)
    assert flags[2] is True
    # 8 consecutive clears complete at index 10
    assert flags[9] is True
    assert flags[10] is False
    assert flags[11] is False


def test_persistence_short_history_counts_missing_as_clear():
    # k=1 latches immediately, k=2 needs two alarms within the window
    assert run_persistence([1], k=1, m=4) == [True]
    assert run_persistence([1, 0, 0], k=2, m=4) == [False, False, False]


def test_persistence_rejects_bad_k():
    state = PersistenceState(4)
    with pytest.raises(ValueError):
        persistence_update(state, True, 5, 4)
    with pytest.raises(ValueError):
        persistence_update(state, True, 0, 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=120),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=10))
def test_persistence_matches_brute_force(alarms, k, extra):
    m = k + extra - 1
    assert run_persistence(alarms, k, m) == brute_force_flags(alarms, k, m)


# ---------------------------------------------------------------------------
# monotone-transform invariance


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-10_000, max_value=10_000),
                min_size=3, max_size=300),
       st.floats(min_value=0.5, max_value=1.0))
def test_alarms_invariant_under_affine_transform(raw, q):
    # integer-valued floats keep 2x+3 exact, so order comparisons transfer
    scores = [float(x) for x in raw]
    burn, live = scores[: len(scores) // 2 + 1], scores[len(scores) // 2 + 1:]
    theta = calibrate_threshold(burn, q)
    theta_t = calibrate_threshold([2.0 * x + 3.0 for x in burn], q)
    assert theta_t == 2.0 * theta + 3.0
    for s in live:
        assert (s >= theta) == (2.0 * s + 3.0 >= theta_t)


# ---------------------------------------------------------------------------
# streaming session


def constant_row(flow_id, value=100.0):
    return (flow_id, "sensor", (value,) * N_FEATURES)


def run_session(session, feeds, n_windows):
    """feeds: dict flow_id -> callable(window) returning the raw vector."""
    records = []
    for w in range(n_windows):
        rows = [(f, "sensor", feeds[f](w)) for f in sorted(feeds)]
        records.extend(session.process_window(w, rows))
    return records


def small_session(**kw):
    args = dict(params=DetectorParams(), burn_in_windows=60, quantile=0.9,
                k_persist=3, m_persist=8, w_min=5)
    args.update(kw)
    return DetectorSession(**args)


def test_session_flow_born_after_burn_in_never_alarms():
    session = small_session()
    records = []
    for w in range(120):
        rows = [(1, "sensor", (100.0,) * N_FEATURES)]
        if w >= 70:
            rows.append((2, "sensor", (1e9,) * N_FEATURES))
        records.extend(session.process_window(w, rows))
    assert session.thresholds()[2]["detector"] is None
    late = [r for r in records if r.flow_id == 2]
    assert late, "late flow still gets scored"
    assert not any(r.a or r.z for r in late)


def test_session_collection_gate_and_threshold():
    # single flow in its bucket: updates == windows seen, so collection
    # starts once both exceed 2*w_min = 10 windows
    session = small_session()
    run_session(session, {1: lambda w: (100.0,) * N_FEATURES}, 60)
    st_flow = session._flows[1]
    assert len(st_flow.burn_scores) == 60 - 10
    session.process_window(60, [constant_row(1)])
    thr = session.thresholds()[1]
    assert thr["detector"] == pytest.approx(
        calibrate_threshold(st_flow.burn_scores, 0.9), rel=0)
    assert thr["baseline"] == pytest.approx(
        calibrate_threshold(st_flow.burn_baseline, 0.9), rel=0)


def test_session_detects_sustained_anomaly_and_freezes_threshold():
    # a single burn-in spike pushes the q=1 threshold above the quiet score,
    # so only the sustained post-burn-in anomaly can reach it
    session = small_session(quantile=1.0)
    def feed(w):
        return (500.0 if w == 30 else 100.0,) * N_FEATURES
    records = run_session(session, {1: feed}, 60)
    assert not any(r.a for r in records)
    theta_before = None
    post = []
    for w in range(60, 90):
        x = (5000.0 if w >= 65 else 100.0,) * N_FEATURES
        post.extend(session.process_window(w, [(1, "sensor", x)]))
        if w == 60:
            theta_before = session.thresholds()[1]["detector"]
    assert theta_before is not None
    assert session.thresholds()[1]["detector"] == theta_before
    quiet = [r for r in post if r.window < 66]
    assert not any(r.a for r in quiet)
    fired = [r for r in post if r.a]
    assert fired and min(r.window for r in fired) <= 68
    assert any(r.z for r in post)


def test_session_evidence_lags_one_window():
    # the score at the anomaly window itself still reflects the quiet state
    session = small_session()
    run_session(session, {1: lambda w: (100.0,) * N_FEATURES}, 65)
    rec_at = session.process_window(65, [(1, "sensor", (5000.0,) * N_FEATURES)])[0]
    rec_next = session.process_window(66, [(1, "sensor", (5000.0,) * N_FEATURES)])[0]
    assert rec_at.E > 1.0
    assert rec_at.s == pytest.approx(event_surrogate(0.0, 4.0, 1.0), rel=1e-12)
    assert rec_at.s < rec_next.s


def test_session_baseline_column_equals_evidence():
    session = small_session()
    records = run_session(session, {1: lambda w: (float(w % 7),) * N_FEATURES}, 80)
    assert all(r.baseline_s == r.E for r in records)


def test_session_determinism():
    def feeds():
        return {1: lambda w: (float(w % 11), float(w % 5), 1.0, 0.5,
                              0.2, 0.1, 3.0),
                2: lambda w: (2.0, 4.0, None, None, 0.0, 0.5, 1.0)}
    a = run_session(small_session(), feeds(), 100)
    b = run_session(small_session(), feeds(), 100)
    assert a == b


def test_session_noise_requires_seed_and_is_reproducible():
    with pytest.raises(ValueError):
        small_session(params=DetectorParams(noise_std=0.01))
    a = run_session(small_session(params=DetectorParams(noise_std=0.01), seed=7),
                    {1: lambda w: (1.0,) * N_FEATURES}, 40)
    b = run_session(small_session(params=DetectorParams(noise_std=0.01), seed=7),
                    {1: lambda w: (1.0,) * N_FEATURES}, 40)
    c = run_session(small_session(), {1: lambda w: (1.0,) * N_FEATURES}, 40)
    assert a == b
    assert [r.v for r in a] != [r.v for r in c]


def test_session_coupling_lags_and_perturbs():
    graph = ContentionGraph({0: [1, 2]}, {0: [[0.0, 0.5], [0.5, 0.0]]},
                            (0.4, 0.6))
    feeds = {1: lambda w: (1.0,) * N_FEATURES, 2: lambda w: (1.0,) * N_FEATURES}
    coupled = run_session(
        small_session(params=DetectorParams(g=0.2, lam=1.0), graph=graph),
        feeds, 30)
    plain = run_session(
        small_session(params=DetectorParams(g=0.0, lam=1.0)), feeds, 30)
    first_c = [r for r in coupled if r.window == 0]
    first_p = [r for r in plain if r.window == 0]
    assert [r.v for r in first_c] == [r.v for r in first_p]
    assert [r.v for r in coupled] != [r.v for r in plain]


def test_session_coupling_matches_per_row_oracle():
    # I_i(t) = g * sum_j w_ij S_j(t - 1 - tau), with S_j = 0 when flow j had
    # no row at that window; flow 9 is outside the graph and gets no drive
    W = [[0.0, 0.5, 0.25], [0.5, 0.0, 0.75], [0.25, 0.75, 0.0]]
    graph = ContentionGraph({0: [1, 2, 3]}, {0: W}, (0.0, 1.5))
    params = DetectorParams(g=0.3, tau=1, lam=1.0)
    session = small_session(params=params, graph=graph)
    idx = {1: 0, 2: 1, 3: 2}
    records = []
    for w in range(40):
        rows = [(1, "sensor", (float(w % 5),) * N_FEATURES),
                (9, "sensor", (float(w % 3),) * N_FEATURES)]
        if w >= 6:
            rows.insert(1, (2, "sensor", (float(w % 7),) * N_FEATURES))
        if w % 4 != 1:
            rows.append((3, "sensor", (float(w % 2),) * N_FEATURES))
        records.extend(session.process_window(w, rows))
    by = {(r.flow_id, r.window): r for r in records}
    checked = 0
    for (f, w), r in by.items():
        nxt = by.get((f, w + 1))
        if nxt is None:
            continue
        lag = 1 + params.tau
        drive = 0.0
        if f in idx and w >= lag:
            drive = params.g * sum(
                W[idx[f]][idx[j]] * by[(j, w - lag)].S
                for j in idx if (j, w - lag) in by)
        v_next, u_next = step(r.v, r.u, r.E, drive, params)
        assert nxt.v == pytest.approx(v_next, rel=1e-12, abs=1e-15), (f, w)
        assert nxt.u == pytest.approx(u_next, rel=1e-12, abs=1e-15), (f, w)
        checked += 1
    assert checked > 100


def test_derive_flags_matches_session():
    session = small_session()
    feed = {1: lambda w: ((100.0 + (37.0 * w * w + 11) % 61),) * N_FEATURES}
    records = run_session(session, feed, 150)
    theta = session.thresholds()[1]["detector"]
    pairs = [(r.window, r.s) for r in records]
    a, z = derive_flags(pairs, theta, 3, 8, 60)
    assert list(a) == [r.a for r in records]
    assert list(z) == [r.z for r in records]


def test_session_rejects_non_finite_state():
    session = small_session()
    session.process_window(0, [constant_row(1)])
    with pytest.raises(FloatingPointError, match="flow 1 at window 1"):
        session.process_window(1, [(1, "sensor", (math.nan,) * N_FEATURES)])


def test_session_finalize_freezes_mid_burn_in():
    session = small_session()
    run_session(session, {1: lambda w: (100.0,) * N_FEATURES}, 30)
    assert session.thresholds()[1]["detector"] is None
    session.finalize()
    assert session.thresholds()[1]["detector"] is not None


def test_derive_flags_none_threshold_all_clear():
    a, z = derive_flags([(w, 5.0) for w in range(20)], None, 3, 8, 5)
    assert not a.any()
    assert not z.any()


# ---------------------------------------------------------------------------
# serialization


def test_scores_csv_round_trip(tmp_path):
    records = [
        ScoreRecord(1, 0, 0.5, 0.01798, 0.0, 0.0, 0.01798, False, False, 0.5),
        ScoreRecord(2, 0, 1.25, 0.5, 1.0, 0.1, 0.5, True, False, 1.25),
        ScoreRecord(1, 1, 1e-17, 0.9999999, 9.5, 3.3, 0.9999999, True, True, 1e-17),
    ]
    path = tmp_path / "scores.csv"
    write_scores_csv(path, records)
    assert read_scores_csv(path) == records


def test_thresholds_round_trip(tmp_path):
    session = small_session()
    run_session(session, {1: lambda w: (100.0,) * N_FEATURES,
                          2: lambda w: (None,) * N_FEATURES}, 61)
    path = tmp_path / "thresholds.json"
    write_thresholds(path, session)
    loaded = read_thresholds(path)
    assert loaded["quantile"] == 0.9
    assert loaded["k"] == 3 and loaded["m"] == 8
    assert loaded["flows"][1]["detector"] == session.thresholds()[1]["detector"]
    # the all-missing flow scores flat at the resting surrogate
    assert loaded["flows"][2]["detector"] == pytest.approx(
        event_surrogate(0.0, 4.0, 1.0), rel=1e-12)
