"""Detector dynamics, calibration, and K-of-M flag tests.

Hand-computed expectations are frozen as literals; heavier checks lean on
scipy root finding and brute-force reference implementations. The
window-synchronous session is checked against the per-row session it
replaced (tests/detector_oracle.py), bit for bit.
"""

import hashlib
import math
import re
import shutil
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import detector_oracle as oracle
from detector_oracle import derive_flags
from flowgate.detector import (
    Calibration,
    DetectorParams,
    DetectorSession,
    Scores,
    calibrate_threshold,
    event_surrogate,
    evidence,
    f_sat,
    flags,
    read_scores_csv,
    read_thresholds,
    step,
    thresholds,
    write_scores_csv,
    write_thresholds,
)
from flowgate.features import N_FEATURES
from flowgate.trace import (
    RunManifest,
    from_json,
    table_columns,
    to_json,
    twin_path,
)
from support import (
    block_edges,
    detect_record,
    f_sat_peak_slope,
    fixed_point_residual,
    recorded,
    solve_fixed_point,
    thresholds_by_flow,
)


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


def ulps(a, b):
    """The distance in ulps between float64 arrays of one sign."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return np.abs(a.view(np.int64) - b.view(np.int64))


def libm_surrogate(v, k=4.0, theta=1.0):
    return np.array([oracle.event_surrogate(x, k, theta)
                     for x in np.ravel(v).tolist()])


def test_event_surrogate_within_4_ulp_of_libm():
    v = np.random.default_rng(17).uniform(-200.0, 12.0, 2**20)
    assert ulps(event_surrogate(v, 4.0, 1.0), libm_surrogate(v)).max() <= 4


def test_event_surrogate_is_zero_past_700_without_overflow(recwarn):
    # 700 < -k (v - theta) <= 709.78 is where exp is still finite, and
    # beyond it exp overflows: both read exactly 0, with no warning
    x = np.concatenate([np.nextafter(700.0, np.inf) + [0.0, 1e-9],
                        np.linspace(700.5, 709.78, 50),
                        [709.79, 710.0, 1e4, 1e308, np.inf]])
    s = event_surrogate(-x, 1.0, 0.0)
    assert s.tobytes() == np.zeros(x.size).tobytes()
    assert event_surrogate(-700.0, 1.0, 0.0) > 0.0
    assert not recwarn.list


def test_event_surrogate_monotone_ulp_by_ulp():
    # 20,000 ulps either side of 400 points in [-200, 12], each step up
    # in v a step up or none in S
    steps = np.arange(-20_000, 20_001)
    for centre in np.linspace(-200.0, 12.0, 400):
        up = -steps if centre < 0 else steps
        v = (np.float64(centre).view(np.int64) + up).view(np.float64)
        assert (np.diff(event_surrogate(v, 4.0, 1.0)) >= 0.0).all(), centre


def test_evidence_frozen():
    assert evidence((3.0, 4.0), 1.0) == 5.0
    assert evidence((0.0, -3.0, 4.0), 0.5) == 2.5
    assert evidence((), 0.25) == 0.0


# ---------------------------------------------------------------------------
# step dynamics


def test_step_frozen_example():
    p = DetectorParams()
    v, u = step(0.0, 0.0, 2.0, p)
    assert v == 0.5
    assert u == 0.0


def test_step_rest_is_equilibrium():
    p = DetectorParams()
    assert step(0.0, 0.0, 0.0, p) == (0.0, 0.0)


def test_step_u_uses_pre_step_v():
    p = DetectorParams()
    v, u = step(2.0, 0.0, 0.0, p)
    # u' = dt * a*b*v_old = 0.25 * 0.05 * 2
    assert u == pytest.approx(0.025, rel=1e-15)
    # dv = f_sat(2) + 0.1*2 - 0.5*2 - 0.2*2 = -0.4
    assert v == pytest.approx(1.9, rel=1e-15)


def test_step_clips_to_bounds():
    p = DetectorParams()
    v_hi, _ = step(9.0, 0.0, 1000.0, p)
    assert v_hi == p.v_max
    v_lo, _ = step(0.5, 5.0, 0.0, p)
    assert v_lo == 0.0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=5.0))
def test_step_trajectories_stay_bounded(drives, v0, u0):
    p = DetectorParams()
    v, u = v0, u0
    cap_u = p.b * p.v_max
    for e in drives:
        v, u = step(v, u, e, p)
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
        return (f_sat(v, p.alpha, p.kappa) + p.beta * v
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
        v, u = step(v, u, drive, p)
    assert v == pytest.approx(v_star, abs=1e-5)
    assert u == pytest.approx(u_star, abs=1e-5)


def test_fixed_point_unbracketed_raises():
    p = DetectorParams()
    with pytest.raises(ValueError):
        solve_fixed_point(p, 1e6)


# ---------------------------------------------------------------------------
# parameters


def test_validate_rejects_bad_params():
    for bad in [dict(dt=0.0), dict(k=0.0), dict(a=0.0, mu=0.0),
                dict(v_rest=10.0, v_max=10.0), dict(zeta=-1.0),
                dict(lam=-1.0)]:
        with pytest.raises(ValueError):
            DetectorParams(**bad).validate()


def test_params_dict_round_trip():
    p = DetectorParams(lam=2.0, zeta=0.5)
    assert from_json(DetectorParams, to_json(p), "params") == p


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


def run_flags(rows, k, m):
    """The flags of alarm rows (windows x flows), from no history, in one
    flags call."""
    rows = np.array(rows, dtype=bool)
    z, _, _ = flags(rows, k, m, np.empty((0,) + rows.shape[1:], dtype=bool),
                    np.zeros(rows.shape[1:], dtype=bool))
    return z


def run_persistence(alarms, k, m):
    return run_flags(np.array(alarms, dtype=bool)[:, None], k, m)[:, 0].tolist()


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
    with pytest.raises(ValueError, match="break 1 <= k <= m"):
        run_persistence([1], 5, 4)
    with pytest.raises(ValueError, match="break 1 <= k <= m"):
        run_persistence([1], 0, 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=120),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=10))
def test_persistence_matches_brute_force(alarms, k, extra):
    m = k + extra - 1
    assert run_persistence(alarms, k, m) == brute_force_flags(alarms, k, m)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.booleans(), min_size=3, max_size=3),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4))
def test_persistence_flows_are_independent(rows, k, extra):
    # three flows flagged together flag exactly as each does alone
    m = k + extra - 1
    together = run_flags(rows, k, m)
    for i in range(3):
        alone = run_persistence([r[i] for r in rows], k, m)
        assert together[:, i].tolist() == alone


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


def matrix(rows):
    """Raw vectors (None = missing) as a block of one window's matrix (NaN =
    missing)."""
    return np.array([[np.nan if v is None else v for v in x] for x in rows],
                    dtype=np.float64).reshape(1, len(rows), N_FEATURES)


def small_session(flows=(1,), buckets=None, quantile=0.9, **kw):
    args = dict(params=DetectorParams(), flow_ids=list(flows),
                buckets=buckets or ["sensor"] * len(flows),
                burn_in_windows=60,
                calibration=Calibration(quantile, k=3, m=8, w_min=5))
    args.update(kw)
    return DetectorSession(**args)


def run_session(session, feeds, n_windows, start=0):
    """feeds: dict flow_id -> callable(window) returning the raw vector, one
    per session flow; returns the windows' Scores, one per window."""
    return [session.process_window(
        w, matrix([feeds[f](w) for f in session.flow_ids]))
        for w in range(start, start + n_windows)]


def records(session, scores):
    """One table of a session's per-window Scores, in (window, flow) order."""
    table = Scores.concat(scores)
    assert table.flow_id.tolist() == session.flow_ids * len(scores)
    return table


def columns(scores):
    """Every column of a Scores table as bytes, for exact comparison."""
    return [getattr(scores, f.name).tobytes() for f in fields(scores)]


def test_session_flow_born_after_burn_in_never_alarms():
    # every flow has a row in every window; flow 2's values are missing until
    # window 48, so its own bucket reaches 2 * w_min = 10 updates at window
    # 58 and it collects 2 < w_min burn-in scores: no threshold, no alarms
    session = small_session(flows=(1, 2), buckets=["sensor", "late"])
    feeds = {1: lambda w: (100.0,) * N_FEATURES,
             2: lambda w: (None if w < 48 else 5.0 + w % 3 if w < 70
                           else 1e9 * (1 + w % 3),) * N_FEATURES}
    recs = records(session, run_session(session, feeds, 120))
    assert np.concatenate(session._burn_ok)[:, 1].sum() == 2
    assert not math.isnan(session.thresholds()[1].detector)
    assert math.isnan(session.thresholds()[2].detector)
    late = (recs.flow_id == 2) & (recs.window >= 70)
    assert (recs.E[late] > 1.0).any(), "late flow still gets scored"
    assert not (recs.a[late] | recs.z[late]).any()


def test_session_collection_gate_and_threshold():
    # single flow in its bucket: updates == windows seen, so collection
    # starts once both exceed 2*w_min = 10 windows
    session = small_session()
    run_session(session, {1: lambda w: (100.0,) * N_FEATURES}, 60)
    collected = np.concatenate(session._burn_ok)[:, 0]
    scores, evidence_ = np.concatenate(session._burn)[collected].T.tolist()
    assert len(scores) == 60 - 10
    session.process_window(60, matrix([(100.0,) * N_FEATURES]))
    thr = session.thresholds()[1]
    assert thr.detector == calibrate_threshold(scores, 0.9)
    assert thr.baseline == calibrate_threshold(evidence_, 0.9)


def test_session_detects_sustained_anomaly_and_freezes_threshold():
    # a single burn-in spike pushes the q=1 threshold above the quiet score,
    # so only the sustained post-burn-in anomaly can reach it
    session = small_session(quantile=1.0)
    recs = records(session, run_session(
        session, {1: lambda w: (500.0 if w == 30 else 100.0,) * N_FEATURES},
        60))
    assert not recs.a.any()
    theta_before = None
    post = []
    for w in range(60, 90):
        x = (5000.0 if w >= 65 else 100.0,) * N_FEATURES
        post.append(session.process_window(w, matrix([x])))
        if w == 60:
            theta_before = session.thresholds()[1].detector
    post = records(session, post)
    assert theta_before is not None
    assert session.thresholds()[1].detector == theta_before
    assert not post.a[post.window < 66].any()
    fired = post.window[post.a]
    assert fired.size and fired.min() <= 68
    assert post.z.any()


def test_session_evidence_lags_one_window():
    # the score at the anomaly window itself still reflects the quiet state
    session = small_session()
    run_session(session, {1: lambda w: (100.0,) * N_FEATURES}, 65)
    loud = matrix([(5000.0,) * N_FEATURES])
    rec_at = session.process_window(65, loud)
    rec_next = session.process_window(66, loud)
    assert len(rec_at) == 1
    assert (rec_at.flow_id.tolist(), rec_at.window.tolist()) == ([1], [65])
    assert rec_at.E[0] > 1.0
    assert rec_at.s[0] == pytest.approx(event_surrogate(0.0, 4.0, 1.0),
                                        rel=1e-12)
    assert rec_at.s[0] < rec_next.s[0]


def test_session_baseline_column_equals_evidence(tmp_path):
    session = small_session()
    scores = records(session, run_session(
        session, {1: lambda w: (float(w % 7),) * N_FEATURES}, 80))
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scores)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [r[9] for r in rows] == [r[2] for r in rows] == \
        [repr(e) for e in scores.E.tolist()]
    assert columns(read_scores_csv(path, recorded(path))) == columns(scores)


def test_session_determinism():
    def feeds():
        return {1: lambda w: (float(w % 11), float(w % 5), 1.0, 0.5,
                              0.2, 0.1, 3.0),
                2: lambda w: (2.0, 4.0, None, None, 0.0, 0.5, 1.0)}
    a = small_session(flows=(1, 2))
    b = small_session(flows=(1, 2))
    assert columns(records(a, run_session(a, feeds(), 100))) == \
        columns(records(b, run_session(b, feeds(), 100)))


def test_session_refuses_mismatched_flows():
    with pytest.raises(ValueError, match="one bucket per flow"):
        small_session(flows=(1, 2), buckets=["sensor"])
    # a window matrix must hold one row per session flow
    session = small_session(flows=(1, 2))
    with pytest.raises(ValueError, match=r"window 0: .* expected "
                       r"\(windows, 2, 7\)"):
        session.process_window(0, matrix([(1.0,) * N_FEATURES]))
    with pytest.raises(ValueError, match=r"shape \(2, 7\), expected"):
        session.process_window(0, np.ones((2, N_FEATURES)))


def test_derive_flags_matches_session():
    session = small_session()
    feed = {1: lambda w: ((100.0 + (37.0 * w * w + 11) % 61),) * N_FEATURES}
    recs = records(session, run_session(session, feed, 150))
    theta = session.thresholds()[1].detector
    pairs = zip(recs.window.tolist(), recs.s.tolist())
    a, z = derive_flags(pairs, theta, 3, 8, 60)
    assert np.array_equal(a, recs.a)
    assert np.array_equal(z, recs.z)


def test_session_rejects_non_finite_state():
    # +inf, since NaN marks a missing value. Flow 2's first value is +inf,
    # so its z-score is inf - inf = NaN and its state goes non-finite
    session = small_session(flows=(1, 2), buckets=["a", "b"])
    with pytest.raises(FloatingPointError, match="flow 2 at window 0"):
        session.process_window(0, matrix([(100.0,) * N_FEATURES,
                                          (math.inf,) * N_FEATURES]))


def test_session_finalize_freezes_mid_burn_in():
    session = small_session()
    run_session(session, {1: lambda w: (100.0,) * N_FEATURES}, 30)
    assert math.isnan(session.thresholds()[1].detector)
    session.finalize()
    assert not math.isnan(session.thresholds()[1].detector)


def test_derive_flags_none_threshold_all_clear():
    a, z = derive_flags([(w, 5.0) for w in range(20)], None, 3, 8, 5)
    assert not a.any()
    assert not z.any()


# ---------------------------------------------------------------------------
# differential test against the per-row session


@st.composite
def detector_cases(draw):
    """Flows in several buckets over up to 40 windows, with spikes, missing
    rows and cells, NaN-heavy columns and, sometimes, an infinite value,
    which makes a detector state non-finite."""
    n = draw(st.integers(1, 8))
    flows = sorted(draw(st.sets(st.integers(1, 60), min_size=n, max_size=n)))
    buckets = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    n_windows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 10.0, (n_windows, n, N_FEATURES))
    x[rng.random(x.shape) < 0.02] *= 300.0  # spikes
    x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = np.nan
    x[rng.random((n_windows, n)) < draw(st.sampled_from([0.0, 0.15]))] = np.nan
    heavy = rng.random(N_FEATURES) < draw(st.sampled_from([0.0, 0.4]))
    for k in np.flatnonzero(heavy):
        col = x[:, :, k]
        col[rng.random(col.shape) < 0.9] = np.nan
    x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.0, 0.005]))] = \
        np.inf
    m = draw(st.integers(1, 5))
    params = DetectorParams(lam=draw(st.sampled_from([0.5, 1.0])),
                            zeta=draw(st.sampled_from([0.25, 1.0])))
    return dict(
        flows=flows, buckets=buckets, x=x, params=params,
        burn=draw(st.integers(0, n_windows)), w_min=draw(st.integers(0, 6)),
        quantile=draw(st.sampled_from([0.5, 0.9, 1.0])),
        k=draw(st.integers(1, m)), m=m,
        finalize_at=draw(st.none() | st.integers(0, n_windows - 1)))


def _oracle_run(case):
    """The per-row session over every window of case: its records up to
    the first non-finite state, that error's message (None without one) and
    its thresholds."""
    knobs = (case["quantile"], case["k"], case["m"], case["w_min"])
    old = oracle.DetectorSession(case["params"], case["burn"], *knobs)
    records = []
    try:
        for w, xw in enumerate(case["x"]):
            if w == case["finalize_at"]:
                old.finalize()
            records += old.process_window(w, [
                (f, b, tuple(None if math.isnan(v) else v for v in row))
                for f, b, row in zip(case["flows"], case["buckets"],
                                     xw.tolist())])
    except FloatingPointError as exc:
        return records, str(exc), old.thresholds()
    return records, None, old.thresholds()


@settings(max_examples=250, deadline=None)
@given(detector_cases(), st.sets(st.integers(1, 39), max_size=6))
def test_session_matches_per_row_oracle_bitwise(case, cuts):
    # blocks of 1, 7 and all windows, and blocks cut at random windows, each
    # straddling burn-in as they fall, give the per-row session's scores
    # and thresholds bit for bit, or its first non-finite state error
    records, error, thresholds = _oracle_run(case)
    assert [r.baseline_s for r in records] == [r.E for r in records]
    knobs = (case["quantile"], case["k"], case["m"], case["w_min"])
    x = case["x"]
    for split in (1, 7, len(x), cuts):
        new = DetectorSession(case["params"], case["flows"], case["buckets"],
                              case["burn"], Calibration(*knobs))
        edges = block_edges(len(x), split, keep=[case["finalize_at"] or 0])
        parts = []
        try:
            for a, b in zip(edges, edges[1:]):
                if a == case["finalize_at"]:
                    new.finalize()
                parts.append(new.process_window(a, x[a:b]))
        except FloatingPointError as exc:
            assert str(exc) == error, split
            continue
        assert error is None, split
        got = Scores.concat(parts)
        assert got.flow_id.tolist() == [r.flow_id for r in records]
        assert got.window.tolist() == [r.window for r in records]
        for name in (*"ESvusaz", "baseline_s"):
            col = getattr(got, name)
            ref = np.array([getattr(r, name) for r in records],
                           dtype=col.dtype)
            assert col.tobytes() == ref.tobytes(), (split, name)
        assert repr(thresholds_by_flow(new.thresholds())) == repr(thresholds)


@st.composite
def decision_cases(draw):
    """Flows with bursts of whole rows over up to 120 windows, under a
    calibration drawn over (q, k, m, w_min), m at times beyond the
    horizon, and block cuts: one-window blocks, or random cuts of which
    none falls on the burn-in, so the block holding it straddles it."""
    n = draw(st.integers(1, 4))
    n_windows = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 10.0, (n_windows, n, N_FEATURES))
    x[rng.random((n_windows, n)) < draw(st.sampled_from([0.05, 0.3]))] *= 50
    x[rng.random(x.shape) < 0.1] = np.nan
    m = draw(st.integers(1, 12) | st.just(10**12))
    burn = draw(st.integers(0, n_windows))
    cuts = draw(st.just(1) | st.sets(st.integers(1, n_windows)).map(
        lambda c: c - {burn}))
    return dict(
        flows=list(range(1, n + 1)),
        buckets=draw(st.lists(st.sampled_from("ab"), min_size=n,
                              max_size=n)),
        x=x, params=DetectorParams(), burn=burn,
        w_min=draw(st.integers(0, 10)),
        quantile=draw(st.floats(0.01, 1.0)),
        k=draw(st.integers(1, min(m, 12))), m=m, finalize_at=None,
        cuts=cuts)


@settings(max_examples=150, deadline=None)
@given(decision_cases())
def test_decisions_match_oracle_and_one_flags_call(case):
    # the session, cut into blocks, decides as the per-row session does,
    # bit for bit; and one flags call over the whole post-burn-in horizon
    # gives the alarms' flags that the blocks carried from one to the next
    records, error, oracle_thresholds = _oracle_run(case)
    assert error is None
    knobs = (case["quantile"], case["k"], case["m"], case["w_min"])
    x, burn = case["x"], case["burn"]
    session = DetectorSession(case["params"], case["flows"], case["buckets"],
                              burn, Calibration(*knobs))
    edges = block_edges(len(x), case["cuts"])
    got = Scores.concat([session.process_window(a, x[a:b])
                         for a, b in zip(edges, edges[1:])])
    for name in "Saz":
        col = getattr(got, name)
        ref = np.array([getattr(r, name) for r in records], dtype=col.dtype)
        assert col.tobytes() == ref.tobytes(), name
    assert repr(thresholds_by_flow(session.thresholds())) == \
        repr(oracle_thresholds)

    n = len(case["flows"])
    alarm = got.a.reshape(len(x), n)[burn:]
    assert not got.a.reshape(len(x), n)[:burn].any()
    z = run_flags(alarm, case["k"], case["m"])
    assert np.array_equal(z, got.z.reshape(len(x), n)[burn:])


def test_thresholds_freeze_every_column_as_calibrate_threshold_does():
    # one call over (rows x columns), each column's own ok rows, equals the
    # one-column case per column; fewer than w_min ok rows, or none, is NaN
    rng = np.random.default_rng(5)
    scores = rng.normal(size=(40, 6))
    ok = rng.random((40, 6)) < 0.6
    ok[:, 4] = False
    ok[:, 5] = np.arange(40) < 3
    for q in (0.01, 0.5, 0.9, 0.99, 1.0):
        got = thresholds(scores, ok, q, 4)
        for j in range(4):
            assert got[j] == calibrate_threshold(scores[ok[:, j], j], q)
        assert np.isnan(got[4:]).all()
    none = np.empty((0, 3), dtype=bool)
    assert np.isnan(thresholds(none, none, 0.5, 0)).all()


def test_flags_tail_is_bounded_by_the_windows_seen():
    # a K-of-M rule over 10**12 windows carries the alarm rows seen, no
    # more, and flags as a rule over the horizon does
    rng = np.random.default_rng(8)
    alarm = rng.random((50, 3)) < 0.2
    tail, z0 = np.empty((0, 3), dtype=bool), np.zeros(3, dtype=bool)
    parts = []
    for a, b in ((0, 1), (1, 20), (20, 50)):
        z, tail, z0 = flags(alarm[a:b], 2, 10**12, tail, z0)
        assert tail.shape == (b, 3)
        parts.append(z)
    assert np.array_equal(np.concatenate(parts), run_flags(alarm, 2, 50))
    _, tail, _ = flags(alarm, 2, 4, np.empty((0, 3), dtype=bool), z0)
    assert np.array_equal(tail, alarm[-3:])


def test_array_kernels_match_scalar_kernels_elementwise():
    # a window's arrays give each flow's scalar result: E, v and u bit for
    # bit, S within 4 ulp of libm
    rng = np.random.default_rng(3)
    p = DetectorParams()
    v = np.concatenate([rng.uniform(-200.0, 12.0, 200), [0.0, 1.0, -175.0]])
    u = rng.uniform(0.0, 5.0, v.size)
    e = rng.uniform(0.0, 4.0, v.size)
    s = event_surrogate(v, p.k, p.theta)
    vn, un = step(v, u, e, p)
    z = rng.normal(0.0, 3.0, (v.size, N_FEATURES))
    ev = evidence(z, 0.25)
    assert ulps(s, libm_surrogate(v, p.k, p.theta)).max() <= 4
    for i in range(v.size):
        assert ev[i] == oracle.evidence(z[i].tolist(), 0.25)
        assert (vn[i], un[i]) == oracle.step(float(v[i]), float(u[i]),
                                             float(e[i]), p)


# ---------------------------------------------------------------------------
# serialization


def test_scores_csv_round_trip(tmp_path):
    scores = Scores([1, 2, 1, 2], [0, 0, 1, 1], [0.5, 1.25, 1e-17, 2.0],
                    [0.01798, 0.5, 0.9999999, 0.25], [0.0, 1.0, 9.5, 0.0],
                    [0.0, 0.1, 3.3, 0.0], [0.01798, 0.5, 0.9999999, 0.25],
                    [False, True, True, False], [False, False, True, False],
                    [0.5, 1.25, 1e-17, 2.0])
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scores)
    back = read_scores_csv(path, recorded(path))
    assert len(back) == 4
    assert columns(back) == columns(scores)
    assert path.read_text().splitlines()[3] == \
        "1,1,1e-17,0.9999999,9.5,3.3,0.9999999,1,1,1e-17"


def test_scores_concat_stacks_rows_and_types_columns():
    one = Scores([7], [3], [0.5], [0.5], [0.0], [0.0], [0.5], [1], [0], [0.5])
    two = Scores.concat([one, one])
    assert len(two) == 2 and two.window.tolist() == [3, 3]
    assert two.flow_id.dtype == np.int64 and two.a.dtype == bool
    empty = Scores.concat([])
    assert len(empty) == 0 and empty.E.dtype == np.float64


def test_scores_csv_refuses_bad_header_and_short_rows(tmp_path):
    # the record binds the scores' bytes, header included: an edited copy
    # is refused, naming the copy and the record
    path = tmp_path / "scores.csv"
    write_scores_csv(path, Scores([1], [0], [0.5], [0.5], [0.0], [0.0],
                                  [0.5], [False], [False], [0.5]))
    bound = recorded(path, "detect_manifest.json")
    lines = path.read_text().splitlines()
    swapped = lines[0].replace("S,v", "v,S")
    for name, text in (("hdr.csv", "\n".join([swapped] + lines[1:]) + "\n"),
                       ("short.csv", "\n".join(lines + ["1,1,0.5"]) + "\n"),
                       ("empty.csv", "")):
        copy = tmp_path / name
        copy.write_text(text)
        shutil.copy(twin_path(path), twin_path(copy))
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(copy))}: sha256 [0-9a-f]{{64}} is not the "
                f"{bound[0]} that detect_manifest.json records$")):
            read_scores_csv(copy, bound)


@pytest.mark.parametrize("row, message", [
    ("1,1,nan,0.5,0,0,0.5,0,0,nan", "line 3: E = nan is not finite"),
    ("1,1,0.5,0.5,0,0,0.5,0,2,0.5", "line 3: z = 2 is not 0 or 1"),
    ("1,1,0.5,0.5,0,0,0.5,0,0,0.25", "line 3: baseline_s = 0.25 is not E"),
    ("1,1,0.5,0.5,0,0,0.25,0,0,0.5", "line 3: s = 0.25 is not S"),
    ("1,1,0.5,0,0,0,-0.0,0,0,0.5", "line 3: s = -0 is not S"),
    ("1,-1,0.5,0.5,0,0,0.5,0,0,0.5",
     "line 3: window = -1 is not a nonnegative integer"),
    # an integer in full, not as 9.0072e+15
    ("9007199254740992,1,0.5,0.5,0,0,0.5,0,0,0.5",
     "line 3: flow_id = 9007199254740992 is not a nonnegative integer"),
])
def test_scores_csv_refuses_values_the_writer_cannot_write(tmp_path, row,
                                                           message):
    # the row as a writer that wrote it would have bound it: in the text
    # and in a twin of its columns, a bool by its byte
    path = tmp_path / "scores.csv"
    write_scores_csv(path, Scores([1], [0], [0.5], [0.5], [0.0], [0.0],
                                  [0.5], [False], [False], [0.5]))
    with open(path, "a") as fh:
        fh.write(row + "\n")
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(twin_path(path), "wb") as fh:
        fh.write(hashlib.sha256(path.read_bytes()).digest())
        for j, (*_, dtype) in enumerate(table_columns(Scores)):
            np.save(fh, raw[:, j].astype(np.uint8).view(bool)
                    if dtype.kind == "b" else raw[:, j].astype(dtype))
    with pytest.raises(ValueError) as exc:
        read_scores_csv(path, recorded(path))
    assert str(exc.value).startswith(f"{path}: ")
    assert message in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(*(
    # windows distinct, so that no (flow, window) pair repeats
    [st.lists(st.integers(0, 2**53 - 1), min_size=n, max_size=n),
     st.lists(st.integers(0, 2**53 - 1), min_size=n, max_size=n,
              unique=True)]
    + [st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n)] * 4
    + [st.lists(st.booleans(), min_size=n, max_size=n)] * 2))))
def test_scores_csv_write_read_write_is_byte_identical(tmp_path_factory,
                                                       cols):
    # columns E, S, v and u; s is S and baseline_s is E, as the reader
    # requires
    f, w, e, s, v, u, a, z = cols
    d = tmp_path_factory.mktemp("scores")
    write_scores_csv(d / "a.csv", Scores(f, w, e, s, v, u, s, a, z, e))
    write_scores_csv(d / "b.csv", read_scores_csv(d / "a.csv",
                                                  recorded(d / "a.csv")))
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()


def test_thresholds_round_trip(tmp_path):
    session = small_session(flows=(1, 2))
    run_session(session, {1: lambda w: (100.0,) * N_FEATURES,
                          2: lambda w: (None,) * N_FEATURES}, 61)
    path = tmp_path / "detect_manifest.json"
    record = detect_record(session, RunManifest(1, "h"))
    write_thresholds(path, record)
    loaded = read_thresholds(path)
    assert loaded.quantile == 0.9
    assert loaded.k == 3 and loaded.m == 8
    assert loaded.flows == session.thresholds()
    assert repr(loaded) == repr(record)
    # the all-missing flow scores flat at the resting surrogate
    assert loaded.flows[2].detector == pytest.approx(
        event_surrogate(0.0, 4.0, 1.0), rel=1e-12)
