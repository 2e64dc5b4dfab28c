"""The per-row detector that the window-synchronous session replaced.

Kept as the differential oracle of `flowgate.detector.DetectorSession`: the
session, its scalar kernels and the per-row normalizer are the old code,
cut to the detector terms that remain (the graph coupling, drive noise,
reset, bias, score mixing and norm orders other than 2 are gone from both).
It shares the parameter type `DetectorParams` and the normalizer's
constants, which it reads but does not compute with, and one kernel: the
session scores each row with the array surrogate, whose numpy exp may sit
an ulp or two from libm's, so that its scores stay comparable bit for bit.
`event_surrogate` here is the libm formula, the surrogate's reference.
Rows are (flow_id, bucket, x) with x the raw 7-component vector, None
marking a missing component.

`RowNormalizer` is the window normalizer that the block normalizer
(`flowgate.features.Normalizer`) replaced: one window's matrix per call,
folded row by row, with the same constructor and state.

`derive_flags` rebuilds alarm and actionable streams from stored scores
with the oracle's own persistence step, one flow at a time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from flowgate.detector import DetectorParams
from flowgate.detector import event_surrogate as array_surrogate
from flowgate.features import (
    CLIP,
    EPS_VAR,
    LAMBDA_MEAN,
    LAMBDA_VAR,
    N_FEATURES,
    SLOW_FACTOR,
)

W_MIN_DEFAULT = 50


def f_sat(v: float, alpha: float, kappa: float) -> float:
    """Saturating self-excitation alpha*v^2 / (1 + kappa*v^2)."""
    v2 = v * v
    return alpha * v2 / (1.0 + kappa * v2)


def event_surrogate(v: float, k: float, theta: float) -> float:
    """Logistic event surrogate S = 1 / (1 + exp(-k (v - theta)))."""
    x = -k * (v - theta)
    if x > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(x))


def evidence(z_vec, zeta: float) -> float:
    """Evidence drive: zeta * ||z||_2."""
    return zeta * math.sqrt(sum(z * z for z in z_vec))


def step(v: float, u: float, drive: float,
         params: DetectorParams) -> tuple[float, float]:
    """One Euler update of (v, u) under the evidence drive."""
    dv = (f_sat(v, params.alpha, params.kappa) + params.beta * v - u + drive
          - params.lam * v - params.chi * (v - params.v_rest))
    v_next = v + params.dt * dv
    if v_next < 0.0:
        v_next = 0.0
    elif v_next > params.v_max:
        v_next = params.v_max
    u_next = u + params.dt * (params.a * params.b * v - (params.a + params.mu) * u)
    return v_next, u_next


def calibrate_threshold(scores, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*N)-th smallest score."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    xs = sorted(scores)
    n = len(xs)
    if n == 0:
        raise ValueError("cannot calibrate on an empty score set")
    rank = min(n, max(1, math.ceil(q * n)))
    return xs[rank - 1]


class PersistenceState:
    """K-of-M alarm persistence with M-window all-clear hysteresis."""

    __slots__ = ("ring", "total", "clear_run", "z")

    def __init__(self, m: int):
        self.ring = deque(maxlen=m)
        self.total = 0
        self.clear_run = 0
        self.z = False


def persistence_update(state: PersistenceState, alarm: bool, k: int, m: int) -> bool:
    """Feed one alarm; returns the updated actionable flag.

    The flag sets when >= k of the last m alarms fired (absent history counts
    zero) and, once set, clears only after m consecutive alarm-free windows.
    """
    if not (1 <= k <= m):
        raise ValueError("need 1 <= k <= m")
    if len(state.ring) == state.ring.maxlen:
        state.total -= state.ring[0]
    a = 1 if alarm else 0
    state.ring.append(a)
    state.total += a
    state.clear_run = 0 if alarm else state.clear_run + 1
    if state.total >= k:
        state.z = True
    elif state.z and state.clear_run >= m:
        state.z = False
    return state.z


class Normalizer:
    """Per-bucket EMA mean/variance z-scoring with deferred updates.

    Each bucket keeps running (m, q) per feature. A row is scored with the
    state as-is and only then folded into the state, so the score at time t
    never sees x_t. Missing components (None) score 0 and leave state alone.
    """

    def __init__(self):
        self.lambda_mean = LAMBDA_MEAN
        self.lambda_var = LAMBDA_VAR
        self._m: dict[str, list] = {}
        self._q: dict[str, list] = {}
        self._seen: dict[str, list] = {}
        self._updates: dict[str, int] = {}
        self._slow = False

    def bucket_updates(self, bucket: str) -> int:
        """Rows that updated at least one component of this bucket."""
        return self._updates.get(bucket, 0)

    def enter_slow_phase(self) -> None:
        """Scale adaptation rates down once calibration is frozen."""
        if not self._slow:
            self.lambda_mean *= SLOW_FACTOR
            self.lambda_var *= SLOW_FACTOR
            self._slow = True

    def score_and_update(self, bucket: str, x) -> list[float]:
        m = self._m.get(bucket)
        if m is None:
            m = [0.0] * N_FEATURES
            q = [EPS_VAR] * N_FEATURES
            seen = [False] * N_FEATURES
            self._m[bucket] = m
            self._q[bucket] = q
            self._seen[bucket] = seen
            self._updates[bucket] = 0
        else:
            q = self._q[bucket]
            seen = self._seen[bucket]
        lm = self.lambda_mean
        lv = self.lambda_var
        z = [0.0] * N_FEATURES
        touched = False
        for k in range(N_FEATURES):
            xk = x[k]
            if xk is None:
                continue
            touched = True
            if not seen[k]:
                m[k] = xk
                seen[k] = True
            zk = (xk - m[k]) / math.sqrt(q[k] + EPS_VAR)
            if zk > CLIP:
                zk = CLIP
            elif zk < -CLIP:
                zk = -CLIP
            z[k] = zk
            d = xk - m[k]
            m[k] = m[k] + lm * d
            q[k] = (1.0 - lv) * q[k] + lv * d * d
        if touched:
            self._updates[bucket] += 1
        return z


class RowNormalizer:
    """Per-bucket EMA mean/variance z-scoring of one window at a time.

    Built with each row's bucket, in the row order of the window matrices it
    is fed. A row is scored with its bucket's state as-is and only then
    folded into it; rows of one bucket fold in row order within a window.
    Missing components (NaN) score 0 and leave state alone.
    """

    def __init__(self, buckets):
        self.lambda_mean = LAMBDA_MEAN
        self.lambda_var = LAMBDA_VAR
        code = {b: i for i, b in enumerate(dict.fromkeys(buckets))}
        self._codes = [code[b] for b in buckets]
        self._m = [[None] * N_FEATURES for _ in code]  # None: not seen yet
        self._q = [[EPS_VAR] * N_FEATURES for _ in code]
        self._updates = [0] * len(code)  # rows that updated any component
        self._slow = False

    def enter_slow_phase(self) -> None:
        if not self._slow:
            self.lambda_mean *= SLOW_FACTOR
            self.lambda_var *= SLOW_FACTOR
            self._slow = True

    def score_and_update(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Score and fold one window's (rows x features) matrix. Returns the
        clipped z-scores and, per row, the bucket's update count before that
        row was folded in."""
        lm = self.lambda_mean
        lv = self.lambda_var
        keep = 1.0 - lv
        updates = self._updates
        zs = []
        counts = []
        for b, xs in zip(self._codes, x.tolist()):
            m, q = self._m[b], self._q[b]
            counts.append(updates[b])
            z = [0.0] * N_FEATURES
            touched = False
            for k, xk in enumerate(xs):
                if xk != xk:  # NaN: missing
                    continue
                touched = True
                mk = xk if m[k] is None else m[k]  # first sighting: m = x
                d = xk - mk
                zk = d / math.sqrt(q[k] + EPS_VAR)
                z[k] = CLIP if zk > CLIP else -CLIP if zk < -CLIP else zk
                m[k] = mk + lm * d
                q[k] = keep * q[k] + lv * d * d
            if touched:
                updates[b] += 1
            zs.append(z)
        return (np.array(zs, dtype=np.float64).reshape(len(zs), N_FEATURES),
                np.array(counts, dtype=np.int64))


class ScoreRecord(NamedTuple):
    flow_id: int
    window: int
    E: float
    S: float
    v: float
    u: float
    s: float
    a: bool
    z: bool
    baseline_s: float


@dataclass
class _FlowState:
    v: float
    u: float
    windows_seen: int = 0
    burn_scores: list = field(default_factory=list)
    burn_baseline: list = field(default_factory=list)
    threshold: float | None = None
    baseline_threshold: float | None = None
    persistence: PersistenceState | None = None


class DetectorSession:
    """Runs the full scoring pipeline over a (window, flow)-ordered stream.

    Rows are (flow_id, bucket, x) with x the raw 7-component feature vector
    (None = missing component). Burn-in scores are collected once a flow has
    seen w_min windows and its bucket has absorbed 2*w_min updates (the
    normalizer warm-up stays out of the calibration set); thresholds freeze
    at the burn-in boundary and new flows after it never alarm.
    """

    def __init__(self, params: DetectorParams, burn_in_windows: int,
                 quantile: float, k_persist: int = 3, m_persist: int = 8,
                 w_min: int = W_MIN_DEFAULT):
        params.validate()
        if not (1 <= k_persist <= m_persist):
            raise ValueError("need 1 <= k <= m")
        if burn_in_windows < 0:
            raise ValueError("burn_in_windows must be nonnegative")
        self.params = params
        self.burn_in_windows = burn_in_windows
        self.quantile = quantile
        self.k_persist = k_persist
        self.m_persist = m_persist
        self.w_min = w_min
        self.normalizer = Normalizer()
        self._flows: dict[int, _FlowState] = {}
        self._calibrated = False

    def flow_state(self, flow_id: int) -> _FlowState:
        st = self._flows.get(flow_id)
        if st is None:
            st = _FlowState(v=self.params.v_rest, u=0.0,
                            persistence=PersistenceState(self.m_persist))
            self._flows[flow_id] = st
        return st

    def finalize(self) -> None:
        """Freeze calibration explicitly (no-op once past burn-in)."""
        if not self._calibrated:
            self._finalize_calibration()

    def _finalize_calibration(self) -> None:
        for st in self._flows.values():
            if len(st.burn_scores) >= self.w_min:
                st.threshold = calibrate_threshold(st.burn_scores, self.quantile)
                st.baseline_threshold = calibrate_threshold(st.burn_baseline,
                                                            self.quantile)
        self.normalizer.enter_slow_phase()
        self._calibrated = True

    def process_window(self, window: int, rows) -> list[ScoreRecord]:
        """Score one window. Rows must arrive in a fixed flow order."""
        if window >= self.burn_in_windows and not self._calibrated:
            self._finalize_calibration()
        p = self.params
        burn = window < self.burn_in_windows
        min_bucket = 2 * self.w_min
        out = []
        for flow_id, bucket, x in rows:
            st = self.flow_state(flow_id)
            bucket_mature = (not burn
                             or self.normalizer.bucket_updates(bucket) >= min_bucket)
            z_vec = self.normalizer.score_and_update(bucket, x)
            e = evidence(z_vec, p.zeta)
            s_val = float(array_surrogate(st.v, p.k, p.theta))
            if burn:
                alarm = False
                actionable = False
                if st.windows_seen >= self.w_min and bucket_mature:
                    st.burn_scores.append(s_val)
                    st.burn_baseline.append(e)
            else:
                alarm = st.threshold is not None and s_val >= st.threshold
                actionable = persistence_update(st.persistence, alarm,
                                                self.k_persist, self.m_persist)
            out.append(ScoreRecord(flow_id, window, e, s_val, st.v, st.u,
                                   s_val, alarm, actionable, e))
            st.v, st.u = step(st.v, st.u, e, p)
            if not (math.isfinite(st.v) and math.isfinite(st.u)):
                raise FloatingPointError(
                    f"non-finite detector state for flow {flow_id} at window {window}")
            st.windows_seen += 1
        return out

    def thresholds(self) -> dict:
        return {
            f: {"detector": st.threshold, "baseline": st.baseline_threshold}
            for f, st in sorted(self._flows.items())
        }




def derive_flags(window_scores, threshold, k: int, m: int,
                 burn_in_windows: int) -> tuple[np.ndarray, np.ndarray]:
    """Alarm and actionable streams from stored scores and a frozen threshold.

    window_scores is an iterable of (window, score) in window order; windows
    before burn_in_windows neither alarm nor feed persistence, and a None
    threshold never alarms.
    """
    alarms, flags = [], []
    state = PersistenceState(m)
    for window, score in window_scores:
        a = z = False
        if window >= burn_in_windows:
            a = threshold is not None and score >= threshold
            z = persistence_update(state, a, k, m)
        alarms.append(a)
        flags.append(z)
    return np.array(alarms, dtype=bool), np.array(flags, dtype=bool)
