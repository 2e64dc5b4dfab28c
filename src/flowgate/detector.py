"""Two-state detector dynamics, quantile calibration, and persistence logic.

Each flow carries a fast excitable state v and a slow recovery state u,
driven by normalized evidence. The event surrogate S = sigmoid(k.(v - theta))
is the score; per-flow alarm thresholds are nearest-rank quantiles of the
flow's own burn-in scores, frozen afterwards. A K-of-M rule with hysteresis
turns alarms into the actionable flag that drives gating.

Time indexing: the score at window t reads the state *before* the step that
absorbs window t's evidence, so evidence influences scores from t+1 on. The
memoryless baseline scores window t's evidence directly.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from flowgate.features import N_FEATURES, Normalizer, NormalizerConfig

W_MIN_DEFAULT = 50


@dataclass
class DetectorParams:
    alpha: float = 1.0
    kappa: float = 1.0
    beta: float = 0.1
    gamma: float = 0.0
    lam: float = 0.5
    chi: float = 0.2
    a: float = 0.1
    b: float = 0.5
    mu: float = 0.05
    dt: float = 0.25
    k: float = 4.0
    theta: float = 1.0
    zeta: float = 0.25
    p: float = 2.0
    g: float = 0.0
    tau: int = 0
    r: float = 0.0
    eta1: float = 1.0
    eta2: float = 0.0
    v_rest: float = 0.0
    v_max: float = 10.0
    noise_std: float = 0.0

    def validate(self, rho: float = 0.0) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.kappa < 0 or self.alpha < 0:
            raise ValueError("alpha and kappa must be nonnegative")
        if self.a < 0 or self.mu < 0 or self.a + self.mu <= 0:
            raise ValueError("need a, mu >= 0 with a + mu > 0")
        if self.b < 0 or self.zeta < 0 or self.r < 0 or self.noise_std < 0:
            raise ValueError("b, zeta, r, noise_std must be nonnegative")
        if self.p < 1:
            raise ValueError("norm order p must be >= 1")
        if self.lam < 0 or self.chi < 0:
            raise ValueError("lam and chi must be nonnegative")
        if not (0 <= self.v_rest < self.v_max):
            raise ValueError("need 0 <= v_rest < v_max")
        if self.tau < 0:
            raise ValueError("coupling delay tau must be nonnegative")
        if self.g < 0:
            raise ValueError("coupling gain g must be nonnegative")
        if self.g > 0:
            bound, margin, ok = coupling_stability_margin(self, rho)
            if not ok:
                raise ValueError(
                    f"coupling bound {bound:.6g} not below damping margin {margin:.6g}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DetectorParams":
        return cls(**d)


def f_sat(v: float, alpha: float, kappa: float) -> float:
    """Saturating self-excitation alpha*v^2 / (1 + kappa*v^2)."""
    v2 = v * v
    return alpha * v2 / (1.0 + kappa * v2)


def f_sat_peak_slope(kappa: float, v_max: float) -> float:
    """Max of d/dv [v^2/(1+kappa v^2)] = 2v/(1+kappa v^2)^2 on [0, v_max].

    The alpha factor is deliberately excluded; the stability margin multiplies
    it back in.
    """
    def slope(v):
        d = 1.0 + kappa * v * v
        return 2.0 * v / (d * d)

    if kappa <= 0:
        return slope(v_max)
    v_crit = 1.0 / math.sqrt(3.0 * kappa)
    return slope(v_crit) if v_crit <= v_max else slope(v_max)


def event_surrogate(v: float, k: float, theta: float) -> float:
    """Logistic event surrogate S = 1 / (1 + exp(-k (v - theta)))."""
    x = -k * (v - theta)
    if x > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(x))


def evidence(z_vec, zeta: float, p: float) -> float:
    """Evidence drive: zeta * ||z||_p."""
    if math.isinf(p):
        return zeta * max((abs(z) for z in z_vec), default=0.0)
    if p == 2.0:
        return zeta * math.sqrt(sum(z * z for z in z_vec))
    if p == 1.0:
        return zeta * sum(abs(z) for z in z_vec)
    return zeta * sum(abs(z) ** p for z in z_vec) ** (1.0 / p)


def step(v: float, u: float, drive_e: float, drive_i: float,
         params: DetectorParams, noise: float = 0.0) -> tuple[float, float]:
    """One Euler update of (v, u) under total drive A = E + I."""
    s = event_surrogate(v, params.k, params.theta)
    dv = (f_sat(v, params.alpha, params.kappa) + params.beta * v + params.gamma
          - u + drive_e + drive_i - params.lam * v
          - params.chi * (v - params.v_rest))
    v_next = v + params.dt * dv + noise - params.r * s
    if v_next < 0.0:
        v_next = 0.0
    elif v_next > params.v_max:
        v_next = params.v_max
    u_next = u + params.dt * (params.a * params.b * v - (params.a + params.mu) * u)
    return v_next, u_next


def fixed_point_residual(v: float, u: float, drive: float,
                         params: DetectorParams) -> tuple[float, float]:
    """Residuals of the steady-state equations (v-equation, u-relation)."""
    rv = (f_sat(v, params.alpha, params.kappa) + params.beta * v + params.gamma
          - u + drive - params.lam * v - params.chi * (v - params.v_rest))
    ru = params.a * params.b * v - (params.a + params.mu) * u
    return rv, ru


def solve_fixed_point(params: DetectorParams, drive: float) -> tuple[float, float]:
    """Interior fixed point (v*, u*) for constant total drive, by bisection.

    Substitutes u* = a b v / (a + mu) and solves the scalar v-equation on
    [0, v_max]. Raises if the root is not bracketed there.
    """
    ab_over = params.a * params.b / (params.a + params.mu)

    def h(v):
        return (f_sat(v, params.alpha, params.kappa) + params.beta * v + params.gamma
                - ab_over * v + drive - params.lam * v
                - params.chi * (v - params.v_rest))

    lo, hi = 0.0, params.v_max
    hlo, hhi = h(lo), h(hi)
    if hlo == 0.0:
        v = lo
    elif hhi == 0.0:
        v = hi
    elif hlo * hhi > 0:
        raise ValueError("fixed point not bracketed in [0, v_max]")
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            hm = h(mid)
            if hm == 0.0:
                lo = hi = mid
                break
            if (hm > 0) == (hlo > 0):
                lo = mid
            else:
                hi = mid
        v = 0.5 * (lo + hi)
    return v, ab_over * v


def coupling_stability_margin(params: DetectorParams,
                              rho: float) -> tuple[float, float, bool]:
    """Linearized coupling-path bound vs local damping margin.

    bound = dt * g * rho(W) * k/4 (k/4 is the sigmoid's peak slope);
    margin = lam + chi - beta - alpha * s_max with s_max the peak slope of
    the saturating term on [0, v_max]. Safe iff bound < margin.
    """
    bound = params.dt * params.g * rho * params.k / 4.0
    margin = (params.lam + params.chi - params.beta
              - params.alpha * f_sat_peak_slope(params.kappa, params.v_max))
    return bound, margin, bound < margin


# ---------------------------------------------------------------------------
# calibration and persistence


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


# ---------------------------------------------------------------------------
# streaming session


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
                 w_min: int = W_MIN_DEFAULT,
                 normalizer_config: NormalizerConfig = NormalizerConfig(),
                 graph=None, seed: int | None = None):
        params.validate(rho=getattr(graph, "spectral_radius", 0.0) if graph else 0.0)
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
        self.normalizer = Normalizer(normalizer_config, N_FEATURES)
        self.graph = graph
        self._flows: dict[int, _FlowState] = {}
        self._calibrated = False
        self._rng = None
        if params.noise_std > 0:
            if seed is None:
                raise ValueError("noise_std > 0 requires a seed")
            self._rng = np.random.default_rng([seed, 0x0E15])
        # coupling reads S of 1 + tau windows ago, as vectors in graph order
        # (flows absent from a window hold 0), most recent last
        self._coupled = params.g != 0.0 and graph is not None
        if self._coupled:
            self._graph_pos = {f: i for i, f in enumerate(graph.flow_ids)}
            self._s_hist = deque(maxlen=1 + params.tau)

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
        drives = repeat(0.0)
        if self._coupled:
            rows = list(rows)
            pos = np.array([self._graph_pos.get(r[0], -1) for r in rows],
                           dtype=np.int64)
            drives = self._coupling(pos).tolist()
        for (flow_id, bucket, x), drive_i in zip(rows, drives):
            st = self.flow_state(flow_id)
            bucket_mature = (not burn
                             or self.normalizer.bucket_updates(bucket) >= min_bucket)
            z_vec = self.normalizer.score_and_update(bucket, x)
            e = evidence(z_vec, p.zeta, p.p)
            s_val = event_surrogate(st.v, p.k, p.theta)
            score = p.eta1 * s_val + p.eta2 * st.u
            if burn:
                alarm = False
                actionable = False
                if st.windows_seen >= self.w_min and bucket_mature:
                    st.burn_scores.append(score)
                    st.burn_baseline.append(e)
            else:
                alarm = st.threshold is not None and score >= st.threshold
                actionable = persistence_update(st.persistence, alarm,
                                                self.k_persist, self.m_persist)
            out.append(ScoreRecord(flow_id, window, e, s_val, st.v, st.u,
                                   score, alarm, actionable, e))
            noise = 0.0
            if self._rng is not None:
                noise = float(self._rng.normal(0.0, p.noise_std))
            st.v, st.u = step(st.v, st.u, e, drive_i, p, noise)
            if not (math.isfinite(st.v) and math.isfinite(st.u)):
                raise FloatingPointError(
                    f"non-finite detector state for flow {flow_id} at window {window}")
            st.windows_seen += 1
        # barrier: surrogates become visible to neighbors from the next window
        if self._coupled:
            s_now = np.zeros(len(self._graph_pos) + 1)  # last: not in graph
            s_now[pos] = [r.S for r in out]
            self._s_hist.append(s_now[:-1])
        return out

    def _coupling(self, pos: np.ndarray) -> np.ndarray:
        """I = g * W @ S(t - 1 - tau) for rows at graph positions pos (-1:
        not in the graph, drive 0); 0 until that much history exists."""
        if len(self._s_hist) < self._s_hist.maxlen:
            return np.zeros(pos.size)
        drive = self.params.g * self.graph.matvec(self._s_hist[0])
        return np.append(drive, 0.0)[pos]

    def thresholds(self) -> dict:
        return {
            f: {"detector": st.threshold, "baseline": st.baseline_threshold}
            for f, st in sorted(self._flows.items())
        }


def derive_flags(window_scores, threshold, k: int, m: int,
                 burn_in_windows: int) -> tuple[np.ndarray, np.ndarray]:
    """Alarm and actionable streams from stored scores and a frozen threshold.

    The same calibration/persistence path the live session uses; lets reports
    rebuild the baseline's flags from the score CSV. window_scores is an
    iterable of (window, score) in window order.
    """
    alarms, flags = [], []
    state = PersistenceState(m)
    for window, score in window_scores:
        if window < burn_in_windows or threshold is None:
            a = False
            z = persistence_update(state, False, k, m) if window >= burn_in_windows else False
        else:
            a = score >= threshold
            z = persistence_update(state, a, k, m)
        alarms.append(a)
        flags.append(z)
    return np.array(alarms, dtype=bool), np.array(flags, dtype=bool)


# ---------------------------------------------------------------------------
# on-disk formats

SCORES_HEADER = "flow_id,window,E,S,v,u,s,a,z,baseline_s"


def write_scores_csv(path, records) -> None:
    with open(path, "w") as fh:
        fh.write(SCORES_HEADER + "\n")
        for r in records:
            fh.write(f"{r.flow_id},{r.window},{r.E!r},{r.S!r},{r.v!r},{r.u!r},"
                     f"{r.s!r},{int(r.a)},{int(r.z)},{r.baseline_s!r}\n")


def read_scores_csv(path) -> list[ScoreRecord]:
    out = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            t = line.rstrip("\n").split(",")
            out.append(ScoreRecord(int(t[0]), int(t[1]), float(t[2]), float(t[3]),
                                   float(t[4]), float(t[5]), float(t[6]),
                                   t[7] == "1", t[8] == "1", float(t[9])))
    return out


def write_thresholds(path, session: DetectorSession) -> None:
    payload = {
        "quantile": session.quantile,
        "k": session.k_persist,
        "m": session.m_persist,
        "burn_in_windows": session.burn_in_windows,
        "w_min": session.w_min,
        "flows": {str(f): t for f, t in session.thresholds().items()},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_thresholds(path) -> dict:
    raw = json.loads(Path(path).read_text())
    raw["flows"] = {int(f): t for f, t in raw["flows"].items()}
    return raw
