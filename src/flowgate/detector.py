"""Two-state detector dynamics, burn-in thresholds and K-of-M flags.

Each flow carries a fast excitable state v and a slow recovery state u,
driven by normalized evidence. The event surrogate S = sigmoid(k.(v - theta))
is the score; per-flow alarm thresholds are nearest-rank quantiles of the
flow's own burn-in scores, frozen afterwards. A K-of-M rule with hysteresis
turns alarms into the actionable flag that drives gating.

Time indexing: the score at window t reads the state *before* the step that
absorbs window t's evidence, so evidence influences scores from t+1 on. The
memoryless baseline scores window t's evidence directly.

Layout: the session scores a block of consecutive windows per call, over a
fixed, ordered set of flows (the rows of each window's feature matrix). The
normalizer works on the whole block, the evidence and the surrogate are
one numpy expression each over it, and the (v, u) step runs once per
window over the flows' arrays. The decisions are two
array functions: thresholds freezes every flow's thresholds in one call,
and flags turns a block's alarms into K-of-M flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from flowgate.features import N_FEATURES, Normalizer
from flowgate.trace import (
    Sha256,
    Table,
    TableStream,
    column,
    from_json,
    load_json,
    read_table,
    to_json,
    write_json,
    write_table,
)


@dataclass
class DetectorParams:
    alpha: float = 1.0
    kappa: float = 1.0
    beta: float = 0.1
    lam: float = 0.5
    chi: float = 0.2
    a: float = 0.1
    b: float = 0.5
    mu: float = 0.05
    dt: float = 0.25
    k: float = 4.0
    theta: float = 1.0
    zeta: float = 0.25
    v_rest: float = 0.0
    v_max: float = 10.0

    def validate(self) -> None:
        """Refuse, naming each key and its value, knobs the dynamics cannot
        run with."""
        def key(name):
            return f"{name} = {getattr(self, name)!r}"

        bad = [f"{key(n)} is not positive" for n in ("dt", "k")
               if not getattr(self, n) > 0]
        bad += [f"{key(n)} is negative" for n in (
                "alpha", "kappa", "a", "mu", "b", "zeta", "lam", "chi")
                if not getattr(self, n) >= 0]
        if not self.a + self.mu > 0:
            bad.append(f"{key('a')} and {key('mu')} break a + mu > 0")
        if not 0 <= self.v_rest < self.v_max:
            bad.append(f"{key('v_rest')} and {key('v_max')} break "
                       "0 <= v_rest < v_max")
        if bad:
            raise ValueError(bad[0])


def f_sat(v, alpha: float, kappa: float):
    """Saturating self-excitation alpha*v^2 / (1 + kappa*v^2), elementwise."""
    v2 = v * v
    return alpha * v2 / (1.0 + kappa * v2)


def event_surrogate(v, k: float, theta: float):
    """Logistic event surrogate S = 1 / (1 + exp(-k (v - theta))),
    elementwise; exactly 0 where -k (v - theta) > 700, which also keeps
    exp from overflowing. numpy's exp may differ from libm's by an ulp or
    two, so S is within 4 ulp of the libm formula."""
    x = -k * (v - theta)
    return np.where(x > 700.0, 0.0,
                    1.0 / (1.0 + np.exp(np.minimum(x, 700.0))))


def evidence(z, zeta: float):
    """Evidence drive zeta * ||z||_2 over the last axis of z: one row's
    vector, or a window's (rows x features) matrix."""
    z = np.asarray(z, dtype=np.float64)
    return zeta * np.sqrt(np.sum(z * z, axis=-1))


def step(v, u, drive, params: DetectorParams):
    """One Euler update of (v, u) under the evidence drive, elementwise."""
    dv = (f_sat(v, params.alpha, params.kappa) + params.beta * v - u + drive
          - params.lam * v - params.chi * (v - params.v_rest))
    v_next = v + params.dt * dv
    v_max = params.v_max
    # NaN and -0.0 pass through, as they do a scalar clamp
    v_next = np.where(v_next < 0.0, 0.0,
                      np.where(v_next > v_max, v_max, v_next))
    u_next = u + params.dt * (params.a * params.b * v - (params.a + params.mu) * u)
    return v_next, u_next


# ---------------------------------------------------------------------------
# decisions: burn-in thresholds and K-of-M flags


@dataclass
class Calibration:
    """How a session calibrates and persists alarms: the burn-in quantile
    of each flow's threshold, the K-of-M persistence rule (k of the last m
    windows; m is also the grace that recall gives an episode's end), and
    w_min, the burn-in windows a flow must have seen before its scores are
    collected and the scores it needs for a threshold. detect_manifest.json
    extends this record."""

    quantile: float = 0.99
    k: int = 3
    m: int = 8
    w_min: int = 50

    def check(self, path=None) -> None:
        """Refuse, naming the key (and the path, when given), a quantile
        outside (0, 1), a negative w_min and k and m with 1 <= k <= m
        broken."""
        if not 0.0 < self.quantile < 1.0:
            problem = f"quantile = {self.quantile!r} is not in (0, 1)"
        elif self.w_min < 0:
            problem = f"w_min = {self.w_min} is not a nonnegative integer"
        elif not 1 <= self.k <= self.m:
            problem = f"k = {self.k} and m = {self.m} break 1 <= k <= m"
        else:
            return
        raise ValueError(f"{path}: {problem}" if path else problem)


@dataclass
class FlowThresholds:
    """A flow's frozen alarm thresholds on the detector's score s and on
    the memoryless baseline's score E; NaN (null in JSON) for none."""

    detector: float = field(metadata={"null": math.nan})
    baseline: float = field(metadata={"null": math.nan})


@dataclass(kw_only=True)
class DetectManifest(Calibration):
    """detect_manifest.json, a detect run's one record: the sha256 of its
    world's manifest.json, its knobs, the sha256 of the scores.csv it wrote
    and flow thresholds, every key required. The burn-in and the rows
    follow from the world's config."""

    every_key_required: ClassVar[bool] = True

    manifest_sha256: Sha256
    detector_params: DetectorParams
    scores_sha256: Sha256
    flows: dict[int, FlowThresholds]


def thresholds(scores, ok, q: float, w_min: int) -> np.ndarray:
    """Nearest-rank quantile of each column of scores (rows x columns) over
    its ok rows: the ceil(q*N)-th smallest of the column's N ok scores, NaN
    for a column with fewer than w_min of them or none."""
    n = np.count_nonzero(ok, axis=0)
    rank = np.minimum(n, np.maximum(1, np.ceil(q * n).astype(np.int64)))
    # a partition at every rank puts each column's rank-th smallest in
    # place; NaN goes last, so a column with none reads the NaN row added
    xs = np.full((len(scores) + 1, len(n)), np.nan)
    np.copyto(xs[:-1], scores, where=ok)
    at = (rank - 1) % len(xs)
    xs.partition(at, axis=0)
    return np.where(n >= w_min, xs[at, np.arange(len(n))], np.nan)


def calibrate_threshold(scores, q: float) -> float:
    """Nearest-rank quantile of a list of scores, as a float (delay and
    timing percentiles call it with q = pct / 100)."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    xs = np.asarray(scores, dtype=np.float64).reshape(-1, 1)
    if not xs.size:
        raise ValueError("cannot calibrate on an empty score set")
    return float(thresholds(xs, np.broadcast_to(True, xs.shape), q, 1)[0])


def flags(alarm, k: int, m: int, tail, z0):
    """K-of-M flags, with M-window all-clear hysteresis, of a block's alarm
    rows (windows x flows) after tail, the last min(m - 1, windows seen)
    alarm rows, whose flags ended at z0. Returns the block's flags, its
    tail and its last flags. A flag sets when >= k of the flow's last m
    alarms fired (absent history counts zero) and clears after m
    alarm-free windows: it is on where the last window holding >= k comes
    after the last holding none."""
    Calibration(k=k, m=m).check()
    a = np.concatenate([tail, alarm])
    fired = np.cumsum(np.vstack([np.zeros_like(z0), a]), axis=0)
    end = np.arange(len(tail), len(a)) + 1
    count = fired[end] - fired[np.maximum(end - min(m, len(a)), 0)]
    # row 0, before the block, holds z0 as a window of k after one of none
    t = np.arange(1, len(alarm) + 1)[:, None]
    on = np.where(z0, 0, -1)
    last_k = np.maximum.accumulate(
        np.vstack([on, np.where(count >= k, t, -1)]))
    last_none = np.maximum.accumulate(
        np.vstack([-1 - on, np.where(count == 0, t, -1)]))
    z = last_k > last_none
    return z[1:], a[max(0, len(a) - m + 1):], z[-1]


# ---------------------------------------------------------------------------
# streaming session


@dataclass(frozen=True, eq=False)
class Scores(Table):
    """scores.csv: one row per (flow, window), with the flow and window,
    the evidence E, the surrogate S, the pre-step state v and u, the score
    s, which is S, the alarm a, the actionable flag z, and baseline_s, the
    memoryless baseline's score, which is E."""

    flow_id: np.ndarray = column("d", np.int64)
    window: np.ndarray = column("d", np.int64)
    E: np.ndarray = column("r", np.float64)
    S: np.ndarray = column("r", np.float64)
    v: np.ndarray = column("r", np.float64)
    u: np.ndarray = column("r", np.float64)
    s: np.ndarray = column("r", np.float64)
    a: np.ndarray = column("d", bool)
    z: np.ndarray = column("d", bool)
    baseline_s: np.ndarray = column("r", np.float64)


# Windows per process_window call in detect and the scoring bench. A call
# has a fixed cost, so one window per call costs more per row; detect
# publishes each block to the scores writer, which formats the last block
# after the scoring ends, so one block for the whole horizon costs more too.
# On the demo world blocks of 16 to 256 windows timed alike; on the
# 200-window audit world 32 beat 64 by about 4% and 128 or more lost 10% or
# more (BENCH_22.json, block_size).
BLOCK_WINDOWS = 64


class DetectorSession:
    """Runs the full scoring pipeline, a block of windows of all flows at a
    time.

    Built with the flow ids and their buckets, in the row order of the window
    matrices fed to process_window. Burn-in scores are collected once the
    session has seen w_min windows and a flow's bucket has absorbed 2*w_min
    updates (the normalizer warm-up stays out of the calibration set);
    thresholds freeze at the burn-in boundary, and a flow with fewer than
    w_min collected scores gets none and never alarms. Of the calibration
    only k and m are checked: the kernels also take a quantile of 1, the
    burn-in maximum, which Calibration.check refuses.
    """

    def __init__(self, params: DetectorParams, flow_ids, buckets,
                 burn_in_windows: int, calibration: Calibration):
        params.validate()
        if burn_in_windows < 0:
            raise ValueError("burn_in_windows must be nonnegative")
        self.flow_ids = list(flow_ids)
        self._flow_col = np.asarray(self.flow_ids, dtype=np.int64)
        buckets = list(buckets)
        if len(buckets) != len(self.flow_ids):
            raise ValueError("need one bucket per flow")
        n = len(self.flow_ids)
        Calibration(k=calibration.k, m=calibration.m).check()
        self.params = params
        self.burn_in_windows = burn_in_windows
        self.calibration = calibration
        self.normalizer = Normalizer(buckets)
        self.v = np.full(n, params.v_rest)
        self.u = np.zeros(n)
        self._windows_seen = 0
        # burn-in rows of S and E, side by side, and the cells collected
        self._burn = [np.empty((0, 2 * n))]
        self._burn_ok = [np.empty((0, 2 * n), dtype=bool)]
        self._threshold = np.full(2 * n, np.nan)  # on S, on E; NaN: none
        self._calibrated = False
        self._tail = np.empty((0, n), dtype=bool)  # flags's carried state
        self._z = np.zeros(n, dtype=bool)

    def finalize(self) -> None:
        """Freeze calibration explicitly (no-op once past burn-in)."""
        if not self._calibrated:
            self._finalize_calibration()

    def _finalize_calibration(self) -> None:
        c = self.calibration
        self._threshold = thresholds(np.concatenate(self._burn),
                                     np.concatenate(self._burn_ok),
                                     c.quantile, c.w_min)
        self.normalizer.enter_slow_phase()
        self._calibrated = True

    def process_window(self, window: int, x: np.ndarray) -> Scores:
        """Score the block of windows window, window + 1, ...: x is their
        (windows x flows x 7) feature array in the session's flow order, NaN
        marking a missing value. Returns their rows in (window, flow) order.
        A block that straddles the burn-in boundary is scored in two parts,
        so a caller may cut the windows into blocks anywhere."""
        n = len(self.flow_ids)
        if x.shape[1:] != (n, N_FEATURES):
            raise ValueError(f"window {window}: feature block of shape "
                             f"{x.shape}, expected (windows, {n}, "
                             f"{N_FEATURES})")
        cut = self.burn_in_windows - window
        if 0 < cut < len(x):
            return Scores.concat([self._score_block(window, x[:cut]),
                                  self._score_block(window + cut, x[cut:])])
        return self._score_block(window, x)

    def _score_block(self, window: int, x: np.ndarray) -> Scores:
        """process_window for a block wholly in burn-in or wholly after."""
        n_windows, n = x.shape[:2]
        burn = window < self.burn_in_windows
        if not burn and not self._calibrated:
            self._finalize_calibration()
        p = self.params
        z, bucket_updates = self.normalizer.score_and_update(x)
        e = evidence(z, p.zeta)
        # v[j], u[j]: the state window + j is scored with; row j + 1 is
        # the state after its step
        v = np.empty((n_windows + 1, n))
        u = np.empty((n_windows + 1, n))
        v[0], u[0] = self.v, self.u
        # an overflow is refused below, as the error the caller sees
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n_windows):
                v[j + 1], u[j + 1] = step(v[j], u[j], e[j], p)
        bad = ~(np.isfinite(v[1:]) & np.isfinite(u[1:]))
        if bad.any():
            j, i = divmod(int(np.argmax(bad)), n)
            raise FloatingPointError(
                "non-finite detector state for flow "
                f"{self.flow_ids[i]} at window {window + j}")
        self.v, self.u = v[-1].copy(), u[-1].copy()
        v, u = v[:-1], u[:-1]
        s = event_surrogate(v, p.k, p.theta)
        c = self.calibration
        if burn:
            alarm = actionable = np.zeros((n_windows, n), dtype=bool)
            skip = max(0, c.w_min - self._windows_seen)
            self._burn.append(np.hstack([s, e])[skip:])
            self._burn_ok.append(np.tile(bucket_updates[skip:] >= 2 * c.w_min,
                                         2))
        else:
            alarm = s >= self._threshold[:n]
            actionable, self._tail, self._z = flags(alarm, c.k, c.m,
                                                    self._tail, self._z)
        self._windows_seen += n_windows
        return Scores(np.tile(self._flow_col, n_windows),
                      np.repeat(np.arange(window, window + n_windows), n),
                      e.ravel(), s.ravel(), v.ravel(), u.ravel(), s.ravel(),
                      alarm.ravel(), actionable.ravel(), e.ravel())

    def thresholds(self) -> dict[int, FlowThresholds]:
        """Each flow's thresholds by id: NaN until frozen, and when none."""
        return {f: FlowThresholds(d, b) for f, d, b in sorted(zip(
            self.flow_ids, *self._threshold.reshape(2, -1).tolist()))}


# ---------------------------------------------------------------------------
# on-disk formats

def write_scores_csv(path, scores: Scores | TableStream) -> Scores:
    """Write scores to the CSV at path, one line per row in table order,
    and its twin, and return them: a Scores table through write_table, or
    the rows of a TableStream of Scores at path, which it closes."""
    if isinstance(scores, TableStream):
        return scores.close()
    write_table(path, scores)
    return scores


def read_scores_csv(path, recorded) -> Scores:
    """Load a scores CSV bound to the record recorded names, refusing,
    naming the path and the line, what read_table refuses, and an s other
    than S and a baseline_s other than E, bit for bit (row i is line
    i + 2)."""
    scores = read_table(Scores, path, recorded)
    for name, of in (("s", "S"), ("baseline_s", "E")):
        col = getattr(scores, name)
        same = col.view(np.int64) == getattr(scores, of).view(np.int64)
        if not same.all():
            i = int(np.argmin(same))
            raise ValueError(f"{path}: line {i + 2}: {name} = {col[i]:g} "
                             f"is not {of}")
    return scores


def write_thresholds(path, record: DetectManifest) -> None:
    write_json(path, to_json(record))


def read_thresholds(path) -> DetectManifest:
    """Load a detect run's record, refusing, naming the path and the key,
    what from_json refuses (a missing or unknown key, a sha256 that is not
    64 lowercase hex digits, a flow key that is not an integer, a threshold
    that is neither a finite number nor null) and what Calibration.check
    refuses."""
    doc = from_json(DetectManifest, load_json(path), path)
    doc.check(path)
    return doc
