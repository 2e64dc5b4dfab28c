"""Windowed per-flow features and the streaming normalizer.

The feature contract "timing+contention-v1" fixes a 7-component vector per
(flow, window): pkt_rate, byte_rate, iat_mean, iat_cv, pacing, share,
interference. The packet count N rides along as metadata (it decides IAT
missingness). IAT fields are missing when a window holds fewer than two
packets of the flow; missing components normalize to 0 and do not update the
normalizer state.
"""

from __future__ import annotations

from array import array

import numpy as np

from flowgate.trace import unique

FEATURE_CONTRACT = "timing+contention-v1"
FEATURE_NAMES = ("pkt_rate", "byte_rate", "iat_mean", "iat_cv",
                 "pacing", "share", "interference")
N_FEATURES = len(FEATURE_NAMES)
MICRO_BINS = 10  # sub-window bins of the pacing entropy


class FeatureTable:
    """Per-(flow, window) features: one (window x flow x feature) matrix.

    x[w] is window w's (n_flows x 7) matrix in flow_ids order, the input of
    one detector step, with the features in FEATURE_NAMES order; missing
    IAT stats are NaN.
    """

    def __init__(self, flow_ids, features):
        self.flow_ids = list(flow_ids)
        self.x = np.stack([f.T for f in features], axis=-1)
        self.horizon_windows = len(self.x)

    def row(self, fi: int, w: int) -> np.ndarray:
        """Flow fi's 7-vector at window w (a view into x)."""
        return self.x[w, fi]


def windowize(trace, graph) -> FeatureTable:
    """Aggregate a trace into per-(flow, window) features.

    Every flow in the flow table gets a row for every window in [0, H); flows
    with no packets in a window get N=0, zero rates, and missing IAT fields.
    The contention graph, which must hold exactly the flow table's flows,
    supplies the cliques and interference weights. Only packets of windows
    <= t influence rows at window t (pure windowing, no lookahead).
    """
    flow_ids = sorted(trace.flow_table)
    if graph.flow_ids != flow_ids:
        raise ValueError("contention graph flow ids do not match the flow table")
    nf = len(flow_ids)
    H = trace.horizon_windows
    dt_s = trace.window_us * 1e-6

    row = np.searchsorted(np.asarray(flow_ids, dtype=np.int64), trace.flow_id)
    win = trace.ts_us // trace.window_us
    code = row * H + win

    counts = np.bincount(code, minlength=nf * H).reshape(nf, H)
    bts = np.bincount(code, weights=trace.len_bytes.astype(np.float64),
                      minlength=nf * H).reshape(nf, H)
    pkt_rate = counts / dt_s
    byte_rate = bts / dt_s

    # within-window IATs of consecutive same-flow packets
    order = np.argsort(row, kind="stable")  # keeps ts order inside each flow
    srow, sts, swin = row[order], trace.ts_us[order], win[order]
    same = (srow[1:] == srow[:-1]) & (swin[1:] == swin[:-1])
    iat_us = (sts[1:] - sts[:-1])[same].astype(np.float64)
    pair_code = (srow[1:] * H + swin[1:])[same]
    # per-packet arrays go once used: together they set detect's peak RSS
    del order, srow, sts, swin, same
    iat_cnt = np.bincount(pair_code, minlength=nf * H).reshape(nf, H)
    iat_sum = np.bincount(pair_code, weights=iat_us,
                          minlength=nf * H).reshape(nf, H).astype(np.float64)
    iat_sq = np.bincount(pair_code, weights=iat_us * iat_us,
                         minlength=nf * H).reshape(nf, H).astype(np.float64)
    del iat_us, pair_code

    iat_mean = np.full((nf, H), np.nan)
    iat_cv = np.full((nf, H), np.nan)
    has = iat_cnt > 0
    mean_us = np.divide(iat_sum, iat_cnt, out=np.zeros_like(iat_sum), where=has)
    var_us = np.divide(iat_sq, iat_cnt, out=np.zeros_like(iat_sq), where=has)
    var_us = np.maximum(var_us - mean_us * mean_us, 0.0)
    iat_mean[has] = mean_us[has] * 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        cv = np.where(mean_us > 0, np.sqrt(var_us) / np.where(mean_us > 0, mean_us, 1.0), 0.0)
    iat_cv[has] = cv[has]

    # pacing: entropy of micro-bin occupancy inside the window, summed over
    # the occupied (flow, window, bin) cells only
    B = MICRO_BINS
    mbin = ((trace.ts_us - win * trace.window_us) * B) // trace.window_us
    occupied, n_in_bin = unique(code * B + mbin, return_counts=True)
    cell = occupied // B
    p = n_in_bin / counts.ravel()[cell]
    ent = np.bincount(cell, weights=-p * np.log(p),
                      minlength=nf * H).reshape(nf, H)
    pacing = np.zeros((nf, H))
    multi = counts > 1
    denom = np.log(np.minimum(B, counts[multi]).astype(np.float64))
    pacing[multi] = 1.0 - ent[multi] / denom

    # contention: clique byte totals and weighted neighbor rates
    clique_ids = sorted(graph.cliques)
    clique = np.searchsorted(clique_ids, [graph.clique_of[f] for f in flow_ids])
    cq_bytes = np.zeros((len(clique_ids), H))
    np.add.at(cq_bytes, clique, bts)
    share = bts / np.maximum(1.0, cq_bytes[clique])
    interference = graph.matvec(byte_rate)

    return FeatureTable(flow_ids, (pkt_rate, byte_rate, iat_mean, iat_cv,
                                   pacing, share, interference))


# ---------------------------------------------------------------------------
# streaming normalizer


LAMBDA_MEAN = 0.05  # EMA rate of each feature's mean
LAMBDA_VAR = 0.01  # EMA rate of each feature's variance
EPS_VAR = 1e-6  # the variance a feature starts from, and z's floor under it
CLIP = 8.0  # |z| bound
SLOW_FACTOR = 0.2  # applied to both rates after burn-in


class Normalizer:
    """Per-bucket EMA mean/variance z-scoring with deferred updates.

    Built with each row's bucket, in the row order of the window matrices it
    is fed. Each bucket keeps running (m, q) per feature. A row is scored
    with its bucket's state as-is and only then folded into it, so the score
    at time t never sees x_t; rows of one bucket fold in window order, and
    in row order within a window. Missing components (NaN) score 0 and
    leave state alone.
    """

    def __init__(self, buckets):
        self.lambda_mean = LAMBDA_MEAN
        self.lambda_var = LAMBDA_VAR
        code = {b: i for i, b in enumerate(dict.fromkeys(buckets))}
        codes = np.array([code[b] for b in buckets], dtype=np.int64)
        self._rows = [np.flatnonzero(codes == c) for c in code.values()]
        self._m = [[None] * N_FEATURES for _ in code]  # None: not seen yet
        self._q = [[EPS_VAR] * N_FEATURES for _ in code]
        self._updates = [0] * len(code)  # rows that updated any component
        self._slow = False

    def enter_slow_phase(self) -> None:
        """Scale adaptation rates down once calibration is frozen."""
        if not self._slow:
            self.lambda_mean *= SLOW_FACTOR
            self.lambda_var *= SLOW_FACTOR
            self._slow = True

    def score_and_update(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Score and fold a block of consecutive windows, x being their
        (windows x rows x features) array.

        Returns the clipped z-scores, shaped as x, and, per window and row,
        the bucket's update count before that row was folded in.

        Each (bucket, feature) pair is one chain: its present values in
        window, then row order. A scalar loop folds a chain and records each
        value's deviation d from the mean and the variance q it is scored
        against; z = d / sqrt(q + eps) is then taken over arrays, whose
        correctly rounded operations give the scalar result bit for bit.
        """
        n_windows, n_rows, nf = x.shape
        lm = self.lambda_mean
        lv = self.lambda_var
        keep = 1.0 - lv
        counts = np.empty((n_windows, n_rows), dtype=np.int64)
        at, ds, qs = [], array("d"), array("d")
        keep_d, keep_q = ds.append, qs.append
        first = np.arange(n_windows)[:, None] * n_rows
        for b, rows in enumerate(self._rows):
            xb = x[:, rows].reshape(-1, nf)  # the bucket's rows, by window
            present = ~np.isnan(xb)
            touched = present.any(axis=1)
            done = np.cumsum(touched)
            counts[:, rows] = (self._updates[b] + done - touched).reshape(
                n_windows, len(rows))
            self._updates[b] += int(done[-1]) if done.size else 0
            cell = ((first + rows) * nf).ravel()
            m_b, q_b = self._m[b], self._q[b]
            for k in range(nf):
                has = present[:, k]
                values = xb[has, k].tolist()
                if not values:
                    continue
                at.append(cell[has] + k)
                m = values[0] if m_b[k] is None else m_b[k]
                q = q_b[k]
                for xv in values:
                    d = xv - m
                    keep_d(d)
                    keep_q(q)
                    m += lm * d
                    q = keep * q + lv * d * d
                m_b[k], q_b[k] = m, q
        z = np.zeros(x.shape)
        if at:
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                zk = np.frombuffer(ds) / np.sqrt(np.frombuffer(qs) + EPS_VAR)
            z.reshape(-1)[np.concatenate(at)] = np.clip(zk, -CLIP, CLIP)
        return z, counts
