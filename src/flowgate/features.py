"""Windowed per-flow features and the streaming normalizer.

The feature contract "timing+contention-v1" fixes a 7-component vector per
(flow, window): pkt_rate, byte_rate, iat_mean, iat_cv, pacing, share,
interference. The packet count N rides along as metadata (it decides IAT
missingness). IAT fields are missing when a window holds fewer than two
packets of the flow; missing components normalize to 0 and do not update the
normalizer state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FEATURE_CONTRACT = "timing+contention-v1"
FEATURE_NAMES = ("pkt_rate", "byte_rate", "iat_mean", "iat_cv",
                 "pacing", "share", "interference")
N_FEATURES = len(FEATURE_NAMES)

FEATURES_HEADER = ("flow_id,window,N,pkt_rate,byte_rate,iat_mean,iat_cv,"
                   "pacing,share,interference")


@dataclass(frozen=True)
class FlowWindowFeatures:
    flow_id: int
    window_idx: int
    pkt_count: int
    pkt_rate: float
    byte_rate: float
    iat_mean_s: float | None
    iat_cv: float | None
    pacing_index: float
    clique_rate_share: float
    interference_index: float

    def vector(self) -> tuple:
        """The 7-component feature vector; None marks missing entries."""
        return (self.pkt_rate, self.byte_rate, self.iat_mean_s, self.iat_cv,
                self.pacing_index, self.clique_rate_share, self.interference_index)


def pacing_index_from_counts(counts, n_packets: int) -> float:
    """Dispersion of micro-bin counts: 0 = spread out, towards 1 = bunched.

    Defined as 1 - H / log(min(B, N)) with H the entropy of the occupied-bin
    distribution; 0 when N <= 1 (no dispersion evidence).
    """
    if n_packets <= 1:
        return 0.0
    denom = math.log(min(len(counts), n_packets))
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / n_packets
            h -= p * math.log(p)
    return 1.0 - h / denom


def contention_features(flow_bytes: float, clique_bytes: float,
                        neighbor_weights, neighbor_byte_rates) -> tuple[float, float]:
    """(clique_rate_share, interference_index) for one flow-window."""
    share = flow_bytes / max(1.0, clique_bytes)
    interference = float(np.dot(neighbor_weights, neighbor_byte_rates))
    return share, interference


class FeatureTable:
    """Dense (flow x window) feature arrays plus a row iterator.

    Rows iterate in (window, flow) order, the processing order of the
    detection pipeline. Missing IAT stats are NaN in the arrays and None in
    the row view.
    """

    def __init__(self, flow_ids, horizon_windows, window_us, pkt_count, pkt_rate,
                 byte_rate, iat_mean, iat_cv, pacing, share, interference):
        self.flow_ids = list(flow_ids)
        self.horizon_windows = int(horizon_windows)
        self.window_us = int(window_us)
        self.pkt_count = pkt_count
        self.pkt_rate = pkt_rate
        self.byte_rate = byte_rate
        self.iat_mean = iat_mean
        self.iat_cv = iat_cv
        self.pacing = pacing
        self.share = share
        self.interference = interference

    def row(self, fi: int, w: int) -> FlowWindowFeatures:
        im = self.iat_mean[fi, w]
        ic = self.iat_cv[fi, w]
        return FlowWindowFeatures(
            flow_id=self.flow_ids[fi],
            window_idx=w,
            pkt_count=int(self.pkt_count[fi, w]),
            pkt_rate=float(self.pkt_rate[fi, w]),
            byte_rate=float(self.byte_rate[fi, w]),
            iat_mean_s=None if math.isnan(im) else float(im),
            iat_cv=None if math.isnan(ic) else float(ic),
            pacing_index=float(self.pacing[fi, w]),
            clique_rate_share=float(self.share[fi, w]),
            interference_index=float(self.interference[fi, w]),
        )

    def iter_rows(self):
        for w in range(self.horizon_windows):
            for fi in range(len(self.flow_ids)):
                yield self.row(fi, w)


def windowize(trace, graph, micro_bins: int = 10) -> FeatureTable:
    """Aggregate a trace into per-(flow, window) features.

    Every flow in the flow table gets a row for every window in [0, H); flows
    with no packets in a window get N=0, zero rates, and missing IAT fields.
    The contention graph, which must hold exactly the flow table's flows,
    supplies the cliques and interference weights. Only packets of windows
    <= t influence rows at window t (pure windowing, no lookahead).
    """
    if micro_bins < 2:
        raise ValueError("micro_bins must be >= 2")
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
    iat_cnt = np.bincount(pair_code, minlength=nf * H).reshape(nf, H)
    iat_sum = np.bincount(pair_code, weights=iat_us,
                          minlength=nf * H).reshape(nf, H).astype(np.float64)
    iat_sq = np.bincount(pair_code, weights=iat_us * iat_us,
                         minlength=nf * H).reshape(nf, H).astype(np.float64)

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
    B = micro_bins
    mbin = ((trace.ts_us - win * trace.window_us) * B) // trace.window_us
    occupied, n_in_bin = np.unique(code * B + mbin, return_counts=True)
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

    return FeatureTable(flow_ids, H, trace.window_us, counts, pkt_rate, byte_rate,
                        iat_mean, iat_cv, pacing, share, interference)


# ---------------------------------------------------------------------------
# streaming normalizer


@dataclass(frozen=True)
class NormalizerConfig:
    lambda_mean: float = 0.05
    lambda_var: float = 0.01
    eps_var: float = 1e-6
    clip: float = 8.0
    slow_factor: float = 0.2  # applied to both lambdas after burn-in


class Normalizer:
    """Per-bucket EMA mean/variance z-scoring with deferred updates.

    Each bucket keeps running (m, q) per feature. A row is scored with the
    state as-is and only then folded into the state, so the score at time t
    never sees x_t. Missing components (None) score 0 and leave state alone.
    """

    def __init__(self, config: NormalizerConfig = NormalizerConfig(),
                 n_features: int = N_FEATURES):
        self.config = config
        self.n_features = n_features
        self.lambda_mean = config.lambda_mean
        self.lambda_var = config.lambda_var
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
            self.lambda_mean *= self.config.slow_factor
            self.lambda_var *= self.config.slow_factor
            self._slow = True

    def score_and_update(self, bucket: str, x) -> list[float]:
        m = self._m.get(bucket)
        if m is None:
            m = [0.0] * self.n_features
            q = [self.config.eps_var] * self.n_features
            seen = [False] * self.n_features
            self._m[bucket] = m
            self._q[bucket] = q
            self._seen[bucket] = seen
            self._updates[bucket] = 0
        else:
            q = self._q[bucket]
            seen = self._seen[bucket]
        eps = self.config.eps_var
        clip = self.config.clip
        lm = self.lambda_mean
        lv = self.lambda_var
        z = [0.0] * self.n_features
        touched = False
        for k in range(self.n_features):
            xk = x[k]
            if xk is None:
                continue
            touched = True
            if not seen[k]:
                m[k] = xk
                seen[k] = True
            zk = (xk - m[k]) / math.sqrt(q[k] + eps)
            if zk > clip:
                zk = clip
            elif zk < -clip:
                zk = -clip
            z[k] = zk
            d = xk - m[k]
            m[k] = m[k] + lm * d
            q[k] = (1.0 - lv) * q[k] + lv * d * d
        if touched:
            self._updates[bucket] += 1
        return z


# ---------------------------------------------------------------------------
# on-disk format


def write_features_csv(path, table: FeatureTable) -> None:
    def cell(v):
        return "" if v is None else repr(v)

    with open(path, "w") as fh:
        fh.write(FEATURES_HEADER + "\n")
        for r in table.iter_rows():
            fh.write(f"{r.flow_id},{r.window_idx},{r.pkt_count},{r.pkt_rate!r},"
                     f"{r.byte_rate!r},{cell(r.iat_mean_s)},{cell(r.iat_cv)},"
                     f"{r.pacing_index!r},{r.clique_rate_share!r},"
                     f"{r.interference_index!r}\n")


def read_features_csv(path) -> list[FlowWindowFeatures]:
    rows = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append(FlowWindowFeatures(
                flow_id=int(parts[0]),
                window_idx=int(parts[1]),
                pkt_count=int(parts[2]),
                pkt_rate=float(parts[3]),
                byte_rate=float(parts[4]),
                iat_mean_s=float(parts[5]) if parts[5] else None,
                iat_cv=float(parts[6]) if parts[6] else None,
                pacing_index=float(parts[7]),
                clique_rate_share=float(parts[8]),
                interference_index=float(parts[9]),
            ))
    return rows
