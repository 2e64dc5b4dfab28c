"""Synthetic world generation with budget-constrained evasive episodes.

A world is a deterministic function of (config, seed): benign device flows
grouped into contention cliques, a nonnegative coupling matrix W scaled into
a target spectral-radius band, and malicious episodes whose traffic is forced
through three auditable budgets before it is emitted:

  floor      total episode bytes >= r_min_bytes
  distortion mean per-window W1 between the flow's IATs and a pooled benign
             reference <= epsilon_s
  stealth    clique mean queueing delay rises by at most delta_q_s under a
             no-gating replay

Enforcement projects window timing onto the reference (order-preserving
quantile interpolation), repairs sizes to hold the floor, and thins load
against replayed delay until the budgets hold or i_max is exhausted.
The episodes thin in step, a round at a time: a round's one-clique replays
(in round 0 also each episode clique's benign-only one) go to forks.deal in
one call, as do all of the audit's. Infeasibility is a first-class
outcome, not an error.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from flowgate.forks import deal
from flowgate.trace import (
    BENIGN,
    EPISODE_KINDS,
    MALICIOUS,
    Budgets,
    EpisodeLabel,
    FlowInfo,
    FlowKey,
    PROTO_TCP,
    RunManifest,
    Trace,
    check_bound,
    config_hash,
    from_json,
    is_number,
    load_json,
    read_manifest,
    read_trace_csv,
    to_json,
    write_json,
    write_trace_csv,
)
from flowgate.wfq import clique_mean_delay, replay

BENIGN_KINDS = ("periodic_telemetry", "bulk_stream", "interactive_burst")

REF_CAP = 10_000
I_MAX_DEFAULT = 16
THIN_FACTOR = 0.8
REPLAY_TICK_S = 1e-6
W1_SLACK_S = 1e-9

# rng stream salts so parallel flow generation stays order-independent
_SALT_BENIGN = 1
_SALT_EPISODE = 2
_SALT_THIN = 3
_SALT_GRAPH = 4


class GenerationError(Exception):
    pass


class FloorUnreachable(Exception):
    """count * len_max < r_min_bytes: no size assignment can hit the floor."""


# ---------------------------------------------------------------------------
# exact 1-D Wasserstein-1


def w1_empirical(samples_us, lengths,
                 reference: BenignIatReference) -> np.ndarray:
    """Exact W1 in seconds between each of several windows' whole-
    microsecond samples and one reference: samples_us holds the samples one
    after another, window j's being the next lengths[j] values.

    W1 on the line is the integral of |F_a - F_b| (Vallender, 1973). With m
    sample and n reference points, I = integral of |n*A(x) - m*B(x)| dx over
    microseconds is an integer, where A and B count the sample and reference
    points <= x, and W1 = I / (m*n*10**6), rounded once per window.

    A window's edges are its least point lo (its own or the reference's),
    its sorted points and its greatest point hi. Between consecutive edges
    A is a constant i, so n*i - m*B(x) changes sign at most once there, at
    reference point n*i // m. The integral of B up to x is (x - b[0])*B(x)
    minus the excess over b[0] of the first B(x) reference points, read
    from the reference's prefix sums. One lexsort orders every window, one
    searchsorted over all edges and sign changes and one reduceat give each
    I in int64, where every term stays within m*n*(hi - lo); a window for
    which that reaches 2**63 is refused, by its index, before any product.
    """
    v = np.asarray(samples_us, dtype=np.int64)
    m = np.asarray(lengths, dtype=np.int64)
    b, s0 = reference.sorted_iats_us, reference.prefix_us
    n, b0 = b.size, int(b[0])
    if m.size and int(m.min()) < 1:
        raise ValueError("w1_empirical needs a nonempty sample")
    if int(m.sum()) != v.size:
        raise ValueError(f"w1_empirical: lengths sum to {int(m.sum())}, "
                         f"not to the {v.size} sample points")
    if m.size == 0:
        return np.empty(0)
    a = v[np.lexsort((v, np.repeat(np.arange(m.size), m)))]
    first = _starts(m)
    lo = np.minimum(a[first], b0)
    hi = np.maximum(a[first + m - 1], int(b[-1]))
    for j, (mj, l, h) in enumerate(zip(m.tolist(), lo.tolist(),
                                       hi.tolist())):
        if mj * n * (h - l) >= 2**63:
            raise ValueError(
                f"w1_empirical: window {j}: m={mj} sample and n={n} "
                f"reference points over a span of {h - l} us overflow int64")
    edge0 = first + 2 * np.arange(m.size)  # window j's m+2 edges start
    edges = np.empty(v.size + 2 * m.size, np.int64)
    edges[edge0] = lo
    edges[_runs(edge0 + 1, m)] = a
    edges[edge0 + m + 1] = hi
    ileft = _runs(edge0, m + 1)  # the left edges of its m+1 intervals
    left, right = edges[ileft], edges[ileft + 1]
    i = ileft - np.repeat(edge0, m + 1)
    mi = np.repeat(m, m + 1)
    cut = np.clip(b[np.minimum(n * i // mi, n - 1)], left, right)
    x = np.concatenate((edges, cut))
    k = np.searchsorted(b, x, side="right")
    g = k * (x - b0) - s0[k]  # integral of B up to x
    g_edge, g_cut = g[:edges.size], g[edges.size:]
    parts = (n * i * ((cut - left) - (right - cut))
             + mi * ((g_edge[ileft + 1] - g_cut) - (g_cut - g_edge[ileft])))
    total = np.add.reduceat(parts, _starts(m + 1))
    return np.array([t / (mj * n * 1_000_000)
                     for t, mj in zip(total.tolist(), m.tolist())])


# ---------------------------------------------------------------------------
# configuration


@dataclass
class BenignFlowSpec:
    flow_id: int
    device_class: str
    clique_id: int
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class EpisodeSpec:
    """Malicious flow: cover traffic mimicking its device class over the full
    horizon plus a kind-specific overlay inside [start_window, end_window]."""

    flow_id: int
    device_class: str
    clique_id: int
    kind: str
    start_window: int
    end_window: int  # inclusive
    budgets: Budgets
    cover_kind: str
    cover_params: dict = field(default_factory=dict)
    overlay_params: dict = field(default_factory=dict)


@dataclass
class WorldConfig:
    world_id: str
    seed: int
    horizon_windows: int
    window_us: int
    capacity_bps: float
    benign_flows: list[BenignFlowSpec] = field(default_factory=list)
    episodes: list[EpisodeSpec] = field(default_factory=list)
    len_bounds: tuple[int, int] = (64, 1500)
    rho_band: tuple[float, float] = (0.4, 0.6)
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    i_max: int = I_MAX_DEFAULT

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} is negative")
        if self.horizon_windows <= 0 or self.window_us <= 0:
            raise ValueError("horizon_windows and window_us must be positive")
        if self.capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        lo, hi = self.len_bounds
        if not (0 < lo <= hi):
            raise ValueError("need 0 < len_min <= len_max")
        rlo, rhi = self.rho_band
        if not (0 <= rlo <= rhi):
            raise ValueError("need 0 <= rho_lo <= rho_hi")
        if not (len(self.split) == 3 and all(s > 0 for s in self.split)
                and abs(sum(self.split) - 1.0) <= 1e-9):
            raise ValueError("split must be three positive fractions summing to 1")
        if self.i_max < 0:
            raise ValueError("i_max must be nonnegative")
        for f in [*self.benign_flows, *self.episodes]:
            for key in ("flow_id", "clique_id"):
                if not 0 <= getattr(f, key) < 2**53:  # trace.csv's id range
                    raise ValueError(f"flow {f.flow_id}: {key} = "
                                     f"{getattr(f, key)} is not in [0, 2**53)")
        ids = [f.flow_id for f in self.benign_flows] \
            + [e.flow_id for e in self.episodes]
        if len(ids) != len(set(ids)):
            raise ValueError("flow ids must be unique across benign and episodes")
        if not ids:
            raise ValueError("world needs at least one flow")
        for f in self.benign_flows:
            if f.kind not in BENIGN_KINDS:
                raise ValueError(f"unknown benign kind {f.kind!r}")
        benign_classes = {f.device_class for f in self.benign_flows}
        for e in self.episodes:
            if e.kind not in EPISODE_KINDS:
                raise ValueError(f"unknown episode kind {e.kind!r}")
            if e.cover_kind not in BENIGN_KINDS:
                raise ValueError(f"unknown cover kind {e.cover_kind!r}")
            if not (0 <= e.start_window <= e.end_window < self.horizon_windows):
                raise ValueError(f"episode window span invalid for flow {e.flow_id}")
            if e.budgets.r_min_bytes < 0 or e.budgets.epsilon_s < 0 \
                    or e.budgets.delta_q_s < 0:
                raise ValueError("budgets must be nonnegative")
            if e.device_class not in benign_classes:
                raise ValueError(
                    f"episode flow {e.flow_id} mimics class {e.device_class!r} "
                    "with no benign flows to pool a reference from")

    def hash(self) -> str:
        return config_hash(to_json(self))


def config_from_json(doc, path) -> WorldConfig:
    """The config a parsed config.json holds, refusing, naming the path,
    what from_json or WorldConfig.validate refuses."""
    config = from_json(WorldConfig, doc, path)
    try:
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config


# ---------------------------------------------------------------------------
# benign generators


def gen_benign_flow(kind: str, params: dict, rng, horizon_us: int,
                    len_bounds: tuple[int, int]):
    """Dispatch to a device-class generator; returns (ts_us, len_bytes)."""
    if kind == "periodic_telemetry":
        return _gen_periodic(params, rng, horizon_us, len_bounds)
    if kind == "bulk_stream":
        return _gen_bulk(params, rng, horizon_us, len_bounds)
    if kind == "interactive_burst":
        return _gen_interactive(params, rng, horizon_us, len_bounds)
    raise ValueError(f"unknown benign kind {kind!r}")


_REQUIRED = object()


def _param(params: dict, key: str, cast=float, default=_REQUIRED):
    """params[key] as cast, or default when the key is absent and one is
    given, refusing, naming the key, a missing key and a value that
    is_number refuses: a string, a boolean, and a float where cast is
    int."""
    if key not in params:
        if default is _REQUIRED:
            raise ValueError(f"missing key {key!r}")
        return default
    value = params[key]
    if not is_number(value, integer=cast is int):
        raise ValueError(f"{key} = {value!r} is not "
                         + ("an integer" if cast is int else "a number"))
    return cast(value)


def _positive(params: dict, key: str, cast=float, default=_REQUIRED):
    """_param(params, key, cast, default), refusing, naming the key, a
    value that is not positive."""
    value = _param(params, key, cast, default)
    if not value > 0:
        raise ValueError(f"{key} must be positive")
    return value


@contextmanager
def _flow_params(flow_id: int, name: str):
    """Prefix a generator's refusal with the flow and the name of the
    params object it read."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"flow {flow_id}: {name}: {exc}") from None


def _size_range(params, len_bounds, lo_key, hi_key, lo_def, hi_def):
    lo = _param(params, lo_key, int, lo_def)
    hi = _param(params, hi_key, int, hi_def)
    if not (len_bounds[0] <= lo <= hi <= len_bounds[1]):
        raise ValueError(f"size range [{lo}, {hi}] outside len bounds {len_bounds}")
    return lo, hi


def _finish(ts_f, sizes, horizon_us):
    ts = np.rint(ts_f).astype(np.int64)
    keep = (ts >= 0) & (ts < horizon_us)
    ts, sizes = ts[keep], np.asarray(sizes, dtype=np.int64)[keep]
    order = np.argsort(ts, kind="stable")
    return ts[order], sizes[order]


def _pkt_len(params, len_bounds, default):
    """params' pkt_len, or default, refusing one outside len_bounds."""
    pkt_len = _param(params, "pkt_len", int, default)
    if not (len_bounds[0] <= pkt_len <= len_bounds[1]):
        raise ValueError(f"pkt_len {pkt_len} outside len bounds {len_bounds}")
    return pkt_len


def _gen_periodic(params, rng, horizon_us, len_bounds, jitter=0.0,
                  size_max=220):
    """Periodic telemetry; beaconing is this shape with its own jitter_frac
    and size_max defaults."""
    period_us = _positive(params, "period_s") * 1e6
    jf = _param(params, "jitter_frac", float, jitter)
    if not (0.0 <= jf <= 0.5):
        raise ValueError("jitter_frac must be in [0, 0.5]")
    s_lo, s_hi = _size_range(params, len_bounds, "size_min", "size_max", 80,
                             size_max)
    phase = rng.uniform(0.0, period_us)
    n = int(math.ceil((horizon_us - phase) / period_us))
    if n <= 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    k = np.arange(n, dtype=np.float64)
    ts_f = phase + k * period_us + rng.uniform(-jf, jf, n) * period_us
    sizes = rng.integers(s_lo, s_hi + 1, n)
    return _finish(ts_f, sizes, horizon_us)


def _gen_bulk(params, rng, horizon_us, len_bounds):
    rate = _positive(params, "rate_bps")
    pkt_len = _pkt_len(params, len_bounds, 600)
    jf = _param(params, "jitter_frac", float, 0.1)
    if not (0.0 <= jf <= 0.5):
        raise ValueError("jitter_frac must be in [0, 0.5]")
    iat_us = pkt_len / rate * 1e6
    n = int(rate * (horizon_us * 1e-6) // pkt_len)
    if n <= 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    k = np.arange(n, dtype=np.float64)
    # fixed count at jittered slots keeps the byte total exactly on rate
    ts_f = (k + 0.5 + rng.uniform(-jf, jf, n)) * iat_us
    ts_f = np.minimum(ts_f, horizon_us - 1)
    return _finish(ts_f, np.full(n, pkt_len), horizon_us)


def _gen_interactive(params, rng, horizon_us, len_bounds):
    cycle_us = _positive(params, "cycle_s") * 1e6
    off = _param(params, "off_fraction")
    if not (0.0 <= off <= 1.0):
        raise ValueError("off_fraction must be in [0, 1]")
    iat_us = _positive(params, "iat_s", float, 0.05) * 1e6
    s_lo, s_hi = _size_range(params, len_bounds, "size_min", "size_max", 100, 400)
    on_us = cycle_us * (1.0 - off)
    per_cycle = int(on_us // iat_us)
    if per_cycle <= 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    phase = rng.uniform(0.0, cycle_us)
    n_cycles = int(math.ceil((horizon_us - phase) / cycle_us)) + 1
    starts = phase + np.arange(n_cycles, dtype=np.float64) * cycle_us
    j = np.arange(per_cycle, dtype=np.float64)
    ts_f = (starts[:, None] + (j + 0.5)[None, :] * iat_us).ravel()
    ts_f = ts_f + rng.uniform(-0.25, 0.25, ts_f.size) * iat_us
    sizes = rng.integers(s_lo, s_hi + 1, ts_f.size)
    return _finish(ts_f, sizes, horizon_us)


# ---------------------------------------------------------------------------
# episode overlays (pre-projection proposals)


def _gen_overlay(kind: str, params: dict, rng, span_us: tuple[int, int],
                 len_bounds) -> tuple[np.ndarray, np.ndarray]:
    t0, t1 = span_us
    span = t1 - t0
    if kind == "exfiltration":
        ts, ln = _gen_bulk(params, rng, span, len_bounds)
    elif kind == "beaconing":
        ts, ln = _gen_periodic(params, rng, span, len_bounds, 0.05, 160)
    elif kind == "scan":
        rate = _positive(params, "rate_pps", float, 50.0)
        pkt_len = _pkt_len(params, len_bounds, 64)
        iats = rng.exponential(1e6 / rate, max(1, int(rate * span * 1e-6)))
        ts_f = np.cumsum(iats)
        ts_f = ts_f[ts_f < span]
        ts, ln = _finish(ts_f, np.full(ts_f.size, pkt_len), span)
    elif kind == "evasive_c2":
        every_us = _positive(params, "burst_every_s", float, 5.0) * 1e6
        burst = _positive(params, "burst_pkts", int, 12)
        intra_us = _positive(params, "intra_iat_s", float, 0.002) * 1e6
        pkt_len = _pkt_len(params, len_bounds, 200)
        phase = rng.uniform(0.0, every_us)
        starts = np.arange(phase, span, every_us)
        j = np.arange(burst, dtype=np.float64)
        ts_f = (starts[:, None] + j[None, :] * intra_us).ravel()
        ts_f = ts_f[ts_f < span]
        ts, ln = _finish(ts_f, np.full(ts_f.size, pkt_len), span)
    else:
        raise ValueError(f"unknown episode kind {kind!r}")
    return ts + t0, ln


# ---------------------------------------------------------------------------
# contention graph


class ContentionGraph:
    """Symmetric nonnegative within-clique weights with rho(W) in a band.

    W is block-diagonal by clique, so each clique keeps only its own c x c
    block, indexed like its flow list. Graph order is ascending flow id.
    build_contention_graph is the one producer of a graph's blocks.
    """

    def __init__(self, cliques: dict[int, list[int]],
                 blocks: dict[int, object]):
        self.cliques = {int(c): [int(f) for f in fs]
                        for c, fs in sorted(cliques.items())}
        self.blocks = {c: np.asarray(blocks[c], dtype=np.float64).reshape(
            len(fs), len(fs)) for c, fs in self.cliques.items()}
        self.spectral_radius = spectral_radius(self.blocks.values())
        self.clique_of = {f: c for c, fs in self.cliques.items() for f in fs}
        self.flow_ids = sorted(self.clique_of)
        ids = np.asarray(self.flow_ids, dtype=np.int64)
        self._index = [np.searchsorted(ids, fs) for fs in self.cliques.values()]

    def matvec(self, x) -> np.ndarray:
        """W @ x, with x indexed by flow in graph order (rows if 2-D)."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for idx, w in zip(self._index, self.blocks.values()):
            out[idx] = w @ x[idx]
        return out

    def to_dict(self) -> dict:
        blocks = {c: _CliqueBlock(fs, self.blocks[c].tolist())
                  for c, fs in self.cliques.items()}
        return to_json(_GraphFile(blocks, self.spectral_radius))

    @classmethod
    def from_dict(cls, d, path="contention.json") -> "ContentionGraph":
        """The graph a parsed contention.json holds, refusing, naming the
        path and the key, what from_json refuses."""
        doc = from_json(_GraphFile, d, path)
        return cls({c: b.flows for c, b in doc.cliques.items()},
                   {c: b.weights for c, b in doc.cliques.items()})


@dataclass
class _CliqueBlock:
    flows: list[int]
    weights: list[list[float]]  # c x c, indexed like flows


@dataclass
class _GraphFile:
    """contention.json, an export of contention_graph."""

    cliques: dict[int, _CliqueBlock]
    spectral_radius: float


def spectral_radius(blocks) -> float:
    """Exact rho(W) of a block-diagonal W with symmetric nonnegative blocks.

    For such a block rho is its largest eigenvalue (Perron-Frobenius), and
    the spectrum of W is the union of the blocks' spectra.
    """
    return max((float(np.linalg.eigvalsh(b)[-1]) for b in blocks if b.size),
               default=0.0)


def build_contention_graph(clique_of: dict[int, int],
                           rho_band: tuple[float, float],
                           rng) -> ContentionGraph:
    cliques: dict[int, list[int]] = {}
    for f in sorted(clique_of):
        cliques.setdefault(clique_of[f], []).append(f)
    blocks = {}
    for cid in sorted(cliques):
        # one uniform per member pair, row-major over the upper triangle
        n = len(cliques[cid])
        upper = np.triu_indices(n, 1)
        w = np.zeros((n, n))
        w[upper] = rng.uniform(0.5, 1.0, upper[0].size)
        blocks[cid] = w + w.T
    lo, hi = rho_band
    target = 0.5 * (lo + hi)
    rho_raw = spectral_radius(blocks.values())
    if rho_raw == 0.0:
        if target > 0.0:
            raise GenerationError(
                f"cannot reach rho band [{lo}, {hi}]: all cliques are singletons")
    else:
        for w in blocks.values():
            w *= target / rho_raw
    graph = ContentionGraph(cliques, blocks)
    if not (lo <= graph.spectral_radius <= hi):
        raise GenerationError(
            f"scaled spectral radius {graph.spectral_radius:.6g} missed band "
            f"[{lo}, {hi}]")
    return graph


# ---------------------------------------------------------------------------
# benign IAT reference


class BenignIatReference:
    """Pooled positive IATs of a device class, for one malicious flow, sorted,
    with the prefix sums of their excess over the least one."""

    def __init__(self, flow_id: int, sorted_iats_us):
        self.flow_id = int(flow_id)
        self.sorted_iats_us = np.asarray(sorted_iats_us, dtype=np.int64)
        if self.sorted_iats_us.size == 0:
            raise GenerationError(f"empty IAT reference for flow {flow_id}")
        if int(self.sorted_iats_us.min()) <= 0:
            raise GenerationError("reference IATs must be positive")
        b = self.sorted_iats_us
        if np.any(np.diff(b) < 0):
            raise GenerationError(f"IAT reference for flow {flow_id} is "
                                  f"not sorted")
        # wraps only if n * (b[-1] - b[0]) >= 2**63, and w1_empirical then
        # refuses every window before it reads these
        self.prefix_us = np.concatenate(([0], np.cumsum(b - b[0])))

    def __eq__(self, other):
        return (isinstance(other, BenignIatReference)
                and self.flow_id == other.flow_id
                and np.array_equal(self.sorted_iats_us, other.sorted_iats_us))


def pool_class_iats(ts_by_flow: list[np.ndarray]) -> np.ndarray:
    """Pooled positive IATs (us) across flows, sorted, capped at REF_CAP by
    evenly spaced order statistics."""
    parts = []
    for ts in ts_by_flow:
        if ts.size >= 2:
            d = np.diff(ts)
            parts.append(d[d > 0])
    if not parts:
        return np.empty(0, np.int64)
    pooled = np.sort(np.concatenate(parts))
    if pooled.size > REF_CAP:
        idx = np.round(np.linspace(0, pooled.size - 1, REF_CAP)).astype(np.int64)
        pooled = pooled[idx]
    return pooled


# ---------------------------------------------------------------------------
# projection-based budget enforcement


def project_iats(ts_us, lengths, reference: BenignIatReference,
                 epsilon_s: float, window_us: int):
    """Order-preserving time-warp of windows onto the IAT reference.

    ts_us holds the arrivals of several windows one after another, window j
    being the next lengths[j] >= 2 arrivals, all in one window of window_us.
    A window whose IATs pass the W1 check the audit applies is kept. The
    IATs of every other window are rank-matched to nearest-rank reference
    quantiles, and the interpolation factor tau is bisected so that the
    quantized (whole-microsecond) result passes that check. The first
    arrival is pinned; if the warped window overflows its bounds one
    uniform rescale is attempted. A window that fails at tau = 1 is
    locally infeasible and kept as it is.

    The windows go in lockstep: the first check scores every window in one
    w1_empirical call, and tau = 1 and each of the 40 bisection steps form
    every window's candidate at once and score them in one more call.
    Returns the arrivals and, per window, whether it passes the check.
    """
    ts = np.asarray(ts_us, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size and int(lengths.min()) < 2:
        raise ValueError("projection needs at least two packets in the window")
    tol = epsilon_s + W1_SLACK_S
    iats = _segment_diffs(ts, lengths)
    ok = w1_empirical(iats, lengths - 1, reference) <= tol
    out = ts.copy()
    warp = np.flatnonzero(~ok)
    if warp.size == 0:
        return out, ok

    # the windows to warp: the m IATs x of each, in order, and its targets q
    m = lengths[warp] - 1
    first = _starts(m)
    x = iats[_runs(_starts(lengths - 1)[warp], m)].astype(np.float64)
    nref = reference.sorted_iats_us.size
    u = (np.arange(x.size) - np.repeat(first, m) + 0.5) / np.repeat(m, m)
    ranks = np.clip(np.ceil(u * nref).astype(np.int64), 1, nref) - 1
    q = np.empty(x.size)
    q[np.lexsort((x, np.repeat(np.arange(m.size), m)))] = \
        reference.sorted_iats_us[ranks]
    ts0 = ts[_starts(lengths)[warp]]
    span = (ts0 // window_us + 1) * window_us - 1 - ts0

    def fits(cand, has):
        """Per window: whether it has a candidate (has) that passes."""
        verdict = np.zeros(m.size, bool)
        j = np.flatnonzero(has)
        if j.size:
            verdict[j] = w1_empirical(cand[_runs(first[j], m[j])], m[j],
                                      reference) <= tol
        return verdict

    best, has = _warp_candidates(np.ones(m.size), x, q, m, span)
    live = fits(best, has)
    ok[warp] = live
    if not live.any():
        return out, ok
    t_lo, t_hi = np.zeros(m.size), np.ones(m.size)
    for _ in range(40):
        mid = 0.5 * (t_lo + t_hi)
        cand, has = _warp_candidates(mid, x, q, m, span)
        f = fits(cand, has & live)
        t_hi, t_lo = np.where(f, mid, t_hi), np.where(f, t_lo, mid)
        took = np.repeat(f, m)
        best[took] = cand[took]
    run = np.cumsum(best)
    run -= np.repeat(run[first] - best[first], m)  # cumsum within windows
    put = np.repeat(live, m)
    out[_runs(_starts(lengths)[warp] + 1, m)[put]] = \
        (np.repeat(ts0, m) + run)[put]
    return out, ok


def _warp_candidates(tau, x, q, m, span):
    """Each window's whole-microsecond IATs at its interpolation factor
    tau, rescaled once into span when they overflow it, and whether the
    window has a candidate: one that fits its span."""
    y = x + np.repeat(tau, m) * (q - x)
    cand = np.maximum(1, np.rint(y)).astype(np.int64)
    first = _starts(m)
    total = np.add.reduceat(cand, first)
    over = total > span
    has = ~over | (span >= m)
    fold = np.flatnonzero(over & has)
    if fold.size:
        el = _runs(first[fold], m[fold])
        scale = [s / t for s, t in zip(span[fold].tolist(),
                                       total[fold].tolist())]
        cand[el] = np.maximum(1, np.rint(y[el] * np.repeat(scale, m[fold]))
                              ).astype(np.int64)
        has[fold] = np.add.reduceat(cand[el], _starts(m[fold])) <= span[fold]
    return cand, has


def _starts(lengths) -> np.ndarray:
    """The index of each run's first element, runs of lengths laid end to
    end."""
    return np.cumsum(lengths) - lengths


def _runs(starts, lengths) -> np.ndarray:
    """The indices starts[j], ..., starts[j] + lengths[j] - 1, run after
    run."""
    lengths = np.asarray(lengths)
    return (np.arange(int(lengths.sum()))
            + np.repeat(starts - _starts(lengths), lengths))


def _segment_diffs(ts: np.ndarray, lengths) -> np.ndarray:
    """The differences of ts within each run of lengths, run after run."""
    d = np.diff(ts)
    keep = np.ones(d.size, bool)
    keep[np.cumsum(lengths)[:-1] - 1] = False
    return d[keep]


def repair_sizes(ts_us, sizes, r_min_bytes: int, bounds: tuple[int, int],
                 window_us: int) -> np.ndarray:
    """Clip sizes into bounds, then grow them to meet the byte floor.

    The deficit is split across windows proportionally to window headroom
    (largest-remainder rounding), then across packets inside each window the
    same way, so the result lands on the floor exactly.
    """
    lo, hi = bounds
    ts = np.asarray(ts_us, dtype=np.int64)
    sizes = np.clip(np.asarray(sizes, dtype=np.int64), lo, hi)
    n = sizes.size
    total = int(sizes.sum())
    if total >= r_min_bytes:
        return sizes
    if n * hi < r_min_bytes:
        raise FloorUnreachable(
            f"{n} packets at len_max {hi} cannot reach floor {r_min_bytes}")
    deficit = r_min_bytes - total
    head = (hi - sizes).astype(np.int64)
    starts, ends = _window_runs(ts, window_us)
    win_head = np.add.reduceat(head, starts)
    win_add = _largest_remainder(deficit, win_head)
    for wi in np.flatnonzero(win_add):
        s, e = int(starts[wi]), int(ends[wi])
        sizes[s:e] += _largest_remainder(int(win_add[wi]), head[s:e])
    return sizes


def _largest_remainder(amount: int, weights: np.ndarray) -> np.ndarray:
    """Integer split of amount proportional to weights; sum is exact."""
    total = int(weights.sum())
    if amount == 0 or total == 0:
        return np.zeros(weights.size, dtype=np.int64)
    prod = amount * weights.astype(np.int64)
    base = prod // total
    left = amount - int(base.sum())
    if left:
        rem = prod % total
        order = np.argsort(-rem, kind="stable")
        base[order[:left]] += 1
    return base


@dataclass
class FeasibilityOutcome:
    flow_id: int
    budgets: Budgets
    feasible: bool
    iterations_used: int
    final_distortion: float
    final_delay_delta: float = field(metadata={"null": math.nan})


@dataclass
class _FeasibilityFile:
    i_max: int
    outcomes: list[FeasibilityOutcome]


def read_feasibility(path, i_max: int) -> list[FeasibilityOutcome]:
    """Load the feasibility JSON of a world whose config has this i_max,
    refusing, naming the path and the key, what from_json refuses, another
    i_max, an iterations_used outside [0, i_max] and a negative
    final_distortion."""
    doc = from_json(_FeasibilityFile, load_json(path), path)
    if doc.i_max != i_max:
        raise ValueError(f"{path}: i_max = {doc.i_max} is not config.json's "
                         f"i_max {i_max}")
    for i, o in enumerate(doc.outcomes):
        if not 0 <= o.iterations_used <= i_max:
            raise ValueError(f"{path}: outcomes[{i}].iterations_used = "
                             f"{o.iterations_used} is not in [0, {i_max}]")
        if o.final_distortion < 0:
            raise ValueError(f"{path}: outcomes[{i}].final_distortion = "
                             f"{o.final_distortion!r} is negative")
    return doc.outcomes


def _then_flows(trace: Trace, flows) -> Trace:
    """trace followed by the packets of flows, each (flow_id, clique_id,
    ts_us, len_bytes), flow after flow."""
    return Trace.concat([trace, *(
        replace(trace, ts_us=ts, flow_id=np.full(len(ts), f), len_bytes=ln,
                clique_id=np.full(len(ts), c)) for f, c, ts, ln in flows)])


def with_flows(trace: Trace, flows) -> Trace:
    """trace plus the packets of flows, each (flow_id, clique_id, ts_us,
    len_bytes) with its packets in arrival order, all in trace order: by
    arrival, ties by flow id, then by position."""
    out = _then_flows(trace, flows)
    return out.take(np.lexsort((out.flow_id, out.ts_us)))


@dataclass
class CliqueContext:
    """Shared state for enforcing one episode against its clique."""

    clique_id: int
    flow_id: int
    benign: Trace  # the clique's benign packets
    capacity_bps: float
    reference: BenignIatReference
    len_bounds: tuple[int, int]


def clique_baseline_delay(trace: Trace, capacity_bps: float) -> float:
    """Mean queueing delay (s) of a one-clique trace under a no-gating
    replay; 0 for no packets."""
    if trace.n_packets == 0:
        return 0.0
    log = replay(trace, capacity_bps)
    return clique_mean_delay(log, int(trace.clique_id[0]))


def _clique_delay(trace: Trace, capacity_bps, take=None, flows=()) -> float:
    """clique_baseline_delay of trace's packets at take (all if None) plus
    flows: a forks.deal job, which builds its trace where it replays it."""
    trace = trace if take is None else trace.take(take)
    return clique_baseline_delay(with_flows(trace, flows) if flows else trace,
                                 capacity_bps)


def window_distortions(ts_us, reference: BenignIatReference,
                       window_us: int) -> np.ndarray:
    """Per-window W1 (seconds) for windows holding at least two packets,
    all scored in one w1_empirical call."""
    ts = np.asarray(ts_us, dtype=np.int64)
    sel, counts = _multi_packet_windows(ts, window_us)
    return w1_empirical(_segment_diffs(ts[sel], counts), counts - 1,
                        reference)


def mean_distortion(ts_us, reference, window_us: int) -> float:
    ds = window_distortions(ts_us, reference, window_us)
    return float(ds.mean()) if ds.size else 0.0


def _window_runs(ts: np.ndarray, window_us: int):
    """The start and end index arrays of the runs of sorted ts that share a
    window."""
    cuts = np.flatnonzero(np.diff(ts // window_us)) + 1
    return np.concatenate([[0], cuts]), np.concatenate([cuts, [ts.size]])


def _multi_packet_windows(ts: np.ndarray, window_us: int):
    """Which packets of sorted ts share their window with another, and the
    packet count of each such window, in order."""
    starts, ends = _window_runs(ts, window_us)
    counts = ends - starts
    return np.repeat(counts >= 2, counts), counts[counts >= 2]


def _project_pass(ts, sizes, ctx: CliqueContext, budgets: Budgets):
    """One projection + size-repair sweep; returns (ts, sizes, proj_ok).
    Every window of two or more packets is projected in one project_iats
    call; proj_ok holds when each of them passes."""
    wus = ctx.benign.window_us
    proj_ok = True
    if not math.isinf(budgets.epsilon_s):
        sel, counts = _multi_packet_windows(ts, wus)
        projected, fit = project_iats(ts[sel], counts, ctx.reference,
                                      budgets.epsilon_s, wus)
        ts = ts.copy()
        ts[sel] = projected
        proj_ok = bool(fit.all())
    sizes = repair_sizes(ts, sizes, budgets.r_min_bytes, ctx.len_bounds, wus)
    return ts, sizes, proj_ok


def enforce_contention(episodes, i_max: int) -> list[tuple]:
    """Drive each episode, (ts_us, sizes, ctx, budgets, rng), through the
    three budgets, all in rounds of one forks.deal call each.

    Each turn projects an episode's timing, repairs its sizes and replays
    it with its clique's benign packets; its rng thins the load to 0.8x for
    the next turn until the delay budget holds or i_max thinnings have been
    spent. Returns (ts, sizes, outcome) per episode, the final packets
    either way; the outcome records feasibility, iterations, and the final
    measured slack (NaN delay: floor unreachable).
    """
    packets = [(np.asarray(e[0], dtype=np.int64),
                np.asarray(e[1], dtype=np.int64)) for e in episodes]
    out: list = [None] * len(episodes)
    cliques = {ctx.clique_id: ctx for _, _, ctx, _, _ in episodes}
    jobs = [partial(_clique_delay, c.benign, c.capacity_bps)
            for c in cliques.values()]
    costs = [c.benign.n_packets for c in cliques.values()]
    active, iterations = range(len(episodes)), 0  # thinnings each spent
    while active:
        turns = []  # (episode, proj_ok, its job; None: floor unreachable)
        for k in active:
            (ts, sizes), (_, _, ctx, budgets, _) = packets[k], episodes[k]
            try:
                ts, sizes, proj_ok = _project_pass(ts, sizes, ctx, budgets)
            except FloorUnreachable:
                turns.append((k, False, None))
                continue
            packets[k] = ts, sizes
            turns.append((k, proj_ok, len(jobs)))
            jobs.append(partial(_clique_delay, ctx.benign, ctx.capacity_bps,
                                flows=[(ctx.flow_id, ctx.clique_id, ts,
                                        sizes)]))
            costs.append(ctx.benign.n_packets + ts.size)
        delays = deal(jobs, costs)
        if not iterations:
            d_ben = dict(zip(cliques, delays))
        active, jobs, costs = [], [], []
        for k, proj_ok, j in turns:
            (ts, sizes), (_, _, ctx, budgets, rng) = packets[k], episodes[k]
            delta = (math.nan if j is None
                     else float(delays[j] - d_ben[ctx.clique_id]))
            feasible = proj_ok and delta <= budgets.delta_q_s + REPLAY_TICK_S
            if feasible or math.isnan(delta) or iterations >= i_max:
                dist = mean_distortion(ts, ctx.reference, ctx.benign.window_us)
                out[k] = ts, sizes, FeasibilityOutcome(
                    ctx.flow_id, budgets, feasible, iterations, dist, delta)
                continue
            keep = int(THIN_FACTOR * ts.size)  # below ts.size unless 0
            sel = (np.sort(rng.choice(ts.size, size=keep, replace=False))
                   if keep else slice(0))
            packets[k] = ts[sel], sizes[sel]
            active.append(k)
        iterations += 1
    return out


# ---------------------------------------------------------------------------
# world assembly


class World:
    """A world's trace, the records derived from its config and trace, its
    manifest, feasibility outcomes and config. The contention graph is not
    among them: contention_graph derives it from the config and the seed."""

    def __init__(self, trace, labels, references, manifest, feasibility,
                 config):
        self.trace = trace
        self.labels = labels
        self.references = references
        self.manifest = manifest
        self.feasibility = feasibility
        self.config = config


def _flow_key(flow_id: int, clique_id: int) -> FlowKey:
    return FlowKey(
        src_ip=f"10.{clique_id % 250}.{(flow_id >> 8) % 250}.{flow_id % 250}",
        dst_ip="172.16.0.1",
        src_port=20000 + flow_id % 40000,
        dst_port=443,
        proto=PROTO_TCP,
    )


# A world's flow table, episode labels, IAT references and contention graph
# are derived from config.json, feasibility.json, trace.csv and the seed in
# manifest.json by the four functions below, which build_world, write_world
# and the stages share; flows.csv, labels.csv, references.json and
# contention.json are exports of what they return.


def _by_flow(specs):
    return sorted(specs, key=lambda s: s.flow_id)


def flow_table(config: WorldConfig) -> dict[int, FlowInfo]:
    """Each flow of config: its key, its device class and its label,
    benign for a benign flow and malicious for an episode."""
    return {f.flow_id: FlowInfo(_flow_key(f.flow_id, f.clique_id),
                                f.device_class, label)
            for specs, label in ((config.benign_flows, BENIGN),
                                 (config.episodes, MALICIOUS))
            for f in specs}


def episode_labels(
        config: WorldConfig,
        feasibility: list[FeasibilityOutcome]) -> list[EpisodeLabel]:
    """The label of each episode of config, in flow order, feasible as its
    outcome in feasibility is."""
    feasible = {o.flow_id: o.feasible for o in feasibility}
    return [EpisodeLabel(e.flow_id, e.start_window, e.end_window, e.kind,
                         e.budgets, feasible[e.flow_id])
            for e in _by_flow(config.episodes)]


def iat_references(config: WorldConfig,
                   trace: Trace) -> list[BenignIatReference]:
    """The IAT reference of each episode of config, in flow order: the
    pooled IATs of the arrivals in trace of the benign flows of its device
    class, refusing a class whose pool is empty. Each flow's packets must
    be in arrival order in trace; the flows may interleave in any way."""
    pools = {}
    for cls in sorted({e.device_class for e in config.episodes}):
        pools[cls] = pool_class_iats([
            trace.ts_us[trace.flow_id == f.flow_id]
            for f in config.benign_flows if f.device_class == cls])
        if pools[cls].size == 0:
            raise GenerationError(
                f"device class {cls!r} yields no benign IATs to reference")
    return [BenignIatReference(e.flow_id, pools[e.device_class])
            for e in _by_flow(config.episodes)]


def contention_graph(config: WorldConfig, seed: int) -> ContentionGraph:
    """The contention graph of the world of config and seed: each flow in
    its config clique, the weights drawn from the seed's graph stream and
    scaled into config's rho_band."""
    return build_contention_graph(
        {f.flow_id: f.clique_id
         for f in config.benign_flows + config.episodes},
        config.rho_band, np.random.default_rng([seed, _SALT_GRAPH]))


def build_world(config: WorldConfig, seed: int) -> World:
    """Deterministically realize a world from its config and seed."""
    config.validate()
    horizon_us = config.horizon_windows * config.window_us
    bounds = config.len_bounds

    benign_flows = []  # (flow_id, clique_id, ts_us, len_bytes) per flow
    for spec in config.benign_flows:
        rng = np.random.default_rng([seed, spec.flow_id, _SALT_BENIGN])
        with _flow_params(spec.flow_id, "params"):
            ts, ln = gen_benign_flow(spec.kind, spec.params, rng, horizon_us,
                                     bounds)
        benign_flows.append((spec.flow_id, spec.clique_id, ts, ln))

    no_packets = Trace(*[np.empty(0, np.int64)] * 4, flow_table(config),
                       config.horizon_windows, config.window_us)
    # the pools read each flow's arrivals alone: the flows need no merge
    references = iat_references(config, _then_flows(no_packets, benign_flows))
    # each clique's benign packets, shared by its episodes
    clique_benign: dict[int, Trace] = {}
    episodes = []

    for ep, reference in zip(_by_flow(config.episodes), references):
        rng_ep = np.random.default_rng([seed, ep.flow_id, _SALT_EPISODE])
        with _flow_params(ep.flow_id, "cover_params"):
            cover_ts, cover_ln = gen_benign_flow(
                ep.cover_kind, ep.cover_params, rng_ep, horizon_us, bounds)
        span = (ep.start_window * config.window_us,
                (ep.end_window + 1) * config.window_us)
        with _flow_params(ep.flow_id, "overlay_params"):
            over_ts, over_ln = _gen_overlay(ep.kind, ep.overlay_params,
                                            rng_ep, span, bounds)
        ts = np.concatenate([cover_ts, over_ts])
        ln = np.concatenate([cover_ln, over_ln])
        order = np.argsort(ts, kind="stable")
        ts, ln = ts[order], ln[order]

        if ep.clique_id not in clique_benign:
            clique_benign[ep.clique_id] = with_flows(
                no_packets, [f for f in benign_flows if f[1] == ep.clique_id])
        ctx = CliqueContext(ep.clique_id, ep.flow_id,
                            clique_benign[ep.clique_id], config.capacity_bps,
                            reference, bounds)
        episodes.append((ts, ln, ctx, ep.budgets, np.random.default_rng(
            [seed, ep.flow_id, _SALT_THIN])))
    enforced = enforce_contention(episodes, config.i_max)
    feasibility = [out for _, _, out in enforced]
    trace = with_flows(no_packets, benign_flows + [
        (ctx.flow_id, ctx.clique_id, ts, ln)
        for (ts, ln, _), (_, _, ctx, _, _) in zip(enforced, episodes)])

    manifest = RunManifest(seed=seed, config_hash=config.hash())
    return World(trace, episode_labels(config, feasibility), references,
                 manifest, feasibility, config)


# ---------------------------------------------------------------------------
# independent budget audit


def audit_budgets(world: World) -> list[dict]:
    """Recompute all three budget constraints per episode from the trace.

    floor exactly; distortion within 1e-9 s; delay delta within one replay
    tick. Entries carry measured values so failures are diagnosable.
    """
    trace = world.trace
    cap = world.config.capacity_bps
    refs = {r.flow_id: r for r in world.references}
    benign = np.isin(trace.flow_id, np.array(
        sorted(f for f, info in trace.flow_table.items()
               if info.label == BENIGN), dtype=np.int64))
    clique_of = {e.flow_id: e.clique_id for e in world.config.episodes}
    masks, base, pairs = [], {}, []  # episodes of a clique share its base
    for label in world.labels:
        cid = clique_of[label.flow_id]
        ben_mask = (trace.clique_id == cid) & benign
        if cid not in base:
            base[cid] = len(masks)
            masks.append(ben_mask)
        pairs.append((len(masks), base[cid]))
        masks.append(ben_mask | (trace.flow_id == label.flow_id))
    delays = deal([partial(_clique_delay, trace, cap, m) for m in masks],
                  [int(np.count_nonzero(m)) for m in masks])

    out = []
    for label, (j, j_ben) in zip(world.labels, pairs):
        fid = label.flow_id
        mask = trace.flow_id == fid
        ln = trace.len_bytes[mask]
        b = label.budgets
        floor_ok = int(ln.sum()) >= b.r_min_bytes
        mean_d = mean_distortion(trace.ts_us[mask], refs[fid], trace.window_us)
        eps_ok = mean_d <= b.epsilon_s + W1_SLACK_S
        delta = delays[j] - delays[j_ben]
        dq_ok = delta <= b.delta_q_s + REPLAY_TICK_S
        out.append({
            "flow_id": fid,
            "feasible": label.feasible,
            "floor_ok": bool(floor_ok),
            "distortion_ok": bool(eps_ok),
            "delay_ok": bool(dq_ok),
            "all_ok": bool(floor_ok and eps_ok and dq_ok),
            "total_bytes": int(ln.sum()),
            "mean_distortion_s": mean_d,
            "delay_delta_s": float(delta),
        })
    return out


# ---------------------------------------------------------------------------
# on-disk layout


def write_world(out_dir, world: World) -> None:
    """Write a world's files; world.manifest gains the sha256 of trace.csv
    and of feasibility.json. The contention graph is derived before any
    file is written, so a config whose graph misses its band writes
    none."""
    graph = contention_graph(world.config, world.manifest.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world.manifest = replace(
        world.manifest,
        trace_sha256=write_trace_csv(out / "trace.csv", world.trace),
        feasibility_sha256=write_json(out / "feasibility.json", to_json(
            _FeasibilityFile(world.config.i_max, world.feasibility))))
    write_json(out / "flows.csv", to_json(world.trace.flow_table))
    write_json(out / "labels.csv", to_json(world.labels))
    write_json(out / "manifest.json", to_json(world.manifest))
    write_json(out / "config.json", to_json(world.config))
    write_json(out / "contention.json", graph.to_dict())
    (out / "references.json").write_text(json.dumps(
        {str(r.flow_id): r.sorted_iats_us.tolist() for r in world.references},
        sort_keys=True) + "\n")


def check_trace(trace: Trace, config: WorldConfig) -> None:
    """Refuse a loaded trace that disagrees with config.json.

    Every packet's flow must be one of the config's, and its clique tag
    must be the config's clique for that flow: replay serves a packet by
    its tag, while the features read the contention graph, whose cliques
    are the config's. Arrivals must be nondecreasing, as replay and the
    inter-arrival features read them in file order, and in [0,
    horizon_us), or windowize would count a packet in another flow's cell.
    Lengths must lie within the config's len_bounds, as generation keeps
    them.
    """
    specs = _by_flow(config.benign_flows + config.episodes)
    ids = np.array([f.flow_id for f in specs], dtype=np.int64)
    cq = np.array([f.clique_id for f in specs], dtype=np.int64)
    pos = np.searchsorted(ids, trace.flow_id).clip(0, ids.size - 1)
    unknown = ids[pos] != trace.flow_id
    if unknown.any():
        f = int(trace.flow_id[unknown.argmax()])
        raise ValueError(f"trace.csv: flow {f} is not in config.json")
    wrong = cq[pos] != trace.clique_id
    if wrong.any():
        i = int(wrong.argmax())
        raise ValueError(
            f"trace.csv: flow {trace.flow_id[i]} is tagged clique "
            f"{trace.clique_id[i]}, but config.json puts it in clique "
            f"{cq[pos[i]]}")
    outside = (trace.ts_us < 0) | (trace.ts_us >= trace.horizon_us)
    if outside.any():
        k = int(outside.argmax())
        raise ValueError(
            f"trace.csv: packet {k} of flow {trace.flow_id[k]} at ts "
            f"{trace.ts_us[k]} is outside [0, {trace.horizon_us})")
    lo, hi = config.len_bounds
    ln = trace.len_bytes
    if ln.size and not lo <= int(ln.min()) <= int(ln.max()) <= hi:
        k = int(np.flatnonzero((ln < lo) | (ln > hi))[0])
        raise ValueError(
            f"trace.csv: packet {k} of flow {trace.flow_id[k]} has "
            f"{trace.len_bytes[k]} bytes, outside [{lo}, {hi}]")
    back = np.flatnonzero(np.diff(trace.ts_us) < 0)
    if back.size:
        k = int(back[0]) + 1
        raise ValueError(
            f"trace.csv: packet {k} at ts {trace.ts_us[k]} precedes packet "
            f"{k - 1} at ts {trace.ts_us[k - 1]}")


# Each stage reads only its view of a world: detect and replay the head and
# the traffic, report the head and the outcomes, load_world all three.


def load_head(world_dir) -> tuple[WorldConfig, RunManifest]:
    """A world's config and manifest, refusing a manifest whose config_hash
    is not its config's, naming both hashes."""
    d = Path(world_dir)
    config = config_from_json(load_json(d / "config.json"), d / "config.json")
    manifest = read_manifest(d / "manifest.json")
    if manifest.config_hash != config.hash():
        raise ValueError(f"{d / 'manifest.json'}: config_hash "
                         f"{manifest.config_hash} is not {config.hash()}, the "
                         "hash of config.json")
    return config, manifest


def load_traffic(world_dir, config: WorldConfig,
                 manifest: RunManifest) -> Trace:
    """A world's trace.csv, bound to the manifest's trace_sha256, with
    config's flow table, checked by check_trace. It is the only world file
    that load_traffic reads."""
    d = Path(world_dir)
    trace = read_trace_csv(d / "trace.csv",
                           (manifest.trace_sha256, d / "manifest.json"),
                           flow_table(config), config.horizon_windows,
                           config.window_us)
    check_trace(trace, config)
    return trace


def load_outcomes(world_dir, config: WorldConfig, manifest: RunManifest
                  ) -> tuple[list[EpisodeLabel], list[FeasibilityOutcome]]:
    """A world's feasibility outcomes, bound to the manifest's
    feasibility_sha256 (check_bound) and checked by check_episode_flows,
    and the episode labels derived from them."""
    d = Path(world_dir)
    check_bound(d / "feasibility.json",
                (manifest.feasibility_sha256, d / "manifest.json"))
    feasibility = read_feasibility(d / "feasibility.json", config.i_max)
    check_episode_flows(d / "feasibility.json",
                        [o.flow_id for o in feasibility], config)
    return episode_labels(config, feasibility), feasibility


def check_same(path, where: str, found, recorded, names, other: str) -> None:
    """Refuse the record found, read from path at the dotted name where,
    when one of the fields names holds another value than in the record
    that the file `other` holds, naming the first such key."""
    for name in names:
        mine, theirs = getattr(found, name), getattr(recorded, name)
        if mine != theirs:
            raise ValueError(f"{path}: {where}{name} = {mine!r} is not "
                             f"{other}'s {name} {theirs!r}")


def check_config_flows(path, flow_ids, config: WorldConfig) -> None:
    """Refuse a file at path keyed by the flows flow_ids (a dict or a set)
    when they are not config.json's, naming the first flow in one of the
    two but not the other."""
    other = sorted(set(flow_ids).symmetric_difference(
        [f.flow_id for f in config.benign_flows + config.episodes]))
    if other:
        raise ValueError(f"{path}: flow {other[0]} " + (
            "is not in config.json" if other[0] in flow_ids
            else "of config.json is missing"))


def check_episode_flows(path, flow_ids, config: WorldConfig) -> None:
    """Refuse outcomes whose flows are not config.json's episodes."""
    found = sorted(flow_ids)
    episodes = sorted(e.flow_id for e in config.episodes)
    if found != episodes:
        raise ValueError(f"{path}: outcome flows {found} are not the "
                         f"episodes {episodes} of config.json")


def load_world(world_dir) -> World:
    """A world from its head, traffic and outcomes, with every cross-file
    check, and the IAT references derived from trace.csv."""
    d = Path(world_dir)
    config, manifest = load_head(d)
    trace = load_traffic(d, config, manifest)
    labels, feasibility = load_outcomes(d, config, manifest)
    try:
        references = iat_references(config, trace)
    except GenerationError as exc:
        raise ValueError(f"{d / 'trace.csv'}: {exc}") from None
    return World(trace, labels, references, manifest, feasibility, config)
