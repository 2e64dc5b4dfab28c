"""Tests for synthetic world generation and budget enforcement."""

import bisect
import json
import math
import os
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from flowgate.trace import (BENIGN, MALICIOUS, Budgets, FlowInfo, Trace,
                            from_json, load_json, to_json, write_json)
from flowgate.worlds import (
    BenignFlowSpec,
    BenignIatReference,
    CliqueContext,
    ContentionGraph,
    EpisodeSpec,
    FloorUnreachable,
    GenerationError,
    REF_CAP,
    RHO_RTOL,
    WorldConfig,
    _SALT_GRAPH,
    _gen_bulk,
    _largest_remainder,
    audit_budgets,
    build_contention_graph,
    build_world,
    check_trace,
    clique_baseline_delay,
    enforce_contention,
    gen_benign_flow,
    load_world,
    mean_distortion,
    pool_class_iats,
    project_iats,
    repair_sizes,
    spectral_radius,
    w1_empirical,
    with_flows,
    write_world,
)

import flowgate.worlds as worlds_module
from flowgate.forks import deal
from test_forks import assert_no_child_left, cpus
from support import rebind
from test_acceptance import _audit_config
from trace_validation import validate_trace

LEN_BOUNDS = (64, 1500)
REPO = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# W1


def ref_of(iats_us) -> BenignIatReference:
    return BenignIatReference(0, np.sort(np.asarray(iats_us, dtype=np.int64)))


def w1(sample_us, reference) -> float:
    """w1_empirical of one window: a batch of one."""
    return float(w1_empirical(sample_us, [len(sample_us)], reference)[0])


def w1_one_window(sample_us, reference) -> float:
    """The per-window int64 kernel that the segmented w1_empirical
    replaced, kept as its differential oracle: one sort, one searchsorted
    and one sum for one window's sample, measured from its least point."""
    a = np.sort(np.asarray(sample_us, dtype=np.int64))
    b, s0 = reference.sorted_iats_us, reference.prefix_us
    m, n = a.size, b.size
    if m == 0:
        raise ValueError("w1_empirical needs a nonempty sample")
    lo, hi = min(int(a[0]), int(b[0])), max(int(a[-1]), int(b[-1]))
    if m * n * (hi - lo) >= 2**63:
        raise ValueError(
            f"w1_empirical: m={m} sample and n={n} reference points over a "
            f"span of {hi - lo} us overflow int64")
    edges = np.concatenate(([lo], a, [hi]))
    left, right = edges[:-1], edges[1:]
    i = np.arange(m + 1)
    cut = np.clip(b[np.minimum(n * i // m, n - 1)], left, right)
    x = np.concatenate((edges, cut))
    k = np.searchsorted(b, x, side="right")
    g = (x - lo) * k - s0[k] - k * (int(b[0]) - lo)  # integral of B from lo
    g_edge, g_cut = g[:m + 2], g[m + 2:]
    parts = (n * i * ((cut - left) - (right - cut))
             + m * ((g_edge[1:] - g_cut) - (g_cut - g_edge[:-1])))
    return int(parts.sum()) / (m * n * 1_000_000)


def w1_merged_support(a, b) -> float:
    """The float kernel that the int64 kernel replaced, kept as its
    differential oracle: integrates |F_a - F_b| over the merged, sorted
    support."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("w1_empirical needs nonempty samples")
    xs = np.sort(np.concatenate([a, b]))
    if xs[0] == xs[-1]:
        return 0.0
    fa = np.searchsorted(a, xs, side="right") / a.size
    fb = np.searchsorted(b, xs, side="right") / b.size
    return float(np.sum(np.abs(fa[:-1] - fb[:-1]) * np.diff(xs)))


def w1_exact(a, b) -> Fraction:
    """W1 in seconds as an exact rational: integral of |n*A - m*B| over the
    merged support of two whole-microsecond samples, over m*n*10**6."""
    a, b = sorted(a), sorted(b)
    m, n = len(a), len(b)
    xs = sorted(set(a) | set(b))
    area = sum(
        abs(n * bisect.bisect_right(a, x) - m * bisect.bisect_right(b, x))
        * (x_next - x) for x, x_next in zip(xs, xs[1:]))
    return Fraction(area, m * n * 10**6)


def test_w1_frozen_pair():
    assert w1([0, 2], ref_of([1, 3])) == 1e-6


def test_w1_identical_samples_zero():
    a = [3, 17, 22, 90]
    assert w1(a, ref_of(a)) == 0.0


def test_w1_point_masses():
    assert w1([1], ref_of([4])) == pytest.approx(3e-6)


def test_w1_empty_raises():
    with pytest.raises(ValueError, match="nonempty sample"):
        w1([], ref_of([1]))
    with pytest.raises(ValueError, match="nonempty sample"):
        w1_empirical([1, 2], [2, 0], ref_of([1]))
    with pytest.raises(ValueError, match="lengths sum to 2, not to the 3"):
        w1_empirical([1, 2, 3], [1, 1], ref_of([1]))
    assert w1_empirical([], [], ref_of([1])).size == 0


@given(st.lists(st.integers(0, 10**4), min_size=1, max_size=40),
       st.lists(st.integers(1, 10**4), min_size=1, max_size=40))
def test_w1_matches_scipy(a, b):
    assert w1(a, ref_of(b)) == pytest.approx(
        wasserstein_distance(a, b) * 1e-6, rel=1e-9, abs=1e-12)


@given(st.lists(st.integers(1, 10**4), min_size=1, max_size=30),
       st.lists(st.integers(1, 10**4), min_size=1, max_size=30),
       st.lists(st.integers(1, 10**4), min_size=1, max_size=30))
def test_w1_metric_properties(a, b, c):
    ab = w1(a, ref_of(b))
    assert ab >= 0.0
    assert ab == pytest.approx(w1(b, ref_of(a)), rel=1e-12, abs=1e-12)
    assert ab <= w1(a, ref_of(c)) + w1(c, ref_of(b)) + 1e-9


@given(st.lists(st.integers(0, 10**4), min_size=1, max_size=25))
def test_w1_equal_size_is_sorted_mean_gap(xs):
    n = len(xs)
    rng = np.random.default_rng(0)
    ys = rng.integers(1, 10**4, n)
    expect = float(np.mean(np.abs(np.sort(xs) - np.sort(ys)))) * 1e-6
    assert w1(xs, ref_of(ys)) == pytest.approx(expect, rel=1e-9, abs=1e-9)


# Small value ranges force ties and repeated values; the wide ones reach
# the reference sizes of real worlds.
_iats = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=12),
    st.lists(st.integers(0, 10**4), min_size=1, max_size=60),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
    st.integers(0, 10**6).flatmap(
        lambda v: st.lists(st.just(v), min_size=1, max_size=8)),
)


@settings(max_examples=300, deadline=None)
@given(_iats, _iats, st.booleans())
def test_w1_matches_merged_support_oracle(a, b, same):
    """Ties, repeated values, m = 1, n = 1, all-equal samples and a sample
    equal to its reference. The oracle rounds each support gap of the
    seconds-scaled values, so its error is absolute on the scale of the
    largest value; the kernel must agree to 1e-12 of the value beyond it."""
    b = [v + 1 for v in (a if same else b)]  # reference IATs are positive
    if same:
        a = list(b)
    got = w1(a, ref_of(b))
    want = w1_merged_support(np.asarray(a) * 1e-6, np.asarray(b) * 1e-6)
    scale = max(max(a), max(b)) * 1e-6
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * scale)
    if len(a) * len(b) <= 400:
        assert got == float(w1_exact(a, b))


# References of one to a few thousand points, narrow or wide, placed so
# that the windows' IATs fall below, inside and above their range.
_references = st.tuples(
    st.integers(1, 10**5), st.sampled_from([0, 3, 100, 10**4, 10**6]),
    st.integers(1, 3000), st.integers(0, 2**32 - 1),
).map(lambda t: t[0] + np.random.default_rng(t[3]).integers(
    0, t[1] + 1, t[2]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_iats, min_size=1, max_size=40), _references)
def test_w1_segments_match_per_window_oracle(windows, reference):
    """A batch of windows scores each one bit for bit as the per-window
    kernel does."""
    ref = ref_of(reference)
    got = w1_empirical(np.concatenate([np.int64(w) for w in windows]),
                       [len(w) for w in windows], ref)
    assert got.dtype == np.float64
    assert [float(d).hex() for d in got] == \
        [w1_one_window(w, ref).hex() for w in windows]


def test_w1_refuses_int64_overflow():
    """m * n * span >= 2**63 is refused, never wrapped."""
    big = 2**62
    with pytest.raises(ValueError, match=(
            f"m=2 sample and n=2 reference points over a span of {big} us")):
        w1(np.int64([0, 1]), ref_of([1, big]))
    with pytest.raises(ValueError, match="overflow int64"):
        w1(np.int64([0, big]), ref_of([big - 1, big]))
    # huge values over a small span stay exact: coordinates start at the
    # least point
    assert w1(np.int64([big, big + 2]), ref_of([big + 1, big + 3])) == 1e-6
    assert w1(np.int64([2**61]), ref_of([2**61 + 2**60])) \
        == float(Fraction(2**60, 10**6))


def test_w1_overflow_refusal_names_the_window():
    big = 2**62
    with pytest.raises(ValueError, match=(
            "window 2: m=2 sample and n=2 reference points over a span of "
            f"{big} us overflow int64")):
        w1_empirical(np.int64([1, 2, 3, 4, 0, big, 5, 6]), [2, 2, 2, 2],
                     ref_of([1, 2]))


def test_reference_refuses_unsorted():
    with pytest.raises(GenerationError, match="not sorted"):
        BenignIatReference(1, [5, 3])


# ---------------------------------------------------------------------------
# generators


def test_periodic_no_jitter_exact_grid():
    rng = np.random.default_rng(3)
    ts, ln = gen_benign_flow("periodic_telemetry", {"period_s": 1.0},
                             rng, 10_000_000, LEN_BOUNDS)
    assert ts.size == 10
    assert np.all(np.diff(ts) == 1_000_000)
    assert ln.min() >= LEN_BOUNDS[0] and ln.max() <= LEN_BOUNDS[1]


def test_bulk_count_and_bytes_exact():
    rate, pkt, hz_us = 24_000.0, 600, 50_000_000
    ts, ln = gen_benign_flow("bulk_stream", {"rate_bps": rate, "pkt_len": pkt},
                             np.random.default_rng(4), hz_us, LEN_BOUNDS)
    n_expect = int(rate * hz_us * 1e-6 // pkt)
    assert ts.size == n_expect
    assert int(ln.sum()) == n_expect * pkt
    assert abs(int(ln.sum()) - rate * hz_us * 1e-6) < pkt


def test_interactive_fully_off_is_empty():
    ts, ln = gen_benign_flow("interactive_burst",
                             {"cycle_s": 2.0, "off_fraction": 1.0},
                             np.random.default_rng(5), 10_000_000, LEN_BOUNDS)
    assert ts.size == 0 and ln.size == 0


@pytest.mark.parametrize("kind,params", [
    ("periodic_telemetry", {"period_s": 0.5, "jitter_frac": 0.3}),
    ("bulk_stream", {"rate_bps": 40_000.0, "pkt_len": 400, "jitter_frac": 0.4}),
    ("interactive_burst", {"cycle_s": 1.5, "off_fraction": 0.4}),
])
def test_generators_sorted_in_horizon_in_bounds(kind, params):
    hz = 20_000_000
    ts, ln = gen_benign_flow(kind, params, np.random.default_rng(6), hz,
                             LEN_BOUNDS)
    assert np.all(np.diff(ts) >= 0)
    assert ts.size == 0 or (ts.min() >= 0 and ts.max() < hz)
    assert ln.size == 0 or (ln.min() >= LEN_BOUNDS[0]
                            and ln.max() <= LEN_BOUNDS[1])


def test_generator_rejects_bad_params():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_benign_flow("periodic_telemetry", {"period_s": -1.0}, rng,
                        1_000_000, LEN_BOUNDS)
    with pytest.raises(ValueError):
        gen_benign_flow("bulk_stream", {"rate_bps": 1000.0, "pkt_len": 30},
                        rng, 1_000_000, LEN_BOUNDS)
    with pytest.raises(ValueError):
        gen_benign_flow("no_such_kind", {}, rng, 1_000_000, LEN_BOUNDS)


# ---------------------------------------------------------------------------
# contention graph


def dense_weights(g):
    """The full W assembled from the graph's blocks, in graph order."""
    pos = {f: i for i, f in enumerate(g.flow_ids)}
    W = np.zeros((len(pos), len(pos)))
    for c, fs in g.cliques.items():
        idx = [pos[f] for f in fs]
        W[np.ix_(idx, idx)] = g.blocks[c]
    return W


def test_graph_shape_and_band():
    clique_of = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 9: 2}
    g = build_contention_graph(clique_of, (0.4, 0.6),
                               np.random.default_rng(7))
    assert g.flow_ids == [1, 2, 3, 4, 5, 9]
    assert g.cliques == {0: [1, 2, 3], 1: [4, 5], 2: [9]}
    assert g.clique_of == clique_of
    W = dense_weights(g)
    assert np.array_equal(W, W.T)
    assert np.all(np.diag(W) == 0.0)
    # zero across cliques
    assert W[0, 3] == 0.0 and W[2, 5] == 0.0
    assert W[0, 1] > 0.0
    assert 0.4 <= g.spectral_radius <= 0.6
    assert g.spectral_radius == pytest.approx(
        float(np.max(np.abs(np.linalg.eigvalsh(W)))), rel=1e-12)
    # one uniform per member pair, clique by clique, row-major, one scale
    rng = np.random.default_rng(7)
    draws = [rng.uniform(0.5, 1.0) for _ in range(3 + 1)]
    upper = [W[0, 1], W[0, 2], W[1, 2], W[3, 4]]
    assert np.allclose(np.divide(upper, draws), upper[0] / draws[0],
                       rtol=1e-15, atol=0.0)
    # the block kernel against the dense product
    x = np.random.default_rng(1).uniform(0.0, 1e4, (6, 3))
    assert np.allclose(g.matvec(x), W @ x, rtol=1e-14, atol=0.0)
    assert np.allclose(g.matvec(x[:, 0]), W @ x[:, 0], rtol=1e-14, atol=0.0)


def test_graph_rho_exact_on_demo_world():
    path = REPO / "configs" / "demo_world.json"
    cfg = from_json(WorldConfig, load_json(path), path)
    clique_of = {f.flow_id: f.clique_id for f in cfg.benign_flows}
    clique_of.update({e.flow_id: e.clique_id for e in cfg.episodes})
    # the graph build_world draws for world seed 1
    g = build_contention_graph(clique_of, cfg.rho_band,
                               np.random.default_rng([1, _SALT_GRAPH]))
    stored = json.loads(json.dumps(g.to_dict()))["spectral_radius"]
    exact = float(np.linalg.eigvalsh(dense_weights(g))[-1])
    assert stored == pytest.approx(exact, rel=1e-12)


def test_graph_json_grows_with_clique_blocks():
    # 1,000 flows in cliques of 10: a dense W would be 10^6 numbers
    g = build_contention_graph({f: f // 10 for f in range(1000)}, (0.4, 0.6),
                               np.random.default_rng(3))
    text = json.dumps(g.to_dict(), sort_keys=True, indent=2) + "\n"
    assert len(text.encode()) < 500_000


def test_graph_singleton_cliques_error_names_band():
    with pytest.raises(GenerationError) as exc:
        build_contention_graph({1: 0, 2: 1}, (0.4, 0.6),
                               np.random.default_rng(8))
    assert "[0.4, 0.6]" in str(exc.value)


def test_graph_zero_band_singletons_ok():
    g = build_contention_graph({1: 0, 2: 1}, (0.0, 0.0),
                               np.random.default_rng(9))
    assert g.spectral_radius == 0.0
    assert all(np.all(b == 0.0) for b in g.blocks.values())


def test_graph_dict_round_trip():
    cfg = _demo_config()
    g = build_contention_graph({1: 0, 2: 0, 3: 1, 4: 1}, cfg.rho_band,
                               np.random.default_rng(10))
    # the band stays in config.json, its one source
    lo, hi = cfg.rho_band
    assert lo <= g.spectral_radius <= hi
    d = g.to_dict()
    assert set(d) == {"cliques", "spectral_radius"}
    assert set(d["cliques"]["0"]) == {"flows", "weights"}
    g2 = type(g).from_dict(json.loads(json.dumps(d)))
    assert g2.flow_ids == g.flow_ids
    assert g2.cliques == g.cliques
    assert all(np.array_equal(g2.blocks[c], g.blocks[c]) for c in g.cliques)
    assert g2.spectral_radius == g.spectral_radius
    # blocks that break the exact-rho premise, or a flow in two cliques
    with pytest.raises(ValueError, match="symmetric and nonnegative"):
        type(g)({0: [1, 2]}, {0: [[0.0, 1.0], [0.5, 0.0]]})
    with pytest.raises(ValueError, match="symmetric and nonnegative"):
        type(g)({0: [1, 2]}, {0: [[0.0, -1.0], [-1.0, 0.0]]})
    with pytest.raises(ValueError, match="listed twice"):
        type(g)({0: [1, 2], 1: [2]}, {0: np.zeros((2, 2)), 1: [[0.0]]})
    # a world written with a dense W is refused by the codec, naming the key
    with pytest.raises(ValueError, match="^contention.json: unknown key "
                                         "'flow_ids'$"):
        type(g).from_dict({"flow_ids": [1, 2], "weights": [[0, 1], [1, 0]],
                           "cliques": {"0": [1, 2]}, "spectral_radius": 1.0})
    # and so is one that still copies config.json's band
    with pytest.raises(ValueError, match="^contention.json: unknown key "
                                         "'rho_band'$"):
        type(g).from_dict({**d, "rho_band": list(cfg.rho_band)})


def test_stored_spectral_radius_must_be_rho_of_the_blocks():
    g = build_contention_graph({1: 0, 2: 0, 3: 0, 4: 1, 5: 1}, (0.4, 0.6),
                               np.random.default_rng(11))
    d = json.loads(json.dumps(g.to_dict()))
    with pytest.raises(ValueError, match=r"^contention\.json: "
                       r"spectral_radius = 99\.0 is not rho of the blocks"):
        ContentionGraph.from_dict({**d, "spectral_radius": 99.0})
    # another machine's eigvalsh may differ in the last bits
    rho = d["spectral_radius"]
    for stored in (np.nextafter(rho, np.inf), np.nextafter(rho, -np.inf),
                   rho * (1 + 0.5 * RHO_RTOL)):
        back = ContentionGraph.from_dict({**d, "spectral_radius": stored})
        assert back.spectral_radius == g.spectral_radius
    with pytest.raises(ValueError, match="spectral_radius"):
        ContentionGraph.from_dict({**d,
                                   "spectral_radius": rho * (1 + 2 * RHO_RTOL)})


def test_spectral_radius_known_matrix():
    assert spectral_radius([np.array([[0.0, 2.0], [2.0, 0.0]])]) == \
        pytest.approx(2.0, rel=1e-12)
    # the largest over the blocks; singleton and empty blocks add nothing
    assert spectral_radius([np.ones((3, 3)), np.zeros((1, 1)),
                            np.zeros((0, 0))]) == pytest.approx(3.0, rel=1e-12)
    assert spectral_radius([]) == 0.0


# ---------------------------------------------------------------------------
# reference pooling


def test_pool_class_iats_pools_and_sorts():
    a = np.int64([0, 100, 300])          # IATs 100, 200
    b = np.int64([50, 50, 400])          # IATs 0 (dropped), 350
    pooled = pool_class_iats([a, b])
    assert pooled.tolist() == [100, 200, 350]


def test_pool_class_iats_caps_preserving_extremes():
    ts = np.cumsum(np.arange(1, REF_CAP + 500, dtype=np.int64))
    pooled = pool_class_iats([np.concatenate([[0], ts])])
    assert pooled.size == REF_CAP
    assert pooled[0] == 1 and pooled[-1] == REF_CAP + 499
    assert np.all(np.diff(pooled) > 0)


def test_reference_rejects_empty_and_nonpositive():
    with pytest.raises(GenerationError):
        BenignIatReference(1, [])
    with pytest.raises(GenerationError):
        BenignIatReference(1, [0, 5])


# ---------------------------------------------------------------------------
# projection


class LocalInfeasibility(Exception):
    """A window that the per-window oracle cannot project."""


def project_one(ts, ref, eps, window_us):
    """project_iats of one window: its arrivals and whether it fits."""
    out, fit = project_iats(ts, [len(ts)], ref, eps, window_us)
    assert fit.shape == (1,)
    return out, bool(fit[0])


def test_project_exact_match_equal_counts():
    ref = BenignIatReference(1, [1000, 2000, 3000, 4000, 5000])
    ts = np.int64([0, 100, 300, 350, 9000, 9400])
    out, fit = project_one(ts, ref, 0.0, 250_000)
    assert fit
    assert out[0] == ts[0]
    assert out.size == ts.size
    assert sorted(np.diff(out).tolist()) == [1000, 2000, 3000, 4000, 5000]
    assert w1(np.diff(out), ref) == 0.0


def test_project_noop_when_within_tolerance():
    ts = np.int64([0, 1000, 3000, 6000, 10000, 15000])
    ref = BenignIatReference(1, np.diff(ts))
    out, fit = project_one(ts, ref, 0.0, 250_000)
    assert fit
    assert np.array_equal(out, ts)


def test_project_meets_tolerance_and_bounds():
    ref = BenignIatReference(1, [5000, 10_000, 20_000, 40_000])
    rng = np.random.default_rng(11)
    ts = np.sort(rng.integers(0, 240_000, 12)).astype(np.int64)
    ts = np.unique(ts)
    eps = 0.004
    out, fit = project_one(ts, ref, eps, 250_000)
    assert fit
    assert out.size == ts.size
    assert out[0] == ts[0]
    assert np.all(np.diff(out) >= 1)
    assert out[-1] < 250_000
    assert w1(np.diff(out), ref) <= eps + 1e-9


def test_project_overflow_rescales_into_window():
    # full warp wants 2 x 1000us but the window only has 1500us of room
    ref = BenignIatReference(1, [1000])
    ts = np.int64([0, 10, 20])
    out, fit = project_one(ts, ref, 0.0003, 1501)
    assert fit
    assert out[-1] <= 1500
    assert out[0] == 0 and out.size == 3
    d = w1(np.diff(out), ref)
    assert d <= 0.0003 + 1e-9


def test_project_local_infeasibility():
    """A window that cannot fit is reported and kept as it is."""
    ref = BenignIatReference(1, [100_000] * 4)
    ts = np.int64([0, 10, 20, 30])
    out, fit = project_one(ts, ref, 0.001, 200)
    assert not fit
    assert np.array_equal(out, ts)


def test_project_requires_two_packets():
    ref = BenignIatReference(1, [1000])
    with pytest.raises(ValueError, match="at least two packets"):
        project_iats(np.int64([5]), [1], ref, 0.1, 100)
    with pytest.raises(ValueError, match="at least two packets"):
        project_iats(np.int64([0, 1, 5]), [2, 1], ref, 0.1, 100)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0005, 0.05))
def test_project_postconditions_random(seed, eps):
    rng = np.random.default_rng(seed)
    ref = BenignIatReference(
        1, np.sort(rng.integers(500, 30_000, rng.integers(3, 60))))
    n = int(rng.integers(2, 25))
    ts = np.unique(np.sort(rng.integers(0, 200_000, n)).astype(np.int64))
    if ts.size < 2:
        return
    out, fit = project_one(ts, ref, eps, 250_000)
    if not fit:
        return
    assert out.size == ts.size
    assert out[0] == ts[0]
    assert np.all(np.diff(out) >= 1)
    assert int(out[-1]) < 250_000
    assert w1(np.diff(out), ref) <= eps + 1e-9


def project_iats_uncached(ts_us, reference, epsilon_s, window_bounds,
                          paths=None):
    """The per-window projection that the lockstep project_iats replaced,
    before it kept W1 verdicts: the same bisection of one window, scoring
    every candidate it meets, repeated or not, with the per-window W1
    kernel. Adds to paths the branches it takes."""
    paths = set() if paths is None else paths
    ts = np.asarray(ts_us, dtype=np.int64)
    lo, hi = window_bounds
    tol = epsilon_s + worlds_module.W1_SLACK_S
    if w1_one_window(np.diff(ts), reference) <= tol:
        paths.add("fits")
        return ts.copy()
    x = np.diff(ts).astype(np.float64)
    m = x.size
    nref = reference.sorted_iats_us.size
    ranks = np.clip(np.ceil((np.arange(1, m + 1) - 0.5) / m * nref)
                    .astype(np.int64), 1, nref) - 1
    q = np.empty(m)
    q[np.argsort(x, kind="stable")] = \
        reference.sorted_iats_us[ranks].astype(np.float64)
    span = hi - 1 - int(ts[0])

    def candidate(tau):
        y = x + tau * (q - x)
        iats = np.maximum(1, np.rint(y)).astype(np.int64)
        total = int(iats.sum())
        if total > span:
            if span < m:
                paths.add("no room")
                return None
            paths.add("rescale")
            iats = np.maximum(1, np.rint(y * (span / total))).astype(np.int64)
            if int(iats.sum()) > span:
                paths.add("rescale overflows")
                return None
        return iats

    def fits(iats):
        return iats is not None and w1_one_window(iats, reference) <= tol

    best = candidate(1.0)
    if not fits(best):
        paths.add("infeasible")
        raise LocalInfeasibility(f"window [{lo}, {hi})")
    paths.add("bisect")
    t_lo, t_hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (t_lo + t_hi)
        cand = candidate(mid)
        if fits(cand):
            t_hi, best = mid, cand
        else:
            t_lo = mid
    return np.concatenate([ts[:1], ts[0] + np.cumsum(best)])


def _check_pass(reference, window_us, eps, windows) -> set:
    """Project windows (each a list of arrival offsets into its own window
    of window_us, in order) in one _project_pass, and check the arrivals
    and proj_ok against the per-window oracle. Returns the oracle's
    branches."""
    ref = ref_of(reference)
    ts = np.concatenate([w * window_us + np.int64(offsets)
                         for w, offsets in enumerate(windows)])
    expect, all_fit, paths = [], True, set()
    for w, offsets in enumerate(windows):
        seg = w * window_us + np.int64(offsets)
        if seg.size >= 2:
            try:
                seg = project_iats_uncached(
                    seg, ref, eps, (w * window_us, (w + 1) * window_us),
                    paths)
            except LocalInfeasibility:
                all_fit = False
        expect.append(seg)
    ctx = SimpleNamespace(benign=SimpleNamespace(window_us=window_us),
                          reference=ref, len_bounds=LEN_BOUNDS)
    out, _, proj_ok = worlds_module._project_pass(
        ts, np.full(ts.size, 100), ctx, Budgets(0, eps, math.inf))
    assert np.array_equal(out, np.concatenate(expect))
    assert proj_ok == all_fit
    return paths


def test_project_pass_takes_every_path():
    """One reference and one window length for six windows: one that fits
    at once, one that bisects, one whose warp is rescaled into its span,
    one with no room for its IATs, one whose rescale still overflows and
    one whose rescaled warp misses the tolerance."""
    windows = [[0, 50, 100, 150], [0, 10, 100, 190], [60, 61, 62, 63],
               [198, 198, 199, 199], [0, 1, 2, 3, 4], [150, 151, 152, 153]]
    paths = _check_pass([50], 200, 5e-6, windows)
    assert paths == {"fits", "bisect", "rescale", "no room",
                     "rescale overflows", "infeasible"}


_offsets = st.lists(st.integers(0, 10**6), min_size=0, max_size=25)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 40_000), min_size=1, max_size=60),
       st.sampled_from([200, 2_000, 50_000, 250_000]),
       st.sampled_from([0.0, 5e-6, 1e-4, 0.001, 0.004, 0.02]),
       st.lists(_offsets, min_size=1, max_size=12))
def test_project_pass_matches_per_window_oracle(reference, window_us, eps,
                                                offsets):
    """Windows of zero to 25 arrivals, ties included, in one pass, against
    a reference of IATs up to a quarter of the window."""
    windows = [sorted(v % window_us for v in w) for w in offsets]
    reference = [1 + v % (window_us // 4) for v in reference]
    for path in sorted(_check_pass(reference, window_us, eps, windows)):
        event(path)


def test_project_scores_each_candidate_once(monkeypatch):
    """A window's distinct candidates are each scored once, and the
    windows of a pass are scored together: eight windows projected in one
    pass take at most 42 kernel calls (the first check, tau = 1 and 40
    bisection steps) and score exactly the windows that eight one-window
    passes score."""
    calls = []

    def counted(samples_us, lengths, reference):
        ends = np.cumsum(lengths)
        calls.append([samples_us[e - k:e].tobytes()
                      for e, k in zip(ends, lengths)])
        return w1_empirical(samples_us, lengths, reference)

    def project(ts, lengths):
        calls.clear()
        monkeypatch.setattr(worlds_module, "w1_empirical", counted)
        try:
            return project_iats(ts, lengths, ref, 0.004, 250_000)
        finally:
            monkeypatch.undo()

    ref = BenignIatReference(1, [5000, 10_000, 20_000, 40_000])
    segs, scored = [], []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        ts = np.unique(np.sort(rng.integers(0, 240_000, 12)).astype(np.int64))
        try:
            expect = project_iats_uncached(ts, ref, 0.004, (0, 250_000))
        except LocalInfeasibility:
            expect = ts
        out, _ = project(ts, [ts.size])
        assert np.array_equal(out, expect)
        seen = [key for call in calls for key in call]
        assert len(set(seen)) == len(seen)
        scored.append(len(seen))
        segs.append(seed * 250_000 + ts)
    assert scored[1] == 19  # this window bisects, and 23 of its 42 repeat
    out, _ = project(np.concatenate(segs), [s.size for s in segs])
    assert len(calls) <= 42
    assert sum(map(len, calls)) == sum(scored)


# ---------------------------------------------------------------------------
# size repair


def test_repair_fills_to_floor_exactly():
    ts = np.arange(10, dtype=np.int64) * 1000
    sizes = np.full(10, 100, dtype=np.int64)
    out = repair_sizes(ts, sizes, 15_000, LEN_BOUNDS, 250_000)
    assert out.tolist() == [1500] * 10


def test_repair_floor_unreachable():
    ts = np.arange(10, dtype=np.int64) * 1000
    sizes = np.full(10, 100, dtype=np.int64)
    with pytest.raises(FloorUnreachable):
        repair_sizes(ts, sizes, 15_001, LEN_BOUNDS, 250_000)


def test_repair_untouched_when_floor_met():
    ts = np.arange(4, dtype=np.int64) * 1000
    sizes = np.int64([500, 600, 700, 800])
    out = repair_sizes(ts, sizes, 2000, LEN_BOUNDS, 250_000)
    assert out.tolist() == [500, 600, 700, 800]


def test_repair_clips_then_checks():
    ts = np.arange(3, dtype=np.int64) * 1000
    sizes = np.int64([4000, 10, 9999])
    out = repair_sizes(ts, sizes, 0, LEN_BOUNDS, 250_000)
    assert out.tolist() == [1500, 64, 1500]


def test_repair_spreads_across_windows():
    # two windows with unequal headroom; deficit lands proportionally
    ts = np.int64([0, 1000, 250_000, 251_000])
    sizes = np.int64([1400, 1400, 100, 100])
    out = repair_sizes(ts, sizes, 3600, LEN_BOUNDS, 250_000)
    assert int(out.sum()) == 3600
    assert np.all(out <= 1500)
    # nearly all of the 600-byte deficit goes to the roomy second window
    assert int(out[2] + out[3]) - 200 >= 550


@given(st.integers(0, 2**31 - 1))
def test_largest_remainder_exact_and_bounded(seed):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 1000, rng.integers(1, 30)).astype(np.int64)
    total = int(w.sum())
    if total == 0:
        return
    amount = int(rng.integers(0, total + 1))
    out = _largest_remainder(amount, w)
    assert int(out.sum()) == amount
    assert np.all(out >= 0)
    assert np.all(out <= w)


@given(st.integers(0, 2**31 - 1))
def test_repair_postconditions_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    ts = np.sort(rng.integers(0, 2_000_000, n)).astype(np.int64)
    sizes = rng.integers(64, 1501, n).astype(np.int64)
    r_min = int(rng.integers(0, n * 1500 + 1))
    out = repair_sizes(ts, sizes, r_min, LEN_BOUNDS, 250_000)
    assert np.all((out >= 64) & (out <= 1500))
    assert int(out.sum()) == max(int(sizes.sum()), r_min)
    assert np.all(out >= sizes)


# ---------------------------------------------------------------------------
# contention enforcement


def _bulk_ctx(benign_rate, seed, horizon_windows=200, capacity=125_000.0):
    wus = 250_000
    horizon = horizon_windows * wus
    ts, ln = _gen_bulk({"rate_bps": benign_rate, "pkt_len": 600,
                        "jitter_frac": 0.1},
                       np.random.default_rng(seed), horizon, LEN_BOUNDS)
    ft = {1: FlowInfo(None, "bulk", BENIGN)}
    benign = Trace(ts, np.full(ts.shape, 1), ln, np.zeros(ts.shape), ft,
                   horizon_windows, wus)
    ref = BenignIatReference(100, np.sort(np.diff(ts)))
    return CliqueContext(0, 100, benign, capacity, ref, LEN_BOUNDS)


def enforce_one(ts, sizes, ctx, budgets, i_max, rng):
    """enforce_contention of one episode: its (ts, sizes, outcome)."""
    [out] = enforce_contention([(ts, sizes, ctx, budgets, rng)], i_max)
    return out


def test_enforce_unconstrained_zero_iterations():
    ctx = _bulk_ctx(50_000.0, 1)
    ats, aln = _gen_bulk({"rate_bps": 30_000.0, "pkt_len": 600},
                         np.random.default_rng(2), ctx.benign.horizon_us,
                         LEN_BOUNDS)
    b = Budgets(r_min_bytes=0, epsilon_s=math.inf, delta_q_s=math.inf)
    ts, ln, out = enforce_one(ats, aln, ctx, b, 16, None)
    assert out.feasible and out.iterations_used == 0
    assert np.array_equal(ts, ats) and np.array_equal(ln, aln)
    assert math.isfinite(out.final_delay_delta)


def test_enforce_empty_flow_feasible_iff_zero_floor():
    ctx = _bulk_ctx(50_000.0, 1)
    empty = np.empty(0, np.int64)
    _, _, ok = enforce_one(
        empty, empty, ctx, Budgets(0, math.inf, math.inf), 16, None)
    assert ok.feasible and ok.iterations_used == 0
    assert ok.final_delay_delta == 0.0
    _, _, bad = enforce_one(
        empty, empty, ctx, Budgets(1, math.inf, math.inf), 16, None)
    assert not bad.feasible


def test_enforce_thins_until_delay_budget_holds():
    ctx = _bulk_ctx(50_000.0, 1)
    ats, aln = _gen_bulk({"rate_bps": 100_000.0, "pkt_len": 600,
                          "jitter_frac": 0.1},
                         np.random.default_rng(2), ctx.benign.horizon_us,
                         LEN_BOUNDS)
    b = Budgets(r_min_bytes=0, epsilon_s=math.inf, delta_q_s=0.02)
    ts, ln, out = enforce_one(ats, aln, ctx, b, 16, np.random.default_rng(3))
    assert out.feasible
    assert 1 <= out.iterations_used <= 16
    assert out.final_delay_delta <= 0.02 + 1e-6
    assert ts.size < ats.size


def test_enforce_saturated_clique_infeasible():
    ctx = _bulk_ctx(130_000.0, 4)
    ats, aln = _gen_bulk({"rate_bps": 20_000.0, "pkt_len": 600},
                         np.random.default_rng(5), ctx.benign.horizon_us,
                         LEN_BOUNDS)
    b = Budgets(r_min_bytes=0, epsilon_s=math.inf, delta_q_s=0.0)
    _, _, out = enforce_one(ats, aln, ctx, b, 16, np.random.default_rng(6))
    assert not out.feasible
    assert out.iterations_used == 16
    assert out.final_delay_delta > 1e-6


def test_enforce_projection_and_floor_together():
    ctx = _bulk_ctx(50_000.0, 7)
    rng = np.random.default_rng(8)
    # bursty proposal: clumps that need warping toward the bulk reference
    ats = np.sort(rng.integers(0, ctx.benign.horizon_us, 3000))
    ats = np.unique(ats).astype(np.int64)
    aln = np.full(ats.shape, 64, dtype=np.int64)
    b = Budgets(r_min_bytes=400_000, epsilon_s=0.01, delta_q_s=math.inf)
    ts, ln, out = enforce_one(ats, aln, ctx, b, 16, np.random.default_rng(9))
    assert out.feasible
    assert int(ln.sum()) >= 400_000
    assert out.final_distortion <= 0.01 + 1e-9
    assert mean_distortion(ts, ctx.reference, 250_000) == pytest.approx(
        out.final_distortion)


def test_outcome_dict_round_trip_with_nan_delta():
    from flowgate.worlds import FeasibilityOutcome
    o = FeasibilityOutcome(5, Budgets(10, 0.5, math.inf), False, 3, 0.1,
                           math.nan)
    d = json.loads(json.dumps(to_json(o)))
    o2 = from_json(FeasibilityOutcome, d, "outcome")
    assert o2.flow_id == 5 and not o2.feasible and o2.iterations_used == 3
    assert math.isnan(o2.final_delay_delta)
    assert o2.budgets == o.budgets


def _trace_order(flows, flow_table):
    """The oracle of trace order: the flows' packets concatenated in flow
    id order, then stably sorted by arrival."""
    flows = sorted(flows, key=lambda flow: flow[0])
    ts = np.concatenate([np.empty(0, np.int64)] + [f[2] for f in flows])
    fid = np.concatenate([np.empty(0, np.int64)]
                         + [np.full(len(f[2]), f[0]) for f in flows])
    ln = np.concatenate([np.empty(0, np.int64)] + [f[3] for f in flows])
    cq = np.concatenate([np.empty(0, np.int64)]
                        + [np.full(len(f[2]), f[1]) for f in flows])
    order = np.argsort(ts, kind="stable")
    return Trace(ts[order], fid[order], ln[order], cq[order], flow_table,
                 2, 4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), max_size=8), max_size=6),
       st.lists(st.integers(0, 99), min_size=6, max_size=6, unique=True),
       st.integers(0, 6))
def test_with_flows_is_a_stable_sort_of_the_id_ordered_packets(
        arrivals, ids, split):
    # arrivals in [0, 8) force ties across flows and within a flow; the
    # lengths number the packets, so any reordering of a tie shows
    flows, n = [], 0
    for f, ts in zip(ids, arrivals):
        ts = np.sort(np.asarray(ts, dtype=np.int64))
        flows.append((f, f % 3, ts, np.arange(n, n + ts.size)))
        n += ts.size
    ft = {f: FlowInfo(None, "c", BENIGN) for f in ids}
    base = _trace_order(flows[:split], ft)
    assert with_flows(base, flows[split:]) == _trace_order(flows, ft)


# ---------------------------------------------------------------------------
# whole worlds


def _demo_config():
    return WorldConfig(
        world_id="demo", seed=0, horizon_windows=400, window_us=250_000,
        capacity_bps=125_000.0,
        benign_flows=[
            BenignFlowSpec(1, "telemetry", 0, "periodic_telemetry",
                           {"period_s": 1.0, "jitter_frac": 0.05}),
            BenignFlowSpec(2, "telemetry", 0, "periodic_telemetry",
                           {"period_s": 0.8, "jitter_frac": 0.05}),
            BenignFlowSpec(3, "bulk", 0, "bulk_stream",
                           {"rate_bps": 24_000.0, "pkt_len": 600}),
            BenignFlowSpec(4, "bulk", 1, "bulk_stream",
                           {"rate_bps": 24_000.0, "pkt_len": 600}),
            BenignFlowSpec(5, "interactive", 1, "interactive_burst",
                           {"cycle_s": 2.0, "off_fraction": 0.5}),
        ],
        episodes=[
            EpisodeSpec(100, "bulk", 0, "exfiltration", 120, 280,
                        Budgets(200_000, 0.05, 0.05),
                        "bulk_stream", {"rate_bps": 24_000.0, "pkt_len": 600},
                        {"rate_bps": 8_000.0, "pkt_len": 600}),
            EpisodeSpec(101, "telemetry", 1, "beaconing", 40, 360,
                        Budgets(0, math.inf, math.inf),
                        "periodic_telemetry",
                        {"period_s": 1.0, "jitter_frac": 0.05},
                        {"period_s": 5.0}),
        ],
    )


@pytest.fixture(scope="module")
def demo_world():
    return build_world(_demo_config(), 7)


def test_world_trace_valid(demo_world):
    rep = validate_trace(demo_world.trace, LEN_BOUNDS)
    assert rep.ok, rep.issues


def test_world_labels_and_flow_table(demo_world):
    w = demo_world
    assert {l.flow_id for l in w.labels} == {100, 101}
    assert w.trace.flow_table[100].label == MALICIOUS
    assert w.trace.flow_table[1].label == BENIGN
    assert all(o.iterations_used <= w.config.i_max for o in w.feasibility)
    assert {r.flow_id for r in w.references} == {100, 101}


def test_world_graph_in_band(demo_world):
    g = demo_world.graph
    lo, hi = demo_world.config.rho_band
    assert lo <= g.spectral_radius <= hi
    assert set(g.flow_ids) == {1, 2, 3, 4, 5, 100, 101}


def test_world_feasible_episodes_pass_audit(demo_world):
    audit = audit_budgets(demo_world)
    assert len(audit) == 2
    for entry in audit:
        if entry["feasible"]:
            assert entry["all_ok"], entry


@pytest.fixture(scope="module")
def criterion_2_world():
    return build_world(_audit_config(101), 101)


@pytest.mark.parametrize("world_fixture", ["demo_world", "criterion_2_world"])
def test_planner_final_slack_is_the_audit_measurement(request, world_fixture):
    # the planner and the audit replay the same trace-ordered packets, so
    # the planner's last measurement is the audit's, bit for bit
    world = request.getfixturevalue(world_fixture)
    rows = audit_budgets(world)
    assert [r["flow_id"] for r in rows] == [o.flow_id for o in world.feasibility]
    for row, o in zip(rows, world.feasibility):
        assert o.final_distortion == row["mean_distortion_s"]
        if math.isnan(o.final_delay_delta):
            # only an unreachable floor skips the replay
            count = np.count_nonzero(world.trace.flow_id == o.flow_id)
            assert count * LEN_BOUNDS[1] < o.budgets.r_min_bytes
            assert not o.feasible and not row["floor_ok"]
        else:
            assert o.final_delay_delta == row["delay_delta_s"]


def test_audit_replays_each_clique_benign_traffic_once(monkeypatch):
    # a third episode shares clique 0 with episode 100, so the benign-only
    # replay of clique 0 serves both: 3 attack replays + 2 benign replays,
    # submitted in one forks.deal call (a forked worker's calls of
    # clique_baseline_delay reach no counter here, so count the jobs)
    cfg = _demo_config()
    cfg.episodes.append(EpisodeSpec(
        102, "telemetry", 0, "beaconing", 40, 360, Budgets(0, math.inf, math.inf),
        "periodic_telemetry", {"period_s": 1.0, "jitter_frac": 0.05},
        {"period_s": 4.0}))
    world = build_world(cfg, 7)
    trace = world.trace
    submitted = []

    def counted(jobs, costs, widths=None):
        submitted.append(len(jobs))
        return deal(jobs, costs, widths)

    monkeypatch.setattr(worlds_module, "deal", counted)
    rows = audit_budgets(world)
    cliques = {world.graph.clique_of[l.flow_id] for l in world.labels}
    assert len(world.labels) == 3 and cliques == {0, 1}
    assert submitted == [len(world.labels) + len(cliques)] == [5]

    # every row as the per-episode replays give it
    benign = [f for f, info in trace.flow_table.items() if info.label == BENIGN]
    for row, label in zip(rows, world.labels):
        cid = world.graph.clique_of[label.flow_id]
        ben = (trace.clique_id == cid) & np.isin(trace.flow_id, benign)
        d = [clique_baseline_delay(trace.take(m), cfg.capacity_bps)
             for m in (ben, ben | (trace.flow_id == label.flow_id))]
        assert row["flow_id"] == label.flow_id
        assert row["delay_delta_s"] == float(d[1] - d[0])


# the planner's and the auditor's replays, dealt by forks.deal


def world_bytes(world):
    """A world's trace columns, feasibility outcomes and audit rows."""
    t = world.trace
    return ([c.tobytes() for c in (t.ts_us, t.flow_id, t.len_bytes,
                                   t.clique_id)],
            json.dumps([to_json(o) for o in world.feasibility]),
            json.dumps(audit_budgets(world)))


@pytest.mark.parametrize("config", [
    _demo_config, lambda: _audit_config(1, horizon_windows=200)])
def test_planner_and_audit_give_the_same_world_on_one_and_three_cpus(
        monkeypatch, config):
    forks_made = cpus(monkeypatch, 1)
    serial = world_bytes(build_world(config(), 1))
    assert forks_made == []
    forks_made = cpus(monkeypatch, 3)
    shared = world_bytes(build_world(config(), 1))
    assert forks_made
    assert shared == serial
    assert_no_child_left()


def test_enforce_several_episodes_as_each_alone():
    # each episode keeps its own rng draws and projections, whatever the
    # episodes beside it in a round
    ctx = _bulk_ctx(50_000.0, 1)
    b = Budgets(r_min_bytes=0, epsilon_s=math.inf, delta_q_s=0.02)
    episodes = []
    # thinned 2, 0, 3 and 1 times, and one whose floor is unreachable
    for k, rate in enumerate((100_000.0, 30_000.0, 120_000.0, 80_000.0,
                              60_000.0)):
        ats, aln = _gen_bulk({"rate_bps": rate, "pkt_len": 600,
                              "jitter_frac": 0.1},
                             np.random.default_rng(10),
                             ctx.benign.horizon_us, LEN_BOUNDS)
        episodes.append((ats, aln, replace(ctx, flow_id=100 + k),
                         replace(b, r_min_bytes=10**9) if k == 4 else b, k))
    together = enforce_contention(
        [(*e[:4], np.random.default_rng(e[4])) for e in episodes], 16)
    assert [o.iterations_used for _, _, o in together] == [2, 0, 3, 1, 0]
    assert math.isnan(together[4][2].final_delay_delta)
    for e, (ts, ln, out) in zip(episodes, together):
        ts1, ln1, out1 = enforce_one(*e[:4], 16, np.random.default_rng(e[4]))
        assert ts.tobytes() == ts1.tobytes() and ln.tobytes() == ln1.tobytes()
        assert to_json(out) == to_json(out1)


def failing_delay(monkeypatch, bad_cliques, only_in_children=False):
    """Make clique_baseline_delay raise on the cliques named."""
    delay = worlds_module.clique_baseline_delay
    parent = os.getpid()

    def delay_or_error(trace, capacity_bps):
        cid = int(trace.clique_id[0])
        if cid in bad_cliques and not (only_in_children
                                       and os.getpid() == parent):
            raise ValueError(f"clique {cid} failed")
        return delay(trace, capacity_bps)

    monkeypatch.setattr(worlds_module, "clique_baseline_delay",
                        delay_or_error)


@pytest.mark.parametrize("bad", [{1}, {0, 1}])
def test_audit_error_in_a_worker_is_the_serial_error(monkeypatch, demo_world,
                                                     bad):
    failing_delay(monkeypatch, bad)
    cpus(monkeypatch, 1)
    with pytest.raises(ValueError) as serial:
        audit_budgets(demo_world)
    forks_made = cpus(monkeypatch, 3)
    with pytest.raises(ValueError) as shared:
        audit_budgets(demo_world)
    assert forks_made
    assert str(shared.value) == str(serial.value) == (
        f"clique {min(bad)} failed")
    assert_no_child_left()


def test_replays_of_a_dead_worker_are_run_again(monkeypatch):
    cfg = _demo_config()
    expected = world_bytes(build_world(cfg, 1))
    failing_delay(monkeypatch, {0, 1}, only_in_children=True)
    forks_made = cpus(monkeypatch, 3)
    assert world_bytes(build_world(cfg, 1)) == expected
    assert forks_made
    assert_no_child_left()


def test_world_manifest(demo_world):
    m = demo_world.manifest
    assert m.world_id == "demo"
    assert m.seed == 7
    assert m.config_hash == _demo_config().hash()
    assert m.split == (0.6, 0.2, 0.2)


def test_world_deterministic_and_seed_sensitive(tmp_path):
    cfg = _demo_config()
    w1 = build_world(cfg, 7)
    w2 = build_world(cfg, 7)
    assert w1.trace == w2.trace
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_world(d1, w1)
    write_world(d2, w2)
    for f in sorted(d1.iterdir()):
        assert (d2 / f.name).read_bytes() == f.read_bytes(), f.name
    w3 = build_world(cfg, 8)
    assert w3.trace != w1.trace


def test_world_round_trip(demo_world, tmp_path):
    write_world(tmp_path / "w", demo_world)
    back = load_world(tmp_path / "w")
    assert back.trace == demo_world.trace
    assert back.labels == demo_world.labels
    assert back.references == demo_world.references
    assert back.manifest == demo_world.manifest
    assert back.graph.to_dict() == demo_world.graph.to_dict()
    assert to_json(back.feasibility) == to_json(demo_world.feasibility)
    assert to_json(back.config) == to_json(demo_world.config)


def test_check_trace_names_the_flow(demo_world):
    tr, g = demo_world.trace, demo_world.graph
    check_trace(tr, g, LEN_BOUNDS)

    def with_first(flow_id, clique_id):
        fid, cq = tr.flow_id.copy(), tr.clique_id.copy()
        fid[0], cq[0] = flow_id, clique_id
        return Trace(tr.ts_us, fid, tr.len_bytes, cq, tr.flow_table,
                     tr.horizon_windows, tr.window_us)

    with pytest.raises(ValueError, match="flow 999 is not in"):
        check_trace(with_first(999, 0), g, LEN_BOUNDS)
    f = int(tr.flow_id[0])
    with pytest.raises(ValueError, match=f"flow {f} is tagged clique 7"):
        check_trace(with_first(f, 7), g, LEN_BOUNDS)
    table = dict(tr.flow_table)
    table[999] = table[f]
    with pytest.raises(ValueError, match="list different flows"):
        check_trace(Trace(tr.ts_us, tr.flow_id, tr.len_bytes, tr.clique_id,
                          table, tr.horizon_windows, tr.window_us), g,
                    LEN_BOUNDS)
    k = int(np.flatnonzero(np.diff(tr.ts_us))[0]) + 1
    order = np.arange(tr.n_packets)
    order[[k - 1, k]] = [k, k - 1]
    swapped = Trace(tr.ts_us[order], tr.flow_id[order], tr.len_bytes[order],
                    tr.clique_id[order], tr.flow_table, tr.horizon_windows,
                    tr.window_us)
    with pytest.raises(ValueError, match=(
            f"trace.csv: packet {k} at ts {tr.ts_us[k - 1]} precedes "
            f"packet {k - 1} at ts {tr.ts_us[k]}$")):
        check_trace(swapped, g, LEN_BOUNDS)
    # a packet at the horizon would land in the next flow's window 0
    last = tr.n_packets - 1
    ts = tr.ts_us.copy()
    ts[last] = tr.horizon_us
    late = Trace(ts, tr.flow_id, tr.len_bytes, tr.clique_id, tr.flow_table,
                 tr.horizon_windows, tr.window_us)
    with pytest.raises(ValueError, match=(
            f"trace.csv: packet {last} of flow {tr.flow_id[last]} at ts "
            f"{tr.horizon_us} is outside \\[0, {tr.horizon_us}\\)$")):
        check_trace(late, g, LEN_BOUNDS)
    for k, n_bytes in ((3, LEN_BOUNDS[0] - 1), (tr.n_packets - 1,
                                               LEN_BOUNDS[1] + 1)):
        ln = tr.len_bytes.copy()
        ln[k] = n_bytes
        bad = Trace(tr.ts_us, tr.flow_id, ln, tr.clique_id, tr.flow_table,
                    tr.horizon_windows, tr.window_us)
        with pytest.raises(ValueError, match=(
                f"trace.csv: packet {k} of flow {tr.flow_id[k]} has "
                f"{n_bytes} bytes, outside \\[64, 1500\\]$")):
            check_trace(bad, g, LEN_BOUNDS)


def test_load_world_refuses_length_outside_config_bounds(demo_world,
                                                        tmp_path):
    write_world(tmp_path / "w", demo_world)
    trace = demo_world.trace
    ln = trace.len_bytes.copy()
    ln[0] = LEN_BOUNDS[0] - 1
    rebind(tmp_path / "w" / "trace.csv", replace(trace, len_bytes=ln),
           tmp_path / "w" / "manifest.json", "trace_sha256")
    with pytest.raises(ValueError, match=(
            f"packet 0 of flow {trace.flow_id[0]} has 63 bytes, outside")):
        load_world(tmp_path / "w")


def test_load_world_refuses_a_class_without_benign_iats(demo_world,
                                                        tmp_path):
    # episode 101's reference pools telemetry flows 1 and 2: with one
    # packet each left in trace.csv, the class has no IAT to pool
    write_world(tmp_path / "w", demo_world)
    trace = demo_world.trace
    keep = ~np.isin(trace.flow_id, [1, 2])
    for f in (1, 2):
        keep[np.flatnonzero(trace.flow_id == f)[0]] = True
    rebind(tmp_path / "w" / "trace.csv", trace.take(keep),
           tmp_path / "w" / "manifest.json", "trace_sha256")
    with pytest.raises(ValueError, match=(
            "trace.csv: device class 'telemetry' yields no benign IATs to "
            "reference$")):
        load_world(tmp_path / "w")


def test_world_no_episodes_all_benign():
    cfg = _demo_config()
    cfg.episodes = []
    w = build_world(cfg, 1)
    assert w.labels == [] and w.feasibility == [] and w.references == []
    assert all(info.label == BENIGN for info in w.trace.flow_table.values())
    assert validate_trace(w.trace, LEN_BOUNDS).ok


def test_config_validation_errors():
    cfg = _demo_config()
    cfg.episodes[0].device_class = "printer"
    with pytest.raises(ValueError, match="printer"):
        cfg.validate()
    cfg = _demo_config()
    cfg.episodes[0].flow_id = 1
    with pytest.raises(ValueError, match="unique"):
        cfg.validate()
    cfg = _demo_config()
    cfg.episodes[0].end_window = 400
    with pytest.raises(ValueError, match="window span"):
        cfg.validate()
    cfg = _demo_config()
    cfg.split = (0.5, 0.2, 0.2)
    with pytest.raises(ValueError, match="split"):
        cfg.validate()


def test_config_json_round_trip(tmp_path):
    cfg = _demo_config()
    write_json(tmp_path / "c.json", to_json(cfg))
    back = from_json(WorldConfig, load_json(tmp_path / "c.json"), "c.json")
    assert to_json(back) == to_json(cfg)
    assert back.hash() == cfg.hash()
    assert back.episodes[1].budgets.epsilon_s == math.inf
