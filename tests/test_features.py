import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate import features
from flowgate.features import (
    CLIP,
    FEATURE_NAMES,
    N_FEATURES,
    Normalizer,
    windowize,
)
from flowgate.trace import BENIGN, FlowInfo, FlowKey, Trace
from flowgate.worlds import ContentionGraph
from detector_oracle import RowNormalizer
from support import block_edges


def feature(tab, name):
    """Feature `name` of a FeatureTable as a (flow x window) view of x."""
    return tab.x[:, :, FEATURE_NAMES.index(name)].T


def pacing_index_from_counts(counts, n_packets: int) -> float:
    """Per-cell oracle of the pacing column: 1 - H / log(min(B, N)) with H
    the entropy of the micro-bin counts; 0 when N <= 1."""
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
    """Per-cell oracle of (share, interference) for one flow-window."""
    share = flow_bytes / max(1.0, clique_bytes)
    interference = float(np.dot(neighbor_weights, neighbor_byte_rates))
    return share, interference


def flow_table(n):
    return {
        i: FlowInfo(FlowKey(f"10.0.0.{i}", "10.0.9.9", 40000 + i, 443, 6),
                    "bulk_stream", BENIGN)
        for i in range(n)
    }


def trace_of(ts, fid, ln, cq=None, n_flows=None, H=4, window_us=250_000):
    ts = np.asarray(ts, dtype=np.int64)
    n_flows = n_flows or (int(max(fid)) + 1 if len(fid) else 1)
    cq = cq if cq is not None else np.zeros(len(ts), dtype=np.int64)
    return Trace(ts, np.asarray(fid), np.asarray(ln), np.asarray(cq),
                 flow_table(n_flows), H, window_us)


def one_clique(tr, W=None):
    """All of the trace's flows in clique 0, zero weights unless given."""
    n = len(tr.flow_table)
    return ContentionGraph({0: sorted(tr.flow_table)},
                           {0: np.zeros((n, n)) if W is None else W})


def test_windowize_hand_example():
    # two packets at 0 ms and 100 ms, 500 B each, in a 250 ms window
    tr = trace_of([0, 100_000], [0, 0], [500, 500])
    tab = windowize(tr, one_clique(tr))
    assert feature(tab, "pkt_rate")[0, 0] == pytest.approx(8.0)
    assert feature(tab, "byte_rate")[0, 0] == pytest.approx(4000.0)
    assert feature(tab, "iat_mean")[0, 0] == pytest.approx(0.1)
    assert feature(tab, "iat_cv")[0, 0] == 0.0
    # remaining windows are empty: zero rates, missing IATs
    for w in (1, 2, 3):
        assert feature(tab, "pkt_rate")[0, w] == 0.0
        assert feature(tab, "byte_rate")[0, w] == 0.0
        assert math.isnan(feature(tab, "iat_mean")[0, w])
        assert math.isnan(feature(tab, "iat_cv")[0, w])
        assert feature(tab, "pacing")[0, w] == 0.0


def test_windowize_iat_is_within_window_only():
    # consecutive packets in different windows contribute no IAT
    tr = trace_of([240_000, 260_000], [0, 0], [500, 500])
    tab = windowize(tr, one_clique(tr))
    assert math.isnan(feature(tab, "iat_mean")[0, 0])
    assert math.isnan(feature(tab, "iat_mean")[0, 1])


def test_windowize_iat_cv():
    # IATs 100 ms and 300 ms: mean 0.2 s, population std 0.1 s, cv 0.5
    tr = trace_of([0, 100_000, 400_000], [0, 0, 0], [500, 500, 500],
                  H=4, window_us=500_000)
    tab = windowize(tr, one_clique(tr))
    assert feature(tab, "iat_mean")[0, 0] == pytest.approx(0.2)
    assert feature(tab, "iat_cv")[0, 0] == pytest.approx(0.5)


def test_single_packet_window_has_missing_iat_and_zero_pacing():
    tr = trace_of([10], [0], [500])
    tab = windowize(tr, one_clique(tr))
    assert feature(tab, "pkt_rate")[0, 0] == 4.0  # one packet in 0.25 s
    assert math.isnan(feature(tab, "iat_mean")[0, 0])
    assert math.isnan(feature(tab, "iat_cv")[0, 0])
    assert feature(tab, "pacing")[0, 0] == 0.0


def test_pacing_index_frozen_examples():
    assert pacing_index_from_counts([3, 3, 3, 3], 12) == pytest.approx(0.0)
    assert pacing_index_from_counts([12, 0, 0, 0], 12) == pytest.approx(1.0)
    assert pacing_index_from_counts([1, 0, 0, 0], 1) == 0.0
    assert pacing_index_from_counts([0, 0, 0, 0], 0) == 0.0
    # two packets maximally spread also reach 0 (normalized by min(B, N))
    assert pacing_index_from_counts([1, 1, 0, 0], 2) == pytest.approx(0.0)


def test_pacing_index_in_windowized_table():
    # 4 packets all inside the first micro-bin of window 0 (B=10 -> bin 25 ms)
    tr = trace_of([0, 5_000, 10_000, 15_000], [0, 0, 0, 0], [100] * 4)
    tab = windowize(tr, one_clique(tr))
    assert feature(tab, "pacing")[0, 0] == pytest.approx(1.0)
    # 4 packets spread across 4 distinct micro-bins -> 0
    tr2 = trace_of([0, 30_000, 60_000, 90_000], [0, 0, 0, 0], [100] * 4)
    tab2 = windowize(tr2, one_clique(tr2))
    assert feature(tab2, "pacing")[0, 0] == pytest.approx(0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 999_999), st.integers(0, 2)),
                max_size=120),
       st.integers(2, 12))
def test_pacing_matches_per_cell_oracle(packets, B):
    # the occupied-bin kernel against explicit bin counts for every cell
    packets.sort()
    ts = [t for t, _ in packets]
    fid = [f for _, f in packets]
    tr = trace_of(ts, fid, [100] * len(ts), n_flows=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "MICRO_BINS", B)
        tab = windowize(tr, one_clique(tr))
    for fi in range(3):
        for w in range(tr.horizon_windows):
            bins = [0] * B
            for t, f in packets:
                if f == fi and t // tr.window_us == w:
                    bins[(t - w * tr.window_us) * B // tr.window_us] += 1
            expect = pacing_index_from_counts(bins, sum(bins))
            assert feature(tab, "pacing")[fi, w] == pytest.approx(
                expect, rel=1e-12, abs=1e-12)


def test_windowize_memory_does_not_grow_with_micro_bins(monkeypatch):
    rng = np.random.default_rng(11)
    n = 20_000
    tr = trace_of(np.sort(rng.integers(0, 75_000_000, n)),
                  rng.integers(0, 20, n), rng.integers(64, 1500, n),
                  n_flows=20, H=300)
    g = one_clique(tr)

    def peak(micro_bins):
        monkeypatch.setattr(features, "MICRO_BINS", micro_bins)
        tracemalloc.start()
        try:
            windowize(tr, g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100) < 1.5 * peak(10)


def test_contention_features_hand_example():
    # two-flow clique, w12 = 0.5, neighbor byte rate 1000 B/s
    share, interference = contention_features(
        flow_bytes=250.0, clique_bytes=1250.0,
        neighbor_weights=np.array([0.0, 0.5]),
        neighbor_byte_rates=np.array([250.0 / 0.25, 1000.0]))
    assert interference == pytest.approx(500.0)
    assert share == pytest.approx(0.2)
    # empty clique guard: denominator floors at 1
    share, _ = contention_features(0.0, 0.0, np.zeros(1), np.zeros(1))
    assert share == 0.0


def test_windowize_contention_columns():
    # flows 0,1 share clique 0 with w01 = w10 = 0.5; flow 1 sends 1000 B/s
    ts = [0, 0]
    fid = [0, 1]
    ln = [500, 250]
    tr = trace_of(ts, fid, ln, n_flows=2)
    W = np.array([[0.0, 0.5], [0.5, 0.0]])
    tab = windowize(tr, one_clique(tr, W))
    share, interference = feature(tab, "share"), feature(tab, "interference")
    byte_rate = feature(tab, "byte_rate")
    assert share[0, 0] == pytest.approx(500 / 750)
    assert interference[0, 0] == pytest.approx(0.5 * (250 / 0.25))
    assert share[1, 0] == pytest.approx(250 / 750)
    assert interference[1, 0] == pytest.approx(0.5 * (500 / 0.25))
    # the per-cell oracle agrees
    for fi in range(2):
        expect = contention_features(
            byte_rate[fi, 0] * 0.25, byte_rate[:, 0].sum() * 0.25, W[fi],
            byte_rate[:, 0])
        assert (share[fi, 0], interference[fi, 0]) == pytest.approx(
            expect, rel=1e-12)


def test_windowize_causality():
    # dropping future packets leaves earlier windows untouched
    rng = np.random.default_rng(5)
    n = 200
    ts = np.sort(rng.integers(0, 1_000_000, n))
    fid = rng.integers(0, 3, n)
    ln = rng.integers(64, 1500, n)
    tr = trace_of(ts, fid, ln, n_flows=3)
    full = windowize(tr, one_clique(tr))
    cut = 500_000  # keep windows 0..1
    tr2 = tr.take(tr.ts_us < cut)
    part = windowize(tr2, one_clique(tr2))
    for arr in ("pkt_rate", "byte_rate", "pacing", "share"):
        a = feature(full, arr)[:, :2]
        b = feature(part, arr)[:, :2]
        assert np.allclose(a, b, equal_nan=True)


def test_every_flow_gets_rows_even_without_packets():
    tr = trace_of([0], [0], [500], n_flows=3)
    tab = windowize(tr, one_clique(tr))
    # one (flows x features) matrix per window, rows in flow_ids order
    assert tab.x.shape == (4, 3, N_FEATURES)
    assert tab.flow_ids == [0, 1, 2]
    for w in range(4):
        for fi in range(3):
            np.testing.assert_array_equal(tab.row(fi, w), [
                feature(tab, name)[fi, w] for name in FEATURE_NAMES])
    byte_rate = feature(tab, "byte_rate")
    assert byte_rate[0, 0] == 2000.0 and not byte_rate[1:].any()


def test_windowize_refuses_a_graph_of_other_flows():
    # the detector's rows follow the table's flows, so the graph must hold
    # exactly these
    tr = trace_of([0], [0], [500], n_flows=2)
    other = ContentionGraph({0: [0, 2]}, {0: np.zeros((2, 2))})
    with pytest.raises(ValueError, match="flow ids do not match"):
        windowize(tr, other)


# ---------------------------------------------------------------------------
# normalizer


def padded(x):
    """A block from x, nested (windows x rows x k) values: the first k
    features of each row, the rest NaN (missing)."""
    x = np.array(x, dtype=np.float64)
    block = np.full(x.shape[:2] + (N_FEATURES,), np.nan)
    block[..., :x.shape[2]] = x
    return block


def one_row(norm, *x):
    """Score a block of one one-row window whose first features are x;
    returns their z list."""
    z, _ = norm.score_and_update(padded([[x]]))
    return z[0, 0, :len(x)].tolist()


def test_normalizer_scores_before_updating():
    norm = Normalizer(["b"])
    z0 = one_row(norm, 5.0)
    assert z0 == [0.0]  # first sighting: m initialized to x
    # second observation scored against the state built from the first only
    z1 = one_row(norm, 6.0)
    assert z1[0] == pytest.approx(CLIP)  # q still ~eps: clipped


def test_normalizer_one_step_memory_oracle(monkeypatch):
    # with lambda_mean = lambda_var = 1 the normalizer degenerates to
    # z_t = (x_t - x_{t-1}) / sqrt((x_{t-1} - x_{t-2})^2 + eps)
    for name, value in (("LAMBDA_MEAN", 1.0), ("LAMBDA_VAR", 1.0),
                        ("EPS_VAR", 1e-6), ("CLIP", 100.0)):
        monkeypatch.setattr(features, name, value)
    norm = Normalizer(["b"])
    xs = [2.0, 5.0, 4.0, 4.5, 10.0]
    zs = [one_row(norm, x)[0] for x in xs]
    assert zs[0] == 0.0
    for t in range(2, len(xs)):
        expect = (xs[t] - xs[t - 1]) / math.sqrt((xs[t - 1] - xs[t - 2]) ** 2 + 1e-6)
        expect = max(-100.0, min(100.0, expect))
        assert zs[t] == pytest.approx(expect), t


def test_normalizer_missing_components_score_zero_and_skip_update():
    norm = Normalizer(["b"])
    one_row(norm, 1.0, 1.0)
    before_m = list(norm._m[0])
    before_q = list(norm._q[0])
    z, counts = norm.score_and_update(padded([[[]]]))
    assert z.tolist() == [[[0.0] * N_FEATURES]]
    assert norm._m[0] == before_m
    assert norm._q[0] == before_q
    # an all-missing row does not count as an update of its bucket
    _, counts_after = norm.score_and_update(padded([[[1.0, 1.0]]]))
    assert counts.tolist() == counts_after.tolist() == [[1]]


def test_normalizer_clip():
    norm = Normalizer(["b"])
    one_row(norm, 0.0)
    assert one_row(norm, 1e9) == [8.0]
    assert one_row(norm, -1e9) == [-8.0]


def test_normalizer_buckets_are_independent():
    norm = Normalizer(["a", "b"])
    z, counts = norm.score_and_update(padded([[[100.0], [0.0]]]))
    assert z.tolist() == [[[0.0] * N_FEATURES] * 2]
    assert counts.tolist() == [[0, 0]]
    _, counts = norm.score_and_update(padded([[[100.0], [0.0]]]))
    assert counts.tolist() == [[1, 1]]


def test_normalizer_rows_of_a_bucket_fold_in_row_order():
    # rows 0 and 2 share bucket "a": row 2 is scored against the state row 0
    # just folded in, and each row reports its bucket's count before it
    norm = Normalizer(["a", "b", "a"])
    z, counts = norm.score_and_update(padded([[[5.0], [1.0], [6.0]]]))
    assert counts.tolist() == [[0, 0, 1]]
    assert z[0, 0, 0] == 0.0 and z[0, 1, 0] == 0.0
    assert z[0, 2, 0] == pytest.approx(CLIP)
    _, counts = norm.score_and_update(padded([[[5.0], [1.0], [6.0]]]))
    assert counts.tolist() == [[2, 1, 3]]


def test_normalizer_slow_phase_scales_once():
    # at lambda_mean 0.05, lambda_var 0.01 and slow_factor 0.2
    norm = Normalizer(["b"])
    norm.enter_slow_phase()
    norm.enter_slow_phase()
    assert norm.lambda_mean == pytest.approx(0.01)
    assert norm.lambda_var == pytest.approx(0.002)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=30))
def test_normalizer_converges_on_constant_tail(xs):
    # after a long constant stream the z-score of that constant tends to 0
    norm = Normalizer(["b"])
    for x in xs:
        one_row(norm, x)
    z = None
    for _ in range(400):
        z = one_row(norm, 7.5)[0]
    assert abs(z) < 0.5


# ---------------------------------------------------------------------------
# the block normalizer against the window normalizer it replaced


@st.composite
def feature_blocks(draw):
    """Windows of rows in several buckets, with NaN-heavy columns, spikes
    and, sometimes, an infinite value; and where the slow phase starts."""
    n = draw(st.integers(1, 8))
    buckets = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    n_windows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-5.0, 10.0, (n_windows, n, N_FEATURES))
    x[rng.random(x.shape) < 0.02] *= 1e4
    for k in np.flatnonzero(rng.random(N_FEATURES) < 0.4):
        col = x[:, :, k]
        col[rng.random(col.shape) < draw(st.sampled_from([0.7, 0.95]))] = \
            np.nan
    x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.2]))] = np.nan
    x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.0, 0.003]))] = \
        draw(st.sampled_from([np.inf, -np.inf]))
    return buckets, x, draw(st.none() | st.integers(0, n_windows))


@settings(max_examples=200, deadline=None)
@given(feature_blocks(),
       st.sampled_from([1, 7, None]) | st.sets(st.integers(1, 39)))
def test_block_normalizer_matches_window_normalizer_bitwise(case, split):
    # any cut of the windows into blocks (None: one block of all) gives
    # each window's z-scores and update counts bit for bit as the window
    # normalizer does, the slow phase starting at a block edge
    buckets, x, slow_at = case
    old, new = RowNormalizer(buckets), Normalizer(buckets)
    want_z, want_n = [], []
    for w, xw in enumerate(x):
        if w == slow_at:
            old.enter_slow_phase()
        z, counts = old.score_and_update(xw)
        want_z.append(z)
        want_n.append(counts)
    got_z, got_n = [], []
    edges = block_edges(len(x), split or len(x), keep=[slow_at or 0])
    for a, b in zip(edges, edges[1:]):
        if a == slow_at:
            new.enter_slow_phase()
        z, counts = new.score_and_update(x[a:b])
        got_z.append(z)
        got_n.append(counts)
    assert np.concatenate(got_z).tobytes() == np.array(want_z).tobytes()
    assert np.concatenate(got_n).tolist() == np.array(want_n).tolist()
    assert repr((new._m, new._q, new._updates)) == \
        repr((old._m, old._q, old._updates))
