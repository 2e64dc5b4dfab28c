import heapq
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgate import wfq
from flowgate.detector import Scores
from flowgate.trace import BENIGN, MALICIOUS, FlowInfo, FlowKey, Trace
from flowgate.wfq import (
    GateConfig,
    QueueEventLog,
    Schedule,
    clique_mean_delay,
    delay_percentile,
    gate_controller,
    read_queue_log,
    replay,
    write_queue_log,
    write_schedule,
)
from flowgate.worlds import build_world
from gate_oracle import WeightSchedule, as_table, dense_flags, entries, flags
from gate_oracle import gate_controller as oracle_gate
from support import write_csv_rows
from test_acceptance import _audit_config
from test_forks import assert_no_child_left, cpus


def flow_table(n, labels=None):
    labels = labels or [BENIGN] * n
    return {
        i: FlowInfo(FlowKey(f"10.0.0.{i}", "10.0.9.9", 40000 + i, 443, 6),
                    "bulk_stream", labels[i])
        for i in range(n)
    }


def backlogged_trace(counts, sizes, horizon_windows=4000, window_us=250_000):
    """All packets of all flows arrive at t=0, interleaved round-robin."""
    recs_ts, recs_fid, recs_len = [], [], []
    maxc = max(counts)
    for k in range(maxc):
        for f, c in enumerate(counts):
            if k < c:
                recs_ts.append(0)
                recs_fid.append(f)
                recs_len.append(sizes[f])
    n = len(counts)
    return Trace(np.array(recs_ts), np.array(recs_fid), np.array(recs_len),
                 np.zeros(len(recs_ts), dtype=np.int64), flow_table(n),
                 horizon_windows, window_us)


def test_fifo_closed_form_exact():
    # one flow, back-to-back equal packets: n-th delay is exactly (n-1) * L / C
    L, C, n = 1000, 1_000_000, 20
    tr = backlogged_trace([n], [L])
    log = replay(tr, C)
    expect = np.arange(n, dtype=np.float64) * (L * 1e6 / C)  # microseconds
    assert np.array_equal(np.sort(log.delays_us()), expect)
    assert np.array_equal(log.complete_us - log.dequeue_us,
                          np.full(n, L * 1e6 / C))


def test_single_packet_idle_server_zero_delay():
    ft = flow_table(1)
    tr = Trace(np.array([12345]), np.array([0]), np.array([700]),
               np.array([0]), ft, 4, 250_000)
    log = replay(tr, 50_000)
    assert log.delays_us()[0] == 0.0
    assert log.dequeue_us[0] == 12345.0


def gps_served_bytes(t_us, weights, capacity):
    """Fluid GPS oracle for flows backlogged from t=0 (no flow exhausts)."""
    wsum = sum(weights)
    return [capacity * w / wsum * t_us * 1e-6 for w in weights]


def test_equal_weight_fairness_vs_gps_oracle():
    L, C = 1000, 1_000_000
    tr = backlogged_trace([500, 500], [L, L])
    log = replay(tr, C)
    order = np.argsort(log.complete_us, kind="stable")
    served = {0: 0, 1: 0}
    for j in order:
        f = int(log.flow_id[j])
        served[f] += 1000
        t = float(log.complete_us[j])
        ideal = gps_served_bytes(t, [1.0, 1.0], C)
        assert abs(served[0] - ideal[0]) <= L
        assert abs(served[1] - ideal[1]) <= L
        assert abs(served[0] - served[1]) <= L  # equal service within one packet


def test_three_to_one_weight_share_within_two_percent():
    L, C = 1000, 1_000_000
    tr = backlogged_trace([1200, 1200], [L, L])
    log = replay(tr, C, Schedule([0], [0], [3.0]))
    order = np.argsort(log.complete_us, kind="stable")[:1000]
    served = {0: 0, 1: 0}
    for j in order:
        served[int(log.flow_id[j])] += L
    ratio = served[0] / served[1]
    assert abs(ratio - 3.0) / 3.0 < 0.02


def test_weight_change_applies_to_later_tags_only():
    # flow 0 is demoted mid-backlog; its pre-change packets keep old tags
    L, C = 1000, 100_000  # 10 ms per packet
    tr = backlogged_trace([200, 200], [L, L])
    # all packets tagged at t=0 keep w=1
    log = replay(tr, C, Schedule([0, 0], [0, 1], [1.0, 0.01]))
    served0 = np.sum(log.flow_id[np.argsort(log.dequeue_us)[:400]] == 0)
    assert served0 >= 199  # near-equal split: old tags unaffected by the change

    # now arrivals after the change instant get the tiny weight
    ts = np.concatenate([np.zeros(200, dtype=np.int64),
                         np.full(200, 10, dtype=np.int64)])
    fid = np.concatenate([np.tile([1, 0], 100), np.zeros(200, dtype=np.int64)])
    tr2 = Trace(ts, fid, np.full(400, L), np.zeros(400, dtype=np.int64),
                flow_table(2), 4000, 250_000)
    log2 = replay(tr2, C, Schedule([0, 0], [0, 5], [1.0, 0.01]))
    # flow 0's late (demoted) packets all finish after flow 1's backlog
    late0 = log2.dequeue_us[200:][fid[200:] == 0]
    flow1 = log2.dequeue_us[log2.flow_id == 1]
    assert late0.min() > flow1.max()


def test_work_conservation_and_alignment():
    rng = np.random.default_rng(7)
    n = 300
    ts = np.sort(rng.integers(0, 2_000_000, n)).astype(np.int64)
    fid = rng.integers(0, 3, n).astype(np.int64)
    ln = rng.integers(64, 1500, n).astype(np.int64)
    tr = Trace(ts, fid, ln, np.zeros(n, dtype=np.int64), flow_table(3), 4000, 250_000)
    C = 200_000
    log = replay(tr, C)
    # alignment and timing sanity
    assert np.array_equal(log.enqueue_us, ts)
    assert np.all(log.dequeue_us >= log.enqueue_us)
    assert np.allclose(log.complete_us - log.dequeue_us, ln * 1e6 / C)
    # serial, work-conserving server: any idle gap has no waiting packet
    order = np.argsort(log.dequeue_us, kind="stable")
    dq, cp, eq = log.dequeue_us[order], log.complete_us[order], log.enqueue_us[order]
    for k in range(1, n):
        assert dq[k] >= cp[k - 1] - 1e-9
        if dq[k] > cp[k - 1] + 1e-9:
            waiting = (log.enqueue_us < dq[k] - 1e-9) & (log.dequeue_us > dq[k] - 1e-9)
            waiting[order[k]] = False
            assert not waiting.any()


def test_cliques_are_independent_servers():
    ft = flow_table(2)
    ts = np.array([0, 0, 0, 0])
    fid = np.array([0, 0, 1, 1])
    ln = np.array([1000, 1000, 1000, 1000])
    cq = np.array([0, 0, 1, 1])
    tr = Trace(ts, fid, ln, cq, ft, 4000, 250_000)
    log = replay(tr, 100_000)
    # each clique serves its first packet immediately
    assert np.sum(log.delays_us() == 0.0) == 2


def test_replay_deterministic():
    rng = np.random.default_rng(3)
    n = 500
    ts = np.sort(rng.integers(0, 5_000_000, n)).astype(np.int64)
    fid = rng.integers(0, 4, n).astype(np.int64)
    ln = rng.integers(64, 1500, n).astype(np.int64)
    tr = Trace(ts, fid, ln, np.zeros(n, dtype=np.int64), flow_table(4), 4000, 250_000)
    a = replay(tr, 150_000)
    b = replay(tr, 150_000)
    assert np.array_equal(a.dequeue_us, b.dequeue_us)
    assert np.array_equal(a.complete_us, b.complete_us)


# ---------------------------------------------------------------------------
# gate controller


def test_gate_controller_span_matches_hand_example():
    # flagged windows 10..13, cleared at 14, T_g = 2 s, windows of 250 ms:
    # gated span is [2.5 s, 4.5 s)
    z = np.zeros(40, dtype=bool)
    z[10:14] = True
    cfg = GateConfig(omega_0=1.0, omega_minus=0.1, t_g_s=2.0)
    sched = gate_controller(flags({7: z}), cfg, window_us=250_000)
    assert entries(sched, 7) == [(0, 1.0), (2_500_000, 0.1), (4_500_000, 1.0)]


def test_gate_controller_reactivation_merges_and_restarts_clock():
    z = np.zeros(40, dtype=bool)
    z[10:14] = True
    z[16:18] = True  # starts at 4.0 s, inside the first quarantine tail
    cfg = GateConfig(omega_0=1.0, omega_minus=0.1, t_g_s=2.0)
    sched = gate_controller(flags({3: z}), cfg, window_us=250_000)
    assert entries(sched, 3) == [(0, 1.0), (2_500_000, 0.1), (6_000_000, 1.0)]


def test_gate_controller_quiet_flow_untouched():
    cfg = GateConfig()
    sched = gate_controller(flags({5: np.zeros(10, dtype=bool)}), cfg,
                            window_us=250_000)
    assert entries(sched, 5) == [(0, cfg.omega_0)]
    assert sched.weights([5], [123456]).tolist() == [cfg.omega_0]


def test_gate_controller_release_rounding_onto_next_start_ties():
    # the first release, 499999.5 us, ceil-rounds onto the second span's
    # start: two entries share from_us, and the later one holds from there
    z = np.array([True, False, True, False, False, False])
    cfg = GateConfig(omega_0=1.0, omega_minus=0.1, t_g_s=0.4999995)
    sched = gate_controller(flags({4: z}), cfg, window_us=250_000)
    assert entries(sched, 4) == [(0, 0.1), (500_000, 1.0), (500_000, 0.1),
                                 (1_000_000, 1.0)]
    t = [0, 499_999, 500_000, 999_999, 1_000_000]
    assert sched.weights(np.full(5, 4), t).tolist() == [0.1, 0.1, 0.1, 0.1,
                                                        1.0]


@st.composite
def gate_case(draw):
    """Scores of a few flows over a short horizon, some windows missing, in
    any row order, and a gate whose t_g_s * 1e6 may be non-integral, so
    that a release can round up onto the next span's start."""
    horizon = draw(st.integers(1, 30))
    window_us = draw(st.sampled_from([250_000, 1000, 7]))
    rows = []
    for f in draw(st.lists(st.integers(0, 60), max_size=4, unique=True)):
        windows = draw(st.lists(st.integers(0, horizon - 1), unique=True))
        rows += [(f, w, draw(st.booleans())) for w in windows]
    rows = draw(st.permutations(rows))
    fid, window, z = (np.array(c, dtype=t) for c, t in zip(
        zip(*rows) if rows else ((), (), ()), (np.int64, np.int64, bool)))
    zero = np.zeros(fid.size)
    scores = Scores(fid, window, zero, zero, zero, zero, zero, z, z, zero)
    # half a microsecond short of k windows: a release that rounds up onto
    # the start k windows after the span's own
    t_g_s = draw(st.one_of(st.sampled_from([0.0, 0.4999995, 2.0, 30.0]),
                           st.integers(1, 4).map(
                               lambda k: (k * window_us - 0.5) * 1e-6),
                           st.floats(0.0, 5.0)))
    cfg = GateConfig(omega_0=draw(st.sampled_from([1.0, 2.5])),
                     omega_minus=draw(st.sampled_from([0.05, 0.3])),
                     t_g_s=t_g_s)
    return scores, horizon, window_us, cfg


@settings(max_examples=300, deadline=None)
@given(gate_case(), st.data())
def test_gate_matches_the_dense_oracle(tmp_path_factory, case, data):
    scores, horizon, window_us, cfg = case
    new = gate_controller(scores, cfg, window_us)
    old = oracle_gate(dense_flags(scores, horizon), cfg, window_us)
    d = tmp_path_factory.mktemp("gate")
    write_schedule(d / "new.csv", new)
    rows = [(f, t, w) for f in old.flows() for t, w in old.entries(f)]
    write_csv_rows(d / "old.csv", "flow_id,from_us,weight", "%d,%d,%r\n",
                   [np.array(c, dtype=t) for c, t in zip(
                       zip(*rows) if rows else ((), (), ()),
                       (np.int64, np.int64, np.float64))])
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
    flows = sorted(set(scores.flow_id.tolist()) | {61})  # 61: not scored
    n = data.draw(st.integers(0, 30))
    f = np.array(data.draw(st.lists(st.sampled_from(flows), min_size=n,
                                    max_size=n)), dtype=np.int64)
    t = np.array(data.draw(st.lists(st.integers(
        0, horizon * window_us + int(cfg.t_g_s * 2e6)), min_size=n,
        max_size=n)), dtype=np.int64)
    assert new.weights(f, t).tobytes() == old.weights(f, t).tobytes()


def test_weights_per_packet_lookup():
    sched = Schedule([1] * 4, [0, 10, 10, 20], [1.0, 0.5, 0.25, 1.0],
                     default_weight=2.0)
    fid = np.array([1, 3, 1, 1, 1, 1, 3])
    t = np.array([0, 5, 9, 10, 19, 20, 99])
    assert sched.weights(fid, t).tolist() == [1.0, 2.0, 1.0, 0.25, 0.25,
                                              1.0, 2.0]
    assert sched.weights(fid[:0], t[:0]).shape == (0,)


def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(omega_0=1.0, omega_minus=1.5).validate()
    with pytest.raises(ValueError):
        GateConfig(omega_0=1.0, omega_minus=0.0).validate()
    with pytest.raises(ValueError, match="omega_0 < inf"):
        GateConfig(omega_0=math.inf).validate()
    for t_g_s in (-1.0, math.inf, math.nan, 2**53 / 1e6, 1e308):
        with pytest.raises(ValueError, match="t_g_s"):
            GateConfig(t_g_s=t_g_s).validate()
    GateConfig(t_g_s=1e9).validate()  # 10**15 us: exact


# ---------------------------------------------------------------------------
# percentiles


def make_log(delays_us, benign=None, clique=None):
    n = len(delays_us)
    enq = np.zeros(n, dtype=np.int64)
    deq = np.asarray(delays_us, dtype=np.float64)
    return QueueEventLog(np.zeros(n), clique if clique is not None else np.zeros(n),
                         enq, deq, deq + 1.0,
                         benign if benign is not None else np.ones(n, dtype=bool))


def test_delay_percentile_nearest_rank_frozen():
    # delays 1..1000 us at pct 99.9 -> 1000 (rank = ceil(99.9/100 * 1000) = 1000
    # in IEEE arithmetic; frozen from rank arithmetic)
    log = make_log(np.arange(1, 1001))
    assert delay_percentile(log, 99.9) == 1000.0
    assert delay_percentile(log, 100.0) == 1000.0
    assert delay_percentile(log, 50.0) == 500.0
    small = make_log(np.arange(1, 101))
    assert delay_percentile(small, 99.0) == 99.0


def test_delay_percentile_filters():
    benign = np.array([True, True, False, False])
    clique = np.array([0, 1, 0, 1])
    log = make_log([10, 20, 30, 40], benign=benign, clique=clique)
    assert delay_percentile(log, 100.0) == 40.0
    assert delay_percentile(log, 100.0, benign_only=True) == 20.0
    clique0 = log.take(log.clique_id == 0)
    assert delay_percentile(clique0, 100.0) == 30.0
    assert delay_percentile(clique0, 100.0, benign_only=True) == 10.0
    with pytest.raises(ValueError):
        delay_percentile(make_log([]), 50.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50),
       st.floats(0.1, 100.0))
def test_delay_percentile_is_an_order_statistic(delays, pct):
    log = make_log(delays)
    v = delay_percentile(log, pct)
    assert v in set(delays)
    assert min(delays) <= v <= max(delays)


def test_clique_mean_delay_hand_value():
    log = make_log([100, 200, 300, 400], clique=np.array([0, 0, 1, 1]))
    assert clique_mean_delay(log, 0) == pytest.approx(150e-6)
    assert clique_mean_delay(log, 1) == pytest.approx(350e-6)


# ---------------------------------------------------------------------------
# serialization


def test_queue_log_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    n = 50
    ts = np.sort(rng.integers(0, 100_000, n)).astype(np.int64)
    fid = rng.integers(0, 2, n).astype(np.int64)
    ln = rng.integers(64, 1500, n).astype(np.int64)
    labels = [BENIGN, MALICIOUS]
    tr = Trace(ts, fid, ln, np.zeros(n, dtype=np.int64),
               flow_table(2, labels), 4, 250_000)
    log = replay(tr, 80_000)
    p = tmp_path / "queue.csv"
    back = read_queue_log(p, (write_queue_log(p, log), "replay_manifest.json"))
    assert np.array_equal(back.flow_id, log.flow_id)
    assert np.array_equal(back.enqueue_us, log.enqueue_us)
    assert np.array_equal(back.dequeue_us, log.dequeue_us)
    assert np.array_equal(back.complete_us, log.complete_us)
    assert np.array_equal(back.benign, log.benign)


def test_schedule_csv_lists_every_entry(tmp_path):
    # no command reads a schedule back: the file is the gate's record
    sched = Schedule([2, 2, 2, 9], [0, 500_000, 3_000_000, 0],
                     [1.0, 0.05, 1.0, 1.0])
    p = tmp_path / "sched.csv"
    write_schedule(p, sched)
    assert p.read_text().splitlines() == [
        "flow_id,from_us,weight", "2,0,1.0", "2,500000,0.05", "2,3000000,1.0",
        "9,0,1.0"]
    write_schedule(p, Schedule((), (), ()))
    assert p.read_text() == "flow_id,from_us,weight\n"
    assert sched.weights([2, 2, 7], [600_000, 400_000, 0]).tolist() == [
        0.05, 1.0, 1.0]


# ---------------------------------------------------------------------------
# differential oracle: the scalar heap loop that served every clique before
# the array-prepared kernel; both must give bit-identical service instants


def oracle_replay(trace, capacity_bps, schedule=None):
    if schedule is None:
        schedule = WeightSchedule()
    n = trace.n_packets
    dequeue = np.empty(n, dtype=np.float64)
    complete = np.empty(n, dtype=np.float64)
    cq = trace.clique_id
    for c in np.unique(cq):
        idx = np.flatnonzero(cq == c)
        _replay_clique(idx, trace.ts_us, trace.flow_id, trace.len_bytes,
                       float(capacity_bps), schedule, dequeue, complete)
    return dequeue, complete


def _replay_clique(idx, ts, fid, ln, cap, schedule, dequeue, complete) -> None:
    n = idx.shape[0]
    heap: list[tuple[float, int, int]] = []
    last_finish: dict[int, float] = {}
    # per-flow cursor into its weight schedule; arrivals are time-ordered per flow
    sched_pos: dict[int, int] = {}
    virtual = 0.0
    t_free = 0.0
    i = 0
    seq = 0
    us = 1e6 / cap  # service microseconds per byte

    while i < n or heap:
        if not heap:
            nxt = float(ts[idx[i]])
            if nxt > t_free:
                t_free = nxt
        while i < n and ts[idx[i]] <= t_free:
            j = int(idx[i])
            f = int(fid[j])
            ent = schedule._entries.get(f)
            if ent is None:
                w = schedule.default_weight
            else:
                p = sched_pos.get(f, 0)
                t_arr = int(ts[j])
                while p + 1 < len(ent) and ent[p + 1][0] <= t_arr:
                    p += 1
                sched_pos[f] = p
                w = ent[p][1]
            tag = max(virtual, last_finish.get(f, 0.0)) + ln[j] / (w * cap)
            last_finish[f] = tag
            heapq.heappush(heap, (tag, seq, j))
            seq += 1
            i += 1
        if not heap:
            continue
        tag, _, j = heapq.heappop(heap)
        virtual = tag
        dequeue[j] = t_free
        t_free = t_free + ln[j] * us
        complete[j] = t_free


def assert_matches_oracle(trace, capacity_bps, schedule=None):
    log = replay(trace, capacity_bps,
                 None if schedule is None else as_table(schedule))
    dequeue, complete = oracle_replay(trace, capacity_bps, schedule)
    assert log.dequeue_us.tobytes() == dequeue.tobytes()
    assert log.complete_us.tobytes() == complete.tobytes()


LENGTHS = (64, 100, 128, 1500)
# gaps of 0 give equal timestamps; gaps equal to sums of lengths put
# arrivals exactly at completion instants when service is 1 us per byte
GAPS = (0, 0, 1, 36, 64, 100, 128, 164, 228, 1500, 4000)


@st.composite
def replay_case(draw):
    n_flows = draw(st.integers(1, 5))
    clique_of = draw(st.lists(st.integers(0, 2), min_size=n_flows,
                              max_size=n_flows))
    packets = draw(st.lists(st.tuples(st.sampled_from(GAPS),
                                      st.integers(0, n_flows - 1),
                                      st.sampled_from(LENGTHS)),
                            min_size=1, max_size=60))
    ts = np.cumsum([g for g, _, _ in packets]).astype(np.int64)
    fid = np.array([f for _, f, _ in packets], dtype=np.int64)
    ln = np.array([l for _, _, l in packets], dtype=np.int64)
    cq = np.array([clique_of[f] for f in fid], dtype=np.int64)
    trace = Trace(ts, fid, ln, cq, flow_table(n_flows), 4000, 250_000)
    # 1e6 / capacity is a whole number of microseconds per byte for the
    # first two and not for the last two
    capacity = draw(st.sampled_from([1e6, 40_000.0, 300_000.0, 700_000.0]))
    schedule = WeightSchedule(default_weight=draw(st.sampled_from([1.0, 0.5])))
    instants = sorted(set(ts.tolist()) | {1, 50})
    weight = st.sampled_from([1.0, 0.05, 0.3, 3.0])
    for f in range(n_flows):
        if draw(st.booleans()):
            # changes at arrival instants, possibly two at one instant
            froms = sorted(draw(st.lists(st.sampled_from(instants),
                                         max_size=4)))
            schedule.set_entries(f, [(0, draw(weight))]
                                 + [(t, draw(weight)) for t in froms])
    return trace, capacity, schedule


@settings(max_examples=300, deadline=None)
@given(replay_case())
def test_kernel_matches_scalar_oracle_bitwise(case):
    trace, capacity, schedule = case
    assert_matches_oracle(trace, capacity, schedule)


@pytest.fixture(scope="module")
def audit_world():
    """The audit world and a schedule that gates every episode flow over
    its labelled span."""
    world = build_world(_audit_config(1, horizon_windows=200), 1)
    cfg = world.config
    actionable = {}
    for lab in world.labels:
        z = np.zeros(cfg.horizon_windows, dtype=bool)
        z[lab.start_window:lab.end_window + 1] = True
        actionable[lab.flow_id] = z
    return world, oracle_gate(actionable, GateConfig(), cfg.window_us)


def test_kernel_matches_oracle_on_audit_world(audit_world):
    world, sched = audit_world
    assert_matches_oracle(world.trace, world.config.capacity_bps)
    assert_matches_oracle(world.trace, world.config.capacity_bps, sched)


# ---------------------------------------------------------------------------
# shares: cliques dealt by forks.deal, one share per CPU


def log_bytes(log):
    return [getattr(log, f.name).tobytes() for f in fields(QueueEventLog)]


@pytest.mark.parametrize("gated", [False, True])
def test_one_cpu_forks_nothing_and_matches_the_shares(monkeypatch,
                                                      audit_world, gated):
    world, sched = audit_world
    schedule = as_table(sched) if gated else None
    n_cliques = np.unique(world.trace.clique_id).size
    assert n_cliques > 3
    forks = cpus(monkeypatch, 3)
    shared = replay(world.trace, world.config.capacity_bps, schedule)
    assert len(forks) == 2
    forks = cpus(monkeypatch, 1)
    serial = replay(world.trace, world.config.capacity_bps, schedule)
    assert forks == []
    assert log_bytes(shared) == log_bytes(serial)
    assert_no_child_left()


def three_cliques():
    # clique 2 holds the most packets, so the parent serves it and the
    # children serve cliques 0 and 1
    ts = np.arange(12, dtype=np.int64) * 100
    cq = np.array([2, 0, 2, 1, 2, 0, 2, 1, 2, 2, 2, 2])
    return Trace(ts, cq.copy(), np.full(12, 500), cq, flow_table(3), 4000,
                 250_000)


def failing_kernel(monkeypatch, bad_cliques, only_in_children=False):
    """Make the kernel raise on the cliques (= flows here) named."""
    kernel = wfq._replay_clique
    parent = os.getpid()

    def kernel_or_error(t, f, *args):
        if int(f[0]) in bad_cliques and not (only_in_children
                                             and os.getpid() == parent):
            raise ValueError(f"clique {int(f[0])} failed")
        return kernel(t, f, *args)

    monkeypatch.setattr(wfq, "_replay_clique", kernel_or_error)


@pytest.mark.parametrize("bad", [{1}, {0, 2}, {1, 2}])
def test_error_in_a_share_is_the_serial_error(monkeypatch, bad):
    trace = three_cliques()
    failing_kernel(monkeypatch, bad)
    cpus(monkeypatch, 1)
    with pytest.raises(ValueError) as serial:
        replay(trace, 100_000)
    forks = cpus(monkeypatch, 3)
    with pytest.raises(ValueError) as shared:
        replay(trace, 100_000)
    assert len(forks) == 2
    assert str(shared.value) == str(serial.value) == (
        f"clique {min(bad)} failed")
    assert_no_child_left()


def test_share_of_a_dead_child_is_served_again(monkeypatch):
    trace = three_cliques()
    expected = log_bytes(replay(trace, 100_000))
    failing_kernel(monkeypatch, {0, 1}, only_in_children=True)
    forks = cpus(monkeypatch, 3)
    assert log_bytes(replay(trace, 100_000)) == expected
    assert len(forks) == 2
    assert_no_child_left()
