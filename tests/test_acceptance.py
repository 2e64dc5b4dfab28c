"""Acceptance suite: one test per release criterion, slow but deterministic.

Every test prints exactly one '[criterion N] name: PASS|FAIL (...)' line
(run with `pytest -s tests/test_acceptance.py` to see them) and then asserts
the same condition. Worlds are rebuilt from frozen seeds chosen during
tuning; generation and scoring are fully deterministic, so the reported
margins are stable across runs on any host.
"""

import json
import math
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from detector_oracle import derive_flags
from flowgate.cli import main as cli_main
from flowgate.detector import (
    Calibration,
    DetectorParams,
    DetectorSession,
    flags,
    step,
)
from flowgate.features import windowize
from flowgate.metrics import achieved_fpr, bench_scoring
from flowgate.trace import (
    BENIGN,
    Budgets,
    FlowInfo,
    FlowKey,
    Trace,
    to_json,
    write_json,
)
from flowgate.wfq import GateConfig, Schedule, gate_controller, replay
from flowgate.worlds import (
    BenignFlowSpec,
    EpisodeSpec,
    WorldConfig,
    audit_budgets,
    build_world,
    contention_graph,
)
from support import (
    damping_margin,
    fixed_point_residual,
    queue_impact,
    solve_fixed_point,
    detect_record,
    synthetic_feature_stream,
    thresholds_by_flow,
)


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _score_table(table, world, burn: int, quantile: float, w_min: int):
    """A full detector pass over every window, as one (window, flow)-ordered
    Scores table."""
    ses = DetectorSession(
        DetectorParams(), table.flow_ids,
        [world.trace.flow_table[f].device_class for f in table.flow_ids],
        burn, Calibration(quantile, w_min=w_min))
    return ses, ses.process_window(0, table.x)


def _graph(world):
    """The contention graph that detect derives for world."""
    return contention_graph(world.config, world.manifest.seed)


def _score_world(world, burn: int, quantile: float, w_min: int):
    """Feature table plus a full detector pass over every window."""
    table = windowize(world.trace, _graph(world))
    return (table, *_score_table(table, world, burn, quantile, w_min))


# ---------------------------------------------------------------------------
# criterion 1: calibration fidelity on a benign-only world


def _calibration_world():
    telemetry = [(0.9, 0.35), (1.0, 0.4), (1.1, 0.45), (1.25, 0.3), (1.3, 0.4)]
    bulk = [(2400.0, 300), (3600.0, 400), (4800.0, 500), (6000.0, 600),
            (3000.0, 350)]
    interactive = [(1.5, 0.4), (2.0, 0.5), (2.5, 0.35), (3.0, 0.6)]
    flows = []
    fid = 1
    for period, jf in telemetry:
        flows.append(BenignFlowSpec(fid, "telemetry", fid % 3,
                                    "periodic_telemetry",
                                    {"period_s": period, "jitter_frac": jf}))
        fid += 1
    for rate, pkt in bulk:
        flows.append(BenignFlowSpec(fid, "bulk", fid % 3, "bulk_stream",
                                    {"rate_bps": rate, "pkt_len": pkt,
                                     "jitter_frac": 0.4}))
        fid += 1
    for cyc, off in interactive:
        flows.append(BenignFlowSpec(fid, "interactive", fid % 3,
                                    "interactive_burst",
                                    {"cycle_s": cyc, "off_fraction": off}))
        fid += 1
    cfg = WorldConfig(world_id="calib", seed=11, horizon_windows=10_000,
                      window_us=250_000, capacity_bps=1_000_000.0,
                      benign_flows=flows, episodes=[])
    return build_world(cfg, 11)


def test_criterion_1_calibration_fidelity():
    t0 = time.perf_counter()
    burn = 6000
    world = _calibration_world()
    table = windowize(world.trace, _graph(world))
    results = {}
    for q in (0.99, 0.999):
        ses, scores = _score_table(table, world, burn, q, w_min=50)
        th = thresholds_by_flow(ses.thresholds())
        rated = [f for f, t in th.items() if t["detector"] is not None]
        eligible = int(((scores.window >= burn)
                        & np.isin(scores.flow_id, rated)).sum())
        fpr_alarm, _ = achieved_fpr(scores, world.labels,
                                    detect_record(ses, world.manifest), burn)
        results[q] = (fpr_alarm, eligible)
    elapsed = time.perf_counter() - t0
    fpr99, elig = results[0.99]
    fpr999, _ = results[0.999]
    ok = (elig >= 10_000
          and 0.005 <= fpr99 <= 0.015
          and 0.0002 <= fpr999 <= 0.002
          and elapsed < 60.0)
    _check(1, "calibration fidelity", ok,
           f"fpr@0.99={fpr99:.5f} in [0.005,0.015], "
           f"fpr@0.999={fpr999:.5f} in [0.0002,0.002], "
           f"pairs={elig} >= 10000, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 2: budget enforcement confirmed by an independent audit


def _audit_config(seed: int, horizon_windows: int = 400) -> WorldConfig:
    """The budget-audit world; episode spans keep their share of the horizon."""
    flows = []
    fid = 1
    # three light cliques: bulk pairs plus one interactive, far below capacity
    for clique in (0, 1, 2):
        for i in range(2):
            flows.append(BenignFlowSpec(fid, "bulk", clique, "bulk_stream",
                                        {"rate_bps": 20000.0 + 2000.0 * i,
                                         "pkt_len": 500 + 50 * i,
                                         "jitter_frac": 0.4}))
            fid += 1
        flows.append(BenignFlowSpec(fid, "interactive", clique,
                                    "interactive_burst",
                                    {"cycle_s": 1.5, "off_fraction": 0.5,
                                     "iat_s": 0.02}))
        fid += 1
    # saturated clique for the over-constrained episode
    for i in range(4):
        flows.append(BenignFlowSpec(fid, "bulk", 3, "bulk_stream",
                                    {"rate_bps": 32500.0, "pkt_len": 650,
                                     "jitter_frac": 0.3}))
        fid += 1
    # near-capacity clique: a heavy overlay here is feasible only after thinning
    for i in range(3):
        flows.append(BenignFlowSpec(fid, "bulk", 4, "bulk_stream",
                                    {"rate_bps": 33000.0, "pkt_len": 700,
                                     "jitter_frac": 0.3}))
        fid += 1

    specs = [
        (0, "exfiltration", Budgets(150_000, 0.05, 0.05),
         ("bulk_stream", {"rate_bps": 20000.0, "pkt_len": 500, "jitter_frac": 0.4}),
         {"rate_bps": 12000.0, "pkt_len": 900, "jitter_frac": 0.2}),
        (1, "exfiltration", Budgets(200_000, 0.02, math.inf),
         ("bulk_stream", {"rate_bps": 22000.0, "pkt_len": 550, "jitter_frac": 0.4}),
         {"rate_bps": 16000.0, "pkt_len": 1200, "jitter_frac": 0.2}),
        (2, "scan", Budgets(0, 0.05, 0.05),
         ("bulk_stream", {"rate_bps": 20000.0, "pkt_len": 500, "jitter_frac": 0.4}),
         {"rate_pps": 40.0, "pkt_len": 64}),
        (0, "beaconing", Budgets(50_000, math.inf, 0.05),
         ("interactive_burst", {"cycle_s": 1.5, "off_fraction": 0.5, "iat_s": 0.02}),
         {"period_s": 0.5, "jitter_frac": 0.05, "pkt_len": 128}),
        (1, "evasive_c2", Budgets(80_000, 0.05, math.inf),
         ("interactive_burst", {"cycle_s": 1.5, "off_fraction": 0.5, "iat_s": 0.02}),
         {"burst_every_s": 2.0, "burst_pkts": 10, "intra_iat_s": 0.02,
          "pkt_len": 250}),
        (2, "exfiltration", Budgets(120_000, 0.03, 0.1),
         ("bulk_stream", {"rate_bps": 21000.0, "pkt_len": 520, "jitter_frac": 0.4}),
         {"rate_bps": 10000.0, "pkt_len": 800, "jitter_frac": 0.3}),
        # over-constrained: saturated clique, zero delay budget, huge floor
        (3, "exfiltration", Budgets(2_000_000, 0.02, 0.0),
         ("bulk_stream", {"rate_bps": 30000.0, "pkt_len": 650, "jitter_frac": 0.3}),
         {"rate_bps": 40000.0, "pkt_len": 1500, "jitter_frac": 0.1}),
        # requires thinning: overlay tips the clique past capacity
        (4, "exfiltration", Budgets(20_000, math.inf, 0.05),
         ("bulk_stream", {"rate_bps": 30000.0, "pkt_len": 700, "jitter_frac": 0.3}),
         {"rate_bps": 30000.0, "pkt_len": 1400, "jitter_frac": 0.15}),
    ]
    eps = []
    for j, (clique, kind, budgets, (ck, cp), op) in enumerate(specs):
        cls = "interactive" if ck == "interactive_burst" else "bulk"
        eps.append(EpisodeSpec(100 + j, cls, clique, kind,
                               120 * horizon_windows // 400,
                               320 * horizon_windows // 400,
                               budgets, ck, cp, op))
    return WorldConfig(world_id=f"audit-{seed}", seed=seed,
                       horizon_windows=horizon_windows, window_us=250_000,
                       capacity_bps=125_000.0, benign_flows=flows,
                       episodes=eps)


def _audit_world(seed: int):
    return build_world(_audit_config(seed), seed)


def test_criterion_2_budget_audit():
    t0 = time.perf_counter()
    total = feasible = hard_infeasible = 0
    violations = []
    for seed in (101, 202, 303):
        world = _audit_world(seed)
        outcomes = {o.flow_id: o for o in world.feasibility}
        for row in audit_budgets(world):
            total += 1
            if row["feasible"]:
                feasible += 1
                if not row["all_ok"]:
                    violations.append((seed, row["flow_id"], row))
        # flow 106 pairs a zero delay budget with a saturated clique and a
        # floor far above what the horizon can carry
        if not outcomes[106].feasible:
            hard_infeasible += 1
    elapsed = time.perf_counter() - t0
    ok = (total >= 20 and feasible > 0 and not violations
          and hard_infeasible >= 1 and elapsed < 300.0)
    _check(2, "budget audit", ok,
           f"episodes={total} across 3 seeds, feasible all-ok="
           f"{feasible - len(violations)}/{feasible}, "
           f"over-constrained infeasible={hard_infeasible}/3, "
           f"{elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# criterion 3: detector dynamics (fixed points, boundedness, persistence)


def _stable_params(rng) -> DetectorParams:
    """Rejection-sample parameters whose damping margin is positive."""
    while True:
        p = DetectorParams(alpha=float(rng.uniform(0.3, 1.5)),
                           kappa=float(rng.uniform(0.5, 2.0)),
                           beta=float(rng.uniform(0.0, 0.15)),
                           lam=float(rng.uniform(1.2, 1.8)),
                           chi=float(rng.uniform(0.15, 0.4)),
                           a=float(rng.uniform(0.05, 0.2)),
                           b=float(rng.uniform(0.2, 0.8)),
                           mu=float(rng.uniform(0.02, 0.1)),
                           v_rest=float(rng.uniform(0.0, 0.5)))
        p.validate()
        if damping_margin(p) > 0:
            return p


def _stacked_params(sets) -> DetectorParams:
    """One DetectorParams holding, for each field that differs across sets,
    an array with one element per set: step() then advances every set at
    once, each element's arithmetic that of the set stepped alone."""
    fields = {}
    for name in asdict(sets[0]):
        values = [getattr(p, name) for p in sets]
        fields[name] = values[0] if len(set(values)) == 1 else np.array(values)
    return DetectorParams(**fields)


def _persistence_oracle(alarms: np.ndarray, k: int, m: int, burn: int):
    """Sliding-window reimplementation of k-of-m with m-clear hysteresis."""
    a = alarms.copy()
    a[:burn] = False
    n = a.size
    sums = np.convolve(a.astype(np.int64), np.ones(m, dtype=np.int64))[:n]
    z = np.zeros(n, dtype=bool)
    on = False
    run = 0
    for t in range(burn, n):
        run = 0 if a[t] else run + 1
        if sums[t] >= k:
            on = True
        elif on and run >= m:
            on = False
        z[t] = on
    return a, z


def _persistence_flags(sequences):
    """The alarm and actionable streams of (k, m, burn, raw) sequences,
    concatenated in sequence order: raw's alarms, with none and no flags
    before the burn-in. The sequences of one (k, m) run as the columns of
    one flags call, aligned at their burn-ins."""
    k, m, burn, n = (np.array(c) for c in zip(
        *((k, m, burn, raw.size) for k, m, burn, raw in sequences)))
    start = np.cumsum(n) - n
    alarms = np.concatenate([raw for *_, raw in sequences])
    alarms &= np.arange(alarms.size) - np.repeat(start, n) >= np.repeat(burn, n)
    flagged = np.zeros_like(alarms)
    for km in np.unique(np.stack([k, m], axis=1), axis=0):
        idx = np.flatnonzero((k == km[0]) & (m == km[1]))
        live = np.maximum(n[idx] - burn[idx], 0)  # windows after the burn-in
        t = np.arange(live.max())[:, None]
        valid = t < live
        at = (start[idx] + burn[idx] + t)[valid]
        a = np.zeros(valid.shape, dtype=bool)
        a[valid] = alarms[at]
        z, _, _ = flags(a, int(km[0]), int(km[1]),
                        np.empty((0, idx.size), dtype=bool),
                        np.zeros(idx.size, dtype=bool))
        flagged[at] = z[valid]
    return alarms, flagged


def test_criterion_3_detector_dynamics():
    t0 = time.perf_counter()

    # fixed points: residuals and the recovery-balance identity
    rng = np.random.default_rng(0xC3)
    worst_rv = worst_ru = worst_ident = 0.0
    for _ in range(100):
        p = _stable_params(rng)
        drive = float(rng.uniform(0.0, 4.0))
        v_star, u_star = solve_fixed_point(p, drive)
        rv, ru = fixed_point_residual(v_star, u_star, drive, p)
        ident = abs(p.a * p.b * v_star - (p.a + p.mu) * u_star)
        worst_rv = max(worst_rv, abs(rv))
        worst_ru = max(worst_ru, abs(ru))
        worst_ident = max(worst_ident, ident)
    fixed_ok = worst_rv < 1e-6 and worst_ru < 1e-6 and worst_ident < 1e-6

    # boundedness: a million random-drive Euler steps stay inside [0, v_max];
    # each drive is the sum of two draws, so it can be negative
    rng = np.random.default_rng(0xB0)
    sets, de, di = [], [], []
    for _ in range(20):
        sets.append(_stable_params(rng))
        de.append(rng.uniform(0.0, 8.0, 50_000))
        di.append(rng.uniform(-0.5, 0.5, 50_000))
    p = _stacked_params(sets)
    drives = np.array(de).T + np.array(di).T
    v, u = p.v_rest, np.zeros(len(sets))
    lo, hi = np.full(len(sets), math.inf), np.full(len(sets), -math.inf)
    for drive in drives:
        v, u = step(v, u, drive, p)
        lo, hi = np.fmin(lo, v), np.fmax(hi, v)
    steps_total = drives.size
    bounded_ok = bool(np.all(lo >= 0.0) and np.all(hi <= p.v_max)
                      and np.all(np.isfinite(u)))

    # persistence: the flags kernel against a sliding-window oracle
    rng = np.random.default_rng(0x9E)
    sequences = []
    for _ in range(100_000):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, m + 1))
        n = int(rng.integers(m, 3 * m + 8))
        burn = int(rng.integers(0, 4))
        raw = rng.random(n) < rng.uniform(0.15, 0.7)
        sequences.append((k, m, burn, raw))
    alarms, flagged = _persistence_flags(sequences)
    oa, oz = (np.concatenate(c) for c in zip(
        *(_persistence_oracle(raw, k, m, burn)
          for k, m, burn, raw in sequences)))
    start = np.cumsum([0] + [raw.size for *_, raw in sequences[:-1]])
    mismatches = int(np.count_nonzero(np.add.reduceat(
        (alarms != oa) | (flagged != oz), start)))
    persist_ok = mismatches == 0

    elapsed = time.perf_counter() - t0
    ok = fixed_ok and bounded_ok and persist_ok and steps_total == 1_000_000 \
        and elapsed < 120.0
    _check(3, "detector dynamics", ok,
           f"100 fixed points max|res|={max(worst_rv, worst_ru):.2e} "
           f"ident={worst_ident:.2e} < 1e-6, {steps_total} steps in [0,v_max]="
           f"{bounded_ok}, 100000 persistence sequences mismatches="
           f"{mismatches}, {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 4: scheduler conservation and closed forms


def _flow_table_n(n: int):
    return {i: FlowInfo(FlowKey(f"10.1.0.{i}", "10.1.9.9", 41000 + i, 443, 6),
                        "bulk_stream", BENIGN)
            for i in range(n)}


def _backlogged(counts, sizes, horizon_windows=4000, window_us=250_000):
    ts, fid, ln = [], [], []
    for k in range(max(counts)):
        for f, c in enumerate(counts):
            if k < c:
                ts.append(0)
                fid.append(f)
                ln.append(sizes[f])
    return Trace(np.array(ts), np.array(fid), np.array(ln),
                 np.zeros(len(ts), dtype=np.int64), _flow_table_n(len(counts)),
                 horizon_windows, window_us)


def test_criterion_4_scheduler_invariants():
    # equal weights, both flows backlogged: served bytes never drift apart
    # by more than one packet
    L, C = 700, 1_000_000.0
    log = replay(_backlogged([1000, 1000], [L, L]), C)
    order = np.argsort(log.complete_us, kind="stable")
    served = [0, 0]
    drift = 0
    for j in order:
        served[int(log.flow_id[j])] += L
        drift = max(drift, abs(served[0] - served[1]))
    equal_ok = drift <= L

    # 3:1 weights: byte share while both are backlogged is 3:1 within 2%
    log3 = replay(_backlogged([2000, 2000], [1000, 1000]), C,
                  schedule=Schedule([0], [0], [3.0]))
    t_cut = float(np.sort(log3.complete_us)[999])
    done = log3.complete_us <= t_cut
    b0 = float(np.sum(done & (log3.flow_id == 0)))
    b1 = float(np.sum(done & (log3.flow_id == 1)))
    ratio = b0 / b1
    share_ok = abs(ratio / 3.0 - 1.0) <= 0.02

    # single backlogged flow degenerates to FIFO with exact queueing delays
    Lf, Cf, n = 512, 131072.0, 64
    logf = replay(_backlogged([n], [Lf]), Cf)
    expect = np.arange(n, dtype=np.float64) * (Lf * 1e6 / Cf)
    fifo_ok = np.array_equal(np.sort(logf.delays_us()), expect)

    ok = equal_ok and share_ok and fifo_ok
    _check(4, "scheduler invariants", ok,
           f"equal-weight drift={drift}B <= {L}B, 3:1 share ratio={ratio:.3f} "
           f"within 2%, single-flow delays exact={fifo_ok}")


# ---------------------------------------------------------------------------
# criterion 5: slow-burn episode under a frozen per-flow threshold


def _slow_burn_world():
    flows = []
    fid = 1
    for i in range(12):
        flows.append(BenignFlowSpec(fid, "telemetry", 0, "periodic_telemetry",
                                    {"period_s": 0.9 + 0.05 * i,
                                     "jitter_frac": 0.35}))
        fid += 1
    inter = [(1.0, 0.5, 0.02), (1.5, 0.4, 0.03), (2.0, 0.35, 0.025),
             (1.0, 0.6, 0.02)]
    for cyc, off, iat in inter:
        flows.append(BenignFlowSpec(fid, "interactive", 1, "interactive_burst",
                                    {"cycle_s": cyc, "off_fraction": off,
                                     "iat_s": iat}))
        fid += 1
    # cover mimics the quiet interactive flows; the overlay raises only the
    # on-cycle duty, never the per-window shape
    eps = [EpisodeSpec(100, "interactive", 1, "evasive_c2", 2600, 3400,
                       Budgets(0, math.inf, math.inf),
                       "interactive_burst",
                       {"cycle_s": 1.0, "off_fraction": 0.85, "iat_s": 0.015},
                       {"burst_every_s": 1.0, "burst_pkts": 10,
                        "intra_iat_s": 0.015, "pkt_len": 250})]
    cfg = WorldConfig(world_id="slowburn", seed=61, horizon_windows=4000,
                      window_us=250_000, capacity_bps=1_000_000.0,
                      benign_flows=flows, episodes=eps)
    return build_world(cfg, 61)


def test_criterion_5_slow_burn_detection():
    burn, ep_start, ep_end = 2400, 2600, 3400
    world = _slow_burn_world()
    _, ses, scores = _score_world(world, burn, quantile=0.999, w_min=50)
    th = thresholds_by_flow(ses.thresholds())
    th_base = th[100]["baseline"]
    ep = scores.flow_id == 100
    w = scores.window
    # the memoryless baseline's score is the evidence E
    e_ep = scores.E[ep & (ep_start <= w) & (w <= ep_end)]
    grace = ses.calibration.m
    detector_hit = bool(scores.z[ep & (ep_start <= w)
                                 & (w <= ep_end + grace)].any())
    _, base_flags = derive_flags(zip(w[ep].tolist(), scores.E[ep].tolist()),
                                 th_base, ses.calibration.k,
                                 ses.calibration.m, burn)
    baseline_hit = any(base_flags[ep_start:ep_end + grace + 1])

    # matched alarm-level false-positive rates on the benign flows
    tb = {f: t["baseline"] for f, t in th.items() if f != 100
          and t["baseline"] is not None and t["detector"] is not None}
    rows = (w >= burn) & np.isin(scores.flow_id, list(tb))
    base_th = np.array([tb[f] for f in scores.flow_id[rows].tolist()])
    eligible = int(rows.sum())
    fpr_det = int(scores.a[rows].sum()) / eligible
    fpr_base = int((scores.E[rows] >= base_th).sum()) / eligible

    ok = (th_base is not None and e_ep.size > 0
          and float(e_ep.max()) < th_base
          and detector_hit and not baseline_hit
          and fpr_det <= 0.005 and fpr_base <= 0.005)
    _check(5, "slow-burn detection", ok,
           f"episode evidence max={e_ep.max():.3f} < frozen {th_base:.3f}, "
           f"detector hit={detector_hit}, baseline hit={baseline_hit}, "
           f"fpr detector={fpr_det:.4f} baseline={fpr_base:.4f} <= 0.005")


# ---------------------------------------------------------------------------
# criterion 6: gating improves both tail-delay deltas on a hog world


def _hog_world():
    flows = []
    fid = 1
    for i in range(6):
        flows.append(BenignFlowSpec(fid, "interactive", 0, "interactive_burst",
                                    {"cycle_s": 4.0, "off_fraction": 0.85,
                                     "iat_s": 0.003, "size_min": 64,
                                     "size_max": 128}))
        fid += 1
    # padding cliques keep the hog's packets above the 99.9th rank of the log
    for clique in (1, 2, 3, 4):
        for i in range(12):
            flows.append(BenignFlowSpec(fid, "telemetry", clique,
                                        "periodic_telemetry",
                                        {"period_s": 0.0636, "jitter_frac": 0.3,
                                         "size_min": 64, "size_max": 64}))
            fid += 1
    flows.append(BenignFlowSpec(fid, "bulk", 1, "bulk_stream",
                                {"rate_bps": 2000.0, "pkt_len": 64,
                                 "jitter_frac": 0.4}))
    eps = [EpisodeSpec(100, "bulk", 0, "exfiltration", 800, 829,
                       Budgets(0, math.inf, math.inf),
                       "bulk_stream",
                       {"rate_bps": 150.0, "pkt_len": 1500, "jitter_frac": 0.3},
                       {"rate_bps": 24000.0, "pkt_len": 1500,
                        "jitter_frac": 0.1})]
    cfg = WorldConfig(world_id="hog", seed=37, horizon_windows=1200,
                      window_us=250_000, capacity_bps=40_000.0,
                      benign_flows=flows, episodes=eps)
    return build_world(cfg, 37)


def test_criterion_6_gating_tail_impact():
    burn, ep_start, ep_end = 720, 800, 829
    world = _hog_world()
    table, ses, scores = _score_world(world, burn, quantile=0.999, w_min=50)
    hog_flags = np.sort(scores.window[(scores.flow_id == 100) & scores.z])
    flagged_in_time = (bool(hog_flags.size)
                       and ep_start <= hog_flags[0]
                       <= ep_end + ses.calibration.m)

    sched = gate_controller(scores, GateConfig(1.0, 0.05, 30.0), 250_000)
    base = replay(world.trace, 40_000.0)
    gated = replay(world.trace, 40_000.0, schedule=sched)
    d_all, d_ben = queue_impact(base, gated)

    ok = flagged_in_time and d_all < 0.0 and d_ben < 0.0
    _check(6, "gating tail impact", ok,
           f"delta p99.9 delay={d_all:+.2f}ms < 0, "
           f"delta p99.9 collateral={d_ben:+.2f}ms < 0, "
           f"hog flagged at window {hog_flags[0] if hog_flags.size else None}")


# ---------------------------------------------------------------------------
# criterion 7: scoring cost


def test_criterion_7_scoring_cost():
    rows = 100_000
    flows, buckets, stream = synthetic_feature_stream(rows)
    ses = DetectorSession(DetectorParams(), flows, buckets, 40,
                          Calibration(w_min=10))
    mean_us, p90_us, max_us = bench_scoring(ses, stream)
    ok = mean_us < 10.0
    _check(7, "scoring cost", ok,
           f"mean={mean_us:.2f}us/row < 10us over {rows} rows "
           f"(p90={p90_us:.2f}, max={max_us:.2f})")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end determinism


def _pipeline_config(path: Path) -> Path:
    flows = [
        BenignFlowSpec(1, "bulk", 0, "bulk_stream",
                       {"rate_bps": 24000.0, "pkt_len": 600, "jitter_frac": 0.4}),
        BenignFlowSpec(2, "bulk", 0, "bulk_stream",
                       {"rate_bps": 20000.0, "pkt_len": 500, "jitter_frac": 0.4}),
        BenignFlowSpec(3, "interactive", 0, "interactive_burst",
                       {"cycle_s": 1.0, "off_fraction": 0.5, "iat_s": 0.02}),
        BenignFlowSpec(4, "telemetry", 1, "periodic_telemetry",
                       {"period_s": 1.0, "jitter_frac": 0.3}),
        BenignFlowSpec(5, "telemetry", 1, "periodic_telemetry",
                       {"period_s": 1.2, "jitter_frac": 0.3}),
    ]
    episodes = [
        EpisodeSpec(100, "bulk", 0, "exfiltration", 90, 112,
                    Budgets(0, math.inf, math.inf),
                    "bulk_stream",
                    {"rate_bps": 20000.0, "pkt_len": 500, "jitter_frac": 0.4},
                    {"rate_bps": 15000.0, "pkt_len": 1000, "jitter_frac": 0.2}),
    ]
    cfg = WorldConfig(world_id="determinism", seed=5, horizon_windows=120,
                      window_us=250_000, capacity_bps=125_000.0,
                      benign_flows=flows, episodes=episodes)
    write_json(path, to_json(cfg))
    return path


def _run_pipeline(cfg: Path, root: Path):
    world, det = root / "world", root / "det"
    base, gated, rep = root / "base", root / "gated", root / "rep"
    steps = [
        ["gen-world", "--config", str(cfg), "--out", str(world)],
        ["detect", "--world", str(world), "--w-min", "20", "--out", str(det)],
        ["replay", "--world", str(world), "--mode", "base", "--out", str(base)],
        ["replay", "--world", str(world), "--mode", "gated",
         "--scores", str(det / "scores.csv"), "--out", str(gated)],
        ["report", "--world", str(world), "--scores", str(det / "scores.csv"),
         "--base-log", str(base / "queue_log.csv"),
         "--gated-log", str(gated / "queue_log.csv"),
         "--out", str(rep)],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv
    return world, det, rep


def test_criterion_8_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = _pipeline_config(tmp_path / "config.json")
    world_a, det_a, rep_a = _run_pipeline(cfg, tmp_path / "a")
    world_b, det_b, rep_b = _run_pipeline(cfg, tmp_path / "b")

    trace_same = (world_a / "trace.csv").read_bytes() == \
        (world_b / "trace.csv").read_bytes()
    scores_same = (det_a / "scores.csv").read_bytes() == \
        (det_b / "scores.csv").read_bytes()
    ra = json.loads((rep_a / "report.json").read_text())
    rb = json.loads((rep_b / "report.json").read_text())
    ra["metrics"].pop("timing_us_per_row")
    rb["metrics"].pop("timing_us_per_row")
    report_same = ra == rb
    elapsed = time.perf_counter() - t0

    ok = trace_same and scores_same and report_same and elapsed < 120.0
    _check(8, "end-to-end determinism", ok,
           f"trace identical={trace_same}, scores identical={scores_same}, "
           f"report identical sans timing={report_same}, "
           f"{elapsed:.1f}s < 120s")
