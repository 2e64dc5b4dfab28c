"""World configs for the benchmark workloads.

Each workload is a fixed world config; the run's seed picks only the
realisations (`gen-world --seed`). Configs are plain JSON dicts in the
`WorldConfig` format, so building them needs nothing from the program.
"""

from __future__ import annotations

import json
from pathlib import Path

# References are recorded for this many world seeds; a run's --seed n
# realises world seeds n, n + 1, ... mod RECORDED_SEEDS (run.py), so every
# pass can be checked.
RECORDED_SEEDS = 10

_INF = None  # an unconstrained budget in the WorldConfig JSON format


def _budgets(r_min_bytes, epsilon_s=_INF, delta_q_s=_INF):
    return {"r_min_bytes": r_min_bytes, "epsilon_s": epsilon_s,
            "delta_q_s": delta_q_s}


def _flow(flow_id, device_class, clique_id, kind, params):
    return {"flow_id": flow_id, "device_class": device_class,
            "clique_id": clique_id, "kind": kind, "params": params}


def _world(world_id, horizon_windows, capacity_bps, flows, episodes,
           seed=0):
    return {"world_id": world_id, "seed": seed,
            "horizon_windows": horizon_windows, "window_us": 250_000,
            "capacity_bps": capacity_bps, "benign_flows": flows,
            "episodes": episodes, "len_bounds": [64, 1500],
            "rho_band": [0.4, 0.6], "split": [0.6, 0.2, 0.2], "i_max": 16}


def demo_config(root: Path) -> dict:
    """The world users run: configs/demo_world.json as shipped.

    Why: its pipeline is dominated by WFQ replay and trace and queue-log
    CSV IO. Size: 46 flows x 1,200 windows = 55,200 rows, about 270,000
    packets, one unconstrained episode, a 32 kB contention.json.
    wfq.single_flow_busy_share: 0.38-0.48 on world seeds 0-9 (0.573 on the
    config's own seed 37).
    """
    return json.loads((root / "configs" / "demo_world.json").read_text())


def wide_config() -> dict:
    """About 10^3 low-rate flows in cliques of ten, one beaconing episode.

    Each clique holds eight telemetry flows with periods spread over
    0.6-2.0 s and two sparse interactive flows, at a few percent of the
    clique's capacity, so rows far outnumber packets and almost every
    packet is served alone. The beaconing episode hides in clique 0 with
    unconstrained budgets, so generation never enforces or thins.

    Why: features, the detector and scores CSV IO do the work while WFQ does
    little, and the dense n x n contention graph shows. Size: 1,001 flows x
    250 windows = 250,250 rows, about 50,700 packets, an 11.2 MB
    contention.json. wfq.single_flow_busy_share: 0.954-0.959 on world
    seeds 0-9.
    """
    flows = []
    fid = 1
    for c in range(100):
        for i in range(10):
            if i < 8:
                period = 0.6 + 1.4 * ((7 * fid) % 97) / 96.0
                flows.append(_flow(fid, "telemetry", c, "periodic_telemetry",
                                   {"period_s": round(period, 4),
                                    "jitter_frac": 0.3,
                                    "size_min": 64, "size_max": 160}))
            else:
                flows.append(_flow(fid, "interactive", c, "interactive_burst",
                                   {"cycle_s": 5.0, "off_fraction": 0.8,
                                    "iat_s": 0.25, "size_min": 64,
                                    "size_max": 256}))
            fid += 1
    h = 250
    episodes = [{
        "flow_id": 10_000, "device_class": "telemetry", "clique_id": 0,
        "kind": "beaconing", "start_window": int(0.7 * h),
        "end_window": int(0.85 * h), "budgets": _budgets(0),
        "cover_kind": "periodic_telemetry",
        "cover_params": {"period_s": 1.0, "jitter_frac": 0.3,
                         "size_min": 64, "size_max": 160},
        "overlay_params": {"period_s": 0.05, "jitter_frac": 0.05,
                           "size_min": 80, "size_max": 160},
    }]
    return _world("perfbench-wide", h, 40_000.0, flows, episodes)


def audit_config() -> dict:
    """The criterion-2 world: five cliques, eight budget-constrained episodes.

    Same flows, budgets and overlays as the acceptance suite's audit world
    (one saturated clique, one near capacity, flow 106 over-constrained);
    episode spans keep their place as a share of the horizon.

    Why: budget enforcement (projection, W1, thinning) and many small
    replays of contended cliques dominate generation and the audit, while
    detection is cheap. Size at 200 windows: 24 flows, 4,800 rows, about
    47,700 packets, eight episodes, a 9 kB contention.json. The horizon is
    half the acceptance suite's 400 windows; at 200, its 120 burn-in windows
    still leave every flow more than the detector's default 50 calibration
    scores, so detect and report run with the CLI defaults, and the gate
    acts on 2-11 flows. wfq.single_flow_busy_share: 0.106-0.111 on world
    seeds 0-9.
    """
    flows = []
    fid = 1
    for clique in (0, 1, 2):
        for i in range(2):
            flows.append(_flow(fid, "bulk", clique, "bulk_stream",
                               {"rate_bps": 20000.0 + 2000.0 * i,
                                "pkt_len": 500 + 50 * i, "jitter_frac": 0.4}))
            fid += 1
        flows.append(_flow(fid, "interactive", clique, "interactive_burst",
                           {"cycle_s": 1.5, "off_fraction": 0.5,
                            "iat_s": 0.02}))
        fid += 1
    for _ in range(4):
        flows.append(_flow(fid, "bulk", 3, "bulk_stream",
                           {"rate_bps": 32500.0, "pkt_len": 650,
                            "jitter_frac": 0.3}))
        fid += 1
    for _ in range(3):
        flows.append(_flow(fid, "bulk", 4, "bulk_stream",
                           {"rate_bps": 33000.0, "pkt_len": 700,
                            "jitter_frac": 0.3}))
        fid += 1

    bulk = "bulk_stream"
    inter = "interactive_burst"
    inter_cover = {"cycle_s": 1.5, "off_fraction": 0.5, "iat_s": 0.02}
    specs = [
        (0, "exfiltration", _budgets(150_000, 0.05, 0.05), bulk,
         {"rate_bps": 20000.0, "pkt_len": 500, "jitter_frac": 0.4},
         {"rate_bps": 12000.0, "pkt_len": 900, "jitter_frac": 0.2}),
        (1, "exfiltration", _budgets(200_000, 0.02), bulk,
         {"rate_bps": 22000.0, "pkt_len": 550, "jitter_frac": 0.4},
         {"rate_bps": 16000.0, "pkt_len": 1200, "jitter_frac": 0.2}),
        (2, "scan", _budgets(0, 0.05, 0.05), bulk,
         {"rate_bps": 20000.0, "pkt_len": 500, "jitter_frac": 0.4},
         {"rate_pps": 40.0, "pkt_len": 64}),
        (0, "beaconing", _budgets(50_000, _INF, 0.05), inter, inter_cover,
         {"period_s": 0.5, "jitter_frac": 0.05, "pkt_len": 128}),
        (1, "evasive_c2", _budgets(80_000, 0.05), inter, inter_cover,
         {"burst_every_s": 2.0, "burst_pkts": 10, "intra_iat_s": 0.02,
          "pkt_len": 250}),
        (2, "exfiltration", _budgets(120_000, 0.03, 0.1), bulk,
         {"rate_bps": 21000.0, "pkt_len": 520, "jitter_frac": 0.4},
         {"rate_bps": 10000.0, "pkt_len": 800, "jitter_frac": 0.3}),
        (3, "exfiltration", _budgets(2_000_000, 0.02, 0.0), bulk,
         {"rate_bps": 30000.0, "pkt_len": 650, "jitter_frac": 0.3},
         {"rate_bps": 40000.0, "pkt_len": 1500, "jitter_frac": 0.1}),
        (4, "exfiltration", _budgets(20_000, _INF, 0.05), bulk,
         {"rate_bps": 30000.0, "pkt_len": 700, "jitter_frac": 0.3},
         {"rate_bps": 30000.0, "pkt_len": 1400, "jitter_frac": 0.15}),
    ]
    h = 200  # half the acceptance suite's 400 windows, to fit the run time
    episodes = []
    for j, (clique, kind, budgets, cover_kind, cover, overlay) in \
            enumerate(specs):
        episodes.append({
            "flow_id": 100 + j,
            "device_class": "interactive" if cover_kind == inter else "bulk",
            "clique_id": clique, "kind": kind,
            "start_window": int(0.3 * h), "end_window": int(0.8 * h),
            "budgets": budgets, "cover_kind": cover_kind,
            "cover_params": cover, "overlay_params": overlay})
    return _world("perfbench-audit", h, 125_000.0, flows, episodes)


def tiny_config() -> dict:
    """The end-to-end determinism world: 5 flows, 120 windows."""
    flows = [
        _flow(1, "bulk", 0, "bulk_stream",
              {"rate_bps": 24000.0, "pkt_len": 600, "jitter_frac": 0.4}),
        _flow(2, "bulk", 0, "bulk_stream",
              {"rate_bps": 20000.0, "pkt_len": 500, "jitter_frac": 0.4}),
        _flow(3, "interactive", 0, "interactive_burst",
              {"cycle_s": 1.0, "off_fraction": 0.5, "iat_s": 0.02}),
        _flow(4, "telemetry", 1, "periodic_telemetry",
              {"period_s": 1.0, "jitter_frac": 0.3}),
        _flow(5, "telemetry", 1, "periodic_telemetry",
              {"period_s": 1.2, "jitter_frac": 0.3}),
    ]
    episodes = [{
        "flow_id": 100, "device_class": "bulk", "clique_id": 0,
        "kind": "exfiltration", "start_window": 90, "end_window": 112,
        "budgets": _budgets(0), "cover_kind": "bulk_stream",
        "cover_params": {"rate_bps": 20000.0, "pkt_len": 500,
                         "jitter_frac": 0.4},
        "overlay_params": {"rate_bps": 15000.0, "pkt_len": 1000,
                           "jitter_frac": 0.2}}]
    return _world("perfbench-tiny", 120, 125_000.0, flows, episodes, seed=5)
