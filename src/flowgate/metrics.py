"""Reported quantities, all computed from persisted artifacts.

Detection quality (achieved FPR at alarm and actionable level, incident
recall, time-to-detect), queue outcomes (nearest-rank delay tails of base vs
gated replays of the identical trace), world feasibility rate, and per-row
scoring cost. Labels enter here and nowhere upstream.

Scoring cost has one kernel, scoring_cost, over timed process_window calls.
`detect` times its calls on the real trace and records the result in
stage_stats.json beside the scores, which `report` reads back; bench_scoring
times a session on a fixed synthetic stream for `flowgate bench`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from flowgate.detector import Scores, calibrate_threshold
from flowgate.trace import (
    from_json,
    load_json,
    to_json,
    write_json,
)
from flowgate.wfq import delay_percentile

DEFAULT_GRACE_WINDOWS = 8  # persistence window length M


# ---------------------------------------------------------------------------
# detection metrics


def achieved_fpr(scores: Scores, labels, burn_in_windows: int,
                 thresholds: dict) -> tuple[float, float]:
    """False-positive rates over benign test pairs with a set threshold.

    A pair is one (flow, window) row with window >= burn_in_windows, flow
    not named by any episode label, and a non-null detector threshold.
    Returns (alarm_rate, actionable_rate); raises if nothing is eligible.
    """
    rated = [f for f, th in thresholds.items() if th["detector"] is not None]
    pairs = ((scores.window >= burn_in_windows)
             & np.isin(scores.flow_id, rated)
             & ~np.isin(scores.flow_id, [l.flow_id for l in labels]))
    eligible = int(pairs.sum())
    if eligible == 0:
        raise ValueError("no eligible benign test pairs to rate")
    return (int(scores.a[pairs].sum()) / eligible,
            int(scores.z[pairs].sum()) / eligible)


def _first_hit(scores: Scores, episode, grace_windows: int) -> int | None:
    """The smallest window in [start, end + grace] at which the episode's
    flow is actionable, or None."""
    w = scores.window[scores.z & (scores.flow_id == episode.flow_id)]
    w = w[(w >= episode.start_window)
          & (w <= episode.end_window + grace_windows)]
    return int(w.min()) if w.size else None


def incident_recall(scores: Scores, episodes, grace_windows: int =
                    DEFAULT_GRACE_WINDOWS) -> float:
    """Fraction of episodes whose flow goes actionable inside the episode
    span extended by grace_windows."""
    if not episodes:
        raise ValueError("incident_recall needs at least one episode")
    hits = sum(1 for ep in episodes
               if _first_hit(scores, ep, grace_windows) is not None)
    return hits / len(episodes)


def time_to_detect(scores: Scores, episode, grace_windows: int =
                   DEFAULT_GRACE_WINDOWS,
                   window_s: float = 0.25) -> float | None:
    """(first actionable window - start_window) * window_s, or None if the
    episode is never detected inside its grace-extended span."""
    w = _first_hit(scores, episode, grace_windows)
    if w is None:
        return None
    return (w - episode.start_window) * window_s


def feasibility_rate(outcomes) -> float:
    """Fraction of episodes whose budgets were certified; vacuously 1."""
    if not outcomes:
        return 1.0
    return sum(1 for o in outcomes if o.feasible) / len(outcomes)


# ---------------------------------------------------------------------------
# queue metrics


def queue_impact(base_log, gated_log) -> tuple[float, float]:
    """(delta p99.9 delay, delta p99.9 benign-only delay), gated minus base,
    in milliseconds. Both logs must replay the identical trace (the report
    command refuses two that do not)."""
    d = (delay_percentile(gated_log, 99.9)
         - delay_percentile(base_log, 99.9)) * 1e-3
    c = (delay_percentile(gated_log, 99.9, benign_only=True)
         - delay_percentile(base_log, 99.9, benign_only=True)) * 1e-3
    return d, c


# ---------------------------------------------------------------------------
# scoring cost


def scoring_cost(seconds, rows, batch_rows: int = 1000,
                 warmup_batches: int = 1) -> tuple[float, float, float] | None:
    """Wall-clock cost per scored row, in microseconds, from timed calls.

    seconds[i] is how long call i took to score rows[i] rows. Calls are
    summed in order into batches of at least batch_rows rows (a trailing
    partial batch is dropped), and the first warmup_batches batches are
    dropped. Returns (mean, p90, max), where mean is over all counted rows
    and the tail stats are nearest-rank over per-batch per-row values, or
    None when no batch is left to count.
    """
    times: list[float] = []
    counts: list[int] = []
    acc_t = 0.0
    acc_n = 0
    for dt, n in zip(seconds, rows):
        acc_t += dt
        acc_n += n
        if acc_n >= batch_rows:
            times.append(acc_t)
            counts.append(acc_n)
            acc_t = 0.0
            acc_n = 0
    times = times[warmup_batches:]
    counts = counts[warmup_batches:]
    if not times:
        return None
    per_row_us = np.array(times) / np.array(counts, dtype=np.float64) * 1e6
    mean_us = float(sum(times) / sum(counts) * 1e6)
    return (mean_us, calibrate_threshold(per_row_us, 90.0 / 100.0),
            float(per_row_us.max()))


def bench_scoring(session, stream, batch_rows: int = 1000,
                  warmup_batches: int = 1) -> tuple[float, float, float]:
    """scoring_cost of session.process_window over stream, which yields
    (window, x) pairs, x a window's feature matrix with one row per flow;
    raises if the stream is too short to count a batch after warm-up."""
    seconds: list[float] = []
    rows: list[int] = []
    for window, x in stream:
        t0 = time.perf_counter()
        session.process_window(window, x)
        seconds.append(time.perf_counter() - t0)
        rows.append(len(x))
    cost = scoring_cost(seconds, rows, batch_rows, warmup_batches)
    if cost is None:
        raise ValueError("stream too short to benchmark after warm-up")
    return cost


NAN_NULL = {"null": math.nan}  # a float field whose NaN is JSON null


@dataclass
class ScoringStats:
    """stage_stats.json's "scoring": detect's timed process_window calls and
    their per-row cost in us (NaN when too few rows)."""

    rows: int
    windows: int
    mean_us_per_row: float = field(metadata=NAN_NULL)
    p90_us_per_row: float = field(metadata=NAN_NULL)
    max_us_per_row: float = field(metadata=NAN_NULL)


@dataclass
class StageStats:
    scoring: ScoringStats


def write_stage_stats(path, seconds, rows) -> None:
    """Write stage_stats.json for timed scoring calls (call i took
    seconds[i] to score rows[i] rows, one call per window): the row and
    window counts and their scoring_cost, null when too few rows."""
    cost = scoring_cost(seconds, rows) or (math.nan,) * 3
    write_json(path, to_json(StageStats(ScoringStats(sum(rows), len(rows),
                                                     *cost))))


def read_stage_stats(path, scores: Scores) -> tuple[float, float, float]:
    """The (mean, p90, max) scoring cost recorded in stage_stats.json for
    scores, NaN where it is null or the file is absent. Refuses, naming the
    path and the key, what from_json refuses, a negative cost, and row and
    window counts other than those of scores."""
    if not Path(path).is_file():
        return (math.nan, math.nan, math.nan)
    stats = from_json(StageStats, load_json(path), path).scoring
    cost = (stats.mean_us_per_row, stats.p90_us_per_row,
            stats.max_us_per_row)
    for f in fields(ScoringStats)[2:]:
        if getattr(stats, f.name) < 0:
            raise ValueError(f"{path}: scoring.{f.name} = "
                             f"{getattr(stats, f.name)!r} is not a finite "
                             "nonnegative number")
    for key, found in (("rows", len(scores)),
                       ("windows", np.unique(scores.window).size)):
        if getattr(stats, key) != found:
            raise ValueError(f"{path}: scoring.{key} = "
                             f"{getattr(stats, key)!r}, but the scores hold "
                             f"{found} {key}")
    return cost


def synthetic_feature_stream(n_rows: int, n_flows: int = 50, seed: int = 0):
    """Deterministic benchmark input: (flow_ids, buckets, stream), where
    stream yields (window, x) with x an (n_flows x 7) matrix of mildly
    varying dense features, until n_rows rows are out."""
    rng = np.random.default_rng(seed)
    n_windows = (n_rows + n_flows - 1) // n_flows
    flows = list(range(1, n_flows + 1))
    buckets = [("a", "b", "c")[i % 3] for i in range(n_flows)]
    base = rng.uniform(0.5, 2.0, (n_flows, 7))

    def stream():
        for w in range(n_windows):
            yield w, base + rng.uniform(-0.1, 0.1, (n_flows, 7))

    return flows, buckets, stream()


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class BaseGated:
    base: float = field(metadata=NAN_NULL)
    gated: float = field(metadata=NAN_NULL)


@dataclass
class RowCost:
    mean: float = field(metadata=NAN_NULL)
    p90: float = field(metadata=NAN_NULL)
    max: float = field(metadata=NAN_NULL)


@dataclass
class MetricsReport:
    """report.json's "metrics", in the order report prints them."""

    achieved_fpr_alarm: float
    achieved_fpr_actionable: float
    incident_recall: float | None
    ttd_s: list[float]
    p99_delay_ms: BaseGated
    p999_delay_ms: BaseGated
    p999_collateral_ms: BaseGated
    delta_p999_delay_ms: float = field(metadata=NAN_NULL)
    delta_p999_collateral_ms: float = field(metadata=NAN_NULL)
    feasibility_rate: float
    timing_us_per_row: RowCost


def compute_report(scores: Scores, labels, thresholds_doc: dict, feasibility,
                   base_log, gated_log, grace_windows: int =
                   DEFAULT_GRACE_WINDOWS, window_s: float = 0.25,
                   timing=(math.nan, math.nan, math.nan)) -> MetricsReport:
    """Assemble every detection and queue metric from persisted artifacts.

    thresholds_doc is the parsed thresholds JSON (burn_in_windows plus the
    per-flow threshold map); timing is the (mean, p90, max) per-row scoring
    cost, as read_stage_stats returns it, copied into the report as is
    (NaN reads as null).
    """
    fpr_a, fpr_z = achieved_fpr(scores, labels,
                                thresholds_doc["burn_in_windows"],
                                thresholds_doc["flows"])
    if labels:
        recall = incident_recall(scores, labels, grace_windows)
        ttds = [t for ep in labels
                if (t := time_to_detect(scores, ep, grace_windows,
                                        window_s)) is not None]
    else:
        recall = None
        ttds = []
    d999, c999 = queue_impact(base_log, gated_log)

    def tail(q, benign_only=False):
        return BaseGated(*(delay_percentile(log, q, benign_only) * 1e-3
                           for log in (base_log, gated_log)))

    return MetricsReport(
        achieved_fpr_alarm=fpr_a,
        achieved_fpr_actionable=fpr_z,
        incident_recall=recall,
        ttd_s=ttds,
        p99_delay_ms=tail(99.0),
        p999_delay_ms=tail(99.9),
        p999_collateral_ms=tail(99.9, benign_only=True),
        delta_p999_delay_ms=d999,
        delta_p999_collateral_ms=c999,
        feasibility_rate=feasibility_rate(feasibility),
        timing_us_per_row=RowCost(*timing),
    )


def write_report(path, report: MetricsReport, manifest) -> None:
    write_json(path, {"manifest": to_json(manifest),
                      "metrics": to_json(report)})


def write_episode_table(path, scores: Scores, labels, grace_windows: int =
                        DEFAULT_GRACE_WINDOWS, window_s: float = 0.25) -> None:
    """Per-episode CSV: episode_id,detected,ttd_s (empty ttd when missed)."""
    lines = ["episode_id,detected,ttd_s"]
    for ep in labels:
        ttd = time_to_detect(scores, ep, grace_windows, window_s)
        lines.append(f"{ep.flow_id},{int(ttd is not None)},"
                     f"{'' if ttd is None else repr(ttd)}")
    Path(path).write_text("\n".join(lines) + "\n")
