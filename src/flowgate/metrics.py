"""Reported quantities, all computed from persisted artifacts.

Detection quality (achieved FPR at alarm and actionable level, incident
recall, time-to-detect), queue outcomes (nearest-rank delay tails of base vs
gated replays of the identical trace), world feasibility rate, and per-row
scoring cost. Labels enter here and nowhere upstream.

Scoring cost has one kernel, scoring_cost, over timed process_window calls.
`detect` times its calls on the real trace and records the result in
stage_stats.json beside the scores, which `report` reads back. bench_scoring
applies it to a session fed a stream of blocks; acceptance criterion 7 times
one that way.
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
    unique,
    write_json,
)
from flowgate.wfq import delay_percentile


# ---------------------------------------------------------------------------
# detection metrics


def achieved_fpr(scores: Scores, labels, record,
                 burn_in: int) -> tuple[float, float]:
    """False-positive rates over benign test pairs with a set threshold.

    A pair is one (flow, window) row with window >= burn_in, the windows
    the detect run calibrated on, flow not named by any episode label, and
    a detector threshold in record, the run's DetectManifest, that is not
    NaN. Returns (alarm_rate, actionable_rate); raises if nothing is
    eligible.
    """
    rated = [f for f, th in record.flows.items()
             if not math.isnan(th.detector)]
    pairs = ((scores.window >= burn_in)
             & np.isin(scores.flow_id, rated)
             & ~np.isin(scores.flow_id, [l.flow_id for l in labels]))
    eligible = int(pairs.sum())
    if eligible == 0:
        raise ValueError("no eligible benign test pairs to rate")
    return (int(scores.a[pairs].sum()) / eligible,
            int(scores.z[pairs].sum()) / eligible)


def time_to_detect(scores: Scores, episodes, grace_windows: int,
                   window_s: float) -> list[float | None]:
    """Each episode's (w - start_window) * window_s, where w is the first
    window in [start_window, end_window + grace_windows] at which its flow
    is actionable, or None when there is none (the episode is missed)."""
    hit_flow, hit_window = scores.flow_id[scores.z], scores.window[scores.z]
    out = []
    for ep in episodes:
        w = hit_window[(hit_flow == ep.flow_id)
                       & (hit_window >= ep.start_window)
                       & (hit_window <= ep.end_window + grace_windows)]
        out.append((int(w.min()) - ep.start_window) * window_s if w.size
                   else None)
    return out


def incident_recall(ttds) -> float:
    """Fraction of episodes detected, from each one's time_to_detect."""
    if not ttds:
        raise ValueError("incident_recall needs at least one episode")
    return sum(t is not None for t in ttds) / len(ttds)


def feasibility_rate(outcomes) -> float:
    """Fraction of episodes whose budgets were certified; vacuously 1."""
    if not outcomes:
        return 1.0
    return sum(1 for o in outcomes if o.feasible) / len(outcomes)


# ---------------------------------------------------------------------------
# scoring cost


BATCH_ROWS = 1000  # rows per batch of scoring_cost, at least
WARMUP_BATCHES = 1  # leading batches scoring_cost drops


def scoring_cost(seconds, rows) -> tuple[float, float, float] | None:
    """Wall-clock cost per scored row, in microseconds, from timed calls.

    seconds[i] is how long call i took to score rows[i] rows. Calls are
    summed in order into batches of at least BATCH_ROWS rows (a trailing
    partial batch is dropped), and the first WARMUP_BATCHES batches are
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
        if acc_n >= BATCH_ROWS:
            times.append(acc_t)
            counts.append(acc_n)
            acc_t = 0.0
            acc_n = 0
    times = times[WARMUP_BATCHES:]
    counts = counts[WARMUP_BATCHES:]
    if not times:
        return None
    per_row_us = np.array(times) / np.array(counts, dtype=np.float64) * 1e6
    mean_us = float(sum(times) / sum(counts) * 1e6)
    return (mean_us, calibrate_threshold(per_row_us, 90.0 / 100.0),
            float(per_row_us.max()))


def bench_scoring(session, stream) -> tuple[float, float, float]:
    """scoring_cost of session.process_window over stream, which yields
    (window, x) pairs, x a block of windows as process_window takes it;
    raises if the stream is too short to count a batch after warm-up."""
    seconds: list[float] = []
    rows: list[int] = []
    for window, x in stream:
        t0 = time.perf_counter()
        part = session.process_window(window, x)
        seconds.append(time.perf_counter() - t0)
        rows.append(len(part))
    cost = scoring_cost(seconds, rows)
    if cost is None:
        raise ValueError("stream too short to benchmark after warm-up")
    return cost


NAN_NULL = {"null": math.nan}  # a float field whose NaN is JSON null


@dataclass
class ScoringStats:
    """stage_stats.json's "scoring": the rows and windows that detect's
    timed process_window calls scored, a block of windows per call, and
    their per-row cost in us (NaN when too few rows)."""

    rows: int
    windows: int
    mean_us_per_row: float = field(metadata=NAN_NULL)
    p90_us_per_row: float = field(metadata=NAN_NULL)
    max_us_per_row: float = field(metadata=NAN_NULL)


@dataclass
class StageStats:
    scoring: ScoringStats


def write_stage_stats(path, seconds, rows, windows: int) -> None:
    """Write stage_stats.json for timed scoring calls (call i took
    seconds[i] to score rows[i] rows, the calls covering windows windows):
    the row and window counts and their scoring_cost, null when too few
    rows."""
    cost = scoring_cost(seconds, rows) or (math.nan,) * 3
    write_json(path, to_json(StageStats(ScoringStats(sum(rows), windows,
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
                       ("windows", unique(scores.window).size)):
        if getattr(stats, key) != found:
            raise ValueError(f"{path}: scoring.{key} = "
                             f"{getattr(stats, key)!r}, but the scores hold "
                             f"{found} {key}")
    return cost


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


def compute_report(scores: Scores, labels, ttds, record, burn_in: int,
                   feasibility, base_log, gated_log,
                   timing=(math.nan, math.nan, math.nan)) -> MetricsReport:
    """Assemble every detection and queue metric from persisted artifacts.

    ttds is each label's time_to_detect; record is the detect run's
    DetectManifest, as read_thresholds returns it, and burn_in the windows
    it calibrated on, as achieved_fpr takes them; timing is the (mean,
    p90, max) per-row scoring cost, as read_stage_stats returns it, copied
    into the report as is (NaN reads as null). The two p99.9 deltas are
    gated minus base of the tails, in milliseconds; both logs must replay
    the identical trace (the report command refuses two that do not).
    """
    fpr_a, fpr_z = achieved_fpr(scores, labels, record, burn_in)
    # (base, gated) tails in us: p99, p99.9 and benign-only p99.9
    (b99, g99), (b999, g999), (bc, gc) = (
        [delay_percentile(log, q, benign) for log in (base_log, gated_log)]
        for q, benign in ((99.0, False), (99.9, False), (99.9, True)))
    return MetricsReport(
        achieved_fpr_alarm=fpr_a,
        achieved_fpr_actionable=fpr_z,
        incident_recall=incident_recall(ttds) if labels else None,
        ttd_s=[t for t in ttds if t is not None],
        p99_delay_ms=BaseGated(b99 * 1e-3, g99 * 1e-3),
        p999_delay_ms=BaseGated(b999 * 1e-3, g999 * 1e-3),
        p999_collateral_ms=BaseGated(bc * 1e-3, gc * 1e-3),
        delta_p999_delay_ms=(g999 - b999) * 1e-3,
        delta_p999_collateral_ms=(gc - bc) * 1e-3,
        feasibility_rate=feasibility_rate(feasibility),
        timing_us_per_row=RowCost(*timing),
    )


def write_report(path, report: MetricsReport, manifest) -> None:
    write_json(path, {"manifest": to_json(manifest),
                      "metrics": to_json(report)})


def write_episode_table(path, labels, ttds) -> None:
    """Per-episode CSV: episode_id,detected,ttd_s, from each label's
    time_to_detect (an empty ttd when missed)."""
    lines = ["episode_id,detected,ttd_s"] + [
        f"{ep.flow_id},{int(t is not None)},{'' if t is None else repr(t)}"
        for ep, t in zip(labels, ttds)]
    Path(path).write_text("\n".join(lines) + "\n")
