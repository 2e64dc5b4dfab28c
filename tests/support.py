"""Code that only the tests call.

- `write_csv_rows` is the row-at-a-time writer that the column kernel
  `flowgate.trace.write_csv` replaced, kept unchanged as its differential
  oracle: one Python `row % values` per row.
- `PacketRecord` and `trace_from_records` build traces from packet
  records.
- `solve_fixed_point` and `fixed_point_residual` give the detector's steady
  state under a constant drive.
- `thresholds_by_flow` gives a session's per-flow thresholds in the shape
  the per-row oracle's session returns them, and `detect_record` the
  record `detect` would write for a session.
- `queue_impact` is the report's two p99.9 deltas as they were computed
  before the report derived them from its tails: each percentile sorted
  again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flowgate.detector import (
    DetectManifest,
    DetectorParams,
    FlowThresholds,
    f_sat,
)
from flowgate.trace import Trace
from flowgate.wfq import delay_percentile

_WRITE_BLOCK = 1 << 12  # rows formatted per write


def write_csv_rows(path, header: str, row: str, cols) -> None:
    """Write equal-length columns as CSV lines formatted by `row` (one %
    conversion per column, ending in a newline), in blocks of rows so that
    memory does not grow with the file."""
    n = len(cols[0])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for s in range(0, n, _WRITE_BLOCK):
            rows = zip(*(c[s:s + _WRITE_BLOCK].tolist() for c in cols))
            fh.write("".join([row % r for r in rows]))


@dataclass(frozen=True)
class PacketRecord:
    ts_us: int
    flow_id: int
    len_bytes: int
    clique_id: int


def trace_from_records(records, flow_table, horizon_windows,
                       window_us) -> Trace:
    """A trace of the records, sorted by ts_us with ties in record order."""
    ts = np.array([r.ts_us for r in records], dtype=np.int64)
    fid = np.array([r.flow_id for r in records], dtype=np.int64)
    ln = np.array([r.len_bytes for r in records], dtype=np.int64)
    cq = np.array([r.clique_id for r in records], dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    return Trace(ts[order], fid[order], ln[order], cq[order],
                 flow_table, horizon_windows, window_us)


def fixed_point_residual(v: float, u: float, drive: float,
                         params: DetectorParams) -> tuple[float, float]:
    """Residuals of the steady-state equations (v-equation, u-relation)."""
    rv = (f_sat(v, params.alpha, params.kappa) + params.beta * v + params.gamma
          - u + drive - params.lam * v - params.chi * (v - params.v_rest))
    ru = params.a * params.b * v - (params.a + params.mu) * u
    return rv, ru


def solve_fixed_point(params: DetectorParams, drive: float) -> tuple[float, float]:
    """Interior fixed point (v*, u*) for constant total drive, by bisection.

    Substitutes u* = a b v / (a + mu) and solves the scalar v-equation on
    [0, v_max]. Raises if the root is not bracketed there.
    """
    ab_over = params.a * params.b / (params.a + params.mu)

    def h(v):
        return (f_sat(v, params.alpha, params.kappa) + params.beta * v + params.gamma
                - ab_over * v + drive - params.lam * v
                - params.chi * (v - params.v_rest))

    lo, hi = 0.0, params.v_max
    hlo, hhi = h(lo), h(hi)
    if hlo == 0.0:
        v = lo
    elif hhi == 0.0:
        v = hi
    elif hlo * hhi > 0:
        raise ValueError("fixed point not bracketed in [0, v_max]")
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            hm = h(mid)
            if hm == 0.0:
                lo = hi = mid
                break
            if (hm > 0) == (hlo > 0):
                lo = mid
            else:
                hi = mid
        v = 0.5 * (lo + hi)
    return v, ab_over * v


def thresholds_by_flow(thresholds: dict[int, FlowThresholds]) -> dict:
    """{flow: {"detector": t, "baseline": t}}, None where a threshold is
    NaN, as detector_oracle.DetectorSession.thresholds returns it."""
    def opt(t):
        return None if math.isnan(t) else t
    return {f: {"detector": opt(t.detector), "baseline": opt(t.baseline)}
            for f, t in thresholds.items()}


def detect_record(session, world, n_records: int = 0,
                  scores_sha256: str = "0" * 64) -> DetectManifest:
    """The detect_manifest.json record of a session that scored world, a
    world's RunManifest, into a scores.csv of that sha256."""
    return DetectManifest(
        **vars(session.calibration), world=world,
        detector_params=session.params,
        burn_in_windows=session.burn_in_windows, n_records=n_records,
        scores_sha256=scores_sha256, flows=session.thresholds())


def queue_impact(base_log, gated_log) -> tuple[float, float]:
    """(delta p99.9 delay, delta p99.9 benign-only delay), gated minus base,
    in milliseconds. Both logs must replay the identical trace."""
    d = (delay_percentile(gated_log, 99.9)
         - delay_percentile(base_log, 99.9)) * 1e-3
    c = (delay_percentile(gated_log, 99.9, benign_only=True)
         - delay_percentile(base_log, 99.9, benign_only=True)) * 1e-3
    return d, c
