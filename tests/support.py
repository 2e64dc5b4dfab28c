"""Code that only the tests call.

- `write_csv_rows` is the row-at-a-time writer that the column kernel
  `flowgate.trace.write_csv` replaced, kept unchanged as its differential
  oracle: one Python `row % values` per row.
- `read_table_text` is the CSV text parse that stage readers used when a
  table had no twin bound to its bytes, kept as the oracle of the twin
  reader `flowgate.trace.read_table`. `recorded` gives the binding of a
  CSV as it is, and `rebind` rewrites a table and the record that binds
  it, as the stage that wrote them would have.
- `PacketRecord` and `trace_from_records` build traces from packet
  records.
- `solve_fixed_point` and `fixed_point_residual` give the detector's steady
  state under a constant drive, and `damping_margin` (through
  `f_sat_peak_slope`) how strongly its linearised v-equation is damped.
- `thresholds_by_flow` gives a session's per-flow thresholds in the shape
  the per-row oracle's session returns them, and `detect_record` the
  record `detect` would write for a session.
- `block_edges` cuts a run of windows into the blocks that a caller of
  the detector's process_window may feed.
- `synthetic_feature_stream` is the fixed synthetic input, fed in detect's
  blocks, on which acceptance criterion 7 times the scoring cost.
- `queue_impact` is the report's two p99.9 deltas as they were computed
  before the report derived them from its tails: each percentile sorted
  again.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowgate.detector import (
    BLOCK_WINDOWS,
    DetectManifest,
    DetectorParams,
    FlowThresholds,
    f_sat,
)
from flowgate.trace import Trace, table_columns, write_json, write_table
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


def read_table_text(cls, path, **riders):
    """The Table cls that write_table wrote to the CSV at path, with the
    other fields given as riders, from one text parse (int64 when every
    column is an integer, else float64) that skips empty lines. Refuses,
    naming the path and the line, another header, a line with another
    number of fields or a field that does not parse, and the first value of
    the first column holding one that write_table cannot have written: a
    float that is not finite, an integer outside [0, 2**53) or a bool other
    than 0 or 1."""
    spec = table_columns(cls)
    header = ",".join(name for name, *_ in spec)
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{path}: line 1: header {first!r} is not "
                         f"{header!r}")
    cols = _parse_text(path, spec)
    return cls(**{name: _text_checked(path, j, name, col, dtype)
                  for j, ((name, _, dtype), col) in enumerate(zip(spec, cols))},
               **riders)


def recorded(path, record="record.json") -> tuple[str, str]:
    """The (hex sha256, record path) that binds the CSV at path as it is
    now, as read_table takes it."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest(), str(record)


def rebind(path, table, record, key: str, **entries) -> None:
    """Rewrite the CSV at path and its twin as table (write_table), and set
    key of the JSON record at record to its sha256, and the other entries
    given."""
    doc = json.loads(Path(record).read_text())
    write_json(record, {**doc, **entries, key: write_table(path, table)})


def _parse_text(path, spec) -> list[np.ndarray]:
    n = len(spec)
    dtype = np.dtype(np.int64 if all(d.kind == "i" for *_, d in spec)
                     else np.float64)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows
            raw = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1,
                             comments=None, ndmin=2)
        if raw.size and raw.shape[1] != n:
            raise ValueError(f"{raw.shape[1]} fields per row")
    except ValueError as exc:  # a second pass names the line
        for lineno, line in _data_lines(path):
            cells = line.rstrip("\n").split(",")
            if len(cells) != n:
                raise ValueError(f"{path}: line {lineno}: {len(cells)} "
                                 f"fields, expected {n}") from None
            for (name, *_), cell in zip(spec, cells):
                try:
                    dtype.type(cell)
                except (ValueError, OverflowError):
                    raise ValueError(
                        f"{path}: line {lineno}: {name}: could not convert "
                        f"string {cell!r} to {dtype}") from None
        raise ValueError(f"{path}: {exc}") from None
    return list(raw.reshape(-1, n).T)


def _text_checked(path, j, name, col, dtype):
    if dtype.kind == "f":
        ok, what = np.isfinite(col), "is not finite"
    elif dtype.kind == "b":
        ok, what = (col == 0) | (col == 1), "is not 0 or 1"
    else:  # an integer column, parsed as int64 or float64
        ok, what = (col >= 0) & (col < 2**53), "is not a nonnegative integer"
        if col.dtype.kind == "f":
            ok &= np.floor(col) == col
    if not np.all(ok):
        i = int(np.argmin(ok))
        line, text = next(itertools.islice(_data_lines(path), i, None))
        # an integer as its text, in full: a float64 parse may round it
        value = (text.rstrip("\n").split(",")[j] if dtype.kind == "i"
                 else f"{col[i].item():g}")
        raise ValueError(f"{path}: line {line}: {name} = {value} {what}")
    return col.astype(dtype, copy=False)


def _data_lines(path):
    """(line number, line) of each CSV line that the text parse reads."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno > 1 and line != "\n":
                yield lineno, line


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
    rv = (f_sat(v, params.alpha, params.kappa) + params.beta * v
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
        return (f_sat(v, params.alpha, params.kappa) + params.beta * v
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


def f_sat_peak_slope(kappa: float, v_max: float) -> float:
    """Max of d/dv [v^2/(1+kappa v^2)] = 2v/(1+kappa v^2)^2 on [0, v_max].

    The alpha factor is deliberately excluded; damping_margin multiplies it
    back in.
    """
    def slope(v):
        d = 1.0 + kappa * v * v
        return 2.0 * v / (d * d)

    if kappa <= 0:
        return slope(v_max)
    v_crit = 1.0 / math.sqrt(3.0 * kappa)
    return slope(v_crit) if v_crit <= v_max else slope(v_max)


def damping_margin(params: DetectorParams) -> float:
    """lam + chi - beta - alpha * s_max, with s_max the peak slope of the
    saturating term on [0, v_max]: positive when the leak outweighs the
    steepest self-excitation anywhere in the state's range."""
    return (params.lam + params.chi - params.beta
            - params.alpha * f_sat_peak_slope(params.kappa, params.v_max))


def thresholds_by_flow(thresholds: dict[int, FlowThresholds]) -> dict:
    """{flow: {"detector": t, "baseline": t}}, None where a threshold is
    NaN, as detector_oracle.DetectorSession.thresholds returns it."""
    def opt(t):
        return None if math.isnan(t) else t
    return {f: {"detector": opt(t.detector), "baseline": opt(t.baseline)}
            for f, t in thresholds.items()}


def detect_record(session, world,
                  scores_sha256: str = "0" * 64) -> DetectManifest:
    """The detect_manifest.json record of a session that scored world, a
    world's RunManifest, into a scores.csv of that sha256."""
    return DetectManifest(
        **vars(session.calibration), world=world,
        detector_params=session.params, scores_sha256=scores_sha256,
        flows=session.thresholds())


def block_edges(n_windows: int, split, keep=()) -> list[int]:
    """The edges of blocks over windows [0, n_windows): every split windows
    for an integer split, else at each window of the set split; a window of
    keep, within the range, always starts a block."""
    cuts = (range(0, n_windows, split) if isinstance(split, int)
            else split)
    return sorted({0, n_windows, *(c for c in (*cuts, *keep)
                                   if 0 <= c <= n_windows)})


def synthetic_feature_stream(n_rows: int, n_flows: int = 50, seed: int = 0):
    """Deterministic benchmark input: (flow_ids, buckets, stream), where
    stream yields (window, x) with x a block of up to BLOCK_WINDOWS
    windows, each an (n_flows x 7) matrix of mildly varying dense features,
    until n_rows rows are out."""
    rng = np.random.default_rng(seed)
    n_windows = (n_rows + n_flows - 1) // n_flows
    flows = list(range(1, n_flows + 1))
    buckets = [("a", "b", "c")[i % 3] for i in range(n_flows)]
    base = rng.uniform(0.5, 2.0, (n_flows, 7))

    def stream():
        for w in range(0, n_windows, BLOCK_WINDOWS):
            size = min(BLOCK_WINDOWS, n_windows - w)
            yield w, base + rng.uniform(-0.1, 0.1, (size, n_flows, 7))

    return flows, buckets, stream()


def queue_impact(base_log, gated_log) -> tuple[float, float]:
    """(delta p99.9 delay, delta p99.9 benign-only delay), gated minus base,
    in milliseconds. Both logs must replay the identical trace."""
    d = (delay_percentile(gated_log, 99.9)
         - delay_percentile(base_log, 99.9)) * 1e-3
    c = (delay_percentile(gated_log, 99.9, benign_only=True)
         - delay_percentile(base_log, 99.9, benign_only=True)) * 1e-3
    return d, c
