"""The weight schedule and gate controller that `flowgate.wfq.Schedule` and
`flowgate.wfq.gate_controller` replaced, kept unchanged as their
differential oracle.

- `WeightSchedule` holds each flow's (from_us, weight) entries in a dict
  of lists, and looks a packet's weight up flow by flow.
- `gate_controller` turns a dense per-flow flag array, indexed by window,
  into a WeightSchedule, one run of flagged windows at a time.
- `dense_flags` builds that input from a Scores table, as `replay --mode
  gated` did, and `as_table` flattens a WeightSchedule into the Schedule
  table whose schedule.csv it wrote.
- `flags` and `entries` let tests state a gate's input and output as
  `{flow: flags by window}` and `[(from_us, weight), ...]`.
"""

from __future__ import annotations

import math

import numpy as np

from flowgate.detector import Scores
from flowgate.wfq import GateConfig, Schedule


class WeightSchedule:
    """Per-flow piecewise-constant weights over microsecond time."""

    def __init__(self, default_weight: float = 1.0):
        self.default_weight = float(default_weight)
        self._entries: dict[int, list[tuple[int, float]]] = {}

    def set_entries(self, flow_id: int, entries: list[tuple[int, float]]) -> None:
        """Entries are (from_us, weight), sorted, first at 0."""
        if not entries or entries[0][0] != 0:
            raise ValueError("schedule for a flow must start at t=0")
        froms = [e[0] for e in entries]
        if froms != sorted(froms):
            raise ValueError("schedule entries must be sorted by from_us")
        if any(w <= 0 for _, w in entries):
            raise ValueError("weights must be positive")
        self._entries[flow_id] = [(int(t), float(w)) for t, w in entries]

    def entries(self, flow_id: int) -> list[tuple[int, float]]:
        return self._entries.get(flow_id, [(0, self.default_weight)])

    def weights(self, flow_id, t_us) -> np.ndarray:
        """Weight in force for each packet (flow_id[k], t_us[k]).

        That is the last entry of the flow with from_us <= t_us, so of two
        entries at one instant the later one holds (a time before 0 takes
        the first entry).
        """
        flow_id = np.asarray(flow_id, dtype=np.int64)
        t_us = np.asarray(t_us, dtype=np.int64)
        w = np.full(t_us.shape, self.default_weight)
        for f in np.unique(flow_id).tolist():
            ent = self._entries.get(f)
            if ent is None:
                continue
            m = flow_id == f
            froms, ws = zip(*ent)
            pos = np.searchsorted(froms, t_us[m], side="right") - 1
            w[m] = np.asarray(ws)[pos.clip(0)]
        return w

    def flows(self) -> list[int]:
        return sorted(self._entries)


def gate_controller(actionable: dict[int, np.ndarray], config: GateConfig,
                    window_us: int) -> WeightSchedule:
    """Turn per-flow actionable flags into a weight schedule.

    actionable maps flow_id to a boolean array indexed by window. The gate
    drops the flow's weight to omega_minus at the start of the first flagged
    window and holds it until max(flag-clear time, activation + t_g);
    re-activation restarts the quarantine clock, overlapping spans merge.
    """
    config.validate()
    sched = WeightSchedule(default_weight=config.omega_0)
    t_g_us = config.t_g_s * 1e6
    for flow_id in sorted(actionable):
        z = np.asarray(actionable[flow_id], dtype=bool)
        spans = []
        for start_w, end_w in _runs(z):
            start_us = start_w * window_us
            clear_us = (end_w + 1) * window_us
            release_us = max(float(clear_us), start_us + t_g_us)
            spans.append((start_us, release_us))
        merged = []
        for s, e in spans:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        entries = [(0, config.omega_0)]
        for s, e in merged:
            if s == 0:
                entries[0] = (0, config.omega_minus)
            else:
                entries.append((int(s), config.omega_minus))
            entries.append((int(math.ceil(e)), config.omega_0))
        sched.set_entries(flow_id, entries)
    return sched


def _runs(z: np.ndarray):
    """Maximal runs of True as (start, end) inclusive window indices."""
    if z.size == 0:
        return
    padded = np.concatenate([[False], z, [False]])
    d = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(d == 1)
    ends = np.flatnonzero(d == -1) - 1
    for s, e in zip(starts, ends):
        yield int(s), int(e)


def dense_flags(scores, horizon_windows: int) -> dict[int, np.ndarray]:
    """Each scored flow's actionable flags by window, False where the flow
    has no row: the (flows x horizon) array `replay --mode gated` built."""
    flows, row = np.unique(scores.flow_id, return_inverse=True)
    z = np.zeros((flows.size, horizon_windows), dtype=bool)
    z[row[scores.z], scores.window[scores.z]] = True
    return dict(zip(flows.tolist(), z))


def as_table(schedule: WeightSchedule) -> Schedule:
    """The Schedule of a WeightSchedule's entries, flow by flow."""
    rows = [(f, t, w) for f in schedule.flows()
            for t, w in schedule.entries(f)]
    return Schedule(*(np.array(c) for c in zip(*rows)) if rows
                    else ((), (), ()),
                    default_weight=schedule.default_weight)


def flags(actionable: dict[int, np.ndarray]) -> Scores:
    """A Scores table with one row per flow and window of actionable, each
    flagged as given there (its other columns are zero)."""
    fid = np.concatenate([np.full(len(z), f) for f, z in actionable.items()])
    window = np.concatenate([np.arange(len(z)) for z in actionable.values()])
    z = np.concatenate([np.asarray(z, dtype=bool)
                        for z in actionable.values()])
    zero = np.zeros(fid.size)
    return Scores(fid, window, zero, zero, zero, zero, zero, z & False, z,
                  zero)


def entries(schedule: Schedule, flow_id: int) -> list[tuple[int, float]]:
    """A flow's (from_us, weight) rows, or its default weight from 0."""
    rows = schedule.flow_id == flow_id
    return (list(zip(schedule.from_us[rows].tolist(),
                     schedule.weight[rows].tolist()))
            or [(0, schedule.default_weight)])
