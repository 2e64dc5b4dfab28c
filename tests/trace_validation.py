"""Whole-trace structural checks that report every violation at once.

Only the tests use this report, to state that a generated trace is valid.
Loading a world refuses a bad trace through `flowgate.worlds.check_trace`,
which raises on the first violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from flowgate.trace import Trace


@dataclass
class ValidationReport:
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_trace(trace: Trace, len_bounds: tuple[int, int]) -> ValidationReport:
    """Structural checks: ordering, bounds, referential integrity.

    Returns a report listing every violation found (empty means valid).
    """
    rep = ValidationReport()
    lo, hi = len_bounds
    ts, fid, ln, cq = trace.ts_us, trace.flow_id, trace.len_bytes, trace.clique_id

    if trace.n_packets:
        if np.any(np.diff(ts) < 0):
            rep.issues.append("timestamps not sorted ascending")
        if int(ts.min()) < 0:
            rep.issues.append("negative timestamp")
        if int(ts.max()) >= trace.horizon_us:
            rep.issues.append("timestamp at or beyond horizon end")
        if int(ln.min()) < lo or int(ln.max()) > hi:
            rep.issues.append(f"len_bytes outside [{lo}, {hi}]")
        known = set(trace.flow_table)
        present = set(int(f) for f in np.unique(fid))
        unknown = present - known
        if unknown:
            rep.issues.append(f"packets reference unknown flow ids {sorted(unknown)}")
        # clique id must be constant per flow
        for f in sorted(present & known):
            cqs = np.unique(cq[fid == f])
            if cqs.shape[0] > 1:
                rep.issues.append(f"flow {f} appears in multiple cliques {cqs.tolist()}")
    if trace.horizon_windows <= 0:
        rep.issues.append("horizon_windows must be positive")
    if trace.window_us <= 0:
        rep.issues.append("window_us must be positive")
    return rep
