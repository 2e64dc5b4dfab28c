"""Output checks for one pipeline pass, and the reference they compare to.

Structural checks hold for any world: the scores cover flows x windows,
each queue log is aligned with the trace and serves one packet at a time
per clique, and the audit confirms every feasible episode. Decisions (alarm
and actionable flags, the gate schedule, feasibility outcomes) must match
the reference recorded for the workload and world seed. Byte identity of
the large artifacts is reported apart, as a count of digest mismatches,
because a change may state a tolerance for them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Artifacts whose bytes are compared with the reference, by pass-relative path.
DIGESTED = ("world/trace.csv", "det/scores.csv", "base/queue_log.csv",
            "gated/queue_log.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_trace(path: Path) -> np.ndarray:
    """(packets, 4) int64: ts_us, flow_id, len_bytes, clique_id."""
    return np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1,
                      ndmin=2).reshape(-1, 4)


def read_log(path: Path) -> np.ndarray:
    """(packets, 6) float64: flow_id, clique_id, enqueue, dequeue,
    complete, benign."""
    return np.loadtxt(path, dtype=np.float64, delimiter=",", skiprows=1,
                      ndmin=2).reshape(-1, 6)


def queue_log_problems(log: np.ndarray, trace: np.ndarray) -> list[str]:
    """One row per trace packet, dequeue >= enqueue, and service intervals
    that do not overlap within a clique."""
    if log.shape[0] != trace.shape[0]:
        return [f"queue log has {log.shape[0]} rows, trace has "
                f"{trace.shape[0]} packets"]
    out = []
    if not (np.array_equal(log[:, 0], trace[:, 1])
            and np.array_equal(log[:, 1], trace[:, 3])
            and np.array_equal(log[:, 2], trace[:, 0])):
        out.append("queue log rows are not aligned with the trace")
    if np.any(log[:, 3] < log[:, 2]):
        out.append(f"{int(np.sum(log[:, 3] < log[:, 2]))} packets dequeued "
                   "before they arrived")
    if np.any(log[:, 4] < log[:, 3]):
        out.append("a packet completes before its service starts")
    order = _service_order(log)
    cq, deq, comp = log[order, 1], log[order, 3], log[order, 4]
    overlap = (cq[1:] == cq[:-1]) & (deq[1:] < comp[:-1])
    if np.any(overlap):
        out.append(f"{int(overlap.sum())} overlapping service intervals")
    return out


def _service_order(log: np.ndarray) -> np.ndarray:
    """Row order by clique, then by service start."""
    return np.lexsort((log[:, 3], log[:, 1]))


def single_flow_busy_share(log: np.ndarray) -> float:
    """Share of packets served in busy periods that hold only one flow.

    A busy period of a clique's server ends when it falls idle: the next
    packet starts later than the previous one completed.
    """
    n = log.shape[0]
    if n == 0:
        return 0.0
    order = _service_order(log)
    flow, cq, deq, comp = (log[order, k] for k in (0, 1, 3, 4))
    new = np.ones(n, dtype=bool)
    new[1:] = (cq[1:] != cq[:-1]) | (deq[1:] > comp[:-1])
    period = np.cumsum(new) - 1
    mixed = np.zeros(period[-1] + 1, dtype=bool)
    changed = ~new[1:] & (flow[1:] != flow[:-1])
    mixed[period[1:][changed]] = True
    return float(np.mean(~mixed[period]))


def read_decisions(scores_path: Path) -> dict:
    """Row count, flag counts and a digest of (flow, window, a, z)."""
    h = hashlib.sha256()
    rows = alarms = actionable = 0
    with open(scores_path) as fh:
        next(fh)
        for line in fh:
            t = line.split(",")
            h.update(f"{t[0]},{t[1]},{t[7]},{t[8]}\n".encode())
            rows += 1
            alarms += t[7] == "1"
            actionable += t[8] == "1"
    return {"rows": rows, "alarms": alarms, "actionable": actionable,
            "flags_sha256": h.hexdigest()}


def gated_flows(schedule_path: Path, omega_0: float = 1.0) -> int:
    """Flows whose schedule ever leaves the default weight."""
    flows = set()
    with open(schedule_path) as fh:
        next(fh)
        for line in fh:
            f, _, w = line.strip().split(",")
            if float(w) != omega_0:
                flows.add(int(f))
    return len(flows)


def feasibility(world_dir: Path) -> list[list]:
    doc = json.loads((world_dir / "feasibility.json").read_text())
    return [[o["flow_id"], o["feasible"], o["iterations_used"]]
            for o in doc["outcomes"]]


def check_pass(pass_dir: Path, audit_rows, infeasible_flows) -> tuple[
        dict[str, list[str]], dict]:
    """Structural checks of one pass's artifacts.

    Returns the problems found per stage and the facts the reference and
    the per-layer metrics need.
    """
    world = pass_dir / "world"
    cfg = json.loads((world / "config.json").read_text())
    n_flows = len(cfg["benign_flows"]) + len(cfg["episodes"])
    windows = cfg["horizon_windows"]
    problems = {s: [] for s in ("gen_world", "detect", "replay_base",
                                "replay_gated", "report", "audit")}

    outcomes = feasibility(world)
    trace = read_trace(world / "trace.csv")
    decisions = read_decisions(pass_dir / "det" / "scores.csv")
    if decisions["rows"] != n_flows * windows:
        problems["detect"].append(
            f"scores hold {decisions['rows']} rows, expected "
            f"{n_flows} flows x {windows} windows")
    base_log = read_log(pass_dir / "base" / "queue_log.csv")
    problems["replay_base"] += queue_log_problems(base_log, trace)
    problems["replay_gated"] += queue_log_problems(
        read_log(pass_dir / "gated" / "queue_log.csv"), trace)
    try:
        json.loads((pass_dir / "rep" / "report.json").read_text())["metrics"]
    except (OSError, ValueError, KeyError) as exc:
        problems["report"].append(f"report.json unreadable: {exc}")

    for row in audit_rows:
        if row["feasible"] and not row["all_ok"]:
            problems["audit"].append(
                f"feasible episode {row['flow_id']} fails its audit: {row}")
        if row["flow_id"] in infeasible_flows and row["feasible"]:
            problems["audit"].append(
                f"over-constrained episode {row['flow_id']} came out feasible")
    audited = sorted(r["flow_id"] for r in audit_rows)
    if audited != sorted(e["flow_id"] for e in cfg["episodes"]):
        problems["audit"].append(f"audit covered episodes {audited}")

    facts = {
        "flows": n_flows, "windows": windows, "rows": n_flows * windows,
        "packets": int(trace.shape[0]), "episodes": len(cfg["episodes"]),
        "contention_bytes": (world / "contention.json").stat().st_size,
        "alarms": decisions["alarms"], "actionable": decisions["actionable"],
        "single_flow_busy_share": single_flow_busy_share(base_log),
        "gated_flows": gated_flows(pass_dir / "gated" / "schedule.csv"),
        "thinning_iterations": sum(o[2] for o in outcomes),
        "sizes": {p: (pass_dir / p).stat().st_size
                  for p in ("det/scores.csv", "base/queue_log.csv")},
        "reference": {
            "alarms": decisions["alarms"],
            "actionable": decisions["actionable"],
            "flags_sha256": decisions["flags_sha256"],
            "schedule_sha256": sha256(pass_dir / "gated" / "schedule.csv"),
            "feasibility": outcomes,
            "outputs_sha256": {p: sha256(pass_dir / p) for p in DIGESTED},
        },
    }
    return problems, facts


def reference_problems(found: dict, recorded: dict | None) -> dict[str,
                                                                    list[str]]:
    """Decisions that differ from the recorded reference, per stage."""
    if recorded is None:
        return {"gen_world": ["no reference recorded for this world seed"]}
    out: dict[str, list[str]] = {}
    if found["feasibility"] != recorded["feasibility"]:
        out["gen_world"] = [f"feasibility {found['feasibility']} != "
                            f"reference {recorded['feasibility']}"]
    if found["flags_sha256"] != recorded["flags_sha256"]:
        out["detect"] = [
            f"alarm/actionable flags differ from the reference "
            f"({found['alarms']}/{found['actionable']} vs "
            f"{recorded['alarms']}/{recorded['actionable']})"]
    if found["schedule_sha256"] != recorded["schedule_sha256"]:
        out["replay_gated"] = ["gate schedule differs from the reference"]
    return out


def digest_mismatches(found: dict, recorded: dict | None) -> int:
    if recorded is None:
        return len(DIGESTED)
    return sum(found["outputs_sha256"][p] != recorded["outputs_sha256"][p]
               for p in DIGESTED)
