"""The benchmark's decision reader still reads what detect writes.

perfbench/checks.py compares each pass's alarms and actionable flags with
the recorded reference by splitting scores.csv's lines by position. A
change to the Scores columns that moves `a` or `z`, or makes `z` the last
field (the reader does not strip the newline), makes every benchmark run
read wrong flags; this test finds that in the fast suite. It loads the
module by path and calls its reader, without changing it.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from flowgate.detector import Scores, write_scores_csv

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _checks():
    spec = importlib.util.spec_from_file_location("_bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_read_decisions_reads_the_flags_detect_writes(tmp_path):
    rng = np.random.default_rng(4)
    n = 60
    e = rng.random(n) * 3
    s = rng.random(n)
    a = rng.random(n) < 0.4
    z = rng.random(n) < 0.3
    scores = Scores(np.arange(n) % 7, np.arange(n) // 7, e, s, e / 2, e / 5,
                    s, a, z, e)
    write_scores_csv(tmp_path / "scores.csv", scores)
    flags = hashlib.sha256("".join(
        f"{f},{w},{int(x)},{int(y)}\n" for f, w, x, y in
        zip(scores.flow_id, scores.window, a, z)).encode()).hexdigest()
    assert _checks().read_decisions(tmp_path / "scores.csv") == {
        "rows": n, "alarms": int(a.sum()), "actionable": int(z.sum()),
        "flags_sha256": flags}
