"""Run one pipeline stage in a fresh interpreter and report how it went.

    python3 perfbench/stage.py SPEC_JSON SPAWN_TIME

SPEC_JSON names the stage, its CLI arguments, the checkout's `src`
directory, whether to trace, and where to write the result. SPAWN_TIME is
the CLOCK_MONOTONIC reading the parent took just before starting this
process; set-up time runs from it until `flowgate.cli` is imported.

The stage runs once. A speed probe runs ten times before it, every
PROBE_EVERY_S seconds during it (on a SIGALRM timer) and ten times after
it, so that its time can be scaled to the speed the machine gave this
process (see run.py).
"""

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

PROBE_EVERY_S = 0.03


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> float:
    """Seconds for a fixed pure-Python loop of about 0.2 ms.

    It uses nothing from flowgate, so a change to the program cannot move
    it; it moves only with the speed the machine gives this process.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Probe samples around and during the calls made inside `with`."""

    def __init__(self):
        self.before: list[float] = []
        self.samples: list[float] = []

    def __enter__(self):
        self.before = [probe() for _ in range(10)]
        self.samples = list(self.before)
        signal.signal(signal.SIGALRM,
                      lambda *_: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples += [probe() for _ in range(10)]

    def mean_s(self) -> float:
        """Mean probe time, leaving out samples an interrupt stretched."""
        cut = 3.0 * statistics.median(self.samples)
        return statistics.mean(x for x in self.samples if x < cut)


def _run_cli(argv) -> int:
    from flowgate import cli
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse reports bad arguments this way
        return exc.code if isinstance(exc.code, int) else 1


def _run_audit(world_dir):
    """load_world + audit_budgets: the independent budget audit."""
    from flowgate import worlds
    return worlds.audit_budgets(worlds.load_world(world_dir))


def main(argv) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    t_spawn = float(argv[1])
    sys.path.insert(0, spec["src"])
    import flowgate.cli  # noqa: F401  (set-up ends with this import)
    setup_s = _now() - t_spawn

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    stage = spec["stage"]
    if stage == "audit":
        def call():
            return 0, _run_audit(spec["world"])
    else:
        def call():
            return _run_cli(spec["argv"]), None
    if tracer is not None:
        call = tracer.span(f"cli.{stage}", call)

    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        rc, audit_rows = call()
        stage_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "stage": stage,
        "rc": rc,
        "setup_s": setup_s,
        "stage_s": stage_s,
        "probe_setup_s": statistics.mean(speed.before),
        "probe_s": speed.mean_s(),
        "probes": len(speed.samples),
        "peak_rss_mb": peak_rss_mb,
        "audit": audit_rows,
        "trace": tracer.dump() if tracer is not None else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
