"""One pass of a benchmark run, in a fresh interpreter.

Started by ``run.py``.  The pass imports orbitquad from the checkout's
``src``, builds the workload's modules and inputs, prints ``ready`` (the
parent times set-up up to that line), then runs whole rounds of the
workload's jobs until the next round would end after ``--deadline`` (a
``time.monotonic`` instant, shared with the parent), and at least one round.

Right before each job it times ``reference_kernel``, a fixed piece of
exact arithmetic that shares no code with orbitquad, so that the parent can
scale the job's time by the host's speed at that moment.  The last line it
prints is one JSON object with every job's (time, kernel time) pairs and
problems, the pass's peak RSS and, with ``--trace 1``, the layer metrics
of set-up and of each round.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def reference_kernel() -> float:
    """Seconds for a fixed mix of Fraction arithmetic, list and dict work.

    The garbage collector is off while it runs, so its time does not depend
    on how much the program under test keeps alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        rows = []
        for i in range(1, 1500):
            a = Fraction(i, i + 1) * Fraction(3, 7) - Fraction(1, i)
            acc += a
            rows.append([a, acc, {i: a}])
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _import_checkout():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import orbitquad

    where = Path(orbitquad.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"orbitquad was imported from {where}, not from this checkout")


def run_job(job, workloads):
    """One job from its empty caches: (seconds, kernel seconds, problems)."""
    workloads.reset_caches(job.cold)
    kernel = reference_kernel()
    start = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a wrong answer or a crash is one failed job
        return time.perf_counter() - start, kernel, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    try:
        problems = job.check(out)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return seconds, kernel, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_checkout()
    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        # installed before set-up, so that the modules set-up builds are counted
        tracer = Tracer()
        tracer.install()
    try:
        jobs = workloads.setup(args.workload, args.seed)
        setup_layers = tracer.snapshot() if tracer else None
        print("ready", flush=True)
        setup_kernel = statistics.median(reference_kernel() for _ in range(3))

        samples: dict[str, list[list[float]]] = {job.name: [] for job in jobs}
        problems: dict[str, list[str]] = {}
        attempted = failed = 0
        layer_rounds = []
        while True:
            started = time.monotonic()
            kernels = []
            if tracer:
                tracer.reset()
            for job in jobs:
                seconds, kernel, bad = run_job(job, workloads)
                samples[job.name].append([seconds, kernel])
                kernels.append(kernel)
                attempted += 1
                if bad:
                    failed += 1
                    problems.setdefault(job.name, bad)
            if tracer:
                layer_rounds.append({"kernel": statistics.median(kernels),
                                     "metrics": tracer.snapshot()})
            took = time.monotonic() - started
            if time.monotonic() + took > args.deadline:
                break
    finally:
        if tracer:
            tracer.restore()

    result = {
        "attempted": attempted,
        "failed": failed,
        "known_fault": workloads.KNOWN_FAULT,
        "setup_kernel": setup_kernel,
        "samples": samples,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layer_rounds,
        "setup_layers": setup_layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
