"""orbitquad benchmark: one workload, one seed, measured for a fixed time.

    python3 bench/run.py --workload build --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The run is split into ``PASSES`` passes,
one after another, each a fresh interpreter (``worker.py``) that sets up the
workload and then runs whole rounds of its jobs until its share of
``--seconds`` is used.  Only one pass works at a time.

The host's speed changes by up to a factor of two, both from one fraction
of a second to the next and for a minute at a time, while the jobs are
deterministic.  So every time is scaled by the host's speed measured beside
it: a job's time is divided by the time of a fixed reference kernel run right
before it and multiplied by ``KERNEL_NOMINAL_S``, the kernel's time on this
host when nothing else slows it.  A job's figure is the median of these
scaled times over all its runs in all passes.  Set-up is timed once per pass,
from starting the interpreter to its first job, scaled by kernel runs right
before and right after it, and reported as the median of the passes.

The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``: the median over traced rounds, and
for the ``setup.`` metrics the median over the passes' set-ups.
``correct`` is false when a job fails other than the one known fault named
in ``workloads.KNOWN_FAULT``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import reference_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "certify", "chordal")
PASSES = 5
PASS_TIMEOUT_S = 150
# Median time of worker.reference_kernel on an unloaded host (2-vCPU Xeon
# VM, Python 3.11): the speed every reported time is scaled to.
KERNEL_NOMINAL_S = 0.011

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]


def run_pass(workload: str, seed: int, deadline: float, trace: int):
    """Start one worker; returns (set-up seconds, its result) or raises."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--deadline", repr(deadline), "--trace", str(trace)]
    kernel_before = statistics.median(reference_kernel() for _ in range(3))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready" or not rest.strip():
        raise RuntimeError(f"{workload} pass exited with code {code}")
    result = json.loads(rest.strip().splitlines()[-1])
    # the host's speed over set-up: kernels right before it and right after
    result["setup_kernel"] = (kernel_before + result["setup_kernel"]) / 2
    return setup, result


def scaled(seconds: float, kernel: float) -> float:
    return seconds * KERNEL_NOMINAL_S / kernel


def _layer_metric(name: str, unit: str, snapshots) -> dict:
    """Median of one metric over (snapshot, kernel) pairs, times scaled."""
    values = [snap[name] for snap, _ in snapshots]
    if any(v is None for v in values):
        return {"value": None, "unit": unit, "missing": True}
    if unit == "s":
        values = [scaled(v, kernel) for v, (_, kernel) in zip(values, snapshots)]
    return {"value": statistics.median(values), "unit": unit}


def summarize(passes, trace: int) -> dict:
    """Fold the passes into the printed result."""
    samples: dict[str, list[list[float]]] = {}
    problems: dict[str, list[str]] = {}
    attempted = failed = 0
    for _, res in passes:
        attempted += res["attempted"]
        failed += res["failed"]
        for name, pairs in res["samples"].items():
            samples.setdefault(name, []).extend(pairs)
        for name, bad in res["problems"].items():
            problems.setdefault(name, bad)
    per_job = {name: statistics.median(scaled(t, k) for t, k in pairs)
               for name, pairs in samples.items()}
    for name, pairs in samples.items():
        raw = [t for t, _ in pairs]
        print(f"job {name}: scaled {per_job[name]:.4f} s, raw best {min(raw):.4f} s,"
              f" raw median {statistics.median(raw):.4f} s over {len(raw)}", file=sys.stderr)
    known = {res["known_fault"] for _, res in passes}
    unexpected = sorted(name for name in problems if name not in known)
    for name in sorted(problems):
        print(f"FAILED {name}: {'; '.join(problems[name])}", file=sys.stderr)
    if trace:
        from tracing import METRICS, SETUP_METRICS, source_lines
        rounds = [(r["metrics"], r["kernel"]) for _, res in passes for r in res["layers"]]
        setups = [(res["setup_layers"], res["setup_kernel"]) for _, res in passes]
        units = {name: unit for name, unit, _, _ in METRICS}
        metrics = {name: _layer_metric(name, units[name], rounds) for name in units}
        for name in SETUP_METRICS:
            metrics[f"setup.{name}"] = _layer_metric(name, units[name], setups)
        metrics["src.lines"] = {"value": source_lines(ROOT / "src"), "unit": "count"}
        metrics["trace.run_s"] = {"value": sum(per_job.values()), "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(scaled(s, res["setup_kernel"]) for s, res in passes),
            "run_s": sum(per_job.values()),
            "job_p50_s": statistics.median(per_job.values()),
            "peak_rss_mb": max(res["peak_rss_mb"] for _, res in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orbitquad" / "__init__.py").is_file():
        print(f"error: no orbitquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still stops its worker, in run_pass's finally
    signal.signal(signal.SIGTERM, _terminate)

    start = time.monotonic()
    passes = []
    for p in range(PASSES):
        deadline = start + args.seconds * (p + 1) / PASSES
        try:
            passes.append(run_pass(args.workload, args.seed, deadline, args.trace))
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(summarize(passes, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
