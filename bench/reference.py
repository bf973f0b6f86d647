"""Reference figures: several seeded runs per workload, then their spread.

    python3 bench/reference.py --seeds 10 --seconds 36

Empties ``bench/out/``, runs ``run.py`` once per (workload, seed) for seeds
1 to ``--seeds``, one run at a time, then one traced run per workload with
seed 1, and saves every printed result and its per-job log there.  Prints,
for each workload and end-to-end metric, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread (quartile
distance over median), and the traced per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Path:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    path = OUT / f"{workload}-{'trace' if trace else 'run'}-{seed}.json"
    path.write_text(proc.stdout.strip().splitlines()[-1] + "\n")
    path.with_suffix(".log").write_text(proc.stderr)
    return path


def spread_table(workload: str) -> list[str]:
    docs = [json.loads(p.read_text()) for p in sorted(OUT.glob(f"{workload}-run-*.json"))]
    if not docs:
        return []
    lines = [f"{workload}: {len(docs)} runs, failed/attempted "
             + ", ".join(sorted({f"{d['failed']}/{d['attempted']}" for d in docs}))
             + f", correct {all(d['correct'] for d in docs)}"]
    for name in docs[0]["metrics"]:
        values = [d["metrics"][name]["value"] for d in docs]
        unit = docs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        lines.append(f"  {name:12s} median {med:9.4f} {unit:3s} quartiles {q1:9.4f} .. "
                     f"{q3:9.4f}  spread {(q3 - q1) / med:6.3f}")
    return lines


def trace_table(workload: str) -> list[str]:
    paths = sorted(OUT.glob(f"{workload}-trace-*.json"))
    if not paths:
        return []
    doc = json.loads(paths[0].read_text())
    lines = [f"{workload} traced ({paths[0].name}):"]
    for name, m in doc["metrics"].items():
        value = "missing" if m.get("missing") else f"{m['value']:.4g}"
        lines.append(f"  {name:36s} {value:>12s} {m['unit']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=36)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    # the tables read every file here, so they must all come from this set
    for old in [*OUT.glob("*.json"), *OUT.glob("*.log")]:
        old.unlink()
    for seed in range(1, args.seeds + 1):
        for workload in WORKLOADS:
            run_once(workload, seed, args.seconds, 0)
    for workload in WORKLOADS:
        run_once(workload, 1, args.seconds, 1)
    for workload in WORKLOADS:
        print("\n".join(spread_table(workload) + trace_table(workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
