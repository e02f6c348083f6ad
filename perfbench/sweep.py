"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/sweep.py --seeds 10 --seconds 24 [--workload demo ...]
                               [--trace 1] [--json perfbench/baseline.json]

For every workload and end-to-end metric (or per-layer metric with
``--trace 1``) it prints the median, the quartiles and the spread, the
interquartile distance as a share of the median, over one run per seed
(seeds 1..N). ``--json`` also writes that summary with the machine facts,
which is how ``baseline.json`` was made. Compare two commits by running the
same sweep on each, on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import SINGLE_THREAD_ENV, WORKLOADS  # noqa: E402


def machine_facts() -> dict:
    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": SINGLE_THREAD_ENV,
        "platform": platform.platform(),
    }


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()

    report = {"machine": machine_facts(), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workload or list(WORKLOADS):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=200)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED rc={proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}", file=sys.stderr)
                return 1
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                if n in ("wall_s", "setup_s", "peak_rss_mb", "trace.wall_s")),
                flush=True)
        stats = {name: dict(summary(v), unit=units[name])
                 for name, v in values.items()}
        report["workloads"][workload] = {
            "failed": failed, "attempted": attempted, "metrics": stats}
        for name, s in stats.items():
            print(f"  {workload:<12} {name:<32} median {s['median']:.6g} "
                  f"{s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
