"""Self-tests of the benchmark.

    python3 perfbench/selftest.py           # reduced inputs, about a minute
    python3 perfbench/selftest.py --full    # full-size inputs, one pass each

For each workload it runs ``run.py`` once untraced and twice traced and
checks that:
  * every end-to-end and per-layer metric of BENCHMARK.json is reported,
    with its unit, and nothing else;
  * the outputs pass the benchmark's own checks and no iteration failed;
  * per-layer self times are non-negative and add up to the traced wall
    time, less at most 1 ms or 1% for the tracer's root wrapper;
  * the count metrics repeat exactly between the two traced runs.
It also checks in-process that the tracer wraps every name it lists and
restores each one afterwards.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from run import SRC, WORKLOADS  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int, full: bool) -> dict:
    """One run of the fewest iterations (one, or two when traced)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd + ([] if full else ["--quick"]),
                          capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    check(proc.returncode == 0 and result.get("correct") is True,
          f"{workload} trace={trace}: exits 0 with correct outputs"
          + ("" if proc.returncode == 0 else f"\n{proc.stdout}{proc.stderr}"))
    return result


def check_tracer_restores() -> None:
    sys.path.insert(0, str(SRC))
    originals = {(m, n): getattr(importlib.import_module(m), n)
                 for m, names in tracing.WRAPPED.items() for n in names}
    with tracing.Tracer():
        wrapped = all(getattr(importlib.import_module(m), n) is not fn
                      for (m, n), fn in originals.items())
    restored = all(getattr(importlib.import_module(m), n) is fn
                   for (m, n), fn in originals.items())
    check(wrapped, f"tracer wraps all {len(originals)} names")
    check(restored, f"tracer restores all {len(originals)} names")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--full", action="store_true", help="full-size inputs")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(layers == tracing.UNITS, "BENCHMARK.json per_layer matches tracing.UNITS")
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")
    check_tracer_restores()

    for workload in WORKLOADS:
        plain = run_bench(workload, 0, args.full)
        got = {n: m["unit"] for n, m in plain.get("metrics", {}).items()}
        check(got == e2e, f"{workload}: end-to-end metrics and units")
        check(plain.get("failed") == 0 and plain.get("attempted", 0) >= 1,
              f"{workload}: no failed iteration")

        traced = [run_bench(workload, 1, args.full) for _ in range(2)]
        for r in traced:
            got = {n: m["unit"] for n, m in r.get("metrics", {}).items()}
            check(got == layers, f"{workload}: per-layer metrics and units")
            if got != layers:
                continue
            v = {n: m["value"] for n, m in r["metrics"].items()}
            selfs = [v[n] for n in tracing.SELF_TIME_METRICS]
            check(min(selfs) >= 0.0, f"{workload}: self times non-negative")
            # the gap is the root wrapper's own bookkeeping, outside its span
            total, wall = sum(selfs), v["trace.wall_s"]
            check(0.0 <= wall - total <= max(1e-3, 0.01 * wall),
                  f"{workload}: self times account for the traced wall time "
                  f"({total:.6f} s of {wall:.6f} s)")
        if all(r.get("metrics") for r in traced):
            first, second = ({n: r["metrics"][n]["value"]
                              for n in tracing.COUNT_METRICS} for r in traced)
            check(first == second, f"{workload}: counts repeat across two "
                  f"traced runs {first}")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
