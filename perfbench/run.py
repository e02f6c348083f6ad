"""The branchsite benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 24 --trace 0

Run from a checkout of the repository; the package is imported from
``src/`` as it stands, so there is nothing to build. The command generates
the workload's inputs from ``--seed``, measures the interpreter set-up
time, then starts ``worker.py``, which calls ``branchsite.cli.main``
in-process, one call per iteration, for ``--seconds`` seconds. It checks
the outputs and prints every metric by name and unit; its last line is one
JSON object. ``--trace 1`` reports the per-layer metrics of ``tracing.py``
instead of the end-to-end ones. ``--quick`` shrinks the inputs and runs the
fewest iterations (see ``selftest.py``). The workloads and metrics are
described in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

# One process, no extra threads: numpy's BLAS would otherwise start one
# thread per core at import.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 9
# A run must end within 180 s, so the worker is stopped before that.
RUN_LIMIT_S = 170.0

DEMO_CURVE = [90.0, 96.0, 100.0]


@dataclass(frozen=True)
class Prepared:
    argv: list[str]               # cli.main arguments; "{out}" is the output dir
    check: Callable[[Path], list[str]]   # problems found in one output dir


# -- demo project --------------------------------------------------------------

def _prepare_demo(inputs: Path, seed: int, cell_size: float) -> Prepared:
    from branchsite.fixture import GRID, write_fixture

    config = write_fixture(inputs, seed=seed)
    if cell_size != GRID["cell_size"]:
        project = json.loads(config.read_text())
        scale = GRID["cell_size"] / cell_size
        project["grid"].update(cell_size=cell_size,
                               ncols=round(GRID["ncols"] * scale),
                               nrows=round(GRID["nrows"] * scale))
        config.write_text(json.dumps(project, indent=2, sort_keys=True) + "\n")
    return Prepared(["--config", str(config), "--out", "{out}", "pipeline"],
                    _check_demo)


def _check_demo(out: Path) -> list[str]:
    with (out / "coverage.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = [float(r["covering_percentage"]) for r in rows]
    ps = [int(r["p"]) for r in rows]
    if got != DEMO_CURVE or ps != [1, 2, 3]:
        return [f"demo coverage curve is {got} for p={ps}, expected {DEMO_CURVE}"]
    return []


# -- planar MCLP instances -----------------------------------------------------

def planar_instance(n_areas: int, n_cands: int, side: int, radius: int,
                    seed: int) -> dict:
    """Instance JSON without a matrix, so ``build_coverage`` runs in the CLI.

    The coverage structure is fixed per size: areas and candidates are
    uniform integer points in a ``side`` square, drawn from a constant
    seed, with integer populations. Branch-and-bound and swap work is
    heavy-tailed across random instances (200 x 30 at p <= 7 took 0.9 s to
    13 s over 18 seeds), which would leave ``wall_s`` too noisy to bound. So
    ``seed`` changes only the presentation: one of the eight symmetries of
    the square plus an integer translation, fresh area ids, and the order of
    areas and candidates. Distances, the coverage sets and every solver
    decision stay the same; coordinates, bit positions and bytes change.
    """
    base = random.Random(f"{n_areas}x{n_cands}")
    areas = [(base.randint(0, side), base.randint(0, side),
              base.randint(100, 5000)) for _ in range(n_areas)]
    cands = [(base.randint(0, side), base.randint(0, side))
             for _ in range(n_cands)]

    rng = random.Random(seed)
    turn, flip = rng.randrange(4), rng.randrange(2)
    dx, dy = rng.randrange(1_000_000), rng.randrange(1_000_000)

    def move(x: int, y: int) -> list[int]:
        for _ in range(turn):
            x, y = -y, x
        if flip:
            x = -x
        return [x + dx, y + dy]

    area_ids = rng.sample(range(10 * n_areas), n_areas)
    area_rows = [{"id": f"a{area_ids[i]:05d}", "population": pop,
                  "centroid": move(x, y)}
                 for i, (x, y, pop) in enumerate(areas)]
    cand_rows = [{"id": f"c{j:03d}", "location": move(x, y)}
                 for j, (x, y) in enumerate(cands)]
    rng.shuffle(area_rows)
    rng.shuffle(cand_rows)
    return {"mode": "planar", "standard": {"kind": "radius", "radius": radius},
            "areas": area_rows, "candidates": cand_rows}


def coverage_sets(instance: dict) -> dict[str, set[str]]:
    """Areas within the radius of each candidate, in exact integer arithmetic."""
    r2 = instance["standard"]["radius"] ** 2
    return {
        c["id"]: {a["id"] for a in instance["areas"]
                  if (a["centroid"][0] - c["location"][0]) ** 2
                  + (a["centroid"][1] - c["location"][1]) ** 2 <= r2}
        for c in instance["candidates"]
    }


def optimum(instance: dict, p: int) -> float:
    """Maximal covered population with p sites, by HiGHS through scipy."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    areas = instance["areas"]
    cands = instance["candidates"]
    row = {a["id"]: i for i, a in enumerate(areas)}
    na, nc = len(areas), len(cands)
    cover = np.zeros((na, nc))
    for j, ids in enumerate(coverage_sets(instance)[c["id"]] for c in cands):
        cover[[row[i] for i in ids], j] = 1.0
    # variables: x_j (site open), then y_i (area covered)
    pops = np.array([a["population"] for a in areas], dtype=float)
    c = np.concatenate([np.zeros(nc), -pops])
    link = np.hstack([-cover, np.eye(na)])          # y_i <= sum_j a_ij x_j
    budget = np.concatenate([np.ones(nc), np.zeros(na)])
    res = milp(c, integrality=np.ones(nc + na), bounds=Bounds(0, 1),
               constraints=[LinearConstraint(link, -np.inf, 0),
                            LinearConstraint(budget, p, p)])
    if not res.success:
        raise RuntimeError(f"milp failed for p={p}: {res.message}")
    return -res.fun


def _check_curve(instance: dict, out: Path, p_max: int, exact: bool) -> list[str]:
    rows = json.loads((out / "solutions.json").read_text())["rows"]
    sets = coverage_sets(instance)
    pops = {a["id"]: a["population"] for a in instance["areas"]}
    problems = []
    if [r["p"] for r in rows] != list(range(1, p_max + 1)):
        return [f"curve rows are for p={[r['p'] for r in rows]}"]
    for r in rows:
        sel = r["selected"]
        if len(set(sel)) != r["p"] or not set(sel) <= set(sets):
            problems.append(f"p={r['p']}: bad selection {sel}")
            continue
        covered = set().union(*(sets[s] for s in sel))
        z = float(sum(pops[a] for a in covered))
        if r["objective"] != z or set(r["covered"]) != covered:
            problems.append(f"p={r['p']}: objective {r['objective']} != recomputed {z}")
    objectives = [r["objective"] for r in rows]
    if any(b < a for a, b in zip(objectives, objectives[1:])):
        problems.append(f"curve decreases: {objectives}")
    if exact and not problems:
        problems += _check_optimal(instance, objectives)
    return problems


def _check_optimal(instance: dict, objectives: list[float]) -> list[str]:
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        # no oracle: the exact curve must at least match greedy+swap
        from branchsite.mclp import coverage_curve, instance_from_json
        inst = instance_from_json(json.dumps(instance))
        curve = coverage_curve(inst, len(objectives), method="greedy+swap")
        return [f"p={r.p}: exact {z} below greedy+swap {r.objective}"
                for r, z in zip(curve.rows, objectives) if z < r.objective]
    return [f"p={p}: exact {z} != optimum {best}"
            for p, z in enumerate(objectives, 1)
            if abs(z - (best := optimum(instance, p))) > 0.5]


def _prepare_mclp(inputs: Path, seed: int, size: tuple[int, int, int],
                  method: str, p_max: int) -> Prepared:
    n_areas, n_cands, side = size
    instance = planar_instance(n_areas, n_cands, side, 2500, seed)
    inputs.mkdir(parents=True)
    path = inputs / "instance.json"
    path.write_text(json.dumps(instance) + "\n")
    return Prepared(
        ["--out", "{out}", "solve", "--instance", str(path),
         "--method", method, "--p-max", str(p_max)],
        lambda out: _check_curve(instance, out, p_max, method == "exact"))


# name -> (full-size preparation, quick preparation); each takes (inputs, seed)
WORKLOADS: dict[str, tuple[Callable, Callable]] = {
    "demo": (lambda d, s: _prepare_demo(d, s, 100.0),
             lambda d, s: _prepare_demo(d, s, 100.0)),
    "demo-25m": (lambda d, s: _prepare_demo(d, s, 25.0),
                 lambda d, s: _prepare_demo(d, s, 50.0)),
    "mclp-greedy": (
        lambda d, s: _prepare_mclp(d, s, (1500, 150, 20000), "greedy+swap", 8),
        lambda d, s: _prepare_mclp(d, s, (300, 40, 20000), "greedy+swap", 4)),
    "mclp-exact": (
        lambda d, s: _prepare_mclp(d, s, (200, 30, 12000), "exact", 7),
        lambda d, s: _prepare_mclp(d, s, (100, 20, 12000), "exact", 4)),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env: dict[str, str]) -> tuple[float, float]:
    """Median time for a fresh interpreter to import the CLI, rescaled to
    the reference speed and as measured. The first, untimed import writes
    the bytecode cache, as any earlier use would."""
    cmd = [sys.executable, "-c", "import branchsite.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
    times, units = [], [reference.unit_time(0.03)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
        units.append(reference.unit_time(0.03))
    return (statistics.median(reference.rescale(times, units)),
            statistics.median(times))


def measure(args, run_dir: Path, started: float) -> dict:
    """Run the workload; returns the result object the last line prints."""
    sys.path.insert(0, str(SRC))
    prepare = WORKLOADS[args.workload][1 if args.quick else 0]
    prepared = prepare(run_dir / "inputs", args.seed)
    env = child_env()
    setup = None if args.trace else measure_setup(env)

    OUT.mkdir(exist_ok=True)
    spec_path, result_path = run_dir / "spec.json", run_dir / "result.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC), "work": str(run_dir), "argv": prepared.argv,
        "seconds": 0 if args.quick else args.seconds, "trace": bool(args.trace),
        "spans": str(OUT / f"spans-{args.workload}.json"),
    }))
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                        str(result_path)], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL,
                       timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return {"problems": [f"worker: {exc}"], "attempted": 1, "failed": 1,
                "samples": 0, "metrics": {}, "measured": {}}
    res = json.loads(result_path.read_text())

    its = res["iterations"]
    problems = [f"iteration {k}: rc={it['rc']} {it['error'] or ''}".rstrip()
                for k, it in enumerate(its) if it["rc"] != 0]
    # every iteration must reproduce the checked artifacts of the first
    ref = its[0]["digest"]
    if its[0]["rc"] != 0:
        bad_output = True
    else:
        try:
            check_problems = prepared.check(run_dir / "iter-0")
        except (OSError, ValueError, KeyError) as exc:
            check_problems = [f"output check raised {exc!r}"]
        bad_output = bool(check_problems)
        problems += check_problems
    failed = sum(1 for it in its
                 if bad_output or it["rc"] != 0 or it["digest"] != ref)
    if any(it["digest"] != ref for it in its):
        problems.append("artifact digests differ between iterations")

    if args.trace:
        for key in ("restored", "counts_repeat", "self_times_nonnegative"):
            if not res[key]:
                problems.append(f"traced run: {key} is false")
        metrics = {name: (value, tracing.UNITS[name])
                   for name, value in res["per_layer"].items()}
        samples = sum(1 for it in its if it["traced"])
        measured = {}
    else:
        walls = [it["wall"] for it in its]
        metrics = {
            "wall_s": (statistics.median(reference.rescale(walls, res["units"])), "s"),
            "setup_s": (setup[0], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        measured = {"wall_s": statistics.median(walls), "setup_s": setup[1]}
        samples = len(its)
    return {"problems": problems, "attempted": len(its), "failed": failed,
            "samples": samples, "metrics": metrics, "measured": measured}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced inputs, fewest iterations (self-test)")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "branchsite" / "cli.py").is_file():
        print(f"error: {SRC / 'branchsite'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        r = measure(args, run_dir, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # kept while another run uses it
            WORK.rmdir()

    kind = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed={args.seed} {kind}: {r['attempted']} iterations, "
          f"{r['failed']} failed, {r['samples']} samples")
    for problem in r["problems"]:
        print(f"  check failed: {problem}")
    for name, (value, unit) in r["metrics"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:<32} {shown} {unit}")
        if name in r["measured"]:
            print(f"  {'  as measured':<32} {r['measured'][name]:.6g} {unit}")
    print(f"  {'failed_frac':<32} {r['failed'] / r['attempted']:.6g} ratio")
    correct = not r["problems"] and r["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": r["attempted"], "failed": r["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
