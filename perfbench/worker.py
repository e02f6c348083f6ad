"""Runs one workload's iterations in a process of its own.

Each iteration is one in-process ``branchsite.cli.main`` call writing to a
fresh output directory. The directory's digest is taken after the timed
call; the directory is then removed, except the first one, which
``run.py`` checks. Untraced runs time the reference unit of
``reference.py`` between iterations, so that ``run.py`` can rescale each
iteration to the reference speed. With tracing on, every other iteration
runs under ``tracing.Tracer``; the others stay untraced, so both kinds see
the same drift of a shared machine.

Usage: python3 worker.py SPEC_JSON RESULT_JSON
(``run.py`` writes the spec; this script is not meant to be run by hand.)
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

# Share of the time spent timing the reference unit between iterations.
REF_SHARE = 0.2


def digest_dir(path: Path) -> tuple[str, int, int]:
    """(sha256 over relative names and contents, total bytes, file count)."""
    h = hashlib.sha256()
    total = files = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        with f.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                total += len(chunk)
        files += 1
    return h.hexdigest(), total, files


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from branchsite import cli

    traced = spec["trace"]
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        originals = {
            (module, name): getattr(importlib.import_module(module), name)
            for module, names in tracing.WRAPPED.items() for name in names
        }
    else:
        import reference
        units = [reference.unit_time(0.02)]
    work = Path(spec["work"])
    min_iterations = 2 if traced else 1
    iterations: list[dict] = []
    per_layer: list[dict] = []
    deadline = time.perf_counter() + spec["seconds"]
    k = 0
    while k < min_iterations or time.perf_counter() < deadline:
        trace_this = traced and k % 2 == 1
        out = work / f"iter-{k}"
        argv = [a.replace("{out}", str(out)) for a in spec["argv"]]
        error = None
        with tracer if trace_this else contextlib.nullcontext():
            gc.collect()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                rc = tracer.run(k, cli.main, argv) if trace_this else cli.main(argv)
            except Exception as exc:  # an iteration that raises counts as failed
                rc, error = None, repr(exc)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        digest, nbytes, nfiles = digest_dir(out) if out.exists() else (None, 0, 0)
        if k > 0:
            shutil.rmtree(out, ignore_errors=True)
        iterations.append({"wall": wall, "cpu": cpu, "rc": rc, "error": error,
                           "digest": digest, "traced": trace_this})
        if not traced:
            units.append(reference.unit_time(max(0.02, REF_SHARE * wall)))
        if trace_this:
            m = tracer.end_iteration()
            m["project.artifact_bytes"] = nbytes
            m["project.artifact_files"] = nfiles
            per_layer.append(m)
        k += 1

    result = {
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not traced:
        result["units"] = units
    else:
        untraced = [it for it in iterations if not it["traced"]]
        result["per_layer"] = tracing.summarize(
            per_layer,
            [it["wall"] for it in iterations if it["traced"]],
            [it["wall"] for it in untraced],
            [it["cpu"] for it in untraced],
        )
        result["counts_repeat"] = tracing.counts_repeat(per_layer)
        result["restored"] = all(
            getattr(importlib.import_module(module), name) is fn
            for (module, name), fn in originals.items()
        )
        self_times = [m[n] for m in per_layer for n in tracing.SELF_TIME_METRICS]
        result["self_times_nonnegative"] = min(self_times) >= 0.0
        tracer.dump(Path(spec["spans"]))
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run(spec)
    Path(sys.argv[2]).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
