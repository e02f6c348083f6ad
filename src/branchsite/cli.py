"""Command-line interface.

Subcommands mirror the pipeline stages: ``weights`` (matrices to weight
vector and consistency report), ``score`` (layers to rasters and the
combined surface), ``candidates`` (surface to tiered sites), ``solve``
(instance JSON to solution or curve), ``pipeline`` (everything), ``report``
(re-render artifacts from a report.json), and ``fixture`` (write the bundled
demo project).

Exit codes: 0 success, 2 validation error, 3 solver refusal, 4 I/O error.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import click

from .errors import BranchSiteError, InputError, SolverRefused, StageError
from .fields import json_text, read_json, write_artifacts
from .mclp import (
    coverage_curve,
    curve_files,
    instance_from_json,
    solve_exact,
    solve_greedy_swap,
)

# The names of the commands that need the GIS stack or the demo generator,
# each imported from its module on first use (PEP 562), so ``solve`` loads
# only the solver. The commands look them up on the module object (``_self``),
# so a rebound module global is what a command calls.
_LAZY = {
    **dict.fromkeys(("build_candidate_set", "build_surface", "candidate_files",
                     "evaluate_weights", "load_project", "render_report",
                     "run_pipeline", "surface_files", "weights_files",
                     "write_pipeline_artifacts"), "project"),
    "write_fixture": "fixture",
}
_self = sys.modules[__name__]


def __getattr__(name: str):
    """A name of ``_LAZY``, imported from its module and kept as a module
    global, so later lookups do not come here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f".{_LAZY[name]}", __package__), name)
    return value


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Project JSON file.")
@click.option("--out", "out_dir", type=click.Path(), default="out",
              help="Output directory (default: ./out).")
@click.option("--seed", type=int, default=0,
              help="Random seed (fixture generation only).")
@click.pass_context
def cli(ctx, config_path, out_dir, seed):
    """Site-selection toolkit: criterion weighting, suitability overlay,
    candidate extraction, and maximal covering solvers."""
    ctx.obj = {
        "config": None if config_path is None else Path(config_path),
        "out": Path(out_dir),
        "seed": seed,
    }


def _require_config(ctx) -> Path:
    path = ctx.obj["config"]
    if path is None:
        raise click.UsageError("this command needs --config <project.json>")
    return path


@cli.command()
@click.pass_context
def weights(ctx):
    """Derive criterion weights and the consistency report."""
    cfg = _self.load_project(_require_config(ctx))
    vector = _self.evaluate_weights(cfg)
    out = ctx.obj["out"]
    write_artifacts(out, _self.weights_files(cfg.meta, vector, cfg.gates))
    for g in cfg.gates:
        click.echo(f"{g.matrix_id}: CR={g.cr:.6f} "
                   f"{'pass' if g.passed else 'FAIL'}")
    for item, value in vector.as_dict().items():
        click.echo(f"{item}: {value:.6f}")
    click.echo(f"wrote {out / 'weights.json'}")


@cli.command()
@click.pass_context
def score(ctx):
    """Rasterize every criterion and write the combined score surface."""
    cfg = _self.load_project(_require_config(ctx))
    surface = _self.build_surface(cfg)
    out = ctx.obj["out"]
    write_artifacts(out, _self.surface_files(cfg.meta, surface.score, surface.rasters))
    click.echo(f"wrote {out / 'score.asc'} and {len(surface.rasters)} criterion rasters")


@cli.command()
@click.pass_context
def candidates(ctx):
    """Extract, tier, and merge candidate sites."""
    cfg = _self.load_project(_require_config(ctx))
    surface = _self.build_surface(cfg)
    proposed, merged = _self.build_candidate_set(cfg, surface)
    out = ctx.obj["out"]
    write_artifacts(out, _self.candidate_files(cfg.meta, merged))
    click.echo(f"{len(proposed)} proposed + {len(merged) - len(proposed)} existing "
               f"-> {out / 'candidates.geojson'}")


@cli.command()
@click.option("--instance", "instance_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="MCLP instance JSON.")
@click.option("--p", "p_single", type=int, default=None,
              help="Solve for one facility budget: row p of the --p-max p curve.")
@click.option("--p-max", type=int, default=None,
              help="Solve the coverage curve for p = 1..p_max.")
@click.option("--method", type=click.Choice(["exact", "greedy+swap"]),
              default="exact", show_default=True)
@click.option("--override-cap", is_flag=True,
              help="Run the exact solver above its size cap.")
@click.pass_context
def solve(ctx, instance_path, p_single, p_max, method, override_cap):
    """Solve an MCLP instance JSON for a budget or a whole curve."""
    if (p_single is None) == (p_max is None):
        raise click.UsageError("pass exactly one of --p or --p-max")
    try:
        inst = instance_from_json(Path(instance_path).read_bytes())
    except BranchSiteError as exc:
        exc.args = (f"{instance_path}: {exc}",)
        raise
    out = ctx.obj["out"]
    if p_single is not None:
        if method == "exact":
            sol = solve_exact(inst, p_single, override_cap=override_cap)
        else:
            sol = solve_greedy_swap(inst, p_single)
        write_artifacts(out, [("solution.json", [json_text(sol.to_dict())])])
        click.echo(f"p={sol.p}: {sol.coverage_pct:g}% covered "
                   f"by {', '.join(sol.selected)}")
    else:
        curve = coverage_curve(inst, p_max, method=method,
                               override_cap=override_cap)
        write_artifacts(out, curve_files(curve.to_dict()))
        for row in curve.rows:
            click.echo(f"p={row.p}: {row.coverage_pct:g}% "
                       f"({', '.join(row.selected)})")


@cli.command()
@click.pass_context
def pipeline(ctx):
    """Run the whole pipeline and write every artifact."""
    cfg = _self.load_project(_require_config(ctx))
    report = _self.run_pipeline(cfg)
    out = ctx.obj["out"]
    written = _self.write_pipeline_artifacts(report, out)
    if report.data["extraction_empty"]:
        click.echo("no cell reached the extraction threshold; "
                   "no coverage table was produced")
    else:
        for row in report.data["curve"]:
            click.echo(f"p={row['p']}: {row['coverage_pct']:g}% "
                       f"({', '.join(row['selected'])})")
    click.echo(f"wrote {len(written)} files to {out}")


@cli.command()
@click.option("--report", "report_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="A report.json from a previous run.")
@click.pass_context
def report(ctx, report_path):
    """Re-render artifacts from an existing report."""
    _, data = read_json(report_path, InputError, "report")
    if not isinstance(data, dict):
        raise InputError(f"report {report_path} must be a JSON object")
    out = ctx.obj["out"]
    written = _self.render_report(data, out)
    click.echo(f"re-rendered {len(written)} files to {out}")


@cli.command()
@click.pass_context
def fixture(ctx):
    """Write the bundled demo project ("isfahan20") to the output directory."""
    out = ctx.obj["out"]
    config_path = _self.write_fixture(out, seed=ctx.obj["seed"])
    click.echo(f"wrote demo project to {config_path}")


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, SolverRefused):
        return 3
    if isinstance(exc, StageError):
        return _exit_code(exc.cause)
    if isinstance(exc, BranchSiteError):
        return 2
    if isinstance(exc, OSError):
        return 4
    return 1


def main(argv=None) -> int:
    try:
        cli(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        return 130
    except click.ClickException as exc:
        exc.show()
        return 2
    except (BranchSiteError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
