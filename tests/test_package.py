"""The names the ``branchsite`` package and its CLI export, and the modules
that importing or running them loads."""

import importlib
import json
import subprocess
import sys

import pytest

import branchsite
from branchsite import cli

EXPORTED = {
    "Band", "BranchSiteError", "CombineMode", "ComparisonMatrix",
    "ConfigError", "CoverageCurve", "CoverageStandard", "CriterionSpec", "DomainError",
    "ExtractionConfig", "GateError", "GridSpec", "Hierarchy",
    "HierarchyNode", "InputError", "MclpInstance", "MclpSolution", "NormalizedCriterion",
    "NumericalError", "Polygon", "ProjectConfig", "RunReport",
    "ScoreScheme", "SolverRefused", "SpecificationError", "StageError",
    "SuitabilityClass", "SuitabilityRaster", "WeightVector",
    "build_coverage", "build_mask", "candidates_geojson", "classify", "combine",
    "consistency_ratio", "coverage_curve", "extract", "gate", "improve_swap",
    "load_project", "principal_weights",
    "rasterize", "render_report", "run_pipeline", "solve_exact", "solve_greedy",
    "synthesize", "validate_spec", "write_fixture", "__version__",
}


def test_all_pins_the_exported_names():
    assert len(branchsite.__all__) == len(set(branchsite.__all__))
    assert set(branchsite.__all__) == EXPORTED
    assert all(hasattr(branchsite, name) for name in EXPORTED)


def test_star_import_gives_exactly_the_exported_names():
    namespace: dict = {}
    exec("from branchsite import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED


def test_solver_import_loads_only_its_own_modules():
    """A public name resolves on first use, so importing one module does not
    import the others."""
    code = ("import sys, branchsite.mclp; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('branchsite'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["branchsite", "branchsite.errors", "branchsite.fields", "branchsite.geo",
                   "branchsite.mclp"]


def _small_instance(path):
    """A 6 x 5 instance with its coverage matrix given; returns ``path``."""
    pops = [7, 1, 7, 6, 8, 7]
    matrix = [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 1, 0], [1, 0, 0, 0, 0],
              [0, 0, 1, 1, 0], [1, 0, 1, 0, 0]]
    path.write_text(json.dumps({
        "areas": [{"id": f"a{i}", "population": p, "centroid": [0, 0]}
                  for i, p in enumerate(pops)],
        "candidates": [{"id": f"c{j}", "location": [0, 0]} for j in range(5)],
        "matrix": matrix}))
    return path


def test_solve_loads_only_the_solver(demo_config_path, tmp_path):
    """A cold ``solve`` imports the solver's modules and no other; a later
    ``pipeline`` in the same process imports the rest on first use."""
    code = """if True:
        import sys
        from branchsite import cli
        instance, config, solved, run = sys.argv[1:]
        assert cli.main(["--out", solved, "solve", "--instance", instance, "--p-max", "2"]) == 0
        print("loaded", *sorted(m for m in sys.modules if m.startswith("branchsite")))
        assert cli.main(["--config", config, "--out", run, "pipeline"]) == 0
        """
    run = subprocess.run(
        [sys.executable, "-c", code, str(_small_instance(tmp_path / "six.json")),
         str(demo_config_path), str(tmp_path / "solved"), str(tmp_path / "run")],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = next(line for line in run.stdout.splitlines() if line.startswith("loaded "))
    assert loaded.split()[1:] == ["branchsite", "branchsite.cli", "branchsite.errors",
                                  "branchsite.fields", "branchsite.geo", "branchsite.mclp"]
    assert (tmp_path / "run" / "report.json").is_file()


# The names of ``branchsite.cli`` that a tracer rebinds to time the layers,
# by the module that defines them.
TRACED_CLI_NAMES = {"load_project": "project", "run_pipeline": "project",
                    "write_pipeline_artifacts": "project",
                    "instance_from_json": "mclp", "coverage_curve": "mclp"}


@pytest.mark.parametrize("name", sorted(TRACED_CLI_NAMES))
def test_cli_calls_a_rebound_name(name, demo_config_path, tmp_path, monkeypatch):
    """Each name reads as its module's function, and once rebound on the
    ``cli`` module, the command calls the new object."""
    original = getattr(importlib.import_module(f"branchsite.{TRACED_CLI_NAMES[name]}"), name)
    assert getattr(cli, name) is original
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    if TRACED_CLI_NAMES[name] == "project":
        argv = ["--config", str(demo_config_path), "pipeline"]
    else:
        argv = ["solve", "--instance", str(_small_instance(tmp_path / "six.json")),
                "--p-max", "2"]
    assert cli.main(["--out", str(tmp_path / "out"), *argv]) == 0
    assert calls == [name]


def test_cli_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'branchsite.cli' has no attribute 'nope'"):
        cli.nope


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'branchsite' has no attribute 'nope'"):
        branchsite.nope


def test_submodule_imports_by_name():
    from branchsite import project

    assert project.__name__ == "branchsite.project"
    assert branchsite.run_pipeline is project.run_pipeline
