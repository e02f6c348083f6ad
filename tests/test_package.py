"""The names the ``branchsite`` package exports."""

import subprocess
import sys

import pytest

import branchsite

EXPORTED = {
    "Band", "BranchSiteError", "CombineMode", "ComparisonMatrix",
    "ConfigError", "CoverageCurve", "CoverageStandard", "CriterionSpec", "DomainError",
    "ExtractionConfig", "GateError", "GridSpec", "Hierarchy",
    "HierarchyNode", "InputError", "MclpInstance", "MclpSolution", "NormalizedCriterion",
    "NumericalError", "Point", "Polygon", "ProjectConfig", "RunReport",
    "ScoreScheme", "SolverRefused", "SpecificationError", "StageError",
    "SuitabilityClass", "SuitabilityRaster", "WeightVector",
    "build_coverage", "build_mask", "candidates_geojson", "classify", "combine",
    "consistency_ratio", "coverage_curve", "extract", "gate", "improve_swap",
    "load_project", "planar_distance", "point_in_polygon", "principal_weights",
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


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'branchsite' has no attribute 'nope'"):
        branchsite.nope


def test_submodule_imports_by_name():
    from branchsite import project

    assert project.__name__ == "branchsite.project"
    assert branchsite.run_pipeline is project.run_pipeline
