"""Site-selection toolkit: pairwise criterion weighting with a consistency
gate, banded suitability classification, weighted raster overlay, candidate
extraction and tiering, and maximal covering location solvers.

Each public name is imported from its module on first use (PEP 562), so
importing one module, ``branchsite.mclp`` say, loads only what it imports.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "candidates": ("ExtractionConfig", "candidates_geojson", "extract"),
    "criteria": ("Band", "CriterionSpec", "NormalizedCriterion", "ScoreScheme",
                 "SuitabilityClass", "classify", "validate_spec"),
    "errors": ("BranchSiteError", "ConfigError", "DomainError", "GateError",
               "InputError", "NumericalError", "SolverRefused", "SpecificationError",
               "StageError"),
    "fixture": ("write_fixture",),
    "geo": ("Polygon",),
    "mclp": ("CoverageCurve", "CoverageStandard", "MclpInstance", "MclpSolution",
             "build_coverage", "coverage_curve", "improve_swap", "solve_exact",
             "solve_greedy"),
    "overlay": ("CombineMode", "GridSpec", "SuitabilityRaster", "build_mask", "combine",
                "rasterize"),
    "project": ("ProjectConfig", "RunReport", "load_project", "render_report",
                "run_pipeline"),
    "weights": ("ComparisonMatrix", "Hierarchy", "HierarchyNode", "WeightVector",
                "consistency_ratio", "gate", "principal_weights", "synthesize"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def __getattr__(name: str):
    """A public name, imported from its module and kept as a package global,
    so later lookups do not come here. Any other name raises AttributeError,
    which lets ``from branchsite import <module>`` import the submodule."""
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(
                importlib.import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
