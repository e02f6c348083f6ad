"""Site-selection toolkit: pairwise criterion weighting with a consistency
gate, banded suitability classification, weighted raster overlay, candidate
extraction and tiering, and maximal covering location solvers."""

from .candidates import (
    CandidateSite,
    ExtractionConfig,
    assign_tiers,
    candidates_geojson,
    extract,
    merge,
)
from .criteria import (
    Band,
    CriterionSpec,
    NormalizedCriterion,
    ScoreScheme,
    SuitabilityClass,
    classify,
    validate_spec,
)
from .errors import (
    BranchSiteError,
    ConfigError,
    DomainError,
    GateError,
    InputError,
    NumericalError,
    SolverRefused,
    SpecificationError,
    StageError,
)
from .geo import (
    Point,
    Polygon,
    planar_distance,
    point_in_polygon,
)
from .mclp import (
    CoverageCurve,
    CoverageStandard,
    MclpInstance,
    MclpSolution,
    build_coverage,
    coverage_curve,
    improve_swap,
    solve_exact,
    solve_greedy,
)
from .overlay import (
    CombineMode,
    GridSpec,
    ScoreRaster,
    SuitabilityRaster,
    build_mask,
    combine,
    rasterize,
)
from .project import (
    DemandArea,
    ProjectConfig,
    RunReport,
    load_project,
    render_report,
    run_pipeline,
)
from .weights import (
    ComparisonMatrix,
    Hierarchy,
    HierarchyNode,
    WeightVector,
    consistency_ratio,
    gate,
    principal_weights,
    synthesize,
)
from .fixture import write_fixture

__version__ = "0.1.0"
