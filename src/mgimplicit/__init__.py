"""Implicit equations of hypersurfaces parametrized over products of
projective spaces, via graded strands of the complex of Koszul cycles."""

from .complexes import (
    InRegionWarning,
    LinearFormMatrix,
    ProblemInstance,
    StrandAssemblyError,
    StrandComplex,
    homology_dim,
    koszul_differential_strand,
    representation_matrix,
)
from .implicitize import (
    ImplicitResult,
    PipelineError,
    RankDropReport,
    expected_degree_p1p1,
    generic_rank,
    rank_drop_check,
    run_pipeline,
    strand_determinant,
    verify_implicit,
)
from .linalg import QMatrix, nullspace_basis, rank
from .multipoly import (
    MultiPoly,
    NotMultihomogeneousError,
    PolyParseError,
    PolyRing,
    Rational,
    RingMismatchError,
    eval_at,
    exact_div,
    monomial_str,
    multidegree_of,
    normalize_poly,
    parameter_ring,
    parse_poly,
    target_ring,
)
from .problem import ProblemFile, ProblemValidationError, hypersurface_check, load_problem
from .regions import (
    BlockStructure,
    OrthantRegion,
    RegionUnion,
    ascii_region_plot,
    complement_corners,
    describe_region,
    q_alpha,
    region_RB,
    region_RB_via_sigma,
    sigma_B,
    strand_basis,
    strand_dim,
    suggest_nu,
    supp_local_cohomology,
    svg_region_plot,
)

__version__ = "0.1.0"
