"""Spectral analysis of variable-continuity B-spline discretizations.

The package builds FEA / IGA / rIGA discretizations of the Laplace
eigenproblem on the unit interval (and square, by tensor product), solves for
the full discrete spectrum, and diagnoses its artefacts: per-mode eigenvalue
and eigenfunction error budgets, stopping bands produced by the bubble
subsystems of the blocks, boundary/separator outliers, and the effect of
blended Gauss-Lobatto quadratures.
"""

from .splines import (
    BlockLayout,
    KnotVector,
    continuity_at,
    greville_abscissae,
    make_block_knots,
    make_open_uniform_knots,
)
from .quadrature import (
    QuadratureSpec,
    Rule,
    blended_rule,
    gauss_rule,
    lobatto_rule,
    map_rule_to_element,
)
from .assembly import (
    DiscreteOperator,
    DiscreteOperator2D,
    NumericalError,
    SingularMassError,
    SymmetricBandedMatrix,
    assemble_2d_tensor,
    assemble_layout,
    dump_matrix,
)
from .eigensolve import (
    OracleDivergenceError,
    Spectrum,
    oracle_check,
    polish_eigenvalue,
    solve_eigenvalues,
    solve_gevp,
)
from .analysis import (
    AmFit,
    BandMatch,
    BlockBubbleModes,
    DofPartition,
    ExactMode,
    FrequencyContent,
    ModeErrorBudget,
    OutlierReport,
    SingularInterfaceError,
    StoppingBandReport,
    am_fit,
    branch_count,
    coefficient_flatness,
    convergence_study,
    count_outliers,
    detect_stopping_bands,
    eigenvalue_errors,
    error_budget,
    exact_eigenvalues_2d,
    exact_spectrum_1d,
    find_optimal_tau,
    frequency_content,
    l2_pair_inner,
    local_bubble_spectra,
    outlier_report,
    partition_dofs,
    reconstruct_stopping_mode,
)

__version__ = "0.1.0"
