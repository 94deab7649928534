"""Spectral analysis of variable-continuity B-spline discretizations.

The package builds FEA / IGA / rIGA discretizations of the Laplace
eigenproblem on the unit interval, solves for the full discrete spectrum, and
diagnoses its artefacts: per-mode eigenvalue and eigenfunction error budgets,
stopping bands produced by the bubble subsystems of the blocks,
boundary/separator outliers, and the effect of blended Gauss-Lobatto
quadratures.  The spectrum on the unit square is the tensor product of the
interval's: its eigenvalues are the sums of pairs of 1D eigenvalues.

Each library module's ``__all__`` is re-exported here, and nothing else.
"""

from .splines import BlockLayout, KnotVector, make_block_knots
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
    NumericalError,
    SingularMassError,
    SymmetricBandedMatrix,
    assemble_layout,
)
from .eigensolve import Spectrum, polish_eigenvalue, solve_eigenvalues, solve_gevp
from .analysis import (
    ErrorBudget,
    OutlierReport,
    StoppingBandReport,
    coefficient_flatness,
    convergence_study,
    count_outliers,
    detect_stopping_bands,
    eigenvalue_errors,
    eigenvalue_errors_2d,
    error_budget,
    exact_spectrum,
    find_optimal_tau,
    outlier_report,
    partition_dofs,
)
from .svgplot import heatmap, line_plot

__version__ = "0.1.0"
