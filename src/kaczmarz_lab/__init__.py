"""Row-action (Kaczmarz/ART) solvers with spectral and statistical analysis.

The package bundles three things:

* generators for classic discrete inverse problems (``problems``),
* the row-action sweep solvers and a CGLS reference (``solvers``),
* analysis of the sweep iteration operator: its triangular factor and
  restricted matrix (``operator``), spectrum reports, zero-eigenvalue
  structure and spectral-radius bounds (``spectral``), and the statistics
  of propagated data noise (``noise_stats``).

The ``kaczmarz-lab`` command line reproduces the standard experiments as
CSV files and SVG plots; see the README for examples.
"""

from .errors import ConfigError, KaczmarzLabError, NumericalError
from .linalg import (
    EigResult,
    LeastNormResult,
    SvdResult,
    eig_general,
    eigvals,
    least_norm_solution,
    solve_lower,
    solve_upper,
    svd,
)
from .noise_stats import (
    ErrorSplit,
    ExpectationReport,
    MonotonicityReport,
    XiProfile,
    error_split,
    expected_norms,
    monotonicity_probe,
    semiconvergence_min,
    xi_profile,
)
from .operator import (
    LFactor,
    RestrictedOperator,
    SharpMaps,
    SweepOperator,
    apply_Ak_sharp,
    apply_G,
    apply_Gs,
    apply_Gt,
    build_L,
    convergence_conditions,
    fixed_point,
    restrict_symmetric_to_V,
    restrict_to_V,
    sharp_maps,
)
from .problems import (
    NoiseModel,
    RowOrdering,
    TestProblem,
    add_noise,
    apply_ordering,
    baart,
    gravity,
    load_problem,
    paralleltomo,
    random_ordering,
    save_problem,
    shepp_logan_like,
)
from .solvers import (
    IterationHistory,
    SweepConfig,
    cgls,
    row_norms_squared,
    run,
    sweep_randomized,
    sweep_standard,
    sweep_symmetric,
)
from .spectral import (
    BoundsReport,
    OmegaScan,
    SpectrumReport,
    StructureReport,
    SymmetricRelations,
    backward_error_bound,
    bauer_fike_bound,
    norm_threshold_alpha,
    rho_bounds,
    small_omega_scan,
    spectrum,
    structural_orthogonality,
    symmetric_relations,
    zero_eigenvalue_condition,
)

__version__ = "0.1.0"
