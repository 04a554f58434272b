"""hermcalc: derivatives of scalar functions applied to Hermitian matrices.

Core surfaces:
  linalg        validated matrices, LAPACK eigendecomposition, norms, JSON I/O
  combinatorics exponent compositions and direction permutations
  powers        derivatives of matrix powers and power series
  expderiv      matrix exponential derivatives (divided-difference and MC)
  spectral      g(x), derivative chain tensors, Fourier synthesis
  bounds        seminorm upper bounds and the randomized lower-bound probe
  oracle        independent reference computations (FD, quadrature, words)
"""

from .bounds import (
    BoundReport,
    SeminormEstimate,
    bound_report,
    power_bound,
    probe_seminorm,
    reports_to_csv,
    sobolev_bound,
)
from .combinatorics import composition_count, enum_compositions, enum_permutations
from .errors import (
    CapExceededError,
    ConvergenceError,
    DomainError,
    GridError,
    HermcalcError,
    NumericError,
    OrderSupportError,
    OverflowRangeError,
    ParseError,
    RadiusError,
)
from .expderiv import (
    MultilinearDerivative,
    VolumeEstimate,
    exp_derivative_dd,
    exp_derivative_mc,
    mat_exp,
    reference_simplex_volume,
    sample_simplex,
    simplex_volume_mc,
)
from .functions import (
    ExpFunction,
    GaussianFunction,
    MonomialFunction,
    PolynomialFunction,
    ScalarFunction,
    TabulatedFunction,
    parse_function,
)
from .linalg import (
    Eigendecomposition,
    HermitianMatrix,
    eig,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    op_norm,
    save_matrix,
)
from .oracle import FDConfig, exp_chain_quadrature, fd_derivative, symbolic_power_expand
from .powers import PowerSeries, power_derivative, series_derivative
from .spectral import (
    FourierTable,
    apply_function,
    fourier_table,
    function_derivative_dd,
    function_derivative_fourier,
)

__version__ = "1.0.0"
