"""hermcalc: derivatives of scalar functions applied to Hermitian matrices.

Modules:
  linalg        validated matrices, LAPACK eigendecomposition, norms, JSON I/O
  functions     scalar functions g and their derivatives of every order
  divided       divided differences, derivative chain tensors, the derivative core
  combinatorics exponent compositions and direction permutations
  powers        derivatives of matrix powers
  expderiv      matrix exponential derivatives (divided-difference and MC)
  spectral      g(x), its dd derivative, Fourier tables and synthesis
  bounds        seminorm upper bounds and the randomized lower-bound probe
  oracle        independent reference computations (FD, quadrature, words)
  rng           counter-based Philox streams
  errors        the exception taxonomy behind the CLI exit codes
  selftest      the built-in invariant suite
  cli           the command line: apply, deriv, bound, probe, volume, selftest
"""

from .bounds import (
    BoundReport,
    SeminormEstimate,
    bound_report,
    power_bound,
    probe_seminorm,
    reports_to_csv,
    seminorm_bound,
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
from .powers import power_derivative
from .spectral import (
    FourierTable,
    apply_function,
    fourier_table,
    function_derivative_dd,
    function_derivative_fourier,
)

__version__ = "1.0.0"
