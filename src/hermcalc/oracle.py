"""Independent reference computations used to validate the analytic paths.

Three oracles, each deriving its value by a route disjoint from the code
under test: nested central finite differences, composite Simpson
quadrature of the first-order exp chain integral, and brute-force word
expansion of (x + sum_i s_i v_i)^k.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, check_count, check_int, check_real
from .expderiv import mat_exp
from .linalg import HermitianMatrix, as_array, check_dirs
from .powers import POWER_MAX_K, chain_product, matrix_powers

FD_MAX_N = 3
DEFAULT_FD_STEPS = {1: 1e-4, 2: 1e-3, 3: 5e-3}
WORD_ENUM_BUDGET = 10**6


@dataclass
class FDConfig:
    """Step size for nested central differences; None picks the per-order
    default (1e-4, 1e-3, 5e-3 for orders 1, 2, 3)."""

    step: float | None = None


def fd_derivative(f, x, dirs, config=None):
    """Nested central finite differences of a matrix function handle.

    Evaluates f at the 2^n points x + sum_j s_j h v_j over all sign
    patterns and combines with the product of signs. Exact for functions
    quadratic in the step, O(h^2) otherwise.
    """
    n = check_count("fd_derivative: order", len(dirs), 1, FD_MAX_N)
    x = as_array(x)
    dirs = check_dirs(x, dirs)
    step = None if config is None else config.step
    h = check_real("fd_derivative: step", DEFAULT_FD_STEPS[n] if step is None else step)
    acc = np.zeros_like(x)
    for signs in itertools.product((1.0, -1.0), repeat=n):
        point = x.copy()
        for s, v in zip(signs, dirs):
            point += s * h * v
        acc += float(np.prod(signs)) * f(point)
    return acc / (2.0 * h) ** n


def exp_chain_quadrature(x, v, nodes=201):
    """Composite Simpson estimate of the first exp derivative integral,
    integral from 0 to 1 of exp(t x) v exp((1 - t) x) dt."""
    if check_int("exp_chain_quadrature: nodes", nodes) < 3 or nodes % 2 == 0:
        raise ParseError(f"exp_chain_quadrature: nodes must be odd >= 3, got {nodes}")
    h = x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)
    (v,) = check_dirs(h.array, [v])
    t = np.linspace(0.0, 1.0, nodes)
    step = t[1] - t[0]
    # Own weights, not spectral.simpson_weights: oracles share no code with the engine.
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= step / 3.0
    acc = np.zeros_like(v)
    for wk, tk in zip(w, t):
        acc += wk * (mat_exp(h, tk) @ v @ mat_exp(h, 1.0 - tk))
    return acc


def symbolic_power_expand(k, x, dirs):
    """Coefficient extraction from the brute-force expansion of
    (x + sum_i s_i v_i)^k: the sum of words containing each v_i exactly once.

    Enumerates all (n+1)^k letter words, keeps the valid ones, sorts them
    into the canonical (permutation, composition) order, and evaluates
    with the same cached-power chain products as power_derivative. The
    independent content is the term enumeration; the shared evaluation
    convention is what allows bitwise comparison.
    """
    n = len(dirs)
    k = check_count("symbolic_power_expand: k", k, 0, POWER_MAX_K)
    check_count("symbolic_power_expand: words", (n + 1) ** k, 0, WORD_ENUM_BUDGET)
    x = as_array(x)
    dirs = check_dirs(x, dirs)
    d = x.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    if k < n:
        return out

    terms = []
    for word in itertools.product(range(n + 1), repeat=k):
        seen = [0] * n
        for letter in word:
            if letter > 0:
                seen[letter - 1] += 1
        if any(c != 1 for c in seen):
            continue
        phi = tuple(letter for letter in word if letter > 0)
        alpha = []
        run = 0
        for letter in word:
            if letter == 0:
                run += 1
            else:
                alpha.append(run)
                run = 0
        alpha.append(run)
        terms.append((phi, tuple(alpha)))

    terms.sort()
    pows = matrix_powers(x, k - n)
    for phi, alpha in terms:
        out += chain_product(pows, [dirs[i - 1] for i in phi], alpha)
    return out
