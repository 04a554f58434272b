"""Derivatives of matrix powers.

The n-th derivative of x -> x^k in the direction tuple (v_1, ..., v_n)
expands as a sum over all permutations of the directions and all ways to
split the remaining k - n copies of x around them:

    sum over phi in S_n, alpha in compositions(n, k - n) of
        x^alpha_0 v_phi(1) x^alpha_1 ... v_phi(n) x^alpha_n

The sum is empty (zero matrix) for k < n. Terms are evaluated with cached
powers of x and accumulated in a fixed canonical order (permutations lex,
compositions lex), so results are reproducible bit for bit.
"""

import numpy as np

from .combinatorics import enum_compositions, enum_permutations
from .errors import ParseError, check_count
from .linalg import as_array, check_dirs

POWER_MAX_N = 5
POWER_MAX_K = 12


def matrix_powers(x, kmax):
    """List [I, x, x^2, ..., x^kmax], each built as previous @ x."""
    d = x.shape[0]
    pows = [np.eye(d, dtype=np.complex128)]
    if kmax >= 1:
        pows.append(np.array(x, dtype=np.complex128))
    for _ in range(2, kmax + 1):
        pows.append(pows[-1] @ x)
    return pows


def chain_product(pows, dirs_seq, alpha):
    """Evaluate x^alpha_0 v_1 x^alpha_1 ... v_n x^alpha_n left to right.

    Identity factors (alpha_j = 0) are skipped. Both power_derivative and
    the word-expansion oracle route through here, which is what makes
    their term values identical down to the last bit.
    """
    m = pows[alpha[0]] if alpha[0] > 0 else None
    for v, a in zip(dirs_seq, alpha[1:]):
        m = v if m is None else m @ v
        if a > 0:
            m = m @ pows[a]
    if m is None:
        m = pows[0]
    return m


def _power_derivative_impl(k, n, x, dirs):
    d = x.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    if k < n:
        return out
    pows = matrix_powers(x, k - n if n > 0 else k)
    comps = enum_compositions(n, k - n)
    for phi in enum_permutations(n):
        dirs_seq = [dirs[i - 1] for i in phi]
        for alpha in comps:
            out += chain_product(pows, dirs_seq, alpha)
    return out


def power_derivative(k, n, x, dirs):
    """n-th derivative of x -> x^k at x, applied to the direction tuple.

    Works in any matrix algebra: x and the directions are arbitrary
    square complex matrices of the same size. Returns the zero matrix
    when k < n.
    """
    n = check_count("power_derivative: order", n, 0, POWER_MAX_N)
    k = check_count("power_derivative: power", k, 0, POWER_MAX_K)
    if len(dirs) != n:
        raise ParseError(f"power_derivative: expected {n} directions, got {len(dirs)}")
    xa = as_array(x)
    return _power_derivative_impl(k, n, xa, check_dirs(xa, dirs))
