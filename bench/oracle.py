"""Reference values for hermcalc's outputs that share no code with its engines.

derivative() computes D^n g(x)[v_1, ..., v_n] from the block-bidiagonal
identity (Mathias, SIMAX 17, 1996): for the (n+1)d x (n+1)d block upper
bidiagonal matrix B with x in every diagonal block and v_1 .. v_n on the
superdiagonal, the top-right d x d block of g(B) is the ordered chain
term, and the derivative is its sum over the n! orderings of the
directions. g(B) comes from scipy.linalg.expm alone:

    exp       expm(B)
    sin       (expm(iB) - expm(-iB)) / 2i
    gaussian  expm(-B^2 / 2)

scalar_derivative() gives g^(n)(t) in closed form, for the oracle's own
test and for the probe's lower bound.
"""

import itertools
from math import factorial

import numpy as np
from numpy.polynomial import hermite_e
from scipy.linalg import expm

FUNCTIONS = ("exp", "sin", "gaussian")


def block_bidiagonal(x, dirs):
    d = x.shape[0]
    n = len(dirs)
    b = np.zeros(((n + 1) * d, (n + 1) * d), dtype=np.complex128)
    for k in range(n + 1):
        b[k * d : (k + 1) * d, k * d : (k + 1) * d] = x
    for k, v in enumerate(dirs):
        b[k * d : (k + 1) * d, (k + 1) * d : (k + 2) * d] = v
    return b


def matrix_function(g, b):
    """g(B) for a square matrix B, through expm only."""
    if g == "exp":
        return expm(b)
    if g == "sin":
        return (expm(1j * b) - expm(-1j * b)) / 2j
    if g == "gaussian":
        return expm(-0.5 * (b @ b))
    raise ValueError(f"oracle: no matrix function for {g!r}")


def derivative(g, x, dirs):
    """D^n g(x)[dirs] as a d x d complex array."""
    d = x.shape[0]
    n = len(dirs)
    out = np.zeros((d, d), dtype=np.complex128)
    for order in itertools.permutations(range(n)):
        fb = matrix_function(g, block_bidiagonal(x, [dirs[i] for i in order]))
        out += fb[:d, n * d :]
    return out


def scalar_derivative(g, n, t):
    """g^(n)(t) in closed form; g is exp, sin, gaussian or monomial:K."""
    t = np.asarray(t, dtype=float)
    if g == "exp":
        return np.exp(t)
    if g == "sin":
        return np.sin(t + 0.5 * np.pi * n)
    if g == "gaussian":
        # d^n/dt^n exp(-t^2/2) = (-1)^n He_n(t) exp(-t^2/2)
        return (-1) ** n * hermite_e.hermeval(t, [0] * n + [1]) * np.exp(-0.5 * t * t)
    if g.startswith("monomial:"):
        k = int(g.split(":", 1)[1])
        if n > k:
            return np.zeros_like(t)
        return factorial(k) / factorial(k - n) * t ** (k - n)
    raise ValueError(f"oracle: no closed form for {g!r}")
