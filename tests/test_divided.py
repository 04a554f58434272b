"""The derivative core on a stack of points against one point at a time.

derivative_matrix and chain_tensor take a leading batch axis; a single
point is the B = 1 case. chain_dd evaluates every row by itself, so a
stack must give what B separate calls give, to the bit.
"""

import numpy as np
import pytest

from hermcalc import rng
from hermcalc.divided import chain_tensor, derivative_matrix
from hermcalc.functions import ExpFunction, GaussianFunction
from hermcalc.spectral import TrigonometricSum, fourier_table


def _points(d, n, count, seed):
    gen = np.random.default_rng(seed)
    xs, dirs = [], []
    for _ in range(count):
        x = rng.random_hermitian(d, gen)
        xs.append(x * (float(gen.uniform(0.3, 1.8)) / np.linalg.norm(x, 2)))
        dirs.append([rng.random_hermitian(d, gen) for _ in range(n)])
    xs = np.array(xs)
    return xs, np.array(dirs, dtype=complex).reshape(count, n, d, d)


FUNCTIONS = {
    "exp": ExpFunction(),
    "gaussian": GaussianFunction(),
    "trigsum": TrigonometricSum(fourier_table(GaussianFunction(), 2.0, n_max=3)),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("b", [1, 3])
def test_stack_equals_points_bit_for_bit(name, n, b):
    g, d = FUNCTIONS[name], 5
    xs, dirs = _points(d, n, b, seed=100 * n + b)
    lam, vectors = np.linalg.eigh(xs)
    # a repeated point: the stack shares node values across rows
    lam[-1], vectors[-1] = lam[0], vectors[0]
    stacked = derivative_matrix(lam, vectors, dirs, g)
    assert stacked.shape == (b, d, d)
    for i in range(b):
        one = derivative_matrix(lam[i : i + 1], vectors[i : i + 1], dirs[i : i + 1], g)
        # bit-identical, the trigonometric sum included
        np.testing.assert_array_equal(stacked[i], one[0])


def test_chain_tensor_stack_is_symmetric_per_row():
    lam = np.sort(np.random.default_rng(3).uniform(-1, 1, (2, 4)), axis=1)
    tensor = chain_tensor(lam, 2, GaussianFunction())
    assert tensor.shape == (2, 4, 4, 4)
    np.testing.assert_array_equal(tensor, tensor.transpose(0, 3, 1, 2))
    np.testing.assert_array_equal(tensor, tensor.transpose(0, 2, 1, 3))
