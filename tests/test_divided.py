"""The derivative core on a stack of points, and the tuple table behind it.

derivative_matrix and chain_tensor take a leading batch axis; a single
point is the B = 1 case. chain_tensor's Newton table holds each ascending
index tuple of a row once and every entry follows from the tuple's own
nodes, so a stack must give what B separate calls give, and every tensor
entry what the table gives over that chain's own nodes, to the bit.
"""

import itertools

import numpy as np
import pytest

from hermcalc import rng
from hermcalc.divided import chain_tensor, derivative_matrix
from hermcalc.functions import ExpFunction, GaussianFunction, MonomialFunction, SinFunction
from hermcalc.spectral import fourier_table


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
    "trigsum": fourier_table(GaussianFunction(), 2.0, n_max=3),
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


def _random_and_clustered_rows(d, seed):
    """A (2, d) stack of ascending rows: spread out, and in pairs 1e-7 apart."""
    gen = np.random.default_rng(seed)
    spread = np.sort(gen.uniform(-1.8, 1.8, d))
    centres = np.sort(gen.uniform(-1.0, 1.0, (d + 1) // 2))
    clustered = np.sort(np.concatenate([centres, centres[: d // 2] + 1e-7]))
    return np.stack([spread, clustered])


# name -> (g, z): the nodes are z times the rows, as on the exp(z x) route
TUPLE_CASES = {
    "exp(z t)": (ExpFunction(), 0.7 - 0.4j),
    "gaussian": (GaussianFunction(), 1.0),
    "sin": (SinFunction(), 1.0),
    "trigsum": (FUNCTIONS["trigsum"], 1.0),
    "monomial:5": (MonomialFunction(5), 1.0),
}


def chain_dd(g, chains):
    """g[t_0, ..., t_m] for every row of chains (C, m+1): the top entry of
    the table over each chain's own nodes as one row of a stack."""
    m = chains.shape[1] - 1
    return chain_tensor(chains, m, g)[(slice(None),) + tuple(range(m + 1))]


@pytest.mark.parametrize("name", sorted(TUPLE_CASES))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_tensor_entry_equals_chain_dd_on_its_chain(name, n, d):
    g, z = TUPLE_CASES[name]
    nodes = z * _random_and_clustered_rows(d, seed=10 * d + n)
    tensor = chain_tensor(nodes, n, g)
    chains = np.array(list(itertools.combinations_with_replacement(range(d), n + 1)))
    for b in range(2):
        want = chain_dd(g, nodes[b, chains])
        np.testing.assert_array_equal(tensor[b][tuple(chains.T)], want)
