"""The derivative core on a stack of points, and the tuple table behind it.

derivative_matrix and chain_tensor take a leading batch axis; a single
point is the B = 1 case. chain_tensor's Newton table holds each ascending
index tuple of a row once and every entry follows from the tuple's own
nodes, so a stack must give what B separate calls give, and every tensor
entry what the table gives over that chain's own nodes, to the bit.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from hermcalc import divided, rng
from hermcalc.divided import chain_tensor, derivative_matrix
from hermcalc.functions import ExpFunction, GaussianFunction, MonomialFunction, SinFunction
from hermcalc.spectral import fourier_table, function_derivative_dd


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
    lam = np.sort(np.random.default_rng(4).uniform(-1, 1, (2, 5)), axis=1)
    tensor = chain_tensor(lam, 4, GaussianFunction())
    assert tensor.shape == (2,) + (5,) * 5
    for perm in itertools.permutations(range(1, 6)):
        np.testing.assert_array_equal(tensor, tensor.transpose(0, *perm))


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


@pytest.mark.parametrize("d", [1, 2, 5, 16, 32])
def test_longer_tuples_are_itertools_ascending_tuples(d):
    tuples = np.arange(d)[:, None]
    for j in range(1, 5):
        tuples = divided._longer(tuples, d)
        want = np.array(list(itertools.combinations_with_replacement(range(d), j + 1)), dtype=np.intp)
        assert tuples.dtype == want.dtype and tuples.shape == want.shape
        assert np.array_equal(tuples, want), j


def _scattered_tensor(nodes, n, g):
    """The tensor built whole, as before the gathers: the table's top level
    written to all (n+1)! axis orders of a (B,) + (d,)^(n+1) array."""
    b, d = nodes.shape
    vals = divided._newton_table(g, nodes, n)[2]
    cols = np.array(list(itertools.combinations_with_replacement(range(d), n + 1))).T
    tensor = np.empty((b,) + (d,) * (n + 1), dtype=np.complex128)
    for perm in itertools.permutations(range(n + 1)):
        tensor[(np.arange(b)[:, None], *(cols[k] for k in perm))] = vals
    return tensor


def _whole_contraction(lam, vectors, dirs, g):
    """derivative_matrix as one batched matmul and one closing sum over the
    whole scattered tensor."""
    b, n, d = dirs.shape[0], dirs.shape[1], lam.shape[1]
    w = divided.to_eigenbasis(vectors, dirs)
    tensor = _scattered_tensor(lam, n, g)
    if n == 0:
        core = np.zeros((b, d, d), dtype=np.complex128)
        core[:, np.arange(d), np.arange(d)] = tensor
    elif n == 1:
        core = w[:, 0] * tensor
    else:
        # per closing direction k, the paths over the orderings of the others,
        # laid out [z, a, c, k, m]; the tensor read as [z, a, c, m, b]
        paths = np.empty((b, d, d, n, d ** (n - 2)), dtype=np.complex128)
        for k in range(n):
            others = [j for j in range(n) if j != k]
            if n < 4:
                chains = (
                    functools.reduce(lambda p, v: (p[..., None] * v[:, None]).reshape(b, -1, d), order)
                    for order in itertools.permutations(w[:, j] for j in others)
                )
                paths[:, :, :, k] = sum(chains).reshape(b, d, -1, d).swapaxes(2, 3)
                continue
            # n = 4, grouped as the core groups it: V_f[a, i1] times the other
            # two directions p < q summed over their two orderings from i1 to
            # c, starting from 0 as sum() does
            terms = []
            for f in others:
                p, q = (w[:, j] for j in others if j != f)
                pair = 0 + p[:, :, :, None] * q[:, None] + q[:, :, :, None] * p[:, None]
                terms.append(w[:, f, :, :, None, None] * pair[:, None])
            paths[:, :, :, k] = functools.reduce(np.add, terms).transpose(0, 1, 4, 2, 3).reshape(b, d, d, -1)
        x = (paths @ tensor.reshape(b, d, d, -1, d)).reshape(b, d, d * n, d)
        core = (x * w.transpose(0, 2, 1, 3).reshape(b, 1, d * n, d)).sum(axis=2)
    return vectors @ core @ vectors.conj().swapaxes(-1, -2)


def _rows_and_points(d, n, b, seed):
    """b ascending rows (spread, 1e-7 pairs, and integer ties two apart)
    with eigenvectors and directions of b random points."""
    rows = _random_and_clustered_rows(d, seed)
    rows = np.concatenate([rows, 2.0 * np.round(rows[:1])])[:b]
    xs, dirs = _points(d, n, b, seed)
    return rows, np.linalg.eigh(xs)[1], dirs


@pytest.mark.parametrize("name", sorted(TUPLE_CASES))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 5, 8, 16])
def test_gathered_blocks_equal_the_scattered_tensor(name, n, d):
    # (16, 3) at B = 3 takes blocks of 5, 5, 5 and 1 leading indices, (16, 4) one at a time
    g, z = TUPLE_CASES[name]
    for b in (1, 3):
        rows, vectors, dirs = _rows_and_points(d, n, b, seed=7 * d + n)
        lam = z * rows
        want = _scattered_tensor(lam, n, g)
        assert chain_tensor(lam, n, g).tobytes() == want.tobytes()
        got = derivative_matrix(lam, vectors, dirs, g)
        assert got.tobytes() == _whole_contraction(lam, vectors, dirs, g).tobytes(), b


@pytest.mark.parametrize("name", sorted(TUPLE_CASES))
def test_slab_budget_only_regroups_the_work(name, monkeypatch):
    g, z = TUPLE_CASES[name]
    taylor, chunks = divided._taylor, []

    def spy(g, nodes, *args):
        chunks.append(len(nodes))
        return taylor(g, nodes, *args)

    for d, n in ((8, 4), (16, 3)):
        rows, vectors, dirs = _rows_and_points(d, n, 2, seed=d + n)
        lam = z * rows
        whole = derivative_matrix(lam, vectors, dirs, g), chain_tensor(lam, n, g)
        # blocks of 3 leading indices, the last partial; then one index at a
        # time with the Taylor entries of each level in chunks of 16
        for budget in (3 * 2 * d**n, 16):
            chunks.clear()
            with monkeypatch.context() as m:
                m.setattr(divided, "SLAB_ENTRIES", budget)
                m.setattr(divided, "_taylor", spy)
                split = derivative_matrix(lam, vectors, dirs, g), chain_tensor(lam, n, g)
            assert split[0].tobytes() == whole[0].tobytes(), (d, n, budget)
            assert split[1].tobytes() == whole[1].tobytes(), (d, n, budget)
            assert max(chunks) <= budget
        # the Taylor entries of some level took more than one chunk
        assert max(chunks) == 16


def _gaussian_peak_at_16_4():
    """Traced peak of one gaussian derivative at d = 16, n = 4."""
    gen = np.random.default_rng(61)
    x = rng.random_hermitian(16, gen)
    dirs = [rng.random_hermitian(16, gen) for _ in range(4)]
    tracemalloc.start()
    try:
        function_derivative_dd(GaussianFunction(), x, dirs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_derivative_memory_stays_below_the_whole_tensor():
    # the (16,)^5 complex tensor alone is 16 MB; the gathered blocks are 1 MB each
    assert _gaussian_peak_at_16_4() < 16 * 2**20


def test_derivative_memory_holds_paths_one_block_at_a_time():
    # held whole, the paths of every leading index (n d^n complex entries,
    # 4 MiB here) lift the peak to 7.8 MiB; one block of them at a time and
    # the pair sums (6 d^3 entries) stay near 4.4 MiB
    assert _gaussian_peak_at_16_4() < 6 * 2**20


def test_taylor_chunks_are_sized_by_terms():
    # at norm 1/2 every span is at most 1, so all 15504 top-level entries of
    # monomial:170 at d = 16, n = 4 take the Taylor series with 167 terms:
    # one chunk of them peaked at 64 MiB, chunks of 2^20 / 167 entries at 29
    gen = np.random.default_rng(62)
    x = rng.random_hermitian(16, gen)
    x *= 0.5 / np.linalg.norm(x, 2)
    dirs = [rng.random_hermitian(16, gen) for _ in range(4)]
    tracemalloc.start()
    try:
        function_derivative_dd(MonomialFunction(170), x, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
