"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator
keyed by (seed, stream, block). Blocks are fixed-size chunks of the
sample index space, so a computation split across any number of workers
reproduces the single-worker result bit for bit: block k always holds
the same draws no matter who computes it. A seed is an integer in
[0, 2^32): the stream key holds it as one 32-bit word.
"""

import numpy as np

from .errors import ParseError, check_int

# Stream ids. Distinct consumers get distinct streams so that enlarging
# one budget never perturbs another.
STREAM_SIMPLEX = 1
STREAM_VOLUME = 2
STREAM_PROBE_X = 3
STREAM_PROBE_DIRS = 4
STREAM_PROBE_CLIMB = 5
STREAM_TEST = 9

# Samples per block. Part of the reproducibility contract: results of
# chunked routines are a function of (seed, stream, BLOCK) layout.
BLOCK = 4096


def check_seed(seed):
    """seed as an int, or ParseError off the integers in [0, 2^32): a wider
    key would alias, as SeedSequence pads [2^32, 1, 0] to the words of [0, 1, 1]."""
    seed = check_int("seed", seed)
    if not 0 <= seed < 2**32:
        raise ParseError(f"seed must lie in [0, 2^32), got {seed}")
    return seed


def generator(seed, stream, block=0):
    """Philox generator for one (seed, stream, block) cell."""
    ss = np.random.SeedSequence([check_seed(seed), int(stream), int(block)])
    return np.random.Generator(np.random.Philox(ss))


def blocks(total):
    """Yield (block_index, count) pairs covering `total` samples, BLOCK per block."""
    full, rem = divmod(int(total), BLOCK)
    for k in range(full):
        yield k, BLOCK
    if rem:
        yield full, rem


def random_hermitian(d, rng, scale=1.0):
    """Random Hermitian matrix with Gaussian entries, (G + G*) / 2."""
    return scale * random_hermitians(1, d, rng)[0]


def random_hermitians(m, d, rng):
    """m random Hermitian matrices, (m, d, d), from one draw that reads the
    stream as m calls of random_hermitian do: per matrix, the real parts of
    G, then its imaginary parts."""
    g = rng.standard_normal((m, 2, d, d))
    g = g[:, 0] + 1j * g[:, 1]
    return 0.5 * (g + g.conj().swapaxes(1, 2))
