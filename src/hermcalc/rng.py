"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator
keyed by (seed, stream, block). Blocks are fixed-size chunks of the
sample index space, so a computation split across any number of workers
reproduces the single-worker result bit for bit: block k always holds
the same draws no matter who computes it.
"""

import numpy as np

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


def generator(seed, stream, block=0):
    """Philox generator for one (seed, stream, block) cell."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, int(stream), int(block)])
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
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (g + g.conj().T)
