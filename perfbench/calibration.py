"""Machine-speed calibration for the benchmark's timings.

The host's speed drifts by up to 2x over seconds to minutes, and process CPU
time drifts with wall time.  Two fixed kernels, which call nothing in
jsccsim, measure that drift next to each timed operation:

- ``interp_s``: Python-level numpy calls on a tiny array, the per-call
  overhead that dominates small-M trials;
- ``block_s``: one 8192x64 block of hashed binary symbols, density gather,
  cumsum and threshold scan, the large-array work of the large-M and AWGN
  workloads.

``speed_factor`` is their slowdown against the reference times below,
weighted by the share of large-array work.
"""

import functools
import statistics
import time

import numpy as np

INTERP_S = 0.002  # kernel times on the reference machine
BLOCK_S = 0.011
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


@functools.lru_cache(maxsize=1)
def _arrays():
    return (np.arange(16.0),
            np.arange(1 << 13, dtype=np.uint64).reshape(-1, 1),
            np.arange(64, dtype=np.uint64).reshape(1, -1),
            np.log([[0.89, 0.11], [0.11, 0.89]]))


def interp_s() -> float:
    small = _arrays()[0]
    t0 = time.perf_counter()
    acc = 0
    for i in range(1200):
        acc += int(np.searchsorted(small, i % 16)) + i * i
    return time.perf_counter() - t0


def block_s() -> float:
    _, rows, cols, table = _arrays()
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):
        z = rows * _GOLDEN + cols * np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(31)
        z *= _GOLDEN
        z ^= z >> np.uint64(29)
    x = (z >> np.uint64(63)).astype(np.int64)
    S = np.cumsum(table[x, x[:1]], axis=1)
    bool((S >= 30.0).any(axis=1).any())
    return time.perf_counter() - t0


def speed_factor(vector_share: float, samples: int = 1) -> float:
    """How much slower than the reference machine this one runs now, for work
    that is ``vector_share`` large-array numpy and the rest Python-level calls."""
    interp = statistics.median(interp_s() for _ in range(samples)) / INTERP_S
    block = statistics.median(block_s() for _ in range(samples)) / BLOCK_S
    return (1 - vector_share) * interp + vector_share * block
