"""Foundational probability and information quantities.

All information values are in nats internally; conversion to bits happens
only at the CLI/reporting boundary.  Zero-probability events produce explicit
infinities (float inf), never sentinel numbers.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

LN2 = float(np.log(2.0))

_PMF_TOL = 1e-12


def validate_pmf(p) -> np.ndarray:
    """Check non-negativity and normalization; return as float array."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("pmf must be a non-empty 1-d vector")
    if np.any(p < 0):
        raise ValueError("pmf entries must be non-negative")
    s = p.sum()
    if abs(s - 1.0) > _PMF_TOL * max(1, p.size):
        raise ValueError(f"pmf sums to {s!r}, not 1")
    return p


def entropy(p) -> float:
    """Shannon entropy in nats; terms with p=0 contribute 0, a point mass +0.0."""
    p = validate_pmf(p)
    nz = p[p > 0]
    return float(-np.dot(nz, np.log(nz)) + 0.0)


def lattice_convolution(dist: dict, steps, times: int, cap: float = np.inf) -> dict:
    """``times``-fold convolution of ``dist`` (value -> probability) with the
    (value, probability) pairs ``steps``.

    Sums are rounded to 12 decimals, so values on one lattice share a key.
    Before each step, values above ``cap`` are dropped.
    """
    for _ in range(times):
        new = {}
        for tot, p in dist.items():
            if tot > cap:
                continue
            for v, pv in steps:
                t2 = round(tot + v, 12)
                new[t2] = new.get(t2, 0.0) + p * pv
        dist = new
    return dist


def normal_tail(x) -> float:
    """Q(x): standard normal complementary CDF."""
    return ndtr(-np.asarray(x, dtype=np.float64)) + 0.0


def normal_tail_inv(p) -> float:
    """Q^{-1}(p) for p in (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0) or np.any(p >= 1):
        raise ValueError("normal_tail_inv requires 0 < p < 1")
    return -ndtri(p) + 0.0

