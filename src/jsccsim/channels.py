"""Discrete memoryless channel models.

A Dmc caches its capacity, capacity-achieving input/output distributions and
the maximum log-likelihood jump a0; all are computed once at construction and
the object is immutable afterwards, so it can be shared across trial workers.
"""

from __future__ import annotations

import numpy as np

from .rng import draw_cum

_ROW_TOL = 1e-12

BA_GAP_TOL = 1e-10
BA_MAX_ITER = 100_000


def ba_capacity(W: np.ndarray):
    """Blahut-Arimoto channel capacity.

    Returns (C nats, caid, caod, duality_gap).  Stops when the duality gap
    max_x D(W(.|x) || q) - I(r; W) drops below BA_GAP_TOL, so the returned C
    is within BA_GAP_TOL of the true capacity.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or np.any(W < 0) or np.any(np.abs(W.sum(axis=1) - 1) > _ROW_TOL * W.shape[1]):
        raise ValueError("transition matrix must be row-stochastic")
    na = W.shape[0]
    r = np.full(na, 1.0 / na)
    logW = np.where(W > 0, np.log(np.where(W > 0, W, 1.0)), 0.0)
    gap = np.inf
    for _ in range(BA_MAX_ITER):
        q = r @ W
        # D_x = sum_y W(y|x) log(W(y|x)/q(y)); q(y)=0 only where W(.|y) column
        # is unreachable, and those terms have W=0.
        with np.errstate(divide="ignore"):
            logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), 0.0)
        D = np.einsum("xy,xy->x", W, logW - logq[None, :])
        I = float(r @ D)
        gap = float(D.max() - I)
        if gap <= BA_GAP_TOL:
            break
        r = r * np.exp(D - D.max())
        r /= r.sum()
    q = r @ W
    C = max(float(r @ D), 0.0)
    return C, r, q, gap


def max_log_ratio_a0(W: np.ndarray) -> float:
    """Max over positive entries of log(W(y1|x1)/W(y2|x2)), in nats."""
    W = np.asarray(W, dtype=np.float64)
    pos = W[W > 0]
    return float(np.log(pos.max()) - np.log(pos.min()))


class Dmc:
    """Finite discrete memoryless channel with cached capacity quantities."""

    def __init__(self, W):
        W = np.asarray(W, dtype=np.float64)
        C, caid, caod, gap = ba_capacity(W)
        self.W = W
        self.C = C
        self.caid = caid
        self.caod = caod
        self.ba_gap = gap
        self.a0 = max_log_ratio_a0(W)
        self.caid_cum = np.cumsum(caid)
        # log W(y|x) - log P_Y*(y), -inf on zero transitions
        with np.errstate(divide="ignore", invalid="ignore"):
            self.log_density = np.log(W) - np.log(caod)[None, :]
        # the largest single-use information density
        self.density_max = float(self.log_density[np.isfinite(self.log_density)].max())
        # the inverse-CDF compare values of each row (see rng.draw_cum)
        self.W_cum = draw_cum(np.cumsum(W, axis=1))

    def __repr__(self):
        return f"Dmc({self.W.shape[0]}x{self.W.shape[1]}, C={self.C:.6f} nats)"


def bsc(delta: float) -> Dmc:
    return Dmc([[1 - delta, delta], [delta, 1 - delta]])


def bec(delta: float) -> Dmc:
    return Dmc([[1 - delta, delta, 0.0], [0.0, delta, 1 - delta]])


def dmc_steps(dmc: Dmc, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized outputs for inputs x and per-use uniforms u."""
    return (dmc.W_cum[x] <= u[..., None]).sum(axis=-1)
