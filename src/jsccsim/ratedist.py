"""Rate-distortion quantities: R(d), slope, tilted information, dispersion,
the two-term source expansion, and exact (d,eps)-entropy at toy blocklengths.

Sources are single-letter models used k-fold with separable (per-letter
averaged) distortion.  Discrete sources are solved by Blahut-Arimoto on a
Lagrangian with bisection on the distortion constraint; the Gaussian/MSE
source uses closed forms throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .info import normal_tail_inv, validate_pmf

GAUSSIAN_DISPERSION_NATS2 = 0.5  # Var[(S^2/sigma^2 - 1)/2]


@dataclass(frozen=True)
class SourceModel:
    """Single-letter source: discrete pmf + distortion matrix, or Gaussian/MSE."""

    kind: str  # "discrete" | "gaussian"
    pmf: np.ndarray | None = None
    distortion: np.ndarray | None = None  # d(s, z) >= 0, +inf allowed
    variance: float = 1.0

    def __post_init__(self):
        if self.kind == "discrete":
            p = validate_pmf(self.pmf)
            dm = np.asarray(self.distortion, dtype=np.float64)
            if dm.ndim != 2 or dm.shape[0] != p.size:
                raise ValueError("distortion matrix shape must be |S| x |Z|")
            if np.any(dm < 0) or np.any(np.isnan(dm)):
                raise ValueError("distortion entries must be >= 0 (finite or +inf)")
            object.__setattr__(self, "pmf", p)
            object.__setattr__(self, "distortion", dm)
        elif self.kind == "gaussian":
            if self.variance <= 0:
                raise ValueError("gaussian source needs variance > 0")
        else:
            raise ValueError(f"unknown source kind {self.kind!r}")

    @property
    def unbounded_distortion(self) -> bool:
        return self.kind == "gaussian" or bool(np.any(np.isinf(self.distortion)))


def discrete_source(pmf, distortion) -> SourceModel:
    return SourceModel("discrete", pmf=pmf, distortion=distortion)


def bernoulli_hamming(p: float) -> SourceModel:
    return discrete_source([1 - p, p], [[0.0, 1.0], [1.0, 0.0]])


def gaussian_source(variance: float = 1.0) -> SourceModel:
    return SourceModel("gaussian", variance=variance)


@dataclass
class RdSolution:
    source: SourceModel
    d: float
    rate: float          # nats/sample
    slope: float         # lambda* = -R'(d) >= 0
    output_pmf: np.ndarray | None = None   # discrete: P_Z*
    output_variance: float | None = None   # gaussian: sigma^2 - d
    dispersion: float = 0.0                # nats^2
    distortion_gap: float = 0.0            # |E[d] - d| reached by the solver


def d_min_max(src: SourceModel) -> tuple[float, float]:
    """(d_min, d_max): d_max = min_z E[d(S,z)], d_min = E[min_z d(S,z)]."""
    if src.kind == "gaussian":
        return 0.0, src.variance
    # E[d(S,z)] is +inf if any supported row has an inf entry in column z
    col_exp = np.array([
        np.inf if np.any(np.isinf(src.distortion[src.pmf > 0, z]))
        else float(src.pmf @ np.nan_to_num(src.distortion[:, z], posinf=0))
        for z in range(src.distortion.shape[1])
    ])
    dmax = float(col_exp.min())
    dmin = float(src.pmf @ src.distortion.min(axis=1))
    return dmin, dmax


def _ba_inner(p, dm, lam, n_iter=2000):
    """Blahut-Arimoto fixed point at fixed slope lam.

    Returns (rate nats, mean distortion, output marginal q)."""
    ns, nz = dm.shape
    A = np.exp(-lam * np.where(np.isinf(dm), np.inf, dm))  # exp(-lam*inf) = 0
    q = np.full(nz, 1.0 / nz)
    for _ in range(n_iter):
        denom = A @ q  # per-source normalizer
        if np.any(denom <= 0):
            raise FloatingPointError("no reproduction point reachable at this slope")
        qn = q * ((p / denom) @ A)
        qn /= qn.sum()
        if np.max(np.abs(qn - q)) < 1e-14:
            q = qn
            break
        q = qn
    denom = A @ q
    cond = (A * q[None, :]) / denom[:, None]  # P_{Z|S}
    dist = float(p @ np.einsum("sz,sz->s", cond, np.nan_to_num(dm, posinf=0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cond > 0, cond / q[None, :], 1.0)
    rate = float(p @ np.einsum("sz,sz->s", cond, np.log(ratio)))
    return max(rate, 0.0), dist, q


def ba_rate_distortion(src: SourceModel, d: float) -> RdSolution:
    """Solve for the rate-distortion point at distortion d.

    Discrete sources: bisection on the slope so the BA fixed point meets the
    distortion constraint to within 1e-9; Gaussian: closed form.
    """
    dmin, dmax = d_min_max(src)
    if not d > dmin:
        raise ValueError(f"d={d} violates d > d_min={dmin}")
    if not d < dmax:
        raise ValueError(f"d={d} violates d < d_max={dmax}")

    if src.kind == "gaussian":
        s2 = src.variance
        return RdSolution(
            source=src, d=d, rate=0.5 * np.log(s2 / d), slope=1.0 / (2 * d),
            output_variance=s2 - d, dispersion=GAUSSIAN_DISPERSION_NATS2,
        )

    p, dm = src.pmf, src.distortion
    nz = dm.shape[1]

    def bisect(cols):
        dmc = dm[:, cols]
        lo, hi = 0.0, 1.0
        while _ba_inner(p, dmc, hi)[1] > d:
            hi *= 2.0
            if hi > 1e8:
                raise FloatingPointError("slope bisection failed to bracket d")
        for _ in range(200):
            lam = 0.5 * (lo + hi)
            rate, dist, q = _ba_inner(p, dmc, lam)
            if dist > d:
                lo = lam
            else:
                hi = lam
            if hi - lo < 1e-13 * max(1.0, hi) and abs(dist - d) < 1e-9:
                break
        lam = 0.5 * (lo + hi)
        rate, dist, qc = _ba_inner(p, dmc, lam, n_iter=20000)
        q = np.zeros(nz)
        q[cols] = qc
        return rate, dist, q, lam

    rate, dist, q, lam = bisect(np.arange(nz))
    support = np.flatnonzero(q > 1e-3)
    if support.size < nz:
        # the optimal marginal excludes some reproduction letters near support
        # boundaries; plain alternating iterations converge too slowly there,
        # so re-solve restricted to the detected support and keep whichever
        # solution meets the distortion constraint more tightly (the reduced
        # one is validated against the optimality conditions of the full
        # problem: excluded letters must not improve the Lagrangian).
        rate_r, dist_r, q_r, lam_r = bisect(support)
        A = np.exp(-lam_r * np.where(np.isinf(dm), np.inf, dm))
        denom = A @ q_r
        kkt = (p / denom) @ A  # <= 1 off-support at the optimum
        if np.all(kkt <= 1.0 + 1e-9) and abs(dist_r - d) <= abs(dist - d):
            rate, dist, q, lam = rate_r, dist_r, q_r, lam_r
    sol = RdSolution(source=src, d=d, rate=rate, slope=lam, output_pmf=q,
                     distortion_gap=abs(dist - d))
    sol.dispersion = rate_dispersion(sol, src)
    return sol


def zero_rate_solution(src: SourceModel, d: float) -> RdSolution:
    """Rate-zero point for d >= d_max (discrete sources): every block maps to
    the one reproduction letter of least expected distortion."""
    q = np.zeros(src.distortion.shape[1])
    q[int(np.argmin(src.pmf @ src.distortion))] = 1.0
    return RdSolution(source=src, d=d, rate=0.0, slope=0.0, output_pmf=q)


def tilted_information(rd: RdSolution, s) -> np.ndarray | float:
    """d-tilted information j(s, d) = -log E_{Z*}[exp(-lam*(d(s,Z*) - d))].

    Accepts a symbol index (discrete), a real value (gaussian), or an array;
    returns nats with matching shape.
    """
    if rd.source.kind == "gaussian":
        s2 = rd.source.variance
        s = np.asarray(s, dtype=np.float64)
        out = 0.5 * np.log(s2 / rd.d) + s * s / (2 * s2) - 0.5
        return out if out.ndim else float(out)
    lam, q, d = rd.slope, rd.output_pmf, rd.d
    dm = rd.source.distortion
    ex = np.exp(-lam * np.where(np.isinf(dm), np.inf, dm - d))
    vals = -np.log(ex @ q)
    s = np.asarray(s)
    return vals[s] if s.ndim else float(vals[s])


def rate_dispersion(rd: RdSolution, src: SourceModel) -> float:
    """V(d) = Var[j(S, d)] in nats^2."""
    if src.kind == "gaussian":
        return GAUSSIAN_DISPERSION_NATS2
    vals = tilted_information(rd, np.arange(src.pmf.size))
    mean = float(src.pmf @ vals)
    return float(src.pmf @ (vals - mean) ** 2)


def source_expansion(k: int, d: float, eps: float, rd: RdSolution) -> float:
    """Two-term expansion of R_{S^k}(d, eps) and H_{d,eps}(S^k), in nats:
    (1-eps) k R(d) - sqrt(k V(d) / 2 pi) exp(-Qinv(eps)^2 / 2).

    The O(log k) remainder is not included; treat the value as a two-term
    approximation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= eps <= 1:
        raise ValueError("eps must be in [0, 1]")
    first = (1 - eps) * k * rd.rate
    if eps in (0.0, 1.0) or rd.dispersion == 0.0:
        return first
    q = normal_tail_inv(eps)
    return first - np.sqrt(k * rd.dispersion / (2 * np.pi)) * np.exp(-0.5 * q * q)


# ---------------------------------------------------------------------------
# exact (d, eps)-entropy at toy scale


def _product_source(src: SourceModel, k: int):
    """k-fold product pmf, per-letter-averaged distortion matrix and reproduction blocks."""
    p, dm = src.pmf, src.distortion
    ns, nz = dm.shape
    if ns ** k > 4096 or nz ** k > 4096:
        raise ValueError(f"k={k} too large for exhaustive search (|S|^k must be <= 4096)")
    S = np.array(list(itertools.product(range(ns), repeat=k)), dtype=np.intp)
    Z = np.array(list(itertools.product(range(nz), repeat=k)), dtype=np.intp)
    return p[S].prod(axis=1), dm[S[:, None], Z[None]].mean(axis=2), Z


def _entropy_of_assignment(pk, assign, nz):
    masses = np.bincount(assign, weights=pk, minlength=nz)
    nzm = masses[masses > 0]
    return float(-np.dot(nzm, np.log(nzm)) + 0.0)


def _assignment_exhaustive(pk, dk, d, eps):
    """Exact DFS over all maps source -> reproduction point; None above 4e6."""
    n, nz = dk.shape
    if nz ** n > 4_000_000:
        return None
    violating = dk > d + 1e-12
    best = {"h": np.inf, "assign": None}
    assign = np.zeros(n, dtype=int)

    def rec(i, budget):
        if i == n:
            h = _entropy_of_assignment(pk, assign, nz)
            if h < best["h"] - 1e-15:
                best["h"] = h
                best["assign"] = assign.copy()
            return
        for z in range(nz):
            cost = pk[i] if violating[i, z] else 0.0
            if cost > budget + 1e-15:
                continue
            assign[i] = z
            rec(i + 1, budget - cost)

    rec(0, eps)
    return best["h"], best["assign"]


def _assignment_greedy_refined(pk, dk, d, eps):
    """Greedy cover plus single-move local refinement, 16 restarts (larger instances)."""
    n, nz = dk.shape
    violating = dk > d + 1e-12
    best_h, best_assign = np.inf, None
    rnd = np.random.default_rng(0)
    for _ in range(16):
        # greedy: repeatedly pick the point covering the most unassigned mass
        assign = np.full(n, -1, dtype=int)
        budget = eps
        while np.any(assign < 0):
            free = assign < 0
            cover = np.where(~violating & free[:, None], pk[:, None], 0.0).sum(axis=0)
            if cover.max() <= 0:
                break
            z = int(np.argmax(cover + rnd.uniform(0, 1e-12, nz)))
            assign[np.nonzero(free & ~violating[:, z])[0]] = z
        for i in np.nonzero(assign < 0)[0]:  # leftovers spend the budget
            used = np.bincount(assign[assign >= 0], weights=pk[assign >= 0], minlength=nz)
            z = int(np.argmax(used))
            if pk[i] <= budget + 1e-15:
                assign[i] = z
                budget -= pk[i]
            else:
                raise ValueError(f"no feasible assignment within excess budget {eps}")
        # local refinement: single-source moves while entropy decreases
        improved = True
        while improved:
            improved = False
            for i in rnd.permutation(n):
                cur = _entropy_of_assignment(pk, assign, nz)
                old = assign[i]
                old_cost = pk[i] if violating[i, old] else 0.0
                for z in range(nz):
                    if z == old:
                        continue
                    cost = pk[i] if violating[i, z] else 0.0
                    if cost - old_cost > budget + 1e-15:
                        continue
                    assign[i] = z
                    h = _entropy_of_assignment(pk, assign, nz)
                    if h < cur - 1e-12:
                        budget -= cost - old_cost
                        improved = True
                        break
                    assign[i] = old
        h = _entropy_of_assignment(pk, assign, nz)
        if h < best_h:
            best_h, best_assign = h, assign.copy()
    return best_h, best_assign


def brute_force_deps_entropy(src: SourceModel, k: int, d: float, eps: float,
                             return_map: bool = False):
    """H_{d,eps}(S^k) in nats: minimum of H(c(S^k)) over deterministic maps c
    with P[d(S^k, c(S^k)) > d] <= eps.

    Exact by exhaustive search when the map space is small enough; otherwise a
    greedy-refined search (upper bound, oracle-quality at the k <= 4 scale this
    is restricted to).  ``return_map`` gives (h, map, pk, Z), pk and Z from
    ``_product_source``: source block i maps to reproduction block Z[map[i]].
    """
    if src.kind != "discrete":
        raise ValueError("exact (d,eps)-entropy search is discrete-only")
    pk, dk, Z = _product_source(src, k)
    result = _assignment_exhaustive(pk, dk, d, eps)
    if result is None:
        result = _assignment_greedy_refined(pk, dk, d, eps)
    h, assign = result
    if assign is None:
        raise ValueError(f"no map meets distortion {d} within excess budget {eps}")
    return (h, assign, pk, Z) if return_map else h
