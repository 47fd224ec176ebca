"""End-to-end variable-length joint source-channel simulations: random lossy
codebooks feeding the stop-feedback / VLFT channel codes, under excess,
average, and guaranteed distortion targets.

The source coder is a d-ball random-codebook surrogate: codewords drawn
i.i.d. from the rate-distortion-achieving output marginal, encoder emits the
first d-close index.  The resulting index distribution (a mixture of
geometrics over source types) is computed analytically and used as the
channel code's message prior.
A pipeline's shard of trials draws its keys and source blocks at once
(``source_blocks``), and reads its reproductions in one gather: from one
``LossyCodebook`` over the shard's keys, or from the covering search's tables.

Each ``simulate_*`` returns (metrics, extra).  ``metrics`` are the record's
metrics, each an ``rng.stat`` of the per-trial values: {"tau", "excess"},
{"tau", "distortion"} or {"tau", "violations"}.  ``extra`` holds the other
values a caller reads.
"""

from __future__ import annotations

import numpy as np

from .channels import Dmc
from .info import lattice_convolution, normal_tail_inv
from .ratedist import RdSolution, brute_force_deps_entropy, source_expansion
from .rng import (_stream_uniforms, draw_cum, draw_symbols, fold_keys, hash_thresholds,
                  keyed_uniforms_2d, run_trials, stat, trial_keys)
from .vlf import (FULL_DECODER_MAX_SUPPORT, MessagePrior, stop_feedback_many,
                  trial_length_bound, vlft_many)

_ENCODE_CHUNK = 4096
# Most symbols (codewords x k) of a lossy codebook held in memory at once.
MATERIALIZE_MAX = 2 ** 24


class LossyCodebook:
    """Codewords i.i.d. from the k-fold product of a generator marginal.

    ``key`` is one key or an array of keys, as for ``vlf.LazyCodebook``; the
    same (key, index) always yields the same codeword, generated on demand.
    """

    def __init__(self, key, k: int, M: int, output_pmf):
        self.key = key if isinstance(key, np.ndarray) else int(key)
        self.k = int(k)
        self.M = int(M)
        # inverse-CDF sampling of the output marginal, on the raw hashes
        self._thresholds = hash_thresholds(draw_cum(np.cumsum(output_pmf)))

    def rows(self, rows) -> np.ndarray:
        """Codewords ``rows``, k letters each, shaped as by ``keyed_uniforms_2d``."""
        return draw_symbols(keyed_uniforms_2d(self.key, rows, 0, self.k, raw=True),
                            self._thresholds)

    def chunk(self, start: int, count: int) -> np.ndarray:
        return self.rows(np.arange(start, min(start + count, self.M)))


def dball_encode(s: np.ndarray, cb: LossyCodebook, d: float,
                 dist_matrix: np.ndarray):
    """First codeword index within average distortion d of s; (0, False) on miss."""
    budget = d * cb.k + 1e-12
    start = 0
    while start < cb.M:
        pts = cb.chunk(start, _ENCODE_CHUNK)
        totals = dist_matrix[s[None, :], pts].sum(axis=1)
        hits = np.flatnonzero(totals <= budget)
        if hits.size:
            return start + int(hits[0]), True
        start += pts.shape[0]
    return 0, False


def min_distortion_encode(s: np.ndarray, cb: LossyCodebook,
                          dist_matrix: np.ndarray) -> int:
    """Index of the distortion-minimizing codeword, smallest index on ties.
    The whole codebook is generated at once."""
    if cb.M * cb.k > MATERIALIZE_MAX:
        raise ValueError("codebook too large to materialize")
    totals = dist_matrix[s[None, :], cb.chunk(0, cb.M)].sum(axis=1)
    return int(np.argmin(totals))


def ball_probability(counts: np.ndarray, dist_matrix: np.ndarray,
                     output_pmf: np.ndarray, k: int, d: float) -> float:
    """P[ d(s^k, Z^k) <= d*k ] for a source block with the given letter counts,
    Z i.i.d. ~ output_pmf.  Exact convolution over per-letter distortion values.
    """
    dist = {0.0: 1.0}
    budget = d * k + 1e-12
    for a, c in enumerate(counts):
        step = {}  # equal distortions merged
        for z, qz in enumerate(output_pmf):
            if qz > 0:
                v = round(float(dist_matrix[a, z]), 12)
                step[v] = step.get(v, 0.0) + qz
        dist = lattice_convolution(dist, step.items(), int(c), budget)
    return float(sum(p for tot, p in dist.items() if tot <= budget))


def type_ball_probs(rd: RdSolution, k: int, d: float):
    """(type probabilities, ball probabilities) over source type classes."""
    from scipy.special import gammaln

    src = rd.source
    pmf = src.pmf
    nz = pmf.size
    types = []
    def rec(prefix, remaining):
        if len(prefix) == nz - 1:
            types.append(prefix + [remaining])
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)
    rec([], k)
    counts = np.array(types)
    logp = (gammaln(k + 1) - gammaln(counts + 1).sum(axis=1)
            + (counts * np.log(np.where(pmf > 0, pmf, 1.0))).sum(axis=1))
    mask = ~np.any((counts > 0) & (pmf[None, :] == 0), axis=1)
    probs = np.where(mask, np.exp(logp), 0.0)
    pballs = np.array([ball_probability(c, src.distortion, rd.output_pmf, k, d)
                       for c in counts])
    keep = probs > 0
    return probs[keep], pballs[keep]


def analytic_miss(type_probs: np.ndarray, pballs: np.ndarray, M: int) -> float:
    """P[no codeword within distortion d among M i.i.d. draws]."""
    return float(np.sum(type_probs * (1.0 - pballs) ** M))


def choose_codebook_size(type_probs: np.ndarray, pballs: np.ndarray,
                         eps_source: float) -> int:
    """Smallest M <= FULL_DECODER_MAX_SUPPORT with analytic miss probability
    <= eps_source."""
    cap = FULL_DECODER_MAX_SUPPORT
    if analytic_miss(type_probs, pballs, cap) > eps_source:
        raise ValueError(f"cannot reach miss <= {eps_source} with M <= {cap}")
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if analytic_miss(type_probs, pballs, mid) <= eps_source:
            hi = mid
        else:
            lo = mid + 1
    return lo


def index_prior(type_probs: np.ndarray, pballs: np.ndarray, M: int) -> MessagePrior:
    """Analytic distribution of the d-ball encoder's index, miss folded into
    index 0.  A mixture of geometrics, hence non-increasing."""
    i = np.arange(M, dtype=np.float64)
    pmf = ((1.0 - pballs[:, None]) ** i[None, :] * pballs[:, None]
           * type_probs[:, None]).sum(axis=0)
    pmf[0] += analytic_miss(type_probs, pballs, M)
    pmf = np.maximum(pmf, 1e-300)
    return MessagePrior(pmf / pmf.sum())


def source_blocks(master_seed: int, ids, pmf: np.ndarray, k: int):
    """(stream keys, source blocks) of the trials ``ids``, one row each.  A
    block is counters [0, k) of its trial's stream; the trial's lossy codebook
    takes sub-stream 3 (``fold_keys(keys, 3)``) and its channel code 4.  The
    letters are inverse-CDF draws from ``pmf`` by ``draw_cum``'s rule, so
    none has zero mass."""
    keys = trial_keys(master_seed, ids)
    return keys, np.searchsorted(draw_cum(np.cumsum(pmf)), _stream_uniforms(keys, 0, k),
                                 side="right")


def default_budget_split(eps: float, k: int):
    """Source gets eps - 1/sqrt(k), channel 1/sqrt(k)."""
    ch = 1.0 / np.sqrt(k)
    if eps - ch <= 0:
        raise ValueError(
            f"infeasible budget: eps={eps} <= 1/sqrt(k)={ch:.4f}; "
            "pass an explicit split")
    return eps - ch, ch


def simulate_excess(k: int, d: float, eps: float, dmc: Dmc, rd: RdSolution,
                    master_seed: int, trials: int, split=None, mode: str = "full_decoder",
                    workers: int = 1):
    """Excess-distortion pipeline: d-ball source code + stop-feedback channel
    code with the analytic index distribution as message prior.

    The excess estimate counts source misses and channel decoding errors.
    In true_path mode the channel error is accounted analytically as
    exp(-gamma) instead of per-trial flags.  ``extra`` holds the source
    expansion over C (``expansion_ell``) and the analytic miss probability.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    eps_src, eps_ch = split if split is not None else default_budget_split(eps, k)
    if eps_src <= 0 or eps_ch <= 0:
        raise ValueError("both budget components must be positive")
    tp, pb = type_ball_probs(rd, k, d)
    M = choose_codebook_size(tp, pb, eps_src)
    prior = index_prior(tp, pb, M)
    gamma = float(np.log(1.0 / eps_ch))
    trial_length_bound(dmc, prior.entropy, gamma)

    dm = rd.source.distortion

    def shard(ids):
        # the source coder runs per trial, the channel code on the whole shard
        keys, S = source_blocks(master_seed, ids, rd.source.pmf, k)
        cb = LossyCodebook(fold_keys(keys, 3), k, M, rd.output_pmf)
        ws, hits = np.array([dball_encode(s, LossyCodebook(key, k, M, rd.output_pmf), d, dm)
                             for s, key in zip(S, cb.key.tolist())]).T
        # in true_path mode the batch decodes w itself
        taus, decoded, _, _ = stop_feedback_many(dmc, prior, gamma, mode, fold_keys(keys, 4),
                                                 ws)
        dists = dm[S, cb.rows(decoded[:, None])[:, 0]].mean(axis=1)
        return np.column_stack((taus, (hits == 0) | (dists > d + 1e-12)))

    taus, fails = run_trials(shard, trials, workers).T
    excess = stat(fails)
    if mode == "true_path":
        excess["estimate"] += float(np.exp(-gamma))  # analytic channel-error allowance
    return {"tau": stat(taus), "excess": excess}, {
        "expansion_ell": source_expansion(k, d, eps, rd) / dmc.C,
        "analytic_miss": analytic_miss(tp, pb, M)}


def average_codebook_size(k: int, rd: RdSolution) -> int:
    """Codebook size of the average-distortion pipeline when none is given;
    a ValueError when it is beyond the float range."""
    log_size = k * rd.rate + 0.5 * np.log(k) + 1.0
    if not log_size < np.log(np.finfo(np.float64).max):
        raise ValueError(f"the default M = ceil(exp(k R + ln(k)/2 + 1)) = exp({log_size:.6g}) "
                         "is beyond the float range; give M")
    return int(np.ceil(np.exp(log_size)))


def simulate_average(k: int, d: float, dmc: Dmc, rd: RdSolution,
                     master_seed: int, trials: int, M: int, workers: int = 1):
    """Average-distortion pipeline: min-distortion encoder over a random
    codebook, uniform-prior stop-feedback channel code with error budget
    k^(1/p - 2) = k^(-3/2), at Hoelder exponent p = 2.  Reports the end-to-end
    average distortion (channel errors included via the distortion of the
    wrongly decoded codeword).  ``extra`` holds ``gamma_nats``, the channel
    decoding errors (``error``) and the distortion of the encoded codeword
    (``source_distortion``)."""
    if rd.source.unbounded_distortion:
        raise ValueError("average-distortion mode requires bounded distortion")
    if M < 1:
        raise ValueError("M must be at least 1")
    if M > FULL_DECODER_MAX_SUPPORT:
        raise ValueError("codebook too large to materialize")
    eps_ch = float(k) ** -1.5
    gamma = float(np.log(1.0 / eps_ch))
    prior = MessagePrior(np.full(M, 1.0 / M))
    trial_length_bound(dmc, prior.entropy, gamma)

    dm = rd.source.distortion

    def shard(ids):
        keys, S = source_blocks(master_seed, ids, rd.source.pmf, k)
        cb = LossyCodebook(fold_keys(keys, 3), k, M, rd.output_pmf)
        ws = np.array([min_distortion_encode(s, LossyCodebook(key, k, M, rd.output_pmf), dm)
                       for s, key in zip(S, cb.key.tolist())])
        taus, decoded, errs, _ = stop_feedback_many(dmc, prior, gamma, "full_decoder",
                                                    fold_keys(keys, 4), ws)
        # the decoded and the encoded codeword of each trial, (T, 2, k)
        Z = cb.rows(np.column_stack((decoded, ws)))
        return np.column_stack((taus, errs, dm[S[:, None], Z].mean(axis=2)))

    taus, errs, dists, src_dists = run_trials(shard, trials, workers).T
    return {"tau": stat(taus), "distortion": stat(dists)}, {
        "gamma_nats": gamma, "error": stat(errs), "source_distortion": stat(src_dists)}


def simulate_guaranteed(k: int, d: float, dmc: Dmc, src, master_seed: int,
                        trials: int, workers: int = 1):
    """Guaranteed-distortion pipeline: the entropy-minimizing d-covering map
    of the source ``src`` on S^k feeding the zero-error VLFT code.  Every
    trial must meet the distortion target; the ``violations`` metric is the
    share of trials that do not.  d may sit at or above d_max, where the
    rate is zero.  ``extra`` holds the map's entropy (``map_entropy_nats``).
    """
    if k > 4:
        raise ValueError("guaranteed mode uses exhaustive covering maps; k <= 4")
    H, assign, pk, Z = brute_force_deps_entropy(src, k, d, 0.0, return_map=True)
    # messages: the used reproduction blocks by non-increasing induced probability
    mass = np.bincount(assign, weights=pk)
    order = np.argsort(-mass, kind="stable")
    w_of_block = np.argsort(order)[assign]
    cw_table = Z[order]
    prior = MessagePrior(mass[order[:np.count_nonzero(mass)]])
    trial_length_bound(dmc, prior.entropy)

    dm = src.distortion

    def shard(ids):
        keys, S = source_blocks(master_seed, ids, src.pmf, k)
        w = w_of_block[np.ravel_multi_index(S.T, (src.pmf.size,) * k)]
        taus, decoded, _ = vlft_many(dmc, prior, fold_keys(keys, 4), w)
        return np.column_stack((taus, dm[S, cw_table[decoded]].mean(axis=1) > d + 1e-12))

    taus, violated = run_trials(shard, trials, workers).T
    return {"tau": stat(taus), "violations": stat(violated)}, {"map_entropy_nats": H}


def naive_separation_bound(k: int, d: float, eps: float, C: float,
                           rd: RdSolution) -> float:
    """Length needed by naive separation: min over eta + zeta <= eps of
    (1 - eta) * (k R(d) + sqrt(k V(d)) Qinv(zeta)) / C, two-term forms with
    the O(.) remainders dropped; eta runs over a grid of 2000 points."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    if C <= 0:
        raise ValueError("C must be positive")
    R, V = rd.rate, rd.dispersion
    etas = np.linspace(0.0, eps, 2001)[:-1]
    zetas = eps - etas
    qi = np.array([normal_tail_inv(z) for z in zetas])
    vals = (1.0 - etas) * (k * R + np.sqrt(k * V) * qi) / C
    best = float(vals.min())
    if V == 0.0:
        best = min(best, (1.0 - eps) * k * R / C)
    return best
