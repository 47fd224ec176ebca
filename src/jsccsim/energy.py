"""Energy-limited transmission over the infinite-bandwidth AWGN channel:
Schalkwijk-Bluestein linear feedback estimation, Huffman-fed per-bit feedback
signalling, orthogonal (PPM) variable-length separated schemes, the JSCC
energy converse, and the asymptotic energy-expansion evaluators.

Conventions: noise has variance N0/2 per real dimension; all information
quantities are in nats, so energies appear as E/N0 nats via log e/N0 scaling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr, ndtri

from .info import LN2, lattice_convolution, normal_tail_inv
from .jscc import (LossyCodebook, analytic_miss, dball_encode, source_blocks,
                   type_ball_probs)
from .ratedist import (RdSolution, ba_rate_distortion, d_min_max, source_expansion,
                       tilted_information, zero_rate_solution)
from .rng import (RngStream, _stream_uniforms, fold_keys, half_width, run_trials,
                  seed_stream)
from .vlf import MessagePrior


def _noise_sd(N0: float) -> float:
    """Standard deviation of the noise per real dimension (variance N0/2)."""
    return np.sqrt(N0 / 2.0)


# ---------------------------------------------------------------------------
# Schalkwijk-Bluestein linear feedback transmission of a Gaussian sample
# ---------------------------------------------------------------------------

def sk_mse_batch(sigma2: float, P: float, n: int, trials: int,
                 master_seed: int, stream_id: int = 0):
    """SK transmission of one N(0, sigma2) sample in n uses at per-use SNR P,
    vectorized over trials.  Each use sends the current estimation error
    scaled to power P and the receiver applies the MMSE update.  Returns
    (MSE at every step 1..n, mean per-use energy at every step); the MSE
    after n uses is sigma2/(1+P)^n.  Noise variance 1, i.e. N0 = 2."""
    rng = seed_stream(master_seed, stream_id)
    theta = rng.normals(trials) * np.sqrt(sigma2)
    est = np.zeros(trials)
    V = sigma2
    mses = np.empty(n)
    powers = np.empty(n)
    for i in range(n):
        x = np.sqrt(P / V) * (theta - est)
        powers[i] = float(np.mean(x * x))
        y = x + rng.normals(trials)
        est = est + np.sqrt(P * V) / (P + 1.0) * y
        V /= (1.0 + P)
        mses[i] = float(np.mean((theta - est) ** 2))
    return mses, powers


def sk_block(k: int, sigma2: float, P: float, n_per: int, trials: int,
             master_seed: int):
    """k interleaved SK instances (sample i uses slots i, k+i, 2k+i, ...).

    Returns (per-sample MSE array, total mean energy).  Interleaving leaves
    the per-sample statistics identical to k independent single-sample runs.
    """
    mses = np.empty(k)
    total_energy = 0.0
    for i in range(k):
        m, p = sk_mse_batch(sigma2, P, n_per, trials, master_seed, stream_id=i)
        mses[i] = m[-1]
        total_energy += p.sum()
    return mses, float(total_energy)


# ---------------------------------------------------------------------------
# Per-bit feedback transmission (Huffman + bit transmitter)
# ---------------------------------------------------------------------------

def huffman_code(prior: MessagePrior):
    """Binary Huffman code; returns a list of codeword strings.

    A single-message prior maps to the empty string (zero cost, documented
    convention for the degenerate case).
    """
    p = prior.pmf
    if p.size == 1:
        return [""]
    heap = [(float(pi), i, i) for i, pi in enumerate(p)]
    heapq.heapify(heap)
    parent = {}
    next_id = p.size
    while len(heap) > 1:
        p0, _, a = heapq.heappop(heap)
        p1, _, b = heapq.heappop(heap)
        parent[a] = (next_id, "0")
        parent[b] = (next_id, "1")
        heapq.heappush(heap, (p0 + p1, next_id, next_id))
        next_id += 1
    words = []
    for i in range(p.size):
        bits = []
        node = i
        while node in parent:
            node, bit = parent[node]
            bits.append(bit)
        words.append("".join(reversed(bits)))
    return words


class IdealBitTransmitter:
    """Oracle one-bit transmitter: zero error at exactly N0 ln2 energy."""

    def __init__(self, N0: float):
        self.N0 = float(N0)

    def send(self, bit: int, rng: RngStream):
        return bit, 0.0, self.N0 * LN2


class SequentialBitTransmitter:
    """Antipodal sequential (SPRT-style) one-bit transmitter.

    Repeats +/-a at energy N0/4 per step until the posterior log-likelihood
    ratio clears ln((1-delta)/delta); residual error probability <= delta =
    1e-9.  Its energy exceeds the N0 ln2 ideal by a measurable gap (reported,
    not hidden).
    """

    def __init__(self, N0: float):
        self.N0 = float(N0)
        self.delta = 1e-9
        self.step_energy = 0.25 * self.N0
        self.threshold = np.log((1 - self.delta) / self.delta)
        self.sd = _noise_sd(self.N0)

    def send(self, bit: int, rng: RngStream):
        a = np.sqrt(self.step_energy)
        sgn = 1.0 if bit else -1.0
        llr, energy = 0.0, 0.0
        while abs(llr) < self.threshold:
            y = sgn * a + self.sd * float(ndtri(rng.uniform()))
            llr += 4.0 * a * y / self.N0
            energy += self.step_energy
        return (1 if llr > 0 else 0), self.delta, energy


def send_word(word: str, transmitter, rng: RngStream):
    """Push the bits of one codeword through the transmitter: (correct flag,
    total energy, number of bits)."""
    energy = 0.0
    received = []
    for ch in word:
        bit, _, e = transmitter.send(int(ch), rng)
        received.append(str(bit))
        energy += e
    return "".join(received) == word, energy, len(word)


def vl_feedback_energy_trial(prior: MessagePrior, transmitter, rng: RngStream,
                             codewords=None):
    """Huffman-encode one message of the prior and ``send_word`` it."""
    if codewords is None:
        codewords = huffman_code(prior)
    return send_word(codewords[prior.sample(rng)], transmitter, rng)


# ---------------------------------------------------------------------------
# PPM over orthogonal codewords
# ---------------------------------------------------------------------------

def ppm_error_prob(E: float, m: float, N0: float) -> float:
    """Error probability of ML decoding among m equal-energy orthogonal
    codewords: 1 - integral of phi(u) * Phi(u + sqrt(2E/N0))^(m-1).

    Stable for large (real-valued) m via exp((m-1) log Phi); quadrature on
    u in [-12, 12] (tail mass < 1e-32), absolute tolerance 1e-10.
    """
    if E < 0 or m < 1 or N0 <= 0:
        raise ValueError("need E >= 0, m >= 1, N0 > 0")
    if m == 1:
        return 0.0
    shift = np.sqrt(2.0 * E / N0)

    def integrand(u):
        return (np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
                * np.exp((m - 1.0) * log_ndtr(u + shift)))

    val, _ = quad(integrand, -12.0, 12.0, epsabs=1e-10, limit=200)
    return float(min(max(1.0 - val, 0.0), 1.0))


PPM_MAX_M = 2 ** 16


def ppm_trials(E: float, m: int, N0: float, trials: int, master_seed: int) -> np.ndarray:
    """Monte-Carlo PPM error flags: true coordinate sqrt(E)+Z0 against the
    maximum of m-1 pure-noise coordinates."""
    if not 1 <= m <= PPM_MAX_M:
        raise ValueError(f"m={m} outside [1, {PPM_MAX_M}], the sizes whose "
                         "coordinates are materialized")
    rng = seed_stream(master_seed, 0)
    sd = _noise_sd(N0)
    errs = np.empty(trials)
    chunk = max(1, min(trials, 2 ** 22 // max(m, 1)))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        z = rng.normals(b * m).reshape(b, m) * sd
        y0 = np.sqrt(E) + z[:, 0]
        rest = z[:, 1:].max(axis=1) if m > 1 else np.full(b, -np.inf)
        errs[done:done + b] = rest > y0
        done += b
    return errs


# ---------------------------------------------------------------------------
# Variable-length separated bounds (two-stage PPM)
# ---------------------------------------------------------------------------

@dataclass
class EnergyBudget:
    """Payload/header energy split.  E1 is a scalar in max-power mode, or an
    array indexed by floor(log2 W) in average-power mode."""

    E1: object
    E2: float
    E_total: float | None = None


def _header_size(M: int) -> int:
    return int(np.floor(np.log2(M))) + 1


def vl_separated_error_bound(prior: MessagePrior, budget: EnergyBudget,
                             N0: float, mode: str = "max_power",
                             weaken: bool = False) -> float:
    """Error bound of the two-stage orthogonal scheme: payload term
    E[eps(E1, W)] plus length-header term eps(E2, floor(log2 M)+1).

    weaken=True replaces the index W by 1/P_W(W) inside the payload term.
    The prior must be ordered by non-increasing probability (most likely
    message gets the shortest binary string).
    """
    if not prior.sorted_desc:
        raise ValueError("prior must be ordered by non-increasing probability")
    M = prior.size
    if mode == "max_power":
        if not np.isscalar(budget.E1):
            raise ValueError("max_power mode takes a scalar E1")
        if budget.E_total is not None and budget.E1 + budget.E2 > budget.E_total + 1e-12:
            raise ValueError("E1 + E2 exceeds the total energy budget")
        e1_of = lambda i: float(budget.E1)
    elif mode == "avg_power":
        sched = np.asarray(budget.E1, dtype=np.float64)
        if sched.size != _header_size(M):
            raise ValueError("E1 schedule must have one entry per length group")
        if budget.E_total is not None:
            groups = np.floor(np.log2(np.arange(1, M + 1))).astype(int)
            mean_e1 = float(np.dot(prior.pmf, sched[groups]))
            if mean_e1 + budget.E2 > budget.E_total + 1e-12:
                raise ValueError("E[E1] + E2 exceeds the total energy budget")
        e1_of = lambda i: float(sched[int(np.floor(np.log2(i)))])
    else:
        raise ValueError(f"unknown mode {mode!r}")

    payload = 0.0
    for i in range(1, M + 1):
        m_eff = 1.0 / prior.pmf[i - 1] if weaken else float(i)
        payload += prior.pmf[i - 1] * ppm_error_prob(e1_of(i), max(m_eff, 1.0), N0)
    header = ppm_error_prob(budget.E2, _header_size(M), N0)
    return float(payload + header)


# ---------------------------------------------------------------------------
# Lossy energy bound and end-to-end two-stage simulation
# ---------------------------------------------------------------------------

def lossy_energy_error_bound(src, k: int, d: float, M: int,
                             budget: EnergyBudget, N0: float,
                             master_seed: int, trials: int):
    """Three-term excess-distortion bound for the d-ball + two-stage PPM
    scheme, with an end-to-end Monte-Carlo verification.

    bound = E[eps(E1, 1/P(B_d(S^k)))] + eps(E2, floor(log2 M)+1)
            + E[(1 - P(B_d(S^k)))^M]

    Returns (bound, mc_failure_rate, mc_half_width).
    """
    if k > 12:
        raise ValueError("exact ball probabilities limited to k <= 12")
    if not np.isscalar(budget.E1):
        raise ValueError("lossy bound uses the max-power budget")
    rd = (zero_rate_solution(src, d) if d >= d_min_max(src)[1]
          else ba_rate_distortion(src, d))
    tp, pb = type_ball_probs(rd, k, d)

    E1, E2 = float(budget.E1), float(budget.E2)
    if budget.E_total is not None and E1 + E2 > budget.E_total + 1e-12:
        raise ValueError("E1 + E2 exceeds the total energy budget")
    payload = float(np.sum(tp * [ppm_error_prob(E1, max(1.0 / p, 1.0), N0)
                                 for p in pb]))
    header = ppm_error_prob(E2, _header_size(M), N0)
    miss = analytic_miss(tp, pb, M)
    bound = min(payload + header + miss, 1.0)

    # end-to-end simulation of the actual two-stage scheme
    L = _header_size(M)
    sd = _noise_sd(N0)
    dm = src.distortion

    def trial(key, s, cb):
        # the normals are the stream's values after the source block
        w0, hit = dball_encode(s, cb, d, dm)
        W = w0 + 1  # 1-based index, most likely first
        ell = int(np.floor(np.log2(W)))
        # header PPM decision among L messages at energy E2
        zh = ndtri(_stream_uniforms(key, k, L)) * sd
        zh[ell] += np.sqrt(E2)
        if int(np.argmax(zh)) != ell:
            return 1.0
        # payload ML among the 2^ell-sized length group at energy E1
        lo = 2 ** ell
        hi = min(2 ** (ell + 1) - 1, M)
        zp = ndtri(_stream_uniforms(key, k + L, hi - lo + 1)) * sd
        zp[W - lo] += np.sqrt(E1)
        z = cb.chunk(lo + int(np.argmax(zp)) - 1, 1)[0]
        return float((not hit) or dm[s, z].mean() > d + 1e-12)

    def shard(ids):
        keys, S = source_blocks(master_seed, ids, src.pmf, k)
        return [trial(key, s, LossyCodebook(cb_key, k, M, rd.output_pmf))
                for key, s, cb_key in zip(keys.tolist(), S, fold_keys(keys, 3).tolist())]

    fails = run_trials(shard, trials)[:, 0]
    return bound, float(fails.mean()), half_width(fails)


# ---------------------------------------------------------------------------
# AWGN JSCC converse
# ---------------------------------------------------------------------------

def _sum_tilted_distribution(rd: RdSolution, k: int):
    """Exact distribution (values, probabilities) of the k-fold sum of
    per-letter d-tilted informations for a small-alphabet discrete source."""
    src = rd.source
    vals = tilted_information(rd, np.arange(src.pmf.size))
    dist = lattice_convolution({0.0: 1.0}, list(zip(vals, src.pmf)), k)
    v = np.array(sorted(dist))
    return v, np.array([dist[x] for x in v])


def awgn_jscc_converse(rd: RdSolution, k: int, E: float, N0: float,
                       gamma: float | None = None) -> float:
    """Excess-distortion converse over AWGN with total energy E:

        eps >= sup_gamma { P[ sum_i j(S_i, d) - G >= gamma ] - exp(-gamma) }

    with G ~ N(E/N0, 2E/N0) nats; the worst case over codeword energies
    ||x||^2 <= E sits at E itself.  Exact convolution for discrete sources,
    quadrature over the chi-square energy statistic for Gaussian ones.
    """
    if not (E >= 0 and N0 > 0):
        raise ValueError(f"need E >= 0 and N0 > 0, got E={E}, N0={N0}")
    mu = E / N0
    sig = np.sqrt(max(2.0 * E / N0, 0.0))
    if rd.source.kind != "gaussian":
        v, p = _sum_tilted_distribution(rd, k)

    def prob_ge(gamma):
        # P[ sum j - G >= gamma ]
        if rd.source.kind == "gaussian":
            from scipy.stats import chi2
            base = k * rd.rate - 0.5 * k

            def f(x):  # x ~ chi2_k: sum j = base + x/2
                v = base + 0.5 * x
                if sig == 0:
                    return chi2.pdf(x, k) * float(v - gamma >= mu)
                return chi2.pdf(x, k) * ndtr((v - gamma - mu) / sig)
            val, _ = quad(f, 0, k + 40 * np.sqrt(2 * k), epsabs=1e-10, limit=200)
            return val
        if sig == 0:
            return float(np.sum(p[v - gamma >= mu]))
        return float(np.dot(p, ndtr((v - gamma - mu) / sig)))

    if gamma is not None:
        return max(prob_ge(gamma) - np.exp(-gamma), 0.0)
    top = max(10.0, 2.0 * k * rd.rate + 10.0)
    grid = np.geomspace(1e-4, top, 120)
    return float(max(max(prob_ge(g) - np.exp(-g) for g in grid), 0.0))


# ---------------------------------------------------------------------------
# Asymptotic energy expansions (values of E/N0 in nats, O-terms dropped)
# ---------------------------------------------------------------------------

def energy_expansion(kind: str, k: int, rd: RdSolution | None = None,
                     eps: float | None = None) -> float:
    """Leading terms of the energy-fidelity expansions, returned as
    E * log e / N0 in nats.  The dropped remainders are O(log k) for the
    distortion kinds and O(1)/O(sqrt(k log k)) for the bit kinds.
    """
    if kind in ("avg_fb", "excess_fb", "excess_nofb", "avg_power_nofb"):
        if rd is None:
            raise ValueError(f"{kind} requires an RdSolution")
        R, V = rd.rate, rd.dispersion
    if kind == "avg_fb":
        return k * R
    if kind == "excess_fb":
        _check_eps(eps)
        return source_expansion(k, rd.d, eps, rd)
    if kind == "excess_nofb":
        _check_eps(eps)
        return k * R + np.sqrt(k * (2 * R + V)) * normal_tail_inv(eps)
    if kind == "avg_power_nofb":
        _check_eps(eps)
        return (1 - eps) * k * R
    if kind == "bits_nofb":
        _check_eps(eps)
        return k * LN2 + np.sqrt(2 * k * LN2) * normal_tail_inv(eps) - 0.5 * np.log(k)
    if kind == "bits_fb":
        _check_eps(eps)
        return (1 - eps) * k * LN2
    raise ValueError(f"unknown expansion kind {kind!r}")


def _check_eps(eps):
    if eps is None or not 0 <= eps < 1:
        raise ValueError("eps in [0,1) required")
