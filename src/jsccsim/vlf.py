"""Executable stop-feedback and zero-error variable-length-with-termination
codes over a simulated DMC, with the matching closed-form bound evaluators.

Codewords are infinite i.i.d. strings from the capacity-achieving input
distribution, generated lazily: symbol (message m, time n) is a pure function
of (codebook key, m, n), so trials replay bit-exactly and the true-path and
full-decoder modes of the same trial share their codewords and channel noise.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .channels import Dmc, dmc_steps
from .info import entropy
from .ratedist import source_expansion
from .rng import RngStream, keyed_uniforms_2d, run_trials, seed_stream

TRIAL_USE_CAP = 10 ** 9
_BLOCK0 = 32
_BLOCK_MAX = 512

FULL_DECODER_MAX_SUPPORT = 2 ** 20


class MessagePrior:
    """Finite message distribution; countable priors enter truncated.

    ``tail_mass`` records the probability folded into the last message when a
    countable prior was truncated.
    """

    def __init__(self, pmf, tail_mass: float = 0.0):
        pmf = np.asarray(pmf, dtype=np.float64)
        if np.any(pmf <= 0):
            raise ValueError("prior must have strictly positive entries on its support")
        if abs(pmf.sum() - 1.0) > 1e-9:
            raise ValueError("prior must sum to 1")
        self.pmf = pmf / pmf.sum()
        self.tail_mass = float(tail_mass)
        self.self_info = -np.log(self.pmf)  # nats
        # a list: bisect on Python floats is the scalar searchsorted
        self.cum = np.cumsum(self.pmf).tolist()

    @property
    def size(self) -> int:
        return self.pmf.size

    @property
    def entropy(self) -> float:
        if not hasattr(self, "_entropy"):
            self._entropy = entropy(self.pmf)
        return self._entropy

    @property
    def sorted_desc(self) -> bool:
        return bool(np.all(np.diff(self.pmf) <= 1e-15))

    def sample(self, rng: RngStream) -> int:
        """One message index, drawn with the stream's next uniform."""
        return min(bisect_right(self.cum, rng.uniform()), self.size - 1)


def uniform_prior(M: int) -> MessagePrior:
    if M < 1:
        raise ValueError("M must be at least 1")
    return MessagePrior(np.full(M, 1.0 / M))


def geometric_prior(q: float, tail: float = 1e-9) -> MessagePrior:
    """Truncated geometric prior P(m) ~ (1-q) q^{m-1}; tail folded into the
    last retained message."""
    if not 0 < q < 1:
        raise ValueError("q must be in (0,1)")
    m = max(2, int(np.ceil(np.log(tail) / np.log(q))))
    p = (1 - q) * q ** np.arange(m)
    p[-1] += 1.0 - p.sum()
    # folding can push the last mass above its neighbor; restore the ordering
    p = np.sort(p)[::-1]
    return MessagePrior(p, tail_mass=q ** m)


class LazyCodebook:
    """Infinite random codebook: symbol (m, n) ~ caid, keyed by (seed, m, n)."""

    def __init__(self, key: int, caid_cum: np.ndarray):
        self.key = int(key)
        self.caid_cum = caid_cum

    def block(self, messages, n0: int, length: int) -> np.ndarray:
        u = keyed_uniforms_2d(self.key, messages, n0, length)
        if self.caid_cum.size == 2:  # binary input: single comparison
            return (u >= self.caid_cum[0]).astype(np.int64)
        return np.searchsorted(self.caid_cum, u, side="right")


@dataclass
class Transcript:
    """One simulated trial."""

    true_message: int
    decoded: int | None
    tau: int                 # channel uses until the decoder's stop
    error: float             # 0/1 in full_decoder mode; exp(-gamma) in true_path
    mode: str
    gamma: float = float("nan")
    info_sum: float = float("nan")   # sum of true-path info densities up to tau
    anomaly: bool = False            # VLFT decode-rule mismatch, logged not hidden
    tail_mass: float = 0.0


def _running_sums(dmc: Dmc, rng: RngStream, rows, w_row: int, block: int,
                  n_max: int | None = None):
    """Running information-density sums of the codewords of ``rows`` while
    row ``w_row`` is sent, one block of channel uses at a time.

    Codewords come from sub-stream 1 of the trial and channel noise from
    sub-stream 2.  Yields (n0, carry, D, S) per block: D[r, c] is row r's
    density at use n0 + c + 1, carry[r] its sum over the first n0 uses and
    S = carry + cumsum(D).  Blocks start at ``block`` uses and double up to
    _BLOCK_MAX; with ``n_max`` the last block is cut so the sums end there.
    """
    codebook = LazyCodebook(rng.derive(1).key, dmc.caid_cum)
    noise = rng.derive(2)
    carry = np.zeros(len(rows))
    n0 = 0
    while n_max is None or n0 < n_max:
        if n0 > TRIAL_USE_CAP:
            raise RuntimeError(f"trial exceeded {TRIAL_USE_CAP} channel uses "
                               f"(C={dmc.C}); check the configuration")
        length = block if n_max is None else min(block, n_max - n0)
        X = codebook.block(rows, n0, length)
        y = dmc_steps(dmc, X[w_row], noise.uniforms_at(n0, length))
        D = dmc.log_density[X, y[None, :]]
        # Block-sized arrays set the peak memory at large M, and the caller
        # still holds the previous D and S here: drop X and sum in place.
        del X
        S = np.cumsum(D, axis=1)
        S += carry[:, None]
        yield n0, carry, D, S
        carry = S[:, -1]
        n0 += length
        block = min(2 * block, _BLOCK_MAX)


def stop_feedback_trial(dmc: Dmc, prior: MessagePrior, gamma: float, mode: str,
                        rng: RngStream) -> Transcript:
    """One stop-feedback trial: samples W from the prior, then transmits it."""
    return stop_feedback_transmit(dmc, prior, gamma, prior.sample(rng), mode, rng)


def stop_feedback_transmit(dmc: Dmc, prior: MessagePrior, gamma: float, w: int,
                           mode: str, rng: RngStream) -> Transcript:
    """Transmit a given message with per-message thresholds gamma + i_W(m).

    full_decoder: runs all M accumulated densities, stops at the first
    threshold crossing, decodes the earliest-crossing message (smallest index
    on ties).  true_path: runs only the true message's sum and returns its
    crossing time tau_W >= tau*, with the analytic error bound exp(-gamma)
    in place of an error flag.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if mode not in ("full_decoder", "true_path"):
        raise ValueError(f"unknown mode {mode!r}")
    full = mode == "full_decoder"
    if full and prior.size > FULL_DECODER_MAX_SUPPORT:
        raise ValueError("full_decoder mode supports at most 2^20 messages")

    rows = np.arange(prior.size) if full else np.array([w])
    thresholds = gamma + prior.self_info[rows]
    # first block sized near the expected stopping time to minimize wasted work
    expect = (prior.entropy + gamma + dmc.a0) / dmc.C
    block0 = int(np.clip(32 * np.ceil(1.25 * expect / 32), _BLOCK0, _BLOCK_MAX))
    for n0, carry, D, S in _running_sums(dmc, rng, rows, w if full else 0, block0):
        crossed = S >= thresholds[:, None]
        hit = crossed.any(axis=1)
        if hit.any():
            cross_n = np.where(hit, n0 + 1 + np.argmax(crossed, axis=1), np.iinfo(np.int64).max)
            tau = int(cross_n.min())
            winner = int(np.argmin(cross_n))
            col = tau - n0 - 1
            if full:
                # true-path running sum at the decoder's stopping time
                info_sum = float(carry[w] + D[w, : col + 1].sum())
                return Transcript(true_message=w, decoded=winner, tau=tau,
                                  error=float(winner != w), mode=mode, gamma=gamma,
                                  info_sum=info_sum, tail_mass=prior.tail_mass)
            return Transcript(true_message=w, decoded=None, tau=tau,
                              error=float(np.exp(-gamma)), mode=mode, gamma=gamma,
                              info_sum=float(S[0, col]), tail_mass=prior.tail_mass)


def stop_feedback_length_bound(H: float, eps: float, C: float, a0: float) -> float:
    """Average-length guarantee (H + ln(1/eps) + a0) / C, all in nats."""
    if C <= 0:
        raise ValueError("C must be positive")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    return (H + np.log(1.0 / eps) + a0) / C


def vlft_trial(dmc: Dmc, prior: MessagePrior, rng: RngStream,
               decode_rule: str = "map_stop") -> Transcript:
    """One zero-error VLFT trial: samples W from the prior, then transmits."""
    return vlft_transmit(dmc, prior, prior.sample(rng), rng, decode_rule)


def vlft_transmit(dmc: Dmc, prior: MessagePrior, w: int, rng: RngStream,
                  decode_rule: str = "map_stop") -> Transcript:
    """Transmit a given message with the zero-error VLFT scheme.

    The decoder's running estimate at time n is the index maximizing
    I_n(m) = i(C_m^n; Y^n) - i_W(m), ties broken toward the most probable
    (smallest) index.  Under the termination paradigm the stopping time may
    depend on the true message, so with decode_rule="map_stop" transmission
    stops at the first n where the running estimate equals the true message;
    decoding is then error-free by construction, and the usual union-bound
    length analysis applies unchanged.

    Two alternative rules stop at the true message's first prefix-dominance
    time (the first n where I_n(m) strictly exceeds every lower-index I_n(j))
    and decode from the channel output alone:

    - "first_dominance": smallest index whose first prefix-dominance time
      equals the stopping time;
    - "largest_at_stop": largest index that prefix-dominates at the stop.

    Those two are not zero-error on lattice-valued channels; any mismatch is
    counted as an anomaly, never silently dropped.  The true message's
    prefix-dominance time is recorded as tau for those rules.
    """
    if not prior.sorted_desc:
        raise ValueError("VLFT prior must be ordered by non-increasing probability")
    if prior.size > FULL_DECODER_MAX_SUPPORT:
        raise ValueError("vlft_trial tracks all lower-index messages; support too large")
    if decode_rule not in ("map_stop", "first_dominance", "largest_at_stop"):
        raise ValueError(f"unknown decode rule {decode_rule!r}")

    M = prior.size
    iw = prior.self_info
    neg_inf = -np.inf

    # time n = 0: I_0(m) = -i_W(m)
    i0 = -iw
    prefmax0 = np.concatenate(([neg_inf], np.maximum.accumulate(i0)[:-1]))
    first_dom = np.where(i0 > prefmax0, 0, -1)
    map_first = 0 if np.argmax(i0) == w else -1

    stop_found = map_first == 0 if decode_rule == "map_stop" else first_dom[w] == 0
    tau, info_sum, dom_at_tau_mask = 0, 0.0, i0 > prefmax0

    if not stop_found:
        for n0, carry, D, S in _running_sums(dmc, rng, np.arange(M), w, _BLOCK0):
            I = S - iw[:, None]
            prefmax = np.vstack([np.full((1, I.shape[1]), neg_inf),
                                 np.maximum.accumulate(I, axis=0)[:-1]])
            dom = I > prefmax
            newly = dom.any(axis=1) & (first_dom < 0)
            first_dom[newly] = n0 + 1 + np.argmax(dom[newly], axis=1)
            if map_first < 0:
                map_ok = np.argmax(I, axis=0) == w
                if map_ok.any():
                    map_first = n0 + 1 + int(np.argmax(map_ok))
            stop = map_first if decode_rule == "map_stop" else first_dom[w]
            if stop >= n0 + 1:
                tau = int(stop)
                col = tau - n0 - 1
                dom_at_tau_mask = I[:, col] > prefmax[:, col]
                info_sum = float(carry[w] + D[w, : col + 1].sum())
                break

    if decode_rule == "map_stop":
        decoded = w
    elif decode_rule == "first_dominance":
        decoded = int(np.flatnonzero(first_dom == tau).min())
    else:
        decoded = int(np.flatnonzero(dom_at_tau_mask).max())
    return Transcript(true_message=w, decoded=decoded, tau=tau,
                      error=float(decoded != w), mode="vlft_full",
                      info_sum=info_sum, anomaly=decoded != w,
                      tail_mass=prior.tail_mass)


def vlft_sum_trial(dmc: Dmc, prior: MessagePrior, rng: RngStream, n_max: int):
    """True-path contribution sum_{n=0}^{n_max} exp(-|i(X^n;Y^n) - i_W(W)|+).

    Returns (partial sum, summand at n_max) so the caller can verify the tail
    has converged.
    """
    w = prior.sample(rng)
    iw = prior.self_info[w]
    total = last = 1.0  # n = 0 term: exp(-|0 - iw|+) = 1 for iw >= 0
    for _, _, _, S in _running_sums(dmc, rng, [w], 0, _BLOCK0, n_max):
        terms = np.exp(-np.maximum(S[0] - iw, 0.0))
        total += float(terms.sum())
        last = float(terms[-1])
    return total, last


def vlft_length_via_sum(dmc: Dmc, prior: MessagePrior, master_seed: int,
                        trials: int, n_max: int = 512, tail_tol: float = 1e-6):
    """MC estimate of the union-bound length sum, true-path simulation only.

    Scales to arbitrarily large message sets.  Raises if the summand has not
    decayed below tail_tol by n_max.
    """
    vals, tails = run_trials(
        lambda t: vlft_sum_trial(dmc, prior, seed_stream(master_seed, t), n_max),
        trials).T
    if tails.mean() > tail_tol:
        raise RuntimeError(
            f"length-sum tail not converged: mean summand at n_max={n_max} is "
            f"{tails.mean():.3g} > {tail_tol}")
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(trials))


def vlf_converse_length(k: int, d: float, eps: float, rd, C: float) -> float:
    """Data-processing converse ell >= R_{S^k}(d,eps) / C (two-term R)."""
    if C <= 0:
        raise ValueError("C must be positive")
    R = max(source_expansion(k, d, eps, rd), 0.0)
    return R / C


def vlft_converse_length(k: int, d: float, eps: float, rd, C: float) -> float:
    """Smallest ell with C*ell + ln(ell+1) + 1 >= R_{S^k}(d,eps) (two-term R)."""
    if C <= 0:
        raise ValueError("C must be positive")
    R = max(source_expansion(k, d, eps, rd), 0.0)
    if R <= 1.0:
        return 0.0
    lo, hi = 0.0, R / C
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if C * mid + np.log(mid + 1) + 1.0 >= R:
            hi = mid
        else:
            lo = mid
    return hi


def thm1_length_bound(M: int, eps: float, C: float, a0: float) -> float:
    """Equiprobable baseline: (log M + ln(1/eps) + a0) / C."""
    return stop_feedback_length_bound(np.log(M), eps, C, a0)
