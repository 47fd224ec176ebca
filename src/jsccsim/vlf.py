"""Executable stop-feedback and zero-error variable-length-with-termination
codes over a simulated DMC, with the matching closed-form bound evaluators.

Codewords are infinite i.i.d. strings from the capacity-achieving input
distribution, generated lazily: symbol (message m, time n) is a pure function
of (codebook key, m, n), so trials replay bit-exactly and the true-path and
full-decoder modes of the same trial share their codewords and channel noise.

Trials run in chunks.  One kernel, ``_running_sums``, advances the
information-density sums of a chunk of trials over (trials x rows x uses)
arrays, _SUBSTEP uses at a time, and retires each trial at the end of the
sub-step in which a stopping rule says so: the threshold crossing of
stop-feedback (``stop_feedback_many``), one of the three VLFT rules
(``vlft_many``), or use n_max of the length sum (``vlft_sum_many``), whose
rule keeps only the terms up to it.  One schedule of blocks (``_blocks``),
32 uses or more doubling to 512, fixes where the sums are carried and so
their rounding; the sub-steps resume each block's cumsum and give its
floats bit for bit.  Trial keys come from ``rng.trial_keys``, a vectorised
fold over trial ids, messages from ``MessagePrior.sample_many``, and every
trial follows the one block schedule, so its numbers are those it gets when
run alone.  A stopping rule reads only the sub-step's sums and its own
state: stop-feedback reports the true row's sum at tau, the float its
threshold test compared, and the length sum adds its terms one use at a
time, in order.

The full decoder of ``stop_feedback_many`` takes one of two paths by the
prior's row count.  Below _PRUNE_ROWS = 512 rows it runs the batched kernel.
From 512 rows on, ``_pruned_trials`` runs one trial at a time and hashes
only the rows whose sum can still reach their threshold; its numbers are
bit-identical to the kernel's (see notes/decisions.md).

Codebook symbols are drawn on the raw uint64 hashes, compared with integer
thresholds that reproduce inverse-CDF sampling of the uniforms exactly
(``rng.draw_symbols``).  ``stop_feedback_transmit`` and ``vlft_transmit``
send one given message as a batch of one; no simulator calls them, and they
stay as the per-trial API of the tests and golden transcripts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .channels import Dmc, dmc_steps
from .info import entropy
from .ratedist import source_expansion
from .rng import (RngStream, _stream_uniforms, draw_cum, draw_symbols, fold_keys,
                  hash_thresholds, keyed_uniforms_2d, run_trials, trial_keys)

TRIAL_USE_CAP = 10 ** 9
_BLOCK0 = 32
_BLOCK_MAX = 512
# Working-set cap of the kernel: (trial, row, column) cells per array of one
# sub-step of a chunk of trials.  A chunk always takes at least one trial.
_CELLS = 2 ** 17

STOP_FEEDBACK_MODES = ("full_decoder", "true_path")
VLFT_DECODE_RULES = ("map_stop", "first_dominance", "largest_at_stop")

FULL_DECODER_MAX_SUPPORT = 2 ** 20
# Rows of a full-decoder prior from which ``stop_feedback_many`` runs the
# bound-pruned decoder; below it the batched kernel is faster.  Set where the
# measured per-trial times cross (see notes/decisions.md).
_PRUNE_ROWS = 512
# Uses per sub-step of the kernel and of the pruned decoder: a trial stops
# paying for hashing at the end of the sub-step in which it stops.
_SUBSTEP = 8


class MessagePrior:
    """Finite message distribution; countable priors enter truncated."""

    def __init__(self, pmf):
        pmf = np.asarray(pmf, dtype=np.float64)
        if pmf.ndim != 1 or np.any(pmf <= 0):
            raise ValueError("prior must be a vector of strictly positive entries")
        if abs(pmf.sum() - 1.0) > 1e-9:
            raise ValueError("prior must sum to 1")
        self.pmf = pmf / pmf.sum()
        self.self_info = -np.log(self.pmf)  # nats
        self._cum = draw_cum(np.cumsum(self.pmf))

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
        return int(np.searchsorted(self._cum, rng.uniform(), side="right"))

    def sample_many(self, keys) -> np.ndarray:
        """``sample`` of a fresh stream for each key: one message per key,
        drawn with the stream's first uniform."""
        u = _stream_uniforms(keys, 0, 1)[:, 0]
        return np.searchsorted(self._cum, u, side="right")


def uniform_prior(M: int) -> MessagePrior:
    if M < 1:
        raise ValueError("M must be at least 1")
    return MessagePrior(np.full(M, 1.0 / M))


def geometric_prior(q: float) -> MessagePrior:
    """Truncated geometric prior P(m) ~ (1-q) q^{m-1}; a tail of at most 1e-9
    folded into the last retained message."""
    if not 0 < q < 1:
        raise ValueError("q must be in (0,1)")
    m = max(2, int(np.ceil(np.log(1e-9) / np.log(q))))
    p = (1 - q) * q ** np.arange(m)
    p[-1] += 1.0 - p.sum()
    # folding can push the last mass above its neighbor; restore the ordering
    p = np.sort(p)[::-1]
    return MessagePrior(p)


class LazyCodebook:
    """Infinite random codebook: symbol (m, n) ~ caid, keyed by (seed, m, n).

    ``key`` is one codebook key, or an array of keys, one codebook per trial;
    ``block`` then returns (trials, rows, length) symbols (see
    ``keyed_uniforms_2d`` for the shapes of the rows).
    """

    def __init__(self, key, caid_cum: np.ndarray):
        self.key = key if isinstance(key, np.ndarray) else int(key)
        self.caid_cum = caid_cum
        self._thresholds = hash_thresholds(draw_cum(caid_cum))

    def block(self, messages, n0: int, length: int) -> np.ndarray:
        # symbols drawn on the raw hashes: the same as inverse-CDF sampling of
        # keyed_uniforms_2d (see hash_thresholds)
        return draw_symbols(keyed_uniforms_2d(self.key, messages, n0, length, raw=True),
                            self._thresholds)


@dataclass
class Transcript:
    """One simulated trial."""

    true_message: int
    decoded: int | None
    tau: int                 # channel uses until the decoder's stop
    error: float             # 0/1 in full_decoder mode; exp(-gamma) in true_path
    info_sum: float = float("nan")   # stop-feedback: the true row's running sum at tau
    anomaly: bool = False            # VLFT decode-rule mismatch, logged not hidden


def _chunk_trials(rows: int) -> int:
    """Trials per chunk of the kernel: sub-step arrays of at most _CELLS cells."""
    return max(1, _CELLS // (rows * _SUBSTEP))


def _blocks(dmc: Dmc, block: int):
    """The block schedule, (first use, length) pairs: blocks of ``block`` uses
    doubling up to _BLOCK_MAX, until a trial passes TRIAL_USE_CAP uses."""
    n0, size = 0, block
    while True:
        if n0 > TRIAL_USE_CAP:
            raise RuntimeError(f"trial exceeded {TRIAL_USE_CAP} channel uses "
                               f"(C={dmc.C}); check the configuration")
        yield n0, size
        n0 += size
        size = min(2 * size, _BLOCK_MAX)


def _running_sums(dmc: Dmc, keys: np.ndarray, rows: np.ndarray, w_row: np.ndarray,
                  block: int, stop, ids: np.ndarray):
    """Advance the running information-density sums of the trials ``ids``
    sub-step by sub-step until ``stop`` retires each of them.

    Trial i has stream key keys[i] and sends row w_row[i] of its rows:
    ``rows`` is one row list shared by every trial (shape (R,)) or one per
    trial (shape (T, R)).  Codewords come from sub-stream 1 of each trial and
    channel noise from sub-stream 2.  Every trial follows the block schedule
    of ``_blocks``.

    The trials run in chunks of ``_chunk_trials(R)``, whose sub-step arrays
    (trial, row, column) have at most _CELLS cells; a chunk takes at least
    one trial and runs its blocks until its last trial stops.  A block only
    sets where a row's sum is carried: its sums are the carry K, the row's
    sum over the uses before the block, plus the cumsum P of its densities
    since the block started.  Within a block a chunk advances in sub-steps of
    _SUBSTEP uses, resuming P from the previous sub-step, and a trial that
    stops leaves at the end of its sub-step; at the block's end K += P.
    These are the floats of one cumsum over the whole block (see "Why
    sub-steps are exact" in notes/decisions.md).  Per sub-step,
    ``stop(idx, pos, lo, S)`` gets the live trials ``idx`` of the chunk,
    their positions ``pos`` in the chunk, the sub-step's first use lo and
    the sums S[j, r, c] of row r at use lo + c + 1; it returns which of the
    trials stop.
    """
    R = rows.shape[-1]
    cb_keys, noise_keys = fold_keys(keys, 1), fold_keys(keys, 2)
    chunk = _chunk_trials(R)
    for c in range(0, ids.size, chunk):
        idx = ids[c:c + chunk]
        pos, K = np.arange(idx.size), np.zeros((idx.size, R))
        for n0, length in _blocks(dmc, block):
            P = np.zeros_like(K)
            for lo in range(n0, n0 + length, _SUBSTEP):
                n = min(_SUBSTEP, n0 + length - lo)
                X = LazyCodebook(cb_keys[idx], dmc.caid_cum).block(
                    rows if rows.ndim == 1 else rows[idx], lo, n)
                y = dmc_steps(dmc, X[np.arange(idx.size), w_row[idx]],
                              _stream_uniforms(noise_keys[idx], lo, n))
                S = dmc.log_density[X, y[:, None, :]]
                # sub-step arrays set the peak memory at large M (and the
                # thread count times the working set with workers): drop
                # each as soon as it is used
                del X
                # resume the block's cumsum: S becomes P, then P + K
                S[:, :, 0] += P
                np.cumsum(S, axis=2, out=S)
                P = S[:, :, -1].copy()
                S += K[:, :, None]
                done = stop(idx, pos, lo, S)
                del S
                if done.any():
                    keep = ~done
                    pos, idx, K, P = pos[keep], idx[keep], K[keep], P[keep]
                    if not idx.size:
                        break
            if not idx.size:
                break
            K += P


def _pruned_trials(dmc: Dmc, thresholds: np.ndarray, keys: np.ndarray, w: np.ndarray,
                   block: int):
    """(tau, decoded, info_sum) of full-decoder trials with stream keys
    ``keys`` and messages w, one trial at a time: the numbers ``_running_sums``
    gives, from only the rows that can still reach their threshold.

    A trial walks the block schedule of ``_blocks`` and advances in
    sub-steps of _SUBSTEP uses.  Row r keeps its last computed use n[r], its
    carry K[r] at the start of that use's block and its partial cumsum P[r]
    within the block, so P[r] + K[r] is the float the batched kernel holds for
    it at use n[r].  In the sub-step that ends at use N, row r is brought up
    to N only if P[r] + K[r] + (N - n[r]) * d_max reaches its threshold less
    a rounding margin; no other row can cross by N (see "Why the pruned
    decoder is exact" in notes/decisions.md).  The true row is always brought
    up, so its sum at tau is the one the kernel's stop rule reads.
    """
    ld = dmc.log_density
    d_max = np.nextafter(dmc.density_max, np.inf)
    # a computed sum over n uses is within 3 n^2 u d_abs of the exact one, u = 2^-53
    d_abs = np.nextafter(np.abs(ld[np.isfinite(ld)]).max(), np.inf)
    thr_lo = thresholds - 2.0 ** -50 * np.abs(thresholds)
    M = thresholds.size

    def trial(cb_key, noise_key, w):
        cb = LazyCodebook(cb_key, dmc.caid_cum)
        n, K, P = np.zeros(M, np.int64), np.zeros(M), np.zeros(M)
        edges, y = [0], np.zeros(0, np.int64)
        for n0, size in _blocks(dmc, block):
            xw = cb.block([w], n0, size)[0]
            y = np.concatenate((y, dmc_steps(dmc, xw, _stream_uniforms(noise_key, n0, size))))
            edges.append(n0 + size)
            for lo in range(n0, n0 + size, _SUBSTEP):
                N = min(lo + _SUBSTEP, n0 + size)
                margin = 2.0 ** -50 * (N + 1) ** 2 * d_abs
                live = (N - n) * d_max + (P + K) >= thr_lo - margin
                live[w] = True
                rows = np.flatnonzero(live)
                starts = n[rows]
                a_w, hit = n[w], None
                for a in np.unique(starts).tolist():
                    g = rows[starts == a]
                    S = _catch_up(cb, ld, y, edges, g, a, N, K, P)
                    n[g] = N
                    if a == a_w:
                        sw = S[np.searchsorted(g, w)]
                    crossed = S[:, lo - N:] >= thresholds[g, None]
                    col = crossed.any(axis=0)
                    if col.any():
                        c = int(col.argmax())
                        first = (lo + 1 + c, int(g[crossed[:, c].argmax()]))
                        hit = first if hit is None else min(hit, first)
                if hit is not None:
                    # the true row's sum at tau, the last column being use N
                    return (*hit, sw[hit[0] - N - 1])

    cb_keys, noise_keys = fold_keys(keys, 1), fold_keys(keys, 2)
    tau, decoded, info_sum = np.zeros(w.size, np.int64), w.copy(), np.zeros(w.size)
    for t in range(w.size):
        tau[t], decoded[t], info_sum[t] = trial(cb_keys[t], noise_keys[t], int(w[t]))
    return tau, decoded, info_sum


def _catch_up(cb: LazyCodebook, ld: np.ndarray, y: np.ndarray, edges: list,
              g: np.ndarray, a: int, N: int, K: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Bring the rows g from use a to use N, updating their carries K and
    partial cumsums P in place, and return their sums S = P + K over the
    uses of the last block segment, a (rows, uses) array.

    A row at the end of a block first folds its partial into its carry,
    K = P + K, as the batched kernel carries S[-1]; a row inside a block
    resumes its cumsum from P.  numpy's cumsum along an axis adds in order,
    so the partials equal those of one cumsum over the whole block.
    """
    b = bisect_right(edges, a) - 1
    while True:
        lo, hi = max(a, edges[b]), min(N, edges[b + 1])
        if lo == edges[b] and lo > 0:
            K[g] += P[g]
            P[g] = 0.0
        D = ld[cb.block(g, lo, hi - lo), y[lo:hi]]
        D[:, 0] += P[g]
        np.cumsum(D, axis=1, out=D)
        P[g] = D[:, -1]
        if hi == N:
            D += K[g][:, None]
            return D
        b += 1


def _batch_args(keys, w):
    """Stream keys and messages of a batch as uint64 and int64 arrays."""
    return np.asarray(keys, dtype=np.uint64), np.asarray(w, dtype=np.int64)


def stop_feedback_transmit(dmc: Dmc, prior: MessagePrior, gamma: float, w: int,
                           mode: str, rng: RngStream) -> Transcript:
    """Transmit a given message with per-message thresholds gamma + i_W(m).

    full_decoder: runs all M accumulated densities, stops at the first
    threshold crossing, decodes the earliest-crossing message (smallest index
    on ties).  true_path: runs only the true message's sum and returns its
    crossing time tau_W >= tau*, with the analytic error bound exp(-gamma)
    in place of an error flag.  A batch of one of ``stop_feedback_many``.
    """
    tau, decoded, error, info_sum = stop_feedback_many(dmc, prior, gamma, mode,
                                                       [rng.key], [w])
    return Transcript(true_message=w,
                      decoded=int(decoded[0]) if mode == "full_decoder" else None,
                      tau=int(tau[0]), error=float(error[0]), info_sum=float(info_sum[0]))


def stop_feedback_many(dmc: Dmc, prior: MessagePrior, gamma: float, mode: str,
                       keys, w):
    """Stop-feedback trials with stream keys ``keys``, trial i transmitting
    message w[i]: the batched ``stop_feedback_transmit``.

    Returns (tau, decoded, error, info_sum) arrays, where info_sum is the
    true row's running sum at tau, the float the threshold test compared; where
    both modes stop at the same tau they report the same float.  In true_path
    mode decoded is w and error is the analytic exp(-gamma).  A full decoder
    over _PRUNE_ROWS or more messages runs ``_pruned_trials``, which gives
    the same arrays.
    """
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if mode not in STOP_FEEDBACK_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    full = mode == "full_decoder"
    if full and prior.size > FULL_DECODER_MAX_SUPPORT:
        raise ValueError("full_decoder mode supports at most 2^20 messages")
    keys, w = _batch_args(keys, w)
    tau, decoded, info_sum = np.zeros(w.size, np.int64), w.copy(), np.zeros(w.size)
    rows = np.arange(prior.size) if full else w[:, None]
    thresholds = gamma + prior.self_info[rows]

    def stop(idx, pos, lo, S):
        crossed = S >= (thresholds[:, None] if full else thresholds[idx][:, :, None])
        any_row = crossed.any(axis=1)
        hit = any_row.any(axis=1)
        j = np.flatnonzero(hit)
        col = any_row[j].argmax(axis=1)
        t = idx[j]
        tau[t] = lo + 1 + col
        if full:
            # the earliest-crossing message, smallest index on ties
            decoded[t] = crossed[j, :, col].argmax(axis=1)
        # the true row's running sum at the decoder's stopping time
        info_sum[t] = S[j, w[t] if full else 0, col]
        return hit

    # The first block fixes where the sums are carried, and so the rounding
    # of every sum after it: it stays at this size so that records stay
    # bit-identical, while stopped trials leave at their sub-step's end.
    expect = (prior.entropy + gamma + dmc.a0) / dmc.C
    block0 = int(np.clip(32 * np.ceil(1.25 * expect / 32), _BLOCK0, _BLOCK_MAX))
    if full and prior.size >= _PRUNE_ROWS:
        tau, decoded, info_sum = _pruned_trials(dmc, thresholds, keys, w, block0)
    else:
        _running_sums(dmc, keys, rows, w if full else np.zeros_like(w), block0, stop,
                      np.arange(w.size))
    error = (decoded != w).astype(np.float64) if full else np.full(w.size, np.exp(-gamma))
    return tau, decoded, error, info_sum


class LengthBoundError(ValueError):
    """A configuration whose trials would run toward TRIAL_USE_CAP uses."""


def trial_length_bound(dmc: Dmc, H: float, gamma: float = 0.0) -> float:
    """The expected-length bound (H + gamma + a0) / C, in channel uses, of
    trials with prior entropy H and threshold offset gamma; a
    LengthBoundError when it exceeds TRIAL_USE_CAP."""
    bound = (H + gamma + dmc.a0) / dmc.C
    if not bound <= TRIAL_USE_CAP:
        raise LengthBoundError(f"C={dmc.C:.3g} nats gives the length bound (H + gamma + a0)/C "
                               f"= {bound:.3g} uses, above the {TRIAL_USE_CAP} cap")
    return bound


def stop_feedback_length_bound(H: float, eps: float, C: float, a0: float) -> float:
    """Average-length guarantee (H + ln(1/eps) + a0) / C, all in nats, where a0
    bounds the overshoot of the threshold crossing: at least the largest
    single-use information density (``Dmc.density_max``)."""
    if C <= 0:
        raise ValueError("C must be positive")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    return (H + np.log(1.0 / eps) + a0) / C


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
    prefix-dominance time is recorded as tau for those rules.  A batch of one
    of ``vlft_many``; the transcript's ``info_sum`` stays NaN.
    """
    tau, decoded, error = vlft_many(dmc, prior, [rng.key], [w], decode_rule)
    return Transcript(true_message=w, decoded=int(decoded[0]), tau=int(tau[0]),
                      error=float(error[0]), anomaly=bool(error[0]))


def vlft_many(dmc: Dmc, prior: MessagePrior, keys, w, decode_rule: str = "map_stop"):
    """Zero-error VLFT trials with stream keys ``keys``, trial i transmitting
    message w[i]: the batched ``vlft_transmit``.

    Returns (tau, decoded, error) arrays; error is 1.0 where the decoded
    message is not w, which is an anomaly of the dominance rules.
    """
    if not prior.sorted_desc:
        raise ValueError("VLFT prior must be ordered by non-increasing probability")
    if prior.size > FULL_DECODER_MAX_SUPPORT:
        raise ValueError("vlft tracks all lower-index messages; support too large")
    if decode_rule not in VLFT_DECODE_RULES:
        raise ValueError(f"unknown decode rule {decode_rule!r}")
    keys, w = _batch_args(keys, w)
    M, iw = prior.size, prior.self_info
    map_rule = decode_rule == "map_stop"

    # time n = 0: I_0(m) = -i_W(m)
    i0 = -iw
    dom0 = i0 > np.concatenate(([-np.inf], np.maximum.accumulate(i0)[:-1]))
    at0 = w == np.argmax(i0) if map_rule else dom0[w]
    tau, decoded = np.zeros(w.size, np.int64), w.copy()
    if decode_rule == "first_dominance":
        decoded[at0] = np.argmax(dom0)
        first_dom0 = np.where(dom0, 0, -1)
        # first prefix-dominance time of each row, per position of a chunk
        first_dom = np.empty((min(w.size, _chunk_trials(M)), M), np.int64)
    elif decode_rule == "largest_at_stop":
        decoded[at0] = M - 1 - np.argmax(dom0[::-1])

    def stop(idx, pos, lo, S):
        I = S - iw[:, None]
        wi = w[idx]
        if map_rule:
            # the running estimate, smallest index on ties, equals W
            hits = I.argmax(axis=1) == wi[:, None]
        else:
            prefmax = np.full_like(I, -np.inf)
            np.maximum.accumulate(I[:, :-1], axis=1, out=prefmax[:, 1:])
            dom = I > prefmax
            hits = dom[np.arange(idx.size), wi]
        hit = hits.any(axis=1)
        j = np.flatnonzero(hit)
        col = hits[j].argmax(axis=1)
        t = idx[j]
        tau[t] = lo + 1 + col
        if decode_rule == "first_dominance":
            fd = first_dom[pos] if lo else np.tile(first_dom0, (idx.size, 1))
            newly = dom.any(axis=2) & (fd < 0)
            fd[newly] = (lo + 1 + dom.argmax(axis=2))[newly]
            first_dom[pos] = fd
            decoded[t] = (fd[j] == tau[t][:, None]).argmax(axis=1)
        elif decode_rule == "largest_at_stop":
            decoded[t] = M - 1 - dom[j, ::-1, col].argmax(axis=1)
        return hit

    _running_sums(dmc, keys, np.arange(M), w, _BLOCK0, stop, np.flatnonzero(~at0))
    return tau, decoded, (decoded != w).astype(np.float64)


def vlft_sum_many(dmc: Dmc, prior: MessagePrior, keys, w, n_max: int):
    """True-path contributions sum_{n=0}^{n_max} exp(-|i(X^n;Y^n) - i_W(W)|+)
    of the trials with stream keys ``keys`` and messages w.

    Returns (partial sums, summands at n_max) arrays, so the caller can
    verify the tail has converged."""
    keys, w = _batch_args(keys, w)
    iw = prior.self_info[w]
    total, last = np.ones(w.size), np.ones(w.size)  # n = 0 term: exp(-|0 - iw|+) = 1

    def stop(idx, pos, lo, S):
        # the terms of the uses up to n_max; every trial stops at n_max
        terms = np.exp(-np.maximum(S[:, 0, :n_max - lo] - iw[idx, None], 0.0))
        last[idx] = terms[:, -1]
        # added one by one in use order, so the totals do not depend on the
        # sub-step size
        terms[:, 0] += total[idx]
        total[idx] = np.cumsum(terms, axis=1)[:, -1]
        return np.full(idx.size, lo + S.shape[2] >= n_max)

    if n_max > 0:
        _running_sums(dmc, keys, w[:, None], np.zeros_like(w), _BLOCK0, stop,
                      np.arange(w.size))
    return total, last


def vlft_length_via_sum(dmc: Dmc, prior: MessagePrior, master_seed: int,
                        trials: int, n_max: int = 512):
    """MC estimate of the union-bound length sum, true-path simulation only.

    Scales to arbitrarily large message sets.  Raises if the mean summand has
    not decayed below 1e-6 by n_max.
    """
    def shard(ids):
        keys = trial_keys(master_seed, ids)
        return np.column_stack(vlft_sum_many(dmc, prior, keys, prior.sample_many(keys),
                                             n_max))

    vals, tails = run_trials(shard, trials).T
    if tails.mean() > 1e-6:
        raise RuntimeError(
            f"length-sum tail not converged: mean summand at n_max={n_max} is "
            f"{tails.mean():.3g} > 1e-06")
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

