"""Counter-based random number streams for reproducible parallel Monte Carlo,
and the one driver that runs every Monte-Carlo estimator's trials.

Every stream is a pure function of (master seed, stream id, counter), so a
trial can be replayed bit-exactly and trials can be dispatched to any number
of workers without coordinating state.  The generator is a splitmix64-style
counter hash: output i of a stream is finalize(key + i * GOLDEN).

The simulators draw the prelude of a shard of trials at once: the trial keys
(``trial_keys``), their sub-stream keys (``fold_keys``) and the values at
given counters of every key (``_stream_uniforms`` over an array of keys).
``RngStream`` is the per-trial form of the same streams; its key is a Python
int in [0, 2^64), and deriving a key, or drawing one value with
``RngStream.uniform``, runs the finalizer on Python ints masked to 64 bits.
The int ``_fold`` is the oracle of the vector fold.

Codebooks draw their symbols from the raw hashes of (key, row, column),
``keyed_uniforms_2d(..., raw=True)``, with ``draw_symbols``: it compares them
with ``hash_thresholds``, integer thresholds that give the same symbols as
inverse-CDF sampling of the uniforms without converting a hash to a float.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import ndtri

_GOLDEN_INT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(_GOLDEN_INT)
_U64 = np.uint64
_INV53 = 2.0 ** -53


def _mix(z, inplace: bool = False):
    """Stafford variant 13 of the splitmix64 finalizer (vectorized).  With
    ``inplace`` a uint64 array z is overwritten instead of copied.

    z is made an array first: uint64 array arithmetic, 0-d included, wraps
    modulo 2^64 without the overflow warning of numpy scalar arithmetic.
    """
    z = np.asarray(z, dtype=np.uint64) if inplace else np.array(z, dtype=np.uint64)
    t = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, _U64(shift), out=t)
        z ^= t
        z *= _U64(mult)
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


def _mix_int(z: int) -> int:
    """``_mix`` of one value in [0, 2^64), on Python ints."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _unit(h):
    """Top 53 bits of each hash as a uniform in (0, 1); overwrites h."""
    h >>= _U64(11)
    u = h.astype(np.float64)
    u += 0.5
    u *= _INV53
    return u


def _stream_uniforms(key, start: int, n: int) -> np.ndarray:
    """Uniforms [start, start+n) of the stream ``key``, or of each stream of an
    array of keys (one row per key)."""
    idx = np.arange(start, start + n, dtype=np.uint64)
    return _unit(_mix(np.asarray(key, dtype=np.uint64)[..., None] + idx * _GOLDEN,
                      inplace=True))


def _inner(word: int) -> int:
    """The word half of ``_fold``, on Python ints."""
    return (_mix_int((word + _GOLDEN_INT) & _MASK64) + _GOLDEN_INT) & _MASK64


def _fold(key: int, word) -> int:
    """Key of the sub-stream ``word`` of ``key``; word must lie in [0, 2^64)."""
    word = int(word)
    if not 0 <= word <= _MASK64:
        raise OverflowError(f"stream word {word} out of bounds for uint64")
    return _mix_int(key ^ _inner(word))


def fold_keys(keys, word: int) -> np.ndarray:
    """``_fold(key, word)`` for every key of the uint64 array ``keys``."""
    return _mix(np.asarray(keys, dtype=np.uint64) ^ _U64(_inner(word)), inplace=True)


def trial_keys(master_seed: int, ids) -> np.ndarray:
    """``seed_stream(master_seed, t).key`` for every trial id t of ``ids``: the
    vector form of ``_fold`` over the words ``ids``."""
    inner = _mix(np.asarray(ids, dtype=np.uint64) + _GOLDEN, inplace=True)
    inner += _GOLDEN
    return _mix(inner ^ _U64(_fold(_GOLDEN_INT, master_seed)), inplace=True)


def keyed_uniforms_2d(key, rows, col_start, cols, raw: bool = False):
    """Uniforms u[..., r, c] in (0,1) keyed by (key, rows[..., r], s + c), where
    s is ``col_start``, or ``col_start[..., r]`` for one first column per row.

    ``key`` is one key, with rows of shape (R,); or an array of T keys, with
    rows of shape (R,) shared by every key or (T, R), one row list per key,
    giving a (T, R, cols) array.  The value at a given (key, row, column)
    never depends on which block of columns is requested, which makes lazily
    generated infinite codewords reproducible without storage.

    ``raw=True`` returns the uint64 hashes that the uniforms are ``_unit`` of;
    the symbol samplers draw from them with ``draw_symbols``.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    keys = np.asarray(key, dtype=np.uint64)[..., None]
    # (s + c) * GOLDEN modulo 2^64, as s * GOLDEN + c * GOLDEN
    step = np.asarray(col_start, dtype=np.uint64)[..., None] * _GOLDEN
    step = step + np.arange(cols, dtype=np.uint64) * _GOLDEN
    inner = _mix(keys + rows * _GOLDEN, inplace=True)[..., None]
    h = _mix(inner + step, inplace=True)
    return h if raw else _unit(h)


def hash_thresholds(cum) -> np.ndarray:
    """uint64 thresholds T with ``h >= T[i]`` exactly when ``_unit(h) >= cum[i]``,
    for every uint64 hash h, over a non-decreasing ``cum``.  Entries that no
    uniform reaches (above 1) are dropped, so
    ``np.searchsorted(T, h, side="right")`` equals
    ``np.searchsorted(cum, _unit(h), side="right")``.

    ``_unit(h)`` depends on h only through m = h >> 11 and does not decrease
    with m, so T[i] is m_i << 11 for the smallest m_i whose uniform
    (m_i + 0.5) * 2^-53, evaluated as ``_unit`` does, reaches cum[i].
    """
    top = (1 << 53) - 1
    out = []
    for c in np.asarray(cum, dtype=np.float64).tolist():
        if c > 1:  # the largest uniform, (top + 0.5) * 2^-53, rounds to 1.0
            break
        m = min(max(math.ceil(c * 2.0 ** 53 - 0.5), 0), top)
        while m > 0 and (m - 1 + 0.5) * _INV53 >= c:
            m -= 1
        while (m + 0.5) * _INV53 < c:
            m += 1
        out.append(m << 11)
    return np.array(out, dtype=np.uint64)


def draw_cum(cum) -> np.ndarray:
    """The entries of the cumulative pmf ``cum`` (along its last axis) that
    inverse-CDF sampling compares a uniform u with: the symbol drawn is the
    number of them at or below u.  The entries from the last symbol of
    positive mass on, which equal the total, are dropped: the last is cut
    and the others become inf, per row of a 2-D ``cum``.  So no u, not even
    the 1.0 of the top hash, draws a symbol of zero mass, and the other
    entries are kept as they are."""
    cum = np.asarray(cum, dtype=np.float64)
    head = cum[..., :-1]
    return np.where(head < cum[..., -1:], head, np.inf)


def draw_symbols(h, thresholds: np.ndarray) -> np.ndarray:
    """Symbols of the raw hashes h: the number of ``thresholds`` at or below
    each hash.  With the thresholds ``hash_thresholds(draw_cum(cum))`` of a
    cumulative pmf this is inverse-CDF sampling of the uniforms, and no draw
    lands on a symbol of zero mass.  A binary alphabet, one threshold, takes
    a single compare."""
    if thresholds.size == 1:
        return (h >= thresholds[0]).astype(np.int64)
    return np.searchsorted(thresholds, h, side="right")


class RngStream:
    """One reproducible stream, identified by (master_seed, stream_id).

    The stream owns a counter: ``uniforms(n)`` consumes the next n indices.
    ``derive(tag)`` forks a statistically independent sub-stream with its own
    counter (used e.g. to separate codebook randomness from channel noise
    within one trial).
    """

    def __init__(self, master_seed: int, stream_id: int = 0, _key=None):
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        if _key is None:
            _key = _fold(_fold(_GOLDEN_INT, master_seed), stream_id)
        self._key = _key
        self.counter = 0

    def derive(self, tag: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_id, _key=_fold(self._key, tag))

    @property
    def key(self) -> int:
        return self._key

    def uniform(self) -> float:
        """Next uniform in (0,1): the value ``uniforms(1)[0]`` would return."""
        h = _mix_int((self._key + self.counter * _GOLDEN_INT) & _MASK64)
        self.counter += 1
        return ((h >> 11) + 0.5) * _INV53

    def uniforms(self, n: int) -> np.ndarray:
        """Next n uniforms in (0,1)."""
        u = _stream_uniforms(self._key, self.counter, n)
        self.counter += n
        return u

    def uniforms_at(self, start: int, n: int) -> np.ndarray:
        """Uniforms for absolute counter positions [start, start+n), no state change."""
        return _stream_uniforms(self._key, start, n)

    def normals(self, n: int) -> np.ndarray:
        return ndtri(self.uniforms(n))


def seed_stream(master_seed: int, trial_id: int) -> RngStream:
    """Stream for one trial; the (master, trial) -> stream map is injective."""
    return RngStream(master_seed, trial_id)


def run_trials(fn, trials: int, workers: int = 1) -> np.ndarray:
    """Evaluate fn(ids) -> one row of floats per trial id over contiguous
    shards of range(trials), and stack the rows in trial-id order.

    There is one shard per worker; with more than one, the shards run on a
    thread pool.  A trial that draws only from its own stream (key
    ``trial_keys(seed, [trial_id])``) is a pure function of its id, so the
    rows, and every reduction over them, are the same for any worker count.
    """
    shards = np.array_split(np.arange(trials), max(1, min(workers, trials)))
    if len(shards) == 1:
        parts = [fn(shards[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            parts = list(pool.map(fn, shards))
    return np.concatenate([np.asarray(p, dtype=np.float64).reshape(len(ids), -1)
                           for p, ids in zip(parts, shards)])


def half_width(x: np.ndarray) -> float:
    """95% normal-approximation half-width of the mean of x; 0.0 for one sample."""
    return float(1.96 * float(x.std(ddof=1)) / np.sqrt(x.size)) if x.size > 1 else 0.0


def stat(x: np.ndarray) -> dict:
    """The record metric of the samples x: their mean, its 95% half-width and
    the sample count."""
    return {"estimate": float(x.mean()), "half_width": half_width(x), "n": int(x.size)}
