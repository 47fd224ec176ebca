"""Counter-based random stream: reproducibility, independence, statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsccsim import jscc, vlf
from jsccsim.channels import Dmc, bec, bsc, dmc_steps
from jsccsim.jscc import LossyCodebook, source_blocks
from jsccsim.ratedist import ba_rate_distortion, bernoulli_hamming, zero_rate_solution
from jsccsim.rng import (_GOLDEN, RngStream, _fold, _mix, _mix_int, _stream_uniforms, _unit,
                         draw_symbols, fold_keys, hash_thresholds, keyed_uniforms_2d,
                         seed_stream, trial_keys)
from jsccsim.vlf import LazyCodebook, MessagePrior

U64 = st.integers(0, 2 ** 64 - 1)


def test_same_seed_and_stream_replays_exactly():
    a = seed_stream(1234, 7).uniforms(1000)
    b = seed_stream(1234, 7).uniforms(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = seed_stream(9, 0).uniforms(64)
    b = seed_stream(9, 1).uniforms(64)
    assert not np.array_equal(a, b)


def test_uniforms_at_matches_sequential_draws():
    s = seed_stream(5, 0)
    full = s.uniforms(100)
    assert np.array_equal(seed_stream(5, 0).uniforms_at(30, 40), full[30:70])


def test_derive_produces_independent_substreams():
    s = seed_stream(3, 0)
    a = s.derive(1).uniforms(16)
    b = s.derive(2).uniforms(16)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, seed_stream(3, 0).derive(1).uniforms(16))


def test_keyed_uniforms_2d_is_a_pure_function_of_key_row_col():
    big = keyed_uniforms_2d(42, np.arange(8), 0, 32)
    assert np.array_equal(keyed_uniforms_2d(42, [3, 5], 0, 32), big[[3, 5]])
    assert np.array_equal(keyed_uniforms_2d(42, np.arange(8), 10, 12),
                          big[:, 10:22])


def test_uniform_marginals():
    u = seed_stream(77, 0).uniforms(10 ** 6)
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 4 * np.sqrt(1 / 12 / 1e6)
    assert abs(u.var() - 1 / 12) < 4e-4


def test_normal_marginals():
    z = seed_stream(11, 4).normals(10 ** 6)
    assert abs(z.mean()) < 4 / np.sqrt(1e6)
    assert abs(z.var() - 1.0) < 4 * np.sqrt(2 / 1e6)


def test_cross_stream_correlation_small():
    n = 10 ** 6
    a = seed_stream(21, 0).uniforms(n) - 0.5
    b = seed_stream(21, 1).uniforms(n) - 0.5
    corr = float(np.dot(a, b) / n) / (1 / 12)
    assert abs(corr) < 4 / np.sqrt(n)


def test_thousand_streams_no_first_sample_collisions():
    firsts = np.array([seed_stream(0, t).uniforms(1)[0] for t in range(1000)])
    # continuous uniforms: birthday collision probability is negligible
    assert np.unique(firsts).size == 1000


def test_stream_keys_injective_over_trial_ids():
    keys = {seed_stream(123, t).key for t in range(1000)}
    assert len(keys) == 1000


def test_rngstream_rejects_nothing_but_stays_deterministic_across_types():
    assert RngStream(np.uint64(5)).uniforms(4).tolist() == \
        RngStream(5).uniforms(4).tolist()


def _fold_oracle(key: int, word: int) -> int:
    """The fold on numpy uint64 scalars, as the vector hash computes it."""
    with np.errstate(over="ignore"):
        return int(_mix(np.uint64(key) ^ (_mix(np.uint64(word) + _GOLDEN) + _GOLDEN)))


@settings(deadline=None)
@given(U64)
def test_int_mix_matches_numpy_mix(z):
    assert _mix_int(z) == int(_mix(np.uint64(z)))


@settings(deadline=None)
@given(U64, U64)
def test_int_fold_matches_numpy_fold(key, word):
    assert _fold(key, word) == _fold_oracle(key, word)


@settings(deadline=None)
@given(U64, st.lists(U64, min_size=1, max_size=8), U64)
def test_vector_folds_match_int_fold(seed, ids, tag):
    keys = trial_keys(seed, ids)
    assert keys.tolist() == [seed_stream(seed, t).key for t in ids]
    assert fold_keys(keys, tag).tolist() == [_fold(key, tag) for key in keys.tolist()]


@settings(deadline=None)
@given(U64, st.lists(U64, min_size=1, max_size=8), st.integers(0, 64), st.integers(0, 16))
def test_keyed_rows_equal_the_draws_of_each_trial_stream(seed, ids, start, n):
    """Row i of the uniforms of the trial keys is what trial ids[i]'s stream
    draws after its first ``start`` values: the trial prelude of the
    simulators reads its counters this way."""
    rows = _stream_uniforms(trial_keys(seed, ids), start, n)
    for row, t in zip(rows.tolist(), ids):
        s = seed_stream(seed, t)
        s.uniforms(start)
        assert row == s.uniforms(n).tolist()


@settings(deadline=None)
@given(U64, U64, st.integers(1, 40))
def test_scalar_uniforms_equal_vector_uniforms(seed, stream, n):
    s = seed_stream(seed, stream)
    assert [s.uniform() for _ in range(n)] == seed_stream(seed, stream).uniforms(n).tolist()
    assert s.counter == n


@settings(deadline=None)
@given(U64, st.lists(st.integers(0, 5), max_size=12))
def test_scalar_and_vector_draws_share_one_counter(seed, sizes):
    """A size of 0 stands for one ``uniform()`` call."""
    s = seed_stream(seed, 3).derive(2)
    got = []
    for n in sizes:
        got += [s.uniform()] if n == 0 else s.uniforms(n).tolist()
    total = sum(max(n, 1) for n in sizes)
    assert s.counter == total
    assert got == seed_stream(seed, 3).derive(2).uniforms(total).tolist()


@pytest.mark.parametrize("make", [lambda: seed_stream(-1, 0),
                                  lambda: seed_stream(2 ** 64, 0),
                                  lambda: seed_stream(0, -1),
                                  lambda: seed_stream(0, 0).derive(-1),
                                  lambda: seed_stream(0, 0).derive(2 ** 64)])
def test_words_outside_uint64_raise_overflow(make):
    with pytest.raises(OverflowError):
        make()


DMC3 = Dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]])
# The cumulative pmfs that symbols are drawn from: the capacity-achieving
# inputs of BSC(0.11) and of a 3x3 DMC, the lossy output marginals of two
# Bernoulli sources, and edge values.
CUMS = {
    "bsc": bsc(0.11).caid_cum,
    "dmc3": DMC3.caid_cum,
    "lossy_half": np.cumsum(ba_rate_distortion(bernoulli_hamming(0.5), 0.125).output_pmf),
    "lossy_03": np.cumsum(ba_rate_distortion(bernoulli_hamming(0.3), 0.1).output_pmf),
    "edges": np.array([0.0, 2.0 ** -60, 0.5, 1 - 2.0 ** -53, 1.0, 1 + 2.0 ** -52]),
}


@pytest.mark.parametrize("name", list(CUMS))
def test_hash_thresholds_reproduce_the_float_compare_at_each_boundary(name):
    """h >= T[i] and _unit(h) >= cum[i] agree at m_i - 1, m_i and m_i + 1, with
    the low 11 bits of h all clear and all set."""
    cum = CUMS[name]
    T = hash_thresholds(cum)
    assert T.size == np.count_nonzero(cum <= 1.0)
    for c, t in zip(cum.tolist(), T.tolist()):
        m = t >> 11
        for mm in (m - 1, m, m + 1):
            if not 0 <= mm < 2 ** 53:
                continue
            h = np.array([mm << 11, (mm << 11) | 0x7FF], dtype=np.uint64)
            assert ((h >= np.uint64(t)) == (_unit(h.copy()) >= c)).all(), (name, c, mm - m)
    h = keyed_uniforms_2d(11, np.arange(64), 0, 64, raw=True)
    assert np.array_equal(_unit(h.copy()), keyed_uniforms_2d(11, np.arange(64), 0, 64))
    assert np.array_equal(np.searchsorted(T, h, side="right"),
                          np.searchsorted(cum, _unit(h.copy()), side="right"))


@pytest.mark.parametrize("name", ["bsc", "dmc3"])
def test_codebook_symbols_equal_inverse_cdf_sampling_of_the_uniforms(name):
    cum = CUMS[name]
    u = keyed_uniforms_2d(5, np.arange(300), 17, 40)
    want = ((u >= cum[0]).astype(np.int64) if cum.size == 2
            else np.searchsorted(cum, u, side="right"))
    assert np.array_equal(LazyCodebook(5, cum).block(np.arange(300), 17, 40), want)


@pytest.mark.parametrize("name", ["lossy_half", "lossy_03", "dmc3"])
def test_lossy_codewords_equal_inverse_cdf_sampling_of_the_uniforms(name):
    cum = CUMS[name]
    pmf = np.diff(cum, prepend=0.0)
    u = keyed_uniforms_2d(9, np.arange(100, 400), 0, 12)
    assert np.array_equal(LossyCodebook(9, 12, 500, pmf).chunk(100, 300),
                          np.searchsorted(np.cumsum(pmf), u, side="right"))


class _UnitStream:
    """A stream whose every uniform is 1.0."""

    def uniform(self):
        return 1.0


def _unit_uniforms(keys, start, n):
    return np.ones((np.size(keys), n))


def test_no_draw_falls_past_the_alphabet_at_the_top_hash(monkeypatch):
    """The largest hash gives the uniform 1.0, at or above the last entry of
    every cumulative pmf.  Every sampler draws its last symbol of positive
    mass from it, also where zero-mass symbols follow that one."""
    top = np.array([2 ** 64 - 1], dtype=np.uint64)
    assert _unit(top.copy()).tolist() == [1.0]
    # the last threshold of a full cumulative pmf is reachable
    assert hash_thresholds([0.5, 1.0])[-1] <= top[0]
    assert dmc_steps(bsc(0.11), np.array([0]), np.array([1.0])).tolist() == [1]
    assert dmc_steps(DMC3, np.array([0, 1, 2]), np.ones(3)).tolist() == [2, 2, 2]
    # W[0, 2] = 0 and W[1, 0] = 0 in the BEC
    assert dmc_steps(bec(0.2), np.array([0, 1]), np.ones(2)).tolist() == [1, 2]
    lossy_zero = zero_rate_solution(bernoulli_hamming(0.3), 0.5).output_pmf
    assert lossy_zero.tolist() == [1.0, 0.0]
    for thresholds, last in ((LazyCodebook(0, bsc(0.11).caid_cum)._thresholds, 1),
                             (LazyCodebook(0, DMC3.caid_cum)._thresholds, 2),
                             (LazyCodebook(0, np.cumsum([0.5, 0.5, 0.0]))._thresholds, 1),
                             (LossyCodebook(0, 4, 8, [0.5, 0.5])._thresholds, 1),
                             (LossyCodebook(0, 4, 8, [0.2, 0.3, 0.5])._thresholds, 2),
                             (LossyCodebook(0, 4, 8, lossy_zero)._thresholds, 0)):
        assert draw_symbols(top, thresholds).tolist() == [last]
    prior = MessagePrior([0.5, 0.3, 0.2])
    assert prior.sample(_UnitStream()) == 2
    monkeypatch.setattr(vlf, "_stream_uniforms", _unit_uniforms)
    monkeypatch.setattr(jscc, "_stream_uniforms", _unit_uniforms)
    assert prior.sample_many(np.arange(2, dtype=np.uint64)).tolist() == [2, 2]
    _, S = source_blocks(0, np.arange(2), [0.5, 0.5], 3)
    assert S.tolist() == [[1, 1, 1], [1, 1, 1]]
    _, S = source_blocks(0, np.arange(2), [0.5, 0.5, 0.0], 3)
    assert S.tolist() == [[1, 1, 1], [1, 1, 1]]
