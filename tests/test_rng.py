"""Counter-based random stream: reproducibility, independence, statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsccsim.rng import (_GOLDEN, RngStream, _fold, _mix, _mix_int, _stream_uniforms,
                         fold_keys, keyed_uniforms_2d, seed_stream, trial_keys)

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
