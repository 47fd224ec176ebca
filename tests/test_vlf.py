"""Stop-feedback and zero-error variable-length codes with termination."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsccsim import harness, vlf
from jsccsim.channels import Dmc, bec, bsc
from jsccsim.info import LN2
from jsccsim.rng import seed_stream, trial_keys
from jsccsim.vlf import (MessagePrior, geometric_prior,
                         stop_feedback_length_bound, stop_feedback_many,
                         stop_feedback_transmit, uniform_prior, vlf_converse_length,
                         vlft_converse_length, vlft_many, vlft_sum_many,
                         vlft_transmit)

NOISELESS = Dmc([[1.0, 0.0], [0.0, 1.0]])


def test_prior_validation():
    with pytest.raises(ValueError):
        MessagePrior([0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        MessagePrior([0.5, 0.4])
    p = MessagePrior([0.5, 0.3, 0.2])
    assert p.sorted_desc and p.size == 3
    assert p.self_info[0] == pytest.approx(np.log(2))


def test_geometric_prior_truncation():
    for q in (0.3, 0.5, 0.7, 0.9):
        pr = geometric_prior(q)
        assert pr.sorted_desc
        assert abs(pr.pmf.sum() - 1) < 1e-12
        assert 0 < q ** pr.size <= 1e-9  # the tail folded into the last message
    with pytest.raises(ValueError):
        geometric_prior(1.0)


def test_noiseless_two_messages_enumerated_behavior():
    # per-message threshold gamma + i_W(m) = 2 ln2 - tiny: the true sum
    # (ln2 per use) crosses at n = 2, and an error needs the competing
    # codeword to match the output twice AND win the smallest-index tie,
    # so P(error) = (1/2) * (1/4) = 1/8 <= exp(-gamma) = 1/2
    prior = uniform_prior(2)
    gamma = np.log(2) - 1e-9
    errs = []
    for t in range(2000):
        rng = seed_stream(100, t)
        tr = stop_feedback_transmit(NOISELESS, prior, gamma, prior.sample(rng),
                                    "full_decoder", rng)
        assert tr.tau == 2
        if tr.error:
            assert tr.true_message == 1 and tr.decoded == 0
        errs.append(tr.error)
    mean = np.mean(errs)
    se = np.std(errs, ddof=1) / np.sqrt(len(errs))
    assert abs(mean - 1 / 8) < 4 * se
    assert mean <= np.exp(-gamma)


def test_single_message_length_tracks_gamma_over_capacity():
    ch = bsc(0.11)
    prior = uniform_prior(1)
    gamma = 2.0
    taus = np.array([stop_feedback_transmit(ch, prior, gamma, 0, "true_path",
                                            seed_stream(101, t)).tau
                     for t in range(3000)])
    se = taus.std(ddof=1) / np.sqrt(taus.size)
    # optional stopping: gamma <= C E[tau] <= gamma + a0
    assert ch.C * (taus.mean() + 4 * se) >= gamma
    assert ch.C * (taus.mean() - 4 * se) <= gamma + ch.a0


def test_stop_feedback_error_length_and_martingale_identity():
    ch = bsc(0.11)
    prior = uniform_prior(16)
    gamma = np.log(100)
    n = 4000
    taus = np.empty(n)
    errs = np.empty(n)
    sums = np.empty(n)
    for t in range(n):
        rng = seed_stream(7, t)
        tr = stop_feedback_transmit(ch, prior, gamma, prior.sample(rng), "full_decoder",
                                    rng)
        taus[t], errs[t], sums[t] = tr.tau, tr.error, tr.info_sum
    se_e = errs.std(ddof=1) / np.sqrt(n)
    se_t = taus.std(ddof=1) / np.sqrt(n)
    se_s = sums.std(ddof=1) / np.sqrt(n)
    assert errs.mean() <= np.exp(-gamma) + 4 * se_e
    assert ch.C * taus.mean() <= prior.entropy + gamma + ch.a0 + 4 * ch.C * se_t
    assert abs(sums.mean() - ch.C * taus.mean()) <= ch.a0 + 4 * (se_s + ch.C * se_t)


def test_true_path_dominates_full_decoder_pathwise():
    ch = bsc(0.11)
    prior = uniform_prior(8)
    gamma = np.log(50)
    for t in range(400):
        rng = seed_stream(55, t)
        w = prior.sample(rng)
        full = stop_feedback_transmit(ch, prior, gamma, w, "full_decoder", rng)
        tp = stop_feedback_transmit(ch, prior, gamma, w, "true_path", rng)
        assert full.tau <= tp.tau
        assert tp.true_message == full.true_message
        assert tp.error == pytest.approx(np.exp(-gamma))


def test_trial_replay_is_bit_exact():
    ch = bsc(0.11)
    prior = geometric_prior(0.6)
    a, b = (stop_feedback_transmit(ch, prior, 3.0, prior.sample(rng), "full_decoder", rng)
            for rng in (seed_stream(9, 3), seed_stream(9, 3)))
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    va, vb = (vlft_transmit(ch, prior, prior.sample(rng), rng)
              for rng in (seed_stream(9, 4), seed_stream(9, 4)))
    assert dataclasses.asdict(va) == dataclasses.asdict(vb)


def test_length_bound_arithmetic():
    ch = bsc(0.11)
    a0 = ch.a0
    assert stop_feedback_length_bound(0.0, 0.1, ch.C, a0) == pytest.approx(
        (np.log(10) + a0) / ch.C)
    got = stop_feedback_length_bound(4 * LN2, 0.01, ch.C, a0)
    assert got == pytest.approx((4 + np.log2(100) + a0 / LN2) / (ch.C / LN2),
                                abs=1e-9)
    assert got == pytest.approx(27.27, abs=0.06)
    almost1 = stop_feedback_length_bound(2.0, 1 - 1e-12, ch.C, a0)
    assert almost1 == pytest.approx((2.0 + a0) / ch.C, abs=1e-9)
    with pytest.raises(ValueError):
        stop_feedback_length_bound(1.0, 0.1, 0.0, a0)


def test_vlft_single_message_stops_immediately():
    tr = vlft_transmit(bsc(0.11), uniform_prior(1), 0, seed_stream(12, 0))
    assert tr.tau == 0 and tr.error == 0.0 and tr.decoded == 0


def test_vlft_noiseless_two_messages():
    prior = uniform_prior(2)
    saw_zero = saw_one = False
    for t in range(100):
        rng = seed_stream(13, t)
        tr = vlft_transmit(NOISELESS, prior, prior.sample(rng), rng)
        assert tr.error == 0.0
        if tr.true_message == 0:
            assert tr.tau == 0  # most likely message wins the time-0 tie
            saw_zero = True
        else:
            assert tr.tau >= 1
            saw_one = True
    assert saw_zero and saw_one


def test_vlft_zero_error_and_no_anomalies():
    ch = bsc(0.11)
    for prior in (uniform_prior(8), geometric_prior(0.5)):
        for t in range(1500):
            rng = seed_stream(14, t)
            tr = vlft_transmit(ch, prior, prior.sample(rng), rng)
            assert tr.error == 0.0 and not tr.anomaly


def test_vlft_prefix_dominance_rules_log_anomalies():
    ch = bsc(0.11)
    prior = uniform_prior(8)
    for rule in ("first_dominance", "largest_at_stop"):
        anomalies = 0
        for t in range(500):
            rng = seed_stream(15, t)
            tr = vlft_transmit(ch, prior, prior.sample(rng), rng, decode_rule=rule)
            assert tr.anomaly == (tr.decoded != tr.true_message)
            anomalies += tr.anomaly
        # lattice-valued densities make occasional mismatches unavoidable;
        # they must be counted, never hidden
        assert anomalies > 0


def test_vlft_rejects_unsorted_prior_and_unknown_rule():
    ch = bsc(0.11)
    with pytest.raises(ValueError):
        vlft_transmit(ch, MessagePrior([0.2, 0.3, 0.5]), 0, seed_stream(0, 0))
    with pytest.raises(ValueError):
        vlft_transmit(ch, uniform_prior(2), 0, seed_stream(0, 0), decode_rule="nope")


def test_vlft_sum_noiseless_is_exact():
    # deterministic unit densities: sum = log2(M) ones plus a geometric tail
    prior = uniform_prior(4)
    rng = seed_stream(16, 0)
    (total,), (last,) = vlft_sum_many(NOISELESS, prior, [rng.key], [prior.sample(rng)], 64)
    assert total == pytest.approx(4.0, abs=1e-9)
    assert last < 1e-9


def test_vlft_sum_upper_bounds_expected_stopping_time():
    ch = bsc(0.11)
    prior = uniform_prior(8)
    n = 800
    keys = trial_keys(17, np.arange(n))
    w = prior.sample_many(keys)
    sums = vlft_sum_many(ch, prior, keys, w, 512)[0]
    taus = vlft_many(ch, prior, keys, w)[0]
    se = (sums.std(ddof=1) + taus.std(ddof=1)) / np.sqrt(n)
    assert taus.mean() <= sums.mean() + 4 * se  # one-sided union bound


def test_converse_lengths():
    from jsccsim.ratedist import ba_rate_distortion, bernoulli_hamming

    ch = bsc(0.11)
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.11)
    # R(0.11) for the equiprobable source equals the BSC(0.11) capacity
    assert vlf_converse_length(100, 0.11, 0.0, rd, ch.C) == pytest.approx(
        100.0, abs=1e-6)
    assert vlf_converse_length(100, 0.11, 1.0, rd, ch.C) == 0.0
    ell = vlft_converse_length(100, 0.11, 0.0, rd, 0.5 * LN2)
    R = 100 * rd.rate
    assert 0.5 * LN2 * ell + np.log(ell + 1) + 1.0 >= R - 1e-9
    assert 0.5 * LN2 * (ell * 0.999) + np.log(ell * 0.999 + 1) + 1.0 < R
    with pytest.raises(ValueError):
        vlf_converse_length(10, 0.11, 0.1, rd, 0.0)


def test_full_decoder_support_cap():
    ch = bsc(0.11)
    big = uniform_prior(2 ** 20 + 1)
    with pytest.raises(ValueError):
        vlft_transmit(ch, big, 0, seed_stream(0, 0))


# The channels and prior of the per-trial transcripts in tests/golden/regen.py:
# a binary-input channel and a 3x3 DMC whose symbols take the searchsorted path.
CHANNELS = {"bsc": bsc(0.11),
            "dmc3": Dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]])}
PRIOR7 = MessagePrior([0.4, 0.2, 0.15, 0.1, 0.07, 0.05, 0.03])
GAMMA = float(np.log(100))
# 45 and 300 cut the second and fourth blocks of the 32, 64, 128, ... schedule
KINDS = ["full_decoder", "true_path", "map_stop", "first_dominance", "largest_at_stop",
         "sum_45", "sum_300"]


def _batch_rows(kind, dmc, keys):
    """Rows of one batch of the block kernel, as Python scalars."""
    w = PRIOR7.sample_many(keys)
    if kind.startswith("sum_"):
        cols = vlft_sum_many(dmc, PRIOR7, keys, w, int(kind[4:]))
    elif kind in vlf.STOP_FEEDBACK_MODES:
        cols = stop_feedback_many(dmc, PRIOR7, GAMMA, kind, keys, w)
    else:
        cols = vlft_many(dmc, PRIOR7, keys, w, kind)
    return [tuple(c.item() for c in row) for row in zip(w, *cols)]


def _single_row(kind, dmc, rng):
    """The same row from a batch of one trial."""
    w = PRIOR7.sample(rng)
    if kind.startswith("sum_"):
        total, last = vlft_sum_many(dmc, PRIOR7, [rng.key], [w], int(kind[4:]))
        return w, float(total[0]), float(last[0])
    if kind in vlf.STOP_FEEDBACK_MODES:
        tr = stop_feedback_transmit(dmc, PRIOR7, GAMMA, w, kind, rng)
        decoded = tr.true_message if tr.decoded is None else tr.decoded
        return tr.true_message, tr.tau, decoded, tr.error, tr.info_sum
    tr = vlft_transmit(dmc, PRIOR7, w, rng, kind)
    return tr.true_message, tr.tau, tr.decoded, tr.error


def _rows_by_shard(kind, dmc, seed, trials, cuts):
    bounds = [0, *sorted({c % trials for c in cuts} - {0}), trials]
    rows = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows += _batch_rows(kind, dmc, trial_keys(seed, np.arange(lo, hi)))
    return rows


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(KINDS), st.sampled_from(list(CHANNELS)),
       st.integers(0, 2 ** 64 - 1), st.integers(1, 40),
       st.lists(st.integers(0, 2 ** 16), max_size=4))
def test_kernel_rows_equal_batch_of_one_rows(kind, channel, seed, trials, cuts):
    dmc = CHANNELS[channel]
    want = [_single_row(kind, dmc, seed_stream(seed, t)) for t in range(trials)]
    assert repr(_rows_by_shard(kind, dmc, seed, trials, cuts)) == repr(want)


def test_one_trial_steps_give_the_same_records(monkeypatch):
    """With the working-set cap at one cell every chunk of the kernel holds a
    single trial.  At 2^11 cells a chunk holds 6 to 256 trials and a run
    spans several chunks, so trials leave a chunk at different sub-steps and
    the first-dominance times are kept per chunk.  No record may change."""
    bsc11 = {"kind": "bsc", "delta": 0.11}
    configs = [
        {"kind": "stop_feedback", "channel": bsc11, "prior": {"kind": "geometric", "q": 0.6},
         "gamma_nats": GAMMA, "trials": 1000, "seed": 5},
        {"kind": "stop_feedback", "channel": bsc11, "prior": {"kind": "uniform", "M": 16},
         "gamma_nats": GAMMA, "mode": "true_path", "trials": 1000, "seed": 6},
        {"kind": "vlft", "channel": bsc11, "prior": {"kind": "uniform", "M": 8},
         "decode_rule": "first_dominance", "trials": 1000, "seed": 7},
        {"kind": "jscc_guaranteed", "channel": bsc11, "source": {"kind": "bernoulli", "p": 0.5},
         "k": 2, "d": 0.5, "trials": 200, "seed": 8},
    ]
    want = [harness.run(dict(cfg), workers=2).stripped() for cfg in configs]
    want_sum = vlf.vlft_length_via_sum(CHANNELS["dmc3"], PRIOR7, 9, 300, n_max=300)
    for cells in (1, 2 ** 11):
        monkeypatch.setattr(vlf, "_CELLS", cells)
        assert [harness.run(dict(cfg)).stripped() for cfg in configs] == want, cells
        assert vlf.vlft_length_via_sum(CHANNELS["dmc3"], PRIOR7, 9, 300, n_max=300) == want_sum


@pytest.mark.parametrize("n_max", [1, 5, 8, 9, 33])
def test_length_sum_stops_at_n_max_within_a_substep(monkeypatch, n_max):
    """The length sum keeps the terms of the uses up to n_max, also where
    n_max ends inside a sub-step or one use into the second block: its
    totals and last terms are those of sub-steps of one use, and each total
    is the previous one plus its last term."""
    dmc, keys = CHANNELS["dmc3"], trial_keys(3, np.arange(50))
    w = PRIOR7.sample_many(keys)
    total, last = vlft_sum_many(dmc, PRIOR7, keys, w, n_max)
    before = vlft_sum_many(dmc, PRIOR7, keys, w, n_max - 1)[0]
    assert repr(total.tolist()) == repr((before + last).tolist())
    monkeypatch.setattr(vlf, "_SUBSTEP", 1)
    one = vlft_sum_many(dmc, PRIOR7, keys, w, n_max)
    assert repr([total.tolist(), last.tolist()]) == repr([c.tolist() for c in one])


def test_length_sum_over_no_uses_is_one():
    keys = trial_keys(3, np.arange(5))
    total, last = vlft_sum_many(CHANNELS["bsc"], PRIOR7, keys, PRIOR7.sample_many(keys), 0)
    assert total.tolist() == last.tolist() == [1.0] * 5
    with pytest.raises(RuntimeError, match="tail not converged"):
        vlf.vlft_length_via_sum(CHANNELS["bsc"], PRIOR7, 9, 20, n_max=0)


@pytest.mark.parametrize("prune_rows", [vlf._PRUNE_ROWS, 1])
@pytest.mark.parametrize("channel", list(CHANNELS))
def test_full_decoder_reports_the_sum_its_threshold_test_saw(monkeypatch, channel, prune_rows):
    """Where the full decoder stops at the true path's tau, its info_sum is
    the true row's running sum, the float true_path mode reports too."""
    dmc, prior = CHANNELS[channel], uniform_prior(16)
    keys = trial_keys(7, np.arange(2000))
    w = prior.sample_many(keys)
    monkeypatch.setattr(vlf, "_PRUNE_ROWS", prune_rows)
    tau, _, _, info_sum = stop_feedback_many(dmc, prior, GAMMA, "full_decoder", keys, w)
    tau_tp, _, _, info_sum_tp = stop_feedback_many(dmc, prior, GAMMA, "true_path", keys, w)
    same = tau == tau_tp
    assert same.sum() > 1000
    assert repr(info_sum[same].tolist()) == repr(info_sum_tp[same].tolist())


def _kernel_rows(dmc, prior, gamma, keys, w, prune_rows):
    """(tau, decoded, error, info_sum) of full-decoder trials with the pruning
    switch at ``prune_rows``, as one repr."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vlf, "_PRUNE_ROWS", prune_rows)
        return repr([c.tolist() for c in stop_feedback_many(dmc, prior, gamma,
                                                            "full_decoder", keys, w)])


def _test_prior(kind, M, rng):
    if kind == "uniform":
        return uniform_prior(M)
    if kind == "geometric":
        p = rng.uniform(0.8, 0.999) ** np.arange(M)  # no mass underflows at M = 3000
    else:  # a random non-increasing pmf
        p = np.sort(rng.uniform(0.01, 1.0, M))[::-1]
    return MessagePrior(p / p.sum())


PRUNE_CHANNELS = dict(CHANNELS, bec=bec(0.2))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(list(PRUNE_CHANNELS)), st.sampled_from(["uniform", "geometric", "pmf"]),
       st.integers(1, 3000), st.integers(0, 2 ** 64 - 1), st.integers(1, 6),
       st.floats(0.1, 8.0))
def test_pruned_decoder_equals_the_batched_kernel(channel, kind, M, seed, trials, gamma):
    dmc = PRUNE_CHANNELS[channel]
    prior = _test_prior(kind, M, np.random.default_rng(seed % 2 ** 32))
    keys = trial_keys(seed, np.arange(trials))
    w = prior.sample_many(keys)
    caught_up = []
    catch_up = vlf._catch_up

    def checked(cb, ld, y, edges, g, a, N, K, P):
        # a row whose sum is -inf (a zero-probability transition) is never live
        assert np.isfinite(P[g] + K[g]).all()
        caught_up.append(g.size)
        return catch_up(cb, ld, y, edges, g, a, N, K, P)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vlf, "_catch_up", checked)
        pruned = _kernel_rows(dmc, prior, gamma, keys, w, 1)
    assert caught_up
    assert pruned == _kernel_rows(dmc, prior, gamma, keys, w, vlf.FULL_DECODER_MAX_SUPPORT + 1)


@pytest.mark.parametrize("prune_rows", [1, vlf.FULL_DECODER_MAX_SUPPORT + 1])
def test_both_full_decoder_paths_stop_at_the_use_cap(monkeypatch, prune_rows):
    prior, keys = uniform_prior(600), trial_keys(1, np.arange(2))
    dmc, gamma = bsc(0.11), 400.0
    monkeypatch.setattr(vlf, "_PRUNE_ROWS", prune_rows)
    monkeypatch.setattr(vlf, "TRIAL_USE_CAP", 40)
    # gamma = 400 nats needs about 1200 uses over BSC(0.11): the length bound
    # that the callers check rejects it, and a trial run anyway stops at the cap
    with pytest.raises(vlf.LengthBoundError, match="above the 40 cap"):
        vlf.trial_length_bound(dmc, prior.entropy, gamma)
    with pytest.raises(RuntimeError, match="exceeded 40 channel uses"):
        stop_feedback_many(dmc, prior, gamma, "full_decoder", keys, prior.sample_many(keys))
