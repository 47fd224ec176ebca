"""Energy-limited AWGN transmission: iterative-refinement feedback scheme,
per-bit feedback pipeline, PPM bounds, lossy energy bound, converse,
and the asymptotic expansion evaluators."""

import numpy as np
import pytest

from jsccsim.energy import (EnergyBudget, IdealBitTransmitter,
                            SequentialBitTransmitter, awgn_jscc_converse,
                            energy_expansion, huffman_code,
                            lossy_energy_error_bound, ppm_error_prob,
                            ppm_trials, sk_block, sk_mse_batch,
                            vl_feedback_energy_trial, vl_separated_error_bound)
from jsccsim.info import LN2, normal_tail, normal_tail_inv
from jsccsim.ratedist import ba_rate_distortion, bernoulli_hamming, gaussian_source
from jsccsim.rng import seed_stream
from jsccsim.vlf import MessagePrior, uniform_prior


def test_sk_mse_recursion_examples():
    mses, powers = sk_mse_batch(1.0, 1.0, 10, 200000, 5)
    theory = 1.0 / 2 ** np.arange(1, 11)
    se = theory * np.sqrt(2 / 200000)
    assert np.all(np.abs(mses - theory) < 4 * se)
    assert np.all(np.abs(powers - 1.0) < 4 * np.sqrt(2 / 200000))
    mses3, powers3 = sk_mse_batch(1.0, 3.0, 2, 200000, 6)
    assert abs(mses3[-1] - 1 / 16) < 4 * (1 / 16) * np.sqrt(2 / 200000)
    assert np.all(np.abs(powers3 - 3.0) < 4 * 3 * np.sqrt(2 / 200000))


def test_sk_block_interleaving():
    mses1, e1 = sk_block(1, 1.0, 1.0, 3, 50000, 7)
    direct, _ = sk_mse_batch(1.0, 1.0, 3, 50000, 7, stream_id=0)
    assert mses1[0] == direct[-1]
    mses4, e4 = sk_block(4, 1.0, 1.0, 2, 50000, 8)
    assert np.all(np.abs(mses4 - 0.25) < 4 * 0.25 * np.sqrt(2 / 50000))
    assert e4 == pytest.approx(8.0, rel=0.02)  # k * n_per * P


def test_sk_energy_approaches_rate_limit_at_small_power():
    # energy per nat approaches the feedback limit as P -> 0:
    # (k n P / N0) / (k R(d)) = P / ln(1+P) with N0 = 2 noise variance 1
    k, n_per = 2, 4
    for P, tol in ((1.0, 0.01), (0.01, 0.01)):
        _, energy = sk_block(k, 1.0, P, n_per, 120000, 9)
        d = 1.0 / (1 + P) ** n_per
        kR = k * 0.5 * np.log(1 / d)
        ratio = (energy / 2.0) / kR
        assert ratio == pytest.approx(P / np.log(1 + P), rel=0.02)
    # and the P=0.01 point is within 1% of the limit itself
    _, energy = sk_block(k, 1.0, 0.01, n_per, 120000, 10)
    d = 1.0 / 1.01 ** n_per
    assert (energy / 2.0) / (k * 0.5 * np.log(1 / d)) == pytest.approx(1.0, rel=0.02)


def test_huffman_examples_and_optimality():
    words = huffman_code(MessagePrior([0.5, 0.25, 0.25]))
    assert sorted(len(w) for w in words) == [1, 2, 2]
    uniform = huffman_code(uniform_prior(16))
    assert all(len(w) == 4 for w in uniform)
    assert len(set(uniform)) == 16
    dyadic = MessagePrior([0.5, 0.25, 0.125, 0.125])
    wd = huffman_code(dyadic)
    avg = float(np.dot(dyadic.pmf, [len(w) for w in wd]))
    assert avg == pytest.approx(dyadic.entropy / LN2, abs=1e-12)
    assert huffman_code(MessagePrior([1.0])) == [""]


def test_huffman_prefix_free_and_within_one_bit_of_entropy():
    for seed in range(5):
        p = seed_stream(seed, 0).uniforms(9) + 0.01
        prior = MessagePrior(p / p.sum())
        words = huffman_code(prior)
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)
        avg = float(np.dot(prior.pmf, [len(w) for w in words]))
        H_bits = prior.entropy / LN2
        assert H_bits <= avg < H_bits + 1


def test_ideal_transmitter_pipeline():
    N0 = 2.0
    tx = IdealBitTransmitter(N0)
    ok, e, nb = vl_feedback_energy_trial(MessagePrior([1.0]), tx, seed_stream(0, 0))
    assert (ok, e, nb) == (True, 0.0, 0)
    prior = uniform_prior(256)
    for t in range(50):
        ok, e, nb = vl_feedback_energy_trial(prior, tx, seed_stream(1, t))
        assert ok and nb == 8 and e == pytest.approx(8 * N0 * LN2)
    tri = MessagePrior([0.5, 0.25, 0.25])
    es = np.array([vl_feedback_energy_trial(tri, tx, seed_stream(2, t))[1]
                   for t in range(4000)])
    se = es.std(ddof=1) / np.sqrt(es.size)
    assert abs(es.mean() - 1.5 * N0 * LN2) < 4 * se


def test_sequential_transmitter_correct_but_above_the_ideal_energy():
    N0 = 2.0
    tx = SequentialBitTransmitter(N0)
    energies = []
    for t in range(200):
        rng = seed_stream(3, t)
        bit = t % 2
        out, res, e = tx.send(bit, rng)
        assert out == bit  # delta = 1e-9 residual: no flips expected here
        assert res == tx.delta
        energies.append(e)
    assert np.mean(energies) > N0 * LN2  # strictly above the ideal constant


def test_ppm_error_prob_reductions():
    N0 = 2.0
    assert ppm_error_prob(5.0, 1, N0) == 0.0
    assert ppm_error_prob(0.0, 2, N0) == pytest.approx(0.5, abs=1e-10)
    for ratio in (1.0, 4.0, 9.0):
        got = ppm_error_prob(ratio * N0, 2, N0)
        assert abs(got - normal_tail(np.sqrt(ratio))) < 1e-9
    with pytest.raises(ValueError):
        ppm_error_prob(-1.0, 2, N0)


def test_ppm_error_prob_concave_in_m_and_decreasing_in_E():
    N0 = 2.0
    vals = np.array([ppm_error_prob(4.0, m, N0) for m in range(1, 65)])
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.diff(np.diff(vals)) < 1e-12)  # concave increments
    es = np.linspace(0, 20, 21)
    seq = [ppm_error_prob(e, 16, N0) for e in es]
    assert np.all(np.diff(seq) < 0)


def test_ppm_monte_carlo_matches_quadrature():
    N0 = 2.0
    for m, E, seed in ((2, 4 * N0, 11), (16, 6 * N0, 12)):
        errs = ppm_trials(E, m, N0, 200000, seed)
        se = errs.std(ddof=1) / np.sqrt(errs.size)
        assert abs(errs.mean() - ppm_error_prob(E, m, N0)) < 4 * se
    errs = ppm_trials(0.0, 16, N0, 100000, 13)
    se = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(errs.mean() - 15 / 16) < 4 * se


def test_separated_bound_composition_and_limits():
    N0 = 2.0
    prior = uniform_prior(16)
    budget = EnergyBudget(E1=16 * N0, E2=9 * N0)
    got = vl_separated_error_bound(prior, budget, N0, weaken=True)
    want = ppm_error_prob(16 * N0, 16, N0) + ppm_error_prob(9 * N0, 5, N0)
    assert got == pytest.approx(want, abs=1e-12)
    single = vl_separated_error_bound(uniform_prior(1),
                                      EnergyBudget(E1=4.0, E2=9 * N0), N0)
    assert single == pytest.approx(ppm_error_prob(9 * N0, 1, N0), abs=1e-12)
    big = vl_separated_error_bound(prior, EnergyBudget(E1=400.0, E2=400.0), N0)
    assert big < 1e-12
    # exact-index form never exceeds the weakened form
    exact = vl_separated_error_bound(prior, budget, N0, weaken=False)
    assert exact <= got + 1e-12


def test_separated_bound_validation():
    N0 = 2.0
    with pytest.raises(ValueError):
        vl_separated_error_bound(MessagePrior([0.2, 0.3, 0.5]),
                                 EnergyBudget(E1=1.0, E2=1.0), N0)
    with pytest.raises(ValueError):
        vl_separated_error_bound(uniform_prior(4),
                                 EnergyBudget(E1=3.0, E2=3.0, E_total=5.0), N0)
    with pytest.raises(ValueError):
        vl_separated_error_bound(uniform_prior(4),
                                 EnergyBudget(E1=1.0, E2=1.0), N0, mode="nope")


def test_separated_bound_average_power_schedule():
    N0 = 2.0
    prior = MessagePrior([0.4, 0.3, 0.2, 0.1])
    sched = np.array([10 * N0, 14 * N0, 18 * N0])
    got = vl_separated_error_bound(prior, EnergyBudget(E1=sched, E2=8 * N0),
                                   N0, mode="avg_power")
    want = sum(prior.pmf[i - 1] * ppm_error_prob(sched[int(np.log2(i))], i, N0)
               for i in range(1, 5)) + ppm_error_prob(8 * N0, 3, N0)
    assert got == pytest.approx(want, abs=1e-12)


def test_lossy_energy_bound_structure():
    N0 = 2.0
    src = bernoulli_hamming(0.5)
    # trivial radius: only the header term survives
    b, rate, hw = lossy_energy_error_bound(src, 4, 1.0, 8,
                                           EnergyBudget(E1=30.0, E2=30.0),
                                           N0, 20, 500)
    assert b == pytest.approx(ppm_error_prob(30.0, 4, N0), abs=1e-10)
    assert rate <= b + 4 * hw / 1.96 + 1e-12
    with pytest.raises(ValueError):
        lossy_energy_error_bound(src, 13, 0.2, 8,
                                 EnergyBudget(E1=1.0, E2=1.0), N0, 0, 10)


def test_lossy_energy_bound_monte_carlo_consistency():
    N0 = 2.0
    src = bernoulli_hamming(0.5)
    budget = EnergyBudget(E1=22 * N0, E2=14 * N0)
    b, rate, hw = lossy_energy_error_bound(src, 6, 0.2, 64, budget, N0, 21, 3000)
    assert rate <= b + 4 * hw / 1.96
    # miss term shrinks monotonically with codebook size
    b2, _, _ = lossy_energy_error_bound(src, 6, 0.2, 256, budget, N0, 21, 10)
    assert b2 <= b + 1e-12


def test_awgn_converse_limits_and_monotonicity():
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.11)
    N0 = 2.0
    assert awgn_jscc_converse(rd, 20, 0.0, N0) >= 0.95
    es = [0.0, 10.0, 40.0, 160.0]
    vals = [awgn_jscc_converse(rd, 20, e, N0) for e in es]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_awgn_converse_builds_the_tilted_distribution_once(monkeypatch):
    """The sup over the gamma grid reads one exact distribution of the sum of
    tilted informations; built per grid point, a 3-letter source at k=30
    took seconds."""
    from jsccsim import energy

    real, calls = energy._sum_tilted_distribution, []

    def counted(rd, k):
        calls.append(k)
        return real(rd, k)

    monkeypatch.setattr(energy, "_sum_tilted_distribution", counted)
    awgn_jscc_converse(ba_rate_distortion(bernoulli_hamming(0.3), 0.1), 10, 6.0, 2.0)
    assert calls == [10]


def test_awgn_converse_zero_dispersion_closed_form():
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.11)
    k, N0, gamma = 40, 2.0, 3.0
    E = 1.2 * k * rd.rate * N0
    got = awgn_jscc_converse(rd, k, E, N0, gamma=gamma)
    want = max(normal_tail((E / N0 - k * rd.rate + gamma)
                           / np.sqrt(2 * E / N0)) - np.exp(-gamma), 0.0)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("k", [2, 3, 10])
def test_awgn_converse_gaussian_matches_one_quadrature_per_gamma(k):
    """The one Gauss-Legendre rule that every gamma shares gives what one
    adaptive quadrature per gamma over the chi-square statistic gives."""
    from scipy.integrate import quad
    from scipy.special import ndtr
    from scipy.stats import chi2

    rd, N0 = ba_rate_distortion(gaussian_source(1.0), 0.1), 2.0
    base, top = k * rd.rate - 0.5 * k, k + 40 * np.sqrt(2 * k)
    for E in (0.0, 6.0):
        mu, sig = E / N0, np.sqrt(2 * E / N0)
        for gamma in (0.01, 1.0, 3.0, 10.0):
            if E:
                p = quad(lambda x: chi2.pdf(x, k) * ndtr((base + 0.5 * x - gamma - mu) / sig),
                         0, top, epsabs=1e-12, limit=200)[0]
            else:  # sum j >= gamma + mu where x >= c
                c = 2 * (gamma + mu - base)
                p = quad(chi2.pdf, max(c, 0.0), top, args=(k,), epsabs=1e-12, limit=200)[0]
            want = max(p - np.exp(-gamma), 0.0)
            got = awgn_jscc_converse(rd, k, E, N0, gamma=gamma)
            assert got == pytest.approx(want, abs=1e-10), (E, gamma)


def test_awgn_converse_is_at_most_one():
    # at k=100 the sum of tilted informations sits far above every gamma of
    # the grid, so the probability term rounds to 1 and exp(-gamma) to 0
    rd = ba_rate_distortion(gaussian_source(1.0), 0.1)
    assert awgn_jscc_converse(rd, 100, 6.0, 2.0) == 1.0


def test_awgn_converse_gaussian_matches_monte_carlo():
    rd = ba_rate_distortion(gaussian_source(1.0), 0.25)
    k, N0, gamma, E = 6, 2.0, 2.0, 10.0
    got = awgn_jscc_converse(rd, k, E, N0, gamma=gamma)
    rng = seed_stream(22, 0)
    n = 400000
    s = rng.normals(k * n).reshape(n, k)
    js = (0.5 * np.log(1 / 0.25) + (s * s - 1) / 2).sum(axis=1)
    g = E / N0 + np.sqrt(2 * E / N0) * rng.normals(n)
    p = float(np.mean(js - g >= gamma))
    se = np.sqrt(p * (1 - p) / n)
    assert abs(got - (p - np.exp(-gamma))) < 4 * se + 1e-4


def test_energy_expansion_values():
    rd = ba_rate_distortion(gaussian_source(1.0), 0.25)
    assert energy_expansion("excess_fb", 50, rd, 0.0) == pytest.approx(
        50 * rd.rate)
    assert energy_expansion("avg_fb", 50, rd) == pytest.approx(50 * rd.rate)
    got = energy_expansion("excess_nofb", 100, rd, 0.05)
    q = normal_tail_inv(0.05)
    assert got == pytest.approx(100 * np.log(2)
                                + np.sqrt(100 * (2 * np.log(2) + 0.5)) * q)
    assert got == pytest.approx(69.31 + 22.55, abs=0.06)
    assert energy_expansion("avg_power_nofb", 100, rd, 0.05) == pytest.approx(
        0.95 * 100 * np.log(2))
    k = 1000
    bits = energy_expansion("bits_nofb", k, eps=1e-3)
    assert bits == pytest.approx(k * LN2 + np.sqrt(2 * k * LN2)
                                 * normal_tail_inv(1e-3) - 0.5 * np.log(k))
    assert energy_expansion("bits_fb", k, eps=0.1) == pytest.approx(
        0.9 * k * LN2)
    with pytest.raises(ValueError):
        energy_expansion("nope", 10)
    with pytest.raises(ValueError):
        energy_expansion("excess_nofb", 10, rd, 1.5)
