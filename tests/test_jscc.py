"""Joint source-channel pipelines: d-ball encoding, analytic index law,
excess / average / guaranteed distortion simulations, separation baseline."""

import numpy as np
import pytest
from scipy.stats import binom

from jsccsim.channels import bsc
from jsccsim.jscc import (LossyCodebook, analytic_miss, ball_probability,
                          choose_codebook_size, dball_encode,
                          default_budget_split, index_prior,
                          min_distortion_encode, naive_separation_bound,
                          simulate_average, simulate_excess,
                          simulate_guaranteed, source_blocks, type_ball_probs)
from jsccsim.ratedist import (ba_rate_distortion, bernoulli_hamming,
                              brute_force_deps_entropy)
from jsccsim.rng import fold_keys, seed_stream
from jsccsim.vlf import stop_feedback_transmit, uniform_prior

HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


class _FixedCodebook:
    """Given codewords, read through ``chunk`` as from a LossyCodebook."""

    def __init__(self, points):
        self.points = np.asarray(points)
        self.M, self.k = self.points.shape

    def chunk(self, start, count):
        return self.points[start:start + count]


def test_dball_encode_first_hit_and_trivial_radius():
    s = np.array([1, 0, 1, 1])
    pts = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1], [1, 0, 1, 1]])
    cb = _FixedCodebook(pts)
    idx, hit = dball_encode(s, cb, 0.0, HAMMING)
    assert (idx, hit) == (3, True)
    idx, hit = dball_encode(s, cb, 1.0, HAMMING)  # radius covers everything
    assert (idx, hit) == (0, True)
    idx, hit = dball_encode(np.array([0, 1, 1, 0]), cb, 0.0, HAMMING)
    assert (idx, hit) == (0, False)  # miss flagged, index pinned to 0


def test_min_distortion_encode_matches_exhaustive_scan():
    rng = seed_stream(31, 0)
    pts = (seed_stream(31, 1).uniforms(16 * 8).reshape(16, 8) < 0.5).astype(int)
    cb = _FixedCodebook(pts)
    assert min_distortion_encode(pts[5], cb, HAMMING) == \
        int(np.flatnonzero((pts == pts[5]).all(axis=1))[0])
    for t in range(200):
        s = (seed_stream(32, t).uniforms(8) < 0.5).astype(int)
        want = int(np.argmin(np.abs(pts - s).sum(axis=1)))
        assert min_distortion_encode(s, cb, HAMMING) == want
    single = _FixedCodebook(pts[:1])
    assert min_distortion_encode(pts[3], single, HAMMING) == 0


def test_ball_probability_binary_is_binomial_tail():
    k, d = 10, 0.2
    counts = np.array([6, 4])  # any composition; Hamming + uniform output
    got = ball_probability(counts, HAMMING, np.array([0.5, 0.5]), k, d)
    assert got == pytest.approx(binom.cdf(int(d * k), k, 0.5), abs=1e-12)


def test_lazy_codebook_chunks_agree_with_materialized_points():
    cb = LossyCodebook(99, 6, 40, np.array([0.3, 0.7]))
    pts = cb.chunk(0, cb.M)
    cb2 = LossyCodebook(99, 6, 40, np.array([0.3, 0.7]))
    assert np.array_equal(cb2.chunk(13, 9), pts[13:22])


def test_analytic_miss_matches_closed_form_and_simulation():
    k, d, M = 10, 0.2, 256
    rd = ba_rate_distortion(bernoulli_hamming(0.5), d)
    tp, pb = type_ball_probs(rd, k, d)
    # equiprobable + Hamming: every block has the same ball probability
    p = binom.cdf(int(d * k), k, float(rd.output_pmf[0]))
    want = (1 - p) ** M
    assert analytic_miss(tp, pb, M) == pytest.approx(want, rel=1e-9)
    misses = []
    for t in range(300):
        rng = seed_stream(33, t)
        s = (rng.uniforms(k) < 0.5).astype(int)
        cb = LossyCodebook(rng.derive(3).key, k, M, rd.output_pmf)
        misses.append(not dball_encode(s, cb, d, HAMMING)[1])
    assert np.mean(misses) <= want + 4 * np.sqrt(want / 300) + 1e-3


def test_codebook_sizing_meets_miss_budget_minimally():
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.125)
    tp, pb = type_ball_probs(rd, 12, 0.125)
    M = choose_codebook_size(tp, pb, 0.05)
    assert analytic_miss(tp, pb, M) <= 0.05
    assert analytic_miss(tp, pb, M - 1) > 0.05


def test_index_prior_is_a_sorted_distribution():
    rd = ba_rate_distortion(bernoulli_hamming(0.3), 0.1)
    tp, pb = type_ball_probs(rd, 8, 0.1)
    prior = index_prior(tp, pb, 128)
    assert prior.sorted_desc
    assert abs(prior.pmf.sum() - 1) < 1e-12


def test_budget_split_default_and_infeasible():
    src, ch = default_budget_split(0.2, 100)
    assert (src, ch) == (pytest.approx(0.1), pytest.approx(0.1))
    with pytest.raises(ValueError):
        default_budget_split(0.1, 8)


def test_excess_degenerate_epsilon():
    with pytest.raises(ValueError):
        simulate_excess(8, 0.125, 1.0, bsc(0.11),
                        ba_rate_distortion(bernoulli_hamming(0.5), 0.125), 0, 10)


def test_excess_pipeline_meets_total_budget():
    ch = bsc(0.11)
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.125)
    m, extra = simulate_excess(8, 0.125, 0.1, ch, rd, 41, 1200, split=(0.05, 0.05))
    se = m["excess"]["half_width"] / 1.96
    assert m["excess"]["estimate"] <= 0.1 + 4 * se
    assert m["tau"]["estimate"] > 0
    assert extra["analytic_miss"] <= 0.05


def test_excess_true_path_adds_the_analytic_channel_error_to_the_source_misses():
    """In true_path mode the channel decodes w itself, so a trial fails only
    on a source miss, and the channel error enters as exp(-gamma)."""
    ch = bsc(0.11)
    k, d, seed, trials = 8, 0.125, 11, 400
    rd = ba_rate_distortion(bernoulli_hamming(0.5), d)
    m, _ = simulate_excess(k, d, 0.1, ch, rd, seed, trials, split=(0.05, 0.05),
                           mode="true_path")
    tp, pb = type_ball_probs(rd, k, d)
    M = choose_codebook_size(tp, pb, 0.05)
    keys, S = source_blocks(seed, np.arange(trials), rd.source.pmf, k)
    misses = np.array([not dball_encode(s, LossyCodebook(key, k, M, rd.output_pmf), d,
                                        rd.source.distortion)[1]
                       for s, key in zip(S, fold_keys(keys, 3).tolist())])
    assert m["excess"]["estimate"] == misses.mean() + np.exp(-np.log(1 / 0.05))


def test_excess_length_decreases_with_looser_target():
    ch = bsc(0.11)
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.125)
    tight, _ = simulate_excess(8, 0.125, 0.1, ch, rd, 42, 800, split=(0.05, 0.05))
    loose, _ = simulate_excess(8, 0.125, 0.5, ch, rd, 42, 800, split=(0.25, 0.25))
    assert loose["tau"]["estimate"] < tight["tau"]["estimate"]


def test_interface_permutation_insensitivity():
    """Relabeling the compressor/channel-code interface by a fixed permutation
    leaves the (length, error) statistics unchanged in distribution."""
    ch = bsc(0.11)
    prior = uniform_prior(16)
    gamma = np.log(20)
    perm = np.array([9, 3, 14, 0, 7, 12, 1, 15, 5, 10, 2, 8, 13, 4, 11, 6])
    n = 2500
    tau = np.empty((2, n))
    err = np.empty((2, n))
    for t in range(n):
        w = t % 16
        for j, m in enumerate((w, int(perm[w]))):
            tr = stop_feedback_transmit(ch, prior, gamma, m, "full_decoder",
                                        seed_stream(88, t))
            tau[j, t] = tr.tau
            err[j, t] = float(tr.decoded != m)
    se_t = tau.std(ddof=1) / np.sqrt(n) * np.sqrt(2)
    se_e = err.std(ddof=1) / np.sqrt(n) * np.sqrt(2)
    assert abs(tau[0].mean() - tau[1].mean()) < 4 * se_t
    assert abs(err[0].mean() - err[1].mean()) < 4 * max(se_e, 1e-3)


def test_average_pipeline_distortion_decomposition_on_clean_channel():
    clean = bsc(1e-12)
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.11)
    m, extra = simulate_average(8, 0.11, clean, rd, 43, 400, M=64)
    # residual "errors" on a clean channel are codeword-prefix ties of the
    # random codebook, bounded by the budget exp(-gamma)
    gamma = extra["gamma_nats"]
    err = extra["error"]
    se = err["half_width"] / 1.96
    assert err["estimate"] <= np.exp(-gamma) + 4 * se
    # decomposition: end-to-end distortion exceeds the source-only distortion
    # by at most the error rate times the maximum per-letter distortion
    gap = m["distortion"]["estimate"] - extra["source_distortion"]["estimate"]
    assert -1e-12 <= gap <= err["estimate"] + 1e-12


def test_average_pipeline_source_distortion_matches_codebook_oracle():
    ch = bsc(0.11)
    k, M = 12, 256
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.11)
    _, extra = simulate_average(k, 0.11, ch, rd, 44, 600, M=M)
    # oracle: E over random codebooks and all 2^k sources of the minimum
    # Hamming distortion, via exhaustive popcount scan
    srcs = np.arange(2 ** k, dtype=np.uint32)
    pop = np.array([bin(x).count("1") for x in range(2 ** k)], dtype=np.uint16)
    means = []
    for c in range(400):
        cb = LossyCodebook(seed_stream(45, c).key, k, M, rd.output_pmf)
        words = cb.chunk(0, M) @ (1 << np.arange(k - 1, -1, -1).astype(np.uint32))
        dmin = np.full(2 ** k, k, dtype=np.uint16)
        for wv in words:
            np.minimum(dmin, pop[srcs ^ np.uint32(wv)], out=dmin)
        means.append(dmin.mean() / k)
    oracle = float(np.mean(means))
    src = extra["source_distortion"]
    se = src["half_width"] / 1.96 + float(np.std(means, ddof=1) / np.sqrt(len(means)))
    assert abs(src["estimate"] - oracle) < 4 * se


def test_average_pipeline_rejects_unbounded_distortion():
    from jsccsim.ratedist import discrete_source

    src = discrete_source([0.5, 0.5], [[0.0, np.inf], [1.0, 0.0]])
    rd = ba_rate_distortion(src, 0.4)
    with pytest.raises(ValueError):
        simulate_average(4, 0.4, bsc(0.11), rd, 0, 10, M=16)


def test_guaranteed_zero_violations_and_tiny_k_only():
    ch = bsc(0.11)
    src = bernoulli_hamming(0.5)
    m, extra = simulate_guaranteed(2, 0.5, ch, src, 46, 1500)
    assert m["violations"] == {"estimate": 0.0, "half_width": 0.0, "n": 1500}
    assert extra["map_entropy_nats"] == pytest.approx(
        -(0.75 * np.log(0.75) + 0.25 * np.log(0.25)), abs=1e-9)
    with pytest.raises(ValueError):
        simulate_guaranteed(5, 0.5, ch, src, 0, 10)


def test_guaranteed_trivial_radius_never_transmits():
    m, _ = simulate_guaranteed(2, 1.0, bsc(0.11), bernoulli_hamming(0.5), 0, 200)
    assert m["tau"]["estimate"] == 0.0 and m["violations"]["estimate"] == 0.0


def test_guaranteed_on_noiseless_channel():
    clean = bsc(1e-12)
    m, _ = simulate_guaranteed(2, 0.25, clean, bernoulli_hamming(0.5), 47, 300)
    assert m["violations"]["estimate"] == 0.0
    H = brute_force_deps_entropy(bernoulli_hamming(0.5), 2, 0.25, 0.0)
    assert clean.C * m["tau"]["estimate"] <= H + 3.0  # finite overhead constant


def test_naive_separation_bound_shapes():
    C = bsc(0.11).C
    rd0 = ba_rate_distortion(bernoulli_hamming(0.5), 0.125)
    assert rd0.dispersion == pytest.approx(0.0, abs=1e-12)
    for k in (8, 64, 512):
        assert naive_separation_bound(k, 0.125, 0.1, C, rd0) == pytest.approx(
            0.9 * k * rd0.rate / C, rel=1e-9)
    rd = ba_rate_distortion(bernoulli_hamming(0.2), 0.05)
    ks = np.array([64, 256, 1024, 4096])
    excess = np.array([naive_separation_bound(int(k), 0.05, 0.1, C, rd)
                       - 0.9 * k * rd.rate / C for k in ks])
    assert np.all(excess > 0)
    # grows faster than sqrt(k): the sqrt(k)-normalized excess keeps rising
    ratio = excess / np.sqrt(ks)
    assert np.all(np.diff(ratio) > 0)
    tiny = naive_separation_bound(100, 0.05, 1e-6, C, rd)
    assert tiny > 100 * rd.rate / C  # positive sqrt(k) term as eps -> 0
    with pytest.raises(ValueError):
        naive_separation_bound(10, 0.05, 0.0, C, rd)
    with pytest.raises(ValueError, match="C must be positive"):
        naive_separation_bound(10, 0.05, 0.1, bsc(0.5).C, rd)
