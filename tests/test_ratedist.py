"""Rate-distortion solver, tilted information, dispersion, expansions, and
the exhaustive small-block covering entropy."""

import itertools

import numpy as np
import pytest

from jsccsim.info import LN2, normal_tail_inv
from jsccsim.ratedist import (_assignment_exhaustive, _product_source, ba_rate_distortion,
                              bernoulli_hamming, brute_force_deps_entropy, d_min_max,
                              discrete_source, gaussian_source, rate_dispersion,
                              source_expansion, tilted_information)
from jsccsim.rng import seed_stream


def h2(p):
    return -p * np.log(p) - (1 - p) * np.log(1 - p)


def test_binary_hamming_rate_matches_closed_form():
    rd = ba_rate_distortion(bernoulli_hamming(0.2), 0.1)
    assert abs(rd.rate - (h2(0.2) - h2(0.1))) < 1e-8
    assert rd.rate / LN2 == pytest.approx(0.25293, abs=5e-6)
    assert rd.distortion_gap < 1e-8
    # optimal slope for the binary/Hamming pair: log((1-d)/d)
    assert rd.slope == pytest.approx(np.log(0.9 / 0.1), rel=1e-6)


def test_gaussian_rate_closed_form():
    rd = ba_rate_distortion(gaussian_source(1.0), 0.25)
    assert rd.rate == pytest.approx(np.log(2), abs=1e-15)  # 1 bit
    assert rd.slope == pytest.approx(1 / (2 * 0.25), abs=1e-15)
    assert rd.output_variance == pytest.approx(0.75, abs=1e-15)


def test_distortion_range_rejected_with_named_bound():
    with pytest.raises(ValueError, match="d_max"):
        ba_rate_distortion(bernoulli_hamming(0.2), 0.2)
    with pytest.raises(ValueError, match="d_min"):
        ba_rate_distortion(bernoulli_hamming(0.2), 0.0)


def test_d_min_max_examples():
    assert d_min_max(bernoulli_hamming(0.2)) == (0.0, pytest.approx(0.2))
    assert d_min_max(gaussian_source(1.0)) == (0.0, 1.0)
    src = discrete_source([0.3, 0.3, 0.4],
                          [[0.0, 2.0], [3.0, 1.0], [np.inf, 0.5]])
    dmin, dmax = d_min_max(src)
    assert dmin == pytest.approx(0.3 * 0 + 0.3 * 1.0 + 0.4 * 0.5)
    assert dmax == pytest.approx(0.3 * 2.0 + 0.3 * 1.0 + 0.4 * 0.5)
    assert np.isfinite(dmax)


def test_tilted_information_binary_and_gaussian():
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.11)
    want = np.log(2) - h2(0.11)
    assert tilted_information(rd, 0) == pytest.approx(want, abs=1e-7)
    assert tilted_information(rd, 1) == pytest.approx(want, abs=1e-7)
    g = ba_rate_distortion(gaussian_source(1.0), 0.25)
    assert tilted_information(g, 0.0) == pytest.approx(0.5 * np.log(4) - 0.5,
                                                       abs=1e-12)
    # cross-check the gaussian closed form by numeric integration of the
    # tilted expectation over Z* ~ N(0, sigma^2 - d)
    s = 0.7
    zs = np.linspace(-12, 12, 200001)
    pz = np.exp(-zs ** 2 / (2 * g.output_variance)) / np.sqrt(
        2 * np.pi * g.output_variance)
    ex = np.trapezoid(pz * np.exp(-g.slope * ((s - zs) ** 2 - g.d)), zs)
    assert tilted_information(g, s) == pytest.approx(-np.log(ex), abs=1e-6)


def test_mean_tilted_information_equals_rate():
    cases = [
        (bernoulli_hamming(0.2), (0.05, 0.1, 0.15)),
        (bernoulli_hamming(0.35), (0.1, 0.2, 0.3)),
        (bernoulli_hamming(0.5), (0.05, 0.11, 0.3)),
        (discrete_source([0.5, 0.3, 0.2], np.ones((3, 3)) - np.eye(3)),
         (0.1, 0.25, 0.4)),
        (gaussian_source(1.0), (0.1, 0.25, 0.5)),
    ]
    for src, ds in cases:
        for d in ds:
            rd = ba_rate_distortion(src, d)
            if src.kind == "gaussian":
                z = seed_stream(17, 0).normals(10 ** 6)
                vals = tilted_information(rd, z)
                se = vals.std() / np.sqrt(vals.size)
                assert abs(vals.mean() - rd.rate) < 4 * se
            else:
                vals = tilted_information(rd, np.arange(src.pmf.size))
                assert abs(float(src.pmf @ vals) - rd.rate) < 1e-6


def test_dispersion_examples():
    assert ba_rate_distortion(bernoulli_hamming(0.5), 0.11).dispersion == \
        pytest.approx(0.0, abs=1e-12)
    assert ba_rate_distortion(gaussian_source(1.0), 0.3).dispersion == \
        pytest.approx(0.5, abs=1e-15)
    rd = ba_rate_distortion(bernoulli_hamming(0.2), 0.1)
    # equals the source varentropy: j(s,d) = i_S(s) - h2(d)
    assert rd.dispersion / LN2 ** 2 == pytest.approx(0.64, abs=1e-6)
    z = seed_stream(18, 0).normals(10 ** 7)
    g = ba_rate_distortion(gaussian_source(1.0), 0.25)
    vals = tilted_information(g, z)
    se = np.std((vals - vals.mean()) ** 2) / np.sqrt(vals.size)
    assert abs(vals.var() - 0.5) < 4 * se


def test_rate_curve_convex_and_slope_consistent():
    src = bernoulli_hamming(0.2)
    ds = np.linspace(0.02, 0.18, 9)
    rates = np.array([ba_rate_distortion(src, d).rate for d in ds])
    assert np.all(np.diff(rates) < 0)
    assert np.all(np.diff(np.diff(rates)) > -1e-9)  # convex
    mid = 4
    fd = -(rates[mid + 1] - rates[mid - 1]) / (ds[mid + 1] - ds[mid - 1])
    lam = ba_rate_distortion(src, ds[mid]).slope
    assert abs(fd - lam) / lam < 1e-3 * (1 + (ds[1] - ds[0]) * lam * 50)


def test_source_expansion_values():
    rd = ba_rate_distortion(bernoulli_hamming(0.5), 0.11)
    assert source_expansion(50, 0.11, 0.0, rd) == pytest.approx(50 * rd.rate)
    val = source_expansion(100, 0.11, 0.1, rd)
    assert val == pytest.approx(0.9 * 100 * rd.rate, abs=1e-12)  # V = 0
    assert val / LN2 == pytest.approx(45.0, abs=0.05)
    g = ba_rate_distortion(gaussian_source(1.0), 0.25)
    got = source_expansion(400, 0.25, 0.05, g)
    q = normal_tail_inv(0.05)
    want = 0.95 * 400 * np.log(2) - np.sqrt(400 * 0.5 / (2 * np.pi)) * \
        np.exp(-q * q / 2)
    assert got == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(263.40 - 1.454, abs=0.05)


def test_source_expansion_second_term_is_a_truncated_normal_mean():
    # (1 - eps) k R - expansion = sqrt(k V) E[Z 1{Z > Qinv(eps)}], Z ~ N(0, 1)
    g = ba_rate_distortion(gaussian_source(1.0), 0.25)
    k = 400

    def term(eps):
        gap = (1 - eps) * k * g.rate - source_expansion(k, 0.25, eps, g)
        return gap / np.sqrt(k * g.dispersion)

    assert term(0.5) == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-12)
    assert term(0.9999) == pytest.approx(3.96e-4, rel=2e-3)
    assert term(0.1) == pytest.approx(0.17550, abs=5e-6)
    z = seed_stream(2024, 0).normals(10 ** 7)
    for eps in (0.1, 0.5, 0.9):
        sample = z * (z > normal_tail_inv(eps))
        se = sample.std() / np.sqrt(z.size)
        assert abs(sample.mean() - term(eps)) < 4 * se


def _exhaustive_min_entropy(pmf, dist, k, d):
    """Oracle: minimum output entropy over every map from source blocks to
    reproduction blocks meeting per-block distortion <= d."""
    ns, nz = dist.shape
    blocks = list(itertools.product(range(ns), repeat=k))
    reps = list(itertools.product(range(nz), repeat=k))
    pk = np.array([np.prod([pmf[a] for a in b]) for b in blocks])
    ok = np.array([[np.mean([dist[a, z] for a, z in zip(b, r)]) <= d + 1e-12
                    for r in reps] for b in blocks])
    best = np.inf
    for choice in itertools.product(*[np.flatnonzero(row) for row in ok]):
        mass = np.zeros(len(reps))
        np.add.at(mass, list(choice), pk)
        nzm = mass[mass > 0]
        best = min(best, float(-nzm @ np.log(nzm)))
    return best


def test_covering_entropy_trivial_cases():
    src = bernoulli_hamming(0.5)
    assert brute_force_deps_entropy(src, 2, 1.0, 0.0) == 0.0
    assert brute_force_deps_entropy(src, 1, 0.0, 0.0) == \
        pytest.approx(np.log(2), abs=1e-12)


def test_covering_entropy_matches_exhaustive_oracle():
    src = bernoulli_hamming(0.5)
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    for k, d in ((2, 0.5), (2, 0.25)):
        got = brute_force_deps_entropy(src, k, d, 0.0)
        want = _exhaustive_min_entropy(src.pmf, dist, k, d)
        assert got == pytest.approx(want, abs=1e-9)
    # the d=0.5 optimum is an unbalanced two-ball covering, below 1 bit
    assert brute_force_deps_entropy(src, 2, 0.5, 0.0) == pytest.approx(
        -(0.75 * np.log(0.75) + 0.25 * np.log(0.25)), abs=1e-9)


def test_covering_entropy_greedy_search_closed_forms():
    """At k=3 the 8^8 maps are past the exhaustive search, so the greedy
    search runs.  Radius 1/3 is met by the covering code {000, 111}, an
    equiprobable pair; radius 2/3 by one word, whose complement alone needs
    a second, so the map's masses are 7/8 and 1/8."""
    src = bernoulli_hamming(0.5)
    assert _assignment_exhaustive(*_product_source(src, 3)[:2], 1 / 3, 0.0) is None
    assert brute_force_deps_entropy(src, 3, 1 / 3, 0.0) == np.log(2)
    assert brute_force_deps_entropy(src, 3, 2 / 3, 0.0) == h2(1 / 8)


def test_covering_entropy_with_error_budget_never_higher():
    src = bernoulli_hamming(0.5)
    h0 = brute_force_deps_entropy(src, 2, 0.25, 0.0)
    h1 = brute_force_deps_entropy(src, 2, 0.25, 0.3)
    assert h1 <= h0 + 1e-12


def test_covering_entropy_dominates_block_rate():
    src = bernoulli_hamming(0.5)
    rd = ba_rate_distortion(src, 0.25)
    for k in (1, 2):
        assert brute_force_deps_entropy(src, k, 0.25, 0.0) >= k * rd.rate - 1e-9


def test_covering_entropy_rejects_large_blocks():
    with pytest.raises(ValueError):
        brute_force_deps_entropy(bernoulli_hamming(0.5), 13, 0.1, 0.0)
