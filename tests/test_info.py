"""Entropy, information density, and normal-tail primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsccsim.channels import Dmc, bsc
from jsccsim.info import LN2, entropy, normal_tail, normal_tail_inv, validate_pmf


def h2(p):
    return -p * np.log(p) - (1 - p) * np.log(1 - p)


def test_entropy_uniform_and_point_mass():
    assert entropy([0.25] * 4) == pytest.approx(np.log(4), abs=1e-15)
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert not np.signbit(entropy([1.0]))


def test_entropy_bernoulli_011():
    assert entropy([0.11, 0.89]) == pytest.approx(h2(0.11), abs=1e-12)
    assert entropy([0.11, 0.89]) / LN2 == pytest.approx(0.4999, abs=1e-4)


def test_pmf_validation_rejects_bad_vectors():
    with pytest.raises(ValueError):
        validate_pmf([0.5, 0.6])
    with pytest.raises(ValueError):
        validate_pmf([-0.1, 1.1])
    with pytest.raises(ValueError):
        validate_pmf([])


def test_info_density_bsc_and_noiseless():
    # Dmc.log_density[x, y] = log W(y|x) / P_Y*(y), the table the kernel gathers from
    ch = bsc(0.11)
    assert ch.log_density[0, 0] == pytest.approx(np.log(0.89 / 0.5), abs=1e-9)
    assert ch.log_density[0, 1] == pytest.approx(np.log(0.11 / 0.5), abs=1e-9)
    noiseless = Dmc([[1.0, 0.0], [0.0, 1.0]])
    assert noiseless.log_density[0, 0] == pytest.approx(np.log(2), abs=1e-9)
    assert noiseless.log_density[0, 1] == float("-inf")
    useless = bsc(0.5)
    assert useless.log_density[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert useless.log_density[1, 0] == pytest.approx(0.0, abs=1e-9)


def test_mean_info_density_under_caid_is_capacity():
    for ch in (bsc(0.11), Dmc([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])):
        n_in, n_out = ch.W.shape
        total = 0.0
        for x in range(n_in):
            for y in range(n_out):
                if ch.W[x, y] > 0:
                    total += ch.caid[x] * ch.W[x, y] * ch.log_density[x, y]
        assert total == pytest.approx(ch.C, abs=1e-7)


def test_normal_tail_basics():
    assert normal_tail(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_tail_inv(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_tail_inv(0.025) == pytest.approx(1.95996, abs=5e-6)
    with pytest.raises(ValueError):
        normal_tail_inv(0.0)
    with pytest.raises(ValueError):
        normal_tail_inv(1.0)


def test_normal_tail_round_trip_and_monotonicity():
    ps = np.geomspace(1e-6, 0.5, 40)
    ps = np.concatenate([ps, 1 - ps])
    for p in ps:
        assert abs(normal_tail(normal_tail_inv(p)) - p) < 1e-9
    xs = np.linspace(-6, 6, 200)
    q = np.array([normal_tail(x) for x in xs])
    assert np.all(np.diff(q) < 0)


@given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_entropy_bounds_property(weights):
    p = np.array(weights) / np.sum(weights)
    h = entropy(p)
    assert -1e-12 <= h <= np.log(p.size) + 1e-12
