"""Channel models: capacity solver, jump constant, stochastic stepping."""

import numpy as np
import pytest

from jsccsim.channels import (Dmc, ba_capacity, bec, bsc, dmc_steps,
                              max_log_ratio_a0)
from jsccsim.info import LN2
from jsccsim.rng import seed_stream


def h2(p):
    return -p * np.log(p) - (1 - p) * np.log(1 - p)


def test_bsc_capacity_matches_closed_form():
    ch = bsc(0.11)
    assert abs(ch.C - (LN2 - h2(0.11))) < 1e-9
    assert ch.ba_gap <= 1e-10


def test_useless_bsc_has_zero_capacity():
    assert bsc(0.5).C <= 1e-10


def test_bec_capacity_matches_closed_form():
    assert abs(bec(0.5).C - 0.5 * LN2) < 1e-9


def test_nonstochastic_matrix_rejected():
    with pytest.raises(ValueError):
        ba_capacity(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        ba_capacity(np.array([[1.1, -0.1], [0.5, 0.5]]))


def test_jump_constant_examples():
    assert max_log_ratio_a0(np.array([[0.89, 0.11], [0.11, 0.89]])) == \
        pytest.approx(np.log(0.89 / 0.11), abs=1e-12)
    assert max_log_ratio_a0(np.array([[0.5, 0.5], [0.5, 0.5]])) == 0.0
    z = np.array([[1.0, 0.0], [0.1, 0.9]])
    assert max_log_ratio_a0(z) == pytest.approx(np.log(10), abs=1e-12)


def test_caod_consistency():
    for ch in (bsc(0.11), bec(0.3), Dmc([[0.7, 0.2, 0.1], [0.05, 0.15, 0.8]])):
        assert np.max(np.abs(ch.caid @ ch.W - ch.caod)) < 1e-10
        assert ch.caid.min() >= 0
        assert abs(ch.caid.sum() - 1) < 1e-12


def test_symmetric_channel_caid_uniform():
    ch = bsc(0.11)
    assert np.max(np.abs(ch.caid - 0.5)) < 1e-6
    assert np.max(np.abs(ch.caod - 0.5)) < 1e-6


def test_noiseless_channel_step_is_identity():
    x = np.array([0, 1, 0, 1, 1, 0])
    for t, ch in enumerate((Dmc([[1.0, 0.0], [0.0, 1.0]]), bsc(0.0))):
        u = seed_stream(1, t).uniforms(x.size)
        assert dmc_steps(ch, x, u).tolist() == x.tolist()


def test_bsc_empirical_flip_rate():
    ch = bsc(0.11)
    n = 10 ** 6
    u = seed_stream(3, 0).uniforms(n)
    y = dmc_steps(ch, np.zeros(n, dtype=np.int64), u)
    se = np.sqrt(0.11 * 0.89 / n)
    assert abs(y.mean() - 0.11) < 4 * se
