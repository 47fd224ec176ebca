"""Each output check passes a genuine record and rejects a corrupted one."""

import copy
import json
import math

import pytest

import checks
import workloads
from jsccsim import harness

BSC = workloads.BSC
CONFIGS = {
    "sf": dict(workloads._sf({"kind": "uniform", "M": 16}), seed=11),
    "vlft": dict(workloads._vlft(8), seed=12),
    "guaranteed": {"kind": "jscc_guaranteed", "channel": BSC,
                   "source": {"kind": "bernoulli", "p": 0.5}, "k": 2, "d": 0.5,
                   "trials": 1000, "seed": 13},
    "excess": dict(workloads.EXCESS, trials=4, seed=14),
    "sk": {"kind": "sk", "P": 1.0, "n": 10, "trials": 20000, "seed": 15},
    "ppm": {"kind": "ppm", "E": 12.0, "m": 16, "N0": 2.0, "trials": 20000, "seed": 16},
    "energy_vl": {"kind": "energy_vl", "prior": {"kind": "uniform", "M": 256},
                  "N0": 2.0, "trials": 1000, "seed": 17},
}


@pytest.fixture(scope="module")
def records():
    out = {}
    for key, cfg in CONFIGS.items():
        emitted = json.loads(harness.emit([harness.run(dict(cfg))]))[0]
        out[key] = (cfg, workloads.reference(cfg), emitted)
    return out


def _all_checks(cfg, ref, rec):
    pools = checks.Pools()
    pools.add(rec)
    return checks.check_record(rec, cfg, ref) + checks.check_pooled(pools, cfg, ref)


def _corrupt(rec, metric, estimate, n=None):
    bad = copy.deepcopy(rec)
    m = bad["metrics"][metric]
    m["estimate"] = estimate
    if n is not None:  # a Bernoulli metric observed on n trials
        m["n"] = n
        m["half_width"] = 1.96 * math.sqrt(estimate * (1 - estimate) / n)
    return bad


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_genuine_records_pass(records, key):
    assert _all_checks(*records[key]) == []


def test_stop_feedback_checks(records):
    cfg, ref, rec = records["sf"]
    tau = rec["metrics"]["tau"]["estimate"]
    info = rec["metrics"]["info_sum_nats"]["estimate"]
    for bad in (_corrupt(rec, "error", 2 * math.exp(-cfg["gamma_nats"])),
                _corrupt(rec, "tau", 2 * tau),
                _corrupt(rec, "info_sum_nats", info + ref["a0"] + 1.0)):
        assert _all_checks(cfg, ref, bad)


def test_zero_error_checks(records):
    cfg, ref, rec = records["vlft"]
    assert _all_checks(cfg, ref, _corrupt(rec, "error", 0.001))
    assert _all_checks(cfg, ref, _corrupt(rec, "anomalies", 0.001))
    cfg, ref, rec = records["guaranteed"]
    assert _all_checks(cfg, ref, _corrupt(rec, "violations", 0.001))
    bad = copy.deepcopy(rec)
    bad["bounds"]["deps_entropy_nats"] *= 1.01
    assert _all_checks(cfg, ref, bad)


def test_excess_checks(records):
    cfg, ref, rec = records["excess"]
    assert _all_checks(cfg, ref, _corrupt(rec, "excess", 2 * cfg["eps"], n=1000))
    bad = _corrupt(rec, "tau", 2 * rec["metrics"]["tau"]["estimate"])
    bad["metrics"]["tau"]["half_width"] = 0.0
    assert _all_checks(cfg, ref, bad)
    assert _all_checks(cfg, ref, _corrupt(rec, "excess", 0.0, n=3))  # trial count


def test_sk_checks(records):
    cfg, ref, rec = records["sk"]
    assert _all_checks(cfg, ref, _corrupt(rec, "mse", 1.1 * rec["metrics"]["mse"]["estimate"]))
    assert _all_checks(cfg, ref, _corrupt(rec, "per_use_power", 1.1))


def test_ppm_doubled_error_rate(records):
    cfg, ref, rec = records["ppm"]
    err = rec["metrics"]["error"]["estimate"]
    assert _all_checks(cfg, ref, _corrupt(rec, "error", 2 * err, n=cfg["trials"]))


def test_energy_vl_checks(records):
    cfg, ref, rec = records["energy_vl"]
    energy = rec["metrics"]["energy"]["estimate"]
    assert _all_checks(cfg, ref, _corrupt(rec, "energy", energy * (1 + 1e-6)))
    assert _all_checks(cfg, ref, _corrupt(rec, "correct", 0.999))
    assert _all_checks(cfg, ref, _corrupt(rec, "bits", 9.0))


def test_worker_record_must_equal_serial(records):
    _, _, rec = records["sf"]
    rec = {k: v for k, v in rec.items() if k != "wall_time_s"}
    assert checks.check_same_record(rec, copy.deepcopy(rec), 2) == []
    bad = _corrupt(rec, "tau", rec["metrics"]["tau"]["estimate"] + 1e-12)
    assert checks.check_same_record(bad, rec, 2)


def test_references_are_independent_closed_forms():
    M, H = checks.dball_index_prior(20, 0.125, 0.05)
    assert M == 14886
    assert 0 < H < math.log(M)
    assert checks.bsc_capacity(0.11) == pytest.approx(0.3466, abs=1e-4)
    # two orthogonal signals: the error is Q(sqrt(E/N0))
    from scipy.special import ndtr
    assert checks.ppm_error_quadrature(4.0, 2, 2.0) == pytest.approx(ndtr(-math.sqrt(2.0)), abs=1e-10)


def test_setup_checks_reject_a_wrong_solver_output():
    cfg = workloads.EXCESS
    ref = workloads.reference(cfg)
    inputs = workloads.setup(cfg)
    assert workloads.check_setup(inputs, ref) == []
    assert workloads.check_setup(dict(inputs, M=inputs["M"] + 1), ref)
