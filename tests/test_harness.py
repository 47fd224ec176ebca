"""Experiment orchestration: config validation, deterministic parallel runs,
sweeps, serialization, and the CLI surface."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsccsim import harness, jscc
from jsccsim.channels import bsc
from jsccsim.cli import main as cli_main
from jsccsim.energy import IdealBitTransmitter, huffman_code, vl_feedback_energy_trial
from jsccsim.harness import ConfigError, emit, record_to_dict, run, sweep, validate
from jsccsim.info import LN2
from jsccsim.jscc import average_codebook_size
from jsccsim.ratedist import ba_rate_distortion, bernoulli_hamming, source_expansion
from jsccsim.rng import run_trials, seed_stream, stat
from jsccsim.vlf import MessagePrior, geometric_prior

SF_CFG = {
    "kind": "stop_feedback",
    "channel": {"kind": "bsc", "delta": 0.11},
    "prior": {"kind": "uniform", "M": 16},
    "gamma_nats": float(np.log(100)),
    "trials": 1500,
    "seed": 7,
}


def test_run_is_deterministic_across_repeats_and_workers():
    r1 = run(dict(SF_CFG), workers=1)
    r2 = run(dict(SF_CFG), workers=1)
    r4 = run(dict(SF_CFG), workers=4)
    assert r1.stripped() == r2.stripped() == r4.stripped()
    assert r1.violations == []


def test_unknown_kind_and_missing_fields_name_the_path():
    with pytest.raises(ConfigError, match="kind"):
        run({"kind": "nope", "trials": 1000, "seed": 0})
    with pytest.raises(ConfigError, match="channel.delta"):
        run({"kind": "stop_feedback", "channel": {"kind": "bsc"},
             "prior": {"kind": "uniform", "M": 4}, "gamma_nats": 2.0,
             "trials": 1000, "seed": 0})
    with pytest.raises(ConfigError):
        validate({"kind": "stop_feedback"})
    # a kind or bound that is not a string, such as a list, names its field
    for cfg, field in ((dict(SF_CFG, kind=["vlft"]), "kind"),
                       (dict(SF_CFG, prior={"kind": ["uniform"], "M": 4}), "prior.kind"),
                       (dict(BOUND_BASE, which={"a": 1}), "which")):
        with pytest.raises(ConfigError, match=field):
            run(cfg)


def test_small_trial_counts_rejected_for_ci_kinds():
    for cfg in (SF_CFG, SIMULATED["vlft"], ENERGY_VL_CFG, PPM_CFG):
        # validate runs no trial, so a short run fails before any trial
        with pytest.raises(ConfigError, match="trials=999 below the 1000 minimum"):
            validate(dict(cfg, trials=999))
        validate(dict(cfg, trials=1000))
    validate(dict(SIMULATED["jscc_average"], trials=50))


def test_bound_runs():
    cap = run({"kind": "bound", "which": "capacity",
               "channel": {"kind": "bsc", "delta": 0.11},
               "trials": 1, "seed": 0})
    h2 = -(0.11 * np.log(0.11) + 0.89 * np.log(0.89))
    assert cap.metrics["capacity_nats"]["estimate"] == pytest.approx(
        LN2 - h2, abs=1e-8)
    assert cap.metrics["a0_nats"]["estimate"] == pytest.approx(
        np.log(0.89 / 0.11), abs=1e-9)
    rd = run({"kind": "bound", "which": "rd",
              "source": {"kind": "bernoulli", "p": 0.2}, "d": 0.1,
              "trials": 1, "seed": 0})
    assert rd.metrics["rate_nats"]["estimate"] == pytest.approx(0.25293 * LN2,
                                                                abs=1e-4)
    with pytest.raises(ConfigError, match="which"):
        run({"kind": "bound", "which": "nope", "trials": 1, "seed": 0})


def test_sk_and_ppm_runs_attach_bounds():
    sk = run({"kind": "sk", "P": 1.0, "n": 10, "trials": 100000, "seed": 3})
    assert sk.bounds["mse_theory"] == pytest.approx(2 ** -10)
    assert sk.metrics["mse"]["estimate"] == pytest.approx(2 ** -10, rel=0.05)
    ppm = run({"kind": "ppm", "E": 8.0, "m": 2, "N0": 2.0,
               "trials": 100000, "seed": 4})
    assert ppm.violations == []


def test_sweep_is_row_major_with_derived_seeds():
    base = {"kind": "sk", "P": 1.0, "n": 2, "trials": 1000, "seed": 99}
    recs = sweep(base, {"P": [1.0, 3.0], "n": [1, 2, 3]})
    assert len(recs) == 6
    combos = [(r.config["P"], r.config["n"]) for r in recs]
    assert combos == [(1.0, 1), (1.0, 2), (1.0, 3),
                      (3.0, 1), (3.0, 2), (3.0, 3)]
    seeds = [r.config["seed"] for r in recs]
    assert len(set(seeds)) == 6
    assert seeds[0] == seed_stream(99, 0).key % 2 ** 63
    assert sweep(base, {})[0].config["P"] == 1.0
    with pytest.raises(ConfigError):
        sweep(base, {"P": [0] * 101, "n": [0] * 101})
    with pytest.raises(ConfigError):
        sweep(base, {"P": [1], "n": [1], "sigma2": [1]})


@pytest.mark.parametrize("grid", ['{"channel": 5}', '[1, 2]', '"Pn"', '{"P": "13"}'])
def test_sweep_grid_must_map_fields_to_lists(tmp_path, grid):
    base = {"kind": "sk", "P": 1.0, "n": 2, "trials": 1000, "seed": 99}
    with pytest.raises(ConfigError, match="grid"):
        sweep(base, json.loads(grid))
    path = tmp_path / "sk.json"
    path.write_text(json.dumps(base))
    assert cli_main(["sweep", "--config", str(path), "--grid", grid]) == 2


def test_emit_json_round_trip():
    rec = run(dict(SF_CFG, trials=1000))
    text = emit([rec], fmt="json")
    parsed = json.loads(text)
    assert parsed[0]["schema_version"] == 2
    got = parsed[0]
    want = record_to_dict(rec)
    got.pop("wall_time_s"), want.pop("wall_time_s")
    assert got == want


def test_emit_csv_format_units_and_precision():
    rec = run(dict(SF_CFG, trials=1000))
    text = emit([rec], fmt="csv", units="bits")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 1
    row = rows[0]
    assert "config.gamma_bits" in row
    assert float(row["config.gamma_bits"]) == pytest.approx(
        np.log(100) / LN2, rel=1e-12)
    # >= 12 significant digits survive the round trip
    assert abs(float(row["metrics.tau.estimate"])
               - rec.metrics["tau"]["estimate"]) < 1e-9
    assert "\r\n" in text  # RFC-4180 line endings
    nats = emit([rec], fmt="csv", units="nats")
    nrow = next(csv.DictReader(io.StringIO(nats)))
    assert float(nrow["config.gamma_nats"]) == pytest.approx(np.log(100))


def test_emit_to_file(tmp_path):
    rec = run({"kind": "bound", "which": "capacity",
               "channel": {"kind": "bsc", "delta": 0.2}, "trials": 1, "seed": 0})
    out = tmp_path / "caps.csv"
    emit([rec], fmt="csv", path=str(out))
    assert out.exists() and "capacity" in out.read_text()


def test_cli_exit_codes(tmp_path):
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"kind": "bound", "which": "capacity",
                               "channel": {"kind": "bsc", "delta": 0.11},
                               "trials": 1, "seed": 0}))
    out = tmp_path / "out.json"
    assert cli_main(["capacity", "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert out.exists()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["capacity", "--config", str(bad)]) == 2
    assert cli_main(["capacity", "--config", str(tmp_path / "missing.json")]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert cli_main(["capacity", "--config", str(not_object)]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"kind": "stop_feedback"}))
    assert cli_main(["sim-vlf", "--config", str(incomplete)]) == 2


BSC = {"kind": "bsc", "delta": 0.11}
BERN = {"kind": "bernoulli", "p": 0.5}
EXCESS_CFG = {"kind": "jscc_excess", "channel": BSC, "source": BERN, "k": 8,
              "d": 0.125, "eps": 0.1, "split": [0.05, 0.05], "trials": 50, "seed": 3}


@pytest.mark.parametrize("eps", [1.0, 1.5, 0.0])
def test_jscc_excess_rejects_eps_outside_unit_interval(tmp_path, eps):
    with pytest.raises(ConfigError, match="eps"):
        run(dict(EXCESS_CFG, eps=eps))
    cfg = tmp_path / "excess.json"
    cfg.write_text(json.dumps(dict(EXCESS_CFG, eps=eps)))
    assert cli_main(["sim-jscc", "--config", str(cfg)]) == 2


SIMULATED = {
    "stop_feedback": SF_CFG,
    "vlft": {"kind": "vlft", "channel": BSC, "prior": {"kind": "uniform", "M": 8},
             "trials": 1000, "seed": 1},
    "jscc_excess": EXCESS_CFG,
    "jscc_average": {"kind": "jscc_average", "channel": BSC, "source": BERN, "k": 8,
                     "d": 0.11, "M": 64, "trials": 50, "seed": 1},
    "jscc_guaranteed": {"kind": "jscc_guaranteed", "channel": BSC, "source": BERN,
                        "k": 2, "d": 0.5, "trials": 50, "seed": 1},
}


@pytest.mark.parametrize("kind", list(SIMULATED))
def test_simulated_kinds_reject_zero_capacity_channel(kind):
    useless = {"kind": "bsc", "delta": 0.5}
    with pytest.raises(ConfigError, match="channel"):
        run(dict(SIMULATED[kind], channel=useless))
    cap = run({"kind": "bound", "which": "capacity", "channel": useless})
    assert cap.metrics["capacity_nats"]["estimate"] == 0.0


def _exit_code(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return cli_main([command, "--config", str(path), "--out", str(tmp_path / "out.json")])


def test_uniform_prior_without_messages_is_a_config_error(tmp_path):
    cfg = dict(SF_CFG, prior={"kind": "uniform", "M": 0})
    with pytest.raises(ConfigError, match="prior.M"):
        run(cfg)
    assert _exit_code(tmp_path, "sim-vlf", cfg) == 2


@pytest.mark.parametrize("command, field, cfg", [
    ("sim-vlf", "channel.delta", dict(SF_CFG, channel={"kind": "bsc", "delta": 1.5})),
    ("sim-vlf", "prior.q", dict(SF_CFG, prior={"kind": "geometric", "q": 1.0})),
    ("sim-jscc", "source.p", dict(EXCESS_CFG, source={"kind": "bernoulli", "p": 1.5})),
])
def test_model_domain_errors_are_config_errors_naming_the_field(tmp_path, command,
                                                                 field, cfg):
    with pytest.raises(ConfigError, match=field):
        run(cfg)
    assert _exit_code(tmp_path, command, cfg) == 2


def test_unsorted_vlft_prior_is_rejected_before_any_trial(tmp_path):
    cfg = dict(SIMULATED["vlft"], prior={"kind": "pmf", "pmf": [0.2, 0.3, 0.5]})
    with pytest.raises(ConfigError, match="prior.pmf"):
        run(cfg)
    assert _exit_code(tmp_path, "sim-vlft", cfg) == 2


@pytest.mark.parametrize("seed", [1.5, "3", True, -1, 2 ** 64])
def test_seed_must_be_an_integer_in_uint64_range(tmp_path, seed):
    cfg = dict(SF_CFG, seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        run(cfg)
    assert _exit_code(tmp_path, "sim-vlf", cfg) == 2
    with pytest.raises(ConfigError, match="seed"):
        sweep(cfg, {"gamma_nats": [4.0, 5.0]})


SK_CFG = {"kind": "sk", "P": 1.0, "n": 5, "trials": 1000, "seed": 0}
ENERGY_VL_CFG = {"kind": "energy_vl", "prior": {"kind": "uniform", "M": 8},
                 "trials": 1000, "seed": 0}
PPM_CFG = {"kind": "ppm", "E": 4.0, "m": 4, "N0": 2.0, "trials": 1000, "seed": 0}
RD_CFG = {"kind": "bound", "which": "rd", "source": {"kind": "bernoulli", "p": 0.2},
          "d": 0.1}


# ppm has no subcommand of its own; sweep without a grid runs any kind.
@pytest.mark.parametrize("command, message, cfg", [
    ("sim-sk", "n=-1", dict(SK_CFG, n=-1)),
    ("sim-sk", "n=0", dict(SK_CFG, n=0)),
    ("sim-sk", "P=-1.0", dict(SK_CFG, P=-1.0)),
    ("sim-sk", "sigma2=0.0", dict(SK_CFG, sigma2=0.0)),
    ("sweep", "m=0", dict(PPM_CFG, m=0)),
    ("sweep", "m=131072", dict(PPM_CFG, m=2 ** 17)),
    ("sweep", "N0=0.0", dict(PPM_CFG, N0=0.0)),
    ("sweep", "E=-1.0", dict(PPM_CFG, E=-1.0)),
    ("rd", "d: d=0.3 violates d < d_max", dict(RD_CFG, d=0.3)),
    ("sim-jscc", "d: d=0.6 violates d < d_max", dict(EXCESS_CFG, d=0.6)),
])
def test_sk_ppm_and_rd_domain_errors_are_config_errors(tmp_path, command, message, cfg):
    with pytest.raises(ConfigError, match=f"invalid field: {message}"):
        run(cfg)
    assert _exit_code(tmp_path, command, cfg) == 2


def test_largest_seed_runs():
    assert run(dict(SF_CFG, seed=2 ** 64 - 1)).violations == []


def test_cli_subcommands_fill_in_kind_and_bound(tmp_path):
    assert _exit_code(tmp_path, "rd", {"source": BERN, "d": 0.1}) == 0
    rec = json.loads((tmp_path / "out.json").read_text())[0]
    assert (rec["kind"], rec["config"]["which"]) == ("bound", "rd")
    cfg = {k: v for k, v in SIMULATED["vlft"].items() if k != "kind"}
    assert _exit_code(tmp_path, "sim-vlft", cfg) == 0
    assert json.loads((tmp_path / "out.json").read_text())[0]["kind"] == "vlft"


def test_cli_sweep_and_units(tmp_path, capsys):
    cfg = tmp_path / "sk.json"
    cfg.write_text(json.dumps({"kind": "sk", "P": 1.0, "n": 2,
                               "trials": 1000, "seed": 5,
                               "grid": {"P": [1.0, 3.0]}}))
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--format", "csv",
                     "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 2


def test_cli_units_bits_scale_variances_by_ln2_squared(tmp_path):
    cfg = {"source": {"kind": "bernoulli", "p": 0.3}, "d": 0.1}
    nats = json.loads(emit([run({"kind": "bound", "which": "rd", **cfg})]))[0]["metrics"]
    assert nats["dispersion_nats2"]["estimate"] > 0
    path = tmp_path / "rd.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert cli_main(["rd", "--config", str(path), "--units", "bits", "--out", str(out)]) == 0
    bits = json.loads(out.read_text())[0]["metrics"]
    assert set(bits) == {"rate_bits", "slope", "dispersion_bits2"}
    assert bits["dispersion_bits2"]["estimate"] == nats["dispersion_nats2"]["estimate"] / LN2 ** 2
    assert bits["rate_bits"]["estimate"] == nats["rate_nats"]["estimate"] / LN2


def test_guaranteed_distortion_violation_exits_3_under_check_bounds(tmp_path, monkeypatch,
                                                                    capsys):
    """A decoder that returns the wrong reproduction breaks the guarantee: the
    record lists the violation, and the CLI exits 3 only with --check-bounds."""
    real = jscc.vlft_many

    def wrong_message(dmc, prior, keys, w, *args):
        taus, decoded, *rest = real(dmc, prior, keys, w, *args)
        return (taus, (decoded + 1) % prior.size, *rest)

    monkeypatch.setattr(jscc, "vlft_many", wrong_message)
    path = tmp_path / "guaranteed.json"
    path.write_text(json.dumps({"kind": "jscc_guaranteed", "channel": BSC, "source": BERN,
                                "k": 2, "d": 0.5, "trials": 200, "seed": 1}))
    out = tmp_path / "out.json"
    assert cli_main(["sim-jscc", "--config", str(path), "--out", str(out),
                     "--check-bounds"]) == 3
    assert "bound violation: a reproduction exceeds the distortion target d" in \
        capsys.readouterr().err
    assert cli_main(["sim-jscc", "--config", str(path), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())[0]
    assert rec["violations"] == ["a reproduction exceeds the distortion target d"]
    assert rec["metrics"]["violations"]["estimate"] > 0


def test_stop_feedback_length_bound_holds_on_the_noiseless_channel(tmp_path):
    """On W = I every use carries density ln 2 and a0 is 0; the overshoot
    term is the largest density, so with M=4 and gamma=1, where every trial
    stops at tau = 4, the bound is 2 + (1 + ln 2)/ln 2 = 4.44, not 3.44."""
    cfg = dict(SF_CFG, channel={"kind": "matrix", "W": [[1, 0], [0, 1]]},
               prior={"kind": "uniform", "M": 4}, gamma_nats=1.0, trials=1000)
    rec = run(cfg)
    assert rec.metrics["tau"] == {"estimate": 4.0, "half_width": 0.0, "n": 1000}
    assert rec.bounds["length_bound"] == pytest.approx(3 + 1 / LN2)
    assert rec.violations == []
    path = tmp_path / "noiseless.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sim-vlf", "--config", str(path), "--out", str(tmp_path / "out.json"),
                     "--check-bounds"]) == 0


def test_converse_length_bound_solves_its_two_term_inequalities():
    """vlf_length is R_{S^k}(d, eps)/C, and vlft_length the smallest ell with
    C ell + ln(ell + 1) + 1 >= R, R the two-term source expansion."""
    m = run(dict(BOUND_BASE, which="converse_length")).metrics
    R = source_expansion(10, 0.1, 0.1, ba_rate_distortion(bernoulli_hamming(0.3), 0.1))
    C = bsc(0.11).C
    assert R > 1
    assert m["vlf_length"]["estimate"] == R / C
    ell = m["vlft_length"]["estimate"]
    assert C * ell + np.log(ell + 1) + 1 >= R
    below = ell * (1 - 1e-9)
    assert C * below + np.log(below + 1) + 1 < R


def _add_to_item(index, amount):
    """A breaker of a function that returns a tuple: adds ``amount`` to item
    ``index`` of what it returns."""
    def breaker(real):
        def broken(*args, **kwargs):
            out = list(real(*args, **kwargs))
            out[index] = out[index] + amount
            return tuple(out)
        return broken
    return breaker


def _excess_of_one(real):
    def broken(*args, **kwargs):
        metrics, extra = real(*args, **kwargs)
        return dict(metrics, excess=stat(np.ones(metrics["excess"]["n"]))), extra
    return broken


# ppm has no subcommand of its own; sweep without a grid runs any kind.
@pytest.mark.parametrize("name, breaker, command, cfg, message", [
    ("stop_feedback_many", _add_to_item(0, 1000), "sim-vlf", SF_CFG,
     "mean length exceeds the stop-feedback bound beyond 4 SE"),
    ("vlft_many", _add_to_item(2, 1.0), "sim-vlft", SIMULATED["vlft"],
     "zero-error VLFT produced decoding errors"),
    ("simulate_excess", _excess_of_one, "sim-jscc", EXCESS_CFG,
     "excess-distortion probability exceeds target beyond 4 SE"),
    ("send_word", _add_to_item(1, 100.0), "sim-energy", ENERGY_VL_CFG,
     "mean energy not strictly below N0 ln2 (H+1)"),
    ("ppm_error_prob", lambda real: lambda *args: real(*args) + 0.5, "sweep", PPM_CFG,
     "PPM error rate disagrees with quadrature beyond 4 SE"),
])
def test_every_record_violation_exits_3_under_check_bounds(tmp_path, monkeypatch, capsys,
                                                           name, breaker, command, cfg,
                                                           message):
    """Each check of a simulated number, broken at the name the harness calls,
    lists its violation in the record; the CLI exits 3 only with
    --check-bounds."""
    monkeypatch.setattr(harness, name, breaker(getattr(harness, name)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert cli_main([command, "--config", str(path), "--out", str(out),
                     "--check-bounds"]) == 3
    assert f"bound violation: {message}" in capsys.readouterr().err
    assert cli_main([command, "--config", str(path), "--out", str(out)]) == 0
    assert message in json.loads(out.read_text())[0]["violations"]


@pytest.mark.parametrize("cfg, field", [
    (dict(ENERGY_VL_CFG, prior={"kind": "uniform", "M": 1}), "entropy_nats"),
    (dict(SIMULATED["vlft"], prior={"kind": "uniform", "M": 1}), "entropy_over_C"),
    (dict(SIMULATED["jscc_guaranteed"], d=1.0), "deps_entropy_nats"),
])
def test_point_mass_entropies_are_emitted_as_positive_zero(cfg, field):
    value = json.loads(emit([run(cfg)]))[0]["bounds"][field]
    assert value == 0.0 and not np.signbit(value)


def test_guaranteed_pipeline_at_k3_runs_the_greedy_covering_map():
    """k=3 takes the greedy covering search; at d=1/3 its map is the covering
    code {000, 111}, of entropy ln 2, and every trial meets d."""
    rec = run(dict(SIMULATED["jscc_guaranteed"], k=3, d=1 / 3))
    assert rec.bounds["deps_entropy_nats"] == np.log(2)
    assert rec.metrics["violations"]["estimate"] == 0.0
    assert rec.violations == []


def test_jscc_average_without_m_runs_the_default_codebook_size():
    cfg = {key: value for key, value in SIMULATED["jscc_average"].items() if key != "M"}
    M = average_codebook_size(8, ba_rate_distortion(bernoulli_hamming(0.5), 0.11))
    assert M == 124
    default, explicit = run(cfg), run(dict(cfg, M=M))
    assert (default.metrics, default.bounds) == (explicit.metrics, explicit.bounds)


def test_cli_seed_and_trials_override_the_config_and_print_to_stdout(tmp_path, capsys):
    path = tmp_path / "vlft.json"
    path.write_text(json.dumps(SIMULATED["vlft"]))
    assert cli_main(["sim-vlft", "--config", str(path), "--seed", "9",
                     "--trials", "1200"]) == 0
    rec = json.loads(capsys.readouterr().out)[0]
    want = run(dict(SIMULATED["vlft"], seed=9, trials=1200))
    assert (rec["config"]["seed"], rec["config"]["trials"]) == (9, 1200)
    assert (rec["metrics"], rec["bounds"]) == (want.metrics, want.bounds)


def test_seed_stream_contract():
    assert seed_stream(5, 0).key == seed_stream(5, 0).key
    assert seed_stream(5, 0).key != seed_stream(5, 1).key
    firsts = {seed_stream(5, t).key for t in range(1000)}
    assert len(firsts) == 1000


NEAR_USELESS = {"kind": "bsc", "delta": 0.4999999}
GAUSSIAN = {"kind": "gaussian", "variance": 1.0}
NESTED_PMF = {"kind": "pmf", "pmf": [[0.5, 0.5]]}


def _no_trials(*args, **kwargs):
    raise AssertionError("a trial ran before the config was checked")


# Values a simulator takes once per run; each is checked before any trial.
@pytest.mark.parametrize("command, message, cfg", [
    ("sim-vlf", "gamma_nats=-1", dict(SF_CFG, gamma_nats=-1)),
    ("sim-vlf", "gamma_nats=0", dict(SF_CFG, gamma_nats=0)),
    ("sim-vlf", "gamma_nats=inf", dict(SF_CFG, gamma_nats=float("inf"))),
    ("sim-vlf", "gamma_nats=nan", dict(SF_CFG, gamma_nats=float("nan"))),
    ("sim-vlf", "mode='bogus'", dict(SF_CFG, mode="bogus")),
    ("sim-vlft", "decode_rule='bogus'", dict(SIMULATED["vlft"], decode_rule="bogus")),
    ("sim-jscc", "mode='bogus'", dict(EXCESS_CFG, mode="bogus")),
    ("sim-jscc", "k=0", dict(EXCESS_CFG, k=0)),
    ("sim-jscc", "eps=0.1 must exceed 1/sqrt", {key: v for key, v in EXCESS_CFG.items()
                                               if key != "split"}),
    ("sim-jscc", "M=0", dict(SIMULATED["jscc_average"], M=0)),
    ("sim-jscc", "M=1048577", dict(SIMULATED["jscc_average"], M=2 ** 20 + 1)),
    ("sim-jscc", "k=5", dict(SIMULATED["jscc_guaranteed"], k=5)),
    ("sim-jscc", r"split=\[0\.0, 0\.1\]", dict(EXCESS_CFG, split=[0.0, 0.1])),
    ("sim-jscc", r"split=\[0\.05\]", dict(EXCESS_CFG, split=[0.05])),
    ("sim-jscc", "split='ab'", dict(EXCESS_CFG, split="ab")),
    ("sim-jscc", "source has unbounded distortion",
     dict(SIMULATED["jscc_average"], source={"kind": "gaussian", "variance": 1.0})),
    ("sim-energy", "N0=-1", dict(ENERGY_VL_CFG, N0=-1)),
    ("sim-energy", "N0=0", dict(ENERGY_VL_CFG, N0=0)),
    ("sim-sk", "P='x'", dict(SK_CFG, P="x")),
    ("sim-sk", "n='x'", dict(SK_CFG, n="x")),
    ("sim-sk", "n=None", dict(SK_CFG, n=None)),
    ("sim-sk", r"n=2\.7", dict(SK_CFG, n=2.7)),
    ("sim-sk", "P=inf", dict(SK_CFG, P=float("inf"))),
    ("sim-sk", "sigma2=inf", dict(SK_CFG, sigma2=float("inf"))),
    ("sweep", "E='x'", dict(PPM_CFG, E="x")),
    ("sweep", r"m=\[4\]", dict(PPM_CFG, m=[4])),
    ("sweep", r"m=4\.6", dict(PPM_CFG, m=4.6)),
    ("sweep", "E=inf", dict(PPM_CFG, E=float("inf"))),
    ("sweep", "N0=inf", dict(PPM_CFG, N0=float("inf"))),
    ("sim-jscc", "d='x'", dict(EXCESS_CFG, d="x")),
    ("sim-jscc", "eps='x'", dict(EXCESS_CFG, eps="x")),
    ("sim-jscc", "d='x'", dict(SIMULATED["jscc_average"], d="x")),
    ("sim-jscc", "d='x'", dict(SIMULATED["jscc_guaranteed"], d="x")),
    # finite values whose arithmetic overflows
    ("sim-sk", r"P=1e\+300 with n=2", dict(SK_CFG, P=1e300, n=2)),
    ("sim-jscc", "k=3000", {key: v for key, v in dict(SIMULATED["jscc_average"], k=3000).items()
                            if key != "M"}),
    # 0 < C ~ 2e-14: the length bound is far above TRIAL_USE_CAP uses
    *[(command, "channel", dict(SIMULATED[kind], channel=NEAR_USELESS))
      for command, kind in (("sim-vlf", "stop_feedback"), ("sim-vlft", "vlft"),
                            ("sim-jscc", "jscc_excess"), ("sim-jscc", "jscc_average"),
                            ("sim-jscc", "jscc_guaranteed"))],
    # a channel share of 1 or more gives gamma = ln(1/eps) <= 0
    ("sim-jscc", r"split=\[0\.05, 1\.0\]", dict(EXCESS_CFG, split=[0.05, 1.0])),
    # a bool is not an integer trial count
    ("sim-jscc", "trials=True", dict(SIMULATED["jscc_guaranteed"], trials=True)),
    ("sim-jscc", "trials=True", dict(SIMULATED["jscc_average"], trials=True)),
    ("sim-sk", "trials=True", dict(SK_CFG, trials=True)),
    # the covering search and the type classes need a discrete source
    ("sim-jscc", "source.kind='gaussian'", dict(EXCESS_CFG, source=GAUSSIAN)),
    ("sim-jscc", "source.kind='gaussian'", dict(SIMULATED["jscc_guaranteed"], source=GAUSSIAN)),
    # no reproduction block is within d of any source block
    ("sim-jscc", "source, k, d: no map meets distortion -1.0",
     dict(SIMULATED["jscc_guaranteed"], d=-1.0)),
    # no codebook of at most 2^20 words meets the source share eps - 1/sqrt(k)
    ("sim-jscc", "eps: cannot reach miss", {key: v for key, v in dict(
        EXCESS_CFG, k=100, d=0.2, eps=0.5).items() if key != "split"}),
    # a channel error budget k^(-3/2) of 1 gives gamma = 0
    ("sim-jscc", "k=1", dict(SIMULATED["jscc_average"], k=1)),
    *[(command, "prior.pmf: prior must be a vector", dict(cfg, prior=NESTED_PMF))
      for command, cfg in (("sim-vlf", SF_CFG), ("sim-vlft", SIMULATED["vlft"]),
                           ("sim-energy", ENERGY_VL_CFG))],
    ("sim-vlf", "channel=0.11 must be an object", dict(SF_CFG, channel=0.11)),
])
def test_simulator_domain_errors_are_config_errors_before_any_trial(tmp_path, monkeypatch,
                                                                     command, message, cfg):
    from jsccsim import harness, jscc

    for module in (harness, jscc):
        monkeypatch.setattr(module, "run_trials", _no_trials)
    for name in ("sk_mse_batch", "ppm_trials"):
        monkeypatch.setattr(harness, name, _no_trials)
    with pytest.raises(ConfigError, match=f"invalid field: {message}"):
        run(cfg)
    assert _exit_code(tmp_path, command, cfg) == 2


BOUND_BASE = {"kind": "bound", "channel": BSC, "source": {"kind": "bernoulli", "p": 0.3},
              "d": 0.1, "k": 10, "eps": 0.1, "E": 6.0}


@pytest.mark.parametrize("message, cfg", [
    ("k=0", dict(BOUND_BASE, which="expansion", k=0)),
    ("k, d, eps: eps must be in", dict(BOUND_BASE, which="expansion", eps=1.5)),
    ("channel, k, d, eps: eps must be in", dict(BOUND_BASE, which="naive_separation", eps=0)),
    ("k=-3", dict(BOUND_BASE, which="converse_length", k=-3)),
    ("expansion_kind, k, eps, source: eps",
     dict(BOUND_BASE, which="energy_expansion", expansion_kind="excess_fb", eps=2)),
    ("k='x'", dict(BOUND_BASE, which="awgn_converse", k="x")),
    ("k, E, N0, gamma: need E >= 0", dict(BOUND_BASE, which="awgn_converse", E=-1)),
    ("k=2.7", dict(BOUND_BASE, which="awgn_converse", k=2.7)),
    ("channel, k, d, eps: C must be positive",
     dict(BOUND_BASE, which="naive_separation", channel={"kind": "bsc", "delta": 0.5})),
])
def test_bound_domain_errors_are_config_errors_naming_the_fields(tmp_path, message, cfg):
    with pytest.raises(ConfigError, match=f"invalid field: {message}"):
        run(cfg)
    assert _exit_code(tmp_path, "bound", cfg) == 2


# Every Huffman word of a uniform M=256 prior has 8 bits; these priors have
# words of several lengths, so a row taken for the wrong message shows.
@pytest.mark.parametrize("prior, model", [
    ({"kind": "geometric", "q": 0.7}, geometric_prior(0.7)),
    ({"kind": "pmf", "pmf": [0.4, 0.2, 0.15, 0.1, 0.07, 0.05, 0.03]},
     MessagePrior([0.4, 0.2, 0.15, 0.1, 0.07, 0.05, 0.03])),
])
def test_energy_vl_record_equals_its_per_trial_rows(prior, model):
    cfg = dict(ENERGY_VL_CFG, prior=prior, N0=1.5, seed=21)
    tx, words = IdealBitTransmitter(1.5), huffman_code(model)
    rows = np.array([vl_feedback_energy_trial(model, tx, seed_stream(21, t), words)
                     for t in range(cfg["trials"])], dtype=np.float64)
    want = {name: stat(rows[:, i]) for i, name in enumerate(("correct", "energy", "bits"))}
    assert repr(run(cfg).metrics) == repr(want)


# The property below starts from one valid config per kind and replaces a few
# fields with values from these lists: in range, at an edge, out of range or
# of the wrong type.  Sizes stay small so that a case costs milliseconds.
_MISSING = object()
_JUNK = [_MISSING, None, "x", [1], {"a": 1}, True, float("nan"), float("inf")]
_HAMMING3 = (1 - np.eye(3)).tolist()
_FIELD_VALUES = {
    "kind": [*harness._RUNNERS, "bogus"],
    "channel": [*({"kind": "bsc", "delta": x} for x in (0.0, 0.11, 0.4999999, 0.5, 1.0, -0.1)),
                *({"kind": "bec", "delta": x} for x in (0.0, 0.6, 1.0)),
                *({"kind": "matrix", "W": W} for W in (
                    [[1, 0], [0, 1]], [[0.9, 0.1]], [[1]], [], [[1, 0], [0, 1], [0.5, 0.5]],
                    [[0.5, 0.6], [0.5, 0.5]], [[[1.0]]], "x")),
                {"kind": "awgn"}, {}],
    "prior": [*({"kind": "uniform", "M": M} for M in (0, 1, 2, 16, 600, 2.5)),
              *({"kind": "geometric", "q": q} for q in (0, 0.5, 0.99, 1)),
              *({"kind": "pmf", "pmf": p} for p in (
                  [0.5, 0.5], [0.7, 0.3], [0.3, 0.7], [[0.5, 0.5]], [], [1.0], [0.5, 0.6],
                  [1, 0], 1.0, "x"))],
    "source": [*({"kind": "bernoulli", "p": p} for p in (0.0, 0.11, 0.5, 1.0, 1.5)),
               *({"kind": "gaussian", "variance": v} for v in (1.0, 0.0, -1.0)),
               *({"kind": "discrete", "pmf": p, "distortion": D} for p, D in (
                   ([0.2, 0.3, 0.5], _HAMMING3), ([0.5, 0.5], [[0, 1, 0.5], [1, 0, 0.5]]),
                   ([1.0], [[0.0]]), ([0.5, 0.5], [[0, 1]]), ([0.5, 0.5], "x"),
                   ([0.5, 0.5], [[0, float("inf")], [float("inf"), 0]]),
                   ([0.5, 0.5], [[0, -1], [1, 0]])))],
    "gamma_nats": [0.5, 4.6, 0, -1],
    "mode": ["full_decoder", "true_path", "bogus"],
    "decode_rule": ["map_stop", "first_dominance", "largest_at_stop", "bogus"],
    "k": [0, 1, 2, 3, 4, 5, 8, 2.5],
    "d": [-1.0, 0.0, 0.05, 0.11, 0.3, 0.5, 1.0],
    "eps": [0.0, 0.1, 0.5, 0.9, 1.0],
    "split": [[0.05, 0.05], [0.4, 0.4], [0.05], [0, 1], "ab"],
    "M": [1, 8, 64, 0, 2 ** 30],
    "P": [0.0, 1.0, -1.0, 1e300],
    "n": [0, 1, 5, 2.5],
    "sigma2": [1.0, 0.0],
    "E": [0.0, 4.0, -1.0],
    "m": [0, 1, 4, 2 ** 17],
    "N0": [2.0, 0.0, -1],
    "which": [*harness._BOUNDS, "bogus"],
    "expansion_kind": ["avg_fb", "excess_fb", "excess_nofb", "avg_power_nofb", "bits_nofb",
                       "bits_fb", "bogus"],
    "gamma": [1.0, 0.0, -1.0],
    "trials": [1, 5, 1000, 0],
    "seed": [0, 2 ** 64 - 1, -1, 1.5],
}
_BASES = [SF_CFG, SIMULATED["vlft"], EXCESS_CFG, SIMULATED["jscc_average"],
          SIMULATED["jscc_guaranteed"], SK_CFG, ENERGY_VL_CFG, PPM_CFG,
          *(dict(BOUND_BASE, which=which, expansion_kind="excess_fb")
            for which in harness._BOUNDS)]


@st.composite
def _configs(draw):
    cfg = dict(draw(st.sampled_from(_BASES)))
    for name in draw(st.lists(st.sampled_from(list(_FIELD_VALUES)), max_size=3)):
        value = draw(st.sampled_from(_FIELD_VALUES[name] + _JUNK))
        if value is _MISSING:
            cfg.pop(name, None)
        else:
            cfg[name] = value
    return cfg


@settings(deadline=None, max_examples=300, derandomize=True)
@given(_configs())
def test_every_config_yields_a_record_or_a_config_error(cfg):
    """Any JSON-shaped config of any kind: ``run`` returns a record that
    ``emit`` writes, or raises a ConfigError; nothing else escapes.  The
    simulators run two trials."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (harness, jscc):
            mp.setattr(module, "run_trials",
                       lambda fn, trials, workers=1: run_trials(fn, min(trials, 2), workers))
        try:
            rec = run(cfg)
        except ConfigError:
            return
    emit([rec])
