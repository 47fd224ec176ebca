"""Experiment orchestration: validated configs, deterministic (worker-count
invariant) trial execution, statistics, and CSV/JSON emission.

Every trial is a pure function of (master seed, trial id), so results are
reduced in trial-id order and do not depend on how trials were distributed
across workers.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .channels import Dmc, bec, bsc
from .energy import (PPM_MAX_M, IdealBitTransmitter, awgn_jscc_converse,
                     energy_expansion, huffman_code, ppm_error_prob, ppm_trials,
                     send_word, sk_mse_batch)
from .info import LN2
from .jscc import (MATERIALIZE_MAX, average_codebook_size, naive_separation_bound,
                   simulate_average, simulate_excess, simulate_guaranteed)
from .ratedist import (ba_rate_distortion, bernoulli_hamming, discrete_source,
                       gaussian_source, source_expansion)
from .rng import run_trials, seed_stream, stat, trial_keys
from .vlf import (FULL_DECODER_MAX_SUPPORT, STOP_FEEDBACK_MODES, VLFT_DECODE_RULES,
                  LengthBoundError, MessagePrior, geometric_prior,
                  stop_feedback_length_bound, stop_feedback_many, trial_length_bound,
                  uniform_prior, vlf_converse_length, vlft_converse_length, vlft_many)

SCHEMA_VERSION = 2
MIN_TRIALS_FOR_CI = 1000
# Kinds whose metrics carry normal-approximation confidence intervals.
_CI_KINDS = ("stop_feedback", "vlft", "energy_vl", "ppm")


class ConfigError(ValueError):
    """Schema violation; the message names the offending field path."""


@dataclass
class RunRecord:
    kind: str
    config: dict
    metrics: dict          # name -> {"estimate", "half_width", "n"}
    bounds: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    wall_time_s: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def stripped(self) -> dict:
        """Dict form without the wall time (for determinism comparisons)."""
        d = record_to_dict(self)
        d.pop("wall_time_s")
        return d


def _need(cfg: dict, key: str, path: str = ""):
    if key not in cfg:
        raise ConfigError(f"missing field: {path}{key}")
    return cfg[key]


# Config section -> model kind -> (constructor, fields of the section).
_MODELS = {
    "channel": {
        "bsc": (bsc, ("delta",)),
        "bec": (bec, ("delta",)),
        "matrix": (lambda W: Dmc(np.asarray(W, dtype=np.float64)), ("W",)),
    },
    "prior": {
        "uniform": (lambda M: uniform_prior(int(M)), ("M",)),
        "geometric": (lambda q: geometric_prior(float(q)), ("q",)),
        "pmf": (lambda pmf: MessagePrior(np.asarray(pmf, dtype=np.float64)), ("pmf",)),
    },
    "source": {
        "bernoulli": (lambda p: bernoulli_hamming(float(p)), ("p",)),
        "gaussian": (lambda variance: gaussian_source(float(variance)), ("variance",)),
        "discrete": (lambda pmf, distortion: discrete_source(np.asarray(pmf),
                                                             np.asarray(distortion)),
                     ("pmf", "distortion")),
    },
}


def _model(cfg: dict, section: str):
    """The channel, prior or source that ``cfg[section]`` describes.  A
    constructor's ValueError or TypeError becomes a ConfigError naming the
    fields it was given."""
    sub, path = _need(cfg, section), section + "."
    if not isinstance(sub, dict):
        raise ConfigError(f"invalid field: {section}={sub!r} must be an object")
    kind = _need(sub, "kind", path)
    if not isinstance(kind, str) or kind not in _MODELS[section]:
        raise ConfigError(f"unknown {section} kind: {path}kind={kind!r}")
    make, fields = _MODELS[section][kind]
    args = [_need(sub, name, path) for name in fields]
    try:
        return make(*args)
    except (ValueError, TypeError) as exc:
        names = ", ".join(path + name for name in fields)
        raise ConfigError(f"invalid field: {names}: {exc}") from exc


def _choice(cfg: dict, key: str, allowed: tuple):
    """cfg[key], default allowed[0]; a value outside ``allowed`` is a ConfigError."""
    value = cfg.get(key, allowed[0])
    if value not in allowed:
        raise ConfigError(f"invalid field: {key}={value!r} must be one of "
                          f"{', '.join(allowed)}")
    return value


def _number(cfg: dict, key: str, default=None, positive: bool = False) -> float:
    """cfg[key] (or the default): a finite number, and > 0 if ``positive``."""
    raw = _need(cfg, key) if default is None else cfg.get(key, default)
    try:
        value = float("nan") if isinstance(raw, (bool, str)) else float(raw)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        value = float("nan")
    if not (0 if positive else -np.inf) < value < np.inf:
        raise ConfigError(f"invalid field: {key}={raw!r} must be a finite number"
                          + (" > 0" if positive else ""))
    return value


def _integer(cfg: dict, key: str, lo: int, hi: int | None = None) -> int:
    """cfg[key]: an integer >= lo, and <= hi if given."""
    raw = _need(cfg, key)
    if (isinstance(raw, bool) or not isinstance(raw, int) or raw < lo
            or (hi is not None and raw > hi)):
        bounds = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ConfigError(f"invalid field: {key}={raw!r} must be an integer {bounds}")
    return raw


def _decoder_prior(cfg: dict) -> MessagePrior:
    """The prior of a kind that decodes over every message."""
    prior = _model(cfg, "prior")
    if prior.size > FULL_DECODER_MAX_SUPPORT:
        raise ConfigError(f"invalid field: prior has {prior.size} messages; the full "
                          f"decoder tracks at most {FULL_DECODER_MAX_SUPPORT}")
    return prior


def _simulated_channel(cfg: dict) -> Dmc:
    """The channel of a kind that simulates trials.  No trial over a
    zero-capacity channel ever stops, so such a channel is rejected up front."""
    dmc = _model(cfg, "channel")
    if dmc.C <= 0:
        raise ConfigError(f"invalid field: channel has capacity C={dmc.C} nats; "
                          "simulated kinds need C > 0")
    return dmc


def validate(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config must be a mapping")
    kind = _need(config, "kind")
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind: kind={kind!r}")
    if kind != "bound":
        trials = _integer(config, "trials", 1)
        if kind in _CI_KINDS and trials < MIN_TRIALS_FOR_CI:
            raise ConfigError(
                f"invalid field: trials={trials} below the {MIN_TRIALS_FOR_CI} minimum "
                "for normal-approximation confidence intervals")
        _check_seed(_need(config, "seed"))
    return config


def _check_seed(seed):
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise ConfigError(f"invalid field: seed={seed!r} must be an integer in [0, 2^64)")
    return seed


def _discrete(cfg: dict, src):
    """src; a ConfigError naming source.kind unless src is discrete."""
    if src.kind != "discrete":
        raise ConfigError(f"invalid field: source.kind={src.kind!r}: {cfg['kind']} needs a "
                          "discrete source")
    return src


def _rd(cfg: dict):
    """R(d) of the config's source at its d; a d outside the source's
    (d_min, d_max) is a ConfigError naming d."""
    src, d = _model(cfg, "source"), _number(cfg, "d")
    try:
        return ba_rate_distortion(src, d)
    except ValueError as exc:
        raise ConfigError(f"invalid field: d: {exc}") from exc


def _se(metric):  # standard error back out of the 95% half-width
    return metric["half_width"] / 1.96 if metric["half_width"] else 0.0


def run(config: dict, workers: int = 1) -> RunRecord:
    """Dispatch a validated config to the matching simulator or evaluator.  A
    simulated kind whose trials would run toward ``TRIAL_USE_CAP`` is
    rejected before any trial, as a ConfigError naming the channel."""
    config = validate(config)
    t0 = time.perf_counter()
    try:
        rec = _RUNNERS[config["kind"]](config, workers)
    except LengthBoundError as exc:
        raise ConfigError(f"invalid field: channel: {exc}") from exc
    rec.wall_time_s = time.perf_counter() - t0
    return rec


def _run_stop_feedback(cfg, workers):
    dmc = _simulated_channel(cfg)
    gamma = _number(cfg, "gamma_nats", positive=True)
    mode = _choice(cfg, "mode", STOP_FEEDBACK_MODES)
    prior = _decoder_prior(cfg) if mode == "full_decoder" else _model(cfg, "prior")
    trial_length_bound(dmc, prior.entropy, gamma)
    seed, trials = cfg["seed"], cfg["trials"]

    def shard(ids):
        keys = trial_keys(seed, ids)
        tau, _, error, info_sum = stop_feedback_many(dmc, prior, gamma, mode, keys,
                                                     prior.sample_many(keys))
        return np.column_stack((tau, error, info_sum))

    rows = run_trials(shard, trials, workers)
    tau, err = stat(rows[:, 0]), stat(rows[:, 1])
    metrics = {"tau": tau, "error": err, "info_sum_nats": stat(rows[:, 2])}
    bounds = {
        "error_bound": float(np.exp(-gamma)),
        "length_bound": stop_feedback_length_bound(
            prior.entropy, float(np.exp(-gamma)), dmc.C, max(dmc.a0, dmc.density_max)),
    }
    violations = []
    if err["estimate"] > bounds["error_bound"] + 4 * _se(err):
        violations.append("error exceeds exp(-gamma) beyond 4 SE")
    if tau["estimate"] > bounds["length_bound"] + 4 * _se(tau):
        violations.append("mean length exceeds the stop-feedback bound beyond 4 SE")
    return RunRecord(cfg["kind"], cfg, metrics, bounds, violations)


def _run_vlft(cfg, workers):
    dmc = _simulated_channel(cfg)
    prior = _decoder_prior(cfg)
    if not prior.sorted_desc:
        raise ConfigError("invalid field: prior.pmf must be ordered by "
                          "non-increasing probability for vlft")
    trial_length_bound(dmc, prior.entropy)
    seed, trials = cfg["seed"], cfg["trials"]
    rule = _choice(cfg, "decode_rule", VLFT_DECODE_RULES)

    def shard(ids):
        keys = trial_keys(seed, ids)
        tau, _, error = vlft_many(dmc, prior, keys, prior.sample_many(keys), rule)
        return np.column_stack((tau, error))

    rows = run_trials(shard, trials, workers)
    # a decoding error of the VLFT rules is an anomaly
    metrics = {"tau": stat(rows[:, 0]), "error": stat(rows[:, 1]),
               "anomalies": stat(rows[:, 1])}
    bounds = {"entropy_over_C": prior.entropy / dmc.C}
    violations = []
    if rule == "map_stop" and metrics["error"]["estimate"] > 0:
        violations.append("zero-error VLFT produced decoding errors")
    return RunRecord(cfg["kind"], cfg, metrics, bounds, violations)


def _split(cfg) -> tuple:
    """The (source, channel) error budget of jscc_excess: two numbers in
    (0, 1); a channel share of 1 or more would make gamma = ln(1/eps) <= 0."""
    raw = cfg["split"]
    try:
        split = tuple(float(x) for x in raw)
    except (TypeError, ValueError):
        split = ()
    if len(split) != 2 or not all(0 < x < 1 for x in split):
        raise ConfigError(f"invalid field: split={raw!r} must be two numbers in (0, 1)")
    return split


def _run_jscc_excess(cfg, workers):
    dmc = _simulated_channel(cfg)
    k, d, eps = _k_d_eps(cfg)
    if not 0 < eps < 1:
        raise ConfigError(f"invalid field: eps={eps} must lie in (0, 1)")
    rd = _rd(cfg)
    _discrete(cfg, rd.source)
    split = _split(cfg) if "split" in cfg else None
    if split is None and eps <= 1 / np.sqrt(k):
        raise ConfigError(f"invalid field: eps={eps} must exceed 1/sqrt(k)={1 / np.sqrt(k):.4g} "
                          "unless a split is given")
    mode = _choice(cfg, "mode", STOP_FEEDBACK_MODES)
    try:
        metrics, extra = simulate_excess(k, d, eps, dmc, rd, cfg["seed"], cfg["trials"],
                                         split=split, mode=mode, workers=workers)
    except LengthBoundError:
        raise
    except ValueError as exc:  # no codebook size meets the source's share of the budget
        raise ConfigError(f"invalid field: {'split' if split else 'eps'}: {exc}") from exc
    bounds = {"eps_target": eps, "expansion_length": extra["expansion_ell"]}
    violations = []
    if metrics["excess"]["estimate"] > eps + 4 * _se(metrics["excess"]):
        violations.append("excess-distortion probability exceeds target beyond 4 SE")
    return RunRecord(cfg["kind"], cfg, metrics, bounds, violations)


def _run_jscc_average(cfg, workers):
    dmc = _simulated_channel(cfg)
    rd = _rd(cfg)
    if rd.source.unbounded_distortion:
        raise ConfigError("invalid field: source has unbounded distortion; "
                          "jscc_average needs a bounded one")
    # the channel's error budget k^(-3/2) is below 1 from k = 2 on
    k, d = _integer(cfg, "k", 2), _number(cfg, "d")
    # an absent or null M takes the default; M*k symbols of a codebook are held at once
    M = cfg.get("M")
    if M is None:
        try:
            M = average_codebook_size(k, rd)
        except ValueError as exc:
            raise ConfigError(f"invalid field: k={k}: {exc}") from exc
    M = _integer({"M": M}, "M", 1, min(FULL_DECODER_MAX_SUPPORT, MATERIALIZE_MAX // k))
    metrics, _ = simulate_average(k, d, dmc, rd, cfg["seed"], cfg["trials"], M=M,
                                  workers=workers)
    return RunRecord(cfg["kind"], cfg, metrics, {"d_target": d})


def _run_jscc_guaranteed(cfg, workers):
    dmc = _simulated_channel(cfg)
    src = _discrete(cfg, _model(cfg, "source"))
    # the covering map is an exhaustive search over source blocks
    k, d = _integer(cfg, "k", 1, 4), _number(cfg, "d")
    try:
        metrics, extra = simulate_guaranteed(k, d, dmc, src, cfg["seed"], cfg["trials"],
                                             workers=workers)
    except LengthBoundError:
        raise
    except ValueError as exc:  # no covering map within d, or too many source blocks
        raise ConfigError(f"invalid field: source, k, d: {exc}") from exc
    violations = []
    if metrics["violations"]["estimate"] > 0:
        violations.append("a reproduction exceeds the distortion target d")
    return RunRecord(cfg["kind"], cfg, metrics,
                     {"deps_entropy_nats": extra["map_entropy_nats"]}, violations)


def _run_sk(cfg, workers):
    sigma2 = _number(cfg, "sigma2", 1.0, positive=True)
    P, n = _number(cfg, "P"), _integer(cfg, "n", 1)
    if not P >= 0:
        raise ConfigError(f"invalid field: P={P} must be >= 0")
    try:
        mse_theory = sigma2 / (1 + P) ** n
    except OverflowError:
        raise ConfigError(f"invalid field: P={P!r} with n={n}: (1 + P) ** n is beyond "
                          "the float range") from None
    mses, powers = sk_mse_batch(sigma2, P, n, cfg["trials"], cfg["seed"])
    metrics = {"mse": {"estimate": float(mses[-1]), "half_width": 0.0,
                       "n": cfg["trials"]},
               "per_use_power": {"estimate": float(powers.mean()),
                                 "half_width": 0.0, "n": cfg["trials"]}}
    return RunRecord(cfg["kind"], cfg, metrics,
                     {"mse_theory": mse_theory, "power_target": P})


def _run_energy_vl(cfg, workers):
    prior = _model(cfg, "prior")
    N0 = _number(cfg, "N0", 2.0, positive=True)
    # the ideal transmitter draws nothing, so a trial's (correct, energy,
    # bits) row is its message's row of this table
    tx = IdealBitTransmitter(N0)
    table = np.array([send_word(word, tx, None) for word in huffman_code(prior)],
                     dtype=np.float64)
    seed = cfg["seed"]
    rows = run_trials(lambda ids: table[prior.sample_many(trial_keys(seed, ids))],
                      cfg["trials"], workers)
    metrics = {"correct": stat(rows[:, 0]), "energy": stat(rows[:, 1]),
               "bits": stat(rows[:, 2])}
    bounds = {"energy_bound": N0 * LN2 * (prior.entropy / LN2 + 1.0),
              "entropy_nats": prior.entropy}
    violations = []
    if metrics["energy"]["estimate"] >= bounds["energy_bound"]:
        violations.append("mean energy not strictly below N0 ln2 (H+1)")
    return RunRecord(cfg["kind"], cfg, metrics, bounds, violations)


def _run_ppm(cfg, workers):
    E, m = _number(cfg, "E"), _integer(cfg, "m", 1, PPM_MAX_M)
    N0 = _number(cfg, "N0", 2.0, positive=True)
    if not E >= 0:
        raise ConfigError(f"invalid field: E={E} must be >= 0")
    errs = ppm_trials(E, m, N0, cfg["trials"], cfg["seed"])
    err = stat(errs)
    bound = ppm_error_prob(E, m, N0)
    violations = []
    if abs(err["estimate"] - bound) > 4 * _se(err):
        violations.append("PPM error rate disagrees with quadrature beyond 4 SE")
    return RunRecord(cfg["kind"], cfg, {"error": err},
                     {"quadrature": bound}, violations)


def _k_d_eps(cfg):
    return _integer(cfg, "k", 1), _number(cfg, "d"), _number(cfg, "eps")


def _capacity(cfg):
    dmc = _model(cfg, "channel")
    return {"capacity_nats": dmc.C, "a0_nats": dmc.a0}


def _rd_bound(cfg):
    rd = _rd(cfg)
    return {"rate_nats": rd.rate, "slope": rd.slope, "dispersion_nats2": rd.dispersion}


def _converse_lengths(cfg):
    args = (*_k_d_eps(cfg), _rd(cfg), _model(cfg, "channel").C)
    return {"vlf_length": vlf_converse_length(*args),
            "vlft_length": vlft_converse_length(*args)}


# Bound ``which`` -> (evaluator(cfg) -> {metric: value}, the fields it reads).
_BOUNDS = {
    "capacity": (_capacity, ("channel",)),
    "rd": (_rd_bound, ("source", "d")),
    "expansion": (lambda cfg: {"rate_expansion_nats": source_expansion(*_k_d_eps(cfg),
                                                                       _rd(cfg))},
                  ("k", "d", "eps")),
    "naive_separation": (lambda cfg: {"length": naive_separation_bound(
                             *_k_d_eps(cfg), _model(cfg, "channel").C, _rd(cfg))},
                         ("channel", "k", "d", "eps")),
    "converse_length": (_converse_lengths, ("channel", "k", "d", "eps")),
    "energy_expansion": (lambda cfg: {"energy_nats": energy_expansion(
                             _need(cfg, "expansion_kind", "bound."), _integer(cfg, "k", 1),
                             _rd(cfg) if "source" in cfg else None, cfg.get("eps"))},
                         ("expansion_kind", "k", "eps", "source")),
    "awgn_converse": (lambda cfg: {"eps_lower": awgn_jscc_converse(
                          _rd(cfg), _integer(cfg, "k", 1), _number(cfg, "E"),
                          _number(cfg, "N0", 2.0), cfg.get("gamma"))},
                      ("k", "E", "N0", "gamma")),
}


def _run_bound(cfg, workers):
    """Pure evaluators: capacity, rate-distortion, expansions, converses.  An
    evaluator's ValueError or TypeError becomes a ConfigError naming the
    fields of its ``_BOUNDS`` entry."""
    which = _need(cfg, "which", "bound.")
    if not isinstance(which, str) or which not in _BOUNDS:
        raise ConfigError(f"unknown bound: which={which!r}")
    evaluate, fields = _BOUNDS[which]
    try:
        out = evaluate(cfg)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid field: {', '.join(fields)}: {exc}") from exc
    metrics = {name: {"estimate": float(v), "half_width": 0.0, "n": 0}
               for name, v in out.items()}
    return RunRecord(cfg["kind"], cfg, metrics)


# Experiment kind -> runner(cfg, workers).  sk and ppm are vectorised over
# trials and bound runs none, so those three ignore workers.
_RUNNERS = {
    "stop_feedback": _run_stop_feedback,
    "vlft": _run_vlft,
    "jscc_excess": _run_jscc_excess,
    "jscc_average": _run_jscc_average,
    "jscc_guaranteed": _run_jscc_guaranteed,
    "sk": _run_sk,
    "energy_vl": _run_energy_vl,
    "ppm": _run_ppm,
    "bound": _run_bound,
}


def sweep(base: dict, grid: dict, workers: int = 1):
    """Cartesian sweep over at most two config fields, row-major order;
    per-point seed derived as (master seed, point index)."""
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError(f"invalid field: grid={grid!r} must map fields to lists of values")
    if len(grid) > 2:
        raise ConfigError("sweep supports at most 2 parameters")
    names = list(grid)
    values = [grid[n] for n in names]
    total = int(np.prod([len(v) for v in values])) if names else 1
    if total > 10 ** 4:
        raise ConfigError(f"sweep grid of {total} points exceeds the 10^4 cap")
    if not names:
        return [run(dict(base), workers)]
    master = _check_seed(base.get("seed", 0))
    return [run({**base, **dict(zip(names, combo)),
                 "seed": int(seed_stream(master, idx).key % (2 ** 63))}, workers)
            for idx, combo in enumerate(itertools.product(*values))]


def record_to_dict(rec: RunRecord) -> dict:
    return {"schema_version": rec.schema_version, "kind": rec.kind,
            "config": rec.config, "metrics": rec.metrics, "bounds": rec.bounds,
            "violations": list(rec.violations), "wall_time_s": rec.wall_time_s}


def _convert_units(rec_dict: dict, units: str) -> dict:
    """units='bits': every key ending in _nats (or _nats2) is divided by
    ln2 (ln2 squared for variances) and renamed to _bits (or _bits2)."""
    if units == "nats":
        return rec_dict
    if units != "bits":
        raise ConfigError(f"unknown units: {units!r}")
    out = json.loads(json.dumps(rec_dict))  # deep copy

    def conv(d):
        for key in list(d):
            v = d[key]
            if isinstance(v, dict):
                conv(v)
            if key.endswith(("_nats", "_nats2")):
                scale = LN2 ** 2 if key.endswith("_nats2") else LN2
                d[key.replace("_nats", "_bits")] = (
                    {k2: (x / scale if k2 in ("estimate", "half_width") else x)
                     for k2, x in v.items()} if isinstance(v, dict) else v / scale)
                del d[key]
    conv(out)
    return out


def _flatten(d: dict, prefix: str = "") -> dict:
    flat = {}
    for key, v in d.items():
        name = f"{prefix}{key}"
        if isinstance(v, dict):
            flat.update(_flatten(v, name + "."))
        elif isinstance(v, (list, tuple)):
            flat[name] = json.dumps(v)
        else:
            flat[name] = v
    return flat


def emit(records, fmt: str = "json", units: str = "nats", path=None) -> str:
    """Serialize records: JSON (one schema-versioned object per record) or
    RFC-4180 CSV with stable column order and >= 12 significant digits."""
    dicts = [_convert_units(record_to_dict(r), units) for r in records]
    if fmt == "json":
        text = json.dumps(dicts, indent=2, sort_keys=True)
    elif fmt == "csv":
        rows = [_flatten(d) for d in dicts]
        cols = []
        for row in rows:
            for c in row:
                if c not in cols:
                    cols.append(c)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, quoting=csv.QUOTE_MINIMAL,
                                lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: (f"{v:.12e}" if isinstance(v, float) else v)
                             for c, v in row.items()})
        text = buf.getvalue()
    else:
        raise ConfigError(f"unknown format: {fmt!r}")
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text
