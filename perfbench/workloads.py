"""The benchmark's workloads and their set-up.

Each workload runs one experiment kind, so that its ``trials_per_s`` is the
rate of that kind at a stated size.  Set-up builds the workload's inputs
through the package's public solvers (the work a user does before a run);
``reference`` computes the values those inputs and the run's outputs are
checked against, apart from the package.  Solvers are looked up on their
modules at call time so that a traced run sees them wrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from jsccsim import channels, energy, jscc, ratedist, vlf

import checks

BSC = {"kind": "bsc", "delta": 0.11}
GAMMA = math.log(100)
EXCESS = {"kind": "jscc_excess", "channel": BSC,
          "source": {"kind": "bernoulli", "p": 0.5}, "k": 20, "d": 0.125,
          "eps": 0.1, "split": [0.05, 0.05], "trials": 20}


def _sf(prior: dict) -> dict:
    return {"kind": "stop_feedback", "channel": BSC, "prior": prior,
            "gamma_nats": GAMMA, "trials": 1000}


def _vlft(M: int) -> dict:
    return {"kind": "vlft", "channel": BSC, "prior": {"kind": "uniform", "M": M},
            "decode_rule": "map_stop", "trials": 1000}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple        # harness configs without a seed; one round runs each once
    workers: int = 1
    round_s: float = 1.0  # nominal round time; sizes the traced run
    # share of the time in numpy work on large arrays; the rest is Python-level
    # calls on small ones.  Weights the two calibration kernels of run.py.
    vector_share: float = 0.25


WORKLOADS = {w.name: w for w in (
    Workload("small_m_stop_feedback",
             "stop_feedback over BSC(0.11), M=16 uniform and q=0.6 geometric: "
             "per-trial overhead dominates, so a trial-batched kernel shows here",
             (_sf({"kind": "uniform", "M": 16}), _sf({"kind": "geometric", "q": 0.6})),
             round_s=0.6),
    Workload("small_m_vlft",
             "zero-error vlft map_stop over BSC(0.11), uniform M=8 and M=64: "
             "per-trial overhead and the all-message prefix scan of short blocks",
             (_vlft(8), _vlft(64)), round_s=0.7),
    Workload("small_m_jscc_guaranteed",
             "jscc_guaranteed, Bernoulli(1/2) k=2 d=0.5: covering-map search per run, "
             "then per-trial vlft with a two-message prior",
             ({"kind": "jscc_guaranteed", "channel": BSC,
               "source": {"kind": "bernoulli", "p": 0.5}, "k": 2, "d": 0.5,
               "trials": 1000},), round_s=0.35),
    Workload("excess_large_m",
             "jscc_excess at k=20 (M=14886, full decoder): per-symbol hashing and "
             "d-ball encoding dominate, so integer sampling and block sizing show here",
             (EXCESS,), round_s=0.7, vector_share=0.75),
    Workload("awgn_sk",
             "sk P=1 n=10 over AWGN: trials vectorised, 1-D counter streams and normals, "
             "no keyed hashing; a change to vlf or hashing must not move it",
             ({"kind": "sk", "P": 1.0, "n": 10, "trials": 200000},), round_s=0.1,
             vector_share=0.75),
    Workload("awgn_ppm",
             "ppm E=12 m=16 N0=2: vectorised normals plus a per-run quadrature; "
             "bypasses vlf and keyed hashing",
             ({"kind": "ppm", "E": 12.0, "m": 16, "N0": 2.0, "trials": 100000},),
             round_s=0.1, vector_share=0.75),
    Workload("awgn_energy_vl",
             "energy_vl uniform M=256 N0=2: Huffman code per run, then a Python loop "
             "per trial and per bit on 1-D streams",
             ({"kind": "energy_vl", "prior": {"kind": "uniform", "M": 256},
               "N0": 2.0, "trials": 2000},), round_s=0.15),
    Workload("sf_workers2",
             "the M=16 stop_feedback config with workers=2: the only workload on the "
             "thread-pool path of harness.run_trials",
             (_sf({"kind": "uniform", "M": 16}),), workers=2, round_s=0.9),
)}


def _prior(cfg: dict):
    if cfg["kind"] == "uniform":
        return vlf.uniform_prior(cfg["M"])
    return vlf.geometric_prior(cfg["q"])


def setup(cfg: dict) -> dict:
    """Inputs of one config, built through the package's public solvers."""
    kind = cfg["kind"]
    out = {}
    if "channel" in cfg:
        out["dmc"] = channels.bsc(cfg["channel"]["delta"])
    if kind in ("stop_feedback", "vlft", "energy_vl"):
        out["prior"] = _prior(cfg["prior"])
    if kind == "energy_vl":
        out["codewords"] = energy.huffman_code(out["prior"])
    elif kind == "jscc_guaranteed":
        src = ratedist.bernoulli_hamming(cfg["source"]["p"])
        out["deps_entropy"] = ratedist.brute_force_deps_entropy(src, cfg["k"], cfg["d"], 0.0)
    elif kind == "jscc_excess":
        src = ratedist.bernoulli_hamming(cfg["source"]["p"])
        rd = ratedist.ba_rate_distortion(src, cfg["d"])
        tp, pb = jscc.type_ball_probs(rd, cfg["k"], cfg["d"])
        M = jscc.choose_codebook_size(tp, pb, cfg["split"][0])
        out.update(rate=rd.rate, M=M, prior=jscc.index_prior(tp, pb, M))
    return out


def setup_all(workload: Workload) -> list[dict]:
    return [setup(cfg) for cfg in workload.configs]


def reference(cfg: dict) -> dict:
    """Independent values for one config: closed forms and the benchmark's
    own quadrature."""
    kind = cfg["kind"]
    ref = {}
    if "channel" in cfg:
        delta = cfg["channel"]["delta"]
        ref.update(C=checks.bsc_capacity(delta), a0=checks.bsc_a0(delta))
    if kind in ("stop_feedback", "vlft", "energy_vl"):
        p = cfg["prior"]
        ref["H"] = math.log(p["M"]) if p["kind"] == "uniform" else checks.geometric_entropy(p["q"])
    if kind == "energy_vl":
        ref["bits"] = cfg["prior"]["M"].bit_length() - 1  # uniform over a power of two
    elif kind == "jscc_guaranteed":
        # k=2, d=0.5: {00, 01, 10} -> 00 and {11} -> 11 is optimal, masses 3/4, 1/4
        if (cfg["k"], cfg["d"], cfg["source"]["p"]) != (2, 0.5, 0.5):
            raise ValueError("no closed-form (d,0)-entropy for this config")
        ref["deps_entropy"] = checks.h2(0.25)
    elif kind == "jscc_excess":
        if cfg["source"]["p"] != 0.5:
            raise ValueError("the closed-form index prior needs a Bernoulli(1/2) source")
        ref["rate"] = checks.LN2 - checks.h2(cfg["d"])
        ref["M"], ref["H"] = checks.dball_index_prior(cfg["k"], cfg["d"], cfg["split"][0])
    elif kind == "ppm":
        ref["ppm_error"] = checks.ppm_error_quadrature(cfg["E"], cfg["m"], cfg["N0"])
    return ref


def check_setup(inputs: dict, ref: dict) -> list[str]:
    """The set-up solvers' outputs against the independent values."""
    out = []

    def near(what, got, want, tol):
        if not abs(got - want) <= tol:
            out.append(f"set-up: {what} = {got!r}, expected {want!r}")

    if "dmc" in inputs:
        near("capacity", inputs["dmc"].C, ref["C"], 1e-9)
        near("a0", inputs["dmc"].a0, ref["a0"], 1e-12)
    if "prior" in inputs and "M" not in inputs:
        near("prior entropy", inputs["prior"].entropy, ref["H"], 1e-6)
    if "codewords" in inputs:
        lengths = {len(w) for w in inputs["codewords"]}
        if lengths != {ref["bits"]}:
            out.append(f"set-up: Huffman lengths {sorted(lengths)}, expected {ref['bits']}")
    if "deps_entropy" in inputs:
        near("(d,0)-entropy", inputs["deps_entropy"], ref["deps_entropy"], 1e-12)
    if "M" in inputs:
        near("R(d)", inputs["rate"], ref["rate"], 1e-6)
        near("codebook size", inputs["M"], ref["M"], 0)
        near("index-prior entropy", inputs["prior"].entropy, ref["H"], 1e-9)
    return out
