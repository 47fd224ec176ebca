"""Output checks for the benchmark, computed apart from jsccsim.

Every reference value here comes from a closed form or from the benchmark's
own quadrature, never from the package: the BSC capacity is ln 2 - h2(delta),
the d-ball index prior of a Bernoulli(1/2)/Hamming source is a truncated
geometric, the PPM error probability is integrated on a fixed Simpson grid.

Records are checked in the form a user sees them: the parsed output of
``harness.emit``.  Per-operation checks (``check_record``) hold exactly for
every record; statistical checks (``check_pooled``) run once per run on the
trials pooled over all rounds, at 4 standard errors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr

LN2 = math.log(2.0)
Z = 4.0  # standard errors allowed on every statistical check


def h2(p: float) -> float:
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def bsc_capacity(delta: float) -> float:
    return LN2 - h2(delta)


def bsc_a0(delta: float) -> float:
    """Largest log-likelihood jump of a BSC: ln((1 - delta) / delta)."""
    return math.log((1 - delta) / delta)


def geometric_entropy(q: float) -> float:
    """Entropy of P(m) = (1 - q) q^(m-1), untruncated, in nats."""
    return (-(1 - q) * math.log(1 - q) - q * math.log(q)) / (1 - q)


def dball_index_prior(k: int, d: float, eps_src: float):
    """Codebook size and index-prior entropy of the d-ball encoder for a
    Bernoulli(1/2) source with Hamming distortion.

    The reproduction marginal is uniform, so every source block has the same
    ball probability pb; the encoder index is geometric(pb) truncated at M,
    with the miss probability (1 - pb)^M folded into index 0, and M is the
    smallest size with miss <= eps_src.  Returns (M, entropy in nats).
    """
    pb = sum(math.comb(k, j) for j in range(int(math.floor(d * k + 1e-9)) + 1)) / 2 ** k
    M = math.ceil(math.log(eps_src) / math.log1p(-pb))
    while M > 1 and (1 - pb) ** (M - 1) <= eps_src:
        M -= 1
    while (1 - pb) ** M > eps_src:
        M += 1
    i = np.arange(M, dtype=np.float64)
    pmf = pb * np.exp(i * math.log1p(-pb))
    pmf[0] += (1 - pb) ** M
    return M, float(-np.sum(pmf * np.log(pmf)))


def ppm_error_quadrature(E: float, m: int, N0: float, nodes: int = 24001) -> float:
    """1 - integral phi(u) Phi(u + sqrt(2E/N0))^(m-1) du, composite Simpson
    on [-12, 12]."""
    u = np.linspace(-12.0, 12.0, nodes)
    f = np.exp(-0.5 * u * u + (m - 1) * log_ndtr(u + math.sqrt(2.0 * E / N0)))
    w = np.ones(nodes)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    integral = (u[1] - u[0]) / 3.0 * float(w @ f) / math.sqrt(2 * math.pi)
    return 1.0 - integral


class Pool:
    """Trials of one metric pooled over records: count, sum, sum of squares.

    A record gives each metric as (estimate, 95% half-width, n); the sample
    variance is recovered from the half-width, so pooling is exact up to
    rounding.
    """

    def __init__(self):
        self.n = 0
        self.s = 0.0
        self.ss = 0.0

    def add(self, metric: dict):
        n, mean = metric["n"], metric["estimate"]
        sd = metric["half_width"] * math.sqrt(n) / 1.96
        self.n += n
        self.s += n * mean
        self.ss += (n - 1) * sd * sd + n * mean * mean

    @property
    def mean(self) -> float:
        return self.s / self.n

    @property
    def se(self) -> float:
        if self.n < 2:
            return 0.0
        var = max(self.ss - self.n * self.mean ** 2, 0.0) / (self.n - 1)
        return math.sqrt(var / self.n)


class Pools:
    """Per-metric pools for one config."""

    def __init__(self):
        self.by_metric: dict[str, Pool] = {}

    def add(self, record: dict):
        for name, metric in record["metrics"].items():
            self.by_metric.setdefault(name, Pool()).add(metric)

    def __getitem__(self, name: str) -> Pool:
        return self.by_metric[name]


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_record(rec: dict, cfg: dict, ref: dict) -> list[str]:
    """Checks that hold exactly for every emitted record of cfg."""
    out = []
    kind = cfg["kind"]
    if rec.get("kind") != kind:
        out.append(f"record kind {rec.get('kind')!r} != {kind!r}")
        return out
    for name, metric in rec["metrics"].items():
        if metric["n"] != cfg["trials"]:
            out.append(f"{kind}: metric {name} has n={metric['n']}, "
                       f"expected {cfg['trials']}")
    m = rec["metrics"]
    if kind == "vlft":
        if m["error"]["estimate"] != 0.0 or m["anomalies"]["estimate"] != 0.0:
            out.append(f"vlft map_stop: error={m['error']['estimate']} "
                       f"anomalies={m['anomalies']['estimate']}, expected 0")
    elif kind == "jscc_guaranteed":
        if m["violations"]["estimate"] != 0.0:
            out.append(f"jscc_guaranteed: violations={m['violations']['estimate']}")
        if not _close(rec["bounds"]["deps_entropy_nats"], ref["deps_entropy"], 1e-12):
            out.append(f"jscc_guaranteed: map entropy {rec['bounds']['deps_entropy_nats']}"
                       f" != {ref['deps_entropy']}")
    elif kind == "energy_vl":
        expect = ref["bits"] * cfg["N0"] * LN2
        if m["correct"]["estimate"] != 1.0:
            out.append(f"energy_vl: correct={m['correct']['estimate']}, expected 1")
        if m["bits"]["estimate"] != ref["bits"]:
            out.append(f"energy_vl: bits={m['bits']['estimate']} != {ref['bits']}")
        if not _close(m["energy"]["estimate"], expect) or m["energy"]["half_width"] > 1e-9:
            out.append(f"energy_vl: energy per trial {m['energy']['estimate']} "
                       f"(hw {m['energy']['half_width']}) != {expect}")
    elif kind == "jscc_excess":
        if rec["bounds"]["eps_target"] != cfg["eps"]:
            out.append("jscc_excess: eps_target differs from the config")
    return out


def check_same_record(parallel: dict, serial: dict, workers: int) -> list[str]:
    """A run with several workers must give the serial run's record."""
    if parallel == serial:
        return []
    return [f"workers={workers} record differs from the serial record "
            f"(seed {serial['config']['seed']})"]


def check_pooled(pools: Pools, cfg: dict, ref: dict) -> list[str]:
    """Statistical checks on the trials of cfg pooled over a run."""
    kind = cfg["kind"]
    C, a0 = ref.get("C"), ref.get("a0")
    out = []
    if kind == "stop_feedback":
        gamma = cfg["gamma_nats"]
        err, tau, info = pools["error"], pools["tau"], pools["info_sum_nats"]
        if err.mean > math.exp(-gamma) + Z * err.se:
            out.append(f"stop_feedback: error {err.mean:.4g} > e^-gamma + 4 SE")
        if C * tau.mean > ref["H"] + gamma + a0 + Z * C * tau.se:
            out.append(f"stop_feedback: C E[tau]={C * tau.mean:.4f} > "
                       f"H + gamma + a0 = {ref['H'] + gamma + a0:.4f} + 4 SE")
        gap = abs(info.mean - C * tau.mean)
        if gap > a0 + Z * (info.se + C * tau.se):
            out.append(f"stop_feedback: Doob gap |E[info_sum] - C E[tau]|={gap:.4f}"
                       f" > a0 + 4 SE")
    elif kind == "jscc_excess":
        exc, tau = pools["excess"], pools["tau"]
        eps_ch = cfg["split"][1]
        if exc.mean > cfg["eps"] + Z * exc.se:
            out.append(f"jscc_excess: excess {exc.mean:.4g} > eps + 4 SE")
        lim = ref["H"] + math.log(1 / eps_ch) + a0
        if C * tau.mean > lim + Z * C * tau.se:
            out.append(f"jscc_excess: C E[tau]={C * tau.mean:.4f} > "
                       f"H + gamma + a0 = {lim:.4f} + 4 SE")
    elif kind == "sk":
        n = pools["mse"].n
        target = cfg.get("sigma2", 1.0) / (1 + cfg["P"]) ** cfg["n"]
        mse, power = pools["mse"].mean, pools["per_use_power"].mean
        # the squared error is target * chi2_1, so its mean has SE target*sqrt(2/n);
        # each step's power is P * chi2_1, and an average over correlated steps
        # has an SE of at most P*sqrt(2/n)
        if abs(mse - target) > Z * target * math.sqrt(2 / n):
            out.append(f"sk: MSE {mse:.6g} not within 4 SE of {target:.6g}")
        if abs(power - cfg["P"]) > Z * cfg["P"] * math.sqrt(2 / n):
            out.append(f"sk: per-use power {power:.6g} not within 4 SE of {cfg['P']}")
    elif kind == "ppm":
        err = pools["error"]
        p = ref["ppm_error"]
        if abs(err.mean - p) > Z * math.sqrt(p * (1 - p) / err.n):
            out.append(f"ppm: error {err.mean:.5g} not within 4 SE of quadrature {p:.5g}")
    return out
