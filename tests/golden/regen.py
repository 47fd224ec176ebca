"""Golden records: exact outputs of fixed configs, pinned so that a change
which moves a number is seen even when it moves it the same way on every run.

    PYTHONPATH=src python tests/golden/regen.py

rewrites ``tests/golden/records.json`` from the entries below.  Regenerate
only in a change whose CHANGES.md entry names each field that moved and why;
``regen.py --diff`` lists them and writes nothing: each moved record field
with its old and new value, and each moved column of a call entry with how
many rows moved.  It exits 1 when anything moved, 0 when nothing did.
``tests/test_golden.py`` recomputes every entry and compares it with the file
exactly; floats are compared by their ``repr``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from jsccsim.channels import Dmc, bsc
from jsccsim.energy import (EnergyBudget, SequentialBitTransmitter,
                            lossy_energy_error_bound, vl_feedback_energy_trial)
from jsccsim.harness import run
from jsccsim.ratedist import bernoulli_hamming
from jsccsim.rng import seed_stream
from jsccsim.vlf import (MessagePrior, stop_feedback_transmit, uniform_prior,
                         vlft_length_via_sum, vlft_sum_many, vlft_transmit)

PATH = Path(__file__).with_name("records.json")

BSC = {"kind": "bsc", "delta": 0.11}
BERN = {"kind": "bernoulli", "p": 0.5}
GAMMA = math.log(100)
# A non-binary-input DMC: its codebook symbols take the searchsorted path of
# LazyCodebook.block rather than the binary compare.
DMC3 = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]

# (name, config, workers): the seven determinism configs of test_c11, then
# every config of the eight benchmark workloads (copied as data, with fixed
# seeds), then one average-distortion pipeline.
RUNS = [
    ("c11_stop_feedback",
     {"kind": "stop_feedback", "channel": BSC, "prior": {"kind": "uniform", "M": 16},
      "gamma_nats": float(np.log(100)), "trials": 1000, "seed": 1101}, 1),
    ("c11_vlft",
     {"kind": "vlft", "channel": BSC, "prior": {"kind": "uniform", "M": 8},
      "trials": 1000, "seed": 1102}, 1),
    ("c11_sk", {"kind": "sk", "P": 1.0, "n": 5, "trials": 5000, "seed": 1103}, 1),
    ("c11_energy_vl",
     {"kind": "energy_vl", "prior": {"kind": "uniform", "M": 256}, "N0": 2.0,
      "trials": 1000, "seed": 1104}, 1),
    ("c11_ppm", {"kind": "ppm", "E": 8.0, "m": 4, "N0": 2.0, "trials": 5000,
                 "seed": 1105}, 1),
    ("c11_jscc_excess",
     {"kind": "jscc_excess", "channel": BSC, "source": BERN, "k": 8, "d": 0.125,
      "eps": 0.1, "split": [0.05, 0.05], "trials": 1000, "seed": 1106}, 1),
    ("c11_jscc_guaranteed",
     {"kind": "jscc_guaranteed", "channel": BSC, "source": BERN, "k": 2, "d": 0.5,
      "trials": 1000, "seed": 1107}, 1),
    ("bench_small_m_stop_feedback_uniform",
     {"kind": "stop_feedback", "channel": BSC, "prior": {"kind": "uniform", "M": 16},
      "gamma_nats": GAMMA, "trials": 1000, "seed": 0}, 1),
    ("bench_small_m_stop_feedback_geometric",
     {"kind": "stop_feedback", "channel": BSC, "prior": {"kind": "geometric", "q": 0.6},
      "gamma_nats": GAMMA, "trials": 1000, "seed": 0}, 1),
    ("bench_small_m_vlft_8",
     {"kind": "vlft", "channel": BSC, "prior": {"kind": "uniform", "M": 8},
      "decode_rule": "map_stop", "trials": 1000, "seed": 0}, 1),
    ("bench_small_m_vlft_64",
     {"kind": "vlft", "channel": BSC, "prior": {"kind": "uniform", "M": 64},
      "decode_rule": "map_stop", "trials": 1000, "seed": 0}, 1),
    ("bench_small_m_jscc_guaranteed",
     {"kind": "jscc_guaranteed", "channel": BSC, "source": BERN, "k": 2, "d": 0.5,
      "trials": 1000, "seed": 0}, 1),
    ("bench_excess_large_m",
     {"kind": "jscc_excess", "channel": BSC, "source": BERN, "k": 20, "d": 0.125,
      "eps": 0.1, "split": [0.05, 0.05], "trials": 20, "seed": 0}, 1),
    ("bench_awgn_sk", {"kind": "sk", "P": 1.0, "n": 10, "trials": 200000, "seed": 0}, 1),
    ("bench_awgn_ppm", {"kind": "ppm", "E": 12.0, "m": 16, "N0": 2.0,
                        "trials": 100000, "seed": 0}, 1),
    ("bench_awgn_energy_vl",
     {"kind": "energy_vl", "prior": {"kind": "uniform", "M": 256}, "N0": 2.0,
      "trials": 2000, "seed": 0}, 1),
    ("bench_sf_workers2",
     {"kind": "stop_feedback", "channel": BSC, "prior": {"kind": "uniform", "M": 16},
      "gamma_nats": GAMMA, "trials": 1000, "seed": 0}, 2),
    ("jscc_average_k8_m64",
     {"kind": "jscc_average", "channel": BSC, "source": BERN, "k": 8, "d": 0.11,
      "M": 64, "trials": 400, "seed": 43}, 1),
    ("awgn_converse_bernoulli",
     {"kind": "bound", "which": "awgn_converse", "source": {"kind": "bernoulli", "p": 0.3},
      "d": 0.1, "k": 10, "E": 6.0, "N0": 2.0}, 1),
]


def _lossy(k, d, M, E1, E2, seed, trials):
    return lambda: lossy_energy_error_bound(
        bernoulli_hamming(0.5), k, d, M, EnergyBudget(E1=E1, E2=E2), 2.0, seed, trials)


TRANSCRIPT_TRIALS = 200
_PRIOR = MessagePrior([0.4, 0.2, 0.15, 0.1, 0.07, 0.05, 0.03])


def _transcripts(one, seed):
    """Per-trial rows of one transmitter over TRANSCRIPT_TRIALS trials, so a
    mismatch names the trial that moved."""
    return lambda: [one(seed_stream(seed, t)) for t in range(TRANSCRIPT_TRIALS)]


def _row(tr):
    return (tr.tau, tr.decoded, tr.error, tr.info_sum, tr.anomaly)


def _stop_feedback(dmc, mode, seed):
    return _transcripts(lambda rng: _row(stop_feedback_transmit(
        dmc, _PRIOR, GAMMA, _PRIOR.sample(rng), mode, rng)), seed)


def _vlft(dmc, rule, seed):
    return _transcripts(lambda rng: _row(vlft_transmit(dmc, _PRIOR, _PRIOR.sample(rng), rng,
                                                       rule)), seed)


def _vlft_sum(dmc, n_max, seed):
    """(partial sum, summand at n_max) of each trial."""
    def one(rng):
        total, last = vlft_sum_many(dmc, _PRIOR, [rng.key], [_PRIOR.sample(rng)], n_max)
        return float(total[0]), float(last[0])
    return _transcripts(one, seed)


def _sequential_energy(N0, seed):
    tx = SequentialBitTransmitter(N0)
    return _transcripts(lambda rng: vl_feedback_energy_trial(_PRIOR, tx, rng), seed)


# Master seeds and stream ids at both ends of [0, 2^64), and the sub-stream
# tags the simulators derive.
_KEY_SEEDS = (0, 1, 12345, 2 ** 63, 2 ** 64 - 1)
_KEY_STREAMS = (0, 1, 999, 2 ** 63, 2 ** 64 - 1)


def _stream_keys():
    """(seed, stream, key, derived keys for tags 1-4) over the seed grid."""
    rows = []
    for s in _KEY_SEEDS:
        for t in _KEY_STREAMS:
            stream = seed_stream(s, t)
            rows.append((s, t, stream.key,
                         tuple(stream.derive(tag).key for tag in (1, 2, 3, 4))))
    return rows


# (name, thunk): estimators that do not go through harness.run, per-trial
# transcripts of the three VLF transmitters and of the sequential bit
# transmitter, and raw stream keys; their results are pinned by repr.
CALLS = [
    ("lossy_energy_k6_m64", _lossy(6, 0.2, 64, 8.0, 6.0, 21, 300)),
    ("lossy_energy_rate_zero", _lossy(4, 1.0, 8, 3.0, 3.0, 20, 300)),
    ("vlft_length_via_sum_m8",
     lambda: vlft_length_via_sum(bsc(0.11), uniform_prior(8), 404, 200)),
] + [
    (f"transcripts_{name}_{chan}", make(dmc, arg, seed))
    for chan, dmc, seed in (("bsc", bsc(0.11), 501), ("dmc3", Dmc(DMC3), 502))
    for name, make, arg in (
        ("stop_feedback_full_decoder", _stop_feedback, "full_decoder"),
        ("stop_feedback_true_path", _stop_feedback, "true_path"),
        ("vlft_map_stop", _vlft, "map_stop"),
        ("vlft_first_dominance", _vlft, "first_dominance"),
        ("vlft_largest_at_stop", _vlft, "largest_at_stop"),
        # 300 is not a block boundary of the 32, 64, 128, ... schedule
        ("vlft_sum_n300", _vlft_sum, 300),
    )
] + [
    ("transcripts_energy_vl_sequential", _sequential_energy(2.0, 503)),
    ("stream_keys", _stream_keys),
]


def canonical(value) -> str:
    """JSON text with sorted keys; json writes floats by repr."""
    return json.dumps(value, sort_keys=True)


def compute_run(config: dict, workers: int) -> dict:
    return json.loads(canonical(run(dict(config), workers=workers).stripped()))


def compute() -> dict:
    return {
        "numpy": np.__version__,
        "runs": [{"name": name, "workers": workers, "config": config,
                  "record": compute_run(config, workers)}
                 for name, config, workers in RUNS],
        "calls": [{"name": name, "repr": repr(thunk())} for name, thunk in CALLS],
    }


def _value(text: str):
    """A call entry's value read back from its repr."""
    return eval(text, {"__builtins__": {}, "nan": math.nan, "inf": math.inf})


def _moved(old, new, path: str) -> list:
    """'path: old -> new' for each leaf of two records whose repr differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [k for k in new if k not in old]
        return [line for k in keys for line in _moved(old.get(k), new.get(k), f"{path}.{k}")]
    if isinstance(old, tuple) and isinstance(new, tuple) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in _moved(a, b, f"{path}[{i}]")]
    return [] if repr(old) == repr(new) else [f"{path}: {old!r} -> {new!r}"]


def _moved_columns(old: list, new: list, name: str) -> list:
    """For each column of two lists of rows, how many rows moved, and the
    largest relative move of a finite float."""
    if len(old) != len(new):
        return [f"{name}: {len(old)} rows -> {len(new)}"]
    lines = []
    for c in range(len(old[0]) if old else 0):
        pairs = [(a[c], b[c]) for a, b in zip(old, new) if repr(a[c]) != repr(b[c])]
        if pairs:
            rel = [abs(b / a - 1) for a, b in pairs if isinstance(a, float)
                   and isinstance(b, float) and a and math.isfinite(a) and math.isfinite(b)]
            lines.append(f"{name}[:, {c}]: {len(pairs)} of {len(old)} rows moved"
                         + (f", max rel {max(rel):.2g}" if rel else ""))
    return lines


def diff(old: dict, new: dict) -> list:
    """One line per moved record field and per moved column of a call entry
    from the golden file ``old`` to ``new``; entries that only one of them
    has are named too."""
    lines = []
    for part, body in (("runs", lambda e: e["record"]), ("calls", lambda e: _value(e["repr"]))):
        was = {e["name"]: e for e in old[part]}
        now = {e["name"]: e for e in new[part]}
        lines += [f"{name}: only in the {'new' if name in now else 'old'} file"
                  for name in [*was, *now] if (name in was) != (name in now)]
        for name in (n for n in now if n in was and now[n] != was[n]):
            a, b = body(was[name]), body(now[name])
            lines += (_moved_columns(a, b, name) if isinstance(a, list) and isinstance(b, list)
                      else _moved(a, b, name))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="print what moved against the committed file and write nothing")
    if parser.parse_args(argv).diff:
        moved = diff(json.loads(PATH.read_text()), compute())
        print("\n".join(moved) or "nothing moved")
        return 1 if moved else 0
    PATH.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
