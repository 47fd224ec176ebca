"""Every golden record still comes out exactly as committed.

The records in ``tests/golden/records.json`` are recomputed from their
configs and compared as canonical JSON text, so floats are compared by
``repr``.  See ``tests/golden/regen.py`` for when the file may be rewritten.
"""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from jsccsim import vlf

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

GOLDEN = json.loads(regen.PATH.read_text())
RUNS = {e["name"]: e for e in GOLDEN["runs"]}
CALLS = {e["name"]: e["repr"] for e in GOLDEN["calls"]}


def _versions() -> str:
    return f"golden file written with numpy {GOLDEN['numpy']}, running numpy {np.__version__}"


def test_golden_file_lists_every_entry():
    assert list(RUNS) == [name for name, _, _ in regen.RUNS]
    assert list(CALLS) == [name for name, _ in regen.CALLS]
    for name, config, workers in regen.RUNS:
        assert (RUNS[name]["config"], RUNS[name]["workers"]) == (config, workers), name


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_record(name):
    entry = RUNS[name]
    got = regen.compute_run(entry["config"], entry["workers"])
    assert regen.canonical(got) == regen.canonical(entry["record"]), (
        f"{name}: record moved ({_versions()})")


def _first_moved_trial(rows: list, want: str) -> int:
    """Index of the first row whose repr breaks the pinned list's repr."""
    return next((t for t in range(len(rows))
                 if not want.startswith(repr(rows[:t + 1])[:-1])), len(rows))


@pytest.mark.parametrize("name", list(CALLS))
def test_golden_call(name):
    value = dict(regen.CALLS)[name]()
    got, want = repr(value), CALLS[name]
    if got != want and isinstance(value, list):
        t = _first_moved_trial(value, want)
        pytest.fail(f"{name}: trial {t} moved to {value[t] if t < len(value) else 'end'!r} "
                    f"({_versions()})")
    assert got == want, f"{name}: {got} != {want} ({_versions()})"


# Every kind that draws its trial preludes per shard: three shards on three
# threads must give the serial record.
@pytest.mark.parametrize("name", ["c11_jscc_excess", "jscc_average_k8_m64",
                                  "c11_jscc_guaranteed", "c11_stop_feedback", "c11_vlft",
                                  "c11_energy_vl", "bench_awgn_energy_vl",
                                  "bench_excess_large_m"]
                         + [name for name in RUNS if name.startswith("bench_small_m_")])
def test_jscc_record_does_not_depend_on_worker_count(name):
    entry = RUNS[name]
    got = regen.compute_run(entry["config"], 3)
    assert regen.canonical(got) == regen.canonical(entry["record"]), (
        f"{name}: workers=3 differs from the workers=1 golden record")


# The full decoder's records must not depend on which of its two paths runs.
# These priors are below _PRUNE_ROWS, so test_golden_record covers the batched
# kernel; with the switch at 1 the pruned decoder runs them.
@pytest.mark.parametrize("name", ["c11_jscc_excess", "jscc_average_k8_m64",
                                  "bench_small_m_stop_feedback_uniform"])
def test_record_does_not_depend_on_the_pruning_switch(monkeypatch, name):
    monkeypatch.setattr(vlf, "_PRUNE_ROWS", 1)
    entry = RUNS[name]
    got = regen.compute_run(entry["config"], entry["workers"])
    assert regen.canonical(got) == regen.canonical(entry["record"]), (
        f"{name}: record moved with the pruned decoder")


# The kernel advances the running sums in sub-steps of _SUBSTEP uses; its
# records must not depend on the sub-step size, from one use to 512 uses, one
# sub-step longer than almost every trial.
SUBSTEP_RUNS = ["c11_stop_feedback", "c11_vlft", "c11_jscc_guaranteed", "jscc_average_k8_m64"] \
    + [name for name in RUNS if name.startswith("bench_small_m_")]
SUBSTEP_CALLS = [name for name in CALLS if name.startswith("transcripts_")
                 and name.endswith(("_bsc", "_dmc3"))]


@pytest.mark.parametrize("substep", [1, 3, 512])
@pytest.mark.parametrize("name", SUBSTEP_RUNS)
def test_record_does_not_depend_on_the_substep(monkeypatch, name, substep):
    monkeypatch.setattr(vlf, "_SUBSTEP", substep)
    entry = RUNS[name]
    got = regen.compute_run(entry["config"], entry["workers"])
    assert regen.canonical(got) == regen.canonical(entry["record"]), (
        f"{name}: record moved with sub-steps of {substep} uses")


@pytest.mark.parametrize("substep", [1, 3, 512])
@pytest.mark.parametrize("name", SUBSTEP_CALLS)
def test_transcripts_do_not_depend_on_the_substep(monkeypatch, name, substep):
    monkeypatch.setattr(vlf, "_SUBSTEP", substep)
    assert repr(dict(regen.CALLS)[name]()) == CALLS[name], (
        f"{name}: transcripts moved with sub-steps of {substep} uses")


def test_regen_diff_names_each_moved_field_and_column(monkeypatch, capsys):
    assert regen.diff(GOLDEN, GOLDEN) == []
    moved = copy.deepcopy(GOLDEN)
    run0, call = moved["runs"][0], "transcripts_stop_feedback_full_decoder_bsc"
    run0["record"]["metrics"]["tau"]["estimate"] += 1.0
    rows = regen._value(CALLS[call])
    rows[3] = (*rows[3][:3], rows[3][3] * (1 + 2.0 ** -52), rows[3][4])
    next(e for e in moved["calls"] if e["name"] == call)["repr"] = repr(rows)
    old_tau = GOLDEN["runs"][0]["record"]["metrics"]["tau"]["estimate"]
    assert regen.diff(GOLDEN, moved) == [
        f"{run0['name']}.metrics.tau.estimate: {old_tau!r} -> {old_tau + 1.0!r}",
        f"{call}[:, 3]: 1 of {len(rows)} rows moved, max rel 2.2e-16"]
    # --diff exits 1 when anything moved, so a script can gate on it
    monkeypatch.setattr(regen, "compute", lambda: moved)
    assert regen.main(["--diff"]) == 1
    monkeypatch.setattr(regen, "compute", lambda: GOLDEN)
    assert regen.main(["--diff"]) == 0
    assert capsys.readouterr().out.endswith("nothing moved\n")
