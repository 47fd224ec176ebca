"""One short run of every workload, untraced and traced, through the CLI."""

import json

import pytest

import run
from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, monkeypatch, workload, trace):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced(capsys, monkeypatch, workload):
    res = _run(capsys, monkeypatch, workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced(capsys, monkeypatch, workload):
    res = _run(capsys, monkeypatch, workload, 1)
    assert res["correct"] and res["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    assert res["metrics"]["harness.run.s"]["value"] > 0


def test_no_source_tree_means_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "awgn_sk", "--seed", "1", "--seconds", "1"])
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out == ""
