"""Tests of the benchmark itself, on markets small enough to run in seconds.

Run with: PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = {
    "backtest-adaptive": dict(days=40, assets=3, probe_n=3),
    "reference-table": dict(days=30, assets=2, probe_n=3),
    "oracle-certify": dict(days=4, assets=3, probe_n=2),
}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def measure(name: str, trace: bool, work: Path) -> dict:
    result = run.measure(tiny(name), seed=0, seconds=0, trace=trace, work=work, setup_repeats=1)
    return json.loads(json.dumps(result))  # what the benchmark prints


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return {
        (name, trace): measure(name, trace, tmp_path_factory.mktemp(name))
        for name in run.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_every_workload(results, name, trace):
    result = results[name, trace]
    assert result["correct"] is True
    assert result["attempted"] >= (2 * run.MIN_OPS if trace else run.MIN_OPS)
    assert result["failed"] == 0
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_traced_run_records_each_layer(results):
    adaptive = results["backtest-adaptive", True]["metrics"]
    assert adaptive["switching.adaptive_step.calls"]["value"] == 40
    assert adaptive["switching.bucket_cells"]["value"] == 3 * sum(range(40)) + 3 * sum(range(1, 41))
    table = results["reference-table", True]["metrics"]
    assert table["baselines.universal_tracks.crp_days"]["value"] == 100_000 * 30
    assert table["baselines.eg_step.calls"]["value"] == 30
    assert table["baselines.bcrp_solve.s"]["value"] > 0  # from the untimed bcrp run
    assert table["baselines.bcrp_solve.failed"]["value"] in (0, 1)
    oracle = results["oracle-certify", True]["metrics"]
    assert oracle["regimes.regimes"]["value"] == 3**4
    assert oracle["regimes.bound_check.calls"]["value"] == 3**4


def test_printed_metric_names_match_benchmark_json(results):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for (_, trace), result in results.items():
        printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert printed == (per_layer if trace else end_to_end)


def _corrupt_gap(proc: run.Proc) -> run.Proc:
    kept = [line for line in proc.stdout.splitlines() if not line.startswith("relative_gap")]
    return dataclasses.replace(proc, stdout="\n".join(kept + ["relative_gap\t1.000000e-03"]) + "\n")


def _drop_bounds_row(proc: run.Proc) -> run.Proc:
    return dataclasses.replace(proc, files=[proc.files[0].rsplit("\n", 2)[0] + "\n"])


def _non_finite_slack(proc: run.Proc) -> run.Proc:
    return dataclasses.replace(proc, files=[proc.files[0].rsplit("\t", 1)[0] + "\tnan\n"])


def _refuse(proc: run.Proc) -> run.Proc:
    return dataclasses.replace(proc, exit_code=2, stdout="", stderr="switchfolio: refused\n")


@pytest.mark.parametrize(
    "command, corrupt, wrong",
    [
        ("oracle", _corrupt_gap, True),
        ("bounds", _drop_bounds_row, True),
        ("bounds", _non_finite_slack, True),
        ("oracle", _refuse, False),
    ],
)
def test_corrupted_output_counts_as_failure(monkeypatch, tmp_path, command, corrupt, wrong):
    real_run_commands = run.run_commands

    def corrupted_run_commands(*args, **kwargs):
        procs = real_run_commands(*args, **kwargs)
        return [corrupt(proc) if proc.args[0] == command else proc for proc in procs]

    monkeypatch.setattr(run, "run_commands", corrupted_run_commands)
    result = measure("oracle-certify", False, tmp_path)
    assert result["failed"] == result["attempted"] >= run.MIN_OPS
    assert result["correct"] is not wrong


def test_no_program_means_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "missing")
    assert run.main(["--workload", "oracle-certify", "--seed", "0", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
