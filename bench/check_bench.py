"""Tests of the benchmark itself.

    python -m pytest bench/check_bench.py

Each workload runs once at its smallest size; a wrong reference value must
surface as failed operations; the traced replay must give identical counts
twice over on one seed.
"""

import json
from pathlib import Path
import sys

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("lhs.feasible.iterations", "lhs.critical_eta.probes",
                "lhs.nelder_mead.evals", "inequality.build.calls",
                "analysis.mc.redraws")


def _run(capsys, workload, *extra):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--small", *extra]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smallest_session_prints_every_metric(workload, capsys):
    result, lines = _run(capsys, workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 5
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    summary = "\n".join(lines[:-1])
    assert "ops_failed_ratio=0 failed/attempted" in summary
    for name in run.END_TO_END:
        assert f"{name}=" in summary


def test_wrong_reference_counts_as_failed(capsys, monkeypatch):
    monkeypatch.setitem(checks.REFERENCE, "s_max", 1.0)
    result, lines = _run(capsys, "data")
    # Both analyze commands compare their printed s_max with the reference.
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (2, 5)
    assert "ops_failed_ratio=0.4 failed/attempted" in "\n".join(lines)


def test_indeterminate_output_fails_its_check():
    problems = checks.run_check(checks.check_help, "usage: indeterminate", ".")
    assert problems == ["indeterminate verdict"]


def _layer_metrics(session, workdir, main):
    metrics, outcomes, trace = run.replay_pair(session, workdir, main, "t")
    assert all(not o.problems for o in outcomes)
    return metrics, trace


@pytest.mark.parametrize("workload", ["design", "data"])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    session = run.build_session(workload, 5, small=True)
    session.write_inputs(tmp_path)
    main = run.load_cli().main
    first, trace = _layer_metrics(session, tmp_path, main)
    second, _ = _layer_metrics(session, tmp_path, main)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    active = "lhs.feasible.iterations" if workload == "design" \
        else "inequality.build.calls"
    assert first[active] > 0
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer == set(first) | {"import.wall_s", "cli.startup_s"}
    layers = {s.name.partition(".")[0] for s in trace.spans}
    assert {"cli", "inequality", "model"} <= layers
    assert ("lhs" if workload == "design" else "analysis") in layers
