"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is produced for every
workload, that the tracer puts every original function back, and that the
command keeps its output contract.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import loop  # noqa: E402
import tracing  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

# the cheapest requests of each workload, enough to touch every kind of check
TINY = {
    "analyze_certify": {
        "circle_roots.cubic", "circle_roots.sextic",
        "large_holes.member0", "large_holes.member2", "large_holes.member2.certify",
        "exact_backend.one_hole", "exact_backend.locus0", "exact_backend.locus0.certify",
        "exact_backend.float_k150",
    },
    "sweep_grid": {"sweep_grid.zero_grid"},
}


def _functions() -> dict:
    for layer in tracing.LAYERS:
        importlib.import_module(f"hardyball.{layer}")
    return {(m.__name__, attr): obj for m in tracing.hardyball_modules()
            for attr, obj in vars(m).items() if isinstance(obj, types.FunctionType)}


def test_tracer_restores_every_original(tmp_path):
    before = _functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from hardyball import model, series

        assert model.converged_circle_mean is series.converged_circle_mean
        assert hasattr(model.converged_circle_mean, "span_name")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(inputs.problem_doc([2], [0], [1, 0, 0.5])))
        from hardyball import cli

        with open(tmp_path / "out.txt", "w") as out:
            sys.stdout, saved = out, sys.stdout
            try:
                assert cli.main(["analyze", str(path)]) == 0
            finally:
                sys.stdout = saved
    finally:
        tracer.restore()
    assert _functions() == before
    assert tracing.leftover_wrappers() == []
    assert tracer.calls["extremality.decide_extreme"] == 1
    assert tracer.counters["cli.exit.0"] == 1


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_metric_for_every_workload(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    built = inputs.build(workload, 7, Path("inputs"))
    requests = [vars(r) for r in built.requests if r.key in TINY[workload]]
    assert len(requests) == len(TINY[workload])

    plain = loop.run(requests, seconds=0.0, trace=False)
    assert plain["failed"] == 0, plain["failures"]
    for metric in CONTRACT["end_to_end"]:
        if metric["name"] != "setup_s":  # run.py measures set-up in its own processes
            assert plain[metric["name"]] > 0, metric["name"]

    traced = loop.run(requests, seconds=0.0, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert traced["cycles"]["traced"] >= 1
    names = {m["name"] for m in CONTRACT["per_layer"]}
    assert names <= set(traced["layers"])
    assert tracing.leftover_wrappers() == []


def test_command_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_overrun_counts_as_failure_and_does_not_hang(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    built = inputs.build("analyze_certify", 7, Path("inputs"))
    requests = [vars(r) for r in built.requests if r.key == "exact_backend.float_k150"]
    result = loop.run(requests, seconds=0.0, trace=True, budget_s=0.005)
    assert result["attempted"] >= 3 and result["failed"] == result["attempted"]
    assert all("overran" in message for message in result["failures"])
    assert tracing.leftover_wrappers() == []
