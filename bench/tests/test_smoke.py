"""Smoke test of the benchmark at a tiny budget.

    python -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """One seed per workload, a 60-execution budget for the scanner
    target, two set-up repeats, outputs under tmp_path."""
    monkeypatch.setattr(bench, "OUT", tmp_path)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)
    monkeypatch.setattr(bench, "WORKLOADS", {
        name: replace(w, seeds=1,
                      max_executions=min(w.max_executions, 60))
        for name, w in bench.WORKLOADS.items()})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload,
                                               trace):
    code = bench.main(["--workload", workload, "--seed", "3",
                       "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == wanted
    for name, unit in wanted.items():
        assert any(line.strip().startswith(f"{name} = ")
                   and line.endswith(f" {unit}") for line in lines), name


def test_tampered_manifest_trips_the_replay_check(tiny):
    runner = bench.Bench(bench.WORKLOADS["parser"], seed=3)
    run = runner.fuzz(runner.seeds[0], remote=False)
    assert not run.failed
    outdir = runner.save(run, "pass0")
    assert runner.check_replay(outdir) == ""

    manifest_path = outdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["tests"][-1]["uid_pairs"].pop()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert runner.check_replay(outdir).startswith("replay failed")
