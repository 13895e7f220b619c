"""Smoke sizes of every workload: wiring, output checks and metric names, in seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
                "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        layers = json.loads(out.read_text())[0]["metrics"]
        # the epoch loop at this commit: taped forward, its backward and the
        # validation forward each propagate once; a missed binding shows here
        assert layers["graph.propagate.calls_per_epoch"][0] == 3
        assert layers["model.model_forward.calls_per_epoch"][0] == 1
        epochs = SMOKE[workload].epochs
        for name in ("model.training_step", "autodiff.backward", "training.adam_step"):
            assert layers[f"{name}.calls"][0] == epochs


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "train-10k", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
