"""The benchmark's traced child still finds every program name it hooks.

`perfbench/child.py` rebinds functions by name and reads their arguments and
results to count work. A rename or signature change in the program breaks it
without failing any other tier-1 test, so this runs it on a tiny dataset.
"""

import json
import os
import subprocess
import sys

import pytest

from catgcn.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
NODES, N_F, D_EMB = 60, 4, 6


@pytest.fixture(scope="module")
def dataset_args(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert main(["synth", "--kind", "homophily", "--nodes", str(NODES), "--feats", "20",
                 "--classes", "3", "--n-f", str(N_F), "--p-in", "0.1", "--p-out", "0.01",
                 "--seed", "4", "--out-dir", str(out)]) == 0
    return [f"--{kind}={out}/{kind}.tsv" for kind in ("edges", "features", "labels")]


def traced(tmp_path, name, *argv):
    record = tmp_path / f"{name}.json"
    proc = subprocess.run([sys.executable, CHILD, str(record), "trace", "--", *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(record.read_text())


def test_traced_train_and_eval_record_the_hooked_counts(dataset_args, tmp_path):
    out_dir = tmp_path / "run"
    train = traced(tmp_path, "train", "train", *dataset_args, "--n-f", str(N_F),
                   "--d-emb", str(D_EMB), "--d-hidden", str(D_EMB), "--max-epochs", "2",
                   "--patience", "2", "--out-dir", str(out_dir))
    evaluate = traced(tmp_path, "eval", "eval", f"--checkpoint={out_dir}/checkpoint.bin",
                      *dataset_args)
    for record in (train, evaluate):
        assert record["counts"]["interaction.embed_elems"] == NODES * N_F * D_EMB
        assert record["counts"]["graph.a_hat_nnz"] > NODES
    assert train["counts"]["model.training_step.peak_alloc_mb"] > 0
    assert [m[0] for m in train["marks"]].count("epoch_end") == 2
    assert [m[0] for m in evaluate["marks"]][:2] == ["forward_start", "forward_end"]
