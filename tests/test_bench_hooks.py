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
from catgcn.data import SETUP_CHUNK_BYTES
from catgcn.interaction import NODE_BLOCK_BYTES

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


def test_traced_eval_counts_every_node_block_once(tmp_path):
    # large enough that the eval forward runs its per-node stage in several
    # blocks; the counter must still see all nodes, from one forward_all_nodes call
    nodes, n_f, d = 1500, 10, 12
    assert nodes * n_f * d * 8 > NODE_BLOCK_BYTES
    data = tmp_path / "ds"
    assert main(["synth", "--kind", "homophily", "--nodes", str(nodes), "--feats", "50",
                 "--classes", "3", "--n-f", str(n_f), "--p-in", "0.005", "--p-out", "0.0005",
                 "--seed", "5", "--out-dir", str(data)]) == 0
    args = [f"--{kind}={data}/{kind}.tsv" for kind in ("edges", "features", "labels")]
    assert main(["train", *args, "--n-f", str(n_f), "--d-emb", str(d), "--d-hidden", str(d),
                 "--max-epochs", "1", "--quiet", "--out-dir", str(tmp_path / "run")]) == 0
    evaluate = traced(tmp_path, "eval", "eval", f"--checkpoint={tmp_path}/run/checkpoint.bin",
                      *args)
    names = [span[0] for span in evaluate["spans"]]
    assert names.count("interaction.forward_all_nodes") == 1
    assert names.count("autodiff.tape.gather_rows") >= 2
    assert evaluate["counts"]["interaction.embed_elems"] == nodes * n_f * d


def test_traced_eval_over_several_setup_windows_records_one_span_each(tmp_path):
    # large enough that the loader parses the features file in several windows
    # and the sampler sorts its bags in several blocks; each runs its loop
    # inside one call, so the per-layer times still come from one span each.
    # So do the adjacency build and its normalization, and A_hat holds both
    # directions of every edge of the file (synth writes each once) and a self
    # loop per node
    nodes, n_f = 40_000, 10
    assert nodes * n_f * 8 > 2 * SETUP_CHUNK_BYTES
    data = tmp_path / "ds"
    assert main(["synth", "--kind", "homophily", "--nodes", str(nodes), "--feats", "5000",
                 "--classes", "3", "--n-f", str(n_f), "--p-in", "0.0001", "--p-out", "0.00001",
                 "--seed", "5", "--out-dir", str(data)]) == 0
    assert os.path.getsize(data / "features.tsv") > 2 * SETUP_CHUNK_BYTES
    args = [f"--{kind}={data}/{kind}.tsv" for kind in ("edges", "features", "labels")]
    assert main(["train", *args, "--n-f", str(n_f), "--d-emb", "4", "--d-hidden", "4",
                 "--max-epochs", "1", "--quiet", "--out-dir", str(tmp_path / "run")]) == 0
    evaluate = traced(tmp_path, "eval", "eval", f"--checkpoint={tmp_path}/run/checkpoint.bin",
                      *args)
    names = [span[0] for span in evaluate["spans"]]
    assert names.count("data.load_dataset") == names.count("data.sample_features") == 1
    assert names.count("graph.build_adjacency") == names.count("graph.normalize_sym") == 1
    edges = len((data / "edges.tsv").read_text().splitlines())
    assert evaluate["counts"]["graph.a_hat_nnz"] == 2 * edges + nodes


def test_traced_train_in_node_blocks_keeps_the_hooked_counts(tmp_path):
    # large enough that training runs its per-node stage in several blocks,
    # forward and backward: the counters must still see one forward_all_nodes
    # call per forward, all nodes, every epoch and the step's allocation peak
    nodes, n_f, d, epochs = 1500, 10, 24, 2
    assert nodes * n_f * d * 8 > 2 * NODE_BLOCK_BYTES
    data = tmp_path / "ds"
    assert main(["synth", "--kind", "homophily", "--nodes", str(nodes), "--feats", "50",
                 "--classes", "3", "--n-f", str(n_f), "--p-in", "0.005", "--p-out", "0.0005",
                 "--seed", "6", "--out-dir", str(data)]) == 0
    args = [f"--{kind}={data}/{kind}.tsv" for kind in ("edges", "features", "labels")]
    train = traced(tmp_path, "train", "train", *args, "--n-f", str(n_f), "--d-emb", str(d),
                   "--d-hidden", str(d), "--max-epochs", str(epochs), "--patience", str(epochs),
                   "--out-dir", str(tmp_path / "run"))
    spans = train["spans"]
    names = [span[0] for span in spans]
    forwards = [i for i, name in enumerate(names) if name == "model.taped_forward"]
    calls = [span for span in spans if span[0] == "interaction.forward_all_nodes"]
    assert len(forwards) >= epochs and len(calls) == len(forwards)
    assert all(span[3] in forwards for span in calls)

    def in_backward(span):
        while span[3] >= 0:
            span = spans[span[3]]
            if span[0] == "autodiff.backward":
                return True
        return False

    recomputed = [s for s in spans if s[0] == "autodiff.tape.gather_rows" and in_backward(s)]
    assert len(recomputed) >= 3 * epochs  # the backward recomputed block by block
    assert train["counts"]["interaction.embed_elems"] == nodes * n_f * d
    assert [m[0] for m in train["marks"]].count("epoch_end") == epochs
    assert train["counts"]["model.training_step.peak_alloc_mb"] > 0
