"""Workload definitions and the catgcn command lines they run.

Every workload is an SBM homophily graph from `catgcn synth --kind homophily`
with 4 classes, trained or evaluated with alpha=0.5, rho=1 and hops=2. Why
each one exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

CLASSES = 4
ALPHA = 0.5
RHO = 1.0
HOPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "train": timed `catgcn train`; "eval": timed `catgcn eval`
    nodes: int
    feats: int
    n_f: int
    p_in: float
    p_out: float
    d: int  # d_emb = d_hidden
    epochs: int  # of the timed train, or of the untimed set-up train for eval
    learning_rate: float  # chosen so the model has converged by the last epoch
    f1_floor: float  # a train whose test macro-F1 is lower fails its output check

    def synth_args(self, seed: int, out_dir: str) -> list:
        return [
            "synth", "--kind", "homophily", "--nodes", str(self.nodes),
            "--feats", str(self.feats), "--classes", str(CLASSES), "--n-f", str(self.n_f),
            "--p-in", repr(self.p_in), "--p-out", repr(self.p_out), "--seed", str(seed),
            "--out-dir", out_dir,
        ]

    def train_args(self, seed: int, data_dir: str, out_dir: str) -> list:
        # patience = max_epochs, so early stopping never changes the amount of work
        return [
            "train", *dataset_args(data_dir), "--alpha", repr(ALPHA), "--rho", repr(RHO),
            "--hops", str(HOPS), "--n-f", str(self.n_f), "--d-emb", str(self.d),
            "--d-hidden", str(self.d), "--max-epochs", str(self.epochs),
            "--patience", str(self.epochs), "--learning-rate", repr(self.learning_rate),
            "--seed", str(seed), "--out-dir", out_dir,
        ]


def dataset_args(data_dir: str) -> list:
    return [f"--{kind}={data_dir}/{kind}.tsv" for kind in ("edges", "features", "labels")]


def eval_args(data_dir: str, checkpoint: str) -> list:
    return ["eval", f"--checkpoint={checkpoint}", *dataset_args(data_dir)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-10k", "train", 10_000, 1_000, 10, 0.002, 0.0002, 32, 20, 0.05, 0.8),
        Workload("train-wide", "train", 5_000, 2_000, 50, 0.004, 0.0004, 64, 4, 0.02, 0.8),
        # no F1 floor: the 1-epoch set-up model is near chance (test macro-F1
        # 0.10-0.28 over seeds 1-5), so eval is checked against it exactly instead
        Workload("eval-100k", "eval", 100_000, 5_000, 10, 0.0002, 0.00002, 32, 1, 0.01, 0.0),
    )
}

# Same shapes of work at a few hundred nodes: checks wiring and metric names
# in seconds; its timings mean nothing.
SMOKE = {
    "train-10k": replace(WORKLOADS["train-10k"], nodes=400, feats=100, p_in=0.05,
                         p_out=0.005, d=8, epochs=3, f1_floor=0.0),
    "train-wide": replace(WORKLOADS["train-wide"], nodes=300, feats=200, n_f=20, p_in=0.07,
                          p_out=0.007, d=8, epochs=2, f1_floor=0.0),
    "eval-100k": replace(WORKLOADS["eval-100k"], nodes=600, feats=300, p_in=0.03,
                         p_out=0.003, d=8),
}
