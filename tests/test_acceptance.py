"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear; without
-s they still show up in failure reports. The experiment criteria (5, 6, 7)
pin seeds whose margins were confirmed over neighboring seeds first, so a
regression here means the code changed, not the luck.
"""

import subprocess
import sys
import time

import numpy as np

from catgcn.autodiff import Tape, Tensor, finite_diff_check
from catgcn.cli import main
from catgcn.data import generate_synthetic, make_split, sample_features
from catgcn.graph import build_adjacency, normalize_sym
from catgcn.model import taped_forward, taped_loss
from catgcn.oracle import biinteraction_agreement, spectrum_check, theorem_sweep
from catgcn.training import TrainConfig, accuracy_macro_f1, held_out_metrics, train, xavier_init


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {label}: {detail}", flush=True)
    assert ok, f"criterion {num:02d} {label}: {detail}"


def test_criterion_01_power_collapse_sweep():
    t0 = time.perf_counter()
    certs = theorem_sweep(num_cells=200, seed=0, tolerance=1e-10)
    elapsed = time.perf_counter() - t0
    worst = max(c.max_abs_diff for c in certs)
    ok = len(certs) == 200 and all(c.passed for c in certs) and elapsed < 5.0
    _verdict(1, "K-hop probe collapse, 200 cells",
             ok, f"max|P^K - P(rho2)|={worst:.2e} (<=1e-10), {elapsed:.2f}s (<5s)")


def test_criterion_02_probe_spectrum_grid():
    worst = 0.0
    ok = True
    for n in (2, 5, 10, 20):
        for rho in (0.0, 1.0, 5.0, 21.0, 30.0):
            rep = spectrum_check(n, rho, tolerance=1e-8)
            ok = ok and rep.passed
            worst = max(worst, rep.max_residual, rep.max_expected_deviation)
            if rho == 0.0:
                ok = ok and rep.filter_coefficients == (1.0, 0.0)
    _verdict(2, "probe spectrum on 4x5 grid",
             ok, f"max deviation={worst:.2e} (<=1e-8), rho=0 coefficients exactly (1, 0)")


def test_criterion_03_pairwise_pooling_linear_form():
    t0 = time.perf_counter()
    gap = biinteraction_agreement(num_matrices=500, seed=0)
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-12 and elapsed < 2.0
    _verdict(3, "pairwise pooling vs linear form, 500 matrices",
             ok, f"max relative gap={gap:.2e} (<=1e-12), {elapsed:.2f}s (<2s)")


def _primitive_gradient_worst() -> float:
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    a, b = t(2, 3, 4), t(4, 2)
    xb, bias = t(2, 3, 4), t(4)
    p, q = t(3, 4), t(3, 4)
    sq = t(3, 4)
    rl = Tensor(np.sign(rng.normal(size=(3, 4))) * rng.uniform(0.1, 1.0, size=(3, 4)),
                requires_grad=True)  # kept away from the relu kink at 0
    mr = t(2, 4, 3)
    table = t(5, 3)
    ids = np.array([0, 1, 1, 4, 2])
    sc = t(3, 4)
    srx = t(2, 4, 3)
    srw = rng.uniform(0.5, 2.0, size=(2, 4))
    ts = t(3, 4)
    bi = t(2, 4, 3)
    ap = t(2, 4, 3)
    sp = t(5, 3)
    adj, _ = normalize_sym(build_adjacency(np.array([[0, 1], [1, 2], [2, 3], [3, 4]]), 5))
    lg = t(6, 3)
    labels = rng.integers(0, 3, size=6)
    mask = np.array([0, 2, 3, 5])

    cases = [
        ("matmul", (a, b), lambda tp: tp.matmul(a, b)),
        ("add_bias", (xb, bias), lambda tp: tp.add_bias(xb, bias)),
        ("add", (p, q), lambda tp: tp.add(p, q)),
        ("elementwise_mul", (p, q), lambda tp: tp.elementwise_mul(p, q)),
        ("elementwise_square", (sq,), lambda tp: tp.elementwise_square(sq)),
        ("relu", (rl,), lambda tp: tp.relu(rl)),
        ("mean_rows", (mr,), lambda tp: tp.mean_rows(mr)),
        ("sum_rows", (mr,), lambda tp: tp.sum_rows(mr)),
        ("gather_rows", (table,), lambda tp: tp.gather_rows(table, ids)),
        ("scale", (sc,), lambda tp: tp.scale(sc, 1.7)),
        ("scale_rows", (srx,), lambda tp: tp.scale_rows(srx, srw)),
        ("total_sum", (ts,), lambda tp: tp.total_sum(ts)),
        ("biinteraction", (bi,), lambda tp: tp.biinteraction(bi)),
        ("artificial_prop", (ap,), lambda tp: tp.artificial_prop(ap, 2.5)),
        ("sparse_propagate", (sp,), lambda tp: tp.sparse_propagate(adj, sp, 2)),
        ("softmax_cross_entropy", (lg,),
         lambda tp: tp.softmax_cross_entropy(lg, labels, mask)),
    ]
    worst = 0.0
    for name, params, build in cases:
        shape_probe = build(Tape()).data.shape
        weight = Tensor(np.random.default_rng(hash(name) % 2**32).normal(size=shape_probe))

        def f(build=build, weight=weight):
            tape = Tape()
            out = build(tape)
            if out.data.shape == ():
                return tape, out
            # random upstream weights make every vjp entry load-bearing
            return tape, tape.total_sum(tape.elementwise_mul(out, weight))

        worst = max(worst, finite_diff_check(f, params, step=1e-5))
    return worst


def test_criterion_04_gradient_checks():
    worst_model = 0.0
    for i in range(20):
        ds = generate_synthetic("homophily", 10, 30, 3, 5, 0.3, 0.1, seed=100 + i)
        cfg = TrainConfig(
            d_emb=8, d_hidden=8, n_f=5, hops=2, seed=i,
            alpha=(0.0, 0.25, 0.5, 0.75, 1.0)[i % 5], rho=float(i % 4),
            eta=0.001 if i % 2 else 0.0,
        )
        norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
        sample = sample_features(ds, cfg.n_f, seed=i)
        params = xavier_init(ds.num_features, ds.num_classes, cfg)
        split = make_split(ds, i)

        def f(params=params, sample=sample, norm=norm, split=split, cfg=cfg, ds=ds):
            tape = Tape()
            y = taped_forward(tape, params, sample, norm, cfg)
            return tape, taped_loss(tape, y, ds.labels, split.train_ids, cfg.eta, params)

        worst_model = max(worst_model, finite_diff_check(f, params.named_tensors().values(), step=1e-5))
    worst_prim = _primitive_gradient_worst()
    ok = worst_model <= 1e-4 and worst_prim <= 1e-6
    _verdict(4, "finite-difference gradients",
             ok, f"full model max rel err={worst_model:.2e} (<=1e-4) over 20 instances, "
                 f"per-primitive={worst_prim:.2e} (<=1e-6)")


def test_criterion_05_local_interaction_advantage():
    t0 = time.perf_counter()
    ds = generate_synthetic("local-signal", 2000, 40, 4, 10, 0.005, 0.005, seed=0)
    base = dict(learning_rate=0.05, alpha=0.0, hops=0, n_f=10, d_emb=64, d_hidden=64,
                max_epochs=300, patience=20, seed=1)
    acc_cat = held_out_metrics(train(TrainConfig(**base), ds), ds)["test_accuracy"]
    acc_mean = held_out_metrics(train(TrainConfig(variant="meanpool", **base), ds), ds)["test_accuracy"]
    elapsed = time.perf_counter() - t0
    ok = acc_cat >= 0.90 and acc_mean <= 0.70 and acc_cat - acc_mean >= 0.15 and elapsed < 60.0
    _verdict(5, "pairwise interaction vs mean-of-embeddings",
             ok, f"acc={acc_cat:.3f} (>=0.90) vs meanpool {acc_mean:.3f} (<=0.70), "
                 f"gap={acc_cat - acc_mean:+.3f} (>=0.15), {elapsed:.1f}s (<60s)")


def test_criterion_06_probe_sweep_gain():
    ds = generate_synthetic("global-signal", 2000, 240, 3, 10, 0.005, 0.005, seed=42)
    scores = {}
    for rho in (0.0, 1.0, 5.0, 10.0, 20.0, 30.0):
        cfg = TrainConfig(learning_rate=0.05, alpha=1.0, rho=rho, hops=0, n_f=10,
                          d_emb=16, d_hidden=32, max_epochs=200, patience=15, seed=1)
        scores[rho] = held_out_metrics(train(cfg, ds), ds)["test_macro_f1"]
    best_rho = max(scores, key=lambda r: scores[r])
    gain = scores[best_rho] - scores[0.0]
    sweep = " ".join(f"{r:g}:{v:.3f}" for r, v in scores.items())
    ok = gain >= 0.03
    _verdict(6, "self-loop probe sweep on global-route macro-F1",
             ok, f"best rho={best_rho:g} gain={gain:+.3f} (>=0.03) over [{sweep}]")


def test_criterion_07_propagation_advantage():
    ds = generate_synthetic("homophily", 1500, 600, 3, 10, 0.02, 0.002, seed=0)
    acc = {}
    for hops in (0, 2):
        cfg = TrainConfig(learning_rate=0.05, alpha=0.0, hops=hops, n_f=10,
                          d_emb=64, d_hidden=64, max_epochs=200, patience=15, seed=1)
        acc[hops] = held_out_metrics(train(cfg, ds), ds)["test_accuracy"]
    gap = acc[2] - acc[0]
    ok = gap >= 0.05
    _verdict(7, "2-hop propagation vs none on homophilous graph",
             ok, f"acc L2={acc[2]:.3f} vs L0={acc[0]:.3f}, gap={gap:+.3f} (>=0.05)")


def _metrics_bruteforce(pred, truth, c):
    n = len(truth)
    acc = sum(1 for p, t in zip(pred, truth) if p == t) / n
    f1s = []
    for k in range(c):
        tp = sum(1 for p, t in zip(pred, truth) if p == k and t == k)
        fp = sum(1 for p, t in zip(pred, truth) if p == k and t != k)
        fn = sum(1 for p, t in zip(pred, truth) if p != k and t == k)
        denom = 2 * tp + fp + fn
        f1s.append(2.0 * tp / denom if denom > 0 else 0.0)
    return acc, float(np.mean(f1s))


def test_criterion_08_metric_oracle():
    rng = np.random.default_rng(123)
    exact = True
    zero_denominator_seen = 0
    for i in range(1000):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(1, 40))
        # every third vector draws from a class subset, guaranteeing a class
        # with zero support and zero predictions
        hi = c if i % 3 else max(c - 1, 1)
        truth = rng.integers(0, hi, size=n)
        pred = rng.integers(0, hi, size=n)
        acc, f1 = accuracy_macro_f1(pred, truth, c)
        bacc, bf1 = _metrics_bruteforce(pred.tolist(), truth.tolist(), c)
        exact = exact and acc == bacc and f1 == bf1
        if any(k not in set(truth.tolist()) | set(pred.tolist()) for k in range(c)):
            zero_denominator_seen += 1
    ok = exact and zero_denominator_seen > 300
    _verdict(8, "accuracy and macro-F1 vs brute force, 1000 vectors",
             ok, f"bit-exact={exact}, vectors with an absent class={zero_denominator_seen}")


def test_criterion_09_determinism(tmp_path):
    ds_dir = tmp_path / "ds"
    assert main(["synth", "--kind", "local-signal", "--nodes", "120", "--feats", "40",
                 "--classes", "3", "--n-f", "6", "--p-in", "0.05", "--p-out", "0.05",
                 "--seed", "11", "--out-dir", str(ds_dir)]) == 0
    data = ["--edges", str(ds_dir / "edges.tsv"), "--features", str(ds_dir / "features.tsv"),
            "--labels", str(ds_dir / "labels.tsv")]
    targs = ["train", *data, "--max-epochs", "6", "--d-emb", "8", "--d-hidden", "8",
             "--n-f", "6", "--seed", "5", "--quiet"]
    assert main([*targs, "--out-dir", str(tmp_path / "a")]) == 0
    assert main([*targs, "--out-dir", str(tmp_path / "b")]) == 0
    logs_same = (tmp_path / "a/epochs.jsonl").read_bytes() == (tmp_path / "b/epochs.jsonl").read_bytes()
    ckpt_same = (tmp_path / "a/checkpoint.bin").read_bytes() == (tmp_path / "b/checkpoint.bin").read_bytes()
    gargs = ["grid", *data, "--learning-rate-grid", "0.1,0.01", "--eta-grid", "0.0",
             "--dropout-grid", "0.0", "--alpha-grid", "0.0,0.5", "--max-epochs", "3",
             "--d-emb", "8", "--d-hidden", "8", "--n-f", "6", "--seed", "1"]
    assert main([*gargs, "--jobs", "1", "--out-dir", str(tmp_path / "g1")]) == 0
    assert main([*gargs, "--jobs", "4", "--out-dir", str(tmp_path / "g4")]) == 0
    grid_same = (tmp_path / "g1/grid.json").read_bytes() == (tmp_path / "g4/grid.json").read_bytes()
    ok = logs_same and ckpt_same and grid_same
    _verdict(9, "bit-identical reruns",
             ok, f"epoch logs={logs_same}, checkpoints={ckpt_same}, grid.json jobs 1 vs 4={grid_same}")


_SCALE_SCRIPT = """
import resource, time
from catgcn.data import generate_synthetic
from catgcn.training import TrainConfig, train
t0 = time.perf_counter()
ds = generate_synthetic("homophily", 10_000, 1_000, 4, 10, 0.002, 0.0002, seed=0)
cfg = TrainConfig(learning_rate=0.01, alpha=0.5, rho=1.0, hops=2, n_f=10,
                  d_emb=32, d_hidden=32, max_epochs=100, patience=100, seed=0)
res = train(cfg, ds)
elapsed = time.perf_counter() - t0
usage = resource.getrusage(resource.RUSAGE_SELF)
cpu = usage.ru_utime + usage.ru_stime
print(len(res.records), f"{elapsed:.3f}", f"{cpu:.3f}", f"{usage.ru_maxrss / 1024.0:.1f}",
      usage.ru_minflt)
"""


def test_criterion_10_scale_sanity():
    # child process so the peak-RSS reading is this run's alone
    proc = subprocess.run([sys.executable, "-c", _SCALE_SCRIPT],
                          capture_output=True, text=True, timeout=290)
    assert proc.returncode == 0, proc.stderr
    # the gate is wall time; the child's CPU time beside it tells a slow run
    # from one that waited for a shared host's cores, and its minor page
    # faults show how much of the run went to faulting freed heap back in
    epochs, elapsed, cpu, peak_mb, minflt = proc.stdout.split()
    ok = int(epochs) == 100 and float(elapsed) < 60.0 and float(peak_mb) < 1024.0
    _verdict(10, "10k nodes x 1k features, 100 epochs, 2 hops",
             ok, f"{elapsed}s wall (<60s), {cpu}s CPU, {minflt} minor faults, "
                 f"peak {peak_mb}MB (<1024MB), epochs={epochs}")
