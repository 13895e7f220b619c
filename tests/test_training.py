"""Training loop parts: init, Adam, metrics, early stopping, grid search."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgcn.autodiff import Tensor
from catgcn.data import generate_synthetic, make_split, sample_features
from catgcn.graph import build_adjacency, normalize_sym
from catgcn.model import ModelParams, model_forward, param_shapes, training_step
from catgcn.rng import XAVIER, counter_keys, derive_cell_seed
from catgcn.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    EarlyStopper,
    EpochRecord,
    TrainConfig,
    TrainingDiverged,
    accuracy_macro_f1,
    adam_step,
    default_grids,
    grid_cells,
    grid_search,
    held_out_metrics,
    init_adam,
    run_inputs,
    split_scores,
    train,
    xavier_init,
)


def test_xavier_bounds_and_zero_biases():
    cfg = TrainConfig(d_emb=64, d_hidden=64, seed=1)
    params = xavier_init(200, 5, cfg)
    limit_emb = np.sqrt(6.0 / (200 + 64))
    assert np.abs(params.embedding.data).max() <= limit_emb
    assert np.abs(params.embedding.data).max() > 0.9 * limit_emb
    # 64x64 projection: bound sqrt(6/128) ~ 0.2165
    limit_conv = np.sqrt(6.0 / 128.0)
    assert limit_conv == pytest.approx(0.21650635094610965, abs=1e-15)
    assert np.abs(params.w_conv.data).max() <= limit_conv
    assert np.array_equal(params.b_g.data, np.zeros(5))
    assert np.array_equal(params.b_l.data, np.zeros(5))


def test_xavier_deterministic_per_seed():
    cfg = TrainConfig(seed=3)
    a = xavier_init(50, 4, cfg)
    b = xavier_init(50, 4, cfg)
    assert np.array_equal(a.embedding.data, b.embedding.data)
    c = xavier_init(50, 4, TrainConfig(seed=4))
    assert not np.array_equal(a.embedding.data, c.embedding.data)


def xavier_oracle(num_features, num_classes, config) -> dict:
    """Each weight from its own key, one element at a time in Python ints and
    floats; biases zero."""
    index = {f.name: i for i, f in enumerate(dataclasses.fields(ModelParams))}
    out = {}
    for name, shape in param_shapes(num_features, num_classes, config).items():
        if len(shape) == 1:
            out[name] = np.zeros(shape)
            continue
        low, high = -np.sqrt(6.0 / sum(shape)), np.sqrt(6.0 / sum(shape))
        keys = counter_keys(config.seed, XAVIER, index[name], np.arange(shape[0] * shape[1]))
        out[name] = np.array([low + (high - low) * ((int(k) >> 11) * 2.0**-53) for k in keys])
        out[name] = out[name].reshape(shape)
    return out


@pytest.mark.parametrize("deep", [False, True])
def test_xavier_weights_are_their_keys_uniforms(deep):
    cfg = TrainConfig(d_emb=6, d_hidden=5, seed=7, deep_projection=deep)
    named = xavier_init(30, 4, cfg).named_tensors()
    want = xavier_oracle(30, 4, cfg)
    assert list(named) == list(want)
    for name, t in named.items():
        assert t.data.tobytes() == want[name].tobytes(), name
        if t.data.ndim == 2:
            limit = np.sqrt(6.0 / sum(t.data.shape))
            assert -limit <= t.data.min() and t.data.max() < limit, name


def test_xavier_base_tensors_do_not_depend_on_deep_projection():
    # d_emb == d_hidden, so w_l has one shape with and without the hidden layer
    cfg = TrainConfig(d_emb=6, d_hidden=6, seed=2)
    base = xavier_init(30, 4, cfg).named_tensors()
    deep = xavier_init(30, 4, dataclasses.replace(cfg, deep_projection=True)).named_tensors()
    assert set(base) < set(deep)
    for name, t in base.items():
        assert t.data.tobytes() == deep[name].data.tobytes(), name


def make_single_param(value):
    class P:
        def __init__(self, t):
            self.t = t

        def named_tensors(self):
            return {"t": self.t}

    return P(Tensor(np.array([value]), requires_grad=True))


def test_adam_first_step_frozen():
    # g=1, lr=0.1: bias-corrected first step is -0.1 / (1 + 1e-8)
    p = make_single_param(0.0)
    state = init_adam(p)
    adam_step(p, {p.t: np.array([1.0])}, state, lr=0.1)
    assert p.t.data[0] == pytest.approx(-0.1 / (1.0 + 1e-8), abs=1e-18)


def test_adam_zero_lr_keeps_parameters_bit_identical():
    p = make_single_param(1.2345)
    before = p.t.data.copy()
    state = init_adam(p)
    for _ in range(5):
        adam_step(p, {p.t: np.array([0.7])}, state, lr=0.0)
    assert np.array_equal(p.t.data, before)
    assert state.m["t"][0] != 0.0  # moments still advance


def test_adam_converges_on_quadratic():
    p = make_single_param(5.0)
    state = init_adam(p)
    for _ in range(400):
        g = 2.0 * (p.t.data - 3.0)  # d/dx (x-3)^2
        adam_step(p, {p.t: g}, state, lr=0.05)
    assert abs(p.t.data[0] - 3.0) < 1e-3


def test_adam_missing_grad_is_zero():
    p = make_single_param(2.0)
    state = init_adam(p)
    adam_step(p, {}, state, lr=0.1)
    assert p.t.data[0] == 2.0  # zero first moment, zero update


def adam_reference(params, grads, state, lr):
    """Adam as one expression per moment and one for the step, in the
    operation order `adam_step` keeps."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, tensor in params.named_tensors().items():
        g = grads.get(tensor)
        if g is None:
            g = np.zeros_like(tensor.data)
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        if lr == 0.0:
            continue
        tensor.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def test_adam_step_is_bit_identical_to_the_expression_form():
    cfg = TrainConfig(d_emb=6, d_hidden=5, seed=3)
    params, ref = xavier_init(30, 4, cfg), xavier_init(30, 4, cfg)
    state, ref_state = init_adam(params), init_adam(ref)
    gen = np.random.default_rng(0)
    # w_g and b_g get no gradient: a dead route, whose moments only decay
    named, ref_named = params.named_tensors(), ref.named_tensors()
    live = [n for n in named if n not in ("w_g", "b_g")]
    for step, lr in enumerate((0.01, 0.05, 0.0, 0.02, 0.01, 0.03)):
        # every third step's gradients are tiny, so moments underflow through subnormals
        scale = 1e-310 if step % 3 == 2 else 1.0
        draws = {n: gen.standard_normal(named[n].data.shape) * scale for n in live}
        adam_step(params, {named[n]: g for n, g in draws.items()}, state, lr)
        adam_reference(ref, {ref_named[n]: g.copy() for n, g in draws.items()}, ref_state, lr)
        for name, t in named.items():
            assert t.data.tobytes() == ref_named[name].data.tobytes(), (step, name)
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), (step, name)
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), (step, name)


# measured: adam_step peaks at 2.004 embedding tables, the expression form at 3.000
ADAM_PEAK_TABLES = 2.5


def test_adam_step_holds_two_table_sized_buffers():
    # 500 nodes x 10,000 features x d_emb 32: the 2.56 MB embedding table dominates
    ds = generate_synthetic("homophily", 500, 10_000, 3, 10, 0.02, 0.002, seed=1)
    cfg = TrainConfig(d_emb=32, d_hidden=32, n_f=10, seed=1)
    norm_adj, split, sample = run_inputs(ds, cfg)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    state = init_adam(params)
    _, grads, _ = training_step(params, sample, norm_adj, cfg, ds.labels, split.train_ids, 1)
    table = params.embedding.data.nbytes
    tracemalloc.start()
    try:
        adam_step(params, grads, state, cfg.learning_rate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ADAM_PEAK_TABLES * table, peak / table


def test_accuracy_macro_f1_frozen_third():
    # all predictions class 0, truth half 0 half 1:
    # class0 F1 = 2*2/(2*2+2+0) = 2/3, class1 F1 = 0 -> macro 1/3
    pred = np.array([0, 0, 0, 0])
    truth = np.array([0, 0, 1, 1])
    acc, f1 = accuracy_macro_f1(pred, truth, 2)
    assert acc == 0.5
    assert f1 == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_accuracy_macro_f1_perfect():
    y = np.array([0, 1, 2, 1, 0])
    acc, f1 = accuracy_macro_f1(y, y, 3)
    assert acc == 1.0 and f1 == 1.0


def test_accuracy_macro_f1_absent_class_counts_zero():
    # class 2 never appears in truth nor prediction: F1_2 = 0 by convention
    pred = np.array([0, 1])
    truth = np.array([0, 1])
    _, f1 = accuracy_macro_f1(pred, truth, 3)
    assert f1 == pytest.approx(2.0 / 3.0, abs=1e-15)


def brute_force_metrics(pred, truth, c):
    """Independent reference: counts via python loops, same F1 convention."""
    correct = sum(int(p == t) for p, t in zip(pred, truth))
    f1s = []
    for k in range(c):
        tp = sum(int(p == k and t == k) for p, t in zip(pred, truth))
        fp = sum(int(p == k and t != k) for p, t in zip(pred, truth))
        fn = sum(int(p != k and t == k) for p, t in zip(pred, truth))
        denom = 2 * tp + fp + fn
        f1s.append(2.0 * tp / denom if denom > 0 else 0.0)
    return correct / len(pred), float(np.mean(f1s))


def test_accuracy_macro_f1_matches_brute_force_exactly():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c = int(rng.integers(2, 8))
        n = int(rng.integers(1, 60))
        pred = rng.integers(0, c, size=n)
        truth = rng.integers(0, c, size=n)
        acc, f1 = accuracy_macro_f1(pred, truth, c)
        ref_acc, ref_f1 = brute_force_metrics(pred, truth, c)
        assert acc == ref_acc  # bit-for-bit
        assert f1 == ref_f1


def test_early_stopper_patience_window():
    s = EarlyStopper(patience=3)
    assert s.update(0.5, 1)
    assert not s.update(0.5, 2)  # tie is not an improvement
    assert not s.should_stop(2)
    assert not s.should_stop(3)
    assert s.should_stop(4)  # epochs 2,3,4 without improvement
    assert s.update(0.6, 5)
    assert s.best_epoch == 5


def test_train_runs_and_early_stops():
    ds = generate_synthetic("local-signal", 120, 40, 3, 6, 0.05, 0.05, seed=5)
    cfg = TrainConfig(learning_rate=0.01, alpha=0.0, hops=0, d_emb=8, d_hidden=8,
                      n_f=6, max_epochs=400, patience=5, seed=2)
    result = train(cfg, ds)
    assert len(result.records) < 400  # patience must trigger well before the cap
    assert result.best_epoch <= len(result.records)
    assert len(result.records) - result.best_epoch >= 5
    metrics = held_out_metrics(result, ds)
    assert 0.0 <= metrics["test_accuracy"] <= 1.0


def test_held_out_metrics_without_kept_logits_runs_the_eval_forward():
    ds = generate_synthetic("local-signal", 120, 40, 3, 6, 0.05, 0.05, seed=5)
    cfg = TrainConfig(learning_rate=0.05, alpha=0.5, hops=1, d_emb=8, d_hidden=8,
                      n_f=6, max_epochs=6, seed=2)
    result = train(cfg, ds)
    assert result.val_logits is not None
    bare = dataclasses.replace(result, val_logits=None)
    assert held_out_metrics(bare, ds) == held_out_metrics(result, ds)


def test_train_returns_best_epoch_parameters():
    ds = generate_synthetic("local-signal", 120, 40, 3, 6, 0.05, 0.05, seed=5)
    cfg = TrainConfig(learning_rate=0.05, alpha=0.0, hops=0, d_emb=8, d_hidden=8,
                      n_f=6, max_epochs=60, patience=8, seed=2)
    result = train(cfg, ds)
    from catgcn.model import model_forward
    from catgcn.training import evaluate

    logits = model_forward(result.params, result.sample, result.norm_adj, cfg)
    _, val_f1 = evaluate(logits, ds.labels, result.split.val_ids)
    best_logged = max(r.val_macro_f1 for r in result.records)
    assert val_f1 == pytest.approx(best_logged, abs=1e-12)


_SELECTION_DS = generate_synthetic("local-signal", 150, 40, 3, 6, 0.05, 0.05, seed=4)


@settings(max_examples=20, deadline=None)
@given(
    resample=st.booleans(),
    n_f=st.integers(2, 8),
    dropout=st.sampled_from([0.0, 0.3]),
    monitor=st.sampled_from(["macro_f1", "accuracy", "loss"]),
    seed=st.integers(0, 2**31),
)
def test_selected_epoch_metric_is_the_reported_one(resample, n_f, dropout, monitor, seed):
    # the epoch log's val macro-F1 at the best epoch must be what held_out_metrics
    # (and `catgcn eval`) report for the returned parameters, resampling or not
    cfg = TrainConfig(learning_rate=0.05, alpha=0.5, hops=1, d_emb=8, d_hidden=8, n_f=n_f,
                      dropout=dropout, monitor=monitor, resample_per_epoch=resample,
                      max_epochs=8, patience=8, seed=seed)
    result = train(cfg, _SELECTION_DS)
    reported = held_out_metrics(result, _SELECTION_DS)
    assert result.records[result.best_epoch - 1].val_macro_f1 == reported["val_macro_f1"]
    assert result.records[result.best_epoch - 1].val_accuracy == reported["val_accuracy"]


def test_selection_with_resampling_local_signal_repro():
    # validation used to score each epoch's resample: here the selected epoch
    # logged val macro-F1 0.393 while the base sample's reported 0.315
    ds = generate_synthetic("local-signal", 1500, 40, 4, 10, 0.005, 0.005, seed=0)
    cfg = TrainConfig(learning_rate=0.05, alpha=0.0, hops=0, n_f=4, d_emb=16, d_hidden=16,
                      resample_per_epoch=True, max_epochs=30, patience=10, seed=3)
    result = train(cfg, ds)
    reported = held_out_metrics(result, ds)["val_macro_f1"]
    assert result.records[result.best_epoch - 1].val_macro_f1 == reported


@pytest.mark.parametrize("field, value", [
    ("learning_rate", float("nan")), ("eta", float("inf")), ("dropout", float("nan")),
    ("alpha", float("-inf")), ("rho", float("nan")),
    ("n_f", 0), ("d_emb", 0), ("d_hidden", -1),
])
def test_config_rejects_non_finite_and_empty_dimensions(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


_WRONG_TYPES = {
    "float": ["fast", True, None],
    "int": [4.5, True, "3"],
    "bool": [1, "true", None],
    "str": [3, True, None],
}


@pytest.mark.parametrize("field, value", [
    (f.name, value) for f in dataclasses.fields(TrainConfig) for value in _WRONG_TYPES[f.type]
])
def test_config_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be of type "):
        TrainConfig(**{field: value})


def test_config_takes_ints_for_floats():
    cfg = TrainConfig(learning_rate=1, eta=0, dropout=0, alpha=1, rho=2)
    assert (cfg.alpha, cfg.rho) == (1, 2)


@pytest.mark.parametrize("bad, message", [
    (dict(d_hidden=0), "d_hidden must be >= 1, got 0"),
    (dict(hops=-1), "hops must be >= 0, got -1"),
    (dict(dropout=1.0), r"dropout must lie in \[0, 1\), got 1.0"),
    (dict(dropout=-0.1), r"dropout must lie in \[0, 1\), got -0.1"),
    (dict(dropout_site="input"), "unknown dropout_site 'input'"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(alpha=1.5, dropout=1.0, hops=-1, rho=-2.0, variant="gcn"),
     "rho must be >= 0, got -2.0"),
])
def test_config_rejects_out_of_range_values(bad, message):
    # every range and choice is checked when the config is built, not when a run reads it
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrainConfig(**bad)


def test_train_is_deterministic():
    ds = generate_synthetic("homophily", 80, 30, 3, 5, 0.1, 0.02, seed=1)
    cfg = TrainConfig(d_emb=8, d_hidden=8, n_f=5, max_epochs=10, seed=9)
    a = train(cfg, ds)
    b = train(cfg, ds)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.train_loss == rb.train_loss  # bit-for-bit
        assert ra.val_accuracy == rb.val_accuracy
        assert ra.val_macro_f1 == rb.val_macro_f1
    for name, t in a.params.named_tensors().items():
        assert np.array_equal(t.data, b.params.named_tensors()[name].data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverges_loudly():
    # Adam keeps step sizes near lr, so an absurd lr overflows the squared
    # interaction on the next forward pass and the loss goes non-finite
    ds = generate_synthetic("homophily", 60, 30, 3, 5, 0.1, 0.02, seed=1)
    cfg = TrainConfig(learning_rate=1e200, d_emb=8, d_hidden=8, n_f=5,
                      max_epochs=50, seed=0)
    with pytest.raises(TrainingDiverged) as exc_info:
        train(cfg, ds)
    assert exc_info.value.epoch == 2
    assert len(exc_info.value.records) == 1


def test_default_grid_is_full_size():
    grids = default_grids()
    cells = grid_cells(grids, TrainConfig())
    assert len(cells) == 3 * 6 * 10 * 11  # 1980


def test_grid_cells_order_and_seeds():
    grids = {"learning_rate": [0.1, 0.01], "alpha": [0.0, 1.0]}
    cells = grid_cells(grids, TrainConfig(seed=7))
    # later axes vary fastest
    assert [(c.learning_rate, c.alpha) for c in cells] == [
        (0.1, 0.0), (0.1, 1.0), (0.01, 0.0), (0.01, 1.0),
    ]
    seeds = [c.seed for c in cells]
    assert len(set(seeds)) == 4
    assert seeds == [derive_cell_seed(7, i) for i in range(4)]


def test_grid_cells_rejects_unknown_axis():
    with pytest.raises(ValueError, match="unknown grid axes"):
        grid_cells({"momentum": [0.9]}, TrainConfig())


def test_grid_with_a_bad_cell_trains_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr("catgcn.training.train", lambda *a, **k: calls.append(a))
    ds = generate_synthetic("homophily", 60, 30, 3, 5, 0.15, 0.02, seed=3)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1.5$"):
        grid_search(ds, {"alpha": [0.5, 0.5, 0.5, 1.5]}, TrainConfig(max_epochs=2), jobs=1)
    assert calls == []


def test_grid_search_identical_across_jobs():
    ds = generate_synthetic("homophily", 60, 30, 3, 5, 0.15, 0.02, seed=3)
    grids = {"learning_rate": [0.1, 0.01], "alpha": [0.0, 0.5]}
    base = TrainConfig(d_emb=8, d_hidden=8, n_f=5, max_epochs=6, seed=1)
    rows1, best1 = grid_search(ds, grids, base, jobs=1)
    rows2, best2 = grid_search(ds, grids, base, jobs=3)
    assert rows1 == rows2
    assert best1 == best2
    assert len(rows1) == 4
    assert all(r["cell"] == i for i, r in enumerate(rows1))


@pytest.mark.parametrize("jobs, alphas, pools", [
    (1, [0.0, 0.5], []),  # one job runs every cell in this process
    (8, [0.0, 0.5], [2]),
    (3, [0.0, 0.25, 0.5, 1.0], [3]),
])
def test_grid_pool_starts_at_most_one_worker_per_cell(monkeypatch, jobs, alphas, pools):
    import multiprocessing  # grid_search imports it on first use, so the patch reaches it

    sizes = []

    class RecordingPool:
        """Runs the tasks in this process and records the requested worker count."""

        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    ds = generate_synthetic("homophily", 40, 20, 3, 4, 0.15, 0.02, seed=3)
    base = TrainConfig(d_emb=4, d_hidden=4, n_f=4, max_epochs=2, seed=1)
    rows, _ = grid_search(ds, {"alpha": alphas}, base, jobs=jobs)
    assert sizes == pools
    assert [r["cell"] for r in rows] == list(range(len(alphas)))


def test_derive_cell_seed_distinct_and_stable():
    seeds = {derive_cell_seed(0, i) for i in range(2000)}
    assert len(seeds) == 2000
    assert derive_cell_seed(42, 7) == derive_cell_seed(42, 7)
    assert all(0 <= s < 2**62 for s in seeds)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(monitor="f2")
    with pytest.raises(ValueError):
        TrainConfig(patience=0)


# --- the loop against its reference -----------------------------------------


def reference_train(config: TrainConfig, dataset):
    """The loop as first written: one eval forward after every Adam step."""
    from catgcn.data import make_split, sample_features
    from catgcn.graph import build_adjacency, normalize_sym
    from catgcn.model import model_forward, training_step
    from catgcn.training import EarlyStopper, _monitor_value, evaluate

    norm_adj, _ = normalize_sym(build_adjacency(dataset.edges, dataset.num_nodes))
    split = make_split(dataset, config.seed)
    sample = sample_features(dataset, config.n_f, config.seed)
    params = xavier_init(dataset.num_features, dataset.num_classes, config)
    state = init_adam(params)
    labels = dataset.labels
    stopper = EarlyStopper(config.patience)
    records = []
    best_params = params.copy()
    for epoch in range(1, config.max_epochs + 1):
        epoch_sample = sample
        if config.resample_per_epoch and epoch > 1:
            epoch_sample = sample_features(dataset, config.n_f,
                                           derive_cell_seed(config.seed, epoch))
        loss_value, grads, _ = training_step(
            params, epoch_sample, norm_adj, config, labels, split.train_ids, epoch=epoch
        )
        if not np.isfinite(loss_value):
            raise TrainingDiverged(epoch, records)
        adam_step(params, grads, state, config.learning_rate)
        logits = model_forward(params, sample, norm_adj, config)
        val_acc, val_f1 = evaluate(logits, labels, split.val_ids)
        records.append(EpochRecord(epoch, loss_value, val_acc, val_f1, wall_time_s=0.0))
        if stopper.update(_monitor_value(config, logits, labels, split.val_ids, val_acc, val_f1),
                          epoch):
            best_params = params.copy()
        if stopper.should_stop(epoch):
            break
    logits = model_forward(best_params, sample, norm_adj, config)
    acc, f1 = evaluate(logits, labels, split.test_ids)
    val_acc, val_f1 = evaluate(logits, labels, split.val_ids)
    held_out = {"test_accuracy": acc, "test_macro_f1": f1, "val_accuracy": val_acc,
                "val_macro_f1": val_f1, "best_epoch": stopper.best_epoch,
                "epochs_run": len(records)}
    return records, stopper, best_params, held_out


def record_tuples(records):
    return [(r.epoch, r.train_loss, r.val_accuracy, r.val_macro_f1) for r in records]


_LOOP_DS = generate_synthetic("homophily", 90, 30, 3, 5, 0.12, 0.02, seed=6)
_LOOP_BASE = dict(learning_rate=0.05, d_emb=8, d_hidden=8, n_f=5, hops=1,
                  max_epochs=10, patience=10, seed=4)


@pytest.mark.parametrize("overrides", [
    dict(alpha=0.0),
    dict(alpha=0.5),
    dict(alpha=1.0),
    dict(variant="meanpool"),
    dict(deep_projection=True, final_activation="relu"),
    dict(monitor="accuracy"),
    dict(monitor="loss", eta=0.01),
    dict(eta=0.001, hops=0),
    dict(learning_rate=0.2, patience=2, max_epochs=40),
    dict(monitor="loss", learning_rate=0.2, patience=2, max_epochs=40),
    dict(dropout=0.3),
    dict(dropout=0.3, dropout_site="both", patience=2, max_epochs=40),
    dict(resample_per_epoch=True),
    dict(resample_per_epoch=True, learning_rate=0.2, patience=2, max_epochs=40),
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_train_matches_the_per_epoch_forward_loop(overrides):
    # scoring epoch t from step t+1's taped logits must leave every output
    # bit-identical to running an eval forward after each update
    cfg = TrainConfig(**{**_LOOP_BASE, **overrides})
    ref_records, ref_stopper, ref_params, ref_held_out = reference_train(cfg, _LOOP_DS)
    result = train(cfg, _LOOP_DS)
    assert record_tuples(result.records) == record_tuples(ref_records)
    assert result.best_epoch == ref_stopper.best_epoch
    assert result.best_val_metric == ref_stopper.best
    for name, t in result.params.named_tensors().items():
        assert np.array_equal(t.data, ref_params.named_tensors()[name].data), name
    assert held_out_metrics(result, _LOOP_DS) == ref_held_out
    if overrides.get("patience") == 2:
        assert len(result.records) < cfg.max_epochs  # the early stop is exercised


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("overrides", [
    dict(learning_rate=1e200),
    dict(learning_rate=1e102, deep_projection=True),
    dict(learning_rate=1e105, dropout=0.3),
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_divergence_matches_the_per_epoch_forward_loop(overrides):
    cfg = TrainConfig(**{**_LOOP_BASE, "max_epochs": 30, **overrides})
    with pytest.raises(TrainingDiverged) as ref:
        reference_train(cfg, _LOOP_DS)
    with pytest.raises(TrainingDiverged) as got:
        train(cfg, _LOOP_DS)
    assert got.value.epoch == ref.value.epoch
    assert record_tuples(got.value.records) == record_tuples(ref.value.records)
    assert str(got.value) == str(ref.value)


def nan_loss_at(monkeypatch, bad_epoch):
    """Make the training module's step report a non-finite loss at `bad_epoch`."""
    import catgcn.training as training

    step = training.training_step

    def step_with_nan(*args, **kwargs):
        loss_value, grads, logits = step(*args, **kwargs)
        return (np.nan if kwargs["epoch"] == bad_epoch else loss_value), grads, logits

    monkeypatch.setattr(training, "training_step", step_with_nan)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_late_divergence_keeps_the_earlier_records(monkeypatch, dropout):
    cfg = TrainConfig(**{**_LOOP_BASE, "dropout": dropout})
    ref_records = reference_train(cfg, _LOOP_DS)[0]
    nan_loss_at(monkeypatch, 5)
    with pytest.raises(TrainingDiverged) as got:
        train(cfg, _LOOP_DS)
    assert got.value.epoch == 5
    assert record_tuples(got.value.records) == record_tuples(ref_records[:4])


@pytest.mark.parametrize("monitor", ["macro_f1", "loss"])
def test_early_stop_wins_over_a_non_finite_next_step(monkeypatch, monitor):
    # the per-epoch loop stopped at epoch t and never ran step t+1, so a
    # non-finite loss there must not turn the stop into a divergence
    cfg = TrainConfig(**{**_LOOP_BASE, "monitor": monitor, "learning_rate": 0.2,
                         "patience": 2, "max_epochs": 40})
    ref_records, ref_stopper, ref_params, ref_held_out = reference_train(cfg, _LOOP_DS)
    assert len(ref_records) < cfg.max_epochs
    nan_loss_at(monkeypatch, len(ref_records) + 1)
    result = train(cfg, _LOOP_DS)
    assert record_tuples(result.records) == record_tuples(ref_records)
    assert result.best_epoch == ref_stopper.best_epoch
    assert held_out_metrics(result, _LOOP_DS) == ref_held_out


@pytest.mark.parametrize("dropout, patience, forwards", [
    (0.0, 6, 1),  # the only untaped forward scores the last epoch
    (0.3, 6, 6),  # dropout: each epoch runs its own validation forward
    (0.0, 1, 0),  # early stop: step t+1 scored epoch t, no untaped forward
])
def test_train_hooks_the_benchmark_reads(monkeypatch, dropout, patience, forwards):
    # the benchmark stamps an epoch at every call of the training module's
    # training_step and at every progress call, and counts model_forward calls
    import catgcn.training as training

    calls = {"training_step": 0, "model_forward": 0}

    def counting(name):
        original = getattr(training, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(training, "training_step", counting("training_step"))
    monkeypatch.setattr(training, "model_forward", counting("model_forward"))
    seen = []
    cfg = TrainConfig(**{**_LOOP_BASE, "dropout": dropout, "max_epochs": 6,
                         "patience": patience, "learning_rate": 0.2})
    result = train(cfg, _LOOP_DS, progress=seen.append)
    held_out_metrics(result, _LOOP_DS)
    epochs = len(result.records)
    assert [r.epoch for r in seen] == list(range(1, epochs + 1))
    assert seen == result.records
    stopped_early = epochs < cfg.max_epochs
    assert stopped_early == (patience == 1)
    # an early stop at epoch t runs step t+1 for its forward alone
    assert calls["training_step"] == epochs + (stopped_early and dropout == 0.0)
    assert calls["model_forward"] == forwards


def test_epoch_wall_time_counts_one_epoch(monkeypatch):
    # epoch t is recorded after step t+1; its wall time must still hold only
    # its own step, update and scoring (the last epoch's scoring is a forward)
    import catgcn.training as training

    clock = [0.0]
    monkeypatch.setattr(training.time, "monotonic", lambda: clock[0])

    def ticking(fn, seconds):
        def wrapper(*args, **kwargs):
            clock[0] += seconds(kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # step t takes t seconds of the fake clock, a forward a quarter second
    monkeypatch.setattr(training, "training_step",
                        ticking(training.training_step, lambda kw: float(kw["epoch"])))
    monkeypatch.setattr(training, "model_forward",
                        ticking(training.model_forward, lambda kw: 0.25))
    cfg = TrainConfig(**{**_LOOP_BASE, "max_epochs": 4, "patience": 4})
    result = train(cfg, _LOOP_DS)
    assert [r.wall_time_s for r in result.records] == [1.0, 2.0, 3.0, 4.25]


# --- run inputs ------------------------------------------------------------

_BAGS = ("bag_offsets", "bag_ids", "bag_weights")


def inputs_dataset():
    return generate_synthetic("homophily", 300, 60, 3, 4, 0.05, 0.005, seed=4)


def handed_over_dataset():
    """([dataset], weak references to its bag arrays and its edge list): the
    list holds the dataset's only reference, to be popped into a call."""
    ds = inputs_dataset()
    refs = {name: weakref.ref(getattr(ds, name)) for name in (*_BAGS, "edges")}
    return [ds], refs


_INPUTS_CONFIG = TrainConfig(n_f=6, d_emb=8, d_hidden=8, max_epochs=4, seed=7)


def test_run_inputs_frees_what_it_was_handed_once_read(monkeypatch):
    import catgcn.training as training

    held, refs = handed_over_dataset()
    alive = {}

    def probing_build_adjacency(edges, num_nodes):
        alive["bags at adjacency"] = [n for n in _BAGS if refs[n]() is not None]
        return build_adjacency(edges, num_nodes)

    def probing_normalize_sym(adj):
        alive["edges at normalization"] = refs["edges"]() is not None
        return normalize_sym(adj)

    monkeypatch.setattr(training, "build_adjacency", probing_build_adjacency)
    monkeypatch.setattr(training, "normalize_sym", probing_normalize_sym)
    assert all(ref() is not None for ref in refs.values())
    run_inputs(held.pop(), _INPUTS_CONFIG)
    assert alive == {"bags at adjacency": [], "edges at normalization": False}


def test_run_inputs_of_a_kept_dataset_are_its_parts_bytes():
    # a caller keeping its dataset gets what the parts give in any order,
    # and its dataset stays whole
    ds = inputs_dataset()
    arrays = {name: getattr(ds, name) for name in (*_BAGS, "edges")}
    norm, split, sample = run_inputs(ds, _INPUTS_CONFIG)
    want_norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    want_split = make_split(ds, _INPUTS_CONFIG.seed)
    want_sample = sample_features(ds, _INPUTS_CONFIG.n_f, _INPUTS_CONFIG.seed)
    for got, want in ((norm, want_norm), (split, want_split), (sample, want_sample)):
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            else:
                assert a == b
    assert all(getattr(ds, name) is array for name, array in arrays.items())


def test_handed_over_inputs_score_the_held_out_metrics():
    # what `catgcn eval` does with its dataset, against the training run's metrics
    held, _ = handed_over_dataset()
    kept = inputs_dataset()
    result = train(_INPUTS_CONFIG, kept)
    labels = held[0].labels
    norm, split, sample = run_inputs(held.pop(), _INPUTS_CONFIG)
    scores = split_scores(model_forward(result.params, sample, norm, _INPUTS_CONFIG),
                          labels, split)
    metrics = held_out_metrics(result, kept)
    assert scores == {k: metrics[k] for k in scores}


# --- train's handover ------------------------------------------------------

_HANDOVER_RUNS = [
    dict(),
    dict(dropout=0.3),
    dict(learning_rate=0.2, patience=1),  # an early stop: the last step runs for its forward
    dict(resample_per_epoch=True),
]


def _run_id(overrides) -> str:
    return ",".join(f"{k}={v}" for k, v in overrides.items()) or "plain"


def probing_steps(monkeypatch, refs):
    """Wrap the training module's step; each call appends (the names of
    `refs` still alive, how many of the previous step's gradient arrays are)."""
    import catgcn.training as training

    step, seen, last_grads = training.training_step, [], []

    def probing(*args, **kwargs):
        seen.append(([n for n, ref in refs.items() if ref() is not None],
                     sum(ref() is not None for ref in last_grads)))
        out = step(*args, **kwargs)
        last_grads[:] = [weakref.ref(g) for g in out[1].values()]
        return out

    monkeypatch.setattr(training, "training_step", probing)
    return seen


@pytest.mark.parametrize("overrides", _HANDOVER_RUNS, ids=_run_id)
def test_train_frees_what_it_was_handed_and_each_steps_gradients(monkeypatch, overrides):
    cfg = dataclasses.replace(_INPUTS_CONFIG, **overrides)
    held, refs = handed_over_dataset()
    seen = probing_steps(monkeypatch, refs)
    train(cfg, held.pop())
    assert len(seen) >= 2
    # resampling reads the bags every epoch, so only then is the dataset kept
    want = list(refs) if cfg.resample_per_epoch else []
    assert seen == [(want, 0)] * len(seen)


@pytest.mark.parametrize("overrides", _HANDOVER_RUNS, ids=_run_id)
def test_train_on_a_kept_dataset_keeps_it_whole_and_computes_the_same_bytes(overrides):
    cfg = dataclasses.replace(_INPUTS_CONFIG, **overrides)
    kept = inputs_dataset()
    arrays = {name: getattr(kept, name) for name in (*_BAGS, "edges", "labels")}
    stored = {name: a.tobytes() for name, a in arrays.items()}
    want = train(cfg, kept)
    assert all(getattr(kept, n) is a and a.tobytes() == stored[n] for n, a in arrays.items())
    held, _ = handed_over_dataset()
    got = train(cfg, held.pop())
    assert record_tuples(got.records) == record_tuples(want.records)
    for name, t in got.params.named_tensors().items():
        assert t.data.tobytes() == want.params.named_tensors()[name].data.tobytes(), name
    assert held_out_metrics(got, kept.labels) == held_out_metrics(want, kept)


def test_grid_scores_each_cell_as_a_kept_dataset_train_does():
    ds = inputs_dataset()
    bags = {name: getattr(ds, name) for name in (*_BAGS, "edges")}
    base = dataclasses.replace(_INPUTS_CONFIG, max_epochs=3)
    grids = {"alpha": [0.0, 0.5], "dropout": [0.0, 0.3]}
    rows, _ = grid_search(ds, grids, base)
    assert all(getattr(ds, name) is a for name, a in bags.items())
    for row, cell in zip(rows, grid_cells(grids, base)):
        result = train(cell, ds)
        assert {k: row[k] for k in ("best_epoch", "epochs_run", "test_accuracy",
                                    "test_macro_f1", "val_accuracy", "val_macro_f1")} \
            == held_out_metrics(result, ds)


def test_handed_over_train_peaks_below_a_kept_one_by_the_bags():
    # 400 bags of 300 ids against a 4000-row table: the run peaks in its
    # steps, where a kept dataset's bags are still alive and handed-over ones
    # are not; over seeds 0-9 the gap read 1.006-1.012 times the bags' bytes
    seed = 2
    cfg = TrainConfig(n_f=4, d_emb=32, d_hidden=8, max_epochs=2, seed=seed)

    def dataset():
        return generate_synthetic("homophily", 400, 4000, 3, 300, 0.01, 0.001, seed=seed)

    def peak(handed):
        tracemalloc.start()
        try:
            held = [dataset()]
            tracemalloc.reset_peak()
            train(cfg, held.pop() if handed else held[0])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ds = dataset()
    bag_bytes = sum(a.nbytes for a in (ds.bag_offsets, ds.bag_ids, ds.bag_weights)
                    if any(a.strides))  # a zero-stride view stores one value
    del ds
    assert peak(handed=False) - peak(handed=True) >= 0.98 * bag_bytes
