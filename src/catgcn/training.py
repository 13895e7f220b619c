"""Full-batch training: Xavier init, Adam, early stopping, metrics, grid search."""

from __future__ import annotations

import itertools
import multiprocessing
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import Tensor, masked_ce_mean
from .data import RawDataset, make_split, sample_features
from .graph import build_adjacency, normalize_sym
from .interaction import InteractionConfig
from .model import (
    ModelConfig,
    ModelOutput,
    ModelParams,
    model_forward,
    predict,
    training_step,
)
from .rng import XAVIER, derive_cell_seed, stream_rng


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    eta: float = 0.0  # L2 penalty on all trainable tensors
    dropout: float = 0.0
    alpha: float = 0.5  # fusion weight on the global route
    rho: float = 1.0  # probe coefficient
    hops: int = 2
    n_f: int = 10
    d_emb: int = 64
    d_hidden: int = 64
    max_epochs: int = 500
    patience: int = 10
    seed: int = 0
    monitor: str = "macro_f1"  # macro_f1 | accuracy | loss (validation)
    final_activation: str = "identity"
    dropout_site: str = "embedding"
    resample_per_epoch: bool = False
    variant: str = "catgcn"
    deep_projection: bool = False

    def __post_init__(self):
        for name in ("learning_rate", "eta", "dropout", "alpha", "rho"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("n_f", "d_emb", "d_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate < 0 or self.eta < 0:
            raise ValueError("learning_rate and eta must be >= 0")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")
        if self.monitor not in ("macro_f1", "accuracy", "loss"):
            raise ValueError(f"unknown monitor {self.monitor!r}")

    def to_model_config(self) -> ModelConfig:
        return ModelConfig(
            interaction=InteractionConfig(
                rho=self.rho,
                alpha=self.alpha,
                n_f=self.n_f,
                d_hidden=self.d_hidden,
                final_activation=self.final_activation,
                variant=self.variant,
                deep_projection=self.deep_projection,
            ),
            hops=self.hops,
            dropout=self.dropout,
            dropout_site=self.dropout_site,
        )


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_macro_f1: float
    wall_time_s: float


@dataclass
class TrainResult:
    params: ModelParams
    records: list
    best_epoch: int
    best_val_metric: float
    config: TrainConfig
    split: object
    sample: object
    norm_adj: object


class TrainingDiverged(RuntimeError):
    """Raised when the training loss goes non-finite."""

    def __init__(self, epoch: int, records: list):
        last = records[-1].epoch if records else 0
        super().__init__(f"non-finite loss at epoch {epoch}; last finite epoch was {last}")
        self.epoch = epoch
        self.records = records


def xavier_init(num_features: int, num_classes: int, config: TrainConfig) -> ModelParams:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases, fixed draw order.

    The embedding table counts fan_in=num_features, fan_out=d_emb.
    """
    rng = stream_rng(config.seed, XAVIER)

    def draw(fan_in, fan_out, shape=None):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return Tensor(rng.uniform(-limit, limit, size=shape or (fan_in, fan_out)),
                      requires_grad=True)

    def zeros(n):
        return Tensor(np.zeros(n), requires_grad=True)

    d_proj_l = config.d_hidden if config.deep_projection else config.d_emb
    d_proj_g = config.d_hidden
    params = ModelParams(
        embedding=draw(num_features, config.d_emb),
        w_conv=draw(config.d_emb, config.d_hidden),
        w_g=draw(d_proj_g, num_classes),
        b_g=zeros(num_classes),
        w_l=draw(d_proj_l, num_classes),
        b_l=zeros(num_classes),
    )
    if config.deep_projection:
        params.w_g_hidden = draw(config.d_hidden, config.d_hidden)
        params.b_g_hidden = zeros(config.d_hidden)
        params.w_l_hidden = draw(config.d_emb, config.d_hidden)
        params.b_l_hidden = zeros(config.d_hidden)
    return params


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params: ModelParams) -> AdamState:
    named = params.named_tensors()
    return AdamState(
        m={n: np.zeros_like(t.data) for n, t in named.items()},
        v={n: np.zeros_like(t.data) for n, t in named.items()},
    )


def adam_step(params: ModelParams, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update in place. Tensors missing from `grads`
    (dead routes) are treated as zero-gradient: moments decay, momentum may
    still move them."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, tensor in params.named_tensors().items():
        g = grads.get(tensor)
        if g is None:
            g = np.zeros_like(tensor.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        if lr == 0.0:
            continue  # moments updated, parameters bit-for-bit unchanged
        tensor.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def accuracy_macro_f1(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> tuple[float, float]:
    """Accuracy and macro-F1 from integer label vectors.

    Per class, F1 = 2*TP / (2*TP + FP + FN), defined as 0 when the denominator
    is 0 (covers zero-support and zero-prediction classes).
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    conf = np.bincount(truth * num_classes + pred, minlength=num_classes * num_classes)
    conf = conf.reshape(num_classes, num_classes)
    tp = np.diag(conf)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp
    denom = 2 * tp + fp + fn
    f1 = np.zeros(num_classes)
    nz = denom > 0
    f1[nz] = 2.0 * tp[nz] / denom[nz]
    return float((pred == truth).mean()), float(np.mean(f1))


def evaluate(output: ModelOutput, labels: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """(accuracy, macro-F1) of the argmax predictions over the masked nodes."""
    mask = np.asarray(mask, dtype=np.int64)
    pred = predict(output)[mask]
    truth = np.asarray(labels, dtype=np.int64)[mask]
    return accuracy_macro_f1(pred, truth, int(output.probs.shape[1]))


class EarlyStopper:
    """Best-so-far tracking with patience; higher metric is better, ties keep the earlier epoch."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = 0

    def update(self, metric: float, epoch: int) -> bool:
        if metric > self.best:
            self.best = metric
            self.best_epoch = epoch
            return True
        return False

    def should_stop(self, epoch: int) -> bool:
        return epoch - self.best_epoch >= self.patience


def _monitor_value(config, output, labels, val_ids, val_acc, val_f1) -> float:
    if config.monitor == "accuracy":
        return val_acc
    if config.monitor == "loss":
        return -masked_ce_mean(output.y, labels, val_ids)
    return val_f1


def train(config: TrainConfig, dataset: RawDataset, progress=None) -> TrainResult:
    """Full-batch training with early stopping on the validation monitor.

    Returns the parameters of the best validation epoch, never a later one.
    """
    adj = build_adjacency(dataset.edges, dataset.num_nodes)
    norm_adj, _ = normalize_sym(adj)
    split = make_split(dataset, config.seed)
    sample = sample_features(dataset, config.n_f, config.seed)
    params = xavier_init(dataset.num_features, dataset.num_classes, config)
    state = init_adam(params)
    mcfg = config.to_model_config()
    labels = dataset.labels

    stopper = EarlyStopper(config.patience)
    records: list[EpochRecord] = []
    best_params = params.copy()
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.monotonic()
        epoch_sample = sample
        if config.resample_per_epoch and epoch > 1:
            epoch_sample = sample_features(
                dataset, config.n_f, derive_cell_seed(config.seed, epoch)
            )
        loss_value, grads = training_step(
            params, epoch_sample, norm_adj, mcfg, labels, split.train_ids,
            config.eta, dropout_seed=config.seed, epoch=epoch,
        )
        if not np.isfinite(loss_value):
            raise TrainingDiverged(epoch, records)
        adam_step(params, grads, state, config.learning_rate)

        # validation scores the fixed base sample, the one held_out_metrics and
        # `catgcn eval` score, so the selected epoch's metric is the reported one
        output = model_forward(params, sample, norm_adj, mcfg, mode="eval")
        val_acc, val_f1 = evaluate(output, labels, split.val_ids)
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_value,
                val_accuracy=val_acc,
                val_macro_f1=val_f1,
                wall_time_s=time.monotonic() - t0,
            )
        )
        if progress is not None:
            progress(records[-1])
        if stopper.update(_monitor_value(config, output, labels, split.val_ids, val_acc, val_f1),
                          epoch):
            best_params = params.copy()
        if stopper.should_stop(epoch):
            break

    return TrainResult(
        params=best_params,
        records=records,
        best_epoch=stopper.best_epoch,
        best_val_metric=float(stopper.best),
        config=config,
        split=split,
        sample=sample,
        norm_adj=norm_adj,
    )


def held_out_metrics(result: TrainResult, dataset: RawDataset) -> dict:
    """Accuracy and macro-F1 of the returned parameters on the held-out test split."""
    mcfg = result.config.to_model_config()
    output = model_forward(result.params, result.sample, result.norm_adj, mcfg, mode="eval")
    acc, f1 = evaluate(output, dataset.labels, result.split.test_ids)
    val_acc, val_f1 = evaluate(output, dataset.labels, result.split.val_ids)
    return {
        "test_accuracy": acc,
        "test_macro_f1": f1,
        "val_accuracy": val_acc,
        "val_macro_f1": val_f1,
        "best_epoch": result.best_epoch,
        "epochs_run": len(result.records),
    }


# --- grid search -----------------------------------------------------------

GRID_AXES = ("learning_rate", "eta", "dropout", "alpha", "rho", "hops")


def default_grids() -> dict:
    return {
        "learning_rate": [0.1, 0.01, 0.001],
        "eta": [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 0.0],
        "dropout": [i / 10 for i in range(10)],
        "alpha": [i / 10 for i in range(11)],
    }


def grid_cells(grids: dict, base: TrainConfig) -> list[TrainConfig]:
    """Cell configs in deterministic order: axes iterate in GRID_AXES order,
    later axes fastest; per-cell seeds derive from (base seed, cell index)."""
    axes = [a for a in GRID_AXES if a in grids]
    unknown = set(grids) - set(GRID_AXES)
    if unknown:
        raise ValueError(f"unknown grid axes: {sorted(unknown)}")
    cells = []
    for idx, combo in enumerate(itertools.product(*(grids[a] for a in axes))):
        cells.append(
            replace(base, **dict(zip(axes, combo)), seed=derive_cell_seed(base.seed, idx))
        )
    return cells


_GRID_DATASET: RawDataset | None = None


def _grid_init(dataset: RawDataset) -> None:
    global _GRID_DATASET
    _GRID_DATASET = dataset


def _grid_worker(task) -> dict:
    idx, config = task
    entry = {"cell": idx, "config": asdict(config)}
    try:
        result = train(config, _GRID_DATASET)
        entry.update(held_out_metrics(result, _GRID_DATASET))
        entry["best_val_macro_f1"] = _best_val_f1(result)
    except TrainingDiverged as exc:
        entry.update(failed=True, error=str(exc))
    return entry


def _best_val_f1(result: TrainResult) -> float:
    by_epoch = {r.epoch: r.val_macro_f1 for r in result.records}
    return by_epoch.get(result.best_epoch, 0.0)


def grid_search(dataset: RawDataset, grids: dict, base: TrainConfig, jobs: int = 1):
    """Train every grid cell; returns (results list, best index).

    Selection is by validation macro-F1, ties resolved to the earliest cell.
    Results are identical for any `jobs` because cells are independent and
    deterministically seeded.
    """
    cells = grid_cells(grids, base)
    tasks = list(enumerate(cells))
    if jobs <= 1:
        _grid_init(dataset)
        results = [_grid_worker(t) for t in tasks]
    else:
        with multiprocessing.Pool(jobs, initializer=_grid_init, initargs=(dataset,)) as pool:
            results = pool.map(_grid_worker, tasks)
    best_idx = None
    best_f1 = -1.0
    for r in results:
        if r.get("failed"):
            continue
        if r["best_val_macro_f1"] > best_f1:
            best_f1 = r["best_val_macro_f1"]
            best_idx = r["cell"]
    return results, best_idx
