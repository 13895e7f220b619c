"""Full-batch training: Xavier init, Adam, early stopping, metrics, grid search."""

from __future__ import annotations

import itertools
import multiprocessing
import numbers
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .autodiff import Tensor, masked_ce_mean
from .data import DataError, RawDataset, make_split, sample_features
from .graph import build_adjacency, normalize_sym
from .interaction import DROPOUT_SITES
from .model import ModelParams, model_forward, param_shapes, predict, training_step
from .rng import XAVIER, derive_cell_seed, stream_rng


# the values each annotated TrainConfig field type accepts; a bool only where annotated bool
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "bool": bool, "str": str}
_CHOICES = {
    "monitor": ("macro_f1", "accuracy", "loss"),
    "final_activation": ("identity", "relu"),
    "variant": ("catgcn", "meanpool"),
    "dropout_site": tuple(DROPOUT_SITES),
}


@dataclass(frozen=True)
class TrainConfig:
    """The one run config: optimization, model and interaction settings, all
    checked here when it is built."""

    learning_rate: float = 0.01
    eta: float = 0.0  # L2 penalty on all trainable tensors
    dropout: float = 0.0
    alpha: float = 0.5  # fusion weight on the global route, in [0, 1]
    rho: float = 1.0  # probe coefficient: self-row weight in the artificial propagation
    hops: int = 2
    n_f: int = 10  # feature sample size per node
    d_emb: int = 64
    d_hidden: int = 64
    max_epochs: int = 500
    patience: int = 10
    seed: int = 0
    monitor: str = "macro_f1"  # macro_f1 | accuracy | loss (validation)
    final_activation: str = "identity"  # activation on both fused projections
    dropout_site: str = "embedding"  # embedding | projections | both
    resample_per_epoch: bool = False
    variant: str = "catgcn"  # catgcn | meanpool (linear mean-of-embeddings baseline)
    deep_projection: bool = False  # optional hidden layer inside each projection

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), _FIELD_TYPES[f.type]
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
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
        for name in ("rho", "hops", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")


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
    val_logits: np.ndarray | None = None  # propagated logits of the returned parameters


class TrainingDiverged(RuntimeError):
    """Raised when the training loss goes non-finite."""

    def __init__(self, epoch: int, records: list):
        last = records[-1].epoch if records else 0
        super().__init__(f"non-finite loss at epoch {epoch}; last finite epoch was {last}")
        self.epoch = epoch
        self.records = records


def xavier_init(num_features: int, num_classes: int, config: TrainConfig) -> ModelParams:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases, fixed draw order.

    A weight's fan_in and fan_out are its rows and columns (the embedding
    table: num_features and d_emb); tensors draw in `ModelParams` order.
    A tensor too large to allocate (ids are table rows, so one huge feature
    or class id is enough) raises DataError.
    """
    rng = stream_rng(config.seed, XAVIER)

    def init(shape):
        if len(shape) == 1:
            return np.zeros(shape)
        limit = np.sqrt(6.0 / sum(shape))
        return rng.uniform(-limit, limit, size=shape)

    params = {}
    for name, shape in param_shapes(num_features, num_classes, config).items():
        try:
            params[name] = Tensor(init(shape), requires_grad=True)
        except (MemoryError, ValueError):
            # numpy raises MemoryError when the allocation fails and ValueError
            # when the byte count overflows; feature and class ids size the tensors
            raise DataError(
                f"cannot allocate the {' x '.join(map(str, shape))} {name} tensor: the data has"
                f" {num_features} features and {num_classes} classes, d_emb is {config.d_emb}"
            ) from None
    return ModelParams(**params)


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


def evaluate(logits: np.ndarray, labels: np.ndarray, ids: np.ndarray) -> tuple[float, float]:
    """(accuracy, macro-F1) of the predictions for nodes `ids` from the (N, C) logits.

    Only those rows are softmaxed; the softmax is row-wise, so each row's
    probabilities are the bits a softmax of all N rows gives.
    """
    ids = np.asarray(ids, dtype=np.int64)
    truth = np.asarray(labels, dtype=np.int64)[ids]
    return accuracy_macro_f1(predict(logits[ids]), truth, int(logits.shape[1]))


def split_scores(logits: np.ndarray, labels: np.ndarray, split) -> dict:
    """Accuracy and macro-F1 on the test and validation nodes of `split`."""
    test_acc, test_f1 = evaluate(logits, labels, split.test_ids)
    val_acc, val_f1 = evaluate(logits, labels, split.val_ids)
    return {
        "test_accuracy": test_acc,
        "test_macro_f1": test_f1,
        "val_accuracy": val_acc,
        "val_macro_f1": val_f1,
    }


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


def _monitor_value(config, logits, labels, val_ids, val_acc, val_f1) -> float:
    if config.monitor == "accuracy":
        return val_acc
    if config.monitor == "loss":
        return -masked_ce_mean(logits, labels, val_ids)
    return val_f1


def run_inputs(dataset: RawDataset, config: TrainConfig):
    """(normalized adjacency, split, base feature sample) of a run: what `train`
    trains and scores on and what `catgcn eval` scores a checkpoint on."""
    norm_adj, _ = normalize_sym(build_adjacency(dataset.edges, dataset.num_nodes))
    return (norm_adj, make_split(dataset, config.seed),
            sample_features(dataset, config.n_f, config.seed))


def train(config: TrainConfig, dataset: RawDataset, progress=None) -> TrainResult:
    """Full-batch training with early stopping on the validation monitor.

    Returns the parameters of the best validation epoch, never a later one.

    Validation scores the fixed base sample with the eval forward, the one
    `held_out_metrics` and `catgcn eval` score, so the selected epoch's metric
    is the reported one. The eval forward is the taped forward without
    dropout, so without dropout and without `resample_per_epoch` step t+1's
    taped forward is the eval forward on the parameters epoch t's update
    left: epoch t is scored from its logits, and the only `model_forward`
    scores the last epoch. An early stop at epoch t therefore runs step
    t+1 for its forward alone. With dropout or resampling the training step's
    forward applies masks or another sample, and every epoch runs its own
    `model_forward` after its update.
    """
    norm_adj, split, sample = run_inputs(dataset, config)
    params = xavier_init(dataset.num_features, dataset.num_classes, config)
    state = init_adam(params)
    labels = dataset.labels
    reuse_taped = config.dropout == 0.0 and not config.resample_per_epoch

    stopper = EarlyStopper(config.patience)
    records: list[EpochRecord] = []
    best_params = params.copy()
    best_logits = None

    def close_epoch(epoch, loss_value, spent, scoring_start, logits) -> bool:
        """Record `epoch` scored from the logits of its updated parameters; True stops.

        `spent` is the epoch's step and update time; scoring counts from
        `scoring_start`, so the record never includes another epoch's step.
        """
        nonlocal best_params, best_logits
        val_acc, val_f1 = evaluate(logits, labels, split.val_ids)
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_value,
                val_accuracy=val_acc,
                val_macro_f1=val_f1,
                wall_time_s=spent + time.monotonic() - scoring_start,
            )
        )
        if progress is not None:
            progress(records[-1])
        if stopper.update(_monitor_value(config, logits, labels, split.val_ids, val_acc, val_f1),
                          epoch):
            best_params, best_logits = params.copy(), logits
        return stopper.should_stop(epoch)

    pending = None  # (epoch, train loss, step and update seconds) awaiting validation
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.monotonic()
        epoch_sample = sample
        if config.resample_per_epoch and epoch > 1:
            epoch_sample = sample_features(
                dataset, config.n_f, derive_cell_seed(config.seed, epoch)
            )
        loss_value, grads, logits = training_step(
            params, epoch_sample, norm_adj, config, labels, split.train_ids, epoch=epoch
        )
        # close the previous epoch first: if it stops training, this step ran
        # only for its forward, and its loss must not count as a divergence
        if pending is not None and close_epoch(*pending, time.monotonic(), logits):
            break
        if not np.isfinite(loss_value):
            raise TrainingDiverged(epoch, records)
        adam_step(params, grads, state, config.learning_rate)
        pending = (epoch, loss_value, time.monotonic() - t0)
        # reusing taped logits, the next step scores this update; the last
        # update has no next step
        if not reuse_taped or epoch == config.max_epochs:
            scoring_start = time.monotonic()
            logits = model_forward(params, sample, norm_adj, config)
            if close_epoch(*pending, scoring_start, logits):
                break
            pending = None

    return TrainResult(
        params=best_params,
        records=records,
        best_epoch=stopper.best_epoch,
        best_val_metric=float(stopper.best),
        config=config,
        split=split,
        sample=sample,
        norm_adj=norm_adj,
        val_logits=best_logits,
    )


def held_out_metrics(result: TrainResult, dataset: RawDataset) -> dict:
    """`split_scores` of the returned parameters, plus `best_epoch` and `epochs_run`.

    Scores the selected epoch's validation logits that `train` kept, which
    are `model_forward`'s logits for the returned parameters; a result without
    them (built by hand, or a run whose monitor was never finite) runs that
    forward here.
    """
    logits = result.val_logits
    if logits is None:
        logits = model_forward(result.params, result.sample, result.norm_adj, result.config)
    return {
        **split_scores(logits, dataset.labels, result.split),
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
    empty = [a for a in axes if len(grids[a]) == 0]
    if empty:
        raise ValueError(f"grid axes without values: {empty}")
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
    deterministically seeded. At most `jobs` worker processes run, and no more
    than there are cells; one runs every cell in this process.
    """
    tasks = list(enumerate(grid_cells(grids, base)))
    workers = min(jobs, len(tasks))
    if workers <= 1:
        _grid_init(dataset)
        results = [_grid_worker(t) for t in tasks]
    else:
        with multiprocessing.Pool(workers, initializer=_grid_init, initargs=(dataset,)) as pool:
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
