"""Full-batch model: interaction representations, L-hop propagation, softmax head.

Two forward paths share the same numpy formulas: a pure-numpy evaluation path
and a taped path for training. With dropout disabled they produce bit-identical
outputs; a test pins that. Training relies on it: without dropout or per-epoch
resampling it scores validation from the logits of the next step's taped
forward instead of running the evaluation path after every update.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tape, Tensor, backward, masked_ce_mean, softmax_rows
from .graph import CsrMatrix, propagate
from .interaction import InteractionConfig, InteractionParams, forward_all_nodes
from .rng import DROPOUT, stream_rng


@dataclass(frozen=True)
class ModelConfig:
    interaction: InteractionConfig
    hops: int = 2
    dropout: float = 0.0
    dropout_site: str = "embedding"  # embedding | projections | both

    def __post_init__(self):
        if self.hops < 0:
            raise ValueError(f"hops must be >= 0, got {self.hops}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.dropout_site not in ("embedding", "projections", "both"):
            raise ValueError(f"unknown dropout_site {self.dropout_site!r}")


@dataclass
class ModelParams:
    """All trainable tensors. Iteration order is fixed; init, Adam state,
    checkpoints, and regularization all follow it."""

    embedding: Tensor  # (d, d_emb)
    w_conv: Tensor
    w_g: Tensor
    b_g: Tensor
    w_l: Tensor
    b_l: Tensor
    w_g_hidden: Tensor | None = None
    b_g_hidden: Tensor | None = None
    w_l_hidden: Tensor | None = None
    b_l_hidden: Tensor | None = None

    _ORDER = (
        "embedding", "w_conv", "w_g", "b_g", "w_l", "b_l",
        "w_g_hidden", "b_g_hidden", "w_l_hidden", "b_l_hidden",
    )

    def named_tensors(self) -> dict:
        return {n: t for n in self._ORDER if (t := getattr(self, n)) is not None}

    def interaction_view(self) -> InteractionParams:
        opt = {
            n: (t.data if (t := getattr(self, n)) is not None else None)
            for n in ("w_g_hidden", "b_g_hidden", "w_l_hidden", "b_l_hidden")
        }
        return InteractionParams(
            w_conv=self.w_conv.data, w_g=self.w_g.data, b_g=self.b_g.data,
            w_l=self.w_l.data, b_l=self.b_l.data, **opt,
        )

    def copy(self) -> "ModelParams":
        kw = {n: Tensor(t.data.copy(), requires_grad=True) if t is not None else None
              for n in self._ORDER for t in (getattr(self, n),)}
        return ModelParams(**kw)


@dataclass
class ModelOutput:
    h: np.ndarray | None  # (N, C) initial representations; None when built from taped logits
    y: np.ndarray  # (N, C) after hops of propagation
    probs: np.ndarray  # (N, C) row softmax of y


def dropout_mask(shape, rate: float, seed: int, epoch: int, site_idx: int = 0) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate), expectation one.

    site_idx picks the stream: 0 embedding rows, 1 local projection input,
    2 global projection input.
    """
    rng = stream_rng(seed, DROPOUT, substream=4 * epoch + site_idx)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def model_forward(
    params: ModelParams,
    sample,
    norm_adj: CsrMatrix,
    config: ModelConfig,
    mode: str = "eval",
    dropout_seed: int = 0,
    epoch: int = 0,
) -> ModelOutput:
    """Pure-numpy forward. Train mode applies dropout; eval never does."""
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    icfg = config.interaction
    if mode == "train" and config.dropout > 0.0:
        table = params.embedding.data
        e = table[sample.ids] * sample.weights[..., None]
        masks = _masks_for(e.shape, config, dropout_seed, epoch)
        if masks["embedding"] is not None:
            e = e * masks["embedding"]
        h = _fused_h_numpy(e, params.interaction_view(), icfg, masks)
    else:
        h = forward_all_nodes(params.embedding.data, params.interaction_view(), icfg, sample)
    y = propagate(norm_adj, h, config.hops)
    return ModelOutput(h=h, y=y, probs=softmax_rows(y))


def _masks_for(e_shape, config: ModelConfig, seed: int, epoch: int) -> dict:
    site = config.dropout_site
    masks = {"embedding": None, "proj": None}
    if config.dropout <= 0.0:
        return masks
    if site in ("embedding", "both"):
        masks["embedding"] = dropout_mask(e_shape, config.dropout, seed, epoch, site_idx=0)
    if site in ("projections", "both"):
        masks["proj"] = (config.dropout, seed, epoch)  # realized lazily per route
    return masks


def _proj_mask(masks, shape, which: int):
    """Projection-input mask for the local (0) or global (1) route."""
    if masks["proj"] is None:
        return None
    rate, seed, epoch = masks["proj"]
    return dropout_mask(shape, rate, seed, epoch, site_idx=1 + which)


def _fused_h_numpy(e, iparams, icfg, masks):
    """Numpy mirror of the taped route composition, for dropout-enabled eval parity tests."""
    from .interaction import fuse, global_interaction, local_biinteraction

    if icfg.variant == "meanpool":
        h_l = e.mean(axis=-2)
        if masks["proj"] is not None:
            h_l = h_l * _proj_mask(masks, h_l.shape, 0)
        return fuse(h_l, None, iparams, replace(icfg, alpha=0.0))
    h_l = local_biinteraction(e)
    if masks["proj"] is not None:
        h_l = h_l * _proj_mask(masks, h_l.shape, 0)
    h_g = None
    if icfg.alpha > 0.0:
        h_g = global_interaction(e, iparams.w_conv, icfg.rho)
        if masks["proj"] is not None:
            h_g = h_g * _proj_mask(masks, h_g.shape, 1)
    return fuse(h_l, h_g, iparams, icfg)


def _taped_project(tape, h, w, b, w_hidden, b_hidden, activation):
    if w_hidden is not None:
        h = tape.relu(tape.add_bias(tape.matmul(h, w_hidden), b_hidden))
    out = tape.add_bias(tape.matmul(h, w), b)
    return tape.relu(out) if activation == "relu" else out


def taped_forward(
    tape: Tape,
    params: ModelParams,
    sample,
    norm_adj: CsrMatrix,
    config: ModelConfig,
    dropout_seed: int = 0,
    epoch: int = 0,
    train: bool = True,
):
    """Record the forward pass on `tape`; returns the propagated logits tensor."""
    icfg = config.interaction
    e = tape.gather_rows(params.embedding, sample.ids)
    e = tape.scale_rows(e, sample.weights)
    masks = _masks_for(e.shape, config, dropout_seed, epoch) if train else {
        "embedding": None, "proj": None,
    }
    if masks["embedding"] is not None:
        e = tape.elementwise_mul(e, Tensor(masks["embedding"]))

    if icfg.variant == "meanpool":
        h_l = tape.mean_rows(e)
        if masks["proj"] is not None:
            h_l = tape.elementwise_mul(h_l, Tensor(_proj_mask(masks, h_l.shape, 0)))
        h = _taped_project(tape, h_l, params.w_l, params.b_l,
                           params.w_l_hidden, params.b_l_hidden, icfg.final_activation)
    else:
        alpha = icfg.alpha
        h_g_proj = None
        if alpha > 0.0:
            z = tape.relu(tape.matmul(tape.artificial_prop(e, icfg.rho), params.w_conv))
            h_g = tape.mean_rows(z)
            if masks["proj"] is not None:
                h_g = tape.elementwise_mul(h_g, Tensor(_proj_mask(masks, h_g.shape, 1)))
            h_g_proj = _taped_project(tape, h_g, params.w_g, params.b_g,
                                      params.w_g_hidden, params.b_g_hidden, icfg.final_activation)
        if alpha == 1.0:
            h = h_g_proj
        else:
            h_l = tape.biinteraction(e)
            if masks["proj"] is not None:
                h_l = tape.elementwise_mul(h_l, Tensor(_proj_mask(masks, h_l.shape, 0)))
            h_l_proj = _taped_project(tape, h_l, params.w_l, params.b_l,
                                      params.w_l_hidden, params.b_l_hidden, icfg.final_activation)
            if alpha == 0.0:
                h = h_l_proj
            else:
                h = tape.add(tape.scale(h_g_proj, alpha), tape.scale(h_l_proj, 1.0 - alpha))
    return tape.sparse_propagate(norm_adj, h, config.hops)


def taped_loss(tape: Tape, y: Tensor, labels, mask, eta: float, params: ModelParams) -> Tensor:
    """Mean masked CE plus eta times the summed squared Frobenius norms of all
    trainable tensors (embedding table included)."""
    loss = tape.softmax_cross_entropy(y, labels, mask)
    if eta != 0.0:
        reg = None
        for t in params.named_tensors().values():
            sq = tape.total_sum(tape.elementwise_square(t))
            reg = sq if reg is None else tape.add(reg, sq)
        loss = tape.add(loss, tape.scale(reg, eta))
    return loss


def loss(output: ModelOutput, labels, mask, eta: float, params: ModelParams) -> float:
    """Reporting-path loss on an eval output; matches the taped value."""
    value = masked_ce_mean(output.y, np.asarray(labels, dtype=np.int64), mask)
    if eta != 0.0:
        reg = 0.0
        for t in params.named_tensors().values():
            reg = reg + (t.data * t.data).sum()
        value = value + eta * reg
    return float(value)


def predict(output: ModelOutput) -> np.ndarray:
    """Row argmax of the probabilities; ties resolve to the smallest class index."""
    return output.probs.argmax(axis=1).astype(np.int64)


def training_step(params, sample, norm_adj, config, labels, train_ids, eta,
                  dropout_seed: int = 0, epoch: int = 0):
    """One taped forward/backward; returns (loss value, gradient dict, logits).

    The logits are the taped forward's propagated output (N, C); with dropout
    off they equal `model_forward(..., mode="eval").y` bit for bit.
    """
    tape = Tape()
    y = taped_forward(tape, params, sample, norm_adj, config,
                      dropout_seed=dropout_seed, epoch=epoch, train=True)
    lt = taped_loss(tape, y, labels, train_ids, eta, params)
    grads = backward(tape, lt)
    return lt.item(), grads, y.data
