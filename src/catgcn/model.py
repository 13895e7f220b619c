"""Full-batch model: interaction representations, L-hop propagation, softmax head.

There is one forward pass, `taped_forward`: dropout masks, the interaction
forward that `interaction.forward_all_nodes` records, and propagation.
Training records it on parameters that require gradients; `model_forward`
runs it without dropout on the same parameters wrapped as constants, so the
tape records nothing. With dropout off the two therefore compute the same
numbers, and training scores validation from the logits of the next step's
taped forward instead of running `model_forward` after every update.

Since nothing is recorded, `model_forward` runs the per-node interaction stage
(gather to pooled rows) over cache-sized blocks of nodes, so its memory is set
by the (N, d) pooled rows rather than by (N, n_f, d) arrays; the bits are those
of one pass, as every op in that stage is row-independent. The projections,
fusion and propagation still run once on all N rows: a 2-D gemm's last bits
depend on how its rows are split, and propagation mixes nodes anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tape, Tensor, backward, softmax_rows
from .graph import CsrMatrix
from .interaction import forward_all_nodes
from .rng import DROPOUT, stream_rng

if TYPE_CHECKING:  # training imports this module
    from .training import TrainConfig


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

    def copy(self) -> "ModelParams":
        kw = {n: Tensor(t.data.copy(), requires_grad=True) if t is not None else None
              for n in self._ORDER for t in (getattr(self, n),)}
        return ModelParams(**kw)


@dataclass
class ModelOutput:
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


def _dropout_masks(config: TrainConfig, seed: int, epoch: int):
    """The `dropout(site, shape)` callable of `forward_all_nodes`, or None without dropout."""
    if config.dropout <= 0.0:
        return None
    sites = {"embedding": (0,), "projections": (1, 2), "both": (0, 1, 2)}[config.dropout_site]

    def masks(site: int, shape) -> Tensor | None:
        if site not in sites:
            return None
        return Tensor(dropout_mask(shape, config.dropout, seed, epoch, site_idx=site))

    return masks


def taped_forward(
    tape: Tape,
    params: ModelParams,
    sample,
    norm_adj: CsrMatrix,
    config: TrainConfig,
    dropout_seed: int = 0,
    epoch: int = 0,
    train: bool = True,
):
    """Record the forward pass on `tape`; returns the propagated logits tensor.

    Dropout applies only with `train`, its masks drawn from (dropout_seed, epoch).
    """
    dropout = _dropout_masks(config, dropout_seed, epoch) if train else None
    h = forward_all_nodes(params.embedding, params, config, sample, tape, dropout)
    return tape.sparse_propagate(norm_adj, h, config.hops)


def model_forward(params: ModelParams, sample, norm_adj: CsrMatrix,
                  config: TrainConfig) -> ModelOutput:
    """Evaluation forward: `taped_forward` without dropout on the parameter
    arrays wrapped as constant tensors, so the tape records nothing, keeps no
    intermediate alive, and the per-node stage runs in blocks of nodes."""
    constants = ModelParams(**{n: Tensor(t.data) for n, t in params.named_tensors().items()})
    y = taped_forward(Tape(), constants, sample, norm_adj, config, train=False).data
    return ModelOutput(y=y, probs=softmax_rows(y))


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


def predict(output: ModelOutput) -> np.ndarray:
    """Row argmax of the probabilities; ties resolve to the smallest class index."""
    return output.probs.argmax(axis=1).astype(np.int64)


def training_step(params, sample, norm_adj, config, labels, train_ids, eta,
                  dropout_seed: int = 0, epoch: int = 0):
    """One taped forward/backward; returns (loss value, gradient dict, logits).

    The logits are the taped forward's propagated output (N, C); with dropout
    off they are `model_forward(...).y`, the same forward on the same parameters.
    """
    tape = Tape()
    y = taped_forward(tape, params, sample, norm_adj, config,
                      dropout_seed=dropout_seed, epoch=epoch, train=True)
    lt = taped_loss(tape, y, labels, train_ids, eta, params)
    grads = backward(tape, lt)
    return lt.item(), grads, y.data
