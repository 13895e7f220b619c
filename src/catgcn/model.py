"""Full-batch model: interaction representations, L-hop propagation, softmax head.

There is one forward pass, `taped_forward`: dropout masks, the interaction
forward that `interaction.forward_all_nodes` records, and propagation.
Training records it on parameters that require gradients; `model_forward`
runs it without dropout on the same parameters wrapped as constants, so the
tape records nothing. With dropout off the two therefore compute the same
numbers, and training scores validation from the logits of the next step's
taped forward instead of running `model_forward` after every update.

Both run everything before propagation (the per-node interaction function,
from the embedding lookup to the fused (N, C) rows) over cache-sized blocks of
nodes, so memory is set by (N, C) arrays rather than by (N, n_f, d) or (N, d)
ones. Training's tape keeps only the fused rows; its backward recomputes each
block (see `interaction`). Train and eval run the same blocks, so their logits
are the same bits; the projections' 2-D gemms run per block, so loss, logits
and gradients differ from one pass over all nodes in their last bits.
Propagation runs once on all N rows, as it mixes nodes.
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


def param_shapes(num_features: int, num_classes: int, config: TrainConfig) -> dict:
    """The shape of every tensor of a model, by name in `ModelParams` order;
    the hidden pairs only with `deep_projection`. Init and checkpoint checks read it."""
    e, h, c = config.d_emb, config.d_hidden, num_classes
    shapes = {"embedding": (num_features, e), "w_conv": (e, h), "w_g": (h, c), "b_g": (c,),
              "w_l": (h if config.deep_projection else e, c), "b_l": (c,)}
    if config.deep_projection:
        shapes.update(w_g_hidden=(h, h), b_g_hidden=(h,), w_l_hidden=(e, h), b_l_hidden=(h,))
    return shapes


def dropout_mask(shape, rate: float, seed: int, epoch: int, site_idx: int = 0,
                 offset: int = 0) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate), expectation one.

    site_idx picks the stream: 0 embedding rows, 1 local projection input,
    2 global projection input. The mask holds the draws `offset` to
    `offset + prod(shape)` of that stream, so the block of a larger mask that
    starts at flat position `offset` is drawn without the rest of it: Philox
    makes four draws per counter step, so the generator advances `offset // 4`
    steps and discards `offset % 4` draws.
    """
    rng = stream_rng(seed, DROPOUT, substream=4 * epoch + site_idx)
    rng.bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def epoch_dropout(config: TrainConfig, epoch: int):
    """The `dropout(site, shape, offset)` callable of `forward_all_nodes` for
    training epoch `epoch`, its masks drawn from (config.seed, epoch); None
    without dropout."""
    if config.dropout <= 0.0:
        return None
    sites = {"embedding": (0,), "projections": (1, 2), "both": (0, 1, 2)}[config.dropout_site]

    def masks(site: int, shape, offset: int) -> Tensor | None:
        if site not in sites:
            return None
        return Tensor(dropout_mask(shape, config.dropout, config.seed, epoch, site, offset))

    return masks


def taped_forward(tape: Tape, params: ModelParams, sample, norm_adj: CsrMatrix,
                  config: TrainConfig, dropout=None) -> Tensor:
    """Record the forward pass on `tape`; returns the propagated logits tensor.

    `dropout` is the mask callable of `forward_all_nodes` (see `epoch_dropout`);
    None drops nothing.
    """
    h = forward_all_nodes(params.embedding, params, config, sample, tape, dropout)
    return tape.sparse_propagate(norm_adj, h, config.hops)


def model_forward(params: ModelParams, sample, norm_adj: CsrMatrix,
                  config: TrainConfig) -> np.ndarray:
    """Evaluation forward, returning the (N, C) propagated logits: `taped_forward`
    without dropout on the parameter arrays wrapped as constant tensors, so the
    tape records nothing and keeps no intermediate alive."""
    constants = ModelParams(**{n: Tensor(t.data) for n, t in params.named_tensors().items()})
    return taped_forward(Tape(), constants, sample, norm_adj, config).data


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


def predict(logits: np.ndarray) -> np.ndarray:
    """Row argmax of the row softmax of `logits`; ties, exact ones and those the
    softmax rounds into being, resolve to the smallest class index."""
    return softmax_rows(logits).argmax(axis=1).astype(np.int64)


def training_step(params, sample, norm_adj, config, labels, train_ids, epoch: int = 0):
    """One taped forward/backward of training epoch `epoch`; returns (loss
    value, gradient dict, logits). The L2 weight is `config.eta`, the dropout
    masks are drawn from (config.seed, epoch).

    The logits are the taped forward's propagated output (N, C); with dropout
    off they are `model_forward`'s, the same forward on the same parameters.
    """
    tape = Tape()
    y = taped_forward(tape, params, sample, norm_adj, config, epoch_dropout(config, epoch))
    lt = taped_loss(tape, y, labels, train_ids, config.eta, params)
    grads = backward(tape, lt)
    return lt.item(), grads, y.data
