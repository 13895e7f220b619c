"""The pure-numpy forward composition, kept verbatim as the reference for the taped one.

`catgcn.interaction.forward_all_nodes` records the initial representations on a
tape, and `catgcn.model.model_forward` runs that taped forward on constant
parameters. This is the numpy composition they replaced: embedding, the two
routes, the projections and late fusion, plus the dropout mirror and the
untaped loss. Tests require the taped forward to equal it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from catgcn.autodiff import artificial_propagate, local_biinteraction, masked_ce_mean
from catgcn.graph import propagate
from catgcn.interaction import dropout_mask


@dataclass
class InteractionParams:
    """Projection parameters; hidden pairs are present only with deep_projection."""

    w_conv: np.ndarray  # (d_emb, d_hidden) shared projection inside the global route
    w_g: np.ndarray  # (d_hidden, C)
    b_g: np.ndarray  # (C,)
    w_l: np.ndarray  # (d_emb, C)
    b_l: np.ndarray  # (C,)
    w_g_hidden: np.ndarray | None = None  # (d_hidden, d_hidden)
    b_g_hidden: np.ndarray | None = None
    w_l_hidden: np.ndarray | None = None  # (d_emb, d_hidden)
    b_l_hidden: np.ndarray | None = None


def interaction_view(params) -> InteractionParams:
    """The projection arrays of a `ModelParams`."""
    opt = {
        n: (t.data if (t := getattr(params, n)) is not None else None)
        for n in ("w_g_hidden", "b_g_hidden", "w_l_hidden", "b_l_hidden")
    }
    return InteractionParams(
        w_conv=params.w_conv.data, w_g=params.w_g.data, b_g=params.b_g.data,
        w_l=params.w_l.data, b_l=params.b_l.data, **opt,
    )


def global_interaction(e: np.ndarray, w_conv: np.ndarray, rho: float) -> np.ndarray:
    """Mean pooling of relu(artificial_propagate(e, rho) @ w_conv) over feature rows."""
    z = artificial_propagate(e, rho) @ w_conv
    return np.maximum(z, 0.0).mean(axis=-2)


def embed(table: np.ndarray, ids: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gather embedding rows for sampled feature ids and scale each by its weight."""
    return table[ids] * weights[..., None]


def _activate(x: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(x, 0.0) if kind == "relu" else x


def _project(h, w, b, w_hidden, b_hidden, activation):
    if w_hidden is not None:
        h = np.maximum(h @ w_hidden + b_hidden, 0.0)
    return _activate(h @ w + b, activation)


def fuse(h_l, h_g, params: InteractionParams, config) -> np.ndarray:
    """Late fusion: alpha * proj_g(h_g) + (1 - alpha) * proj_l(h_l).

    At the endpoints the dead route is skipped entirely, so alpha=0 equals the
    local projection exactly and alpha=1 the global one.
    """
    a = config.alpha
    if a > 0.0:
        hg = _project(h_g, params.w_g, params.b_g, params.w_g_hidden, params.b_g_hidden,
                      config.final_activation)
        if a == 1.0:
            return hg
    hl = _project(h_l, params.w_l, params.b_l, params.w_l_hidden, params.b_l_hidden,
                  config.final_activation)
    if a == 0.0:
        return hl
    return a * hg + (1.0 - a) * hl


def forward_all_nodes(table: np.ndarray, params: InteractionParams, config, sample) -> np.ndarray:
    """Initial representations H (N x C) for every node from its feature sample."""
    e = embed(table, sample.ids, sample.weights)
    if config.variant == "meanpool":
        return _project(
            e.mean(axis=-2), params.w_l, params.b_l, params.w_l_hidden, params.b_l_hidden,
            config.final_activation,
        )
    h_l = local_biinteraction(e)
    h_g = global_interaction(e, params.w_conv, config.rho) if config.alpha > 0.0 else None
    return fuse(h_l, h_g, params, config)


def model_forward(params, sample, norm_adj, config, mode: str = "eval",
                  epoch: int = 0) -> np.ndarray:
    """Pure-numpy forward, returning the propagated logits. Train mode applies
    dropout, its masks drawn from (config.seed, epoch); eval never does."""
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "train" and config.dropout > 0.0:
        table = params.embedding.data
        e = table[sample.ids] * sample.weights[..., None]
        masks = _masks_for(e.shape, config, config.seed, epoch)
        if masks["embedding"] is not None:
            e = e * masks["embedding"]
        h = _fused_h_numpy(e, interaction_view(params), config, masks)
    else:
        h = forward_all_nodes(params.embedding.data, interaction_view(params), config, sample)
    return propagate(norm_adj, h, config.hops)


def _masks_for(e_shape, config, seed: int, epoch: int) -> dict:
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


def _fused_h_numpy(e, iparams, config, masks):
    """Numpy mirror of the taped route composition with dropout masks applied."""
    if config.variant == "meanpool":
        h_l = e.mean(axis=-2)
        if masks["proj"] is not None:
            h_l = h_l * _proj_mask(masks, h_l.shape, 0)
        return fuse(h_l, None, iparams, replace(config, alpha=0.0))
    h_l = local_biinteraction(e)
    if masks["proj"] is not None:
        h_l = h_l * _proj_mask(masks, h_l.shape, 0)
    h_g = None
    if config.alpha > 0.0:
        h_g = global_interaction(e, iparams.w_conv, config.rho)
        if masks["proj"] is not None:
            h_g = h_g * _proj_mask(masks, h_g.shape, 1)
    return fuse(h_l, h_g, iparams, config)


def loss(logits: np.ndarray, labels, mask, eta: float, params) -> float:
    """Reporting-path loss on eval logits; matches the taped value."""
    value = masked_ce_mean(logits, np.asarray(labels, dtype=np.int64), mask)
    if eta != 0.0:
        reg = 0.0
        for t in params.named_tensors().values():
            reg = reg + (t.data * t.data).sum()
        value = value + eta * reg
    return float(value)
