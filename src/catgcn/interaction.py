"""Initial node representations from categorical features.

Two routes over a node's embedded feature rows E (n_f x d_emb): a local
bilinear pooling of all feature pairs, and a global route that mixes every row
with the set mean through a probe-weighted operator before a shared projection.
Late fusion combines the two per-route projections.

`forward_all_nodes` is the one definition of these representations. It records
the whole composition on a tape with the primitives of `autodiff`; training
passes parameters that require gradients, evaluation passes constants, and the
tape then records nothing. The kernel formulas below are pure numpy, broadcast
over leading batch axes and treat axis -2 as the feature-row axis; the tape
primitives and the oracles call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # autodiff imports the kernel formulas from this module
    from .autodiff import Tape, Tensor


@dataclass(frozen=True)
class InteractionConfig:
    rho: float  # probe coefficient: self-row weight in the artificial propagation
    alpha: float  # fusion weight on the global route, in [0, 1]
    n_f: int  # feature sample size per node
    d_hidden: int
    final_activation: str = "identity"  # activation on both fused projections
    variant: str = "catgcn"  # "catgcn" | "meanpool" (linear mean-of-embeddings baseline)
    deep_projection: bool = False  # optional hidden layer inside each projection

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.n_f < 1:
            raise ValueError(f"n_f must be >= 1, got {self.n_f}")
        if self.d_hidden < 1:
            raise ValueError(f"d_hidden must be >= 1, got {self.d_hidden}")
        if self.final_activation not in ("identity", "relu"):
            raise ValueError(f"unknown final_activation {self.final_activation!r}")
        if self.variant not in ("catgcn", "meanpool"):
            raise ValueError(f"unknown variant {self.variant!r}")


def local_biinteraction(e: np.ndarray) -> np.ndarray:
    """Sum of elementwise products over all distinct row pairs, in linear time.

    Equals 0.5 * ((sum_i e_i)^2 - sum_i e_i^2); a single row yields zero.
    """
    s = e.sum(axis=-2)
    sq = (e * e).sum(axis=-2)
    return 0.5 * (s * s - sq)


def artificial_propagate(e: np.ndarray, rho: float) -> np.ndarray:
    """Row i becomes (sum_j e_j + rho * e_i) / (n_f + rho): the probe-weighted mixing
    operator applied without materializing its (n_f x n_f) matrix."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    n = e.shape[-2]
    return (e.sum(axis=-2, keepdims=True) + rho * e) / (n + rho)


def global_interaction(e: np.ndarray, w_conv: np.ndarray, rho: float) -> np.ndarray:
    """Mean pooling of relu(artificial_propagate(e, rho) @ w_conv) over feature rows."""
    z = artificial_propagate(e, rho) @ w_conv
    return np.maximum(z, 0.0).mean(axis=-2)


def _taped_project(tape: Tape, h, w, b, w_hidden, b_hidden, activation: str):
    if w_hidden is not None:
        h = tape.relu(tape.add_bias(tape.matmul(h, w_hidden), b_hidden))
    out = tape.add_bias(tape.matmul(h, w), b)
    return tape.relu(out) if activation == "relu" else out


def forward_all_nodes(table: Tensor, params, config: InteractionConfig, sample, tape: Tape,
                      dropout) -> Tensor:
    """Record the initial representations H (N x C) of every node on `tape`.

    `table` is the embedding table; `params` holds the projection tensors
    (w_conv, w_g, b_g, w_l, b_l and, with deep_projection, the hidden pairs).
    The table and the sample stay the first and fourth arguments because the
    traced benchmark (`perfbench/child.py`) reads them there to count the
    gathered values.
    `dropout(site, shape)` returns the constant mask tensor for site 0 (the
    embedded rows), 1 (the local projection input) or 2 (the global
    projection input), or None where that site keeps everything; a `dropout`
    of None drops nothing.

    Late fusion is alpha * proj_g(h_g) + (1 - alpha) * proj_l(h_l). At the
    endpoints the dead route is skipped entirely, so alpha=0 equals the local
    projection exactly and alpha=1 the global one. The global route is
    recorded before the local one, which fixes the order in which backward
    accumulates the embedding gradient.
    """

    def drop(x, site):
        mask = dropout(site, x.shape) if dropout is not None else None
        return x if mask is None else tape.elementwise_mul(x, mask)

    act = config.final_activation
    e = drop(tape.scale_rows(tape.gather_rows(table, sample.ids), sample.weights), 0)
    if config.variant == "meanpool":
        h_l = drop(tape.mean_rows(e), 1)
        return _taped_project(tape, h_l, params.w_l, params.b_l, params.w_l_hidden,
                              params.b_l_hidden, act)
    alpha = config.alpha
    if alpha > 0.0:
        # one expression, so that without a tape record the (N, n_f, d_hidden)
        # relu output is freed before the local route runs
        h_g = tape.mean_rows(tape.relu(tape.matmul(tape.artificial_prop(e, config.rho),
                                                   params.w_conv)))
        h_g = _taped_project(tape, drop(h_g, 2), params.w_g, params.b_g, params.w_g_hidden,
                             params.b_g_hidden, act)
        if alpha == 1.0:
            return h_g
    h_l = _taped_project(tape, drop(tape.biinteraction(e), 1), params.w_l, params.b_l,
                         params.w_l_hidden, params.b_l_hidden, act)
    if alpha == 0.0:
        return h_l
    return tape.add(tape.scale(h_g, alpha), tape.scale(h_l, 1.0 - alpha))
