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

No node's pooled rows depend on another node's, so when the tape records
nothing (evaluation) the per-node stage, from the gather to the pooled
(N, d) rows of each route, runs over contiguous blocks of nodes sized so that
one (rows, n_f, d) float64 array fits in `NODE_BLOCK_BYTES`. The full
(N, n_f, d) arrays a single pass would allocate are then never built, and the
bits do not change: every per-node op is row-independent, and numpy runs the
3-D (rows, n_f, d) @ (d, d_hidden) product as one gemm per node. The
projections run once on all N rows: a 2-D (N, d) @ (d, C) gemm is not
row-block invariant under OpenBLAS (its last bits depend on how the rows are
split). Training records one block of all N, so its tape is unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # autodiff and training (through model) import this module
    from .autodiff import Tape, Tensor
    from .training import TrainConfig


def local_biinteraction(e: np.ndarray, row_sum: np.ndarray | None = None) -> np.ndarray:
    """Sum of elementwise products over all distinct row pairs, in linear time.

    Equals 0.5 * ((sum_i e_i)^2 - sum_i e_i^2); a single row yields zero.
    `row_sum` is `e.sum(axis=-2)` when a caller has already computed it.
    """
    s = e.sum(axis=-2) if row_sum is None else row_sum
    sq = (e * e).sum(axis=-2)
    return 0.5 * (s * s - sq)


def artificial_propagate(e: np.ndarray, rho: float) -> np.ndarray:
    """Row i becomes (sum_j e_j + rho * e_i) / (n_f + rho): the probe-weighted mixing
    operator applied without materializing its (n_f x n_f) matrix. The result is
    built in one buffer: rho * e, then the row sum added, then the division."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    n = e.shape[-2]
    out = np.multiply(e, rho)
    out += e.sum(axis=-2, keepdims=True)
    out /= n + rho
    return out


# byte budget of one (rows, n_f, d) float64 array of the blocked per-node stage;
# at 100k nodes, n_f=10, d=32 (2-vCPU host) the forward took 0.80-0.82 s for
# budgets from 256 KiB to 4 MiB, 1.6 s at 16 KiB, 0.95 s at 16 MiB, 1.7 s unblocked
NODE_BLOCK_BYTES = 1 << 20


def _taped_project(tape: Tape, h, w, b, w_hidden, b_hidden, activation: str):
    if w_hidden is not None:
        h = tape.relu(tape.add_bias(tape.matmul(h, w_hidden), b_hidden))
    out = tape.add_bias(tape.matmul(h, w), b)
    return tape.relu(out) if activation == "relu" else out


def forward_all_nodes(table: Tensor, params, config: TrainConfig, sample, tape: Tape,
                      dropout) -> Tensor:
    """Record the initial representations H (N x C) of every node on `tape`.

    `table` is the embedding table; `params` holds the projection tensors
    (w_conv, w_g, b_g, w_l, b_l and, with deep_projection, the hidden pairs);
    of the run `config` it reads variant, alpha, rho and final_activation.
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

    When the per-node stage records nothing (neither `table` nor w_conv needs
    a gradient and `dropout` is None), it runs over blocks of nodes and the
    projections read its pooled rows as constants; see the module docstring.
    """

    def drop(x, site):
        mask = dropout(site, x.shape) if dropout is not None else None
        return x if mask is None else tape.elementwise_mul(x, mask)

    def embed(rows):
        e = tape.gather_rows(table, sample.ids[rows])
        return drop(tape.scale_rows(e, sample.weights[rows]), 0)

    meanpool = config.variant == "meanpool"
    alpha = 0.0 if meanpool else config.alpha
    widths = {}  # pooled width of each live route
    if alpha > 0.0:
        widths["global"] = params.w_conv.shape[1]
    if alpha < 1.0:
        widths["local"] = table.shape[1]

    def pool(e, route):
        """The route's per-node stage on embedded rows e, one pooled row per node."""
        if route == "local":
            return tape.mean_rows(e) if meanpool else tape.biinteraction(e)
        # one expression, so that the (rows, n_f, d_hidden) relu output, which
        # no record keeps, is freed before the local route runs
        return tape.mean_rows(tape.relu(tape.matmul(tape.artificial_prop(e, config.rho),
                                                    params.w_conv)))

    stage_inputs = [table, params.w_conv] if "global" in widths else [table]
    if dropout is None and not any(t.needs_grad for t in stage_inputs):
        n, n_f = sample.ids.shape
        step = max(1, NODE_BLOCK_BYTES // (8 * n_f * max(widths.values())))
        out = {r: np.empty((n, w)) for r, w in widths.items()}
        for lo in range(0, n, step):
            e = embed(slice(lo, lo + step))
            for r, rows in out.items():
                rows[lo:lo + step] = pool(e, r).data

        from .autodiff import Tensor  # autodiff imports this module

        def pooled(route):
            return Tensor(out[route])
    else:
        e = embed(slice(None))

        def pooled(route):
            return pool(e, route)

    act = config.final_activation
    if alpha > 0.0:
        h_g = _taped_project(tape, drop(pooled("global"), 2), params.w_g, params.b_g,
                             params.w_g_hidden, params.b_g_hidden, act)
        if alpha == 1.0:
            return h_g
    h_l = _taped_project(tape, drop(pooled("local"), 1), params.w_l, params.b_l,
                         params.w_l_hidden, params.b_l_hidden, act)
    if alpha == 0.0:
        return h_l
    return tape.add(tape.scale(h_g, alpha), tape.scale(h_l, 1.0 - alpha))
