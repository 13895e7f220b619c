"""Initial node representations from categorical features.

Two routes over a node's embedded feature rows E (n_f x d_emb): a local
bilinear pooling of all feature pairs, and a global route that mixes every row
with the set mean through a probe-weighted operator before a shared projection.
Late fusion combines the two per-route projections.

`forward_all_nodes` is the one definition of these representations, for
training and evaluation alike. It records the composition on a tape with the
primitives of `autodiff`; training passes parameters that require gradients,
evaluation passes constants, and the tape then records nothing. The kernel
formulas below are pure numpy, broadcast over leading batch axes and treat
axis -2 as the feature-row axis; the tape primitives and the oracles call them.

No node's pooled rows depend on another node's, so the per-node stage, from
the gather through the row weights, dropout site 0 and a route's `pool` to
its pooled (N, d) rows, runs over contiguous blocks of nodes sized so that one
(rows, n_f, d) float64 array fits in `NODE_BLOCK_BYTES`. The full
(N, n_f, d) arrays a single pass would allocate are never built, and the bits
do not change: every per-node op is row-independent, and numpy runs the 3-D
(rows, n_f, d) @ (d, d_hidden) product as one gemm per node. The projections
run once on all N rows: a 2-D (N, d) @ (d, C) gemm is not row-block invariant
under OpenBLAS (its last bits depend on how the rows are split). The forward
therefore fills each live route's pooled rows in a pass over the blocks of its
own, right before that route's projection reads them, so evaluation, which
keeps nothing, holds one route's (N, d) rows at a time; the price is a second
gather per block when both routes are live.

Training keeps only the pooled rows (block-level activation checkpointing,
Chen et al. 2016, arXiv:1604.06174). The forward runs each block on constants,
so nothing of the per-node stage is recorded, and the run's tape gets one
record with one output per live route. Its backward rule walks the blocks in
order: it recomputes the block's stage for both routes from one gather, which
share its row sum, on a block-local `Tape`, replays that tape from the
block's slices of the routes' pooled-row gradients (`autodiff.replay`, whose
scalar case is `backward`), and adds the block's table and w_conv gradients
in block order. When the table has more rows than the block has feature ids,
the block tape gathers from only the rows its nodes use, so no block's
scatter is larger than the block. The run's tape therefore never holds an
(N, n_f, d) array; the price is one more pass of the per-node forward in the
backward, and table and w_conv gradients that are sums over blocks, so their
last bits depend on the block size. Loss, logits and the projection
gradients do not.
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


def artificial_propagate(e: np.ndarray, rho: float,
                         row_sum: np.ndarray | None = None) -> np.ndarray:
    """Row i becomes (sum_j e_j + rho * e_i) / (n_f + rho): the probe-weighted mixing
    operator applied without materializing its (n_f x n_f) matrix. The result is
    built in one buffer: rho * e, then the row sum added, then the division.
    `row_sum` is `e.sum(axis=-2)` when a caller has already computed it."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    n = e.shape[-2]
    out = np.multiply(e, rho)
    out += (e.sum(axis=-2) if row_sum is None else row_sum)[..., None, :]
    out /= n + rho
    return out


# byte budget of one (rows, n_f, d) float64 array of the blocked per-node stage;
# at 100k nodes, n_f=10, d=32 (2-vCPU host) the forward took 0.80-0.82 s for
# budgets from 256 KiB to 4 MiB, 1.6 s at 16 KiB, 0.95 s at 16 MiB, 1.7 s unblocked;
# medians of a training step over 3 rounds, at 256 KiB / 1 MiB / 4 MiB: 5k nodes,
# n_f=50, d=64: 644-715 / 634-772 / 864-1157 ms; 10k nodes, n_f=10, d=32:
# 138-163 / 120-150 / 225-271 ms
NODE_BLOCK_BYTES = 1 << 20


def _taped_project(tape: Tape, h, w, b, w_hidden, b_hidden, activation: str):
    if w_hidden is not None:
        h = tape.relu(tape.add_bias(tape.matmul(h, w_hidden), b_hidden))
    out = tape.add_bias(tape.matmul(h, w), b)
    return tape.relu(out) if activation == "relu" else out


def pool(tape: Tape, e: Tensor, route: str, w_conv, config: TrainConfig,
         row_sum: np.ndarray | None = None) -> Tensor:
    """The route's per-node stage on embedded rows e, one pooled row per node.
    `row_sum` is `e.data.sum(axis=-2)` when the caller shares it between routes."""
    if route == "local":
        if config.variant == "meanpool":
            return tape.mean_rows(e)
        return tape.biinteraction(e, row_sum)
    # one expression: the (rows, n_f, d_hidden) relu output, which no record
    # keeps, is freed as soon as it is pooled
    return tape.mean_rows(tape.relu(tape.matmul(tape.artificial_prop(e, config.rho, row_sum),
                                                w_conv)))


def _pooled_rows(tape: Tape, widths: dict, table: Tensor, w_conv, sample, blocks,
                 config: TrainConfig, dropout) -> tuple:
    """Each live route's pooled (N, d) rows, in the order of `widths` (route to
    pooled width), as the outputs of one record on `tape`, and `fill(out,
    route)`, which computes a route's rows into its output.

    The record goes on the tape before the projections that read its outputs,
    so that the replay reaches it after them, but its outputs get their rows
    only when filled: the forward fills each one just before the route's
    projection reads it, so evaluation, whose tape keeps no output, holds one
    route's rows at a time. `fill` computes the rows block by block on
    constants, so nothing of the per-node stage is recorded. The record's
    inputs are (w_conv, table) with the global route live and (table,)
    otherwise; its backward rule recomputes both routes' stage block by
    block; see the module docstring.
    """
    from .autodiff import Tape, Tensor, replay  # autodiff imports this module

    def stage(block_tape, table, w_conv, rows, ids, routes):
        """The pooled rows of each of `routes` for the nodes in `rows`, whose
        feature ids `ids` index `table`: the gather, the row weights, dropout
        site 0 and the routes' `pool` on the one gathered block, recorded on
        `block_tape`."""
        e = block_tape.scale_rows(block_tape.gather_rows(table, ids), sample.weights[rows])
        # the block's slice of the site-0 mask starts this many draws into its stream
        offset = rows.start * e.shape[1] * e.shape[2]
        mask = None if dropout is None else dropout(0, e.shape, offset)
        if mask is not None:
            e = block_tape.elementwise_mul(e, mask)
        # both routes start from the row sum of e: compute it once for both
        row_sum = e.data.sum(axis=-2) if len(routes) == 2 else None
        return [pool(block_tape, e, route, w_conv, config, row_sum) for route in routes]

    constant = (Tensor(table.data), None if w_conv is None else Tensor(w_conv.data))

    def fill(out, route):
        out.data = np.empty(out.shape)
        for rows in blocks:
            out.data[rows] = stage(tape, *constant, rows, sample.ids[rows], [route])[0].data

    inputs = (table,) if w_conv is None else (w_conv, table)
    needs = [t.needs_grad for t in inputs]
    table_data = table.data  # the rule keeps arrays, never Tensors
    w_data = None if w_conv is None else w_conv.data

    def vjp(gs):
        g_table = g_w = None
        for rows in blocks:
            ids = sample.ids[rows]
            used = slice(None)  # the table rows the block's tape gathers from
            if table_data.shape[0] > ids.size:
                # a table with more rows than the block has ids: gather from the
                # rows it uses, so that its scatter is no larger than the block
                used, ids = np.unique(ids, return_inverse=True)
                ids = ids.reshape(rows.stop - rows.start, -1)
            t = Tensor(table_data[used], requires_grad=needs[-1])
            w = None if w_data is None else Tensor(w_data, requires_grad=needs[0])
            block = Tape()
            outs = stage(block, t, w, rows, ids, list(widths))
            grads = replay(block, [(out, g[rows]) for out, g in zip(outs, gs)
                                   if g is not None and out.needs_grad])
            # the block's tape is gone, so its gradients are this rule's own
            if t in grads:
                if g_table is None:
                    g_table = np.zeros(table_data.shape)
                g_table[used] += grads[t]
            if w in grads:
                g_w = grads[w] if g_w is None else np.add(g_w, grads[w], out=g_w)
        return (g_table,) if w_data is None else (g_w, g_table)

    # recorded like a primitive; the rule replays primitives only. Until `fill`
    # gives an output its rows, it holds a read-only view of its shape that
    # takes no memory
    n = sample.ids.shape[0]
    outs = tape._emit_outputs([np.broadcast_to(0.0, (n, width)) for width in widths.values()],
                              inputs, vjp)
    return outs, fill


def forward_all_nodes(table: Tensor, params, config: TrainConfig, sample, tape: Tape,
                      dropout) -> Tensor:
    """Record the initial representations H (N x C) of every node on `tape`.

    `table` is the embedding table; `params` holds the projection tensors
    (w_conv, w_g, b_g, w_l, b_l and, with deep_projection, the hidden pairs);
    of the run `config` it reads variant, alpha, rho and final_activation.
    The table and the sample stay the first and fourth arguments because the
    traced benchmark (`perfbench/child.py`) reads them there to count the
    gathered values.
    `dropout(site, shape, offset)` returns the constant mask tensor for site 0
    (the embedded rows; `offset` is the flat position of the block's first
    entry in the whole (N, n_f, d_emb) mask), 1 (the local projection input)
    or 2 (the global projection input), or None where that site keeps
    everything; a `dropout` of None drops nothing.

    Late fusion is alpha * proj_g(h_g) + (1 - alpha) * proj_l(h_l). At the
    endpoints the dead route is skipped entirely, so alpha=0 equals the local
    projection exactly and alpha=1 the global one.

    The per-node stage runs over blocks of nodes on constants, one route at a
    time, each just before its projection; the live routes' pooled rows enter
    the tape as one record that recomputes the stage in its backward; see the
    module docstring.
    """
    meanpool = config.variant == "meanpool"
    alpha = 0.0 if meanpool else config.alpha
    widths = {}  # pooled width of each live route, global first
    if alpha > 0.0:
        widths["global"] = params.w_conv.shape[1]
    if alpha < 1.0:
        widths["local"] = table.shape[1]
    n, n_f = sample.ids.shape
    step = max(1, NODE_BLOCK_BYTES // (8 * n_f * max(widths.values())))
    blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    w_conv = params.w_conv if "global" in widths else None  # absent from some callers' params
    outs, fill = _pooled_rows(tape, widths, table, w_conv, sample, blocks, config, dropout)
    pooled = dict(zip(widths, outs))
    del outs  # only `pooled` holds the outputs, and it lets each go after its projection

    def route_input(route, site):
        x = pooled.pop(route)
        fill(x, route)
        mask = dropout(site, x.shape, 0) if dropout is not None else None
        return x if mask is None else tape.elementwise_mul(x, mask)

    act = config.final_activation
    if alpha > 0.0:
        h_g = _taped_project(tape, route_input("global", 2), params.w_g, params.b_g,
                             params.w_g_hidden, params.b_g_hidden, act)
        if alpha == 1.0:
            return h_g
    h_l = _taped_project(tape, route_input("local", 1), params.w_l, params.b_l,
                         params.w_l_hidden, params.b_l_hidden, act)
    if alpha == 0.0:
        return h_l
    return tape.add(tape.scale(h_g, alpha), tape.scale(h_l, 1.0 - alpha))
