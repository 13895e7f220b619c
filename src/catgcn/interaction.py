"""Initial node representations from categorical features.

Two routes over a node's embedded feature rows E (n_f x d_emb): a local
bilinear pooling of all feature pairs, and a global route that mixes every row
with the set mean through a probe-weighted operator before a shared projection.
Late fusion combines the two per-route projections.

`forward_all_nodes` is the one definition of these representations, for
training and evaluation alike. It records the composition on a tape with the
primitives of `autodiff`, which also holds the routes' numpy formulas;
training passes parameters that require gradients and its epoch, evaluation
passes constants and no epoch, and the tape then records nothing. The stage
owns dropout: `dropout_mask` draws a training epoch's masks, and
`DROPOUT_SITES` names the sites each `dropout_site` setting drops.

Everything before propagation is per node: the gather, the row weights, the
routes' pooling, the projections, the final activation and the fusion; only
`A_hat^L` mixes nodes. `forward_all_nodes` therefore runs that whole function
over contiguous blocks of nodes, sized so that one (rows, n_f, d) float64
array fits in `NODE_BLOCK_BYTES`, and fills one (N, C) array. The (N, n_f, d)
arrays a single pass would allocate are never built, and neither is any
(N, d) array. Each block gathers its rows once, and both routes start from
that one gather and one row sum. A block draws only its slice of each whole
dropout mask, so the masks are the same bits as one pass.

Training keeps only the (N, C) output (block-level activation checkpointing,
Chen et al. 2016, arXiv:1604.06174). The forward runs each block on constants,
so nothing of the per-node function is recorded, and the run's tape gets one
ordinary record whose inputs are the live parameters and the table. Its
backward rule walks the blocks in order. For each block it recomputes the
function on a block-local `Tape`, replays that tape from the block's rows of
the upstream gradient (`autodiff.replay`, whose scalar case is `backward`),
and adds every input's gradient in block order. The block tape gathers from
only the table rows its nodes use (`np.unique` of its ids), so no block's
scatter is larger than the block, whatever the vocabulary. The run's tape
therefore holds only (N, C) arrays; the price is one more pass of the per-node
forward in the backward. Train and eval run the same blocks, so the taped
logits are `model_forward`'s bit for bit. But the 2-D projection gemms run per
block, and their last bits depend on how the rows are split, so loss, logits
and every parameter gradient differ from one pass over all nodes in their last
bits (within 1e-12 relative), and depend on the block size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tape, Tensor, replay
from .rng import DROPOUT, stream_rng

if TYPE_CHECKING:  # training imports this module
    from .training import TrainConfig


# the dropout sites each `dropout_site` setting drops: 0 the embedded rows,
# 1 the local projection input, 2 the global projection input
DROPOUT_SITES = {"embedding": (0,), "projections": (1, 2), "both": (0, 1, 2)}


def dropout_mask(shape, rate: float, seed: int, epoch: int, site_idx: int = 0,
                 offset: int = 0) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate), expectation one.

    site_idx picks the stream, one per site (see `DROPOUT_SITES`). The mask
    holds the draws `offset` to `offset + prod(shape)` of that stream, so the
    block of a larger mask that starts at flat position `offset` is drawn
    without the rest of it: Philox makes four draws per counter step, so the
    generator advances `offset // 4` steps and discards `offset % 4` draws.
    """
    rng = stream_rng(seed, DROPOUT, substream=4 * epoch + site_idx)
    rng.bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


# byte budget of one (rows, n_f, d) float64 array of the blocked per-node function;
# medians over two rounds on a 2-vCPU host, at 256 KiB / 512 KiB / 1 MiB: a training
# step at 5k nodes, n_f=50, d=64: 747, 627 / 668, 632 / 806, 885 ms, with 0 / 810 /
# 60,016 minor page faults per step (at 1 MiB the freed block arrays are returned to
# the kernel and mapped again); at 10k nodes, n_f=10, d=32: 141, 156 / 127, 128 /
# 129, 136 ms; the eval forward at 100k nodes, n_f=10, d=32: 572, 573 / 518, 560 /
# 516, 377 ms
NODE_BLOCK_BYTES = 1 << 19


def _taped_project(tape: Tape, h, w, b, w_hidden, b_hidden, activation: str):
    if w_hidden is not None:
        h = tape.relu(tape.add_bias(tape.matmul(h, w_hidden), b_hidden))
    out = tape.add_bias(tape.matmul(h, w), b)
    return tape.relu(out) if activation == "relu" else out


def pool(tape: Tape, e: Tensor, route: str, w_conv, config: TrainConfig,
         row_sum: np.ndarray | None = None) -> Tensor:
    """The route's pooling of embedded rows e, one pooled row per node.
    `row_sum` is `e.data.sum(axis=-2)` when the caller shares it between routes."""
    if route == "local":
        if config.variant == "meanpool":
            return tape.mean_rows(e)
        return tape.biinteraction(e, row_sum)
    # one expression: the (rows, n_f, d_hidden) relu output, which no record
    # keeps, is freed as soon as it is pooled
    return tape.mean_rows(tape.relu(tape.matmul(tape.artificial_prop(e, config.rho, row_sum),
                                                w_conv)))


def forward_all_nodes(table: Tensor, params, config: TrainConfig, sample, tape: Tape,
                      epoch: int | None = None) -> Tensor:
    """Record the initial representations H (N x C) of every node on `tape`.

    `table` is the embedding table; `params` holds the projection tensors
    (w_conv, w_g, b_g, w_l, b_l and, with deep_projection, the hidden pairs);
    of the run `config` it reads variant, alpha, rho, final_activation and
    the dropout settings. The table and the sample stay the first and fourth
    arguments because the traced benchmark (`perfbench/child.py`) reads them
    there to count the gathered values.
    `epoch` is the training epoch whose dropout masks the sites of
    `config.dropout_site` apply, drawn from (config.seed, epoch); None, the
    eval forward, drops nothing.

    Late fusion is alpha * proj_g(h_g) + (1 - alpha) * proj_l(h_l). At the
    endpoints the dead route is skipped entirely, so alpha=0 equals the local
    projection exactly and alpha=1 the global one.

    The whole function runs over blocks of nodes on constants and enters the
    tape as one record that recomputes it block by block in its backward; see
    the module docstring.
    """
    meanpool = config.variant == "meanpool"
    alpha = 0.0 if meanpool else config.alpha
    routes = []  # (route, dropout site, tensor suffix) of each live route, global first
    if alpha > 0.0:
        routes.append(("global", 2, "g"))
    if alpha < 1.0:
        routes.append(("local", 1, "l"))
    # the tensors the function reads, in the order it first reads them
    names = ["w_conv"] if alpha > 0.0 else []
    for _, _, r in routes:
        names += [f"w_{r}_hidden", f"b_{r}_hidden", f"w_{r}", f"b_{r}"]
    leaves = {"table": table}
    leaves.update((n, t) for n in names if (t := getattr(params, n, None)) is not None)
    act = config.final_activation
    sites = () if epoch is None or config.dropout <= 0.0 else DROPOUT_SITES[config.dropout_site]

    def drop(block_tape, x, site, rows):
        """x times the block's slice of the site's mask, which starts at the
        block's first entry, `rows.start` rows into the site's stream."""
        if site not in sites:
            return x
        mask = dropout_mask(x.shape, config.dropout, config.seed, epoch, site,
                            rows.start * (x.data.size // len(x.data)))
        return block_tape.elementwise_mul(x, Tensor(mask))

    def stage(block_tape, leaves, rows, ids):
        """H of the nodes in `rows`, whose feature ids `ids` index
        leaves["table"], recorded on `block_tape`: one gather for both routes."""
        e = block_tape.scale_rows(block_tape.gather_rows(leaves["table"], ids),
                                  sample.weights[rows])
        e = drop(block_tape, e, 0, rows)
        # both routes start from the row sum of e: compute it once for both
        row_sum = e.data.sum(axis=-2) if len(routes) == 2 else None
        h = []
        for route, site, r in routes:
            x = drop(block_tape, pool(block_tape, e, route, leaves.get("w_conv"), config, row_sum),
                     site, rows)
            h.append(_taped_project(block_tape, x, leaves[f"w_{r}"], leaves[f"b_{r}"],
                                    leaves.get(f"w_{r}_hidden"), leaves.get(f"b_{r}_hidden"),
                                    act))
        if len(h) == 1:
            return h[0]
        return block_tape.add(block_tape.scale(h[0], alpha), block_tape.scale(h[1], 1.0 - alpha))

    n, n_f = sample.ids.shape
    width = max(table.shape[1], leaves["w_conv"].shape[1] if alpha > 0.0 else 0)
    step = max(1, NODE_BLOCK_BYTES // (8 * n_f * width))
    blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]

    # the forward on constants records nothing on `tape`
    constants = {name: Tensor(t.data) for name, t in leaves.items()}
    out = np.empty((n, (params.b_g if alpha > 0.0 else params.b_l).shape[0]))
    for rows in blocks:
        out[rows] = stage(tape, constants, rows, sample.ids[rows]).data

    # the rule keeps arrays, never Tensors; the replay reaches the leaves in
    # the reverse of the order the function reads them, so the record lists them so
    arrays = {name: t.data for name, t in reversed(leaves.items())}
    needs = {name: t.needs_grad for name, t in leaves.items()}

    def vjp(g):
        grads = dict.fromkeys(arrays)
        for rows in blocks:
            # the block's tape gathers from, and scatters into, only the table
            # rows its nodes use, so no scatter is larger than the block
            used, ids = np.unique(sample.ids[rows], return_inverse=True)
            ids = ids.reshape(rows.stop - rows.start, -1)
            block_leaves = {name: Tensor(a[used] if name == "table" else a,
                                         requires_grad=needs[name])
                            for name, a in arrays.items()}
            block = Tape()
            got = replay(block, stage(block, block_leaves, rows, ids), g[rows])
            # the block's tape is gone, so its gradients are this rule's own
            for name, t in block_leaves.items():
                if t not in got:
                    continue
                if name == "table":
                    if grads[name] is None:
                        grads[name] = np.zeros(arrays[name].shape)
                    grads[name][used] += got[t]
                elif grads[name] is None:
                    grads[name] = got[t]
                else:
                    np.add(grads[name], got[t], out=grads[name])
        return tuple(grads.values())

    return tape._emit(out, [leaves[name] for name in arrays], vjp)
