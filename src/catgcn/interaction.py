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

Everything before propagation is per node: the gather, the row weights, the
routes' pooling, the projections, the final activation and the fusion; only
`A_hat^L` mixes nodes. `forward_all_nodes` therefore runs that whole function
over contiguous blocks of nodes, sized so that one (rows, n_f, d) float64
array fits in `NODE_BLOCK_BYTES`, and fills one (N, C) array. The (N, n_f, d)
arrays a single pass would allocate are never built, and neither is any
(N, d) array. Each block gathers its rows once, and both routes start from
that one gather and one row sum. The dropout masks of a block are its slice of
the whole draw, so they are the same bits as one pass.

Training keeps only the (N, C) output (block-level activation checkpointing,
Chen et al. 2016, arXiv:1604.06174). The forward runs each block on constants,
so nothing of the per-node function is recorded, and the run's tape gets one
ordinary record whose inputs are the live parameters and the table. Its
backward rule walks the blocks in order. For each block it recomputes the
function on a block-local `Tape`, replays that tape from the block's rows of
the upstream gradient (`autodiff.replay`, whose scalar case is `backward`),
and adds every input's gradient in block order. When the table has more rows
than the block has feature ids, the block tape gathers from only the rows its
nodes use, so no block's scatter is larger than the block. The run's tape
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
                      dropout) -> Tensor:
    """Record the initial representations H (N x C) of every node on `tape`.

    `table` is the embedding table; `params` holds the projection tensors
    (w_conv, w_g, b_g, w_l, b_l and, with deep_projection, the hidden pairs);
    of the run `config` it reads variant, alpha, rho and final_activation.
    The table and the sample stay the first and fourth arguments because the
    traced benchmark (`perfbench/child.py`) reads them there to count the
    gathered values.
    `dropout(site, shape, offset)` returns the constant mask tensor for site 0
    (the embedded rows), 1 (the local projection input) or 2 (the global
    projection input), or None where that site keeps everything; `offset` is
    the flat position of the block's first entry in the site's whole mask. A
    `dropout` of None drops nothing.

    Late fusion is alpha * proj_g(h_g) + (1 - alpha) * proj_l(h_l). At the
    endpoints the dead route is skipped entirely, so alpha=0 equals the local
    projection exactly and alpha=1 the global one.

    The whole function runs over blocks of nodes on constants and enters the
    tape as one record that recomputes it block by block in its backward; see
    the module docstring.
    """
    from .autodiff import Tape, Tensor, replay  # autodiff imports this module

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

    def drop(block_tape, x, site, rows):
        """x times the block's slice of the site's mask, which starts at the
        block's first entry, `rows.start` rows into the site's stream."""
        if dropout is None:
            return x
        mask = dropout(site, x.shape, rows.start * (x.data.size // len(x.data)))
        return x if mask is None else block_tape.elementwise_mul(x, mask)

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
            ids = sample.ids[rows]
            used = slice(None)  # the table rows the block's tape gathers from
            if arrays["table"].shape[0] > ids.size:
                # a table with more rows than the block has ids: gather from the
                # rows it uses, so that its scatter is no larger than the block
                used, ids = np.unique(ids, return_inverse=True)
                ids = ids.reshape(rows.stop - rows.start, -1)
            block_leaves = {name: Tensor(a[used] if name == "table" else a,
                                         requires_grad=needs[name])
                            for name, a in arrays.items()}
            block = Tape()
            got = replay(block, [(stage(block, block_leaves, rows, ids), g[rows])])
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
