"""The list-of-records tape, kept verbatim as the reference for `catgcn.autodiff`.

`catgcn.autodiff.Tape` keeps only what each backward rule reads and
`backward` consumes it record by record; the interaction kernels build their
results in place. This is the tape they replaced, which kept every primitive's
output and inputs alive until the tape died, together with the kernel
formulas it called, and `taped_forward`, the single-pass forward that
recorded the whole per-node stage of all N nodes on it. Tests require a
training step on the lean tape, whose per-node stage runs in node blocks and
is recomputed block by block in the backward, to equal one recorded here:
loss, logits and the projection gradients bit for bit, the embedding-table
and w_conv gradients (summed by node block there) within 1e-12 relative, and
all of them bit for bit when the nodes run in one block.
"""

from __future__ import annotations

import numpy as np

from catgcn import graph as graphmod
from catgcn.autodiff import masked_ce_mean, softmax_rows
from catgcn.interaction import DROPOUT_SITES, dropout_mask


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


class Tensor:
    """Float64 array node in a recorded computation; leaves may require gradients."""

    __slots__ = ("data", "requires_grad", "needs_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.needs_grad = self.requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications; replay order is creation order."""

    def __init__(self):
        self._records = []  # (out, inputs, vjp); vjp(g) aligns with inputs
        self._outs = set()

    def _emit(self, out_data, inputs, vjp) -> Tensor:
        out = Tensor(out_data)
        out.needs_grad = any(t.needs_grad for t in inputs)
        if out.needs_grad:
            self._records.append((out, inputs, vjp))
            self._outs.add(id(out))
        return out

    # -- primitives ---------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """a (..., m, k) @ b (k, n); b must be 2-D."""
        if b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
            raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        k, n = b.data.shape

        def vjp(g):
            ga = g @ b.data.T if a.needs_grad else None
            gb = a.data.reshape(-1, k).T @ g.reshape(-1, n) if b.needs_grad else None
            return ga, gb

        return self._emit(a.data @ b.data, (a, b), vjp)

    def add_bias(self, x: Tensor, b: Tensor) -> Tensor:
        """x (..., d) + b (d,)."""
        if b.data.shape != x.data.shape[-1:]:
            raise ValueError(f"bias shape {b.shape} does not match {x.shape}")
        d = b.data.shape[0]

        def vjp(g):
            return g, g.reshape(-1, d).sum(axis=0)

        return self._emit(x.data + b.data, (x, b), vjp)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
        return self._emit(a.data + b.data, (a, b), lambda g: (g, g))

    def elementwise_mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"elementwise_mul shape mismatch: {a.shape} vs {b.shape}")
        return self._emit(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))

    def elementwise_square(self, x: Tensor) -> Tensor:
        return self._emit(x.data * x.data, (x,), lambda g: (2.0 * x.data * g,))

    def relu(self, x: Tensor) -> Tensor:
        """max(x, 0); the subgradient at exactly 0 is taken as 0.

        The sign mask is built in the backward rule, so a forward that
        records nothing never computes it.
        """
        return self._emit(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0.0),))

    def mean_rows(self, x: Tensor) -> Tensor:
        """Mean over axis -2 (the feature-row axis)."""
        n = x.data.shape[-2]

        def vjp(g):
            return (np.broadcast_to(g[..., None, :] / n, x.data.shape),)

        return self._emit(x.data.mean(axis=-2), (x,), vjp)

    def sum_rows(self, x: Tensor) -> Tensor:
        def vjp(g):
            return (np.broadcast_to(g[..., None, :], x.data.shape),)

        return self._emit(x.data.sum(axis=-2), (x,), vjp)

    def gather_rows(self, table: Tensor, ids: np.ndarray) -> Tensor:
        """table (d, k) indexed by ids (...); backward scatter-adds duplicate ids."""
        ids = np.asarray(ids, dtype=np.int64)
        d, k = table.data.shape

        def vjp(g):
            flat = ids.ravel()
            gf = g.reshape(-1, k)
            out = np.empty((d, k))
            for j in range(k):  # bincount per column: deterministic scatter-add
                out[:, j] = np.bincount(flat, weights=gf[:, j], minlength=d)
            return (out,)

        return self._emit(table.data[ids], (table,), vjp)

    def scale(self, x: Tensor, c: float) -> Tensor:
        c = float(c)
        return self._emit(c * x.data, (x,), lambda g: (c * g,))

    def scale_rows(self, x: Tensor, row_weights: np.ndarray) -> Tensor:
        """x (..., n, d) with each row scaled by its constant weight (..., n)."""
        w = np.asarray(row_weights, dtype=np.float64)[..., None]
        return self._emit(x.data * w, (x,), lambda g: (g * w,))

    def total_sum(self, x: Tensor) -> Tensor:
        def vjp(g):
            return (np.full(x.data.shape, float(g)),)

        return self._emit(x.data.sum(), (x,), vjp)

    def biinteraction(self, e: Tensor) -> Tensor:
        """Pairwise-product pooling over rows; gradient at row i is (s - e_i) * g
        with s the row sum, because each row pairs with every other row once."""

        def vjp(g):
            s = e.data.sum(axis=-2, keepdims=True)
            return ((s - e.data) * g[..., None, :],)

        return self._emit(local_biinteraction(e.data), (e,), vjp)

    def artificial_prop(self, e: Tensor, rho: float) -> Tensor:
        """Probe-weighted row mixing; the operator is symmetric, so the backward
        pass applies the same mixing to the upstream gradient."""

        def vjp(g):
            return (artificial_propagate(g, rho),)

        return self._emit(artificial_propagate(e.data, rho), (e,), vjp)

    def sparse_propagate(self, adj: graphmod.CsrMatrix, x: Tensor, hops: int) -> Tensor:
        """hops applications of the symmetric normalized adjacency; backward is
        the same propagation applied to the upstream gradient."""

        def vjp(g):
            return (graphmod.propagate(adj, g, hops),)

        return self._emit(graphmod.propagate(adj, x.data, hops), (x,), vjp)

    def softmax_cross_entropy(self, logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
        """Fused mean cross-entropy over the masked rows (log-sum-exp stabilized)."""
        labels = np.asarray(labels, dtype=np.int64)
        mask = np.sort(np.asarray(mask, dtype=np.int64))
        if len(mask) == 0:
            raise ValueError("softmax_cross_entropy needs a non-empty mask")
        value = masked_ce_mean(logits.data, labels, mask)

        def vjp(g):
            p = softmax_rows(logits.data[mask])
            p[np.arange(len(mask)), labels[mask]] -= 1.0
            p *= g / len(mask)
            out = np.zeros_like(logits.data)
            out[mask] = p
            return (out,)

        return self._emit(value, (logits,), vjp)


def backward(tape: Tape, loss: Tensor) -> dict:
    """Gradients of a scalar recorded on `tape` w.r.t. every requires_grad leaf.

    Records are visited in exact reverse creation order; contributions to a
    tensor reached along several paths accumulate additively.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if id(loss) not in tape._outs:
        raise ValueError("loss tensor was not produced by this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    leaves: dict[int, Tensor] = {}
    for out, inputs, vjp in reversed(tape._records):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for inp, gi in zip(inputs, vjp(g)):
            if gi is None or not inp.needs_grad:
                continue
            acc = grads.get(id(inp))
            grads[id(inp)] = gi if acc is None else acc + gi
            if inp.requires_grad:
                leaves[id(inp)] = inp
    return {t: grads[i] for i, t in leaves.items()}



def taped_forward(tape: Tape, params, sample, norm_adj, config, epoch=None) -> Tensor:
    """The propagated logits of all N nodes recorded on `tape` in one pass:
    gather, row weights, dropout site 0, the global route (recorded first),
    the local route, their projections, fusion and propagation. The dropout
    sites apply training epoch `epoch`'s whole masks; None drops nothing."""
    sites = () if epoch is None or config.dropout <= 0.0 else DROPOUT_SITES[config.dropout_site]

    def drop(x, site):
        if site not in sites:
            return x
        mask = dropout_mask(x.shape, config.dropout, config.seed, epoch, site)
        return tape.elementwise_mul(x, Tensor(mask))

    def project(h, w, b, w_hidden, b_hidden):
        if w_hidden is not None:
            h = tape.relu(tape.add_bias(tape.matmul(h, w_hidden), b_hidden))
        out = tape.add_bias(tape.matmul(h, w), b)
        return tape.relu(out) if config.final_activation == "relu" else out

    e = tape.gather_rows(params.embedding, sample.ids)
    e = drop(tape.scale_rows(e, sample.weights), 0)
    meanpool = config.variant == "meanpool"
    alpha = 0.0 if meanpool else config.alpha
    if alpha > 0.0:
        pooled = tape.mean_rows(tape.relu(tape.matmul(tape.artificial_prop(e, config.rho),
                                                      params.w_conv)))
        h = h_g = project(drop(pooled, 2), params.w_g, params.b_g,
                          params.w_g_hidden, params.b_g_hidden)
    if alpha < 1.0:
        pooled = tape.mean_rows(e) if meanpool else tape.biinteraction(e)
        h = h_l = project(drop(pooled, 1), params.w_l, params.b_l,
                          params.w_l_hidden, params.b_l_hidden)
    if 0.0 < alpha < 1.0:
        h = tape.add(tape.scale(h_g, alpha), tape.scale(h_l, 1.0 - alpha))
    return tape.sparse_propagate(norm_adj, h, config.hops)
