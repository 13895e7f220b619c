"""Reverse-mode differentiation over an explicit tape.

A Tape records each primitive in execution order; backward replays the records
in exact reverse order and accumulates gradients additively. The primitive
vocabulary is fixed and closed: everything the model trains is expressed with
the ops below, so every backward rule is auditable in one place.
"""

from __future__ import annotations

import numpy as np

from . import graph as graphmod
from .interaction import artificial_propagate, local_biinteraction


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


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction; invariant to per-row shifts."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def masked_ce_mean(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean cross-entropy over the masked rows via log-sum-exp.

    The mask is canonicalized (sorted) before reduction, so the value does not
    depend on mask ordering.
    """
    mask = np.sort(np.asarray(mask, dtype=np.int64))
    z = logits[mask]
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    ce = lse - z[np.arange(len(mask)), labels[mask]]
    return float(ce.mean())


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


def finite_diff_check(f, params, step: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    `f()` must rebuild the computation and return (tape, loss tensor). The
    relative error denominator is max(|analytic|, |numeric|, 1e-8) per
    coordinate.
    """
    tape, loss = f()
    grads = backward(tape, loss)
    worst = 0.0
    for p in params:
        a = grads.get(p)
        if a is None:
            a = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            fp = f()[1].item()
            flat[idx] = orig - step
            fm = f()[1].item()
            flat[idx] = orig
            num = (fp - fm) / (2.0 * step)
            rel = abs(aflat[idx] - num) / max(abs(aflat[idx]), abs(num), 1e-8)
            worst = max(worst, rel)
    return worst
