"""Reverse-mode differentiation over an explicit tape.

A Tape records each primitive in execution order; `replay` replays the records
in exact reverse order and accumulates gradients additively. The primitive
vocabulary is fixed and closed: everything the model trains is expressed with
the ops below, so every backward rule is auditable in one place. The pure
numpy formulas of the two interaction routes, `local_biinteraction` and
`artificial_propagate`, live here too, next to the primitives that record
them; they broadcast over leading batch axes and treat axis -2 as the
feature-row axis.

A record keeps only what its backward rule reads: the tape-local node number
of its output; for each input, its node number if this tape produced it, the
Tensor itself if it is a leaf that requires a gradient (so `replay` can key
the result), or None for a constant; and the vjp closure, which captures the
arrays and shapes its rule reads, never Tensors. An output no rule reads (the
gathered embedding rows once weights other than 1.0 scale them, the global
route's relu output) is freed as soon as the forward drops it. `replay`
consumes the tape: it pops each record as it replays it, so a record's closure
and the arrays it captured are freed once its gradient has been computed, and
a replayed tape cannot be replayed again.

A training step's tape lives from the forward to the end of its backward. It
holds only (N, C) arrays: `interaction` records the whole per-node function,
from the embedding lookup to the fused (N, C) rows, as one record whose rule
recomputes it node block by node block on a short-lived block tape of its
own. One loop, `replay`, replays both kinds of tape: `backward` starts it from
the scalar loss (seed 1), the per-node rule from a block's rows of the
upstream (N, C) gradient.

A vjp rule returns, for each input, None, a fresh array, the upstream `g`
itself, or a read-only view; it never returns an array its closure captured.
`replay` relies on this contract to add a later contribution in place into an
accumulated gradient that it alone owns: a writeable array with no base, other
than the upstream `g` of the rule that returned it, and returned by that rule
once (`add` returns `(g, g)`). Any other accumulated gradient is summed into a
new array, which the replay then owns.
"""

from __future__ import annotations

import numpy as np

from . import graph as graphmod


class Tensor:
    """Float64 array node in a recorded computation; leaves may require gradients."""

    __slots__ = ("data", "requires_grad", "needs_grad", "tape", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.needs_grad = self.requires_grad
        self.tape = None  # the Tape that recorded this tensor as an output
        self.node = None  # its node number on that tape

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


class Tape:
    """Ordered record of primitive applications; replay order is creation order."""

    def __init__(self):
        self._records = []  # (node, keys, vjp); vjp(g) aligns with keys
        self._nodes = 0  # node numbers handed out so far
        self._replayed = False

    def _key(self, t: Tensor):
        """How a record names an input: its node number on this tape, the leaf
        itself if it requires a gradient, or None for a constant."""
        if t.tape is self:
            return t.node
        return t if t.requires_grad else None

    def _emit(self, out_data, inputs, vjp) -> Tensor:
        if self._replayed:  # the replay emptied the record list
            raise ValueError("tape already replayed")
        out = Tensor(out_data)
        out.needs_grad = any(t.needs_grad for t in inputs)
        if out.needs_grad:
            out.tape, out.node = self, self._nodes
            self._nodes += 1
            self._records.append((out.node, tuple(self._key(t) for t in inputs), vjp))
        return out

    # -- primitives ---------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """a (..., m, k) @ b (k, n); b must be 2-D."""
        if b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
            raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        k, n = b.data.shape
        # each factor is kept only for the other one's gradient
        x = a.data if b.needs_grad else None
        w = b.data if a.needs_grad else None

        def vjp(g):
            ga = None if w is None else g @ w.T
            gb = None if x is None else x.reshape(-1, k).T @ g.reshape(-1, n)
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
        # each factor is kept only for the other one's gradient, so a dropout
        # mask keeps no reference to the rows it masks
        x = a.data if b.needs_grad else None
        y = b.data if a.needs_grad else None

        def vjp(g):
            return (None if y is None else g * y), (None if x is None else g * x)

        return self._emit(a.data * b.data, (a, b), vjp)

    def elementwise_square(self, x: Tensor) -> Tensor:
        xd = x.data
        return self._emit(xd * xd, (x,), lambda g: (2.0 * xd * g,))

    def relu(self, x: Tensor) -> Tensor:
        """max(x, 0); the subgradient at exactly 0 is taken as 0.

        The sign mask is built in the backward rule, so a forward that
        records nothing never computes it.
        """
        xd = x.data
        return self._emit(np.maximum(xd, 0.0), (x,), lambda g: (g * (xd > 0.0),))

    def mean_rows(self, x: Tensor) -> Tensor:
        """Mean over axis -2 (the feature-row axis)."""
        shape = x.data.shape
        n = shape[-2]

        def vjp(g):
            return (np.broadcast_to(g[..., None, :] / n, shape),)

        return self._emit(x.data.mean(axis=-2), (x,), vjp)

    def sum_rows(self, x: Tensor) -> Tensor:
        shape = x.data.shape

        def vjp(g):
            return (np.broadcast_to(g[..., None, :], shape),)

        return self._emit(x.data.sum(axis=-2), (x,), vjp)

    def gather_rows(self, table: Tensor, ids: np.ndarray) -> Tensor:
        """table (d, k) indexed by ids (...); backward scatter-adds duplicate ids.

        The scatter is one `bincount` over the flat slot index `id * k + column`.
        Each slot sums its contributions in row order, as a `bincount` per
        column does, so the result is the same bit for bit. The index is as
        large as the gradient, so each backward builds it and frees it rather
        than keeping it for the run.
        """
        ids = np.asarray(ids, dtype=np.int64)
        d, k = table.data.shape

        def vjp(g):
            slots = ids.reshape(-1, 1) * k + np.arange(k)
            out = np.bincount(slots.ravel(), weights=g.ravel(), minlength=d * k)
            return (out.reshape(d, k),)

        return self._emit(table.data.take(ids, axis=0), (table,), vjp)

    def scale(self, x: Tensor, c: float) -> Tensor:
        c = float(c)
        return self._emit(c * x.data, (x,), lambda g: (c * g,))

    def scale_rows(self, x: Tensor, row_weights: np.ndarray) -> Tensor:
        """x (..., n, d) with each row scaled by its constant weight (..., n).

        When every weight is exactly 1.0 the output wraps x's array itself and
        the gradient passes through unchanged: `v * 1.0 == v` bit for bit, so
        the skipped multiplications would change nothing.
        """
        w = np.asarray(row_weights, dtype=np.float64)
        if np.all(w == 1.0):
            return self._emit(x.data, (x,), lambda g: (g,))
        w = w[..., None]
        return self._emit(x.data * w, (x,), lambda g: (g * w,))

    def total_sum(self, x: Tensor) -> Tensor:
        shape = x.data.shape

        def vjp(g):
            return (np.full(shape, float(g)),)

        return self._emit(x.data.sum(), (x,), vjp)

    def biinteraction(self, e: Tensor, row_sum: np.ndarray | None = None) -> Tensor:
        """Pairwise-product pooling over rows; gradient at row i is (s - e_i) * g
        with s the row sum, because each row pairs with every other row once.
        The forward computes s, unless `row_sum` gives it, and the backward
        reuses it."""
        ed = e.data
        s = ed.sum(axis=-2) if row_sum is None else row_sum

        def vjp(g):
            out = np.subtract(s[..., None, :], ed)
            out *= g[..., None, :]
            return (out,)

        return self._emit(local_biinteraction(ed, row_sum=s), (e,), vjp)

    def artificial_prop(self, e: Tensor, rho: float, row_sum: np.ndarray | None = None) -> Tensor:
        """Probe-weighted row mixing; the operator is symmetric, so the backward
        pass applies the same mixing to the upstream gradient. `row_sum` is
        e's row sum when the caller has it."""

        def vjp(g):
            return (artificial_propagate(g, rho),)

        return self._emit(artificial_propagate(e.data, rho, row_sum), (e,), vjp)

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
        z = logits.data
        value = masked_ce_mean(z, labels, mask)

        def vjp(g):
            p = softmax_rows(z[mask])
            p[np.arange(len(mask)), labels[mask]] -= 1.0
            p *= g / len(mask)
            out = np.zeros_like(z)
            out[mask] = p
            return (out,)

        return self._emit(value, (logits,), vjp)


def backward(tape: Tape, loss: Tensor) -> dict:
    """Gradients of a scalar recorded on `tape` w.r.t. every requires_grad leaf:
    the replay seeded with the loss's own gradient, 1."""
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    return replay(tape, loss, np.ones(()))


def replay(tape: Tape, out: Tensor, seed: np.ndarray) -> dict:
    """Vector-Jacobian product of `out`, recorded on `tape`, at the upstream
    gradient `seed` (of `out`'s shape), w.r.t. every requires_grad leaf.

    `backward` is the scalar case; the per-node rule of `interaction` replays
    each node block's tape from its rows of the upstream gradient. Records
    are visited in exact reverse creation order; contributions to a tensor
    reached along several paths accumulate additively, in place into a
    gradient array the replay alone owns (see the module docstring). The
    replay consumes the tape: each record is popped before its rule runs, and
    a second replay of the same tape raises ValueError.
    """
    if seed.shape != out.data.shape:
        raise ValueError(f"seed shape {seed.shape} does not match {out.data.shape}")
    if out.tape is not tape:
        raise ValueError("tensor was not produced by this tape")
    if tape._replayed:
        raise ValueError("tape already replayed")
    tape._replayed = True
    records = tape._records
    # keyed as the records name their inputs: node numbers and leaf tensors
    grads: dict = {out.node: seed}
    # keys whose gradient array the replay alone holds. Adding into those in
    # place, rather than into a new array, keeps the same bits with fewer page
    # faults: without it, 5 training steps at 5k nodes, n_f 50, d 64 took
    # 11.3k minor faults instead of 1.8k (2-vCPU host, in-process)
    owned = set()
    while records:
        node, keys, vjp = records.pop()
        if node not in grads:
            continue
        g = grads.pop(node)
        gis = vjp(g)
        for key, gi in zip(keys, gis):
            if gi is None or key is None:
                continue
            if key in owned:
                np.add(grads[key], gi, out=grads[key])
                continue
            acc = grads.get(key)
            if acc is not None:
                gi = acc + gi
            grads[key] = gi
            if (gi.flags.writeable and gi.base is None and gi is not g
                    and sum(r is gi for r in gis) < 2):
                owned.add(key)
    # every node's entry was popped at its own record, so only leaves remain
    return grads


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
