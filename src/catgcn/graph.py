"""Sparse graph structure: canonical edges, CSR adjacency, symmetric normalization, propagation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """CSR matrix in canonical form: per row, column indices strictly ascending, no duplicates.

    Built matrices have num_rows * num_cols < 2**63, so every entry's
    row-major position `row * num_cols + col` fits int64 (`build_adjacency`).
    """

    num_rows: int
    num_cols: int
    row_offsets: np.ndarray  # int64, length num_rows + 1, non-decreasing
    col_indices: np.ndarray  # int64, length nnz
    # float64, length nnz; a binary adjacency's are `unit_values`, read-only
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.num_rows, self.num_cols))
        rows = np.repeat(np.arange(self.num_rows), np.diff(self.row_offsets))
        out[rows, self.col_indices] = self.values
        return out


def unit_values(shape) -> np.ndarray:
    """float64 ones of `shape` stored once: a read-only view of one 1.0 through zero strides.

    Unweighted feature bags, their samples and binary adjacency values are
    kept this way: they read as ones of their shape and hold 8 bytes.
    """
    return np.broadcast_to(np.float64(1.0), shape)


def is_unit(values: np.ndarray) -> bool:
    """Whether `values` is stored as `unit_values` stores it, so reading it
    needs no gather: the result would be ones again."""
    return (values.dtype == np.float64 and not any(values.strides)
            and (values.size == 0 or values.flat[0] == 1.0))


def _expand_rows(row_offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(row_offsets) - 1, dtype=np.int64), np.diff(row_offsets))


def _check_positions(n: int) -> None:
    """Refuse an n x n matrix whose row-major positions `row * n + col` could overflow int64."""
    if n * n >= 1 << 63:
        raise ValueError(f"a {n}x{n} CSR matrix has 2**63 positions or more")


def _check_ids(u: np.ndarray, v: np.ndarray, n: int) -> None:
    """Refuse the edges (u[i], v[i]) if an id lies outside [0, n)."""
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        k = np.argmax((u < 0) | (v < 0) | (u >= n) | (v >= n))
        raise ValueError(f"edge ({u[k]}, {v[k]}) references a node outside [0, {n})")


def _is_canonical(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the pairs (u[i], v[i]) have u < v and strictly ascending (u, v) order."""
    return bool((u < v).all()
                and ((u[1:] > u[:-1]) | (u[1:] == u[:-1]) & (v[1:] > v[:-1])).all())


def canonical_edges(u, v, num_nodes: int) -> tuple[np.ndarray, int, int]:
    """(edges, self loops dropped, duplicates dropped) of the undirected edges (u[i], v[i]).

    The result is (E, 2) int64 in ascending (u, v) order with u < v: self loops
    are dropped and each pair, in either order, is kept once. That form is
    unique, so edges already in it, found by one O(E) check, are kept as given.

    Any other edges must have their ids in [0, num_nodes) (ValueError
    otherwise). Each pair is then keyed by its row-major position
    `min * num_nodes + max`, which orders pairs as (u, v) does; the keys are
    sorted and deduplicated by one `np.unique`, and each is decoded back
    into its pair.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    n_raw = len(u)
    if _is_canonical(u, v):
        return np.column_stack([u, v]), 0, 0
    n = num_nodes
    _check_ids(u, v, n)
    _check_positions(n)
    keep = u != v
    u, v = u[keep], v[keep]
    n_self = n_raw - len(u)
    key = np.minimum(u, v) * n
    key += np.maximum(u, v)
    key = np.unique(key)
    e = np.empty((len(key), 2), dtype=np.int64)
    np.divmod(key, n, out=(e[:, 0], e[:, 1]))
    return e, n_self, n_raw - n_self - len(e)


def build_adjacency(edges, num_nodes: int) -> CsrMatrix:
    """Canonical symmetric binary adjacency from an undirected edge list.

    Self loops are dropped, duplicates (in either order) collapse to one
    undirected edge (`canonical_edges`, which edges already canonical skip),
    and both (i,j) and (j,i) are stored, with `unit_values` as values. Raises
    ValueError when num_nodes**2 reaches 2**63, where a row-major position
    `row * num_nodes + col` could overflow int64.

    Each column goes straight into its CSR slot. Row i holds its entries
    below the diagonal, the edges (j, i), then those above it, the edges
    (i, j), so each row's slots split in two by a count per row. The upper
    entries are the canonical edges in their own order; the lower ones are
    the edges in (v, u) order, from one argsort of their distinct keys
    `v * num_nodes + u`.
    """
    n = num_nodes
    if n < 1:
        raise ValueError(f"num_nodes must be >= 1, got {n}")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    _check_ids(e[:, 0], e[:, 1], n)
    _check_positions(n)
    if not _is_canonical(e[:, 0], e[:, 1]):
        e = canonical_edges(e[:, 0], e[:, 1], n)[0]
    u, v = e[:, 0], e[:, 1]
    # the outputs are allocated before the temporaries: a long-lived block
    # allocated after them would pin the freed memory above it in the heap
    offsets = np.zeros(n + 1, dtype=np.int64)
    cols = np.empty(2 * len(e), dtype=np.int64)
    counts = np.empty((n, 2), dtype=np.int64)  # per row: entries below, above the diagonal
    counts[:, 0], counts[:, 1] = np.bincount(v, minlength=n), np.bincount(u, minlength=n)
    np.cumsum(counts.sum(axis=1), out=offsets[1:])
    key = v * n
    key += u
    order = np.argsort(key)
    del key
    below = np.repeat(np.tile([True, False], n), counts.ravel())
    del counts
    cols[below] = u[order]
    del order
    np.logical_not(below, out=below)
    cols[below] = v
    return CsrMatrix(n, n, offsets, cols, unit_values(len(cols)))


def normalize_sym(adj: CsrMatrix) -> tuple[CsrMatrix, np.ndarray]:
    """(symmetrically normalized adjacency, float64 degrees d), self loops added, so d >= 1.

    The adjacency must be binary, every stored value 1.0, as degrees count
    entries. Entry (i, j) is 1/(sqrt(d_i)*sqrt(d_j)). The product commutes, so
    (i, j) and (j, i) are bit-equal.
    """
    n = adj.num_rows
    if adj.num_cols != n:
        raise ValueError("adjacency must be square")
    _check_positions(n)
    # min and max allocate nothing; an nnz-sized `values == 1.0` here moved
    # eval's peak RSS up by 4 MB of heap placement at the 100k-node inputs
    if not adj.values.min(initial=1.0) == adj.values.max(initial=1.0) == 1.0:
        raise ValueError("adjacency must be binary: every stored value 1.0")
    cols = adj.col_indices
    # the outputs first, as in `build_adjacency`
    offsets = adj.row_offsets + np.arange(n + 1, dtype=np.int64)
    degrees = np.diff(adj.row_offsets).astype(np.float64)
    degrees += 1.0
    cols_aug = np.empty(len(cols) + n, dtype=np.int64)
    vals = np.empty(len(cols) + n)
    rows = _expand_rows(adj.row_offsets)
    if np.any(rows == cols):
        raise ValueError("adjacency must have a zero diagonal before self loops are added")
    below = np.bincount(rows[cols < rows], minlength=n)
    # the matrix is symmetric when its transpose's row-major positions `col * n
    # + row`, sorted, are its own positions
    key = cols * n
    key += rows
    rows *= n
    rows += cols  # its own positions, ascending in canonical form
    key.sort()
    symmetric = np.array_equal(key, rows)
    del key, rows
    if not symmetric:
        raise ValueError("adjacency must be symmetric")

    # the input is canonical, so each row's self loop goes in at its sorted
    # slot, after the row's columns below the diagonal, and nothing is sorted again
    loop = np.zeros(len(cols_aug), dtype=bool)
    loop[offsets[:-1] + below] = True
    cols_aug[loop] = np.arange(n, dtype=np.int64)
    np.logical_not(loop, out=loop)
    cols_aug[loop] = cols
    del loop
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # "clip" takes straight into `out`, which "raise" would buffer; no column is out of range
    np.take(inv_sqrt, cols_aug, out=vals, mode="clip")
    vals *= np.repeat(inv_sqrt, np.diff(offsets))
    return CsrMatrix(n, n, offsets, cols_aug, vals), degrees


# byte budget of the (entries, C) float64 products one row chunk of `spmm`
# builds; at 100k rows, 750k stored entries and C=4 (2-vCPU host) one spmm took
# 49-52 ms at 256 KiB to 1 MiB, 65 ms at 16 MiB and 75 ms unchunked
SPMM_CHUNK_BYTES = 1 << 20


def spmm(m: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse @ dense. Per-row accumulation over ascending columns; bit-deterministic.

    Rows run in chunks whose stored entries make about `SPMM_CHUNK_BYTES` of
    products (a row with more entries makes a chunk of its own), so the
    (entries, C) temporaries stay cache-sized; each row's sum is the same
    either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"dense operand must be 2-D, got shape {x.shape}")
    if m.num_cols != x.shape[0]:
        raise ValueError(f"dimension mismatch: {m.num_rows}x{m.num_cols} @ {x.shape}")
    out = np.zeros((m.num_rows, x.shape[1]))
    offsets = m.row_offsets
    entries = max(1, SPMM_CHUNK_BYTES // (8 * max(1, x.shape[1])))
    lo = 0
    while lo < m.num_rows:
        # the last row whose entries still end within the budget, or the next row
        hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + entries, side="right")) - 1)
        a, b = offsets[lo], offsets[hi]
        if b > a:
            # `take` gathers faster than fancy indexing, and scaling in place
            # needs no second (entries, C) buffer
            prod = x.take(m.col_indices[a:b], axis=0)
            prod *= m.values[a:b, None]
            nonempty = np.diff(offsets[lo:hi + 1]) > 0
            # reduceat segments end at the next supplied start; empty rows own
            # no product slots, so each segment covers exactly one row's entries.
            out[lo:hi][nonempty] = np.add.reduceat(prod, offsets[lo:hi][nonempty] - a, axis=0)
        lo = hi
    return out


def propagate(norm_adj: CsrMatrix, h: np.ndarray, hops: int) -> np.ndarray:
    """Apply the normalized adjacency `hops` times: successive spmm, no materialized power."""
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    h = np.asarray(h, dtype=np.float64)
    if hops == 0:
        return h.copy()
    out = h
    for _ in range(hops):
        out = spmm(norm_adj, out)
    return out
