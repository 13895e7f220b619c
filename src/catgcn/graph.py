"""Sparse graph structure: canonical edges, CSR adjacency, symmetric normalization, propagation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """CSR matrix in canonical form: per row, column indices strictly ascending, no duplicates.

    Built matrices have num_rows * num_cols < 2**63, so every entry's
    row-major position `row * num_cols + col` fits int64 (`_csr_from_coo`).
    """

    num_rows: int
    num_cols: int
    row_offsets: np.ndarray  # int64, length num_rows + 1, non-decreasing
    col_indices: np.ndarray  # int64, length nnz
    values: np.ndarray  # float64, length nnz

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.num_rows, self.num_cols))
        rows = np.repeat(np.arange(self.num_rows), np.diff(self.row_offsets))
        out[rows, self.col_indices] = self.values
        return out

    def transpose(self) -> "CsrMatrix":
        return _csr_from_coo(
            self.col_indices,
            _expand_rows(self.row_offsets),
            self.values,
            self.num_cols,
            self.num_rows,
        )


def _expand_rows(row_offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(row_offsets) - 1, dtype=np.int64), np.diff(row_offsets))


def _csr_from_coo(rows, cols, vals, num_rows: int, num_cols: int) -> CsrMatrix:
    """Build canonical CSR from COO triplets. Duplicates must have been removed by the caller.

    Entries are ordered by one int64 key, their row-major position
    `row * num_cols + col`. Without duplicates the keys are distinct, so the
    argsort has one answer: the (row, col) lexicographic order. Raises
    ValueError when num_rows * num_cols reaches 2**63, where a key could
    overflow.
    """
    if num_rows * num_cols >= 1 << 63:
        raise ValueError(f"a {num_rows}x{num_cols} CSR matrix has 2**63 positions or more")
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.argsort(rows * num_cols + cols)
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=offsets[1:])
    return CsrMatrix(num_rows, num_cols, offsets, cols[order], vals[order])


def size_groups(sizes: np.ndarray) -> list:
    """Indices of the segments of each distinct size, ascending within each group.

    Same-size contiguous segments starting at `starts[group]` form one
    (segments, size) block `starts[group, None] + np.arange(size)`, so one
    sort along axis 1 sorts every segment of the group.
    """
    by_size = np.argsort(sizes, kind="stable")
    return np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1) if len(sizes) else []


def canonical_edges(edges) -> tuple[np.ndarray, int, int]:
    """(edges, self loops dropped, duplicates dropped) of an undirected edge list.

    The result is (E, 2) int64 in ascending (u, v) order with u < v: self loops
    are dropped and each pair, in either order, is kept once.

    Ids may be any int64, so no combined key is formed. Pairs are sorted by
    u alone; then each run of equal u, a contiguous segment, has its v
    sorted in place, the segments of one size as one block (`size_groups`).
    That is the (u, v) order whatever order the first sort left within a
    run, and a duplicate pair ends up next to its twin.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n_raw = len(e)
    e = e[e[:, 0] != e[:, 1]]
    n_self = n_raw - len(e)
    u, v = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    order = np.argsort(u)
    u, v = u[order], v[order]
    first = np.ones(len(u), dtype=bool)
    np.not_equal(u[1:], u[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=len(u))
    for group in size_groups(sizes):
        pos = starts[group, None] + np.arange(sizes[group[0]])
        v[pos] = np.sort(v[pos], axis=1)
    first[1:] |= v[1:] != v[:-1]
    e = np.empty((np.count_nonzero(first), 2), dtype=np.int64)
    e[:, 0], e[:, 1] = u[first], v[first]
    return e, n_self, n_raw - n_self - len(e)


def build_adjacency(edges, num_nodes: int) -> CsrMatrix:
    """Canonical symmetric binary adjacency from an undirected edge list.

    Self loops are dropped, duplicates (in either order) collapse to one
    undirected edge (`canonical_edges`), and both (i,j) and (j,i) are stored.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= num_nodes):
        bad = e[(e < 0).any(axis=1) | (e >= num_nodes).any(axis=1)][0]
        raise ValueError(f"edge ({bad[0]}, {bad[1]}) references a node outside [0, {num_nodes})")
    e = canonical_edges(e)[0]
    both = np.concatenate([e, e[:, ::-1]])
    return _csr_from_coo(both[:, 0], both[:, 1], np.ones(len(both)), num_nodes, num_nodes)


def normalize_sym(adj: CsrMatrix) -> tuple[CsrMatrix, np.ndarray]:
    """(symmetrically normalized adjacency, float64 degrees d), self loops added, so d >= 1.

    Entry (i, j) is 1/(sqrt(d_i)*sqrt(d_j)). The product commutes, so (i, j)
    and (j, i) are bit-equal.
    """
    if adj.num_rows != adj.num_cols:
        raise ValueError("adjacency must be square")
    rows = _expand_rows(adj.row_offsets)
    if np.any(rows == adj.col_indices):
        raise ValueError("adjacency must have a zero diagonal before self loops are added")
    t = adj.transpose()
    if not (
        np.array_equal(adj.row_offsets, t.row_offsets)
        and np.array_equal(adj.col_indices, t.col_indices)
        and np.array_equal(adj.values, t.values)
    ):
        raise ValueError("adjacency must be symmetric")

    n = adj.num_rows
    rows_aug = np.concatenate([rows, np.arange(n, dtype=np.int64)])
    cols_aug = np.concatenate([adj.col_indices, np.arange(n, dtype=np.int64)])
    degrees = np.diff(adj.row_offsets).astype(np.float64) + 1.0
    inv_sqrt = 1.0 / np.sqrt(degrees)
    vals = inv_sqrt[rows_aug] * inv_sqrt[cols_aug]
    norm = _csr_from_coo(rows_aug, cols_aug, vals, n, n)
    return norm, degrees


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
    if m.nnz == 0:
        return out
    offsets = m.row_offsets
    entries = max(1, SPMM_CHUNK_BYTES // (8 * max(1, x.shape[1])))
    lo = 0
    while lo < m.num_rows:
        # the last row whose entries still end within the budget, or the next row
        hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + entries, side="right")) - 1)
        a, b = offsets[lo], offsets[hi]
        if b > a:
            prod = m.values[a:b, None] * x[m.col_indices[a:b]]
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
