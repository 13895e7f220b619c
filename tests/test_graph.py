"""Sparse graph operators: CSR building, symmetric normalization, propagation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catgcn.graph
from catgcn.graph import (CsrMatrix, build_adjacency, canonical_edges, normalize_sym, propagate,
                          spmm, unit_values)


def dense_norm(edges, n):
    """Dense reference for the self-looped symmetric normalization."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    a_hat = a + np.eye(n)
    d = a_hat.sum(axis=1)
    dinv = 1.0 / np.sqrt(d)
    return dinv[:, None] * a_hat * dinv[None, :]


def test_build_adjacency_canonicalizes():
    adj = build_adjacency(np.array([[1, 0], [0, 1], [2, 2], [1, 2]]), 3)
    dense = adj.to_dense()
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert np.array_equal(dense, expected)


def test_build_adjacency_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        build_adjacency(np.array([[0, 5]]), 3)
    with pytest.raises(ValueError, match="outside"):
        build_adjacency(np.array([[-1, 0]]), 3)


@pytest.mark.parametrize("u, v", [([0], [5]), ([5], [0]), ([-1, 0], [0, 1])])
def test_canonical_edges_refuses_ids_outside_the_nodes_in_any_order(u, v):
    # (0, 5) and (-1, 0), (0, 1) are already in canonical order, (5, 0) is not:
    # the ids are checked before the canonical shortcut as well
    with pytest.raises(ValueError, match=re.escape("references a node outside [0, 3)")):
        canonical_edges(np.array(u), np.array(v), 3)


def test_normalize_frozen_path_graph():
    # path 0-1-2 with self loops: degrees (2, 3, 2)
    adj = build_adjacency(np.array([[0, 1], [1, 2]]), 3)
    norm, deg = normalize_sym(adj)
    dense = norm.to_dense()
    assert dense[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert dense[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert dense[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-15)
    assert dense[0, 2] == 0.0
    assert deg.dtype == np.float64 and np.array_equal(deg, [2.0, 3.0, 2.0])


def test_normalize_frozen_two_clique():
    adj = build_adjacency(np.array([[0, 1]]), 2)
    norm, _ = normalize_sym(adj)
    assert np.allclose(norm.to_dense(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalize_isolated_node_keeps_self_loop():
    adj = build_adjacency(np.array([[0, 1]]), 3)
    norm, deg = normalize_sym(adj)
    dense = norm.to_dense()
    assert dense[2, 2] == 1.0
    assert deg[2] == 1.0


def csr(num_rows, num_cols, row_offsets, col_indices, values=None):
    values = np.ones(len(col_indices)) if values is None else np.asarray(values, dtype=np.float64)
    return CsrMatrix(num_rows, num_cols, np.array(row_offsets, dtype=np.int64),
                     np.array(col_indices, dtype=np.int64), values)


@pytest.mark.parametrize("adj, message", [
    (csr(2, 3, [0, 1, 2], [1, 0]), "adjacency must be square"),
    # only the shape is read: no int64 key is formed for 2**64 positions
    (csr(2**32, 2**32, [0], []), "has 2\\*\\*63 positions or more"),
    (csr(2, 2, [0, 2, 3], [0, 1, 0]), "zero diagonal"),
    (csr(3, 3, [0, 1, 2, 2], [1, 2]), "adjacency must be symmetric"),
    # degrees count entries, so a stored value other than 1.0 is refused, not
    # dropped: the same structure both ways with (0, 1) != (1, 0), and with equal weights
    (csr(2, 2, [0, 1, 2], [1, 0], [1.0, 2.0]), "adjacency must be binary"),
    (csr(2, 2, [0, 1, 2], [1, 0], [2.0, 2.0]), "adjacency must be binary"),
    # the 3-cycle 0->1->2->0: every degree is 1, yet no edge has its reverse
    (csr(3, 3, [0, 1, 2, 3], [1, 2, 0]), "adjacency must be symmetric"),
    # values stored once as ones are binary, and the pattern is still checked
    (csr(3, 3, [0, 1, 2, 2], [1, 2], unit_values(2)), "adjacency must be symmetric"),
    (csr(3, 3, [0, 1, 2, 3], [1, 2, 0], unit_values(3)), "adjacency must be symmetric"),
], ids=["not-square", "past-int64-keys", "diagonal", "not-symmetric", "unequal-values",
        "symmetric-weighted", "directed-cycle", "not-symmetric-unit", "directed-cycle-unit"])
def test_normalize_rejects_what_is_not_a_simple_undirected_graph(adj, message):
    with pytest.raises(ValueError, match=message):
        normalize_sym(adj)


def test_normalize_values_are_bit_symmetric():
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 40, size=(150, 2))
    adj = build_adjacency(edges, 40)
    norm, _ = normalize_sym(adj)
    dense = norm.to_dense()
    assert np.array_equal(dense, dense.T)  # exact, not approximate


def test_normalize_matches_dense_reference():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 80))
        edges = rng.integers(0, n, size=(m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        if len(edges) == 0:
            continue
        norm, _ = normalize_sym(build_adjacency(edges, n))
        assert np.abs(norm.to_dense() - dense_norm(edges, n)).max() < 1e-14


def test_spmm_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        edges = rng.integers(0, n, size=(int(rng.integers(1, 60)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        if len(edges) == 0:
            continue
        norm, _ = normalize_sym(build_adjacency(edges, n))
        x = rng.normal(size=(n, 7))
        assert np.abs(spmm(norm, x) - norm.to_dense() @ x).max() < 1e-13


def test_spmm_handles_empty_rows(monkeypatch):
    # no edges at all: normalization is the identity; raw adjacency rows are empty
    adj = build_adjacency(np.empty((0, 2), dtype=np.int64), 4)
    assert adj.nnz == 0
    x = np.arange(8.0).reshape(4, 2)
    norm, _ = normalize_sym(adj)
    # a matrix with no entries gives zeros from the chunk loop alone, whether
    # one chunk covers every row or each row is a chunk of its own
    for budget in (8, 1 << 20):
        monkeypatch.setattr(catgcn.graph, "SPMM_CHUNK_BYTES", budget)
        for c in (1, 2):
            got = spmm(adj, x[:, :c])
            assert got.dtype == np.float64 and np.array_equal(got, np.zeros((4, c)))
        assert np.array_equal(spmm(norm, x), x)


def test_spmm_in_row_chunks_is_bit_equal_to_one_chunk(monkeypatch):
    # empty rows inside chunks and as whole chunks, and a hub row whose entries
    # alone exceed the smaller budgets
    rng = np.random.default_rng(8)
    n = 300
    edges = rng.integers(0, 150, size=(900, 2))
    edges = np.concatenate([edges, np.stack([np.full(120, 7), np.arange(150, 270)], axis=1)])
    edges = edges[edges[:, 0] != edges[:, 1]]
    adj = build_adjacency(edges, n)
    norm, _ = normalize_sym(adj)
    assert np.diff(adj.row_offsets).max() > 100 and (np.diff(adj.row_offsets) == 0).any()
    x = rng.normal(size=(n, 3))
    monkeypatch.setattr(catgcn.graph, "SPMM_CHUNK_BYTES", 1 << 40)
    whole = [spmm(m, x) for m in (adj, norm)]
    for budget in (8, 8 * 3 * 7, 8 * 3 * 100):
        monkeypatch.setattr(catgcn.graph, "SPMM_CHUNK_BYTES", budget)
        for m, ref in zip((adj, norm), whole):
            assert spmm(m, x).tobytes() == ref.tobytes(), budget


def spmm_by_fancy_index(m, x, chunk_bytes):
    """`spmm` as it built each chunk's products before `take`:
    `vals[:, None] * x[cols]`, over the same row chunks."""
    out = np.zeros((m.num_rows, x.shape[1]))
    offsets = m.row_offsets
    entries = max(1, chunk_bytes // (8 * max(1, x.shape[1])))
    lo = 0
    while m.nnz and lo < m.num_rows:
        hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + entries, side="right")) - 1)
        a, b = offsets[lo], offsets[hi]
        if b > a:
            prod = m.values[a:b, None] * x[m.col_indices[a:b]]
            nonempty = np.diff(offsets[lo:hi + 1]) > 0
            out[lo:hi][nonempty] = np.add.reduceat(prod, offsets[lo:hi][nonempty] - a, axis=0)
        lo = hi
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), c=st.integers(1, 5),
       chunk_bytes=st.integers(1, 4096), hub=st.booleans())
def test_spmm_is_bit_equal_to_fancy_index_products(seed, n, c, chunk_bytes, hub):
    # the last node is always isolated, so some rows are empty; with `hub`,
    # node 0 links to every other node but the last, a row of n - 2 entries
    # that outgrows the smaller chunks
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n - 1, size=(int(rng.integers(0, 2 * n)), 2))
    if hub:
        edges = np.concatenate([edges, np.stack([np.zeros(n - 2, np.int64),
                                                 np.arange(1, n - 1)], axis=1)])
    adj = build_adjacency(edges, n)
    x = rng.normal(size=(n, c))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catgcn.graph, "SPMM_CHUNK_BYTES", chunk_bytes)
        for m in (adj, normalize_sym(adj)[0]):
            assert spmm(m, x).tobytes() == spmm_by_fancy_index(m, x, chunk_bytes).tobytes()


def test_spmm_rejects_bad_shapes():
    adj = build_adjacency(np.array([[0, 1]]), 2)
    with pytest.raises(ValueError):
        spmm(adj, np.zeros(2))
    with pytest.raises(ValueError):
        spmm(adj, np.zeros((3, 2)))


def test_propagate_zero_hops_is_copy():
    norm, _ = normalize_sym(build_adjacency(np.array([[0, 1]]), 3))
    x = np.random.default_rng(0).normal(size=(3, 4))
    out = propagate(norm, x, 0)
    assert np.array_equal(out, x)
    assert out is not x


def test_propagate_matches_matrix_power():
    rng = np.random.default_rng(9)
    n = 15
    edges = rng.integers(0, n, size=(40, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    norm, _ = normalize_sym(build_adjacency(edges, n))
    x = rng.normal(size=(n, 5))
    dense = norm.to_dense()
    for hops in (1, 2, 3):
        ref = np.linalg.matrix_power(dense, hops) @ x
        assert np.abs(propagate(norm, x, hops) - ref).max() < 1e-12


def test_propagate_preserves_constant_vector():
    # rows of the normalized operator with self loops sum to <= 1; the all-ones
    # vector is only preserved on regular graphs, so check a 3-clique
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    norm, _ = normalize_sym(build_adjacency(edges, 3))
    ones = np.ones((3, 1))
    assert np.abs(propagate(norm, ones, 4) - ones).max() < 1e-12
