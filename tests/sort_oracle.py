"""The multi-key `np.lexsort` sorts of the set-up path, kept as references.

`catgcn.graph` and `catgcn.data` order CSR entries, canonical edges, sampled
bag slots and loaded bags with single-key or per-segment sorts. Each function
here is the lexsort those replaced, so tests can require the same outputs.
"""

from __future__ import annotations

import numpy as np

from catgcn.rng import SAMPLE, counter_keys


def csr_from_coo(rows, cols, vals, num_rows: int):
    """(row offsets, column indices, values) of distinct COO entries, by (row, col)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=offsets[1:])
    return offsets, cols[order], vals[order]


def canonical_edges(edges):
    """(edges, self loops dropped, duplicates dropped), pairs as u < v in (u, v) order."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n_raw = len(e)
    e = np.sort(e[e[:, 0] != e[:, 1]], axis=1)
    n_self = n_raw - len(e)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    first = np.ones(len(e), dtype=bool)
    first[1:] = (e[1:] != e[:-1]).any(axis=1)
    e = e[first]
    return e, n_self, n_raw - n_self - len(e)


def sample_features(ds, n_f: int, seed: int):
    """(ids, weights) of the keyed sample: the n_f smallest-key slots of each
    bag in key order, from one lexsort by (node, key), then keyed fills."""
    starts = ds.bag_offsets[:-1]
    sizes = np.diff(ds.bag_offsets)
    row = np.repeat(np.arange(ds.num_nodes), sizes)
    slot = np.arange(len(ds.bag_ids)) - starts[row]
    order = np.lexsort((counter_keys(seed, SAMPLE, row, slot), row))
    keep = slot < n_f
    pick = np.full((ds.num_nodes, n_f), -1, dtype=np.int64)
    pick[row[keep], slot[keep]] = order[keep]
    fill_row, fill_slot = np.nonzero(pick < 0)
    fill_key = counter_keys(seed, SAMPLE, fill_row, fill_slot)
    pick[fill_row, fill_slot] = starts[fill_row] + (
        fill_key % sizes[fill_row].astype(np.uint64)
    ).astype(np.int64)
    return ds.bag_ids[pick], ds.bag_weights[pick]


def bag_layout(lines):
    """(offsets, ids, weights) of `(node, [(id, weight), ...])` lines given in
    file order: every token sorted by (node, id) with one lexsort."""
    nodes = np.array([node for node, _ in lines], dtype=np.int64)
    sizes = np.array([len(bag) for _, bag in lines], dtype=np.int64)
    fids = np.array([f for _, bag in lines for f, _ in bag], dtype=np.int64)
    weights = np.array([w for _, bag in lines for _, w in bag], dtype=np.float64)
    order = np.lexsort((fids, np.repeat(nodes, sizes)))
    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    offsets[nodes + 1] = sizes
    return np.cumsum(offsets), fids[order], weights[order]
