"""The per-line dataset loader, kept verbatim as the reference for the bulk one.

`catgcn.data.load_dataset` validates whole files at once with numpy; this is
the loop it replaced, copied unchanged except that the per-node bags it parses
are packed into the flat layout `RawDataset` holds. Tests require both to
return equal datasets on valid files and to raise the same exception with the
same message on faulty ones.
"""

from __future__ import annotations

import numpy as np

from catgcn.data import DataError, RawDataset


def _parse_lines(path: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _parse_int(tok: str, what: str, path: str, lineno: int) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise DataError(f"{path}:{lineno}: {what} is not an integer: {tok!r}") from None
    if v < 0:
        raise DataError(f"{path}:{lineno}: {what} must be non-negative, got {v}")
    return v


def load_dataset(edges_path: str, features_path: str, labels_path: str) -> RawDataset:
    """Load and validate the three files; the features file defines the node universe."""
    feat_ids: dict[int, np.ndarray] = {}
    feat_w: dict[int, np.ndarray] = {}
    for lineno, line in _parse_lines(features_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{features_path}:{lineno}: expected node<TAB>features, got {line!r}")
        node = _parse_int(parts[0], "node id", features_path, lineno)
        if node in feat_ids:
            raise DataError(f"{features_path}:{lineno}: duplicate feature line for node {node}")
        ids, ws = [], []
        for tok in parts[1].split():
            fid_tok, _, w_tok = tok.partition(":")
            fid = _parse_int(fid_tok, "feature id", features_path, lineno)
            if w_tok:
                try:
                    w = float(w_tok)
                except ValueError:
                    raise DataError(
                        f"{features_path}:{lineno}: bad feature weight {tok!r}"
                    ) from None
            else:
                w = 1.0
            if not np.isfinite(w) or w <= 0:
                raise DataError(
                    f"{features_path}:{lineno}: weight must be finite and positive, got {w}"
                )
            ids.append(fid)
            ws.append(w)
        if not ids:
            raise DataError(f"{features_path}:{lineno}: node {node} has an empty feature list")
        ids_arr = np.asarray(ids, dtype=np.int64)
        if len(np.unique(ids_arr)) != len(ids_arr):
            raise DataError(f"{features_path}:{lineno}: duplicate feature id for node {node}")
        order = np.argsort(ids_arr)
        feat_ids[node] = ids_arr[order]
        feat_w[node] = np.asarray(ws, dtype=np.float64)[order]

    if not feat_ids:
        raise DataError(f"{features_path}: no feature lines found")
    num_nodes = max(feat_ids) + 1
    missing = [u for u in range(num_nodes) if u not in feat_ids]
    if missing:
        raise DataError(f"{features_path}: node {missing[0]} has no feature line")
    num_features = int(max(arr[-1] for arr in feat_ids.values())) + 1

    raw_edges = []
    for lineno, line in _parse_lines(edges_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{edges_path}:{lineno}: expected u<TAB>v, got {line!r}")
        u = _parse_int(parts[0], "node id", edges_path, lineno)
        v = _parse_int(parts[1], "node id", edges_path, lineno)
        if u >= num_nodes or v >= num_nodes:
            raise DataError(
                f"{edges_path}:{lineno}: edge ({u}, {v}) references a node with no feature line"
                f" (dangling id; {num_nodes} nodes known)"
            )
        raw_edges.append((u, v))
    edges, diag = _canonical_edges(raw_edges)

    labels = np.full(num_nodes, -1, dtype=np.int64)
    for lineno, line in _parse_lines(labels_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{labels_path}:{lineno}: expected node<TAB>class, got {line!r}")
        node = _parse_int(parts[0], "node id", labels_path, lineno)
        cls = _parse_int(parts[1], "class id", labels_path, lineno)
        if node >= num_nodes:
            raise DataError(
                f"{labels_path}:{lineno}: label for unknown node {node} (dangling id)"
            )
        if labels[node] >= 0:
            raise DataError(f"{labels_path}:{lineno}: duplicate label for node {node}")
        labels[node] = cls
    num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0

    diag.update(
        num_nodes=num_nodes,
        num_features=num_features,
        num_classes=num_classes,
        num_edges=len(edges),
        num_labeled=int((labels >= 0).sum()),
    )
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum([len(feat_ids[u]) for u in range(num_nodes)], out=offsets[1:])
    return RawDataset(
        num_nodes=num_nodes,
        num_features=num_features,
        num_classes=num_classes,
        edges=edges,
        bag_offsets=offsets,
        bag_ids=np.concatenate([feat_ids[u] for u in range(num_nodes)]),
        bag_weights=np.concatenate([feat_w[u] for u in range(num_nodes)]),
        labels=labels,
        diagnostics=diag,
    )


def _canonical_edges(raw_edges) -> tuple[np.ndarray, dict]:
    e = np.asarray(raw_edges, dtype=np.int64).reshape(-1, 2)
    n_raw = len(e)
    e = e[e[:, 0] != e[:, 1]]
    n_self = n_raw - len(e)
    e = np.sort(e, axis=1)
    if len(e):
        e = np.unique(e, axis=0)
    n_dup = n_raw - n_self - len(e)
    return e, {"self_loops_dropped": int(n_self), "duplicate_edges_dropped": int(n_dup)}
