"""Dataset loading, canonical writing, splits, feature sampling, synthetic generators.

File formats (UTF-8, LF, tab-separated, `#` comment lines ignored):
  edges.tsv     u<TAB>v            undirected, 0-based node ids
  features.tsv  node<TAB>tok ...   tok is `id` or `id:weight`; one line per node
  labels.tsv    node<TAB>class     nodes may be missing (unlabeled)
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .graph import canonical_edges, size_groups
from .rng import SAMPLE, SPLIT, SYNTH, counter_keys, stream_rng


class DataError(ValueError):
    """Malformed or inconsistent input data; the CLI maps this to exit code 3."""


@dataclass
class RawDataset:
    num_nodes: int
    num_features: int
    num_classes: int
    edges: np.ndarray  # (E, 2) int64, canonical: u < v, deduplicated, no self loops
    # every bag as one CSR: node u's bag is entries bag_offsets[u]:bag_offsets[u + 1]
    # of the flat arrays, in ascending id order
    bag_offsets: np.ndarray  # (N + 1,) int64, strictly increasing: no bag is empty
    bag_ids: np.ndarray  # int64, distinct within a bag
    bag_weights: np.ndarray  # float64, finite and positive
    labels: np.ndarray  # (N,) int64, -1 marks unlabeled
    diagnostics: dict = field(default_factory=dict)

    @property
    def labeled_ids(self) -> np.ndarray:
        return np.flatnonzero(self.labels >= 0).astype(np.int64)

    def bag(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, weights) of node u's bag: views into the flat arrays."""
        a, b = self.bag_offsets[u], self.bag_offsets[u + 1]
        return self.bag_ids[a:b], self.bag_weights[a:b]


@dataclass(frozen=True)
class SplitAssignment:
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray


@dataclass(frozen=True)
class FeatureSample:
    """Fixed-size per-node feature sample: ids and weights, both (N, n_f)."""

    ids: np.ndarray
    weights: np.ndarray


def _read_lines(path: str) -> tuple[list, list]:
    """(line numbers, lines) of the non-blank, non-comment lines, LF stripped.

    `readlines` splits where iterating the file does: at LF, CRLF and a lone CR.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw = list(map(str.rstrip, fh.readlines(), itertools.repeat("\n")))
    except UnicodeDecodeError:
        # the text reader's offset is relative to its buffer; decode whole for the file's
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: byte {exc.start} "
                            f"({blob[exc.start]:#04x}): {exc.reason}") from None
        raise
    linenos = [i for i, line in enumerate(raw, start=1) if line and line[0] != "#"]
    return linenos, raw if len(linenos) == len(raw) else [raw[i - 1] for i in linenos]


def _parse_int(tok: str, what: str, path: str, lineno: int, limit: int | None = None) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise DataError(f"{path}:{lineno}: {what} is not an integer: {tok!r}") from None
    if v < 0:
        raise DataError(f"{path}:{lineno}: {what} must be non-negative, got {v}")
    if limit is not None and v >= limit:
        raise DataError(f"{path}:{lineno}: {what} must be below {limit}, got {v}")
    return v


def _weight(tok: str) -> float:
    """The weight after `id:`; an absent one is 1."""
    return float(tok) if tok else 1.0


# ids the node and feature tables are indexed by, and classes, must fit int64;
# edge and label node ids beyond the node count are dangling instead
_INT64_END = 1 << 63
_LAYOUT = {"features": "node<TAB>features", "edges": "u<TAB>v", "labels": "node<TAB>class"}


def _check_line(kind: str, path: str, lineno: int, line: str, num_nodes: int, seen) -> None:
    """Raise the DataError for the first per-line rule that `line` of a `kind` file breaks.

    `seen` holds the node ids of the file's earlier lines; `num_nodes` bounds
    the ids in edges and labels. `load_dataset` checks whole files in bulk and
    calls this for the first faulty line only, so the rules' order here is the
    order their messages take precedence in.
    """
    parts = line.split("\t")
    if len(parts) != 2:
        raise DataError(f"{path}:{lineno}: expected {_LAYOUT[kind]}, got {line!r}")
    if kind == "edges":
        u = _parse_int(parts[0], "node id", path, lineno)
        v = _parse_int(parts[1], "node id", path, lineno)
        if u >= num_nodes or v >= num_nodes:
            raise DataError(
                f"{path}:{lineno}: edge ({u}, {v}) references a node with no feature line"
                f" (dangling id; {num_nodes} nodes known)"
            )
    elif kind == "labels":
        node = _parse_int(parts[0], "node id", path, lineno)
        _parse_int(parts[1], "class id", path, lineno, _INT64_END)
        if node >= num_nodes:
            raise DataError(f"{path}:{lineno}: label for unknown node {node} (dangling id)")
        if node in seen:
            raise DataError(f"{path}:{lineno}: duplicate label for node {node}")
    else:
        node = _parse_int(parts[0], "node id", path, lineno, _INT64_END)
        if node in seen:
            raise DataError(f"{path}:{lineno}: duplicate feature line for node {node}")
        ids = []
        for tok in parts[1].split():
            fid_tok, _, w_tok = tok.partition(":")
            ids.append(_parse_int(fid_tok, "feature id", path, lineno, _INT64_END))
            try:
                w = _weight(w_tok)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad feature weight {tok!r}") from None
            if not np.isfinite(w) or w <= 0:
                raise DataError(
                    f"{path}:{lineno}: weight must be finite and positive, got {w}"
                )
        if not ids:
            raise DataError(f"{path}:{lineno}: node {node} has an empty feature list")
        if len(set(ids)) != len(ids):
            raise DataError(f"{path}:{lineno}: duplicate feature id for node {node}")
    raise RuntimeError(f"{path}:{lineno}: flagged by the bulk checks, but no rule rejects it")


def _raise_first_fault(kind, path, linenos, lines, bad, num_nodes=0, nodes=None) -> None:
    """Report the first line that `bad` marks, if any, through `_check_line`."""
    if bad.any():
        k = int(np.argmax(bad))
        seen = set(nodes[:k].tolist()) if nodes is not None else ()
        _check_line(kind, path, linenos[k], lines[k], num_nodes, seen)


def _split_pairs(lines: list) -> tuple[list, list, np.ndarray]:
    """The two tab-separated fields of each line, and a mask of the lines that
    do not have exactly two (their fields read as empty)."""
    bad = np.fromiter(map(str.count, lines, itertools.repeat("\t")), np.int64, len(lines)) != 1
    if bad.any():
        lines = ["\t" if b else line for line, b in zip(lines, bad.tolist())]
    fields = "\t".join(lines).split("\t") if lines else []
    return fields[0::2], fields[1::2], bad


def _column(tokens: list, convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """`convert` of every token as one array, and a mask of the tokens it rejects
    with ValueError or whose value `dtype` cannot hold; those read as 0.

    An `int` column is parsed in C by `np.array(tokens, dtype)`, which accepts
    and rejects what `int()` does and raises OverflowError past int64; on any
    rejection the column is parsed again token by token to find which.
    """
    try:
        if convert is int:
            values = np.array(tokens, dtype=dtype)
        else:
            values = np.fromiter(map(convert, tokens), dtype, len(tokens))
        return values, np.zeros(len(tokens), bool)
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(tokens), dtype=dtype)
    bad = np.zeros(len(tokens), dtype=bool)
    for i, tok in enumerate(tokens):
        try:
            values[i] = convert(tok)
        except (ValueError, OverflowError):
            bad[i] = True
    return values, bad


def _parse_pairs(lines: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two integer fields of each `a<TAB>b` line, and a mask of the lines
    whose layout or integers do not parse."""
    first, second, bad = _split_pairs(lines)
    a, bad_a = _column(first, int, np.int64)
    b, bad_b = _column(second, int, np.int64)
    return a, b, bad | bad_a | bad_b


def _parse_features(lines: list) -> tuple:
    """(node ids, bag sizes, line faults, feature ids, weights, token faults) of
    `node<TAB>tok ...` lines; token arrays are flat, in file order."""
    node_toks, bags, bad = _split_pairs(lines)
    nodes, bad_node = _column(node_toks, int, np.int64)
    bag_toks = list(map(str.split, bags))
    sizes = np.fromiter(map(len, bag_toks), dtype=np.int64, count=len(bag_toks))
    toks = list(itertools.chain.from_iterable(bag_toks))
    if any(":" in bag for bag in bags):
        pieces = [tok.partition(":") for tok in toks]
        fids, bad_tok = _column([p[0] for p in pieces], int, np.int64)
        weights, bad_w = _column([p[2] for p in pieces], _weight, np.float64)
        bad_tok |= bad_w | ~np.isfinite(weights) | (weights <= 0)
    else:
        fids, bad_tok = _column(toks, int, np.int64)
        # loading peaks here: free the token list (8 bytes a token) before
        # the weights take its place
        del toks
        weights = np.ones(len(fids))
    return nodes, sizes, bad | bad_node, fids, weights, bad_tok


def _repeats(values: np.ndarray) -> np.ndarray:
    """Mask of the entries whose value already occurs at an earlier position."""
    order = np.argsort(values, kind="stable")
    rep = np.zeros(len(values), dtype=bool)
    rep[order[1:]] = values[order[1:]] == values[order[:-1]]
    return rep


def _load_features(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bag offsets, feature ids, weights) of a features file, bags in node order.

    Each line's ids are sorted in place, the lines of one size as one
    (lines, size) block (`size_groups`). An id repeated on a line sorts next
    to its twin under any sort, which is how such a line is found and
    rejected. Lines out of node order are then moved whole.
    """
    linenos, lines = _read_lines(path)
    nodes, sizes, bad, fids, weights, bad_tok = _parse_features(lines)
    # the lines' offsets into the flat arrays, which are the bags' offsets
    # when the lines are in node order
    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    bad |= (nodes < 0) | _repeats(nodes) | (sizes == 0)
    tok_line = np.repeat(np.arange(len(lines)), sizes)
    bad[tok_line[bad_tok | (fids < 0)]] = True
    for group in size_groups(sizes):
        pos = offsets[group, None] + np.arange(sizes[group[0]])
        pos_sorted = np.take_along_axis(pos, np.argsort(fids[pos], axis=1), axis=1)
        fids[pos], weights[pos] = fids[pos_sorted], weights[pos_sorted]
    repeated = (fids[1:] == fids[:-1]) & (tok_line[1:] == tok_line[:-1])
    bad[tok_line[1:][repeated]] = True
    _raise_first_fault("features", path, linenos, lines, bad, nodes=nodes)

    if not lines:
        raise DataError(f"{path}: no feature lines found")
    num_nodes = int(nodes.max()) + 1
    if num_nodes != len(lines):
        missing = int(np.argmax(np.sort(nodes) != np.arange(len(lines))))
        raise DataError(f"{path}: node {missing} has no feature line")
    if (np.diff(nodes) < 0).any():
        # nodes is a permutation of range(num_nodes): node u's line is line_of[u]
        line_of = np.empty(num_nodes, dtype=np.int64)
        line_of[nodes] = np.arange(num_nodes)
        bag_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(sizes[line_of], out=bag_offsets[1:])
        src = np.repeat(offsets[line_of] - bag_offsets[:-1], sizes[line_of])
        src += np.arange(len(fids))
        fids, weights, offsets = fids[src], weights[src], bag_offsets
    return offsets, fids, weights


def _load_edges(path: str, num_nodes: int) -> tuple[np.ndarray, int, int]:
    """`canonical_edges` of an edges file whose ids all lie below `num_nodes`."""
    linenos, lines = _read_lines(path)
    u, v, bad = _parse_pairs(lines)
    bad |= (np.minimum(u, v) < 0) | (np.maximum(u, v) >= num_nodes)
    _raise_first_fault("edges", path, linenos, lines, bad, num_nodes=num_nodes)
    return canonical_edges(np.column_stack([u, v]))


def _load_labels(path: str, num_nodes: int) -> np.ndarray:
    """(num_nodes,) classes of a labels file, -1 for a node it does not label."""
    # allocated before the file's temporaries, so it does not pin them in the heap
    labels = np.full(num_nodes, -1, dtype=np.int64)
    linenos, lines = _read_lines(path)
    labeled, classes, bad = _parse_pairs(lines)
    bad |= (np.minimum(labeled, classes) < 0) | (labeled >= num_nodes) | _repeats(labeled)
    _raise_first_fault("labels", path, linenos, lines, bad, num_nodes=num_nodes, nodes=labeled)
    labels[labeled] = classes
    return labels


def load_dataset(edges_path: str, features_path: str, labels_path: str) -> RawDataset:
    """Load and validate the three files; the features file defines the node universe.

    Each file is parsed into flat token arrays and checked as a whole; on a
    fault, the first faulty line in file order is reported with the message of
    the first rule it breaks (see `_check_line`). Each file is read by its own
    helper, so its lines and temporaries are freed before the next is read.

    No sort uses more than one key. The bags come out as a sort of all
    tokens by (node, feature id) would leave them: each line's ids are
    sorted within the line, and lines out of node order are then moved
    whole (`_load_features`); a valid line's ids are distinct, so the order
    is unique. Edges are ordered by `canonical_edges`, one sort by u and
    one sort of v within each run of equal u.
    """
    offsets, fids, weights = _load_features(features_path)
    num_nodes = len(offsets) - 1
    edges, n_self, n_dup = _load_edges(edges_path, num_nodes)
    labels = _load_labels(labels_path, num_nodes)
    num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0
    num_features = int(fids.max()) + 1
    diag = dict(
        self_loops_dropped=n_self,
        duplicate_edges_dropped=n_dup,
        num_nodes=num_nodes,
        num_features=num_features,
        num_classes=num_classes,
        num_edges=len(edges),
        num_labeled=int((labels >= 0).sum()),
    )
    return RawDataset(
        num_nodes=num_nodes,
        num_features=num_features,
        num_classes=num_classes,
        edges=edges,
        bag_offsets=offsets,
        bag_ids=fids,
        bag_weights=weights,
        labels=labels,
        diagnostics=diag,
    )


def write_dataset(ds: RawDataset, out_dir: str, meta: dict | None = None) -> dict:
    """Write canonical edges/features/labels files (and optional meta.json); returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "edges": os.path.join(out_dir, "edges.tsv"),
        "features": os.path.join(out_dir, "features.tsv"),
        "labels": os.path.join(out_dir, "labels.tsv"),
    }
    with open(paths["edges"], "w", encoding="utf-8", newline="\n") as fh:
        for u, v in ds.edges:
            fh.write(f"{u}\t{v}\n")
    with open(paths["features"], "w", encoding="utf-8", newline="\n") as fh:
        for u in range(ds.num_nodes):
            toks = (str(f) if w == 1.0 else f"{f}:{float(w)!r}" for f, w in zip(*ds.bag(u)))
            fh.write(f"{u}\t{' '.join(toks)}\n")
    with open(paths["labels"], "w", encoding="utf-8", newline="\n") as fh:
        for u in range(ds.num_nodes):
            if ds.labels[u] >= 0:
                fh.write(f"{u}\t{ds.labels[u]}\n")
    if meta is not None:
        paths["meta"] = os.path.join(out_dir, "meta.json")
        with open(paths["meta"], "w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return paths


def dataset_fingerprint(edges_path: str, features_path: str, labels_path: str) -> str:
    """SHA-256 over the three files' bytes, order-fixed; identifies dataset content."""
    h = hashlib.sha256()
    for path in (edges_path, features_path, labels_path):
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def split_sizes(n_labeled: int) -> tuple[int, int, int]:
    """80/10/10 with the rounding remainder assigned to train."""
    n_val = n_labeled // 10
    n_test = n_labeled // 10
    return n_labeled - n_val - n_test, n_val, n_test


def make_split(ds: RawDataset, seed: int) -> SplitAssignment:
    """Disjoint train/val/test over labeled nodes; unlabeled nodes stay out of every split."""
    labeled = ds.labeled_ids
    if len(labeled) < 10:
        raise DataError(f"need at least 10 labeled nodes to split, got {len(labeled)}")
    n_train, n_val, n_test = split_sizes(len(labeled))
    perm = stream_rng(seed, SPLIT).permutation(labeled)
    return SplitAssignment(
        train_ids=np.sort(perm[:n_train]),
        val_ids=np.sort(perm[n_train : n_train + n_val]),
        test_ids=np.sort(perm[n_train + n_val :]),
    )


def sample_features(ds: RawDataset, n_f: int, seed: int) -> FeatureSample:
    """Fixed-size feature sample per node; row u depends only on (seed, u, S_u).

    Slot j of node u's bag S_u (ascending ids) gets the key
    `counter_keys(seed, SAMPLE, u, j)`. |S| >= n_f: the n_f slots with the
    smallest keys, in key order, which is uniform sampling without
    replacement (random-key sampling; |S| == n_f is the whole set, order
    shuffled). |S| < n_f: all of S in key order, then slot j >= |S| fills
    with S[key(u, j) mod |S|], uniform with replacement up to a bias below
    |S| / 2**64.

    A node's keys are distinct (`counter_keys` is a bijection of the slot),
    so the key order within a bag is unique. It comes from one
    `argsort(axis=1)` per group of same-size bags (`size_groups`), which
    equals a sort by (node, key) over all slots. A sample too large to
    allocate raises DataError.
    """
    if n_f < 1:
        raise ValueError(f"n_f must be >= 1, got {n_f}")
    # the outputs are allocated before the temporaries: a long-lived block
    # allocated after them would pin the freed memory above it in the heap
    try:
        ids = np.empty((ds.num_nodes, n_f), dtype=np.int64)
        weights = np.empty((ds.num_nodes, n_f))
    except (MemoryError, ValueError):
        # MemoryError: the allocation failed; ValueError: its byte count overflows
        raise DataError(f"cannot allocate the feature sample: n_f is {n_f} for "
                        f"{ds.num_nodes} nodes") from None
    sizes = np.diff(ds.bag_offsets)
    for nodes in size_groups(sizes):
        size = int(sizes[nodes[0]])
        node = nodes[:, None]
        start = ds.bag_offsets[node]
        keys = counter_keys(seed, SAMPLE, node, np.arange(size))
        pick = start + np.argsort(keys, axis=1)[:, :n_f]
        if size < n_f:
            fill_key = counter_keys(seed, SAMPLE, node, np.arange(size, n_f))
            pick = np.concatenate(
                [pick, start + (fill_key % np.uint64(size)).astype(np.int64)], axis=1
            )
        ids[nodes] = ds.bag_ids[pick]
        weights[nodes] = ds.bag_weights[pick]
    return FeatureSample(ids=ids, weights=weights)


# --- synthetic generators -------------------------------------------------

SYNTH_KINDS = ("local-signal", "global-signal", "homophily")


def generate_synthetic(
    kind: str,
    n_nodes: int,
    n_feats: int,
    n_classes: int,
    n_f: int,
    p_in: float,
    p_out: float,
    seed: int,
) -> RawDataset:
    """Synthetic dataset with SBM edges keyed to the label.

    local-signal: each node carries two planted signal features; the label is
    the sum of their hidden keys mod n_classes (pairwise-interaction signal,
    single-feature marginals are class-uniform). global-signal: 70% of each
    node's features come from a pair of feature groups; the label is the pair's
    key sum mod n_classes. homophily: labels uniform, features uniform (only
    the graph is informative).
    """
    if kind not in SYNTH_KINDS:
        raise DataError(f"unknown synthetic kind {kind!r}; choose from {SYNTH_KINDS}")
    if n_nodes < 10 or n_classes < 2 or n_f < 1:
        raise DataError("need n_nodes >= 10, n_classes >= 2, n_f >= 1")
    if not (0.0 <= p_out <= 1.0 and 0.0 <= p_in <= 1.0):
        raise DataError("edge probabilities must lie in [0, 1]")
    rng = stream_rng(seed, SYNTH)

    if kind == "local-signal":
        labels, fids = _local_signal_features(n_nodes, n_feats, n_classes, n_f, rng)
    elif kind == "global-signal":
        labels, fids = _global_signal_features(n_nodes, n_feats, n_classes, n_f, rng)
    else:
        labels = rng.integers(0, n_classes, size=n_nodes).astype(np.int64)
        if n_feats < n_f:
            raise DataError(f"homophily needs n_feats >= n_f, got {n_feats} < {n_f}")
        fids = [np.sort(rng.choice(n_feats, size=n_f, replace=False)) for _ in range(n_nodes)]

    edges = _sbm_edges(labels, n_classes, p_in, p_out, rng)
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum([len(f) for f in fids], out=offsets[1:])
    bag_ids = np.concatenate(fids)
    return RawDataset(
        num_nodes=n_nodes,
        num_features=n_feats,
        num_classes=n_classes,
        edges=edges,
        bag_offsets=offsets,
        bag_ids=bag_ids,
        bag_weights=np.ones(len(bag_ids)),
        labels=labels,
        diagnostics={"kind": kind, "seed": seed},
    )


def _local_signal_features(n_nodes, n_feats, n_classes, n_f, rng):
    n_signal = 2 * n_classes  # two features per hidden key
    if n_signal > n_feats:
        raise DataError(
            f"local-signal needs n_feats >= 2*n_classes, got {n_feats} < {n_signal}"
        )
    n_noise_per_node = max(n_f - 2, 0)
    if n_feats - n_signal < n_noise_per_node:
        raise DataError(
            "local-signal noise pool too small: need n_feats >= 2*n_classes + n_f - 2"
        )
    labels = np.empty(n_nodes, dtype=np.int64)
    fids = []
    for u in range(n_nodes):
        # hidden key of feature x is x mod n_classes; drawing the partner KEY
        # uniformly makes the label exactly independent of any single feature
        f = int(rng.integers(0, n_signal))
        key_g = int(rng.integers(0, n_classes))
        twin = (f + n_classes) % n_signal  # the other feature with f's key
        g = key_g + n_classes * int(rng.integers(0, 2))
        if g == f:
            g = twin
        labels[u] = (f + g) % n_classes
        noise = rng.choice(n_feats - n_signal, size=n_noise_per_node, replace=False) + n_signal
        fids.append(np.sort(np.concatenate([[f, g], noise])).astype(np.int64))
    return labels, fids


def _global_signal_features(n_nodes, n_feats, n_classes, n_f, rng):
    # four carrier groups per hidden key (key of group x is x mod n_classes);
    # the label is the key sum of two co-occurring groups, with the partner
    # key drawn uniformly so any single group is label-uniform on its own
    n_groups = 4 * n_classes
    group_size = int(0.7 * n_feats) // n_groups
    if group_size < 2:
        raise DataError(
            f"global-signal needs n_feats large enough for {n_groups} groups, got {n_feats}"
        )
    noise_lo = n_groups * group_size
    n_sig = max(int(round(0.7 * n_f)), 2)
    n_noise = n_f - n_sig
    if n_feats - noise_lo < max(n_noise, 1):
        raise DataError("global-signal noise pool too small")
    labels = np.empty(n_nodes, dtype=np.int64)
    fids = []
    for u in range(n_nodes):
        g = int(rng.integers(0, n_groups))
        key_h = int(rng.integers(0, n_classes))
        cands = [x for x in range(n_groups) if x % n_classes == key_h and x != g]
        h = cands[int(rng.integers(0, len(cands)))]
        # one group contributes a single feature: the pair is near-invisible
        # to a mean over the bag but plain to per-feature detectors
        n_g = 1 if int(rng.integers(0, 2)) else n_sig - 1
        n_g = min(max(n_g, n_sig - group_size), group_size)
        sig_g = rng.choice(group_size, size=n_g, replace=False) + g * group_size
        sig_h = rng.choice(group_size, size=n_sig - n_g, replace=False) + h * group_size
        noise = rng.choice(n_feats - noise_lo, size=n_noise, replace=False) + noise_lo
        labels[u] = (g + h) % n_classes
        fids.append(np.sort(np.concatenate([sig_g, sig_h, noise])).astype(np.int64))
    return labels, fids


def _decode_triangular(idx: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices over {(i, j): 0 <= i < j < k} back to pairs."""
    counts = np.arange(k - 1, 0, -1, dtype=np.int64)
    ends = np.cumsum(counts)
    i = np.searchsorted(ends, idx, side="right")
    starts = ends - counts
    j = i + 1 + (idx - starts[i])
    return i, j


def _sbm_edges(labels, n_classes, p_in, p_out, rng) -> np.ndarray:
    """Stochastic block model keyed to labels, sampled per block pair via binomial counts."""
    blocks = [np.flatnonzero(labels == c) for c in range(n_classes)]
    chunks = []
    for a in range(n_classes):
        na = len(blocks[a])
        # within-block pairs
        m = na * (na - 1) // 2
        if m > 0 and p_in > 0:
            cnt = rng.binomial(m, p_in)
            if cnt:
                idx = rng.choice(m, size=cnt, replace=False)
                i, j = _decode_triangular(np.sort(idx), na)
                chunks.append(np.column_stack([blocks[a][i], blocks[a][j]]))
        for b in range(a + 1, n_classes):
            nb = len(blocks[b])
            m = na * nb
            if m > 0 and p_out > 0:
                cnt = rng.binomial(m, p_out)
                if cnt:
                    idx = np.sort(rng.choice(m, size=cnt, replace=False))
                    i, j = idx // nb, idx % nb
                    chunks.append(np.column_stack([blocks[a][i], blocks[b][j]]))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return canonical_edges(np.concatenate(chunks))[0]
