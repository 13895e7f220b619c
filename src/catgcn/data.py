"""Dataset loading, canonical writing, splits, feature sampling, synthetic generators.

File formats (UTF-8, LF, tab-separated, `#` comment lines ignored):
  edges.tsv     u<TAB>v            undirected, 0-based node ids
  features.tsv  node<TAB>tok ...   tok is `id` or `id:weight`; one line per node
  labels.tsv    node<TAB>class     nodes may be missing (unlabeled)

The loader parses each file from its bytes (`_scan`), in windows of whole
lines of about `SETUP_CHUNK_BYTES`: numpy finds the line breaks, TABs and
spaces, and builds the value of every field of 1 to 18 ASCII digits with one
pass per digit position. A line with any other field (a sign,
`_`, non-ASCII digits, surrounding whitespace, 19 digits or more, a
`:weight`, or a bag split at other whitespace) is parsed from its text by
`_parse_line`, the one owner of the line grammar and its messages, so each file
is accepted or rejected as it would be line by line.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .graph import canonical_edges, is_unit, unit_values
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
    # float64, finite and positive; `unit_values` (read-only, 8 bytes) when all are 1.0
    bag_weights: np.ndarray
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
    """Fixed-size per-node feature sample: ids and weights, both (N, n_f).

    The weights are `unit_values`, read-only, when the bags' weights are.
    """

    ids: np.ndarray
    weights: np.ndarray


def read_text(path: str) -> bytes:
    """The file's bytes, checked to be UTF-8 text; an all-ASCII file is."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.isascii():
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: byte {exc.start} "
                            f"({blob[exc.start]:#04x}): {exc.reason}") from None
    return blob


@dataclass(frozen=True)
class _Lines:
    """The non-blank, non-comment lines of a UTF-8 file, as byte bounds into its bytes."""

    blob: bytes
    start: np.ndarray  # int64, each line's first byte
    end: np.ndarray  # int64, one past each line's last byte
    lineno: np.ndarray  # int64, 1-based line numbers in the file

    def __len__(self) -> int:
        return len(self.start)

    def text(self, k: int) -> str:
        return self.blob[self.start[k]:self.end[k]].decode("utf-8")


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


# ids the node and feature tables are indexed by, and classes, must fit int64;
# edge and label node ids beyond the node count are dangling instead
_INT64_END = 1 << 63
_LAYOUT = {"features": "node<TAB>features", "edges": "u<TAB>v", "labels": "node<TAB>class"}


def _parse_line(kind: str, path: str, lineno: int, line: str, num_nodes: int,
                seen=()) -> tuple[int, list, list]:
    """(head, tail ids, tail weights) of `line` of a `kind` file, or the DataError
    of the first per-line rule it breaks.

    `seen` holds the node ids of the file's earlier lines; `num_nodes` bounds
    the ids in edges and labels. `load_dataset` parses the lines `_scan` leaves
    with this, without `seen`, checks whole files in bulk and calls it again,
    with `seen`, for the first faulty line only, so the rules' order here is the
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
        return u, [v], [1.0]
    if kind == "labels":
        node = _parse_int(parts[0], "node id", path, lineno)
        cls = _parse_int(parts[1], "class id", path, lineno, _INT64_END)
        if node >= num_nodes:
            raise DataError(f"{path}:{lineno}: label for unknown node {node} (dangling id)")
        if node in seen:
            raise DataError(f"{path}:{lineno}: duplicate label for node {node}")
        return node, [cls], [1.0]
    node = _parse_int(parts[0], "node id", path, lineno, _INT64_END)
    if node in seen:
        raise DataError(f"{path}:{lineno}: duplicate feature line for node {node}")
    ids, weights = [], []
    for tok in parts[1].split():
        fid_tok, _, w_tok = tok.partition(":")
        ids.append(_parse_int(fid_tok, "feature id", path, lineno, _INT64_END))
        try:
            w = float(w_tok) if w_tok else 1.0
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad feature weight {tok!r}") from None
        if not math.isfinite(w) or w <= 0:
            raise DataError(f"{path}:{lineno}: weight must be finite and positive, got {w}")
        weights.append(w)
    if not ids:
        raise DataError(f"{path}:{lineno}: node {node} has an empty feature list")
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}:{lineno}: duplicate feature id for node {node}")
    return node, ids, weights


def _raise_first_fault(kind, path, lines, bad, num_nodes=0, nodes=None) -> None:
    """Report the first line that `bad` marks, if any, through `_parse_line`."""
    if bad.any():
        k = int(np.argmax(bad))
        seen = set(nodes[:k].tolist()) if nodes is not None else ()
        lineno = int(lines.lineno[k])
        _parse_line(kind, path, lineno, lines.text(k), num_nodes, seen)
        raise RuntimeError(f"{path}:{lineno}: flagged by the bulk checks, but no rule rejects it")


# a run of at most 18 ASCII digits is below 10**18, so its value fits int64
_PLAIN_DIGITS = 18
_TAB, _LF, _CR, _SPACE, _HASH = 9, 10, 13, 32, 35

# byte budget of one window of the set-up loops: `_scan` parses at most this
# many file bytes at a time, and the bag sorts of `_load_features` and
# `sample_features` take as many bags of one size at a time as keep an int64
# (bags, width) array within it. At the 100k-node eval inputs (10 MB of files)
# windows took the load's peak RSS from 111 to 86 MB and `catgcn eval`'s from
# 124-132 to 103-111 MB (by checkout path), which later phases now set
SETUP_CHUNK_BYTES = 1 << 20


def _bag_blocks(sizes: np.ndarray, min_width: int):
    """(size, bags) of each block of bags of one size, ascending, whose int64
    (bags, max(size, min_width)) arrays stay within `SETUP_CHUNK_BYTES`, each
    block at least one bag: one sort along axis 1 sorts every bag of a block."""
    by_size = np.argsort(sizes, kind="stable")
    for group in np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1):
        size = int(sizes[group[0]]) if len(group) else 0
        step = max(1, SETUP_CHUNK_BYTES // (8 * max(size, min_width)))
        for i in range(0, len(group), step):
            yield size, group[i:i + step]


def _scan(path: str, bag: bool) -> tuple:
    """(lines, plain, heads, tails, sizes) of a `head<TAB>tail` file, parsed from its bytes.

    Lines split where `readlines()` with `newline=""` splits them, at LF, CRLF
    and a lone CR, and keep what `rstrip("\n")` keeps, so a CR stays in its
    line; blank and `#` lines are dropped. A line is `plain` if its head is one
    field of 1 to 18 ASCII digits and its tail is one such field or, for a
    `bag`, any number of them between spaces. For the plain lines, `heads`
    holds the heads' values, `tails` the tail fields' values in file order and
    `sizes` how many tail fields each line has. Every other line (signs,
    non-ASCII, other whitespace, longer digit runs, `:weight`) is left to
    `_parse_line`.

    The bytes are parsed in windows of at most `SETUP_CHUNK_BYTES`, each ending
    just after an LF (a longer line is a window of its own, and so is a file
    with no LF, such as one with CR line ends), so no window splits a line and
    the per-byte temporaries stay window-sized; line numbers and byte offsets
    carry over from one window to the next.
    """
    blob = read_text(path)
    # the windows' (start, end, lineno, plain, heads, tails, sizes), one list each
    parts = [[] for _ in range(7)]
    lo, lines_before = 0, 0
    for hi in _window_ends(blob):
        b = np.frombuffer(blob, dtype=np.uint8, count=hi - lo, offset=lo)
        start, end, lineno, *rest, n_lines = _scan_window(b, bag)
        for part, array in zip(parts, (start + lo, end + lo, lineno + lines_before, *rest)):
            part.append(array)
        lo, lines_before = hi, lines_before + n_lines
    for i, pieces in enumerate(parts):
        parts[i] = np.concatenate(pieces)  # a field's pieces are freed once it is joined
    start, end, lineno, plain, heads, tails, sizes = parts
    return _Lines(blob, start, end, lineno), plain, heads, tails, sizes


def _window_ends(blob: bytes):
    """The end of each window `_scan` parses: at most `SETUP_CHUNK_BYTES` past
    its start, just after the window's last LF, or just after the line's LF
    when one line is longer; the last window ends at the end of the file."""
    lo = 0
    while lo + SETUP_CHUNK_BYTES < len(blob):
        cut = blob.rfind(b"\n", lo, lo + SETUP_CHUNK_BYTES)
        if cut < 0:
            cut = blob.find(b"\n", lo + SETUP_CHUNK_BYTES)
            if cut < 0:
                break
        lo = cut + 1
        yield lo
    yield len(blob)


def _scan_window(b: np.ndarray, bag: bool) -> tuple:
    """`_scan` of the bytes `b` of whole lines: (start, end, lineno, plain, heads,
    tails, sizes, line count), bytes and line numbers counted from `b`'s start."""
    # every byte that is not an ASCII digit, then the end of the bytes read as an LF
    at = np.flatnonzero((b - np.uint8(48)) > 9)
    pos = np.append(at, len(b))
    byte = np.append(b[at], np.uint8(_LF))
    del at
    lf, cr = byte == _LF, byte == _CR
    crlf = np.zeros(len(pos), dtype=bool)  # the LF of each CRLF
    crlf[1:] = cr[:-1] & lf[1:] & (pos[1:] == pos[:-1] + 1)
    last = np.flatnonzero(lf | cr & ~np.append(crlf[1:], False))  # each line's terminator
    first = np.concatenate(([0], last[:-1] + 1))
    start = np.concatenate(([0], pos[last[:-1]] + 1))
    end = pos[last] + cr[last]
    kept = end > start
    kept[kept] = b[start[kept]] != _HASH
    # the digits before each non-digit byte, capped past the plain limit
    run = np.diff(pos, prepend=-1)
    run -= 1
    np.minimum(run, _PLAIN_DIGITS + 1, out=run)
    run = run.astype(np.uint8)
    is_first = np.zeros(len(pos), dtype=bool)
    is_first[first] = True
    # a CR is always its line's last byte, and int() and str.split() both
    # ignore it there, so it bounds a plain field like the line end does
    fault = (byte != _TAB) & ~lf & ~cr
    if bag:
        fault &= byte != _SPACE
    fault |= (byte == _TAB) != is_first
    fault |= run > _PLAIN_DIGITS
    # an empty field: in a bag only the head, as a bag's fields lie between
    # runs of spaces; elsewhere any but the LF of a CRLF, whose CR ends the field
    empty = run == 0
    empty &= is_first if bag else ~crlf
    fault |= empty
    plain = ~np.logical_or.reduceat(fault, first) & kept
    del fault, empty, lf, cr, crlf, byte
    tail = np.repeat(plain, np.diff(last, prepend=-1))
    tail &= ~is_first
    tail &= run > 0
    sizes = np.add.reduceat(tail, first, dtype=np.int64)[plain]
    tail = np.flatnonzero(tail)
    tails = _digit_values(b, pos[tail] - run[tail], run[tail])
    head = first[plain]
    heads = _digit_values(b, pos[head] - run[head], run[head])
    # the end of the bytes ends one more line, empty when they end with an LF
    return (start[kept], end[kept], np.flatnonzero(kept) + 1, plain[kept], heads, tails, sizes,
            len(last) - 1)


def _digit_values(b: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """int64 values of the runs of `lengths` (1 to 18) ASCII digits at `starts` of `b`:
    one pass per digit position makes `value * 10 + digit` of the runs still that long."""
    values = np.zeros(len(starts), dtype=np.int64)
    at = starts.copy()
    for k in range(int(lengths.max(initial=0))):
        live = lengths > k
        digit = np.take(b, at, mode="clip")
        digit -= 48
        np.multiply(values, 10, out=values, where=live)
        np.add(values, digit, out=values, where=live)
        at += 1
    return values


def _merge(plain: np.ndarray, plain_values: np.ndarray, odd_values: np.ndarray) -> np.ndarray:
    """One array, in file order, of the plain entries' values and the others'."""
    if len(odd_values) == 0:
        return plain_values
    out = np.empty(len(plain), dtype=plain_values.dtype)
    out[plain] = plain_values
    out[~plain] = odd_values
    return out


def _parse(kind: str, path: str, num_nodes: int = 0) -> tuple:
    """(lines, heads, tail sizes, line faults, tail ids, tail weights) of a `kind`
    file; tail arrays are flat, in file order, and weights are only read for
    features (None otherwise), as `unit_values` when every token's is 1.0. A
    line `_parse_line` rejects is marked faulty and reads as one head 0 and
    one tail 0."""
    bag = kind == "features"
    lines, plain, heads, tails, sizes = _scan(path, bag)
    odd = np.flatnonzero(~plain)
    odd_heads, odd_sizes = np.zeros(len(odd), dtype=np.int64), np.ones(len(odd), dtype=np.int64)
    odd_bad = np.zeros(len(odd), dtype=bool)
    odd_tails, odd_weights = [], []
    for i, k in enumerate(odd.tolist()):
        try:
            head, ids, weights = _parse_line(kind, path, int(lines.lineno[k]), lines.text(k),
                                             num_nodes)
        except DataError:
            head, ids, weights = 0, [0], [1.0]
            odd_bad[i] = True
        odd_heads[i], odd_sizes[i] = head, len(ids)
        odd_tails += ids
        odd_weights += weights
    sizes = _merge(plain, sizes, odd_sizes)
    plain_tok = np.repeat(plain, sizes)
    weights = None
    if bag:
        # one weight per token of every line, plain or not
        weights = (unit_values(len(plain_tok)) if all(w == 1.0 for w in odd_weights) else
                   _merge(plain_tok, np.ones(len(tails)), np.array(odd_weights)))
    return (lines, _merge(plain, heads, odd_heads), sizes,
            _merge(plain, np.zeros(len(heads), dtype=bool), odd_bad),
            _merge(plain_tok, tails, np.array(odd_tails, dtype=np.int64)), weights)


def _repeats(values: np.ndarray) -> np.ndarray:
    """Mask of the entries whose value already occurs at an earlier position."""
    order = np.argsort(values, kind="stable")
    rep = np.zeros(len(values), dtype=bool)
    rep[order[1:]] = values[order[1:]] == values[order[:-1]]
    return rep


def _load_features(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bag offsets, feature ids, weights) of a features file, bags in node order.

    Each line's ids are sorted in place, the lines of one size as (lines,
    size) blocks (`_bag_blocks`). An id repeated on a line
    sorts next to its twin under any sort, which is how such a line is found
    and rejected. Lines out of node order are then moved whole, in windows
    (`_move_lines`), once the file's bytes are freed. Weights that are
    `unit_values` stay so, and are neither sorted nor moved.
    """
    lines, nodes, sizes, bad, fids, weights = _parse("features", path)
    unit = is_unit(weights)
    # the lines' offsets into the flat arrays, which are the bags' offsets
    # when the lines are in node order
    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    bad |= _repeats(nodes) | (sizes == 0)
    for size, block in _bag_blocks(sizes, 1):
        pos = offsets[block, None] + np.arange(size)
        pos_sorted = np.take_along_axis(pos, np.argsort(fids[pos], axis=1), axis=1)
        block_ids = fids[pos_sorted]
        fids[pos] = block_ids
        if not unit:
            weights[pos] = weights[pos_sorted]
        bad[block[(block_ids[:, 1:] == block_ids[:, :-1]).any(axis=1)]] = True
    _raise_first_fault("features", path, lines, bad, nodes=nodes)

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
        # the file's bytes and per-line arrays are freed before the bags are copied
        del lines, nodes, bad
        sizes, line_offsets = sizes[line_of], offsets[line_of]
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        fids = _move_lines(fids, line_offsets, offsets, sizes)
        if not unit:
            weights = _move_lines(weights, line_offsets, offsets, sizes)
    return offsets, fids, weights


def _move_lines(flat, line_offsets, bag_offsets, sizes):
    """A copy of `flat` with node u's `sizes[u]` entries, at `line_offsets[u]`,
    moved to `bag_offsets[u]`.

    The lines move in runs of nodes of about `SETUP_CHUNK_BYTES` of int64
    source positions (a longer line is a run of its own), so beyond the copy
    only window-sized temporaries are allocated.
    """
    out = np.empty_like(flat)
    step = SETUP_CHUNK_BYTES // 8
    lo = 0
    while lo < len(sizes):
        # the last node whose entries still end within the window, or the next node
        hi = max(lo + 1, int(np.searchsorted(bag_offsets, bag_offsets[lo] + step,
                                             side="right")) - 1)
        src = np.repeat(line_offsets[lo:hi] - bag_offsets[lo:hi], sizes[lo:hi])
        src += np.arange(bag_offsets[lo], bag_offsets[hi])
        out[bag_offsets[lo]:bag_offsets[hi]] = flat[src]
        lo = hi
    return out


def _load_edges(path: str, num_nodes: int) -> tuple[np.ndarray, int, int]:
    """`canonical_edges` of an edges file whose ids all lie below `num_nodes`."""
    lines, u, _, bad, v, _ = _parse("edges", path, num_nodes)
    bad |= np.maximum(u, v) >= num_nodes
    _raise_first_fault("edges", path, lines, bad, num_nodes=num_nodes)
    # the file's bytes and per-line positions are freed before the edges are copied
    del lines, bad
    return canonical_edges(u, v, num_nodes)


def _load_labels(path: str, num_nodes: int) -> np.ndarray:
    """(num_nodes,) classes of a labels file, -1 for a node it does not label."""
    # allocated before the file's temporaries, so it does not pin them in the heap
    labels = np.full(num_nodes, -1, dtype=np.int64)
    lines, labeled, _, bad, classes, _ = _parse("labels", path, num_nodes)
    bad |= (labeled >= num_nodes) | _repeats(labeled)
    _raise_first_fault("labels", path, lines, bad, num_nodes=num_nodes, nodes=labeled)
    labels[labeled] = classes
    return labels


def load_dataset(edges_path: str, features_path: str, labels_path: str) -> RawDataset:
    """Load and validate the three files; the features file defines the node universe.

    Each file is read as bytes, checked to be UTF-8, parsed into flat arrays
    (`_scan`: plain digit fields by numpy, other lines by `_parse_line`) and
    checked as a whole; on a fault, the first faulty line in file order is
    reported with the message of the first rule it breaks (see `_parse_line`).
    Each file is read by its own helper, so its bytes and temporaries are freed
    before the next is read.

    No sort uses more than one key. The bags come out as a sort of all
    tokens by (node, feature id) would leave them: each line's ids are
    sorted within the line, and lines out of node order are then moved
    whole (`_load_features`); a valid line's ids are distinct, so the order
    is unique. Edges are ordered by `canonical_edges`, one sort of the
    int64 keys `u * num_nodes + v`.
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
    """SHA-256 over the three files' bytes, order-fixed; identifies dataset content.

    `hashlib` loads OpenSSL's libcrypto, which only `catgcn train` needs (for
    its manifest), so it is imported here rather than with the module.
    """
    import hashlib

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
    """Disjoint train/val/test over labeled nodes; unlabeled nodes stay out of every split.

    A random-key shuffle: the labeled ids in the order of their keys
    `counter_keys(seed, SPLIT, id, 0)`, cut at `split_sizes`. Keys of distinct
    ids are distinct, so the order is unique.
    """
    labeled = ds.labeled_ids
    if len(labeled) < 10:
        raise DataError(f"need at least 10 labeled nodes to split, got {len(labeled)}")
    n_train, n_val, n_test = split_sizes(len(labeled))
    perm = labeled[np.argsort(counter_keys(seed, SPLIT, labeled, 0))]
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
    `argsort(axis=1)` per block of same-size bags (`_bag_blocks`, whose
    (bags, max(|S|, n_f)) arrays fit `SETUP_CHUNK_BYTES`), which equals a
    sort by (node, key) over all slots.
    A sample too large to allocate raises DataError. Bags whose weights are
    `unit_values` give `unit_values` sample weights, and no weight is gathered.
    """
    if n_f < 1:
        raise ValueError(f"n_f must be >= 1, got {n_f}")
    unit = is_unit(ds.bag_weights)
    # the outputs are allocated before the temporaries: a long-lived block
    # allocated after them would pin the freed memory above it in the heap
    try:
        ids = np.empty((ds.num_nodes, n_f), dtype=np.int64)
        weights = unit_values((ds.num_nodes, n_f)) if unit else np.empty((ds.num_nodes, n_f))
    except (MemoryError, ValueError):
        # MemoryError: the allocation failed; ValueError: its byte count overflows
        raise DataError(f"cannot allocate the feature sample: n_f is {n_f} for "
                        f"{ds.num_nodes} nodes") from None
    sizes = np.diff(ds.bag_offsets)
    for size, nodes in _bag_blocks(sizes, n_f):
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
        if not unit:
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
    the graph is informative). Arguments out of range raise ValueError.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; choose from {SYNTH_KINDS}")
    if n_nodes < 10 or n_classes < 2 or n_f < 1:
        raise ValueError("need n_nodes >= 10, n_classes >= 2, n_f >= 1")
    if not (0.0 <= p_out <= 1.0 and 0.0 <= p_in <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    rng = stream_rng(seed, SYNTH)

    if kind == "local-signal":
        labels, fids = _local_signal_features(n_nodes, n_feats, n_classes, n_f, rng)
    elif kind == "global-signal":
        labels, fids = _global_signal_features(n_nodes, n_feats, n_classes, n_f, rng)
    else:
        labels = rng.integers(0, n_classes, size=n_nodes).astype(np.int64)
        if n_feats < n_f:
            raise ValueError(f"homophily needs n_feats >= n_f, got {n_feats} < {n_f}")
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
        bag_weights=unit_values(len(bag_ids)),
        labels=labels,
        diagnostics={"kind": kind, "seed": seed},
    )


def _local_signal_features(n_nodes, n_feats, n_classes, n_f, rng):
    n_signal = 2 * n_classes  # two features per hidden key
    if n_signal > n_feats:
        raise ValueError(
            f"local-signal needs n_feats >= 2*n_classes, got {n_feats} < {n_signal}"
        )
    n_noise_per_node = max(n_f - 2, 0)
    if n_feats - n_signal < n_noise_per_node:
        raise ValueError(
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
        raise ValueError(
            f"global-signal needs n_feats large enough for {n_groups} groups, got {n_feats}"
        )
    noise_lo = n_groups * group_size
    n_sig = max(int(round(0.7 * n_f)), 2)
    n_noise = n_f - n_sig
    if n_feats - noise_lo < max(n_noise, 1):
        raise ValueError("global-signal noise pool too small")
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
    us, vs = [], []
    for a in range(n_classes):
        na = len(blocks[a])
        # within-block pairs
        m = na * (na - 1) // 2
        if m > 0 and p_in > 0:
            cnt = rng.binomial(m, p_in)
            if cnt:
                idx = rng.choice(m, size=cnt, replace=False)
                i, j = _decode_triangular(np.sort(idx), na)
                us.append(blocks[a][i])
                vs.append(blocks[a][j])
        for b in range(a + 1, n_classes):
            nb = len(blocks[b])
            m = na * nb
            if m > 0 and p_out > 0:
                cnt = rng.binomial(m, p_out)
                if cnt:
                    idx = np.sort(rng.choice(m, size=cnt, replace=False))
                    i, j = idx // nb, idx % nb
                    us.append(blocks[a][i])
                    vs.append(blocks[b][j])
    if not us:
        return np.empty((0, 2), dtype=np.int64)
    return canonical_edges(np.concatenate(us), np.concatenate(vs), len(labels))[0]
