"""Properties of the bulk data path: the keyed feature sampler, the loader and
edge canonicalization.

The loader is compared against `loader_oracle.load_dataset`, the per-line
loader it replaced, on generated valid files (equal datasets) and on files
with injected faults (same exception type and message); `canonical_edges`
against the oracle's `np.unique` canonicalization.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catgcn.data import DataError, RawDataset, load_dataset, sample_features
from catgcn.graph import canonical_edges
from loader_oracle import _canonical_edges as oracle_canonical_edges
from loader_oracle import load_dataset as oracle_load_dataset

SETTINGS = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def make_dataset(bags) -> RawDataset:
    """A dataset over the given per-node bags; weight of id f is 1 + f / 8, so a
    sampled weight shows which id it came with."""
    ids = np.concatenate([sorted(b) for b in bags]).astype(np.int64)
    offsets = np.zeros(len(bags) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in bags], out=offsets[1:])
    return RawDataset(
        num_nodes=len(bags),
        num_features=int(ids.max()) + 1,
        num_classes=0,
        edges=np.empty((0, 2), dtype=np.int64),
        bag_offsets=offsets,
        bag_ids=ids,
        bag_weights=1.0 + ids / 8.0,
        labels=np.full(len(bags), -1, dtype=np.int64),
    )


bag = st.sets(st.integers(0, 59), min_size=1, max_size=12)
bags = st.lists(bag, min_size=1, max_size=20)
seeds = st.integers(0, 2**63 - 1)


# --- sampler ----------------------------------------------------------------

@SETTINGS
@given(bags=bags, n_f=st.integers(1, 10), seed=seeds)
def test_sample_rows_come_from_their_bag(bags, n_f, seed):
    ds = make_dataset(bags)
    sample = sample_features(ds, n_f, seed)
    assert sample.ids.shape == sample.weights.shape == (ds.num_nodes, n_f)
    assert np.array_equal(sample.weights, 1.0 + sample.ids / 8.0)
    for u, s in enumerate(bags):
        row = sample.ids[u].tolist()
        if len(s) >= n_f:
            assert len(set(row)) == n_f and set(row) <= s  # distinct, without replacement
        else:
            assert sorted(row[: len(s)]) == sorted(s)  # all of S first
            assert set(row[len(s):]) <= s  # fill from S only


@SETTINGS
@given(bags=bags, n_f=st.integers(1, 10), seed=seeds)
def test_sample_deterministic_per_seed(bags, n_f, seed):
    ds = make_dataset(bags)
    a, b = sample_features(ds, n_f, seed), sample_features(ds, n_f, seed)
    assert np.array_equal(a.ids, b.ids) and np.array_equal(a.weights, b.weights)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, other=seeds)
def test_sample_changes_with_seed(seed, other):
    # 200 nodes of 10 ids, n_f=5: two seeds agree on every ordered row with
    # probability (1/30240)**200, i.e. never
    ds = make_dataset([set(range(u % 7, u % 7 + 10)) for u in range(200)])
    if seed != other:
        assert not np.array_equal(sample_features(ds, 5, seed).ids,
                                  sample_features(ds, 5, other).ids)


@SETTINGS
@given(bags=bags, n_f=st.integers(1, 10), seed=seeds, data=st.data())
def test_sample_row_depends_only_on_its_bag(bags, n_f, seed, data):
    u = data.draw(st.integers(0, len(bags) - 1))
    changed = [b if v == u else data.draw(bag) for v, b in enumerate(bags)]
    appended = changed + data.draw(st.lists(bag, max_size=5))
    before = sample_features(make_dataset(bags), n_f, seed)
    after = sample_features(make_dataset(appended), n_f, seed)
    assert np.array_equal(before.ids[u], after.ids[u])
    assert np.array_equal(before.weights[u], after.weights[u])


def test_sample_inclusion_frequency():
    # 20000 nodes share S = {0..7}; each id's inclusion frequency estimates
    # n_f/|S| = 0.375 with standard error sqrt(0.375 * 0.625 / 20000) = 0.0034,
    # and the first column estimates 1/|S| = 0.125 with standard error 0.0023.
    # The bounds are about six standard errors.
    n, size, n_f = 20_000, 8, 3
    ds = make_dataset([set(range(size))] * n)
    ids = sample_features(ds, n_f, seed=2024).ids
    included = np.bincount(ids.ravel(), minlength=size) / n
    assert np.abs(included - n_f / size).max() < 0.02
    first = np.bincount(ids[:, 0], minlength=size) / n
    assert np.abs(first - 1 / size).max() < 0.014
    # short bags: |S| = 3, n_f = 7; the 4 fill slots per node draw each id with
    # probability 1/3 (standard error sqrt(2/9 / 80000) = 0.0017)
    short = sample_features(make_dataset([{0, 1, 2}] * n), 7, seed=2024).ids[:, 3:]
    fill = np.bincount(short.ravel(), minlength=3) / short.size
    assert np.abs(fill - 1 / 3).max() < 0.01


# --- edge canonicalization against the oracle's ------------------------------

pairs = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40)


@SETTINGS
@given(edges=pairs, data=st.data())
def test_canonical_edges_matches_oracle(edges, data):
    # a small id range makes self loops and repeats common; append some
    # drawn pairs again, reversed or not, so repeats also come in both orders
    again = data.draw(st.lists(st.tuples(st.sampled_from(edges), st.booleans()),
                               max_size=10)) if edges else []
    again = [(v, u) if flip else (u, v) for (u, v), flip in again]
    raw = np.array(edges + again, dtype=np.int64).reshape(-1, 2)
    got, n_self, n_dup = canonical_edges(raw[:, 0], raw[:, 1], 8)
    want, diag = oracle_canonical_edges(raw)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert (n_self, n_dup) == (diag["self_loops_dropped"], diag["duplicate_edges_dropped"])


# --- loader against the per-line oracle --------------------------------------

def write(tmp_path, texts):
    paths = []
    for name, text in zip(("edges", "features", "labels"), texts):
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        paths.append(str(path))
    return paths


def outcome(loader, paths):
    try:
        return "ok", loader(*paths)
    except (DataError, ValueError) as exc:
        return type(exc), str(exc)


def oracle_outcome(paths):
    """The oracle's outcome, except that the loader checks that a whole file is
    UTF-8 before it reads a line of it: where the oracle stopped in a file that
    is not, at the bad byte or at a faulty line before it (it decodes as it
    reads), the loader reports that file as not UTF-8."""
    result = outcome(oracle_load_dataset, paths)
    if result[0] == "ok":
        return result
    for path in (paths[1], paths[0], paths[2]):  # the order files are loaded in
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            return DataError, (f"{path}: not UTF-8 text: byte {exc.start} "
                               f"({blob[exc.start]:#04x}): {exc.reason}")
        if result[1].startswith(f"{path}:"):
            return result
    raise AssertionError(f"no file accounts for the oracle's {result}")


def assert_same_outcome(paths):
    got, want = outcome(load_dataset, paths), oracle_outcome(paths)
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    a, b = got[1], want[1]
    assert (a.num_nodes, a.num_features, a.num_classes) == (b.num_nodes, b.num_features,
                                                            b.num_classes)
    assert a.diagnostics == b.diagnostics
    for x, y in ((a.edges, b.edges), (a.labels, b.labels)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert len(a.bag_offsets) == len(b.bag_offsets) == a.num_nodes + 1
    assert a.bag_offsets[-1] == len(a.bag_ids) == len(a.bag_weights)
    for u in range(a.num_nodes):
        for x, y in zip(a.bag(u), b.bag(u)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


@st.composite
def int_text(draw, v):
    # "0" before an 18-digit id, or zero padding to 22 digits, makes a field
    # longer than the 18 digits the byte parser reads, so int() reads it
    return draw(st.sampled_from([str(v), f"+{v}", f"0{v}", f" {v}", f"{v} ", f"{v:022d}"]))


# feature ids and classes up to 2**63 - 1, 18 and 19 digits long among them
big = st.one_of(st.sampled_from([10**17, 10**18 - 1, 10**18, 2**63 - 1]),
                st.integers(10**17, 2**63 - 1))
# what str.split() splits a bag at besides spaces: NBSP, \x0b, \x0c, \x1c, EM SPACE
BAG_SEPARATORS = [" ", "  ", "\xa0", "\x0b", "\x0c", "\x1c", "\u2003", " \x1c "]


@st.composite
def valid_files(draw):
    """Three files' lines, in file order, for a valid dataset in varied spellings."""
    n = draw(st.integers(1, 12))
    feature_lines = []
    for u in range(n):
        toks = []
        for fid in draw(st.sets(st.one_of(st.integers(0, 30), big), min_size=1, max_size=6)):
            w = draw(st.sampled_from(["", ":", ":1.5", ":2e0", ":0.25", ":1"]))
            toks.append(draw(int_text(fid)).strip() + w)
        sep = draw(st.sampled_from(BAG_SEPARATORS))
        pad = draw(st.sampled_from(["", " "]))
        feature_lines.append(f"{draw(int_text(u))}\t{pad}{sep.join(toks)}{pad}")
    feature_lines = draw(st.permutations(feature_lines))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edge_lines = [f"{draw(int_text(a))}\t{draw(int_text(b))}"
                  for a, b in draw(st.lists(pair, max_size=25))]
    labeled = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    label_lines = [f"{u}\t{draw(st.one_of(st.integers(0, 3), big))}" for u in labeled]
    return [edge_lines, feature_lines, label_lines]


@st.composite
def dressed(draw, files):
    """Interleave comments and blank lines, pick one line ending per file, end
    some lines with another (a CRLF or a lone CR in an LF file), and sometimes
    leave the last line without its ending.

    Comments run from 1 to 90 bytes, so they shift the lines after them across
    the 64-byte windows of the `setup_budget` fixture: CRs, blank lines and
    comments fall at window edges, and a comment can be longer than a window.
    """
    texts = []
    for lines in files:
        end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        out = []
        for line in lines:
            if draw(st.integers(0, 5)) == 0:
                if draw(st.booleans()):
                    # not ended by a lone CR, which would make it a line holding a CR
                    out.append(("", draw(st.sampled_from(["\n", "\r\n"]))))
                else:
                    out.append(("#" + draw(st.text("# x", max_size=89)), end))
            other = draw(st.sampled_from(["\n", "\r\n", "\r"]))
            out.append((line, other if draw(st.integers(0, 7)) == 0 else end))
        if out and draw(st.booleans()):
            out[-1] = (out[-1][0], "")
        texts.append("".join(line + ending for line, ending in out))
    return texts


@st.composite
def encoded(draw, texts):
    """The files' UTF-8 bytes, some behind a BOM, some with a byte that is not
    UTF-8 at the start, the middle or the end."""
    blobs = []
    for text in texts:
        blob = text.encode("utf-8")
        if draw(st.integers(0, 7)) == 0:
            blob = "\ufeff".encode("utf-8") + blob
        if draw(st.integers(0, 7)) == 0:
            at = draw(st.sampled_from([0, len(blob) // 2, len(blob)]))
            blob = blob[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + blob[at:]
        blobs.append(blob)
    return blobs


@SETTINGS
@given(data=st.data())
def test_loader_matches_oracle_on_valid_files(tmp_path, setup_budget, data):
    texts = data.draw(dressed(data.draw(valid_files())))
    assert_same_outcome(write(tmp_path, texts))


# lines injected into valid files: faults, plus spellings int() accepts
# ("1_0" and the Arabic-Indic digit one)
BAD_FEATURE_LINES = ["x\t1", "-1\t2", "{u}\t", "{u}\t  ", "{u}\t1 1", "{u}\t1:0", "{u}\t1:-2",
                     "{u}\t1:nan", "{u}\t1:inf", "{u}\t1:1e999", "{u}\t1:zz", "{u}\tq", "{u}\t-4",
                     "{u}", "{u}\t1\t2", "{u}\t3 1 3", "{u}\t2 5:x", "{u}\ty 2:0", "40\t1",
                     "{u}\t1:0 q", "1_0\t1", "{u}\t١"]
BAD_EDGE_LINES = ["a\tb", "0\t{big}", "{big}\tz", "-1\t0", "0", "0\t1\t2", "0\tx", "0\t-3",
                  "0\t99999999999999999999999", "", f"{{u}}\t{2**63}", f"{2**63 - 1}\t0"]
BAD_LABEL_LINES = ["{big}\t0", "0\t-1", "x\t0", "0\ty", "0", "{u}\t1\t", "{u}\t0",
                   "99999999999999999999999\t1", f"{2**63}\t1", f"{10**18}\t1"]


@st.composite
def faulty_files(draw):
    files = draw(valid_files())
    n = len(files[1])
    for _ in range(draw(st.integers(1, 3))):
        which = draw(st.integers(0, 2))
        lines = files[which]
        kind = draw(st.sampled_from(["replace", "insert", "cr", "duplicate", "delete",
                                     "repeat"]))
        if kind == "repeat" and files[1]:
            # a feature line becomes a plain one of its node that repeats an id:
            # only the bulk check finds that in a plain line, and the pool's two
            # such lines alone were rarely a file's first fault
            at = draw(st.integers(0, len(files[1]) - 1))
            own = files[1][at].split("\t")[0].strip().lstrip("+")
            u = int(own) if own.isdecimal() else draw(st.integers(0, n - 1))
            ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=4))
            ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))
            files[1][at] = f"{u}\t" + " ".join(map(str, ids))
        elif kind in ("replace", "insert", "repeat") or not lines:
            at = draw(st.integers(0, len(lines)))
            replace = kind == "replace" and at < len(lines)
            # a replaced line keeps its node id, so its own fault shows, not a duplicate
            own = lines[at].split("\t")[0].strip().lstrip("+") if replace else ""
            u = int(own) if own.isdecimal() else draw(st.integers(0, n - 1))
            pool = (BAD_EDGE_LINES, BAD_FEATURE_LINES, BAD_LABEL_LINES)[which]
            bad = draw(st.sampled_from(pool)).format(u=u, big=n + 5)
            if replace:
                lines[at] = bad
            else:
                lines.insert(at, bad)
        elif kind == "cr":
            # a CR inside a field ends the line there, as readlines() reads it
            at = draw(st.integers(0, len(lines) - 1))
            cut = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + "\r" + lines[at][cut:]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
        else:
            del lines[draw(st.integers(0, len(lines) - 1))]
    return files


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_matches_oracle_on_faulty_files(tmp_path, setup_budget, data):
    texts = data.draw(dressed(data.draw(faulty_files())))
    assert_same_outcome(write(tmp_path, data.draw(encoded(texts))))


@pytest.mark.parametrize("which, bad", [(0, b) for b in BAD_EDGE_LINES]
                         + [(1, b) for b in BAD_FEATURE_LINES]
                         + [(2, b) for b in BAD_LABEL_LINES])
def test_loader_matches_oracle_on_each_fault(tmp_path, which, bad):
    files = [["0\t1", "1\t2"], ["0\t0 2:1.5", "1\t1", "2\t0 1 3"], ["0\t0", "2\t1", "1\t1"]]
    files[which][1] = bad.format(u=1, big=8)
    assert_same_outcome(write(tmp_path, ["".join(line + "\n" for line in f) for f in files]))


@pytest.mark.parametrize("features, message", [
    ("", "no feature lines found"),
    ("# only a comment\n", "no feature lines found"),
    ("0\t1\n5\t2\n", "node 1 has no feature line"),
    ("1\t1\n", "node 0 has no feature line"),
    ("0\t1\r\r1\t2\r", "features.tsv:2: expected node<TAB>features"),
])
def test_loader_file_level_faults_match_oracle(tmp_path, features, message):
    paths = write(tmp_path, ["", features, ""])
    with pytest.raises(DataError, match=message):
        load_dataset(*paths)
    assert_same_outcome(paths)


def test_loader_rejects_ids_beyond_int64(tmp_path):
    # the per-line loader crashed with OverflowError here; the bulk one names the line
    big = str(2**64)
    for features, labels, where in ((f"0\t{big}\n", "", "features.tsv:1: feature id"),
                                    (f"{big}\t1\n", "", "features.tsv:1: node id"),
                                    ("0\t1\n", f"0\t{big}\n", "labels.tsv:1: class id")):
        with pytest.raises(DataError, match=f"{where} must be below {2**63}"):
            load_dataset(*write(tmp_path, ["", features, labels]))


def test_loader_reports_huge_node_gap_without_scanning_it(tmp_path):
    # a node id of 10**12 leaves 10**12 - 1 nodes without a line; the first is named
    with pytest.raises(DataError, match="node 1 has no feature line"):
        load_dataset(*write(tmp_path, ["", f"0\t1\n{10**12}\t2\n", ""]))
