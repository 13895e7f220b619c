"""Dataset loading, validation, splits, feature sampling, synthetic generation."""

import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loader_oracle
import sort_oracle
from catgcn.data import (
    SETUP_CHUNK_BYTES,
    DataError,
    dataset_fingerprint,
    generate_synthetic,
    load_dataset,
    make_split,
    sample_features,
    split_sizes,
    write_dataset,
)
from catgcn.graph import build_adjacency, normalize_sym
from catgcn.training import TrainConfig, train


def write_files(tmp_path, edges, features, labels):
    p = {}
    for name, text in (("edges", edges), ("features", features), ("labels", labels)):
        path = tmp_path / f"{name}.tsv"
        path.write_text(text, encoding="utf-8")
        p[name] = str(path)
    return p["edges"], p["features"], p["labels"]


GOOD_EDGES = "# comment\n0\t1\n1\t2\n"
GOOD_FEATURES = "0\t0 2:1.5\n1\t1\n2\t0 1 3\n"
GOOD_LABELS = "0\t0\n2\t1\n"


def test_load_basic(tmp_path):
    ds = load_dataset(*write_files(tmp_path, GOOD_EDGES, GOOD_FEATURES, GOOD_LABELS))
    assert ds.num_nodes == 3
    assert ds.num_features == 4
    assert ds.num_classes == 2
    assert np.array_equal(ds.edges, [[0, 1], [1, 2]])
    assert np.array_equal(ds.labels, [0, -1, 1])
    assert np.array_equal(ds.bag_offsets, [0, 2, 3, 6])
    ids, weights = ds.bag(0)
    assert np.array_equal(ids, [0, 2])
    assert np.array_equal(weights, [1.0, 1.5])


def test_load_skips_blank_and_comment_lines(tmp_path):
    ds = load_dataset(*write_files(tmp_path, "\n# x\n0\t1\n\n", GOOD_FEATURES, "\n# y\n"))
    assert len(ds.edges) == 1
    assert ds.num_classes == 0


def test_load_collapses_duplicate_and_self_edges(tmp_path):
    ds = load_dataset(
        *write_files(tmp_path, "0\t1\n1\t0\n0\t0\n0\t1\n", GOOD_FEATURES, GOOD_LABELS)
    )
    assert np.array_equal(ds.edges, [[0, 1]])
    assert ds.diagnostics["self_loops_dropped"] == 1


def test_load_rejects_dangling_edge(tmp_path):
    with pytest.raises(DataError, match="dangling"):
        load_dataset(*write_files(tmp_path, "0\t9\n", GOOD_FEATURES, GOOD_LABELS))


def test_load_rejects_dangling_label(tmp_path):
    with pytest.raises(DataError, match="dangling"):
        load_dataset(*write_files(tmp_path, GOOD_EDGES, GOOD_FEATURES, "7\t0\n"))


def test_load_rejects_duplicate_label(tmp_path):
    with pytest.raises(DataError, match="duplicate label"):
        load_dataset(*write_files(tmp_path, GOOD_EDGES, GOOD_FEATURES, "0\t0\n0\t1\n"))


def test_load_rejects_missing_feature_line(tmp_path):
    # node 1 absent though node 2 exists
    with pytest.raises(DataError, match="no feature line"):
        load_dataset(*write_files(tmp_path, "", "0\t0\n2\t1\n", ""))


def test_load_rejects_duplicate_feature_node(tmp_path):
    with pytest.raises(DataError, match="duplicate feature line"):
        load_dataset(*write_files(tmp_path, "", "0\t0\n0\t1\n", ""))


def test_load_rejects_bad_weight(tmp_path):
    for bad in ("0\t1:0.0\n1\t0\n", "0\t1:-2\n1\t0\n", "0\t1:nan\n1\t0\n"):
        with pytest.raises(DataError, match="weight"):
            load_dataset(*write_files(tmp_path, "", bad, ""))


def test_load_rejects_non_integer_ids(tmp_path):
    with pytest.raises(DataError, match="not an integer"):
        load_dataset(*write_files(tmp_path, "a\t1\n", GOOD_FEATURES, ""))


def test_load_rejects_duplicate_feature_id_on_node(tmp_path):
    with pytest.raises(DataError, match="duplicate feature id"):
        load_dataset(*write_files(tmp_path, "", "0\t1 1\n", ""))


# spellings int() accepts (sign, underscore, other Unicode digits, spaces
# around) and rejects, one past int64, and digit runs around the 18 digits
# the byte parser converts itself
INT_TOKENS = ["+5", "1_0", "_1", "\u0663", "\uff10", "\xa05", "5.0", "", str(2**63), "0x1",
              str(10**18 - 1), str(10**18), str(2**63 - 1), "0" * 21 + "7", "5\r"]


def int_class(tok):
    """The class of a `0<TAB>tok` labels line: int(tok) if it lies in [0, 2**63),
    else None, for a line the loader must reject."""
    try:
        v = int(tok)
    except ValueError:
        return None
    return v if 0 <= v < 2**63 else None


def loaded_classes(tmp_path, tokens):
    """The classes `load_dataset` reads from `i<TAB>tokens[i]` labels lines over
    nodes 0, 1, ..., or None if it rejects the file. A token must not hold a TAB
    or a line break."""
    features = "".join(f"{i}\t1\n" for i in range(max(1, len(tokens))))
    labels = "".join(f"{i}\t{tok}\n" for i, tok in enumerate(tokens))
    try:
        ds = load_dataset(*write_files(tmp_path, "", features, labels))
    except DataError:
        return None
    return ds.labels[:len(tokens)].tolist()


def assert_loader_reads_classes_as_int(tmp_path, tokens):
    """Each token alone is accepted exactly when int() gives a class in range,
    and the accepted ones together, plain digit fields and others mixed, keep
    their values and their order."""
    for tok in tokens:
        want = int_class(tok)
        assert loaded_classes(tmp_path, [tok]) == (None if want is None else [want]), tok
    good = [tok for tok in tokens if int_class(tok) is not None]
    assert loaded_classes(tmp_path, good) == [int_class(tok) for tok in good]


@pytest.mark.parametrize("tokens", [[t] for t in INT_TOKENS] + [INT_TOKENS, ["7", "-2", "+3"]])
def test_int_column_accepts_and_rejects_what_int_does(tmp_path, tokens):
    assert_loader_reads_classes_as_int(tmp_path, tokens)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=st.lists(st.one_of(st.text(max_size=6), st.integers(-2**64, 2**64).map(str)),
                       max_size=8))
def test_int_column_matches_int_on_any_text(tmp_path, tokens):
    fields = [tok for tok in tokens if not set(tok) & set("\t\n\r")]
    assert_loader_reads_classes_as_int(tmp_path, fields)


def test_int_column_out_of_range_takes_the_per_token_path(tmp_path):
    # 2**63 - 1 and 2**63 both have 19 digits: past 18, a field is int()'s
    tokens = ["7", str(2**63), str(-2**63 - 1), str(2**63 - 1)]
    assert [int_class(tok) for tok in tokens] == [7, None, None, 2**63 - 1]
    assert_loader_reads_classes_as_int(tmp_path, tokens)


def test_write_then_load_roundtrip(tmp_path):
    ds = generate_synthetic("homophily", 40, 25, 3, 5, 0.2, 0.05, seed=4)
    paths = write_dataset(ds, str(tmp_path / "out"), meta={"k": 1})
    ds2 = load_dataset(paths["edges"], paths["features"], paths["labels"])
    assert ds2.num_nodes == ds.num_nodes
    assert ds2.num_classes == ds.num_classes
    assert np.array_equal(ds2.edges, ds.edges)
    assert np.array_equal(ds2.labels, ds.labels)
    for got, want in ((ds2.bag_offsets, ds.bag_offsets), (ds2.bag_ids, ds.bag_ids),
                      (ds2.bag_weights, ds.bag_weights)):
        assert np.array_equal(got, want)
    meta = json.loads(open(paths["meta"], encoding="utf-8").read())
    assert meta == {"k": 1}


def test_loaded_dataset_holds_little_beyond_its_arrays(tmp_path):
    # 3000 bags of 3 ids: a Python object per node would outweigh the bags
    ds = generate_synthetic("homophily", 3000, 50, 3, 3, 0.002, 0.0002, seed=1)
    paths = write_dataset(ds, str(tmp_path))
    files = (paths["edges"], paths["features"], paths["labels"])
    load_dataset(*files)  # first call: module-level caches fill outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_dataset(*files)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.5 * owned_bytes(loaded.edges, loaded.bag_offsets, loaded.bag_ids,
                                     loaded.bag_weights, loaded.labels)


def owned_bytes(*arrays) -> int:
    """The bytes the arrays store: a zero-stride view's `nbytes` counts every
    value it reads, though it stores one, so it counts 0 here."""
    return sum(a.nbytes for a in arrays if any(a.strides))


@pytest.fixture(scope="module")
def windowed_files(tmp_path_factory):
    # 40k bags of 10 ids: the 2.1 MB features file spans three set-up windows
    # and every sort of its bags or of their sample keys several blocks
    ds = generate_synthetic("homophily", 40_000, 5000, 4, 10, 0.0002, 0.00002, seed=1)
    paths = write_dataset(ds, str(tmp_path_factory.mktemp("windowed")))
    files = (paths["edges"], paths["features"], paths["labels"])
    assert os.path.getsize(paths["features"]) > 2 * SETUP_CHUNK_BYTES
    return files


def test_load_peak_memory_is_a_small_multiple_of_the_files(windowed_files):
    # parsing in windows and sorting the bags in blocks peaks at 4.9 times the
    # files' size (5.3 times while the unit weights were stored as ones);
    # parsing and sorting each file whole peaked at 8.8 times, and Python
    # token strings at 18.5 times (at 4k bags)
    load_dataset(*windowed_files)  # first call: module-level caches fill outside the count
    tracemalloc.start()
    try:
        load_dataset(*windowed_files)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * sum(os.path.getsize(p) for p in windowed_files)


def test_sample_peak_memory_is_a_small_multiple_of_its_outputs(windowed_files):
    # with unit weights the sample stores its ids only; sorting the sample
    # keys in blocks peaks at 2.9 times their bytes. Gathering the weights as
    # well peaked at 3.9 times, and one sort per size group at 5.4 times
    ds = load_dataset(*windowed_files)
    sample_features(ds, 10, seed=3)  # first call: module-level caches fill outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample = sample_features(ds, 10, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * owned_bytes(sample.ids, sample.weights)


def test_adjacency_peak_memory_is_a_small_multiple_of_its_outputs(windowed_files):
    # 40k nodes and 52k edges. Writing each column into its slot peaks at 2.5
    # times the adjacency's bytes; sorting both directions of every edge
    # together, with its values stored as ones, peaked at 3.1 times. The
    # normalization allocates its outputs first and peaks at 1.7 times them;
    # checking symmetry with an argsort and two gathers peaked at 1.9 times
    ds = load_dataset(*windowed_files)
    adj = build_adjacency(ds.edges, ds.num_nodes)  # first call: caches fill outside the count
    normalize_sym(adj)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        adj = build_adjacency(ds.edges, ds.num_nodes)
        adj_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        norm, degrees = normalize_sym(adj)
        norm_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert adj_peak <= 2.7 * owned_bytes(adj.row_offsets, adj.col_indices, adj.values)
    assert norm_peak <= 1.8 * owned_bytes(norm.row_offsets, norm.col_indices, norm.values,
                                          degrees)


# --- unit weights --------------------------------------------------------------

def assert_unit(weights, shape):
    """`weights` is float64 ones of `shape` stored once: read-only, zero strides."""
    assert weights.dtype == np.float64 and weights.shape == shape
    assert not any(weights.strides) and not weights.flags.writeable
    assert np.array_equal(weights, np.ones(shape))


def bag_lines(spell, n=30):
    """Feature lines of n nodes, in reverse node order, with 1 to 7 ids
    each spelled by `spell`, ids out of order within a line."""
    return [f"{u}\t" + " ".join(spell(f) for f in range(3 * u + u % 7, 3 * u - 1, -1)) + "\n"
            for u in reversed(range(n))]


def load_lines(tmp_path, lines):
    labels = "".join(f"{u}\t{u % 3}\n" for u in range(len(lines)))
    paths = write_files(tmp_path, "0\t1\n1\t2\n", "".join(lines), labels)
    return load_dataset(*paths), loader_oracle.load_dataset(*paths)


@pytest.mark.parametrize("spell", [str, "{}:1.0".format, lambda f: f"{f}:1e0" if f % 2 else str(f)],
                         ids=["plain", "explicit-1.0", "mixed"])
def test_unit_weights_are_stored_once(tmp_path, setup_budget, spell):
    ds, want = load_lines(tmp_path, bag_lines(spell))
    assert_unit(ds.bag_weights, want.bag_weights.shape)
    assert np.array_equal(ds.bag_ids, want.bag_ids)
    for n_f in (3, 8):
        sample = sample_features(ds, n_f, seed=5)
        assert_unit(sample.weights, (ds.num_nodes, n_f))
        # the materialized ones sample the same
        want_ids, want_weights = sort_oracle.sample_features(want, n_f, seed=5)
        assert np.array_equal(sample.ids, want_ids)
        assert np.array_equal(sample.weights, want_weights)


def test_one_other_weight_keeps_writable_weights(tmp_path, setup_budget):
    lines = bag_lines(str)
    lines[4] = lines[4].replace(" ", ":2.5 ", 1)
    ds, want = load_lines(tmp_path, lines)
    assert any(ds.bag_weights.strides) and ds.bag_weights.flags.writeable
    assert (ds.bag_weights == 2.5).sum() == 1
    assert np.array_equal(ds.bag_weights, want.bag_weights)
    sample = sample_features(ds, 8, seed=5)
    assert any(sample.weights.strides) and sample.weights.flags.writeable
    for got, w in zip((sample.ids, sample.weights), sort_oracle.sample_features(want, 8, 5)):
        assert np.array_equal(got, w)


def test_unit_and_materialized_weights_write_and_train_alike(tmp_path):
    ds = generate_synthetic("homophily", 60, 30, 3, 6, 0.1, 0.02, seed=2)
    assert_unit(ds.bag_weights, ds.bag_ids.shape)
    ones = dataclasses.replace(ds, bag_weights=np.ones(len(ds.bag_ids)))
    written = [write_dataset(d, str(tmp_path / name)) for d, name in ((ds, "unit"), (ones, "ones"))]
    for kind in ("edges", "features", "labels"):
        assert open(written[0][kind], "rb").read() == open(written[1][kind], "rb").read()
    loaded = load_dataset(written[0]["edges"], written[0]["features"], written[0]["labels"])
    assert_unit(loaded.bag_weights, ds.bag_ids.shape)
    config = TrainConfig(n_f=4, d_emb=4, d_hidden=4, max_epochs=3, patience=3,
                         resample_per_epoch=True, seed=1)
    a, b = train(config, ds), train(config, ones)
    assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]
    for name, t in a.params.named_tensors().items():
        assert t.data.tobytes() == b.params.named_tensors()[name].data.tobytes()


def test_fingerprint_tracks_content(tmp_path):
    ds = generate_synthetic("homophily", 30, 20, 2, 4, 0.2, 0.05, seed=1)
    paths = write_dataset(ds, str(tmp_path / "a"))
    fp1 = dataset_fingerprint(paths["edges"], paths["features"], paths["labels"])
    fp2 = dataset_fingerprint(paths["edges"], paths["features"], paths["labels"])
    assert fp1 == fp2 and len(fp1) == 64
    with open(paths["labels"], "a", encoding="utf-8") as fh:
        fh.write("# trailing comment\n")
    assert dataset_fingerprint(paths["edges"], paths["features"], paths["labels"]) != fp1


def test_split_sizes_remainder_to_train():
    assert split_sizes(100) == (80, 10, 10)
    assert split_sizes(105) == (85, 10, 10)
    assert split_sizes(19) == (17, 1, 1)
    assert split_sizes(10) == (8, 1, 1)


def test_make_split_partitions_labeled_nodes():
    ds = generate_synthetic("homophily", 57, 30, 3, 5, 0.1, 0.02, seed=2)
    split = make_split(ds, seed=9)
    parts = [split.train_ids, split.val_ids, split.test_ids]
    assert len(parts[0]) == 47 and len(parts[1]) == 5 and len(parts[2]) == 5
    merged = np.concatenate(parts)
    assert len(np.unique(merged)) == len(merged) == 57
    for p in parts:
        assert np.array_equal(p, np.sort(p))


def test_make_split_deterministic_and_seed_sensitive():
    ds = generate_synthetic("homophily", 50, 30, 3, 5, 0.1, 0.02, seed=2)
    a = make_split(ds, seed=1)
    b = make_split(ds, seed=1)
    c = make_split(ds, seed=2)
    assert np.array_equal(a.train_ids, b.train_ids)
    assert not np.array_equal(a.train_ids, c.train_ids)


def test_make_split_ignores_unlabeled(tmp_path):
    features = "".join(f"{u}\t{u % 3}\n" for u in range(20))
    labels = "".join(f"{u}\t{u % 2}\n" for u in range(12))  # nodes 12..19 unlabeled
    ds = load_dataset(*write_files(tmp_path, "0\t1\n", features, labels))
    split = make_split(ds, seed=0)
    merged = np.concatenate([split.train_ids, split.val_ids, split.test_ids])
    assert merged.max() < 12 and len(merged) == 12


def test_make_split_needs_ten_labeled(tmp_path):
    features = "".join(f"{u}\t{u}\n" for u in range(9))
    labels = "".join(f"{u}\t0\n" for u in range(9))
    ds = load_dataset(*write_files(tmp_path, "0\t1\n", features, labels))
    with pytest.raises(DataError, match="at least 10"):
        make_split(ds, seed=0)


def test_sample_features_without_replacement_when_enough():
    ds = generate_synthetic("homophily", 30, 40, 2, 8, 0.1, 0.02, seed=3)
    sample = sample_features(ds, 5, seed=0)
    assert sample.ids.shape == (30, 5)
    for u in range(30):
        assert len(np.unique(sample.ids[u])) == 5  # distinct
        assert set(sample.ids[u]) <= set(ds.bag(u)[0])


def test_sample_features_fills_with_replacement_when_short(tmp_path):
    features = "".join(f"{u}\t0 1\n" for u in range(12))
    labels = "".join(f"{u}\t0\n" for u in range(12))
    ds = load_dataset(*write_files(tmp_path, "0\t1\n", features, labels))
    sample = sample_features(ds, 6, seed=1)
    for u in range(12):
        # every owned feature appears at least once; fill comes from the same set
        assert set(sample.ids[u]) == {0, 1}
        assert np.all(sample.weights[u] == 1.0)


def test_sample_features_deterministic_per_node():
    ds = generate_synthetic("homophily", 25, 40, 2, 10, 0.1, 0.02, seed=3)
    a = sample_features(ds, 6, seed=5)
    b = sample_features(ds, 6, seed=5)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.weights, b.weights)
    c = sample_features(ds, 6, seed=6)
    assert not np.array_equal(a.ids, c.ids)


def test_local_signal_label_is_key_sum():
    ds = generate_synthetic("local-signal", 200, 60, 4, 6, 0.05, 0.05, seed=8)
    n_signal = 8
    for u in range(ds.num_nodes):
        ids = ds.bag(u)[0]
        sig = ids[ids < n_signal]
        assert len(sig) == 2
        assert ds.labels[u] == (sig[0] + sig[1]) % 4


def test_local_signal_single_feature_marginals_are_flat():
    # each signal feature must appear across several classes, otherwise the
    # label would be linearly readable from one feature alone
    ds = generate_synthetic("local-signal", 4000, 60, 4, 6, 0.0, 0.0, seed=0)
    n_signal = 8
    for f in range(n_signal):
        classes = {
            int(ds.labels[u])
            for u in range(ds.num_nodes)
            if f in set(ds.bag(u)[0][:3])
        }
        assert len(classes) >= 3


def test_global_signal_label_from_group_pair():
    ds = generate_synthetic("global-signal", 200, 120, 3, 10, 0.05, 0.05, seed=8)
    group_size = int(0.7 * 120) // 12  # 4 groups per key at 3 classes
    for u in range(ds.num_nodes):
        ids = ds.bag(u)[0]
        sig = ids[ids < 12 * group_size]
        assert len(sig) == 7  # round(0.7 * 10)
        pair, counts = np.unique(sig // group_size, return_counts=True)
        assert len(pair) == 2
        assert min(counts) == 1  # one group shows up once: hidden from the mean
        assert ds.labels[u] == pair.sum() % 3


def test_global_signal_single_group_marginals_are_flat():
    # any one group must appear under every class, otherwise the label would
    # be readable from group presence alone and rho would buy nothing
    ds = generate_synthetic("global-signal", 2000, 120, 3, 10, 0.0, 0.0, seed=0)
    group_size = int(0.7 * 120) // 12
    seen = [set() for _ in range(12)]
    for u in range(ds.num_nodes):
        ids = ds.bag(u)[0]
        sig = ids[ids < 12 * group_size]
        for g in np.unique(sig // group_size):
            seen[g].add(int(ds.labels[u]))
    assert all(len(s) == 3 for s in seen)


def test_homophily_edges_favor_same_label():
    ds = generate_synthetic("homophily", 600, 30, 3, 5, 0.05, 0.005, seed=12)
    same = sum(1 for u, v in ds.edges if ds.labels[u] == ds.labels[v])
    assert same > len(ds.edges) * 0.6
    assert len(ds.edges) > 100


def test_sbm_respects_zero_probabilities():
    ds = generate_synthetic("homophily", 100, 30, 2, 5, 0.0, 0.0, seed=1)
    assert len(ds.edges) == 0
    ds = generate_synthetic("homophily", 60, 30, 2, 5, 0.3, 0.0, seed=1)
    assert all(ds.labels[u] == ds.labels[v] for u, v in ds.edges)


def test_generate_rejects_bad_arguments():
    # bad arguments are the caller's error, not the data's: exactly ValueError,
    # never its subclass DataError
    for args, message in [(("nope", 100, 30, 2, 5, 0.1, 0.1), "unknown synthetic kind"),
                          (("local-signal", 100, 5, 4, 5, 0.1, 0.1), "local-signal needs"),
                          (("homophily", 100, 30, 2, 5, 1.5, 0.1), "edge probabilities")]:
        with pytest.raises(ValueError, match=message) as exc:
            generate_synthetic(*args, seed=0)
        assert exc.type is ValueError


def test_generate_synthetic_deterministic():
    a = generate_synthetic("local-signal", 80, 40, 3, 5, 0.1, 0.02, seed=7)
    b = generate_synthetic("local-signal", 80, 40, 3, 5, 0.1, 0.02, seed=7)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.bag_offsets, b.bag_offsets)
    assert np.array_equal(a.bag_ids, b.bag_ids)
