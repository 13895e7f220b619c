"""The set-up path's sorts against the multi-key lexsorts they replaced.

`sort_oracle` keeps each replaced `np.lexsort` verbatim. Canonical edges, the
adjacency and its normalization, feature samples and loaded bags must equal
its outputs exactly, on node ids up to the largest count whose int64 keys
`u * n + v` cannot overflow, on mixed bag sizes and on features files whose
lines are out of node order. A last test runs the
set-up path with `np.lexsort` disabled.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import catgcn.graph
import sort_oracle
from catgcn.data import generate_synthetic, load_dataset, sample_features, write_dataset
from catgcn.graph import _expand_rows, build_adjacency, canonical_edges, is_unit, normalize_sym
from catgcn.training import TrainConfig, run_inputs
from test_data_properties import make_dataset

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# --- edges and CSR -------------------------------------------------------------

# the largest node count whose keys `u * n + v` fit int64: n * n < 2**63 <= (n + 1)**2
N_LAST = 3_037_000_499
node_counts = st.one_of(st.integers(1, 40), st.integers(1, N_LAST))


def drawn_pairs(data, n, min_ids=1):
    """(E, 2) pairs over a few ids of [0, n), so pairs share endpoints, loop and
    repeat in both orders."""
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=min(min_ids, n), max_size=8,
                              unique=True))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                               max_size=60))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@SETTINGS
@given(n=node_counts, data=st.data())
def test_canonical_edges_matches_lexsort(n, data):
    raw = drawn_pairs(data, n)
    got, n_self, n_dup = canonical_edges(raw[:, 0], raw[:, 1], n)
    want, w_self, w_dup = sort_oracle.canonical_edges(raw)
    assert_same(got, want)
    assert (n_self, n_dup) == (w_self, w_dup)


def test_canonical_edges_sorts_ids_next_to_the_largest_node_count():
    # every pair of the ids nearest n, in both orders, with loops and repeats:
    # their keys are the largest that fit int64
    ids = [N_LAST - 1, N_LAST - 2, N_LAST - 3, 1, 0]
    raw = np.array([(a, b) for a in ids for b in ids] * 2, dtype=np.int64)
    raw = raw[np.random.default_rng(0).permutation(len(raw))]
    got, n_self, n_dup = canonical_edges(raw[:, 0], raw[:, 1], N_LAST)
    want, w_self, w_dup = sort_oracle.canonical_edges(raw)
    assert_same(got, want)
    assert (n_self, n_dup) == (w_self, w_dup) == (10, 30)
    assert got[-1].tolist() == [N_LAST - 2, N_LAST - 1]


def test_canonical_edges_refuses_node_counts_past_int64_keys(monkeypatch):
    # refused before a key is formed, which at this count could overflow
    monkeypatch.setattr(np, "unique", refuse_sort)
    for n in (N_LAST + 1, 2**62):
        with pytest.raises(ValueError, match=f"^a {n}x{n} CSR matrix has 2\\*\\*63 positions"):
            canonical_edges(np.array([1, N_LAST]), np.array([0, N_LAST - 1]), n)


@pytest.mark.parametrize("u, v, bad", [
    ([1, 5], [0, 2], "(5, 2)"),
    ([1, 0], [-1, 2], "(1, -1)"),
    ([2, 0], [1, 4], "(0, 4)"),
    ([-2**63, 3], [2**63 - 1, 3], "(-9223372036854775808, 9223372036854775807)"),
])
def test_canonical_edges_refuses_ids_outside_the_nodes(u, v, bad):
    # the input is not canonical, so it would be keyed and sorted
    with pytest.raises(ValueError, match=re.escape(f"edge {bad} references a node outside [0, 4)")):
        canonical_edges(np.array(u), np.array(v), 4)


@SETTINGS
@given(n=node_counts, data=st.data())
def test_canonical_edges_keeps_canonical_input_without_sorting(n, data, monkeypatch):
    canon = sort_oracle.canonical_edges(drawn_pairs(data, n, min_ids=2))[0]
    with monkeypatch.context() as patch:
        for sort in ("unique", "sort", "argsort"):
            patch.setattr(np, sort, refuse_sort)
        got, n_self, n_dup = canonical_edges(canon[:, 0], canon[:, 1], n)
    assert_same(got, canon)
    assert (n_self, n_dup) == (0, 0)
    if len(canon):
        # one pair reversed, or two neighbours swapped, is sorted again
        k = data.draw(st.integers(0, len(canon) - 1))
        flipped = canon.copy()
        flipped[k] = flipped[k, ::-1]
        assert_same(canonical_edges(flipped[:, 0], flipped[:, 1], n)[0], canon)
        swapped = canon.copy()
        swapped[[k, k - 1]] = swapped[[k - 1, k]]
        assert_same(canonical_edges(swapped[:, 0], swapped[:, 1], n)[0], canon)


def refuse_sort(*args, **kwargs):
    raise AssertionError("canonical edges sorted again")


@st.composite
def edge_lists(draw):
    """(edges, num_nodes): edges among a drawn subset of the nodes, so others
    stay isolated, with self loops, pairs repeated in both orders and
    sometimes a hub linked to every other linked node; sometimes empty, with
    one node, or already canonical."""
    n = draw(st.integers(1, 30))
    linked = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    pairs = []
    if linked:
        pairs = draw(st.lists(st.tuples(st.sampled_from(linked), st.sampled_from(linked)),
                              max_size=4 * n))
        if draw(st.booleans()):
            hub = draw(st.sampled_from(linked))
            pairs += [(hub, w) if draw(st.booleans()) else (w, hub) for w in linked]
        if pairs:
            repeats = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
            pairs += [p[::-1] if draw(st.booleans()) else p for p in repeats]
        pairs = draw(st.permutations(pairs))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if draw(st.booleans()):
        edges = sort_oracle.canonical_edges(edges)[0]
    return edges, n


def assert_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(drawn=edge_lists())
def test_build_adjacency_matches_lexsort_over_both_directions(drawn, monkeypatch):
    edges, n = drawn
    canon = sort_oracle.canonical_edges(edges)[0]
    rows = np.concatenate([canon[:, 0], canon[:, 1]])
    cols = np.concatenate([canon[:, 1], canon[:, 0]])
    want = sort_oracle.csr_from_coo(rows, cols, np.ones(len(rows)), n)
    with monkeypatch.context() as patch:
        if np.array_equal(edges, canon):
            # canonical edges are read as they are, not canonicalized into a copy
            patch.setattr(catgcn.graph, "canonical_edges", refuse_canonicalizing)
        adj = build_adjacency(edges, n)
    assert (adj.num_rows, adj.num_cols) == (n, n)
    for got, w in zip((adj.row_offsets, adj.col_indices, adj.values), want):
        assert_bytes(got, w)
    assert is_unit(adj.values) and not adj.values.flags.writeable


def refuse_canonicalizing(*args, **kwargs):
    raise AssertionError("canonical edges canonicalized again")


def test_build_adjacency_refuses_node_counts_past_int64_keys():
    # 3037000499**2 < 2**63 <= 3037000500**2; the refusal comes before any
    # array of num_nodes entries is allocated, which at these counts could not be
    for n in (3037000500, 2**32, 2**62):
        with pytest.raises(ValueError, match=f"^a {n}x{n} CSR matrix has 2\\*\\*63 positions"):
            build_adjacency(np.array([[0, 1], [1, 2]]), n)


def normalize_by_sorting(adj):
    """`normalize_sym`'s (row offsets, column indices, values) as a sort builds
    them: every entry and self loop ordered by the oracle's (row, col) lexsort."""
    n = adj.num_rows
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([_expand_rows(adj.row_offsets), loops])
    cols = np.concatenate([adj.col_indices, loops])
    inv_sqrt = 1.0 / np.sqrt(np.diff(adj.row_offsets).astype(np.float64) + 1.0)
    return sort_oracle.csr_from_coo(rows, cols, inv_sqrt[rows] * inv_sqrt[cols], n)


@SETTINGS
@given(n=st.integers(1, 30), data=st.data())
def test_normalize_sym_inserts_self_loops_as_the_sorted_build_does(n, data):
    # edges among a drawn subset of the nodes, so others stay isolated: rows
    # with no entries, or only entries below or above their diagonal
    linked = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(linked), st.sampled_from(linked)),
                               max_size=4 * n)) if linked else []
    adj = build_adjacency(np.array(pairs, dtype=np.int64).reshape(-1, 2), n)
    got, degrees = normalize_sym(adj)
    for a, b in zip((got.row_offsets, got.col_indices, got.values), normalize_by_sorting(adj)):
        assert_bytes(a, b)
    assert_same(degrees, np.diff(adj.row_offsets).astype(np.float64) + 1.0)


# --- feature sampling --------------------------------------------------------

def bags_of(sizes):
    return [set(range(3 * u, 3 * u + 2 * s, 2)) for u, s in enumerate(sizes)]


def assert_sample_matches_lexsort(ds, n_f, seed):
    got = sample_features(ds, n_f, seed)
    want_ids, want_weights = sort_oracle.sample_features(ds, n_f, seed)
    assert_same(got.ids, want_ids)
    assert_same(got.weights, want_weights)


@SETTINGS
@given(sizes=st.lists(st.integers(1, 14), min_size=1, max_size=25),
       n_f=st.integers(1, 10), seed=st.integers(0, 2**63 - 1), data=st.data())
def test_sample_features_matches_lexsort_on_mixed_bag_sizes(sizes, n_f, seed, data,
                                                              setup_budget):
    # bags shorter than, as long as and longer than n_f, in any order, and
    # sometimes one bag 1000 times the largest of the others
    if data.draw(st.booleans()):
        sizes.insert(data.draw(st.integers(0, len(sizes))), 1000 * max(sizes))
    assert_sample_matches_lexsort(make_dataset(bags_of(sizes)), n_f, seed)


@pytest.mark.parametrize("n_f", [1, 4, 10])
def test_sample_features_matches_lexsort_with_one_huge_bag(n_f, setup_budget):
    sizes = [max(n_f - 1, 1), n_f, n_f + 1, 1, 1000 * (n_f + 1), n_f, 2]
    assert_sample_matches_lexsort(make_dataset(bags_of(sizes)), n_f, seed=2**63 - 1)


# --- loaded bags -------------------------------------------------------------

fid = st.one_of(st.integers(0, 40), st.integers(2**63 - 40, 2**63 - 1))


@SETTINGS
@given(data=st.data())
def test_loaded_bags_match_lexsort(tmp_path, setup_budget, data):
    # lines in any node order, ids in any order within a line, some near 2**63 - 1
    n = data.draw(st.integers(1, 15))
    lines = []
    for u in data.draw(st.permutations(range(n))):
        ids = data.draw(st.permutations(sorted(data.draw(st.sets(fid, min_size=1, max_size=8)))))
        lines.append((u, [(f, data.draw(st.sampled_from([1.0, 0.5, 2.25]))) for f in ids]))
    text = "".join(f"{u}\t" + " ".join(str(f) if w == 1.0 else f"{f}:{w!r}" for f, w in bag)
                   + "\n" for u, bag in lines)
    paths = []
    for name, body in (("edges", ""), ("features", text), ("labels", "")):
        (tmp_path / f"{name}.tsv").write_text(body)
        paths.append(str(tmp_path / f"{name}.tsv"))
    ds = load_dataset(*paths)
    offsets, ids, weights = sort_oracle.bag_layout(lines)
    assert_same(ds.bag_offsets, offsets)
    assert_same(ds.bag_ids, ids)
    assert_same(ds.bag_weights, weights)
    assert ds.num_features == int(ids.max()) + 1


# --- no multi-key sort on the set-up path ------------------------------------

def test_setup_path_runs_without_lexsort(tmp_path, monkeypatch):
    ds = generate_synthetic("local-signal", 80, 40, 3, 6, 0.1, 0.02, seed=4)
    write_dataset(ds, str(tmp_path / "in_order"))
    # the same bags with the feature lines reversed, so whole lines move into node order
    shuffled = tmp_path / "reversed"
    shuffled.mkdir()
    for name in ("edges", "labels"):
        (shuffled / f"{name}.tsv").write_bytes((tmp_path / f"in_order/{name}.tsv").read_bytes())
    lines = (tmp_path / "in_order/features.tsv").read_text().splitlines(keepends=True)
    (shuffled / "features.tsv").write_text("".join(reversed(lines)))

    def refuse(*args, **kwargs):
        raise AssertionError("np.lexsort called on the set-up path")

    monkeypatch.setattr(np, "lexsort", refuse)
    for root in (tmp_path / "in_order", shuffled):
        loaded = load_dataset(*(str(root / f"{k}.tsv") for k in ("edges", "features", "labels")))
        for n_f in (4, 6, 9):
            run_inputs(loaded, TrainConfig(n_f=n_f, seed=2))
        assert np.array_equal(loaded.bag_ids, ds.bag_ids)
        assert np.array_equal(loaded.edges, ds.edges)
