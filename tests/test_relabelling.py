"""Metamorphic test: renaming the nodes renames the model's outputs and nothing else.

A node permutation p maps node u to p[u]. Relabelling a dataset's edges, its
feature sample's rows and its labels by p must permute the logits and keep
the loss: the graph is the same graph. The relabelled edges are not in
canonical order, so they also take `canonical_edges`' sorting path, which
must give the original canonical edges relabelled and sorted again.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sort_oracle
from catgcn.autodiff import Tape, Tensor
from catgcn.data import FeatureSample, generate_synthetic, sample_features
from catgcn.graph import build_adjacency, canonical_edges, normalize_sym
from catgcn.model import model_forward
from catgcn.training import TrainConfig, xavier_init


def assert_close(got, want, rtol=1e-12):
    """Equal within `rtol` of the largest magnitude: the relabelled graph sums
    each row's neighbours in another order, so last bits may differ."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rtol * np.abs(want).max(initial=0.0)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["homophily", "local-signal"]), n=st.integers(10, 40),
       n_f=st.integers(1, 6), hops=st.integers(0, 3), seed=st.integers(0, 2**32), data=st.data())
def test_relabelling_the_nodes_permutes_the_logits(kind, n, n_f, hops, seed, data):
    ds = generate_synthetic(kind, n, 30, 3, n_f, 0.3, 0.1, seed)
    p = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    cfg = TrainConfig(d_emb=8, d_hidden=8, n_f=n_f, hops=hops, seed=seed)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)

    edges = p[ds.edges]
    canon, n_self, n_dup = canonical_edges(edges[:, 0], edges[:, 1], n)
    np.testing.assert_array_equal(canon, sort_oracle.canonical_edges(edges)[0])
    assert canon.dtype == np.int64 and (n_self, n_dup) == (0, 0)

    sample = sample_features(ds, n_f, seed)
    # synthetic bags are unweighted, so the sample's weights are ones in any row order
    moved = FeatureSample(ids=np.empty_like(sample.ids), weights=sample.weights)
    moved.ids[p] = sample.ids
    labels = np.empty_like(ds.labels)
    labels[p] = ds.labels

    def logits(edges, sample):
        norm, _ = normalize_sym(build_adjacency(edges, n))
        return model_forward(params, sample, norm, cfg)

    want = logits(ds.edges, sample)
    got = logits(edges, moved)
    assert_close(got[p], want)
    labeled = ds.labeled_ids
    loss = Tape().softmax_cross_entropy(Tensor(want), ds.labels, labeled).data
    moved_loss = Tape().softmax_cross_entropy(Tensor(got), labels, p[labeled]).data
    assert_close(np.asarray(moved_loss), np.asarray(loss))
