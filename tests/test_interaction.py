"""Bilinear feature interaction, the probe-weighted global route, and the taped composition."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgcn.autodiff import Tape, Tensor
from catgcn.interaction import artificial_propagate, forward_all_nodes, local_biinteraction
from catgcn.oracle import biinteraction_pairwise, probe_matrix
from catgcn.training import TrainConfig
from forward_oracle import global_interaction


def make_params(rng, d_emb, d_hidden, c):
    return SimpleNamespace(
        w_conv=rng.normal(size=(d_emb, d_hidden)),
        w_g=rng.normal(size=(d_hidden, c)),
        b_g=rng.normal(size=c),
        w_l=rng.normal(size=(d_emb, c)),
        b_l=rng.normal(size=c),
        w_g_hidden=None, b_g_hidden=None, w_l_hidden=None, b_l_hidden=None,
    )


def make_sample(rng, n, n_f, d):
    return SimpleNamespace(ids=rng.integers(0, d, size=(n, n_f)),
                           weights=rng.uniform(0.5, 1.5, size=(n, n_f)))


def forward(table, params, config, sample):
    """forward_all_nodes on constant tensors, as an array."""
    consts = SimpleNamespace(**{k: None if v is None else Tensor(v)
                                for k, v in vars(params).items()})
    return forward_all_nodes(Tensor(table), consts, config, sample, Tape(), None).data


def embedded(table, sample):
    return table[sample.ids] * sample.weights[..., None]


def test_embed_gathers_and_scales():
    # meanpool through identity weights and zero bias returns the mean embedded row
    table = np.arange(12.0).reshape(4, 3)
    sample = SimpleNamespace(ids=np.array([[0, 2], [3, 3]]),
                             weights=np.array([[1.0, 2.0], [0.5, 1.0]]))
    params = SimpleNamespace(w_l=np.eye(3), b_l=np.zeros(3),
                             w_l_hidden=None, b_l_hidden=None)
    cfg = TrainConfig(rho=1.0, alpha=0.0, n_f=2, d_hidden=3, variant="meanpool")
    h = forward(table, params, cfg, sample)
    assert np.array_equal(h[0], (table[0] * 1.0 + table[2] * 2.0) / 2)
    assert np.array_equal(h[1], (table[3] * 0.5 + table[3] * 1.0) / 2)


def test_biinteraction_frozen_pair():
    e = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(local_biinteraction(e), [3.0, 8.0])


def test_biinteraction_single_row_is_zero():
    e = np.array([[5.0, -2.0, 7.0]])
    assert np.array_equal(local_biinteraction(e), np.zeros(3))


def test_biinteraction_matches_pairwise_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        d = int(rng.integers(1, 30))
        e = rng.normal(size=(n, d))
        fast = local_biinteraction(e)
        ref = biinteraction_pairwise(e)
        scale = max(np.abs(fast).max(), np.abs(ref).max(), 1e-300)
        assert np.abs(fast - ref).max() / scale < 1e-12


def test_biinteraction_batched():
    rng = np.random.default_rng(3)
    e = rng.normal(size=(6, 4, 5))
    batched = local_biinteraction(e)
    for i in range(6):
        assert np.array_equal(batched[i], local_biinteraction(e[i]))


def test_artificial_propagate_frozen():
    # rho=2, rows (1,0) and (3,2): row i = (col sums + 2 e_i) / 4
    e = np.array([[1.0, 0.0], [3.0, 2.0]])
    out = artificial_propagate(e, 2.0)
    assert np.allclose(out, [[1.5, 0.5], [2.5, 1.5]])


def test_artificial_propagate_rho_zero_is_column_mean():
    rng = np.random.default_rng(0)
    e = rng.normal(size=(7, 4))
    out = artificial_propagate(e, 0.0)
    assert np.abs(out - e.mean(axis=0)).max() < 1e-15


def test_artificial_propagate_matches_dense_operator():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 15))
        d = int(rng.integers(1, 10))
        rho = float(rng.uniform(0.0, 30.0))
        e = rng.normal(size=(n, d))
        assert np.abs(artificial_propagate(e, rho) - probe_matrix(n, rho) @ e).max() < 1e-12


def test_artificial_propagate_rejects_negative_rho():
    with pytest.raises(ValueError):
        artificial_propagate(np.ones((2, 2)), -0.5)


def test_global_interaction_is_mean_of_relu():
    rng = np.random.default_rng(5)
    e = rng.normal(size=(6, 8))
    w = rng.normal(size=(8, 4))
    ref = np.maximum(probe_matrix(6, 1.5) @ e @ w, 0.0).mean(axis=0)
    assert np.abs(global_interaction(e, w, 1.5) - ref).max() < 1e-12


def test_fuse_alpha_endpoints_skip_dead_route():
    rng = np.random.default_rng(7)
    params = make_params(rng, 8, 6, 3)
    table = rng.normal(size=(10, 8))
    sample = make_sample(rng, 5, 4, 10)
    e = embedded(table, sample)
    h_l = local_biinteraction(e)
    h_g = global_interaction(e, params.w_conv, 1.0)
    cfg0 = TrainConfig(rho=1.0, alpha=0.0, n_f=4, d_hidden=6)
    cfg1 = TrainConfig(rho=1.0, alpha=1.0, n_f=4, d_hidden=6)
    # alpha=0 must not read the global route at all; alpha=1 must not read the local one
    dead_g = SimpleNamespace(**{**vars(params), "w_conv": np.full((8, 6), np.nan),
                                "w_g": np.full((6, 3), np.nan)})
    dead_l = SimpleNamespace(**{**vars(params), "w_l": np.full((8, 3), np.nan)})
    assert np.array_equal(forward(table, dead_g, cfg0, sample), h_l @ params.w_l + params.b_l)
    assert np.array_equal(forward(table, dead_l, cfg1, sample), h_g @ params.w_g + params.b_g)


def test_fuse_interior_is_convex_combination():
    rng = np.random.default_rng(9)
    params = make_params(rng, 8, 6, 3)
    table = rng.normal(size=(10, 8))
    sample = make_sample(rng, 5, 4, 10)
    e = embedded(table, sample)
    h_l = local_biinteraction(e)
    h_g = global_interaction(e, params.w_conv, 1.0)
    cfg = TrainConfig(rho=1.0, alpha=0.3, n_f=4, d_hidden=6)
    expected = 0.3 * (h_g @ params.w_g + params.b_g) + 0.7 * (h_l @ params.w_l + params.b_l)
    assert np.abs(forward(table, params, cfg, sample) - expected).max() < 1e-14


def test_fuse_relu_final_activation():
    rng = np.random.default_rng(13)
    params = make_params(rng, 4, 4, 2)
    table = rng.normal(size=(6, 4))
    sample = make_sample(rng, 3, 4, 6)
    h_l = local_biinteraction(embedded(table, sample))
    cfg = TrainConfig(rho=0.0, alpha=0.0, n_f=4, d_hidden=4, final_activation="relu")
    out = forward(table, params, cfg, sample)
    assert np.array_equal(out, np.maximum(h_l @ params.w_l + params.b_l, 0.0))
    assert (out == 0.0).any() and (out > 0.0).any()  # the relu acts on this case


def test_config_validation():
    # the interaction settings are checked where the run config is built
    for bad, message in [
        (dict(rho=-1.0), "rho must be >= 0, got -1.0"),
        (dict(alpha=1.5), r"alpha must lie in \[0, 1\], got 1.5"),
        (dict(n_f=0), "n_f must be >= 1, got 0"),
        (dict(final_activation="tanh"), "unknown final_activation 'tanh'"),
        (dict(variant="gcn"), "unknown variant 'gcn'"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{"rho": 0.0, "alpha": 0.5, "n_f": 4, "d_hidden": 4, **bad})


# --- metamorphic properties of the forward -----------------------------------

seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(1, 6), n_f=st.integers(1, 8), d_emb=st.integers(1, 5),
       alpha=st.sampled_from([0.0, 0.5, 1.0]), variant=st.sampled_from(["catgcn", "meanpool"]))
def test_forward_ignores_the_order_of_sample_slots(seed, n, n_f, d_emb, alpha, variant):
    # a node's sample is a bag: permuting its slots, ids and weights together,
    # changes each row of H only by summation-order rounding
    rng = np.random.default_rng(seed)
    params = make_params(rng, d_emb, 3, 2)
    table = rng.normal(size=(7, d_emb))
    sample = make_sample(rng, n, n_f, 7)
    perm = rng.permuted(np.tile(np.arange(n_f), (n, 1)), axis=1)
    shuffled = SimpleNamespace(ids=np.take_along_axis(sample.ids, perm, axis=1),
                               weights=np.take_along_axis(sample.weights, perm, axis=1))
    cfg = TrainConfig(alpha=alpha, variant=variant, n_f=n_f, d_emb=d_emb, d_hidden=3)
    h = forward(table, params, cfg, sample)
    assert np.abs(forward(table, params, cfg, shuffled) - h).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(1, 8), d_emb=st.integers(1, 6),
       scale=st.floats(1e-3, 1e3))
def test_one_slot_has_no_pairwise_interaction(seed, n, d_emb, scale):
    rng = np.random.default_rng(seed)
    table = scale * rng.normal(size=(5, d_emb))
    sample = make_sample(rng, n, 1, 5)
    tape = Tape()
    e = tape.scale_rows(tape.gather_rows(Tensor(table), sample.ids), sample.weights)
    assert np.array_equal(tape.biinteraction(e).data, np.zeros((n, d_emb)))
    # so the local route alone is its projection's bias, exactly
    params = make_params(rng, d_emb, 3, 2)
    cfg = TrainConfig(alpha=0.0, n_f=1, d_emb=d_emb, d_hidden=3)
    assert np.array_equal(forward(table, params, cfg, sample), np.tile(params.b_l, (n, 1)))
