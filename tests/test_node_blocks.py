"""The blocked per-node stage: its slot-major memory changes no bit, and at any
block size it agrees with one pass of the oracles.

`Tape.gather_rows` stores each node block of `forward_all_nodes` slot-major,
(n_f, rows, d) memory behind the (rows, n_f, d) arrays the primitives see,
unless the table is one column wide. The layout tests rerun training steps
and eval forwards with every gather's rows copied node-major, and require the
same bytes. The differential
test draws shapes, block sizes and settings and compares the blocked stage
with `forward_oracle` and `tape_oracle`, which run all nodes in one pass.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catgcn.interaction
import forward_oracle
import tape_oracle
from catgcn.autodiff import Tape
from catgcn.data import generate_synthetic, make_split, sample_features
from catgcn.graph import build_adjacency, normalize_sym
from catgcn.model import model_forward, training_step
from catgcn.training import TrainConfig, xavier_init


def spy_layouts(patch):
    """Whether each gather's rows are slot-major, in call order."""
    layouts = []
    gather = Tape.gather_rows

    def spy(tape, table, ids):
        out = gather(tape, table, ids)
        rows = out.data
        layouts.append(rows.shape[1] > 1 and rows.strides[1] > rows.strides[0])
        return out

    patch.setattr(Tape, "gather_rows", spy)
    return layouts


def make_node_major(patch):
    """Every gather hands on a node-major (C-order) copy of its rows."""
    gather = Tape.gather_rows

    def node_major(tape, table, ids):
        out = gather(tape, table, ids)
        out.data = np.ascontiguousarray(out.data)
        return out

    patch.setattr(Tape, "gather_rows", node_major)


def run(params, sample, norm, cfg, labels, train_ids):
    """(loss, gradients in leaf order, training logits, eval logits)."""
    loss, grads, y = training_step(params, sample, norm, cfg, labels, train_ids, epoch=5)
    return loss, grads, y, model_forward(params, sample, norm, cfg)


BOTH = dict(dropout=0.3, dropout_site="both", eta=0.01)


@pytest.mark.parametrize("nodes, n_f, d_emb, d_hidden, overrides, slot_major", [
    # one block at the default budget: the eval-100k and train-10k block shape,
    # then the train-wide one
    (204, 10, 32, 32, {}, True),
    (20, 50, 64, 64, {}, True),
    *[(204, 10, 32, 32, dict(dropout=0.3, dropout_site=site, weights="mixed"), True)
      for site in ("embedding", "projections", "both")],
    (20, 50, 64, 64, dict(BOTH, weights="mixed", deep_projection=True,
                          final_activation="relu"), True),
    (204, 10, 32, 32, dict(BOTH, weights="mixed", variant="meanpool"), True),
    (204, 10, 32, 32, dict(BOTH, weights="mixed", alpha=1.0), True),
    # numpy sums the slots of (rows, n_f, 1) rows pairwise in node-major
    # memory, so a one-column table's gather stays node-major, and so does the
    # one-wide product of d_hidden = 1 after a slot-major gather
    (204, 10, 1, 32, dict(BOTH, weights="mixed"), False),
    (204, 10, 32, 1, dict(BOTH, weights="mixed"), True),
    (204, 10, 1, 32, dict(variant="meanpool"), False),
    (204, 10, 1, 32, dict(alpha=0.0), False),
], ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else str(v))
def test_slot_major_blocks_keep_every_bit(monkeypatch, nodes, n_f, d_emb, d_hidden, overrides,
                                          slot_major):
    overrides = dict(overrides)
    mixed = overrides.pop("weights", None) == "mixed"
    ds = generate_synthetic("homophily", nodes, 300, 3, n_f, 0.05, 0.005, seed=5)
    cfg = TrainConfig(**{"d_emb": d_emb, "d_hidden": d_hidden, "n_f": n_f, "alpha": 0.5,
                         "rho": 2.5, "hops": 1, "seed": 5, **overrides})
    norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    sample = sample_features(ds, n_f, 5)
    if mixed:
        rng = np.random.default_rng(5)
        w = np.where(rng.random(sample.weights.shape) < 0.5, 1.0,
                     rng.uniform(0.1, 3.0, sample.weights.shape))
        sample = dataclasses.replace(sample, weights=w)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    args = (params, sample, norm, cfg, ds.labels, make_split(ds, 5).train_ids)

    with monkeypatch.context() as patch:
        layouts = spy_layouts(patch)
        loss, grads, y, y_eval = run(*args)
    # one block: the training forward, its recompute, the eval forward
    assert layouts == [slot_major] * 3
    make_node_major(monkeypatch)
    layouts = spy_layouts(monkeypatch)
    ref_loss, ref_grads, ref_y, ref_eval = run(*args)
    assert layouts == [False] * 3
    assert loss == ref_loss
    assert y.tobytes() == ref_y.tobytes() and y_eval.tobytes() == ref_eval.tobytes()
    assert list(grads) == list(ref_grads)
    for t, g in grads.items():
        assert g.tobytes() == ref_grads[t].tobytes()


def assert_close(got, want, scale=None):
    """Within 1e-12 of `scale`, by default want's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if scale is None:
        scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


def check_blocked_stage(seed, n, n_f, d_emb, d_hidden, classes, vocab, alpha, variant, site,
                        deep_projection, final_activation, hops, unit, per_block):
    """One training step and eval forward with `per_block` nodes per block,
    against one pass of the oracles. Loss and logits are held relative to
    their own size. A blocked gradient sums per-block parts, so it differs
    from one pass by reassociation, which is bounded by the size of the parts
    rather than of their sum: gradients are held within 1e-12 of the largest
    entry of any reference gradient."""
    cfg = TrainConfig(
        d_emb=d_emb, d_hidden=d_hidden, n_f=n_f, alpha=alpha, variant=variant, rho=2.5,
        deep_projection=deep_projection, final_activation=final_activation,
        dropout=0.0 if site is None else 0.3, dropout_site=site or "embedding",
        hops=hops, eta=0.01, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    sample = SimpleNamespace(
        ids=rng.integers(0, vocab, size=(n, n_f)),
        weights=np.ones((n, n_f)) if unit else rng.uniform(0.1, 3.0, size=(n, n_f)))
    norm, _ = normalize_sym(build_adjacency(rng.integers(0, n, size=(2 * n, 2)), n))
    labels = rng.integers(0, classes, size=n)
    train_ids = np.flatnonzero(rng.random(n) < 0.6)
    if len(train_ids) == 0:
        train_ids = np.array([0])
    params = xavier_init(vocab, classes, cfg)

    width = d_emb if alpha == 0.0 or variant == "meanpool" else max(d_emb, d_hidden)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catgcn.interaction, "NODE_BLOCK_BYTES", per_block * 8 * n_f * width)
        loss, grads, y = training_step(params, sample, norm, cfg, labels, train_ids, epoch=3)
        y_eval = model_forward(params, sample, norm, cfg)

    assert_close(y_eval, forward_oracle.model_forward(params, sample, norm, cfg))
    assert_close(y, forward_oracle.model_forward(params, sample, norm, cfg, "train", epoch=3))
    ref_loss, ref_grads, ref_y = tape_oracle.training_step(params, sample, norm, cfg, labels,
                                                           train_ids, epoch=3)
    assert_close(loss, ref_loss)
    assert_close(y, ref_y)
    assert set(grads) == set(ref_grads)
    scale = max(np.abs(g).max(initial=0.0) for g in ref_grads.values())
    for t, g in grads.items():
        assert_close(g, ref_grads[t], scale)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), n_f=st.integers(1, 6),
       d_emb=st.integers(1, 5), d_hidden=st.integers(1, 5), classes=st.integers(2, 4),
       vocab=st.one_of(st.integers(1, 4), st.integers(200, 600)), data=st.data())
def test_blocked_stage_matches_one_pass_oracles(seed, n, n_f, d_emb, d_hidden, classes, vocab,
                                                data):
    # vocabularies smaller than a block's ids repeat ids within and across
    # nodes; the large ones leave most table rows unused
    alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    variant = data.draw(st.sampled_from(["catgcn", "meanpool"]))
    site = data.draw(st.sampled_from([None, "embedding", "projections", "both"]))
    check_blocked_stage(
        seed, n, n_f, d_emb, d_hidden, classes, vocab, alpha, variant, site,
        deep_projection=data.draw(st.booleans()),
        final_activation=data.draw(st.sampled_from(["identity", "relu"])),
        hops=data.draw(st.integers(0, 2)), unit=data.draw(st.booleans()),
        # from one node per block to all of them in one block
        per_block=data.draw(st.integers(1, n)))


def test_blocked_gradient_that_cancels_is_held_normwise():
    # b_l_hidden's gradient cancels to 1.55e-6 here, and one node per block
    # moves it by 1.2e-17: 7.8e-12 of its own size, far below the others'
    check_blocked_stage(seed=1, n=3, n_f=4, d_emb=1, d_hidden=1, classes=2, vocab=4,
                        alpha=0.0, variant="meanpool", site="projections",
                        deep_projection=True, final_activation="identity", hops=0,
                        unit=True, per_block=1)
