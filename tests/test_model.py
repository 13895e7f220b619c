"""End-to-end model: the one forward against the numpy oracle, dropout, loss, checkpoints,
and the training step against the reference tape: same bits, less memory."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import catgcn.interaction
import catgcn.model
import forward_oracle as oracle
import tape_oracle
from catgcn.autodiff import Tape, Tensor, backward, finite_diff_check
from catgcn.checkpoint import load_checkpoint, save_checkpoint
from catgcn.data import generate_synthetic, make_split, sample_features
from catgcn.graph import build_adjacency, normalize_sym
from catgcn.interaction import dropout_mask
from catgcn.model import model_forward, predict, taped_forward, taped_loss, training_step
from catgcn.training import TrainConfig, xavier_init


def setup(seed=0, weights="unit", **overrides):
    """A small model; `weights="mixed"` swaps in `mixed_weights` for the sample's
    unit weights (the synthetic generator makes only 1.0)."""
    ds = generate_synthetic("homophily", 24, 30, 3, 5, 0.2, 0.05, seed=seed)
    cfg = TrainConfig(**{"d_emb": 8, "d_hidden": 8, "n_f": 5, "seed": seed, **overrides})
    norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    sample = sample_features(ds, cfg.n_f, seed)
    if weights == "mixed":
        sample = mixed_weights(sample, seed)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    return ds, cfg, norm, sample, params


def mixed_weights(sample, seed):
    """The sample with about half its weights drawn from (0.1, 3) and the rest exactly 1.0."""
    rng = np.random.default_rng(seed)
    shape = sample.weights.shape
    w = np.where(rng.random(shape) < 0.5, 1.0, rng.uniform(0.1, 3.0, shape))
    assert (w == 1.0).any() and (w != 1.0).any()
    return dataclasses.replace(sample, weights=w)


def test_eval_forward_shapes():
    ds, cfg, norm, sample, params = setup()
    assert model_forward(params, sample, norm, cfg).shape == (24, 3)


def test_taped_forward_matches_eval_bitwise():
    for alpha in (0.0, 0.3, 1.0):
        for hops in (0, 2):
            ds, cfg, norm, sample, params = setup(alpha=alpha, hops=hops)
            out = model_forward(params, sample, norm, cfg)
            tape = Tape()
            y = taped_forward(tape, params, sample, norm, cfg)
            ref = oracle.model_forward(params, sample, norm, cfg)
            # no dropout configured: training pass must equal eval and the
            # numpy composition bit for bit
            assert np.array_equal(y.data, out)
            assert np.array_equal(out, ref)


def test_taped_forward_with_dropout_matches_numpy_mirror():
    for site in ("embedding", "projections", "both"):
        for route in (dict(alpha=0.5), dict(alpha=0.0), dict(alpha=1.0),
                      dict(variant="meanpool"), dict(deep_projection=True)):
            ds, cfg, norm, sample, params = setup(dropout=0.4, dropout_site=site, **route)
            cfg = dataclasses.replace(cfg, seed=3)
            tape = Tape()
            y = taped_forward(tape, params, sample, norm, cfg, 5)
            out = oracle.model_forward(params, sample, norm, cfg, mode="train", epoch=5)
            assert np.array_equal(y.data, out), (site, route)


def test_dropout_mask_values_and_determinism():
    m1 = dropout_mask((500, 20), 0.3, seed=1, epoch=2, site_idx=0)
    m2 = dropout_mask((500, 20), 0.3, seed=1, epoch=2, site_idx=0)
    assert np.array_equal(m1, m2)
    vals = np.unique(m1)
    assert set(np.round(vals, 12)) <= {0.0, round(1.0 / 0.7, 12)}
    # keep rate close to 1 - rate
    assert abs((m1 > 0).mean() - 0.7) < 0.02


def test_dropout_mask_varies_by_epoch_and_site():
    base = dropout_mask((50, 10), 0.5, seed=1, epoch=1, site_idx=0)
    assert not np.array_equal(base, dropout_mask((50, 10), 0.5, seed=1, epoch=2, site_idx=0))
    assert not np.array_equal(base, dropout_mask((50, 10), 0.5, seed=1, epoch=1, site_idx=1))
    assert not np.array_equal(base, dropout_mask((50, 10), 0.5, seed=2, epoch=1, site_idx=0))


def test_dropout_rate_zero_is_identity_mask():
    m = dropout_mask((10, 4), 0.0, seed=0, epoch=0)
    assert np.array_equal(m, np.ones((10, 4)))


def test_dropout_mask_blocks_concatenate_to_the_full_draw():
    # ragged node blocks of a (N, n_f, d_emb) mask, drawn from their offsets
    # alone, are the full draw byte for byte; offsets hit every residue mod 4
    shape = (23, 3, 5)
    full = dropout_mask(shape, 0.4, seed=3, epoch=2, site_idx=0)
    per_node = shape[1] * shape[2]
    for cuts in ([0, 7, 14, 21, 23], [0, 1, 2, 9, 23], [0, 23]):
        parts = [dropout_mask((hi - lo, *shape[1:]), 0.4, seed=3, epoch=2, site_idx=0,
                              offset=lo * per_node) for lo, hi in zip(cuts, cuts[1:])]
        assert np.concatenate(parts).tobytes() == full.tobytes(), cuts
    assert {lo * per_node % 4 for lo in range(23)} == {0, 1, 2, 3}
    flat = full.ravel()
    for offset in (0, 1, 5, 17, 250):
        part = dropout_mask((40,), 0.4, seed=3, epoch=2, site_idx=0, offset=offset)
        assert part.tobytes() == flat[offset:offset + 40].tobytes(), offset


def test_eval_mode_never_drops():
    for rate in (0.5, 0.9):
        ds, cfg, norm, sample, params = setup(dropout=rate, dropout_site="both")
        out = model_forward(params, sample, norm, cfg)
        undropped = taped_forward(Tape(), params, sample, norm, cfg, epoch=None)
        plain = taped_forward(Tape(), params, sample, norm, dataclasses.replace(cfg, dropout=0.0))
        dropped = taped_forward(Tape(), params, sample, norm,
                                dataclasses.replace(cfg, seed=99), 7)
        assert np.array_equal(out, undropped.data)
        assert np.array_equal(undropped.data, plain.data)
        assert not np.array_equal(out, dropped.data)


def test_model_forward_records_nothing(monkeypatch):
    ds, cfg, norm, sample, params = setup(alpha=0.5, deep_projection=True)
    seen = []

    def spy(tape, *args, **kwargs):
        y = taped_forward(tape, *args, **kwargs)
        seen.append((tape, y))
        return y

    monkeypatch.setattr(catgcn.model, "taped_forward", spy)
    out = model_forward(params, sample, norm, cfg)
    [(tape, y)] = seen
    assert tape._records == [] and y.tape is None
    assert not y.requires_grad and not y.needs_grad
    assert isinstance(out, np.ndarray)
    assert all(t.requires_grad for t in params.named_tensors().values())


def test_tape_keeps_only_what_backward_reads():
    for weights in ("unit", "mixed"):
        ds, cfg, norm, sample, params = setup(alpha=0.5, weights=weights)
        split = make_split(ds, 0)
        refs = {}

        class Spy(Tape):
            def gather_rows(self, table, ids):
                out = super().gather_rows(table, ids)
                refs["gather_rows"] = weakref.ref(out.data)
                return out

            def scale_rows(self, x, row_weights):
                out = super().scale_rows(x, row_weights)
                refs["scale_rows"] = weakref.ref(out.data)
                return out

            def relu(self, x):
                out = super().relu(x)
                refs["relu"] = weakref.ref(out.data)
                return out

        tape = Spy()
        gc.disable()  # what is freed must be freed by reference counting alone
        try:
            y = taped_forward(tape, params, sample, norm, cfg)
            assert set(refs) == {"gather_rows", "scale_rows", "relu"}
            # every (rows, n_f, d) array of the per-node function is freed with its block
            assert all(ref() is None for ref in refs.values())
            assert tape._records
            leaves = set(map(id, params.named_tensors().values()))
            own = {id(t.data) for t in params.named_tensors().values()}
            n, c = len(sample.ids), ds.num_classes
            for _, keys, vjp in tape._records:
                assert all(isinstance(k, int) or k is None or id(k) in leaves for k in keys)
                cells = [c.cell_contents for c in vjp.__closure__ or ()]
                assert not any(isinstance(c, Tensor) for c in cells)
                # the arrays a rule holds, directly or in a container: besides
                # the parameters' own, none is larger than the (N, C) logits
                held = [a for cell in cells
                        for a in (cell.values() if isinstance(cell, dict) else
                                  cell if isinstance(cell, (list, tuple)) else (cell,))
                        if isinstance(a, np.ndarray) and id(a) not in own]
                assert all(a.ndim <= 2 and a.size <= n * c for a in held), \
                    [a.shape for a in held]
            backward(tape, taped_loss(tape, y, ds.labels, split.train_ids, 0.0, params))
            assert tape._records == []
        finally:
            gc.enable()


def reference_training_step(params, sample, norm, cfg, labels, train_ids, epoch):
    """`training_step` recorded in one pass over all nodes on the reference
    tape with its kernels, and replayed there."""
    tape = tape_oracle.Tape()
    y = tape_oracle.taped_forward(tape, params, sample, norm, cfg, epoch)
    lt = taped_loss(tape, y, labels, train_ids, cfg.eta, params)
    return lt.item(), tape_oracle.backward(tape, lt), y.data


@pytest.mark.parametrize("route", [
    dict(alpha=0.0), dict(alpha=0.5), dict(alpha=1.0), dict(variant="meanpool"),
    dict(alpha=0.5, deep_projection=True, final_activation="relu"),
])
@pytest.mark.parametrize("extra", [
    dict(),
    dict(dropout=0.3, dropout_site="both", eta=0.01, hops=0),
    dict(weights="mixed"),
    dict(weights="mixed", dropout=0.3, dropout_site="both", eta=0.01, hops=0),
])
def test_training_step_is_bit_equal_to_reference_tape(route, extra):
    ds, cfg, norm, sample, params = setup(seed=2, rho=2.5, **route, **extra)
    split = make_split(ds, 2)
    args = (params, sample, norm, dataclasses.replace(cfg, seed=3), ds.labels, split.train_ids)
    loss, grads, y = training_step(*args, epoch=5)
    ref_loss, ref_grads, ref_y = reference_training_step(*args, epoch=5)
    assert loss == ref_loss
    assert y.tobytes() == ref_y.tobytes()
    assert list(grads) == list(ref_grads)  # same leaves, reached in the same order
    for t, g in grads.items():
        assert g.shape == t.shape and g.tobytes() == ref_grads[t].tobytes()


def test_training_step_leaves_inputs_and_logits_unchanged():
    # backward adds into gradient arrays in place; none of them may be an array
    # the forward produced, a parameter, or another returned gradient
    for weights in ("unit", "mixed"):
        ds, cfg, norm, sample, params = setup(seed=4, alpha=0.5, weights=weights)
        split = make_split(ds, 4)
        before = {n: t.data.copy() for n, t in params.named_tensors().items()}
        sample_before = (sample.ids.copy(), sample.weights.copy())
        _, grads, y = training_step(params, sample, norm, dataclasses.replace(cfg, eta=0.01),
                                    ds.labels, split.train_ids)
        assert y.tobytes() == model_forward(params, sample, norm, cfg).tobytes()
        for n, t in params.named_tensors().items():
            assert t.data.tobytes() == before[n].tobytes(), n
        assert np.array_equal(sample.ids, sample_before[0])
        assert sample.weights.tobytes() == sample_before[1].tobytes()
        arrays = list(grads.values()) + [t.data for t in params.named_tensors().values()] + [y]
        for i, a in enumerate(arrays[:len(grads)]):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def test_training_step_peak_memory():
    # the train-wide workload's shape at 300 nodes: one (N, n_f, d_emb) float64
    # array is the unit; the reference tape peaks above 9 units here
    nodes, n_f, d = 300, 20, 16
    ds = generate_synthetic("homophily", nodes, 200, 4, n_f, 0.07, 0.007, seed=1)
    cfg = TrainConfig(d_emb=d, d_hidden=d, n_f=n_f, alpha=0.5, rho=1.0, hops=2, seed=1)
    norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    sample = sample_features(ds, n_f, 1)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    split = make_split(ds, 1)
    args = (params, sample, norm, cfg, ds.labels, split.train_ids)
    training_step(*args)  # warm up lazy imports and caches outside the measurement
    tracemalloc.start()
    try:
        training_step(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = nodes * n_f * d * 8
    assert peak <= 5 * unit, f"peak {peak / unit:.2f} x (N * n_f * d_emb * 8 bytes)"


# the single-pass tape's records of the global route with its projection, and
# of the fusion: `records` below lists every per-node primitive a single pass
# records after the gather and the row weights
GLOBAL_REC = "artificial_prop matmul relu mean_rows matmul add_bias"
FUSE_REC = "scale scale add"


def _op(vjp):
    """The primitive (or `forward_all_nodes`, the per-node function) that made a
    record, from its rule's name."""
    names = vjp.__qualname__.split(".")
    return names[1] if names[0] == "Tape" else names[0]


@pytest.mark.parametrize("weights", ["unit", "mixed"])
@pytest.mark.parametrize("overrides, records, leaves", [
    (dict(alpha=0.0), "biinteraction matmul add_bias", "b_l w_l"),
    (dict(alpha=0.5), f"{GLOBAL_REC} biinteraction matmul add_bias {FUSE_REC}",
     "b_l w_l b_g w_g w_conv"),
    (dict(alpha=1.0), GLOBAL_REC, "b_g w_g w_conv"),
    (dict(variant="meanpool"), "mean_rows matmul add_bias", "b_l w_l"),
    (dict(alpha=0.5, deep_projection=True),
     f"{GLOBAL_REC} relu matmul add_bias biinteraction matmul add_bias relu matmul add_bias "
     f"{FUSE_REC}", "b_l w_l b_l_hidden w_l_hidden b_g w_g b_g_hidden w_g_hidden w_conv"),
    (dict(alpha=0.5, final_activation="relu"),
     f"{GLOBAL_REC} relu biinteraction matmul add_bias relu {FUSE_REC}",
     "b_l w_l b_g w_g w_conv"),
    (dict(alpha=0.5, d_emb=1), f"{GLOBAL_REC} biinteraction matmul add_bias {FUSE_REC}",
     "b_l w_l b_g w_g w_conv"),
    (dict(alpha=0.5, n_f=1), f"{GLOBAL_REC} biinteraction matmul add_bias {FUSE_REC}",
     "b_l w_l b_g w_g w_conv"),
])
def test_eval_in_node_blocks_is_bit_equal_to_training_logits(monkeypatch, overrides, records,
                                                           leaves, weights):
    ds, cfg, norm, sample, params = setup(seed=1, rho=2.5, weights=weights, **overrides)
    split = make_split(ds, 1)
    # 7 nodes per block: the 24 nodes run in blocks of 7, 7, 7 and 3
    width = max(cfg.d_emb, cfg.d_hidden)
    monkeypatch.setattr(catgcn.interaction, "NODE_BLOCK_BYTES", 7 * 8 * cfg.n_f * width)
    blocks, emitted = [], []
    gather, emit = Tape.gather_rows, Tape._emit

    def spy_gather(tape, table, ids):
        blocks.append(len(ids))
        return gather(tape, table, ids)

    def spy_emit(tape, out_data, inputs, vjp):
        out = emit(tape, out_data, inputs, vjp)
        if out.tape is tape:
            emitted.append((tape, _op(vjp)))
        return out

    monkeypatch.setattr(Tape, "gather_rows", spy_gather)
    monkeypatch.setattr(Tape, "_emit", spy_emit)
    # the forward visits each block once, for both routes
    y = model_forward(params, sample, norm, cfg)
    assert blocks == [7, 7, 7, 3] and emitted == []
    blocks.clear()

    # training's forward runs the same blocks on constants, and its tape holds
    # one record of the whole per-node function, then propagation and the loss
    tape = Tape()
    y_taped = taped_forward(tape, params, sample, norm, cfg)
    loss = taped_loss(tape, y_taped, ds.labels, split.train_ids, cfg.eta, params)
    assert blocks == [7, 7, 7, 3]
    ops = [_op(vjp) for _, _, vjp in tape._records]
    assert ops == ["forward_all_nodes", "sparse_propagate", "softmax_cross_entropy"]
    assert [op for _, op in emitted] == ops
    blocks.clear()
    emitted.clear()

    # the backward recomputes the function over the same blocks once, each
    # block on a tape of its own that records the single pass's per-node
    # records in the single pass's order
    grads = backward(tape, loss)
    assert blocks == [7, 7, 7, 3]
    block_ops = {}
    for t, op in emitted:
        block_ops.setdefault(t, []).append(op)
    assert list(block_ops.values()) == [["gather_rows", "scale_rows", *records.split()]] * 4
    names = {id(t): n for n, t in params.named_tensors().items()}
    assert [names[id(t)] for t in grads] == f"{leaves} embedding".split()
    assert y.tobytes() == y_taped.data.tobytes()
    assert y.tobytes() == training_step(params, sample, norm, cfg, ds.labels,
                                        split.train_ids)[2].tobytes()


@pytest.mark.parametrize("route", [dict(alpha=0.5), dict(alpha=1.0), dict(variant="meanpool")])
def test_eval_logits_equal_training_logits_where_blocks_change_the_bits(monkeypatch, route):
    # 8,000 nodes and C = 4: the (N, d) @ (d, C) projections in blocks of
    # 1,024 nodes round differently from one gemm over all rows, so the logits
    # are not one pass's bits; train and eval run the same blocks and agree
    nodes, n_f, d = 8000, 2, 32
    ds = generate_synthetic("homophily", nodes, 200, 4, n_f, 0.001, 0.0001, seed=5)
    cfg = TrainConfig(d_emb=d, d_hidden=d, n_f=n_f, rho=1.0, hops=2, seed=5, **route)
    norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    sample = sample_features(ds, n_f, 5)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    assert ds.num_classes == 4
    _set_nodes_per_block(monkeypatch, 1024, cfg)
    y = model_forward(params, sample, norm, cfg)
    _, _, y_step = training_step(params, sample, norm, cfg, ds.labels,
                                 make_split(ds, 5).train_ids)
    assert y.tobytes() == y_step.tobytes()
    _set_nodes_per_block(monkeypatch, nodes, cfg)
    one_pass = model_forward(params, sample, norm, cfg)
    assert y.tobytes() != one_pass.tobytes()
    assert np.abs(y - one_pass).max() <= 1e-12 * np.abs(one_pass).max()


def test_eval_forward_peak_memory_stays_below_one_embedded_array():
    # one (N, n_f, d_emb) float64 array is 16x the node-block budget here; a
    # single pass over all nodes holds several such arrays at once
    nodes, n_f, d = 2048, 32, 32
    budget = catgcn.interaction.NODE_BLOCK_BYTES
    unit = nodes * n_f * d * 8
    assert unit >= 8 * budget
    ds = generate_synthetic("homophily", nodes, 300, 4, n_f, 0.004, 0.0004, seed=2)
    cfg = TrainConfig(d_emb=d, d_hidden=d, n_f=n_f, alpha=0.5, rho=1.0, hops=2, seed=2)
    norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    sample = sample_features(ds, n_f, 2)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    model_forward(params, sample, norm, cfg)  # warm up lazy imports outside the measurement
    tracemalloc.start()
    try:
        model_forward(params, sample, norm, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < unit, f"peak {peak / unit:.2f} x (N * n_f * d_emb * 8 bytes)"


def test_eval_forward_holds_one_route_of_pooled_rows_at_a_time():
    # wide pooled rows and few of everything else: one route's (N, d) rows
    # would be most of what the forward allocates, so holding them shows; the
    # forward holds none, only a block's pooled rows at a time
    nodes, n_f, d = 20000, 2, 64
    pooled = nodes * d * 8
    assert pooled >= 8 * catgcn.interaction.NODE_BLOCK_BYTES
    ds = generate_synthetic("homophily", nodes, 100, 3, n_f, 0.0002, 0.00002, seed=3)
    cfg = TrainConfig(d_emb=d, d_hidden=d, n_f=n_f, alpha=0.5, rho=1.0, hops=1, seed=3)
    norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    sample = sample_features(ds, n_f, 3)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    model_forward(params, sample, norm, cfg)  # warm up lazy imports outside the measurement
    tracemalloc.start()
    try:
        model_forward(params, sample, norm, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * pooled, f"peak {peak / pooled:.2f} x (N * d * 8 bytes)"


def test_training_step_peak_memory_stays_below_one_embedded_array():
    # the eval bound above for one training step: the tape keeps only pooled
    # rows, and the backward recomputes each node block's stage
    nodes, n_f, d = 2048, 32, 32
    budget = catgcn.interaction.NODE_BLOCK_BYTES
    unit = nodes * n_f * d * 8
    assert unit >= 8 * budget
    ds = generate_synthetic("homophily", nodes, 300, 4, n_f, 0.004, 0.0004, seed=2)
    cfg = TrainConfig(d_emb=d, d_hidden=d, n_f=n_f, alpha=0.5, rho=1.0, hops=2, seed=2)
    norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    sample = sample_features(ds, n_f, 2)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    args = (params, sample, norm, cfg, ds.labels, make_split(ds, 2).train_ids)
    training_step(*args)  # warm up lazy imports outside the measurement
    tracemalloc.start()
    try:
        training_step(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < unit, f"peak {peak / unit:.2f} x (N * n_f * d_emb * 8 bytes)"


def _set_nodes_per_block(monkeypatch, nodes_per_block, cfg):
    width = max(cfg.d_emb, cfg.d_hidden)
    monkeypatch.setattr(catgcn.interaction, "NODE_BLOCK_BYTES",
                        nodes_per_block * 8 * cfg.n_f * width)


def _spy_gathers(monkeypatch):
    """The (table rows, ids) shape of every `Tape.gather_rows` call, in order."""
    calls = []
    gather = Tape.gather_rows

    def spy(tape, table, ids):
        calls.append((table.shape[0], len(ids)))
        return gather(tape, table, ids)

    monkeypatch.setattr(Tape, "gather_rows", spy)
    return calls


def _assert_matches_reference(step, ref):
    """Every gradient, summed by node block, within 1e-12 relative of one pass.
    Loss and logits are bit for bit one pass's at the small shapes here, where
    the blocked projection gemms round as one gemm does (at larger ones they
    agree within 1e-12 relative; see the 8,000-node test above)."""
    (loss, grads, y), (ref_loss, ref_grads, ref_y) = step, ref
    assert loss == ref_loss and y.tobytes() == ref_y.tobytes()
    assert list(grads) == list(ref_grads)
    for t, g in grads.items():
        want = ref_grads[t]
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("weights", ["unit", "mixed"])
@pytest.mark.parametrize("overrides", [
    dict(alpha=0.0), dict(alpha=0.5), dict(alpha=1.0), dict(variant="meanpool"),
    dict(alpha=0.5, deep_projection=True), dict(alpha=0.5, final_activation="relu"),
    dict(alpha=0.5, dropout=0.3, dropout_site="embedding", eta=0.01),
    dict(alpha=0.5, dropout=0.3, dropout_site="projections", eta=0.01),
    dict(alpha=0.5, dropout=0.3, dropout_site="both", eta=0.01),
    dict(alpha=0.5, n_f=1), dict(alpha=0.5, d_emb=1),
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_training_step_in_node_blocks_matches_one_pass(monkeypatch, overrides, weights):
    # ragged blocks of 7, 7, 7 and 3 nodes against one pass of all 24 on the
    # reference tape
    ds, cfg, norm, sample, params = setup(seed=3, rho=2.5, weights=weights, **overrides)
    args = (params, sample, norm, cfg, ds.labels, make_split(ds, 3).train_ids)
    _set_nodes_per_block(monkeypatch, 7, cfg)
    calls = _spy_gathers(monkeypatch)
    step = training_step(*args, epoch=5)
    # the forward, then the backward's recompute: one gather per block each
    assert [n for _, n in calls] == [7, 7, 7, 3] * 2
    _assert_matches_reference(step, reference_training_step(*args, epoch=5))


def test_block_backward_scatters_into_the_block_rows_only(monkeypatch):
    # a vocabulary far larger than the ids of any node block: each block's
    # recompute gathers from, and scatters into, only the table rows its nodes
    # use, so a step's table-gradient work does not grow with blocks x vocabulary
    nodes, feats = 60, 20000
    ds = generate_synthetic("homophily", nodes, feats, 3, 4, 0.1, 0.02, seed=4)
    cfg = TrainConfig(d_emb=4, d_hidden=4, n_f=4, alpha=0.5, rho=1.0, hops=1, seed=4)
    norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    sample = sample_features(ds, cfg.n_f, 4)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    args = (params, sample, norm, cfg, ds.labels, make_split(ds, 4).train_ids)
    _set_nodes_per_block(monkeypatch, 7, cfg)
    calls = _spy_gathers(monkeypatch)
    step = training_step(*args)
    blocks = [slice(lo, lo + 7) for lo in range(0, nodes, 7)]
    assert len(blocks) == 9 and ds.num_features == feats
    # the forward gathers once per block from the whole table
    forward, recompute = calls[:len(blocks)], calls[len(blocks):]
    assert forward == [(feats, len(sample.ids[rows])) for rows in blocks]
    assert recompute == [(len(np.unique(sample.ids[rows])), len(sample.ids[rows]))
                         for rows in blocks]
    _assert_matches_reference(step, reference_training_step(*args, epoch=0))
    unused = np.setdiff1d(np.arange(feats), sample.ids)
    assert not step[1][params.embedding][unused].any()


def test_whole_model_gradient_in_node_blocks(monkeypatch):
    # criterion 4's full-model check, run through three ragged node blocks with
    # the block-sliced dropout masks at both sites
    ds, cfg, norm, sample, params = setup(alpha=0.5, hops=2, weights="mixed", dropout=0.3,
                                          dropout_site="both")
    _set_nodes_per_block(monkeypatch, 10, cfg)
    split = make_split(ds, 0)
    calls = _spy_gathers(monkeypatch)

    def f():
        tape = Tape()
        y = taped_forward(tape, params, sample, norm, cfg, 2)
        return tape, taped_loss(tape, y, ds.labels, split.train_ids, 0.001, params)

    assert finite_diff_check(f, params.named_tensors().values(), step=1e-5) <= 1e-4
    assert [n for _, n in calls[:3]] == [10, 10, 4]


def test_loss_reporting_matches_taped():
    ds, cfg, norm, sample, params = setup(alpha=0.4)
    split = make_split(ds, 0)
    for eta in (0.0, 0.01):
        tape = Tape()
        y = taped_forward(tape, params, sample, norm, cfg)
        lt = taped_loss(tape, y, ds.labels, split.train_ids, eta, params)
        out = oracle.model_forward(params, sample, norm, cfg, mode="eval")
        assert oracle.loss(out, ds.labels, split.train_ids, eta, params) == pytest.approx(
            lt.item(), abs=1e-15
        )


def test_regularizer_covers_every_trainable_tensor():
    ds, cfg, norm, sample, params = setup(alpha=0.5)
    split = make_split(ds, 0)
    _, grads_without, _ = training_step(params, sample, norm, cfg, ds.labels, split.train_ids)
    _, grads_with, _ = training_step(
        params, sample, norm, dataclasses.replace(cfg, eta=0.1), ds.labels, split.train_ids
    )
    for name, t in params.named_tensors().items():
        g0 = grads_without.get(t, np.zeros_like(t.data))
        g1 = grads_with[t]
        assert np.abs(g1 - (g0 + 0.2 * t.data)).max() < 1e-12, name


def test_predict_tie_breaks_to_lowest_class():
    # the last row's logits differ, but their probabilities round to a tie
    logits = np.array([[0.4, 0.4, 0.2], [0.1, 0.45, 0.45], [0.0, 1e-17, -1.0]])
    assert np.array_equal(predict(logits), [0, 1, 0])


def test_alpha_zero_ignores_global_parameters():
    ds, cfg, norm, sample, params = setup(alpha=0.0)
    split = make_split(ds, 0)
    _, grads, _ = training_step(params, sample, norm, cfg, ds.labels, split.train_ids)
    assert params.w_conv not in grads
    assert params.w_g not in grads
    out1 = model_forward(params, sample, norm, cfg)
    params.w_conv.data += 100.0  # dead route: output must not move
    out2 = model_forward(params, sample, norm, cfg)
    assert np.array_equal(out1, out2)


def test_alpha_one_ignores_local_parameters():
    ds, cfg, norm, sample, params = setup(alpha=1.0)
    split = make_split(ds, 0)
    _, grads, _ = training_step(params, sample, norm, cfg, ds.labels, split.train_ids)
    assert params.w_l not in grads and params.b_l not in grads
    assert params.w_conv in grads


def test_whole_model_gradient_small():
    ds, cfg, norm, sample, params = setup(alpha=0.5, hops=2)
    split = make_split(ds, 0)

    def f():
        tape = Tape()
        y = taped_forward(tape, params, sample, norm, cfg)
        return tape, taped_loss(tape, y, ds.labels, split.train_ids, 0.001, params)

    assert finite_diff_check(f, params.named_tensors().values(), step=1e-5) <= 1e-4


def test_meanpool_variant_uses_mean_embedding():
    ds, cfg, norm, sample, params = setup(variant="meanpool", hops=0)
    out = model_forward(params, sample, norm, cfg)
    e = params.embedding.data[sample.ids] * sample.weights[..., None]
    expected = e.mean(axis=1) @ params.w_l.data + params.b_l.data
    assert np.abs(out - expected).max() < 1e-14


def test_deep_projection_adds_hidden_layer():
    ds, cfg, norm, sample, params = setup(deep_projection=True, alpha=0.5)
    assert params.w_l_hidden is not None
    out = model_forward(params, sample, norm, cfg)
    assert out.shape == (24, 3)
    tape = Tape()
    y = taped_forward(tape, params, sample, norm, cfg)
    assert np.array_equal(y.data, out)
    ref = oracle.model_forward(params, sample, norm, cfg, mode="eval")
    assert np.array_equal(out, ref)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ds, cfg, norm, sample, params = setup(deep_projection=False)
    path = str(tmp_path / "model.bin")
    from dataclasses import asdict

    save_checkpoint(path, params, asdict(cfg), cfg.seed)
    loaded, config, seed = load_checkpoint(path)
    assert seed == cfg.seed
    assert TrainConfig(**config) == cfg
    for name, t in params.named_tensors().items():
        assert np.array_equal(loaded.named_tensors()[name].data, t.data), name
        assert loaded.named_tensors()[name].requires_grad


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))


def test_checkpoint_faults_are_data_errors(tmp_path):
    import json
    import re
    import struct
    from dataclasses import asdict

    from catgcn.data import DataError

    _, cfg, _, _, params = setup(deep_projection=False)
    path = str(tmp_path / "model.bin")
    save_checkpoint(path, params, asdict(cfg), cfg.seed)
    blob = open(path, "rb").read()
    (hlen,) = struct.unpack_from("<Q", blob, 12)

    def with_sections(edit):
        """The checkpoint with its header's section table replaced by `edit` of it."""
        header = json.loads(blob[20 : 20 + hlen])
        header["sections"] = edit({s["name"]: s for s in header["sections"]})
        raw = json.dumps(header).encode()
        return blob[:12] + struct.pack("<Q", len(raw)) + raw + blob[20 + hlen :]

    def overrun(s):  # b_l, the last section, now overruns the payload
        s["b_l"]["offset"] += 1
        return list(s.values())

    # file bytes, and what the message says besides the path
    bad = {f"cut{n}": (blob[:n], "") for n in (8, 19, 20, 21, 20 + hlen - 1, len(blob) - 8)}
    bad["not json"] = (blob[:20] + b"{" * hlen + blob[20 + hlen :], "malformed checkpoint header")
    bad["version 2"] = (blob[:8] + struct.pack("<I", 2) + blob[12:],
                        "unsupported checkpoint format version 2")
    bad["overrun"] = (with_sections(overrun), "truncated checkpoint: section 'b_l'")
    bad["twice"] = (  # w_g again, reading the embedding's values
        with_sections(lambda s: [*s.values(), {**s["w_g"], "offset": 0}]),
        "checkpoint section 'w_g' appears twice")
    bad["unknown"] = (with_sections(lambda s: [*s.values(), {**s["b_g"], "name": "b_x"}]),
                      "unknown checkpoint section 'b_x'")
    bad["missing"] = (with_sections(lambda s: [v for k, v in s.items() if k != "w_conv"]),
                      "checkpoint missing sections ['w_conv']")
    bad["malformed entry"] = (
        with_sections(lambda s: [*s.values(), {"name": "w_g_hidden", "shape": [2, 2]}]),
        "malformed checkpoint section")
    bad["sections not a list"] = (with_sections(lambda s: s),
                                  "malformed checkpoint header: bad sections or config")
    for name, (data, message) in bad.items():
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(DataError, match=re.escape(path) + ".*" + re.escape(message)):
            load_checkpoint(path)
