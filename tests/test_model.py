"""End-to-end model: the one forward against the numpy oracle, dropout, loss, checkpoints."""

import numpy as np
import pytest

import catgcn.model
import forward_oracle as oracle
from catgcn.autodiff import Tape, backward, finite_diff_check
from catgcn.checkpoint import load_checkpoint, save_checkpoint
from catgcn.data import generate_synthetic, make_split, sample_features
from catgcn.graph import build_adjacency, normalize_sym
from catgcn.model import (
    ModelOutput,
    dropout_mask,
    model_forward,
    predict,
    taped_forward,
    taped_loss,
    training_step,
)
from catgcn.training import TrainConfig, xavier_init


def setup(seed=0, **overrides):
    ds = generate_synthetic("homophily", 24, 30, 3, 5, 0.2, 0.05, seed=seed)
    cfg = TrainConfig(d_emb=8, d_hidden=8, n_f=5, seed=seed, **overrides)
    norm, _ = normalize_sym(build_adjacency(ds.edges, ds.num_nodes))
    sample = sample_features(ds, cfg.n_f, seed)
    params = xavier_init(ds.num_features, ds.num_classes, cfg)
    return ds, cfg, norm, sample, params


def test_eval_forward_shapes():
    ds, cfg, norm, sample, params = setup()
    out = model_forward(params, sample, norm, cfg.to_model_config())
    assert out.y.shape == (24, 3)
    assert out.probs.shape == (24, 3)
    assert np.allclose(out.probs.sum(axis=1), 1.0)


def test_taped_forward_matches_eval_bitwise():
    for alpha in (0.0, 0.3, 1.0):
        for hops in (0, 2):
            ds, cfg, norm, sample, params = setup(alpha=alpha, hops=hops)
            out = model_forward(params, sample, norm, cfg.to_model_config())
            tape = Tape()
            y = taped_forward(tape, params, sample, norm, cfg.to_model_config(), train=True)
            ref = oracle.model_forward(params, sample, norm, cfg.to_model_config())
            # no dropout configured: training pass must equal eval and the
            # numpy composition bit for bit
            assert np.array_equal(y.data, out.y)
            assert np.array_equal(out.y, ref.y)
            assert np.array_equal(out.probs, ref.probs)


def test_taped_forward_with_dropout_matches_numpy_mirror():
    for site in ("embedding", "projections", "both"):
        for route in (dict(alpha=0.5), dict(alpha=0.0), dict(alpha=1.0),
                      dict(variant="meanpool"), dict(deep_projection=True)):
            ds, cfg, norm, sample, params = setup(dropout=0.4, dropout_site=site, **route)
            mcfg = cfg.to_model_config()
            tape = Tape()
            y = taped_forward(tape, params, sample, norm, mcfg, dropout_seed=3, epoch=5,
                              train=True)
            out = oracle.model_forward(params, sample, norm, mcfg, mode="train",
                                       dropout_seed=3, epoch=5)
            assert np.array_equal(y.data, out.y), (site, route)


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


def test_eval_mode_never_drops():
    ds, cfg, norm, sample, params = setup(dropout=0.9, dropout_site="both")
    mcfg = cfg.to_model_config()
    out = model_forward(params, sample, norm, mcfg)
    undropped = taped_forward(Tape(), params, sample, norm, mcfg, dropout_seed=99, epoch=7,
                              train=False)
    dropped = taped_forward(Tape(), params, sample, norm, mcfg, dropout_seed=99, epoch=7,
                            train=True)
    assert np.array_equal(out.y, undropped.data)
    assert not np.array_equal(out.y, dropped.data)


def test_model_forward_records_nothing(monkeypatch):
    ds, cfg, norm, sample, params = setup(alpha=0.5, deep_projection=True)
    seen = []

    def spy(tape, *args, **kwargs):
        y = taped_forward(tape, *args, **kwargs)
        seen.append((tape, y))
        return y

    monkeypatch.setattr(catgcn.model, "taped_forward", spy)
    out = model_forward(params, sample, norm, cfg.to_model_config())
    [(tape, y)] = seen
    assert tape._records == [] and not tape._outs
    assert not y.requires_grad and not y.needs_grad
    assert isinstance(out.y, np.ndarray) and isinstance(out.probs, np.ndarray)
    assert all(t.requires_grad for t in params.named_tensors().values())


def test_loss_reporting_matches_taped():
    ds, cfg, norm, sample, params = setup(alpha=0.4)
    mcfg = cfg.to_model_config()
    split = make_split(ds, 0)
    for eta in (0.0, 0.01):
        tape = Tape()
        y = taped_forward(tape, params, sample, norm, mcfg, train=True)
        lt = taped_loss(tape, y, ds.labels, split.train_ids, eta, params)
        out = oracle.model_forward(params, sample, norm, mcfg, mode="eval")
        assert oracle.loss(out, ds.labels, split.train_ids, eta, params) == pytest.approx(
            lt.item(), abs=1e-15
        )


def test_regularizer_covers_every_trainable_tensor():
    ds, cfg, norm, sample, params = setup(alpha=0.5)
    split = make_split(ds, 0)
    _, grads_without, _ = training_step(
        params, sample, norm, cfg.to_model_config(), ds.labels, split.train_ids, eta=0.0
    )
    _, grads_with, _ = training_step(
        params, sample, norm, cfg.to_model_config(), ds.labels, split.train_ids, eta=0.1
    )
    for name, t in params.named_tensors().items():
        g0 = grads_without.get(t, np.zeros_like(t.data))
        g1 = grads_with[t]
        assert np.abs(g1 - (g0 + 0.2 * t.data)).max() < 1e-12, name


def test_predict_tie_breaks_to_lowest_class():
    probs = np.array([[0.4, 0.4, 0.2], [0.1, 0.45, 0.45]])
    out = ModelOutput(y=probs, probs=probs)
    assert np.array_equal(predict(out), [0, 1])


def test_alpha_zero_ignores_global_parameters():
    ds, cfg, norm, sample, params = setup(alpha=0.0)
    split = make_split(ds, 0)
    _, grads, _ = training_step(
        params, sample, norm, cfg.to_model_config(), ds.labels, split.train_ids, eta=0.0
    )
    assert params.w_conv not in grads
    assert params.w_g not in grads
    out1 = model_forward(params, sample, norm, cfg.to_model_config())
    params.w_conv.data += 100.0  # dead route: output must not move
    out2 = model_forward(params, sample, norm, cfg.to_model_config())
    assert np.array_equal(out1.y, out2.y)


def test_alpha_one_ignores_local_parameters():
    ds, cfg, norm, sample, params = setup(alpha=1.0)
    split = make_split(ds, 0)
    _, grads, _ = training_step(
        params, sample, norm, cfg.to_model_config(), ds.labels, split.train_ids, eta=0.0
    )
    assert params.w_l not in grads and params.b_l not in grads
    assert params.w_conv in grads


def test_whole_model_gradient_small():
    ds, cfg, norm, sample, params = setup(alpha=0.5, hops=2)
    split = make_split(ds, 0)
    mcfg = cfg.to_model_config()

    def f():
        tape = Tape()
        y = taped_forward(tape, params, sample, norm, mcfg)
        return tape, taped_loss(tape, y, ds.labels, split.train_ids, 0.001, params)

    assert finite_diff_check(f, params.named_tensors().values(), step=1e-5) <= 1e-4


def test_meanpool_variant_uses_mean_embedding():
    ds, cfg, norm, sample, params = setup(variant="meanpool", hops=0)
    out = model_forward(params, sample, norm, cfg.to_model_config())
    e = params.embedding.data[sample.ids] * sample.weights[..., None]
    expected = e.mean(axis=1) @ params.w_l.data + params.b_l.data
    assert np.abs(out.y - expected).max() < 1e-14


def test_deep_projection_adds_hidden_layer():
    ds, cfg, norm, sample, params = setup(deep_projection=True, alpha=0.5)
    assert params.w_l_hidden is not None
    out = model_forward(params, sample, norm, cfg.to_model_config())
    assert out.y.shape == (24, 3)
    tape = Tape()
    y = taped_forward(tape, params, sample, norm, cfg.to_model_config(), train=True)
    assert np.array_equal(y.data, out.y)
    ref = oracle.model_forward(params, sample, norm, cfg.to_model_config(), mode="eval")
    assert np.array_equal(out.y, ref.y)


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
    header = json.loads(blob[20 : 20 + hlen])
    header["sections"][-1]["offset"] += 1  # last section now overruns the payload
    moved = json.dumps(header).encode()
    bad = {f"cut{n}": blob[:n] for n in (8, 19, 20, 21, 20 + hlen - 1, len(blob) - 8)}
    bad["overrun"] = blob[:12] + struct.pack("<Q", len(moved)) + moved + blob[20 + hlen :]
    bad["not json"] = blob[:20] + b"{" * hlen + blob[20 + hlen :]
    for name, data in bad.items():
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(DataError, match=re.escape(path)):
            load_checkpoint(path)
