"""Command-line interface: commands, artifacts, exit codes, reproducibility."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest

from catgcn.autodiff import Tensor
from catgcn.checkpoint import load_checkpoint, save_checkpoint
from catgcn.cli import _resolve_config, build_parser, main
from catgcn.training import TrainConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env():
    """This environment with the checkout's `src` first on a child's PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    code = main([
        "synth", "--kind", "local-signal", "--nodes", "120", "--feats", "40",
        "--classes", "3", "--n-f", "6", "--p-in", "0.05", "--p-out", "0.05",
        "--seed", "11", "--out-dir", str(out),
    ])
    assert code == 0
    return out


def data_args(dataset_dir):
    return [
        "--edges", str(dataset_dir / "edges.tsv"),
        "--features", str(dataset_dir / "features.tsv"),
        "--labels", str(dataset_dir / "labels.tsv"),
    ]


def test_synth_writes_all_files(dataset_dir, capsys):
    for name in ("edges.tsv", "features.tsv", "labels.tsv", "meta.json"):
        assert (dataset_dir / name).exists()
    meta = json.loads((dataset_dir / "meta.json").read_text())
    assert meta["kind"] == "local-signal"
    assert meta["n_nodes"] == 120


def test_train_emits_metrics_and_artifacts(dataset_dir, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run(
        capsys, "train", *data_args(dataset_dir),
        "--max-epochs", "5", "--d-emb", "8", "--d-hidden", "8", "--n-f", "6",
        "--seed", "3", "--out-dir", str(out_dir),
    )
    assert code == 0
    metrics = json.loads(out)
    assert set(metrics) >= {"test_accuracy", "test_macro_f1", "val_accuracy", "val_macro_f1"}
    assert "epoch" in err  # progress goes to stderr
    for name in ("checkpoint.bin", "epochs.jsonl", "manifest.json"):
        assert (out_dir / name).exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["max_epochs"] == 5
    assert manifest["config"]["n_f"] == 6
    assert len(manifest["dataset"]["fingerprint"]) == 64
    lines = (out_dir / "epochs.jsonl").read_text().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert set(first) == {"epoch", "train_loss", "val_accuracy", "val_macro_f1"}


def test_train_twice_is_bit_identical(dataset_dir, tmp_path, capsys):
    args = ["train", *data_args(dataset_dir), "--max-epochs", "4", "--d-emb", "8",
            "--d-hidden", "8", "--n-f", "6", "--seed", "5", "--quiet"]
    run(capsys, *args, "--out-dir", str(tmp_path / "a"))
    run(capsys, *args, "--out-dir", str(tmp_path / "b"))
    assert (tmp_path / "a/epochs.jsonl").read_bytes() == (tmp_path / "b/epochs.jsonl").read_bytes()
    assert (tmp_path / "a/checkpoint.bin").read_bytes() == (tmp_path / "b/checkpoint.bin").read_bytes()


@pytest.mark.parametrize("resample", ["false", "true"])
def test_train_hands_its_dataset_over(dataset_dir, tmp_path, capsys, monkeypatch, resample):
    # without resampling the bags and the edge list are dead at the first
    # step; the run writes the bytes of one whose dataset stays alive
    import catgcn.cli as cli
    import catgcn.training as training

    load, step = cli.load_dataset, training.training_step
    names = ("bag_offsets", "bag_ids", "bag_weights", "edges")

    def train_run(keep):
        """(the names of `names` alive at each step, stdout and artifact bytes)."""
        refs, alive, kept = {}, [], []

        def loading(*args):
            ds = load(*args)
            refs.update({n: weakref.ref(getattr(ds, n)) for n in names})
            if keep:
                kept.append(ds)
            return ds

        def probing(*args, **kwargs):
            alive.append([n for n, ref in refs.items() if ref() is not None])
            return step(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", loading)
        monkeypatch.setattr(training, "training_step", probing)
        out_dir = tmp_path / f"keep-{keep}"
        code, out, _ = run(capsys, "train", *data_args(dataset_dir), "--max-epochs", "3",
                           "--d-emb", "8", "--d-hidden", "8", "--n-f", "6", "--seed", "5",
                           "--quiet", "--resample-per-epoch", resample,
                           "--out-dir", str(out_dir))
        assert code == 0
        return alive, (out, (out_dir / "epochs.jsonl").read_bytes(),
                       (out_dir / "checkpoint.bin").read_bytes())

    kept_alive, kept_bytes = train_run(keep=True)
    handed_alive, handed_bytes = train_run(keep=False)
    assert handed_bytes == kept_bytes
    assert kept_alive == [list(names)] * 3
    assert handed_alive == [list(names) if resample == "true" else []] * 3


def test_eval_reproduces_train_metrics(dataset_dir, tmp_path, capsys):
    # dropout and resampling make training's taped forward differ from the eval forward
    for i, extra in enumerate([[], ["--dropout", "0.3"], ["--resample-per-epoch", "true"]]):
        out_dir = tmp_path / f"run{i}"
        code, out, _ = run(
            capsys, "train", *data_args(dataset_dir), "--max-epochs", "4", "--d-emb", "8",
            "--d-hidden", "8", "--n-f", "6", "--seed", "5", "--quiet", *extra,
            "--out-dir", str(out_dir),
        )
        assert code == 0, extra
        train_metrics = json.loads(out)
        code, out, _ = run(
            capsys, "eval", "--checkpoint", str(out_dir / "checkpoint.bin"),
            *data_args(dataset_dir),
        )
        assert code == 0, extra
        eval_metrics = json.loads(out)
        assert set(eval_metrics) == {"test_accuracy", "test_macro_f1", "val_accuracy",
                                     "val_macro_f1"}
        assert eval_metrics == {k: train_metrics[k] for k in eval_metrics}, extra


def test_replay_reproduces_artifacts(dataset_dir, tmp_path, capsys):
    out_dir = tmp_path / "orig"
    run(capsys, "train", *data_args(dataset_dir), "--max-epochs", "4", "--d-emb", "8",
        "--d-hidden", "8", "--n-f", "6", "--seed", "8", "--quiet", "--out-dir", str(out_dir))
    replay_dir = tmp_path / "replay"
    code, _, _ = run(capsys, "train", "--replay", str(out_dir / "manifest.json"),
                     "--quiet", "--out-dir", str(replay_dir))
    assert code == 0
    assert (out_dir / "epochs.jsonl").read_bytes() == (replay_dir / "epochs.jsonl").read_bytes()
    assert (out_dir / "checkpoint.bin").read_bytes() == (replay_dir / "checkpoint.bin").read_bytes()


def test_replay_refuses_changed_dataset(dataset_dir, tmp_path, capsys):
    out_dir = tmp_path / "orig"
    run(capsys, "train", *data_args(dataset_dir), "--max-epochs", "2", "--d-emb", "8",
        "--d-hidden", "8", "--n-f", "6", "--seed", "8", "--quiet", "--out-dir", str(out_dir))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    copy_dir = tmp_path / "ds2"
    copy_dir.mkdir()
    for name in ("edges.tsv", "features.tsv", "labels.tsv"):
        (copy_dir / name).write_bytes((dataset_dir / name).read_bytes())
    with open(copy_dir / "labels.tsv", "a", encoding="utf-8") as fh:
        fh.write("# a trailing comment changes the bytes\n")
    manifest["dataset"].update(
        edges=str(copy_dir / "edges.tsv"),
        features=str(copy_dir / "features.tsv"),
        labels=str(copy_dir / "labels.tsv"),
    )
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    code, _, _ = run(capsys, "train", "--replay", str(out_dir / "manifest.json"),
                     "--quiet", "--out-dir", str(tmp_path / "replay"))
    assert code == 3


@pytest.mark.parametrize("given, named", [
    (["--max-epochs", "5", "--learning-rate", "0.5"], "--learning-rate and --max-epochs are"),
    (["--seed", "0"], "--seed is"),
    (["--config", "run.cfg"], "--config is"),
    (["--variant", "meanpool", "--config", "run.cfg"], "--variant and --config are"),
])
def test_replay_refuses_config_flags_it_would_drop(small_checkpoint, tmp_path, capsys,
                                                   given, named):
    # the manifest's config is the run's: a flag that would be ignored is a usage error,
    # refused before the manifest or any dataset file is read
    manifest = small_checkpoint.parent / "manifest.json"
    code, out, err = run(capsys, "train", "--replay", str(manifest), *given, "--quiet",
                         "--out-dir", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err == f"error: {named} not taken with --replay, which runs the manifest's config\n"
    assert not (tmp_path / "out").exists()


def test_replay_takes_other_dataset_paths(small_checkpoint, tmp_path, capsys):
    # --edges, --features and --labels point a replay at other files
    manifest = json.loads((small_checkpoint.parent / "manifest.json").read_text())
    code, _, _ = run(capsys, "train", "--replay", str(small_checkpoint.parent / "manifest.json"),
                     "--edges", manifest["dataset"]["edges"], "--quiet",
                     "--out-dir", str(tmp_path / "out"))
    assert code == 0
    assert (tmp_path / "out/epochs.jsonl").read_bytes() == (
        small_checkpoint.parent / "epochs.jsonl").read_bytes()


def test_config_file_and_flag_precedence(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_epochs=3\nd_emb=8\nd_hidden=8\nn_f=6\nseed=2\nalpha=1.0\n")
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys, "train", *data_args(dataset_dir), "--config", str(cfg),
        "--alpha", "0.0", "--quiet", "--out-dir", str(out_dir),
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["max_epochs"] == 3  # from file
    assert manifest["config"]["alpha"] == 0.0  # flag wins over file
    assert manifest["config"]["d_emb"] == 8


def test_bad_config_file_is_usage_error(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a key value line\n")
    code, _, err = run(capsys, "train", *data_args(dataset_dir),
                       "--config", str(cfg), "--out-dir", str(tmp_path / "x"))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("line, field, reason", [
    ("d_emb=abc", "d_emb", "invalid literal for int()"),
    ("learning_rate=fast", "learning_rate", "could not convert string to float"),
    ("deep_projection=maybe", "deep_projection", "expected a boolean"),
])
def test_bad_config_file_value_names_file_and_line(tmp_path, capsys, line, field, reason):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# run\nmax_epochs=3\n{line}\n")
    # the dataset paths do not exist: the config file is read first and exits 2
    code, _, err = run(capsys, "train", "--edges", "/no/e", "--features", "/no/f",
                       "--labels", "/no/l", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 2
    assert f"error: {cfg}:3: {field}: {reason}" in err


@pytest.mark.parametrize("where", ["start", "past the first chunk"])
def test_non_utf8_config_file_is_usage_error_naming_it(tmp_path, capsys, where):
    cfg = tmp_path / "bad.cfg"
    good = b"max_epochs=3\n" + (b"# padding\n" * 3000 if where != "start" else b"")
    blob, offset = (b"\xff\xfe" + good, 0) if where == "start" else (good + b"\xff", len(good))
    cfg.write_bytes(blob)
    # the dataset paths do not exist: the config file is read first and exits 2
    code, _, err = run(capsys, "train", "--edges", "/no/e", "--features", "/no/f",
                       "--labels", "/no/l", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 2
    assert f"error: {cfg}: not UTF-8 text: byte {offset} (0xff): invalid start byte" in err


@pytest.mark.parametrize("spelling", ["0", "false", "no", "off", " OFF ", "False"])
def test_false_spellings_of_a_bool_flag_and_config_line(tmp_path, spelling):
    # deep_projection defaults to False, so every spelling resolves to the defaults
    assert TrainConfig().deep_projection is False
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"deep_projection={spelling}\n")
    parser = build_parser()
    data = ["--edges", "e", "--features", "f", "--labels", "l"]
    for args in (["--deep-projection", spelling], ["--config", str(cfg)]):
        assert _resolve_config(parser.parse_args(["train", *data, *args])) == TrainConfig()


def test_missing_dataset_is_data_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "train", "--edges", "/no/such/file", "--features", "/no/f",
        "--labels", "/no/l", "--out-dir", str(tmp_path),
    )
    assert code == 3


def test_malformed_dataset_is_data_error(tmp_path, capsys):
    (tmp_path / "edges.tsv").write_text("0\t1\n")
    (tmp_path / "features.tsv").write_text("0\t0\n1\tbroken:id\n")
    (tmp_path / "labels.tsv").write_text("0\t0\n")
    code, _, err = run(
        capsys, "train", "--edges", str(tmp_path / "edges.tsv"),
        "--features", str(tmp_path / "features.tsv"),
        "--labels", str(tmp_path / "labels.tsv"), "--out-dir", str(tmp_path / "out"),
    )
    assert code == 3
    assert "features.tsv:2" in err


@pytest.mark.parametrize("fid", [10_000_000_000, 4_611_686_018_427_387_904])
def test_feature_id_too_large_for_the_table_is_data_error(tmp_path, capsys, fid):
    # a valid id, but the embedding table it implies cannot be allocated: numpy
    # refuses the first at allocation (MemoryError) and the second's byte count
    # (ValueError) at once, so neither run touches that much memory
    (tmp_path / "edges.tsv").write_text("0\t1\n")
    (tmp_path / "features.tsv").write_text(
        "".join(f"{u}\t{u % 3} {fid if u == 4 else u % 3 + 3}\n" for u in range(12)))
    (tmp_path / "labels.tsv").write_text("".join(f"{u}\t{u % 2}\n" for u in range(12)))
    code, _, err = run(
        capsys, "train", "--edges", str(tmp_path / "edges.tsv"),
        "--features", str(tmp_path / "features.tsv"),
        "--labels", str(tmp_path / "labels.tsv"), "--out-dir", str(tmp_path / "out"),
        "--d-emb", "16", "--max-epochs", "1",
    )
    assert code == 3
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and "Traceback" not in err
    assert f"the data has {fid + 1} features" in last and "d_emb is 16" in last


# 8 * n_f bytes a node overflows numpy's byte count, so the sample is refused at once
_HUGE_N_F = 2_305_843_009_213_693_952


def test_sample_too_large_to_allocate_is_data_error(dataset_dir, tmp_path, capsys):
    code, _, err = run(capsys, "train", *data_args(dataset_dir), "--n-f", str(_HUGE_N_F),
                       "--quiet", "--out-dir", str(tmp_path / "out"))
    assert code == 3 and "Traceback" not in err
    assert err.splitlines()[-1] == (f"error: cannot allocate the feature sample: "
                                    f"n_f is {_HUGE_N_F} for 120 nodes")


def test_failed_sample_allocation_is_data_error(dataset_dir, tmp_path, capsys, monkeypatch):
    # the MemoryError numpy raises when the allocation itself fails, here on
    # the sample's arrays alone, so that nothing large is allocated
    empty = np.empty

    def refuse_the_sample(shape, *args, **kwargs):
        if shape == (120, 7):
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_the_sample)
    code, _, err = run(capsys, "train", *data_args(dataset_dir), "--n-f", "7", "--quiet",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert "error: cannot allocate the feature sample: n_f is 7 for 120 nodes" in err


@pytest.mark.parametrize("exc, code, line", [
    (MemoryError("Unable to allocate 8.00 GiB for an array"), 3,
     "error: out of memory: Unable to allocate 8.00 GiB for an array"),
    (MemoryError(), 3, "error: out of memory"),
    (RuntimeError("flagged by the bulk checks"), 5,
     "internal error: RuntimeError: flagged by the bulk checks"),
    (KeyError("x"), 5, "internal error: KeyError: 'x'"),
])
def test_unexpected_failure_is_one_line_without_traceback(dataset_dir, tmp_path, capsys,
                                                          monkeypatch, exc, code, line):
    # exit 1 is verification failure, so neither kind may end in a traceback's exit 1
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("catgcn.cli.load_dataset", fail)
    assert run(capsys, "train", *data_args(dataset_dir), "--quiet",
               "--out-dir", str(tmp_path / "out")) == (code, "", line + "\n")


@pytest.mark.parametrize("cut", ["header", "payload"])
def test_truncated_checkpoint_is_data_error(dataset_dir, tmp_path, capsys, cut):
    out_dir = tmp_path / "run"
    run(capsys, "train", *data_args(dataset_dir), "--max-epochs", "1", "--d-emb", "8",
        "--d-hidden", "8", "--n-f", "6", "--quiet", "--out-dir", str(out_dir))
    blob = (out_dir / "checkpoint.bin").read_bytes()
    bad = tmp_path / "cut.bin"
    bad.write_bytes(blob[:40] if cut == "header" else blob[:-100])
    code, _, err = run(capsys, "eval", "--checkpoint", str(bad), *data_args(dataset_dir))
    assert code == 3
    assert f"{bad}: truncated checkpoint" in err


@pytest.mark.parametrize("where", ["start", "past the read buffer"])
def test_non_utf8_dataset_is_data_error(dataset_dir, tmp_path, capsys, where):
    edges = tmp_path / "edges.tsv"
    good = (dataset_dir / "edges.tsv").read_bytes()
    if where == "start":
        blob, offset = b"\xff\xfe" + good, 0
    else:  # the offset counts from the start of the file, not of a decoded chunk
        good += b"# padding\n" * 3000
        blob, offset = good + b"\xff\xfe", len(good)
    edges.write_bytes(blob)
    code, _, err = run(
        capsys, "train", "--edges", str(edges),
        "--features", str(dataset_dir / "features.tsv"),
        "--labels", str(dataset_dir / "labels.tsv"), "--out-dir", str(tmp_path / "out"),
    )
    assert code == 3
    assert f"{edges}: not UTF-8 text: byte {offset} (0xff)" in err


def rewrite_checkpoint_config(src, dst, **changes):
    """Copy a checkpoint with its header's config updated by `changes`."""
    rewrite_checkpoint_header(src, dst, lambda header: header["config"].update(changes))


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint with its header dict changed in place by `edit`."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20:20 + hlen])
    edit(header)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(blob[:12] + struct.pack("<Q", len(raw)) + raw + blob[20 + hlen:])


@pytest.fixture(scope="module")
def small_checkpoint(dataset_dir, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("ckpt")
    code = main(["train", *data_args(dataset_dir), "--max-epochs", "1", "--d-emb", "8",
                 "--d-hidden", "8", "--n-f", "6", "--quiet", "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir / "checkpoint.bin"


@pytest.mark.parametrize("changes, reason", [
    ({"bogus": 1}, "unexpected keyword argument 'bogus'"),
    ({"monitor": "f2"}, "unknown monitor 'f2'"),
    ({"alpha": 2.0}, "alpha must lie in [0, 1]"),
    ({"hops": -1}, "hops must be >= 0"),
])
def test_checkpoint_with_bad_config_is_data_error(small_checkpoint, dataset_dir, tmp_path,
                                                  capsys, changes, reason):
    bad = tmp_path / "bad.bin"
    rewrite_checkpoint_config(small_checkpoint, bad, **changes)
    code, _, err = run(capsys, "eval", "--checkpoint", str(bad), *data_args(dataset_dir))
    assert code == 3
    assert f"{bad}: bad checkpoint config" in err
    assert reason in err


def test_checkpoint_whose_sample_cannot_be_allocated_is_data_error(
        small_checkpoint, dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    rewrite_checkpoint_config(small_checkpoint, bad, n_f=_HUGE_N_F)
    code, _, err = run(capsys, "eval", "--checkpoint", str(bad), *data_args(dataset_dir))
    assert code == 3
    assert f"error: cannot allocate the feature sample: n_f is {_HUGE_N_F} for 120 nodes" in err


_WRONG_TYPE = {"float": "fast", "int": 4.5, "bool": 1, "str": 3}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
def test_checkpoint_config_of_wrong_type_is_data_error(small_checkpoint, dataset_dir, tmp_path,
                                                       capsys, field):
    kind = {f.name: f.type for f in dataclasses.fields(TrainConfig)}[field]
    bad = tmp_path / "bad.bin"
    rewrite_checkpoint_config(small_checkpoint, bad, **{field: _WRONG_TYPE[kind]})
    code, _, err = run(capsys, "eval", "--checkpoint", str(bad), *data_args(dataset_dir))
    assert code == 3
    assert f"{bad}: bad checkpoint config: {field} must be of type {kind}" in err


_OLDER = "predates 0.2.0, which draws another split and init: "


def test_eval_refuses_a_checkpoint_older_than_its_draws(small_checkpoint, dataset_dir,
                                                          tmp_path, capsys):
    old = tmp_path / "old.bin"
    rewrite_checkpoint_header(small_checkpoint, old, lambda h: h.update(version="0.1.0"))
    code, out, err = run(capsys, "eval", "--checkpoint", str(old), *data_args(dataset_dir))
    assert (code, out) == (3, "")
    assert err == (f"error: {old}: checkpoint version '0.1.0' {_OLDER}"
                   "its test nodes here would include nodes it trained on\n")


@pytest.fixture(scope="module")
def small_manifest(small_checkpoint):
    return json.loads((small_checkpoint.parent / "manifest.json").read_text())


@pytest.mark.parametrize("edit, reason", [
    (lambda m: b"{not json", "manifest is not JSON"),
    (lambda m: b"\xff\xfe{}", "manifest is not JSON"),
    (lambda m: [m], "manifest has no config"),
    (lambda m: {k: v for k, v in m.items() if k != "config"}, "manifest has no config"),
    (lambda m: {k: v for k, v in m.items() if k != "dataset"}, "manifest has no dataset"),
    (lambda m: {**m, "dataset": {"edges": "e.tsv"}}, "manifest has no dataset"),
    (lambda m: {**m, "config": 5}, "bad manifest config: "),
    (lambda m: {**m, "config": {**m["config"], "bogus": 1}},
     "bad manifest config: TrainConfig.__init__() got an unexpected keyword argument 'bogus'"),
    (lambda m: {**m, "config": {**m["config"], "learning_rate": "fast"}},
     "bad manifest config: learning_rate must be of type float"),
    (lambda m: {**m, "config": {**m["config"], "rho": -1.0}},
     "bad manifest config: rho must be >= 0"),
])
def test_replay_of_bad_manifest_is_data_error(small_manifest, tmp_path, capsys, edit, reason):
    bad = edit(small_manifest)
    path = tmp_path / "manifest.json"
    path.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
    code, _, err = run(capsys, "train", "--replay", str(path), "--quiet",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert f"{path}: {reason}" in err


@pytest.mark.parametrize("version", ["0.1.0", None, "two"])
def test_replay_refuses_a_manifest_older_than_its_draws(small_manifest, tmp_path, capsys,
                                                          version):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**small_manifest, "version": version}))
    code, out, err = run(capsys, "train", "--replay", str(path), "--quiet",
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (3, "")
    assert err == (f"error: {path}: manifest version {version!r} {_OLDER}"
                   "a replay can no longer reproduce its artifacts\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("feats, classes, message", [
    (80, 3, "checkpoint embeds 40 features but the dataset has 80"),
    (40, 5, "checkpoint predicts 3 classes but the dataset has 5"),
])
def test_checkpoint_that_does_not_fit_the_dataset_is_data_error(
        small_checkpoint, tmp_path, capsys, feats, classes, message):
    wider = tmp_path / "wider"
    code = main(["synth", "--kind", "local-signal", "--nodes", "200", "--feats", str(feats),
                 "--classes", str(classes), "--n-f", "6", "--seed", "2",
                 "--out-dir", str(wider)])
    assert code == 0
    capsys.readouterr()
    code, _, err = run(capsys, "eval", "--checkpoint", str(small_checkpoint),
                       *data_args(wider))
    assert code == 3
    assert f"{small_checkpoint}: {message}" in err


# the small checkpoint: 40 features, 3 classes, d_emb = d_hidden = 8, no hidden pairs
@pytest.mark.parametrize("tensors, config, message", [
    ({"w_l": lambda a: np.vstack([a, a[:1]])}, {},
     "checkpoint section 'w_l' has shape [9, 3], its config implies [8, 3]"),
    ({"b_g": lambda a: np.concatenate([a, a[:2]])}, {},
     "checkpoint section 'b_g' has shape [5], its config implies [3]"),
    ({}, {"d_emb": 11},
     "checkpoint section 'embedding' has shape [40, 8], its config implies [40, 11]"),
    ({}, {"deep_projection": True},
     "checkpoint section 'w_g_hidden' is missing, its config implies [8, 8]"),
], ids=["w_l-extra-row", "b_g-longer", "d_emb-wider-than-tensors", "hidden-pairs-missing"])
def test_checkpoint_that_does_not_fit_its_config_is_data_error(
        small_checkpoint, dataset_dir, tmp_path, capsys, tensors, config, message):
    # a whole, well-formed checkpoint whose tensors its own config does not describe
    params, stored, seed = load_checkpoint(str(small_checkpoint))
    for name, edit in tensors.items():
        setattr(params, name, Tensor(edit(getattr(params, name).data)))
    bad = tmp_path / "bad.bin"
    save_checkpoint(str(bad), params, {**stored, **config}, seed)
    code, _, err = run(capsys, "eval", "--checkpoint", str(bad), *data_args(dataset_dir))
    assert code == 3
    assert f"{bad}: {message}" in err


@pytest.mark.parametrize("flag, value, expected", [
    ("--learning-rate", "nan", "learning_rate"),
    ("--dropout", "inf", "dropout"),
    ("--d-emb", "0", "d_emb"),
    ("--n-f", "0", "n_f"),
    ("--alpha", "1.5", "alpha must lie in [0, 1], got 1.5"),
    ("--hops", "-1", "hops must be >= 0, got -1"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--variant", "gcn", "unknown variant 'gcn'"),
    ("--dropout-site", "input", "unknown dropout_site 'input'"),
])
def test_bad_config_value_is_usage_error_before_loading(tmp_path, capsys, flag, value, expected):
    # the dataset paths do not exist: a config checked first exits 2, not 3
    code, _, err = run(capsys, "train", "--edges", "/no/e", "--features", "/no/f",
                       "--labels", "/no/l", flag, value, "--out-dir", str(tmp_path))
    assert code == 2
    assert expected in err


def test_grid_with_a_bad_cell_is_usage_error_before_training(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("catgcn.training.train", lambda *a, **k: calls.append(a))
    # the dataset paths do not exist: every cell is checked before any file is read
    for spec, message in [("0.5,0.5,0.5,1.5", "error: alpha must lie in [0, 1], got 1.5"),
                          (",", "error: grid axes without values: ['alpha']")]:
        code, _, err = run(capsys, "grid", "--edges", "/no/e", "--features", "/no/f",
                           "--labels", "/no/l", "--alpha-grid", spec,
                           "--out-dir", str(tmp_path))
        assert code == 2, spec
        assert message in err
    assert calls == []
    assert not (tmp_path / "grid.json").exists()


# every field off its default
_OFF_DEFAULT = dict(
    learning_rate=0.05, eta=0.001, dropout=0.25, alpha=0.75, rho=3.5, hops=3, n_f=7,
    d_emb=12, d_hidden=9, max_epochs=40, patience=4, seed=17, monitor="loss",
    final_activation="relu", dropout_site="both", resample_per_epoch=True,
    variant="meanpool", deep_projection=True,
)


def test_config_round_trips_through_file_and_flags(tmp_path):
    config = TrainConfig(**_OFF_DEFAULT)
    defaults = TrainConfig()
    assert all(getattr(config, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(TrainConfig))
    stored = dataclasses.asdict(config)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in stored.items()))
    flags = [a for k, v in stored.items() for a in ("--" + k.replace("_", "-"), str(v))]
    parser = build_parser()
    for command in ("train", "grid"):
        data = ["--edges", "e", "--features", "f", "--labels", "l"]
        from_file = parser.parse_args([command, *data, "--config", str(path)])
        from_flags = parser.parse_args([command, *data, *flags])
        assert _resolve_config(from_file) == config
        assert _resolve_config(from_flags) == config


@pytest.mark.parametrize("command", ["train", "grid"])
def test_every_config_field_has_exactly_one_flag(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    for f in dataclasses.fields(TrainConfig):
        actions = [a for a in sub._actions if a.dest == f.name]
        assert [a.option_strings for a in actions] == [["--" + f.name.replace("_", "-")]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exit_code(dataset_dir, tmp_path, capsys):
    code, _, err = run(
        capsys, "train", *data_args(dataset_dir), "--learning-rate", "1e200",
        "--max-epochs", "5", "--d-emb", "8", "--d-hidden", "8", "--n-f", "6",
        "--quiet", "--out-dir", str(tmp_path / "x"),
    )
    assert code == 4
    assert "non-finite" in err


def test_train_without_dataset_flags_is_usage_error(capsys):
    code, _, err = run(capsys, "train", "--out-dir", "/tmp/x")
    assert code == 2


@pytest.mark.parametrize("cells, matrices", [(20, 20), (5, 1)])  # (5, 1): the least counts
def test_verify_passes(capsys, cells, matrices):
    code, out, _ = run(capsys, "verify", "--theorem-cells", str(cells),
                       "--bi-matrices", str(matrices))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert (report["theorem"]["cells"], report["biinteraction"]["matrices"]) == (cells, matrices)
    assert report["theorem"]["max_abs_diff"] <= 1e-10
    assert report["spectrum"]["max_expected_deviation"] <= 1e-8
    assert [report[k]["tolerance"] for k in ("theorem", "spectrum", "biinteraction")] == [
        1e-10, 1e-8, 1e-12]


@pytest.mark.parametrize("given, message", [
    (["--theorem-cells", "2"], "--theorem-cells must be at least 5, got 2"),
    (["--theorem-cells", "-3"], "--theorem-cells must be at least 5, got -3"),
    (["--theorem-cells", "0", "--bi-matrices", "0"], "--theorem-cells must be at least 5, got 0"),
    (["--bi-matrices", "0"], "--bi-matrices must be at least 1, got 0"),
])
def test_verify_count_below_its_check_is_usage_error(capsys, given, message):
    # the sweep always certifies its 5 pinned corners, and a bilinear check
    # over no matrix compares nothing
    code, out, err = run(capsys, "verify", *given)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {message}"


def test_verify_single_theorem_cell(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--rho1", "2.0", "--hops", "2")
    assert code == 0
    cert = json.loads(out)
    assert cert["rho2"] == pytest.approx(4.0 / 7.0)
    assert cert["passed"] is True


@pytest.mark.parametrize("given, missing", [
    (["--n", "3"], "--rho1"),
    (["--rho1", "2.0"], "--n"),
])
def test_verify_theorem_cell_needs_both_flags(capsys, given, missing):
    code, out, err = run(capsys, "verify", *given)
    assert code == 2
    assert out == ""
    assert f"{missing} is missing" in err


@pytest.mark.parametrize("given, message", [
    (["--hops", "5"], "--n and --rho1 are missing"),
    (["--hops", "5", "--spectrum-n", "4"], "--n and --rho1 are missing"),
    (["--spectrum-rho", "3"], "--spectrum-n is missing"),
    (["--spectrum-rho", "3", "--theorem-cells", "1"], "--spectrum-n is missing"),
    (["--n", "3", "--rho1", "2", "--spectrum-n", "4", "--spectrum-rho", "1"],
     "--n and --rho1 belong to one theorem cell; "
     "--spectrum-n and --spectrum-rho belong to the spectrum check"),
    (["--spectrum-n", "4", "--theorem-cells", "5"],
     "--spectrum-n belongs to the spectrum check; --theorem-cells belongs to the full report"),
    (["--n", "3", "--rho1", "2", "--seed", "9"],
     "--n and --rho1 belong to one theorem cell; --seed belongs to the full report"),
])
def test_verify_flag_without_its_check_is_usage_error(capsys, given, message):
    # the flag would otherwise be dropped and another check run
    code, out, err = run(capsys, "verify", *given)
    assert code == 2
    assert out == ""
    assert message in err


def test_verify_into_a_closed_pipe_keeps_its_exit_code():
    # the reader is gone before the child writes: nothing to report, and the
    # check's own result decides the exit code
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "catgcn", "verify", "--spectrum-n", "4"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=child_env(), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


# runs `main` in a fresh interpreter, then prints its exit code and which of
# the modules that only some commands need are loaded
_MODULE_PROBE = """
import json, sys
from catgcn.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [m for m in ("numpy.random", "multiprocessing", "_hashlib")
                         if m in sys.modules]]))
"""


def loaded_after_main(*argv):
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return loaded


def test_commands_load_only_the_modules_they_use(small_checkpoint, dataset_dir, tmp_path):
    # eval draws nothing and hashes nothing; train hashes its inputs for the
    # manifest, and draws from numpy.random only for dropout masks
    assert loaded_after_main("eval", "--checkpoint", str(small_checkpoint),
                             *data_args(dataset_dir)) == []
    common = ["train", *data_args(dataset_dir), "--max-epochs", "2", "--d-emb", "8",
              "--d-hidden", "8", "--n-f", "6", "--quiet"]
    assert loaded_after_main(*common, "--out-dir", str(tmp_path / "plain")) == ["_hashlib"]
    assert loaded_after_main(*common, "--dropout", "0.2", "--out-dir",
                             str(tmp_path / "dropout")) == ["numpy.random", "_hashlib"]


def test_verify_theorem_cell_rejects_zero_hops(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--rho1", "2.0", "--hops", "0")
    assert code == 2
    assert out == ""
    assert "hops must be >= 1, got 0" in err


def test_verify_spectrum_report(capsys):
    code, out, _ = run(capsys, "verify", "--spectrum-n", "4", "--spectrum-rho", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["filter_coefficients"] == [1.0, 0.2]


def test_verify_spectrum_rho_defaults_to_zero(capsys):
    code, out, _ = run(capsys, "verify", "--spectrum-n", "4")
    assert code == 0
    assert json.loads(out)["filter_coefficients"] == [1.0, 0.0]


def test_grid_command_and_jobs_parity(dataset_dir, tmp_path, capsys):
    common = [
        "grid", *data_args(dataset_dir), "--learning-rate-grid", "0.1,0.01",
        "--eta-grid", "0.0", "--dropout-grid", "0.0", "--alpha-grid", "0.0,0.5",
        "--max-epochs", "3", "--d-emb", "8", "--d-hidden", "8", "--n-f", "6",
        "--seed", "1",
    ]
    code, out1, _ = run(capsys, *common, "--jobs", "1", "--out-dir", str(tmp_path / "g1"))
    assert code == 0
    code, out2, _ = run(capsys, *common, "--jobs", "2", "--out-dir", str(tmp_path / "g2"))
    assert code == 0
    assert (tmp_path / "g1/grid.json").read_bytes() == (tmp_path / "g2/grid.json").read_bytes()
    best = json.loads(out1)
    assert out1 == out2
    rows = json.loads((tmp_path / "g1/grid.json").read_text())
    assert len(rows) == 4
    assert best["best_val_macro_f1"] == max(r["best_val_macro_f1"] for r in rows)


_ONE_AXIS = ["--eta-grid", "0.0", "--dropout-grid", "0.0", "--alpha-grid", "0.5",
             "--max-epochs", "3", "--d-emb", "8", "--d-hidden", "8", "--n-f", "6", "--seed", "1"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_skips_a_diverging_cell(dataset_dir, tmp_path, capsys):
    code, out, _ = run(capsys, "grid", *data_args(dataset_dir), *_ONE_AXIS,
                       "--learning-rate-grid", "1e200,0.01", "--out-dir", str(tmp_path))
    assert code == 0
    cells = json.loads((tmp_path / "grid.json").read_text())
    assert [c.get("failed", False) for c in cells] == [True, False]
    assert "non-finite" in cells[0]["error"]
    assert json.loads(out) == cells[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_where_every_cell_diverges_exits_4(dataset_dir, tmp_path, capsys):
    code, out, err = run(capsys, "grid", *data_args(dataset_dir), *_ONE_AXIS,
                         "--learning-rate-grid", "1e200,1e250", "--out-dir", str(tmp_path))
    assert code == 4
    assert out == ""
    assert "every cell failed" in err
    assert all(c["failed"] for c in json.loads((tmp_path / "grid.json").read_text()))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_grid_jobs_below_one_is_usage_error_before_loading(tmp_path, capsys, jobs):
    # the dataset paths do not exist: the flag is checked before any file is read
    code, _, err = run(capsys, "grid", "--edges", "/no/e", "--features", "/no/f",
                       "--labels", "/no/l", "--jobs", jobs, "--out-dir", str(tmp_path))
    assert code == 2
    assert f"error: --jobs must be >= 1, got {jobs}" in err
    assert not (tmp_path / "grid.json").exists()


def test_grid_out_dir_under_a_file_is_io_error_before_training(dataset_dir, tmp_path, capsys,
                                                               monkeypatch):
    calls = []
    monkeypatch.setattr("catgcn.training.train", lambda *a, **k: calls.append(a))
    (tmp_path / "file").write_text("")
    code, _, err = run(capsys, "grid", *data_args(dataset_dir), "--alpha-grid", "0.0,0.5,1.0",
                       "--max-epochs", "3", "--out-dir", str(tmp_path / "file" / "out"))
    assert code == 3
    assert "error:" in err
    assert calls == []


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["train", "--bogus-flag", "1"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("flags, message", [
    (["--nodes", "5"], "need n_nodes >= 10, n_classes >= 2, n_f >= 1"),
    (["--classes", "1"], "need n_nodes >= 10, n_classes >= 2, n_f >= 1"),
    (["--n-f", "0"], "need n_nodes >= 10, n_classes >= 2, n_f >= 1"),
    (["--p-out", "-0.1"], "edge probabilities must lie in [0, 1]"),
    (["--feats", "3", "--n-f", "5"], "homophily needs n_feats >= n_f, got 3 < 5"),
    (["--kind", "local-signal", "--feats", "5"],
     "local-signal needs n_feats >= 2*n_classes, got 5 < 6"),
    (["--kind", "global-signal", "--feats", "10"],
     "global-signal needs n_feats large enough for 12 groups, got 10"),
])
def test_synth_out_of_range_value_is_usage_error(tmp_path, capsys, flags, message):
    out_dir = tmp_path / "out"
    base = {"--kind": "homophily", "--nodes": "50", "--feats": "30", "--classes": "3"}
    base.update(zip(flags[::2], flags[1::2]))
    code, out, err = run(capsys, "synth", *[a for kv in base.items() for a in kv],
                         "--out-dir", str(out_dir))
    assert code == 2
    assert f"error: {message}" in err
    assert out == "" and not out_dir.exists()
