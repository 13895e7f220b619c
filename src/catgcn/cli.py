"""Command-line interface: train, eval, grid, verify, synth.

Machine-readable JSON goes to stdout; human-readable progress and summaries go
to stderr. Exit codes: 0 success, 1 verification failure, 2 usage error,
3 data error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    DataError,
    SYNTH_KINDS,
    dataset_fingerprint,
    generate_synthetic,
    load_dataset,
    make_split,
    sample_features,
    write_dataset,
)
from .graph import build_adjacency, normalize_sym
from .model import model_forward
from .oracle import certify_theorem, run_verification, spectrum_check
from .training import (
    TrainConfig,
    TrainingDiverged,
    default_grids,
    evaluate,
    grid_search,
    held_out_metrics,
    train,
)

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _add_dataset_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--edges", required=required, help="edges.tsv path")
    p.add_argument("--features", required=required, help="features.tsv path")
    p.add_argument("--labels", required=required, help="labels.tsv path")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field; unset flags fall back to --config, then defaults."""
    for name, f in _CONFIG_FIELDS.items():
        flag = "--" + name.replace("_", "-")
        if f.type == "bool" or isinstance(f.default, bool):
            p.add_argument(flag, default=None, type=_parse_bool, metavar="BOOL")
        elif isinstance(f.default, int):
            p.add_argument(flag, default=None, type=int)
        elif isinstance(f.default, float):
            p.add_argument(flag, default=None, type=float)
        else:
            p.add_argument(flag, default=None, type=str)
    p.add_argument("--config", default=None, help="key=value file; explicit flags win")


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {s!r}")


def _coerce(name: str, raw: str):
    f = _CONFIG_FIELDS[name]
    if isinstance(f.default, bool):
        return _parse_bool(raw)
    if isinstance(f.default, int):
        return int(raw)
    if isinstance(f.default, float):
        return float(raw)
    return raw


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_FIELDS:
                raise ValueError(f"{path}:{lineno}: expected <field>=<value>, got {line!r}")
            out[key] = _coerce(key, value.strip())
    return out


def _resolve_config(args) -> TrainConfig:
    merged = {}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for name in _CONFIG_FIELDS:
        v = getattr(args, name, None)
        if v is not None:
            merged[name] = v
    return TrainConfig(**merged)


def _write_epoch_log(path: str, records) -> None:
    # wall time is intentionally absent: the log must be bit-identical across runs
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            fh.write(
                json.dumps(
                    {
                        "epoch": r.epoch,
                        "train_loss": r.train_loss,
                        "val_accuracy": r.val_accuracy,
                        "val_macro_f1": r.val_macro_f1,
                    }
                )
                + "\n"
            )


def _progress(record) -> None:
    _say(
        f"epoch {record.epoch:4d}  loss {record.train_loss:.6f}"
        f"  val_acc {record.val_accuracy:.4f}  val_f1 {record.val_macro_f1:.4f}"
        f"  ({record.wall_time_s:.2f}s)"
    )


def _stored_config(path: str, kind: str, config_dict) -> TrainConfig:
    """The run config a checkpoint or manifest stores, or DataError naming `path`."""
    try:
        config = TrainConfig(**config_dict)
        config.to_model_config()
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad {kind} config: {exc}") from None
    return config


def _read_manifest(path: str) -> tuple[TrainConfig, dict]:
    """(run config, dataset entry) of a run manifest, or DataError naming `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: manifest is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise DataError(f"{path}: manifest has no config")
    paths = manifest.get("dataset")
    if not (isinstance(paths, dict)
            and all(isinstance(paths.get(k), str) for k in ("edges", "features", "labels"))):
        raise DataError(f"{path}: manifest has no dataset with edges, features and labels paths")
    return _stored_config(path, "manifest", manifest["config"]), paths


def cmd_train(args) -> int:
    want_fingerprint = None
    if args.replay:
        config, paths = _read_manifest(args.replay)
        edges = args.edges or paths["edges"]
        features = args.features or paths["features"]
        labels = args.labels or paths["labels"]
        if not (args.edges or args.features or args.labels):
            # same files as the original run: insist they are still the same bytes
            want_fingerprint = paths.get("fingerprint")
    else:
        if not (args.edges and args.features and args.labels):
            raise ValueError("--edges, --features, and --labels are required without --replay")
        config = _resolve_config(args)
        edges, features, labels = args.edges, args.features, args.labels

    dataset = load_dataset(edges, features, labels)
    fingerprint = dataset_fingerprint(edges, features, labels)
    if want_fingerprint is not None and fingerprint != want_fingerprint:
        raise DataError(
            "replay fingerprint mismatch: the dataset files changed since the original run"
        )
    _say(f"loaded {dataset.num_nodes} nodes, {len(dataset.edges)} edges, "
         f"{dataset.num_features} features, {dataset.num_classes} classes")

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    result = train(config, dataset, progress=_progress if not args.quiet else None)
    metrics = held_out_metrics(result, dataset)

    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    epochs_path = os.path.join(out_dir, "epochs.jsonl")
    manifest_path = os.path.join(out_dir, "manifest.json")
    save_checkpoint(ckpt_path, result.params, dataclasses.asdict(config), config.seed)
    _write_epoch_log(epochs_path, result.records)
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {
                "version": __version__,
                "seed": config.seed,
                "config": dataclasses.asdict(config),
                "dataset": {
                    "edges": edges,
                    "features": features,
                    "labels": labels,
                    "fingerprint": fingerprint,
                },
                "artifacts": {"checkpoint": ckpt_path, "epochs": epochs_path},
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")

    _say(f"best epoch {result.best_epoch} of {len(result.records)}; artifacts in {out_dir}")
    _emit(metrics)
    return 0


def _check_fits(path: str, params, dataset) -> None:
    """DataError naming `path` unless the checkpoint covers the dataset's ids."""
    rows = params.embedding.data.shape[0]
    classes = params.b_l.data.shape[0]
    if dataset.num_features > rows:
        raise DataError(f"{path}: checkpoint embeds {rows} features but the dataset has "
                        f"{dataset.num_features}")
    if dataset.num_classes > classes:
        raise DataError(f"{path}: checkpoint predicts {classes} classes but the dataset has "
                        f"{dataset.num_classes}")


def cmd_eval(args) -> int:
    params, config_dict, _ = load_checkpoint(args.checkpoint)
    config = _stored_config(args.checkpoint, "checkpoint", config_dict)
    dataset = load_dataset(args.edges, args.features, args.labels)
    _check_fits(args.checkpoint, params, dataset)
    adj = build_adjacency(dataset.edges, dataset.num_nodes)
    norm_adj, _ = normalize_sym(adj)
    split = make_split(dataset, config.seed)
    sample = sample_features(dataset, config.n_f, config.seed)
    output = model_forward(params, sample, norm_adj, config.to_model_config())
    test_acc, test_f1 = evaluate(output, dataset.labels, split.test_ids)
    val_acc, val_f1 = evaluate(output, dataset.labels, split.val_ids)
    _emit(
        {
            "test_accuracy": test_acc,
            "test_macro_f1": test_f1,
            "val_accuracy": val_acc,
            "val_macro_f1": val_f1,
        }
    )
    return 0


def _parse_grid_list(spec: str, caster):
    return [caster(tok) for tok in spec.split(",") if tok.strip() != ""]


def cmd_grid(args) -> int:
    config = _resolve_config(args)
    dataset = load_dataset(args.edges, args.features, args.labels)
    grids = default_grids()
    for axis, caster in (
        ("learning_rate", float), ("eta", float), ("dropout", float),
        ("alpha", float), ("rho", float), ("hops", int),
    ):
        spec = getattr(args, f"{axis}_grid")
        if spec is not None:
            grids[axis] = _parse_grid_list(spec, caster)
    result_rows, best_idx = grid_search(dataset, grids, config, jobs=args.jobs)

    os.makedirs(args.out_dir, exist_ok=True)
    grid_path = os.path.join(args.out_dir, "grid.json")
    with open(grid_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result_rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _say(f"{len(result_rows)} cells -> {grid_path}")
    if best_idx is None:
        _say("every cell failed")
        return 4
    _emit(result_rows[best_idx])
    return 0


def cmd_verify(args) -> int:
    if args.n is not None and args.rho1 is not None:
        cert = certify_theorem(args.n, args.rho1, args.hops or 2)
        _emit(dataclasses.asdict(cert))
        return 0 if cert.passed else 1
    if args.spectrum_n is not None:
        report = spectrum_check(args.spectrum_n, args.spectrum_rho)
        _emit(dataclasses.asdict(report))
        return 0 if report.passed else 1
    report = run_verification(
        theorem_cells=args.theorem_cells, bi_matrices=args.bi_matrices, seed=args.seed
    )
    _emit(report)
    return 0 if report["passed"] else 1


def cmd_synth(args) -> int:
    ds = generate_synthetic(
        kind=args.kind, n_nodes=args.nodes, n_feats=args.feats, n_classes=args.classes,
        n_f=args.n_f, p_in=args.p_in, p_out=args.p_out, seed=args.seed,
    )
    meta = {
        "kind": args.kind,
        "n_nodes": args.nodes,
        "n_feats": args.feats,
        "n_classes": args.classes,
        "n_f": args.n_f,
        "p_in": args.p_in,
        "p_out": args.p_out,
        "seed": args.seed,
        "n_edges": int(len(ds.edges)),
        "version": __version__,
    }
    paths = write_dataset(ds, args.out_dir, meta=meta)
    _say(f"wrote {args.kind} dataset: {ds.num_nodes} nodes, {len(ds.edges)} edges")
    _emit(paths)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catgcn",
        description="Train, evaluate, and verify graph convolution over categorical features.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a dataset and write artifacts")
    _add_dataset_args(p_train, required=False)
    _add_config_args(p_train)
    p_train.add_argument("--out-dir", default=".", help="artifact directory")
    p_train.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")
    p_train.add_argument("--replay", default=None, metavar="MANIFEST",
                         help="re-run a previous run from its manifest")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    _add_dataset_args(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_grid = sub.add_parser("grid", help="hyperparameter grid search")
    _add_dataset_args(p_grid)
    _add_config_args(p_grid)
    for axis in ("learning-rate", "eta", "dropout", "alpha", "rho", "hops"):
        p_grid.add_argument(f"--{axis}-grid", default=None, metavar="V1,V2,...",
                            dest=f"{axis.replace('-', '_')}_grid")
    p_grid.add_argument("--jobs", type=int, default=1)
    p_grid.add_argument("--out-dir", default=".")
    p_grid.set_defaults(fn=cmd_grid)

    p_verify = sub.add_parser("verify", help="run the certification oracles")
    p_verify.add_argument("--theorem-cells", type=int, default=200)
    p_verify.add_argument("--bi-matrices", type=int, default=500)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--n", type=int, default=None, help="single theorem cell: set size")
    p_verify.add_argument("--rho1", type=float, default=None)
    p_verify.add_argument("--hops", type=int, default=None)
    p_verify.add_argument("--spectrum-n", type=int, default=None)
    p_verify.add_argument("--spectrum-rho", type=float, default=0.0)
    p_verify.set_defaults(fn=cmd_verify)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p_synth.add_argument("--nodes", type=int, required=True)
    p_synth.add_argument("--feats", type=int, required=True)
    p_synth.add_argument("--classes", type=int, required=True)
    p_synth.add_argument("--n-f", type=int, default=10)
    p_synth.add_argument("--p-in", type=float, default=0.01)
    p_synth.add_argument("--p-out", type=float, default=0.001)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out-dir", default=".")
    p_synth.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TrainingDiverged as exc:
        _say(f"error: {exc}")
        return 4
    except DataError as exc:
        _say(f"error: {exc}")
        return 3
    except OSError as exc:
        _say(f"error: {exc}")
        return 3
    except ValueError as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
