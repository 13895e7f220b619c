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
    write_dataset,
)
from .model import ModelParams, model_forward, param_shapes
from .oracle import THEOREM_CORNERS, certify_theorem, run_verification, spectrum_check
from .training import (
    GRID_AXES,
    TrainConfig,
    TrainingDiverged,
    default_grids,
    grid_cells,
    grid_search,
    held_out_metrics,
    run_inputs,
    split_scores,
    train,
)

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj) -> None:
    try:
        print(json.dumps(obj, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the reader is gone: the rest, exit-time flush included, goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _add_dataset_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--edges", required=required, help="edges.tsv path")
    p.add_argument("--features", required=required, help="features.tsv path")
    p.add_argument("--labels", required=required, help="labels.tsv path")


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {s!r}")


# the parser of each TrainConfig field, by its annotation; flags and --config files share it
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def _add_config_args(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field; unset flags fall back to --config, then defaults."""
    for name, f in _CONFIG_FIELDS.items():
        p.add_argument("--" + name.replace("_", "-"), default=None, type=_PARSERS[f.type],
                       metavar="BOOL" if f.type == "bool" else None)
    p.add_argument("--config", default=None, help="key=value file; explicit flags win")


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
            try:
                out[key] = _PARSERS[_CONFIG_FIELDS[key].type](value.strip())
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
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
        return TrainConfig(**config_dict)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad {kind} config: {exc}") from None


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


def _check_fits(path: str, params, config, dataset) -> None:
    """DataError naming `path` unless every checkpoint tensor has the shape its
    config implies (the hidden pairs present iff deep_projection) and the
    checkpoint covers the dataset's ids.

    The feature and class counts are the embedding rows and the length of b_l.
    """
    have = {n: t.data.shape for n, t in params.named_tensors().items()}
    rows = have["embedding"][0] if have["embedding"] else 0
    classes = have["b_l"][0] if have["b_l"] else 0
    want = param_shapes(rows, classes, config)
    for name in (f.name for f in dataclasses.fields(ModelParams)):
        if have.get(name) != want.get(name):
            got = "is missing" if name not in have else f"has shape {list(have[name])}"
            implied = "no such section" if name not in want else list(want[name])
            raise DataError(f"{path}: checkpoint section {name!r} {got}, "
                            f"its config implies {implied}")
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
    _check_fits(args.checkpoint, params, config, dataset)
    norm_adj, split, sample = run_inputs(dataset, config)
    _emit(split_scores(model_forward(params, sample, norm_adj, config), dataset.labels, split))
    return 0


def cmd_grid(args) -> int:
    config = _resolve_config(args)
    grids = default_grids()
    for axis in GRID_AXES:
        spec, caster = getattr(args, f"{axis}_grid"), _PARSERS[_CONFIG_FIELDS[axis].type]
        if spec is not None:
            grids[axis] = [caster(tok) for tok in spec.split(",") if tok.strip() != ""]
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    grid_cells(grids, config)  # every cell's config is checked before any file is read
    os.makedirs(args.out_dir, exist_ok=True)  # an unusable --out-dir fails before any training
    dataset = load_dataset(args.edges, args.features, args.labels)
    result_rows, best_idx = grid_search(dataset, grids, config, jobs=args.jobs)

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


# the checks `verify` runs, one per call: (name, flags it needs, flags it may take,
# runner called with the flags given, returning a JSON report with "passed")
_VERIFY_CHECKS = (
    ("one theorem cell", ("n", "rho1"), ("hops",),
     lambda n, rho1, hops=2: dataclasses.asdict(certify_theorem(n, rho1, hops))),
    ("the spectrum check", ("spectrum_n",), ("spectrum_rho",),
     lambda spectrum_n, spectrum_rho=0.0: dataclasses.asdict(
         spectrum_check(spectrum_n, spectrum_rho))),
    ("the full report", (), ("theorem_cells", "bi_matrices", "seed"), run_verification),
)
# the least count of each full-report check: a sweep certifies its pinned corners first
_VERIFY_MINIMUMS = {"theorem_cells": len(THEOREM_CORNERS), "bi_matrices": 1}


def _flags(names, one: str, many: str) -> str:
    """`--a and --b`, then the verb form (`one` or `many`) that agrees with them."""
    verb = one if len(names) == 1 else many
    return " and ".join("--" + n.replace("_", "-") for n in names) + " " + verb


def cmd_verify(args) -> int:
    chosen = []
    for check, needs, takes, runner in _VERIFY_CHECKS:
        given = {k: getattr(args, k) for k in needs + takes if getattr(args, k) is not None}
        missing = [k for k in needs if k not in given]
        if given and missing:
            raise ValueError(f"{_flags(given, 'applies', 'apply')} to {check}: "
                             f"{_flags(missing, 'is', 'are')} missing")
        if given:
            chosen.append((check, given, runner))
    if len(chosen) > 1:
        raise ValueError("verify runs one check at a time: " + "; ".join(
            f"{_flags(given, 'belongs', 'belong')} to {check}" for check, given, _ in chosen))
    _, given, runner = chosen[0] if chosen else (None, {}, run_verification)
    for name, least in _VERIFY_MINIMUMS.items():
        if given.get(name, least) < least:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {least}, "
                             f"got {given[name]}")
    report = runner(**given)
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
    for axis in GRID_AXES:
        p_grid.add_argument(f"--{axis.replace('_', '-')}-grid", default=None,
                            metavar="V1,V2,...")
    p_grid.add_argument("--jobs", type=int, default=1,
                        help="worker processes, at most one per cell")
    p_grid.add_argument("--out-dir", default=".")
    p_grid.set_defaults(fn=cmd_grid)

    p_verify = sub.add_parser("verify", help="run the certification oracles")
    p_verify.add_argument("--theorem-cells", type=int, default=None)
    p_verify.add_argument("--bi-matrices", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None, help="single theorem cell: set size")
    p_verify.add_argument("--rho1", type=float, default=None)
    p_verify.add_argument("--hops", type=int, default=None)
    p_verify.add_argument("--spectrum-n", type=int, default=None)
    p_verify.add_argument("--spectrum-rho", type=float, default=None)
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
