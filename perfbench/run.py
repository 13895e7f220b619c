"""catgcn benchmark: timed `catgcn train` / `catgcn eval` commands on generated inputs.

    python3 perfbench/run.py --workload train-10k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20    # every workload, both modes
    python3 perfbench/run.py --workload eval-100k --smoke --seconds 1 --trace 1

Inputs (the TSVs, and for eval-100k the checkpoint of a 1-epoch set-up train)
are made from the seed by `catgcn synth` / `catgcn train` in separate
processes, outside every timed window, and cached under perfbench/.cache.

`--trace 0` runs the workload's command in a closed loop (one client, each
command a fresh child process, the next only after the previous exits) until
`--seconds` have passed, and reports the end-to-end metrics as medians over
the commands. `--trace 1` runs passes of: the command untraced, the train
command traced, and a traced eval of that checkpoint, and reports the
per-layer metrics. Every command's outputs are checked; a run fails on a
non-zero exit or a failed check. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the metric names and
units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from child import TAPE_PRIMS, TRACED
from stats import (ancestors, failure_ratio, median, merge_tables, percentile, span_table,
                   top_level_s)
from workloads import HOPS, SMOKE, WORKLOADS, eval_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
WORK = HERE / ".work"
CACHE_KEEP = 6  # input sets kept per workload
RUN_BUDGET_S = 170.0  # a run must end within 180 s
METRIC_KEYS = ("test_accuracy", "test_macro_f1", "val_accuracy", "val_macro_f1")


class BenchError(Exception):
    """The harness could not run the workload (missing program, broken inputs)."""


# --- child processes ---------------------------------------------------------


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _catgcn(args, stdout_path: Path, deadline: float) -> None:
    """Run `python -m catgcn ARGS` for input generation; raise on failure."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(stdout_path, "wb") as out:
        try:
            proc = subprocess.run([sys.executable, "-m", "catgcn", *args], stdout=out,
                                  stderr=subprocess.PIPE, env=env, cwd=ROOT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"input generation timed out: catgcn {args[0]}") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise BenchError(f"catgcn {args[0]} exited {proc.returncode}: {tail}")


class Command:
    """One timed child process: wall time, peak RSS, exit code, outputs, record."""

    def __init__(self, argv, mode: str, rundir: Path, tag: str, deadline: float):
        self.tag = tag
        self.errors = []
        self.metrics = None
        rec_path = rundir / f"{tag}.record.json"
        out_path, err_path = rundir / f"{tag}.stdout", rundir / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.spawn_ns = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(rec_path), mode,
                                     "--", *argv], stdout=out, stderr=err, cwd=ROOT)
            status, usage, timed_out = _wait(proc, deadline)
            self.exit_ns = time.monotonic_ns()
        self.rc = os.waitstatus_to_exitcode(status)
        proc.returncode = self.rc
        self.run_s = (self.exit_ns - self.spawn_ns) / 1e9
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")
        self.record = json.loads(rec_path.read_text()) if rec_path.is_file() else None
        if timed_out:
            self.errors.append("killed at the run's time budget")
        elif self.rc != 0:
            self.errors.append(f"exit code {self.rc}: {self.stderr[-500:].strip()}")
        elif self.record is None:
            self.errors.append("no record written")

    def marks(self) -> dict:
        out = {}
        for name, ns in self.record["marks"]:
            out.setdefault(name, []).append(ns)
        return out

    def phases(self):
        """(setup_s, compute_s, step durations in ms) from the phase marks."""
        m = self.marks()
        if "epoch_start" in m:
            start, ends = m["epoch_start"][0], m.get("epoch_end", [])
            steps = [b - a for a, b in zip([start] + ends, ends)]
        else:
            start = m["forward_start"][0]
            steps = [m["forward_end"][0] - start]
        return ((start - self.spawn_ns) / 1e9, (m["main_return"][0] - start) / 1e9,
                [s / 1e6 for s in steps])


def _wait(proc, deadline: float):
    """Reap `proc` with its resource usage; kill it at the deadline."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
    try:
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            return status, usage, False
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            return status, usage, True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# --- inputs ----------------------------------------------------------------


def prepare_inputs(w, seed: int, smoke: bool, deadline: float) -> tuple[Path, dict]:
    """Generate (or reuse) the workload's inputs for `seed`; returns (dir, info)."""
    commands = [w.synth_args(seed, "DATA")]
    if w.command == "eval":
        commands.append(w.train_args(seed, "DATA", "SETUP"))
    key = hashlib.sha256(json.dumps(commands).encode())
    for src in sorted((ROOT / "src" / "catgcn").glob("*.py")):
        key.update(src.name.encode() + b"\0" + src.read_bytes())
    base = CACHE / (w.name + ("-smoke" if smoke else ""))
    final = base / f"seed{seed}-{key.hexdigest()[:16]}"
    info_path = final / "inputs.json"
    if info_path.is_file():
        os.utime(final)
        return final, json.loads(info_path.read_text())
    tmp = base / f".tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    data = tmp / "data"
    _catgcn(w.synth_args(seed, str(data)), tmp / "synth.stdout", deadline)
    info = {
        "input_bytes": sum((data / f"{k}.tsv").stat().st_size
                           for k in ("edges", "features", "labels")),
        "edges": json.loads((data / "meta.json").read_text())["n_edges"],
    }
    if w.command == "eval":
        _catgcn(w.train_args(seed, str(data), str(tmp / "setup")), tmp / "setup.stdout",
                deadline)
        info["setup_metrics"] = json.loads((tmp / "setup.stdout").read_text())
    (tmp / "inputs.json").write_text(json.dumps(info, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    _evict(base)
    return final, info


def _evict(base: Path) -> None:
    sets = sorted((p for p in base.iterdir() if p.is_dir() and not p.name.startswith(".")),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for old in sets[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)


# --- output checks -------------------------------------------------------------


def _parse_metrics(cmd: Command):
    try:
        got = json.loads(cmd.stdout)
    except json.JSONDecodeError:
        cmd.errors.append("stdout is not one JSON object")
        return None
    bad = [k for k in METRIC_KEYS if not isinstance(got.get(k), float) or not math.isfinite(got[k])]
    if bad:
        cmd.errors.append(f"missing or non-finite metrics {bad}")
        return None
    return got


def check_train(cmd: Command, w, out_dir: Path) -> None:
    """Exit 0, finite held-out metrics above the workload's F1 floor, `epochs`
    finite epoch lines, every epoch marked."""
    if cmd.errors:
        return
    cmd.metrics = _parse_metrics(cmd)
    if cmd.metrics is not None and cmd.metrics["test_macro_f1"] < w.f1_floor:
        cmd.errors.append(f"test macro-F1 {cmd.metrics['test_macro_f1']:.4f} is below the "
                          f"workload's floor {w.f1_floor}")
    try:
        lines = (out_dir / "epochs.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
    except (OSError, json.JSONDecodeError) as exc:
        cmd.errors.append(f"epochs.jsonl unreadable: {exc}")
        return
    if [r.get("epoch") for r in records] != list(range(1, w.epochs + 1)):
        cmd.errors.append(f"epochs.jsonl has {len(records)} epochs, expected {w.epochs}")
    if not all(isinstance(r.get("train_loss"), float) and math.isfinite(r["train_loss"])
               for r in records):
        cmd.errors.append("epochs.jsonl has a missing or non-finite loss")
    if not (out_dir / "checkpoint.bin").is_file():
        cmd.errors.append("no checkpoint.bin")
    if len(cmd.marks().get("epoch_end", [])) != w.epochs:
        cmd.errors.append("per-epoch progress marks do not match the epoch count")


def check_eval(cmd: Command, expected: dict) -> None:
    """Exit 0 and metrics equal to the held-out metrics of the train that wrote the checkpoint."""
    if cmd.errors:
        return
    cmd.metrics = _parse_metrics(cmd)
    if cmd.metrics is None:
        return
    diff = [k for k in METRIC_KEYS if cmd.metrics[k] != expected[k]]
    if diff:
        cmd.errors.append(f"eval metrics {diff} differ from the training run's held-out metrics")


def artifacts(out_dir: Path) -> tuple[bytes, bytes]:
    return (out_dir / "epochs.jsonl").read_bytes(), (out_dir / "checkpoint.bin").read_bytes()


def check_same_artifacts(cmd: Command, out_dir: Path, reference: Path, what: str) -> None:
    if not cmd.errors and artifacts(out_dir) != artifacts(reference):
        cmd.errors.append(f"epochs.jsonl/checkpoint.bin differ from {what}")


# --- untraced: end-to-end metrics --------------------------------------------


def timed_commands(w, seed, inputs: Path, info: dict, seconds, rundir, deadline) -> list:
    data = str(inputs / "data")
    cmds = []
    start = time.monotonic()
    while True:
        tag = f"c{len(cmds)}"
        if w.command == "train":
            out = rundir / tag
            cmd = Command(w.train_args(seed, data, str(out)), "marks", rundir, tag, deadline)
            check_train(cmd, w, out)
            if cmds:
                check_same_artifacts(cmd, out, rundir / "c0", "the run's first command")
        else:
            cmd = Command(eval_args(data, str(inputs / "setup" / "checkpoint.bin")), "marks",
                          rundir, tag, deadline)
            check_eval(cmd, info["setup_metrics"])
        cmds.append(cmd)
        now = time.monotonic()
        if now - start >= seconds or deadline - now < 2.0 * cmd.run_s:
            return cmds


def end_to_end(cmds: list) -> dict:
    """Every end-to-end metric as (value, unit, sample count), plus the tail
    percentile where ten samples lie beyond it."""
    ok = [c for c in cmds if not c.errors]
    if not ok:
        return {}
    phases = [c.phases() for c in ok]
    steps = [s for _, _, ss in phases for s in ss]
    out = {
        "run_s": (median(c.run_s for c in ok), "s", len(ok)),
        "setup_s": (median(p[0] for p in phases), "s", len(ok)),
        "compute_s": (median(p[1] for p in phases), "s", len(ok)),
        "step_ms_p50": (median(steps), "ms", len(steps)),
        "peak_rss_mb": (median(c.peak_rss_mb for c in ok), "MB", len(ok)),
        "test_macro_f1": (median(c.metrics["test_macro_f1"] for c in ok), "ratio", len(ok)),
    }
    p90 = percentile(steps, 90)
    if p90 is not None:
        out["step_ms_p90"] = (p90, "ms", len(steps))
    return out


# --- traced: per-layer metrics -------------------------------------------------


def traced_pass(w, seed, inputs: Path, info: dict, rundir: Path, idx: int, deadline) -> tuple:
    """Untraced command, traced train, traced eval of its checkpoint; returns
    (commands, per-layer metrics or None when a command failed)."""
    data = str(inputs / "data")
    out_t = rundir / f"p{idx}-train"

    def traced_train():
        cmd = Command(w.train_args(seed, data, str(out_t)), "trace", rundir, f"p{idx}-train",
                      deadline)
        check_train(cmd, w, out_t)
        return cmd

    if w.command == "train":
        out_u = rundir / f"p{idx}-untraced"
        untraced = Command(w.train_args(seed, data, str(out_u)), "marks", rundir,
                           f"p{idx}-untraced", deadline)
        check_train(untraced, w, out_u)
        train = traced_train()
        if untraced.errors:
            train.errors.append("no untraced reference to compare with")
        check_same_artifacts(train, out_t, out_u, "the untraced run")
    else:
        # the set-up train first, so the untraced and traced evals run back to back
        train = traced_train()
        check_same_artifacts(train, out_t, inputs / "setup", "the untraced set-up train")
        untraced = Command(eval_args(data, str(inputs / "setup" / "checkpoint.bin")), "marks",
                           rundir, f"p{idx}-untraced", deadline)
        check_eval(untraced, info["setup_metrics"])
    ev = Command(eval_args(data, str(out_t / "checkpoint.bin")), "trace", rundir,
                 f"p{idx}-eval", deadline)
    if train.metrics is None:
        ev.errors.append("no training metrics to compare with")
    else:
        check_eval(ev, train.metrics)
    cmds = [untraced, train, ev]
    if any(c.errors for c in cmds):
        return cmds, None
    timed = train if w.command == "train" else ev
    layers = layer_metrics(train, ev, w)
    if layers["graph.spmm.calls"][0] != HOPS * layers["graph.propagate.calls"][0]:
        train.errors.append("spmm calls != hops x propagate calls: a propagate binding was missed")
        return cmds, None
    layers["trace_overhead_s"] = (timed.run_s - untraced.run_s, "s")
    layers["checkpoint.bytes"] = ((out_t / "checkpoint.bin").stat().st_size, "bytes")
    layers["data.input_bytes"] = (info["input_bytes"], "bytes")
    layers["data.edges"] = (info["edges"], "count")
    return cmds, layers


def span_names() -> list:
    names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
    for prim in TAPE_PRIMS:
        names += [f"autodiff.tape.{prim}", f"autodiff.tape.{prim}.vjp"]
    return names


def layer_metrics(train: Command, ev: Command, w) -> dict:
    """Busy time, calls and self time per traced function, plus counts, over
    one traced train and one traced eval."""
    spans = train.record["spans"]
    table = merge_tables([span_table(spans), span_table(ev.record["spans"])])
    out = {}
    for name in span_names():
        row = table.get(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        out[f"{name}.s"] = (row["s"], "s")
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    counts = {}
    for c in (train, ev):
        for k, v in c.record["counts"].items():
            counts[k] = counts.get(k, 0) + v if k == "graph.spmm_flops" else v
    for k, unit in (("graph.a_hat_nnz", "count"), ("graph.spmm_flops", "count"),
                    ("interaction.embed_elems", "count"),
                    ("model.training_step.peak_alloc_mb", "MB")):
        out[k] = (counts[k], unit)
    out["cli.self_s"] = (sum(c.run_s - top_level_s(c.record["spans"]) for c in (train, ev)), "s")

    # the epoch loop: train's direct children from the first epoch on
    marks = train.marks()
    loop_start, loop_end = marks["epoch_start"][0], marks["epoch_end"][-1]
    root = next(i for i, s in enumerate(spans) if s[0] == "training.train")
    in_loop = [s for s in spans if s[3] == root and s[1] >= loop_start]
    covered = sum(s[2] - s[1] for s in in_loop if s[0] in (
        "model.training_step", "model.model_forward", "training.adam_step", "training.evaluate"))
    out["training.epoch_wall_s"] = ((loop_end - loop_start) / 1e9, "s")
    out["training.epoch_residual_s"] = ((loop_end - loop_start - covered) / 1e9, "s")
    for name in ("model.model_forward", "graph.propagate"):
        n = sum(1 for s in spans if s[0] == name and s[1] >= loop_start
                and root in ancestors(spans, s[3]))
        out[f"{name}.calls_per_epoch"] = (n / w.epochs, "count")
    return out


def median_layers(passes: list) -> dict:
    return {k: (median(p[k][0] for p in passes), unit) for k, (_, unit) in passes[0].items()}


# --- runs ----------------------------------------------------------------------


def run_workload(w, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    inputs, info = prepare_inputs(w, seed, smoke, deadline)
    rundir = WORK / f"{w.name}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        if not trace:
            cmds = timed_commands(w, seed, inputs, info, seconds, rundir, deadline)
            metrics = end_to_end(cmds)
            samples = {c.tag: {"run_s": c.run_s, "phases": c.phases()} for c in cmds
                       if not c.errors}
        else:
            cmds, passes, samples = [], [], {}
            start = time.monotonic()
            while True:
                pass_cmds, layers = traced_pass(w, seed, inputs, info, rundir, len(passes),
                                                deadline)
                cmds += pass_cmds
                samples.update({c.tag: {"run_s": c.run_s} for c in pass_cmds})
                if layers is not None:
                    passes.append(layers)
                spent = time.monotonic() - start
                per_pass = spent / (len(cmds) // 3)
                if spent >= seconds or deadline - time.monotonic() < 2.0 * per_pass:
                    break
            metrics = {k: (v, unit, len(passes)) for k, (v, unit) in
                       median_layers(passes).items()} if passes else {}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    failed = sum(1 for c in cmds if c.errors)
    env = next((c.record["environment"] for c in cmds if c.record), {})
    return {
        "workload": w.name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "attempted": len(cmds), "failed": failed,
        "failed_ratio": failure_ratio(len(cmds), failed),
        "errors": [f"{c.tag}: {e}" for c in cmds for e in c.errors],
        "metrics": metrics, "samples": samples, "inputs": info,
        "environment": {**env, **_host()},
    }


def _host() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_revision": rev or "unknown (not a git checkout)",
            "src_sha256": src.hexdigest()[:16], "nproc": len(os.sched_getaffinity(0))}


def report(result: dict, wanted: list) -> tuple[dict, bool]:
    """Print every metric by name with its unit; return the JSON metrics for `wanted`."""
    head = f"{result['workload']}  seed {result['seed']}  trace {result['trace']}"
    print(f"== {head}{'  (smoke)' if result['smoke'] else ''}")
    for name, (value, unit, n) in sorted(result["metrics"].items()):
        print(f"  {name:44s} {value:>16.6g} {unit:6s} n={n}")
    print(f"  {'failed_ratio':44s} {result['failed_ratio']:>16.6g} ratio  "
          f"({result['failed']}/{result['attempted']})")
    print(f"  inputs: {result['inputs'].get('edges')} edges, "
          f"{result['inputs'].get('input_bytes')} bytes")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in result["environment"].items()))
    for err in result["errors"]:
        print(f"  FAILED {err}")
    out, complete = {}, True
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            complete = False
            continue
        if got[1] != spec["unit"]:
            raise BenchError(f"{spec['name']}: unit {got[1]} but BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": got[0], "unit": got[1]}
    return out, complete


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs: wiring check only")
    parser.add_argument("--out", default=None, help="also write the full results as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "catgcn" / "cli.py").is_file():
        print(f"error: the program is missing: no src/catgcn under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    table = SMOKE if args.smoke else WORKLOADS
    results, metrics, complete = [], {}, True
    try:
        for name in names:
            for trace in modes:
                result = run_workload(table[name], args.seed, args.seconds, trace, args.smoke)
                results.append(result)
                got, ok = report(result, spec["per_layer" if trace else "end_to_end"])
                complete &= ok
                prefix = f"{name}/" if args.workload == "all" else ""
                metrics.update({prefix + k: v for k, v in got.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
