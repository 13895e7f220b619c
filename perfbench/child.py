"""Run one catgcn command in this process and record when its phases happen.

    python3 perfbench/child.py RECORD {marks|trace} -- <catgcn arguments>

The benchmark starts every timed command through this file, in a fresh
process. It imports the program from the checkout's `src/`, calls
`catgcn.cli.main` exactly as the `catgcn` entry point does, and writes a JSON
record to RECORD when main returns.

`marks` patches three bindings to stamp phase boundaries on the monotonic
clock the parent also reads: each call of the training step
(`epoch_start`), each per-epoch progress line (`epoch_end`), the eval
command's forward (`forward_start` / `forward_end`), plus `main_return`.

`trace` also wraps every binding of each module's public functions and every
tape primitive and its backward rule, keeping one span per call (name, start,
end, parent) in memory, and counts work at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Public functions on the train/eval path, by module. Every module-level
# binding of each one is replaced, so calls through re-imported names
# (model.propagate, training.sample_features, cli.model_forward, ...) are seen.
TRACED = {
    "data": ("load_dataset", "dataset_fingerprint", "make_split", "sample_features"),
    "graph": ("build_adjacency", "normalize_sym", "propagate", "spmm"),
    "interaction": ("forward_all_nodes",),
    "autodiff": ("backward",),
    "model": ("training_step", "taped_forward", "taped_loss", "model_forward"),
    "training": ("train", "xavier_init", "init_adam", "adam_step", "evaluate",
                 "held_out_metrics"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
}

TAPE_PRIMS = (
    "matmul", "add_bias", "add", "elementwise_mul", "elementwise_square", "relu",
    "mean_rows", "sum_rows", "gather_rows", "scale", "scale_rows", "total_sum",
    "biinteraction", "artificial_prop", "sparse_propagate", "softmax_cross_entropy",
)

# the call whose peak Python-visible allocation (numpy buffers included) is
# measured with tracemalloc; only its first call, to keep the cost to one epoch
ALLOC_PROBE = "model.training_step"


class Recorder:
    def __init__(self):
        self.marks = []  # [name, monotonic_ns]
        self.spans = []  # [name, start_ns, end_ns, parent_index]
        self.counts = {}
        self._stack = []

    def mark(self, name: str) -> None:
        self.marks.append([name, time.monotonic_ns()])

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else "?"

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0, 0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            probe = name == ALLOC_PROBE and f"{name}.peak_alloc_mb" not in self.counts
            if probe:
                tracemalloc.start()
            span[1] = time.monotonic_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                self._stack.pop()
                if probe:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counts[f"{name}.peak_alloc_mb"] = peak / 2**20
            if after is not None:
                after(self.counts, args, out)
            return out

        return traced

    def install_tracing(self) -> None:
        import catgcn.autodiff
        import catgcn.cli  # noqa: F401  (imports every module on the path)

        modules = [m for n, m in sys.modules.items() if n == "catgcn" or n.startswith("catgcn.")]
        for modname, names in TRACED.items():
            mod = sys.modules[f"catgcn.{modname}"]
            for fname in names:
                qual = f"{modname}.{fname}"
                original = getattr(mod, fname)
                _rebind(modules, original, self.wrap(qual, original, _COUNTERS.get(qual)))
        tape = catgcn.autodiff.Tape
        for prim in TAPE_PRIMS:
            setattr(tape, prim, self.wrap(f"autodiff.tape.{prim}", getattr(tape, prim)))
        emit = tape._emit

        def _emit(tape_self, out_data, inputs, vjp):
            # runs inside the primitive's span, so current() names the primitive
            return emit(tape_self, out_data, inputs, self.wrap(self.current() + ".vjp", vjp))

        tape._emit = _emit

    def install_marks(self) -> None:
        import catgcn.cli
        import catgcn.training

        step = catgcn.training.training_step

        def training_step(*args, **kwargs):
            self.mark("epoch_start")
            return step(*args, **kwargs)

        catgcn.training.training_step = training_step

        progress = catgcn.cli._progress

        def _progress(record):
            self.mark("epoch_end")
            return progress(record)

        catgcn.cli._progress = _progress

        forward = catgcn.cli.model_forward

        def model_forward(*args, **kwargs):
            self.mark("forward_start")
            try:
                return forward(*args, **kwargs)
            finally:
                self.mark("forward_end")

        catgcn.cli.model_forward = model_forward

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"marks": self.marks, "spans": self.spans, "counts": self.counts,
                       "environment": _environment()}, fh)


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for attr in [a for a, v in vars(mod).items() if v is original]:
            setattr(mod, attr, wrapped)


def _count_normalize(counts, args, out):
    counts["graph.a_hat_nnz"] = out[0].nnz


def _count_spmm(counts, args, out):
    counts["graph.spmm_flops"] = counts.get("graph.spmm_flops", 0) + 2 * args[0].nnz * out.shape[1]


def _count_embed(counts, args, out):
    # forward_all_nodes(table, params, config, sample): N * n_f * d_emb gathered values
    counts["interaction.embed_elems"] = int(args[3].ids.size) * int(args[0].shape[1])


_COUNTERS = {
    "graph.normalize_sym": _count_normalize,
    "graph.spmm": _count_spmm,
    "interaction.forward_all_nodes": _count_embed,
}


def _environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv) -> int:
    if len(argv) < 3 or argv[1] not in ("marks", "trace") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    record_path, mode = argv[0], argv[1]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import catgcn.cli

    rec = Recorder()
    if mode == "trace":
        rec.install_tracing()
    rec.install_marks()
    try:
        return catgcn.cli.main(argv[3:])
    finally:
        rec.mark("main_return")
        rec.dump(record_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
