"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload train-10k --seeds 1-10 [--out FILE]

Runs `run.py --trace 0` once per seed, one after another, with BENCHMARK.json's
run_seconds, and prints per metric the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
against a third of the metric's bound. A benchmark is steady when every
share except setup_s's is below that third.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def parse_seeds(spec: str) -> list:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)
        runs.append({"seed": seed, **result})
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        med, q1, q3, share = quartile_spread([r["metrics"][name]["value"] for r in runs])
        steady = name == "setup_s" or share < metric["bound"] / 3
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                         "bound": metric["bound"], "steady": steady}
        print(f"{name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {share:7.2%}  bound/3 {metric['bound'] / 3:7.2%}  "
              f"{'ok' if steady else 'WIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                              "summary": summary}, indent=2) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
