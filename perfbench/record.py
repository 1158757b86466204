"""Record a BENCH_<n>.json: every workload over ten seeds, plus a traced run.

    python3 perfbench/record.py --out perfbench/BENCH_1.json

For each workload and seed this runs ``run.py`` untraced, then once traced
at the first seed. It stores each end-to-end metric's median and quartiles
over the seeds with its spread (q3 - q1) / median next to the metric's
bound, the traced per-layer metrics with each time's share of the traced
wall time, the tracing overhead (traced over untraced ``wall_s`` at the
first seed, minus 1) and the machine's facts. It exits 1 if any run was
incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

from run import HERE, ROOT, SPEC, WORKLOADS, quartiles

SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"seeds": SEEDS, "run_seconds": spec["run_seconds"],
           "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": numpy.__version__, "platform": platform.platform()},
           "workloads": {}}
    all_correct = True
    for name in WORKLOADS:
        runs = [bench(name, seed, 0) for seed in SEEDS]
        traced = bench(name, SEEDS[0], 1)
        all_correct &= all(r["correct"] for r in runs + [traced])
        metrics = {}
        for key, bound in bounds.items():
            values = [r["metrics"][key]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            metrics[key] = {"unit": runs[0]["metrics"][key]["unit"], "median": med,
                            "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound,
                            "values": values}
            print(f"{name:8s} {key:12s} median {med:.6g} spread {(q3 - q1) / med:.3f}"
                  f" (bound {bound})")
        wall = traced["metrics"]["trace.wall_s"]["value"]
        layers = {key: {**m, **({"share": m["value"] / wall} if m["unit"] == "s" else {})}
                  for key, m in traced["metrics"].items()}
        doc["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics, "per_layer": layers,
            "trace_overhead": wall / runs[0]["metrics"]["wall_s"]["value"] - 1}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
