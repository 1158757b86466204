"""coverctl benchmark: whole CLI runs, each in a fresh interpreter.

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload chain      # one workload, untraced
    python3 perfbench/run.py --workload chain --trace 1
    python3 perfbench/run.py --workload chain --seed 7 --seconds 60

Every invocation calls ``coverctl.cli.main(["run", "--preset", ...])`` in a
new process, so each pays its own imports and oracle setup as a real CLI
call does. Every invocation's artifacts are checked: at seed 1 against the
SHA-256 hashes in ``golden.json``, at any seed for T rows per trace and a
ledger residual of at most 1e-9 where one is reported. A replica whose
artifacts fail the check, or whose invocation failed, counts as failed.

A run makes back-to-back invocations for ``--seconds`` (default: the
``run_seconds`` of BENCHMARK.json), at least MIN_CALLS of them, and reports
medians over them. The last stdout line is one JSON object with
``correct``, ``attempted`` and ``failed`` (replicas) and ``metrics``: the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import REPLICA_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
GOLDEN_SEED = 1
RESIDUAL_TOL = 1e-9
RUN_LIMIT_S = 170  # one measure() of one workload, every invocation included
MIN_CALLS = 3

# Each workload stresses a different layer; README.md gives the reasons.
# ``variants`` maps each variant's subdirectory to its horizon T.
WORKLOADS = {
    "interval": {"preset": "interval-beta", "replicas": 4, "jobs": 1,
                 "variants": {"": 25000}},
    "chain": {"preset": "combinatorial-or", "replicas": 4, "jobs": 1,
              "variants": {"": 20000}},
    "scaling": {"preset": "regret-scaling", "replicas": 20, "jobs": 2,
                "variants": {f"T-{T}": T for T in (2000, 4000, 8000, 16000, 32000)}},
}

# Counts that must repeat exactly across traced runs of the same code.
EXACT_COUNTS = ("rng.draws", "oracles.calls", "environments.draw_calls",
                "bandit.select_calls", "chains.select_calls", "control.update_calls",
                "runner.csv_mb")


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# --- statistics -------------------------------------------------------------

def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile, ``p`` in [0, 100]."""
    vals = sorted(values)
    if not vals:
        raise ValueError("no values")
    pos = (len(vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


# --- artifact check ---------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_artifacts(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact except config.json, which embeds the output path."""
    return {p.relative_to(out_dir).as_posix(): sha256(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file() and p.name != "config.json"}


def check_artifacts(out_dir: Path, workload: dict,
                    golden: dict[str, str] | None) -> tuple[int, int, list[str]]:
    """Return (attempted, failed, problems) counted in replicas.

    With ``golden`` every file must match its hash; a bad metrics.json or
    manifest.json fails every replica it covers.
    """
    attempted = failed = 0
    problems: list[str] = []
    manifest_ok = True
    if len(workload["variants"]) > 1:
        manifest = out_dir / "manifest.json"
        manifest_ok = manifest.is_file() and (
            golden is None or sha256(manifest) == golden.get("manifest.json"))
        if not manifest_ok:
            problems.append("manifest.json missing or differs from golden")
    for variant, T in workload["variants"].items():
        vdir = out_dir / variant
        prefix = f"{variant}/" if variant else ""
        summaries = _replica_summaries(vdir / "metrics.json", workload["replicas"])
        metrics_ok = summaries is not None and (
            golden is None or sha256(vdir / "metrics.json") == golden.get(prefix + "metrics.json"))
        if not metrics_ok:
            problems.append(f"{prefix}metrics.json unreadable or differs from golden")
        for k in range(workload["replicas"]):
            attempted += 1
            name = f"{prefix}trace_{k}.csv"
            path = vdir / f"trace_{k}.csv"
            if not path.is_file():
                why = "missing"
            elif golden is not None and sha256(path) != golden.get(name):
                why = "differs from golden"
            elif path.read_bytes().count(b"\n") != T + 1:
                why = f"does not hold {T} rows"
            elif summaries is not None and abs(summaries[k].get("ledger_residual", 0.0)) > RESIDUAL_TOL:
                why = "ledger residual above tolerance"
            else:
                why = None if metrics_ok and manifest_ok else "summary artifacts failed"
            if why:
                failed += 1
                problems.append(f"{name}: {why}")
    return attempted, failed, problems


def _replica_summaries(path: Path, replicas: int):
    try:
        summaries = json.loads(path.read_text())["replicas"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return summaries if isinstance(summaries, list) and len(summaries) == replicas else None


# --- child processes --------------------------------------------------------

def _spawn(spec: dict, env: dict, deadline: float) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"run limit of {RUN_LIMIT_S} s reached during {spec['argv']}")
    if proc.returncode != 0:
        sys.stderr.write(err)
        return {"rc": proc.returncode}
    return json.loads(out.strip().splitlines()[-1])


def invoke(name: str, seed: int, deadline: float, trace: bool = False) -> dict:
    """Run one coverctl invocation of workload ``name``, killed at
    ``deadline``; return its result with the artifact check folded in as
    ``attempted``/``failed``."""
    wl = WORKLOADS[name]
    shutil.rmtree(SCRATCH, ignore_errors=True)
    out_dir = SCRATCH / "out"
    spool = SCRATCH / "spool"
    spool.mkdir(parents=True)
    argv = ["run", "--preset", wl["preset"], "--seed", seed, "--replicas", wl["replicas"],
            "--jobs", wl["jobs"], "--out", out_dir]
    env = dict(os.environ, TMPDIR=str(SCRATCH), PYTHONHASHSEED="0")
    spec = {"argv": [str(a) for a in argv], "trace": trace, "spool": str(spool)}
    res = _spawn(spec, env, deadline)
    golden = None
    if seed == GOLDEN_SEED:
        golden = json.loads(GOLDEN.read_text())[name]
    attempted, failed, problems = check_artifacts(out_dir, wl, golden)
    if res.get("rc") != 0:
        failed = attempted
        problems.append(f"coverctl exited with {res.get('rc')}")
    for line in problems:
        print(f"check failed: {name} seed {seed}: {line}", file=sys.stderr)
    res.update(attempted=attempted, failed=failed)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return res


# --- measurement ------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """Invocations of workload ``name`` until the next one would end after
    ``seconds`` (at least MIN_CALLS); medians of each metric over them."""
    deadline = time.monotonic() + RUN_LIMIT_S
    runs = []
    began = time.monotonic()
    while True:
        t0 = time.monotonic()
        runs.append(invoke(name, seed, deadline, trace))
        now = time.monotonic()
        if len(runs) >= MIN_CALLS and (now - began) + (now - t0) > seconds:
            break
    result = _tally(runs)
    ok = [r for r in runs if r.get("rc") == 0]
    if ok:
        result["metrics"] = traced_metrics(name, ok) if trace else end_to_end(name, ok)
    return result


def end_to_end(name: str, runs: list[dict]) -> dict:
    """End-to-end metrics of untraced invocations: name -> (median, unit)."""
    wl = WORKLOADS[name]
    steps = wl["replicas"] * sum(wl["variants"].values())
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "steps_per_s": (statistics.median(steps / r["wall_s"] for r in runs), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }


def traced_metrics(name: str, runs: list[dict]) -> dict:
    """Per-layer metrics of traced invocations: name -> (median, unit). The
    exact counts must agree between the invocations."""
    layers = [layer_metrics(r["trace"], r["wall_s"]) for r in runs]
    for key in EXACT_COUNTS:
        seen = {lm[key][0] for lm in layers}
        if len(seen) != 1:
            raise BenchmarkError(f"{name}: count {key} differs between traced runs: {sorted(seen)}")
    return {key: (statistics.median(lm[key][0] for lm in layers), unit)
            for key, (_, unit) in layers[0].items()}


def layer_metrics(trace: dict, traced_wall: float) -> dict:
    """Per-layer metrics of one traced invocation: name -> (value, unit)."""
    spans = trace["spans"]
    counts = trace["counts"]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    replica = trace["samples"].get(REPLICA_SPAN) or [0.0]
    return {
        "oracles.setup_s": (total("oracles.setup"), "s"),
        "oracles.calls": (calls("oracles.setup"), "count"),
        "rng.draws": (counts.get("rng.draws", 0), "count"),
        "environments.draw_s": (total("environments.draw"), "s"),
        "environments.draw_calls": (calls("environments.draw"), "count"),
        "bandit.select_s": (total("bandit.select"), "s"),
        "bandit.select_calls": (calls("bandit.select"), "count"),
        "bandit.step_self_s": (own("bandit.step"), "s"),
        "chains.select_s": (total("chains.select"), "s"),
        "chains.select_calls": (calls("chains.select"), "count"),
        "chains.step_self_s": (own("chains.step"), "s"),
        "threshold.step_self_s": (own("threshold.step"), "s"),
        "control.update_s": (total("control.update"), "s"),
        "control.update_calls": (calls("control.update"), "count"),
        "runner.drive_self_s": (own("runner.drive"), "s"),
        "metrics.summary_s": (total("metrics.summary"), "s"),
        "runner.render_csv_s": (total("runner.render_csv"), "s"),
        "runner.csv_mb": (counts.get("runner.csv_bytes", 0) / 1e6, "MB"),
        "runner.write_s": (total("runner.write"), "s"),
        "runner.pool_wait_s": (total("runner.pool_wait"), "s"),
        "runner.replica_p50_s": (percentile(replica, 50), "s"),
        "runner.replica_p90_s": (percentile(replica, 90), "s"),
        "trace.wall_s": (traced_wall, "s"),
    }


def _tally(runs: list[dict]) -> dict:
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return {"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
            "failed": failed if attempted else 1, "invocations": len(runs)}


def report(name: str, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"{name:8s} {'failed_ratio':24s} {ratio:.4g} ratio"
          f"  ({result['failed']}/{result['attempted']} replicas, "
          f"{result['invocations']} invocations)")
    for key, (value, unit) in result.get("metrics", {}).items():
        print(f"{name:8s} {key:24s} {value:.6g} {unit}")


def _check_checkout() -> None:
    if not (ROOT / "src" / "coverctl" / "cli.py").is_file():
        raise BenchmarkError(f"no coverctl sources under {ROOT / 'src'}")
    if not GOLDEN.is_file():
        raise BenchmarkError(f"golden hashes missing: {GOLDEN}")


def run_seconds() -> float:
    """The measuring time of one run that BENCHMARK.json fixes."""
    try:
        return float(json.loads(SPEC.read_text())["run_seconds"])
    except (OSError, ValueError, KeyError) as err:
        raise BenchmarkError(f"cannot read run_seconds from {SPEC}: {err}") from err


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: all, untraced then traced)")
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float,
                   help="measuring time per workload and mode (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        _check_checkout()
        seconds = run_seconds() if args.seconds is None else args.seconds
        names = [args.workload] if args.workload else list(WORKLOADS)
        modes = [bool(args.trace)] if args.workload else [False, True]
        results = []
        for traced in modes:
            for name in names:
                res = measure(name, args.seed, seconds, traced)
                report(name, res)
                results.append((name, res))
        out = {"correct": all(r["correct"] for _, r in results),
               "attempted": sum(r["attempted"] for _, r in results),
               "failed": sum(r["failed"] for _, r in results),
               "metrics": {(f"{name}/{k}" if len(names) > 1 else k):
                           {"value": v, "unit": unit}
                           for name, r in results
                           for k, (v, unit) in r.get("metrics", {}).items()}}
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
