"""Tests for the benchmark's own code: span arithmetic, statistics helpers,
the artifact check, and tracing across forked pool workers."""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_direct_children():
    tr = spans.Tracer(clock=fake_clock(0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0))
    outer = tr.open()            # 0
    mid = tr.open()              # 2
    inner = tr.open()            # 3
    tr.close("inner", inner)     # 4
    tr.close("mid", mid)         # 5
    sibling = tr.open()          # 6
    tr.close("mid", sibling)     # 7
    tr.close("outer", outer)     # 10
    assert tr.spans["inner"] == [1, 1.0, 1.0]
    assert tr.spans["mid"] == [2, 4.0, 3.0]
    assert tr.spans["outer"] == [1, 10.0, 6.0]


def test_span_wrapper_records_on_exception_and_tallies():
    tr = spans.Tracer(keep=["f"], clock=fake_clock(0.0, 1.5, 2.0, 2.5))
    f = tr.span("f", lambda s: s, tally=("bytes", len))
    assert f("abc") == "abc"

    def boom():
        raise KeyError("x")

    g = tr.span("g", boom)
    with pytest.raises(KeyError):
        g()
    assert tr.spans["f"] == [1, 1.5, 1.5]
    assert tr.spans["g"] == [1, 0.5, 0.5]
    assert tr.counts == {"bytes": 3}
    assert tr.samples == {"f": [1.5]}


def test_merge_adds_worker_spans():
    tr = spans.Tracer()
    tr.spans["a"] = [1, 2.0, 1.0]
    tr.add("n", 2)
    tr.merge({"spans": {"a": [2, 1.0, 0.5], "b": [1, 3.0, 3.0]},
              "counts": {"n": 3}, "samples": {"r": [0.1]}})
    assert tr.spans == {"a": [3, 3.0, 1.5], "b": [1, 3.0, 3.0]}
    assert tr.counts == {"n": 5}
    assert tr.samples == {"r": [0.1]}


def test_quartiles_match_statistics_quantiles():
    vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert run.quartiles(vals) == tuple(statistics.quantiles(vals, n=4))
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_percentile_interpolates_linearly():
    vals = [4.0, 1.0, 3.0, 2.0]
    assert run.percentile(vals, 0) == 1.0
    assert run.percentile(vals, 50) == 2.5
    assert run.percentile(vals, 90) == pytest.approx(3.7)
    assert run.percentile(vals, 100) == 4.0
    assert run.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def fake_trace(draws):
    return {"spans": {"control.update": [draws, 1.0, 1.0]}, "counts": {"rng.draws": draws},
            "samples": {spans.REPLICA_SPAN: [0.5, 0.7]}}


def test_traced_metrics_are_medians_and_counts_must_repeat():
    runs = [{"trace": fake_trace(6), "wall_s": w} for w in (3.0, 1.0, 2.0)]
    metrics = run.traced_metrics("interval", runs)
    assert metrics["trace.wall_s"] == (2.0, "s")
    assert metrics["rng.draws"] == (6, "count")
    assert metrics["control.update_calls"] == (6, "count")
    assert metrics["runner.replica_p90_s"][0] == pytest.approx(0.68)
    runs[1]["trace"] = fake_trace(7)
    with pytest.raises(run.BenchmarkError, match="rng.draws"):
        run.traced_metrics("interval", runs)


def test_invocation_past_its_deadline_is_a_benchmark_error():
    spec = {"argv": ["--help"], "trace": False, "spool": "unused"}
    with pytest.raises(run.BenchmarkError, match="run limit"):
        run._spawn(spec, None, time.monotonic() - 1.0)


WORKLOAD = {"replicas": 2, "variants": {"": 3}}


def write_run(out: Path, residual: float = 0.0) -> None:
    out.mkdir()
    for k in range(2):
        rows = "".join(f"{t},{k}\n" for t in range(1, 4))
        (out / f"trace_{k}.csv").write_text("t,action\n" + rows)
    doc = {"replicas": [{"replica": k, "ledger_residual": residual} for k in range(2)]}
    (out / "metrics.json").write_text(json.dumps(doc))
    (out / "config.json").write_text(json.dumps({"output_dir": str(out)}))


def test_intact_artifacts_pass(tmp_path):
    write_run(tmp_path / "out")
    golden = run.hash_artifacts(tmp_path / "out")
    assert "config.json" not in golden
    assert run.check_artifacts(tmp_path / "out", WORKLOAD, golden) == (2, 0, [])
    assert run.check_artifacts(tmp_path / "out", WORKLOAD, None) == (2, 0, [])


def test_corrupted_trace_is_a_failed_replica(tmp_path):
    out = tmp_path / "out"
    write_run(out)
    golden = run.hash_artifacts(out)
    text = (out / "trace_1.csv").read_text()
    (out / "trace_1.csv").write_text(text.replace("2,1", "2,7"))
    attempted, failed, problems = run.check_artifacts(out, WORKLOAD, golden)
    assert (attempted, failed) == (2, 1)
    assert problems == ["trace_1.csv: differs from golden"]


def test_unchecked_seed_still_checks_rows_and_residual(tmp_path):
    out = tmp_path / "out"
    write_run(out, residual=1e-6)
    assert run.check_artifacts(out, WORKLOAD, None)[:2] == (2, 2)
    (out / "metrics.json").write_text(json.dumps({"replicas": [{}, {}]}))
    with (out / "trace_0.csv").open("a") as fh:
        fh.write("4,0\n")
    assert run.check_artifacts(out, WORKLOAD, None)[:2] == (2, 1)


def test_corrupted_metrics_fails_every_replica(tmp_path):
    out = tmp_path / "out"
    write_run(out)
    golden = run.hash_artifacts(out)
    (out / "metrics.json").write_text("{")
    assert run.check_artifacts(out, WORKLOAD, golden)[:2] == (2, 2)
    (out / "metrics.json").write_text(json.dumps({"replicas": [{}]}))
    assert run.check_artifacts(out, WORKLOAD, None)[:2] == (2, 2)
    (out / "trace_0.csv").unlink()
    assert run.check_artifacts(out, WORKLOAD, None)[:2] == (2, 2)


def test_traced_child_collects_spans_from_pool_workers(tmp_path):
    config = {"algorithm": "primal_threshold", "environment": {"kind": "score_uniform"},
              "T": 300, "phi": 0.8, "seed": 3, "replicas": 3,
              "schedule": {"kind": "constant", "c": 0.05, "p": 0.0, "index_offset": 0}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    (tmp_path / "spool").mkdir()
    spec = {"argv": ["run", "--config", str(tmp_path / "cfg.json"), "--jobs", "2",
                     "--out", str(tmp_path / "out")],
            "trace": True, "spool": str(tmp_path / "spool")}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["rc"] == 0 and res["wall_s"] > 0 and res["setup_s"] > 0
    trace = res["trace"]
    assert trace["counts"]["rng.draws"] == 900
    assert trace["spans"]["control.update"][0] == 900
    assert trace["spans"]["oracles.setup"][0] == 3
    assert len(trace["samples"][spans.REPLICA_SPAN]) == 3
    layers = run.layer_metrics(trace, res["wall_s"])
    assert layers["runner.csv_mb"][0] > 0
    assert layers["runner.pool_wait_s"][0] > 0
    assert layers["runner.write_s"][0] > 0
