"""In-memory span tracer attached to coverctl from outside the package.

A span covers one call of a wrapped function. Spans of the same name are
aggregated on close into (calls, total seconds, self seconds), where self
time is the span's duration minus the time covered by its direct child
spans. Plain counters tally calls that are too frequent and too cheap to
time. Durations of the spans named in ``keep`` are stored one by one, so
their percentiles can be taken.

``install`` puts the wrappers into the namespaces that make the calls
(``runner.bandit_step``, ``oracles.interval_benchmark``,
``environments.uniform``, world methods, ...), so nothing under ``src/``
changes. Forked pool workers start from an empty tracer and write their
aggregates next to the parent's after every replica; ``collect`` merges
them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, keep=(), clock=time.perf_counter):
        self.keep = frozenset(keep)
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self._stack: list[list[float]] = []  # per open span: [time covered by children]

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.samples.clear()
        self._stack.clear()

    def open(self) -> float:
        self._stack.append([0.0])
        return self.clock()

    def close(self, name: str, start: float) -> None:
        dur = self.clock() - start
        children = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dur
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - children
        if name in self.keep:
            self.samples.setdefault(name, []).append(dur)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, tally=None):
        """Wrap ``fn`` in a span; ``tally=(counter, measure)`` also adds
        ``measure(result)`` to a counter."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(name, start)
            if tally is not None:
                self.add(tally[0], tally[1](out))
            return out

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "samples": self.samples}

    def merge(self, doc: dict) -> None:
        for name, (calls, total, self_s) in doc["spans"].items():
            agg = self.spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, n in doc["counts"].items():
            self.add(name, n)
        for name, vals in doc["samples"].items():
            self.samples.setdefault(name, []).extend(vals)


REPLICA_SPAN = "runner.replica"


def install(tracer: Tracer, spool: Path) -> None:
    """Attach ``tracer`` to the coverctl modules of this process.

    ``spool`` is a directory where forked pool workers leave their spans.
    """
    from coverctl import bandit, chains, metrics, oracles, runner, threshold
    from coverctl import environments as envs

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), **kw))

    patch(runner, "run_replica", REPLICA_SPAN)
    for drive in ("drive_bandit", "drive_threshold", "drive_newsvendor", "drive_acog"):
        patch(runner, drive, "runner.drive")
    patch(runner, "bandit_step", "bandit.step")
    patch(bandit, "select_arm", "bandit.select")
    patch(runner, "acog_step", "chains.step")
    patch(chains, "select_chain", "chains.select")
    patch(runner, "threshold_step", "threshold.step")
    for module in (bandit, chains, threshold):
        patch(module, "aci_update", "control.update")
    for fn in ("interval_benchmark", "lp_benchmark", "threshold_benchmark",
               "newsvendor_benchmark", "greedy_chain"):
        patch(oracles, fn, "oracles.setup")
    for fn in ("coverage_series", "regret_series", "deviation_counter", "sublinearity_fit"):
        patch(metrics, fn, "metrics.summary")
    patch(metrics.MetricsReport, "__init__", "metrics.summary")
    patch(metrics.MetricsReport, "summary", "metrics.summary")
    patch(runner, "render_csv", "runner.render_csv", tally=("runner.csv_bytes", len))
    for world, method in ((envs.IidArmWorld, "pull"), (envs.IntervalWorld, "pull"),
                          (envs.TrapWorld, "pull"), (envs.ScoreWorld, "evaluate"),
                          (envs.PoissonDemand, "draw"), (envs.OrWorld, "probe")):
        patch(world, method, "environments.draw")
    envs.uniform = tracer.counter("rng.draws", envs.uniform)

    class TracedPath(type(Path())):
        write_text = tracer.span("runner.write", Path.write_text)
        mkdir = tracer.span("runner.write", Path.mkdir)

    runner.Path = TracedPath

    class TracedPool(runner.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kw):
            start = tracer.open()
            try:
                return iter(list(super().map(fn, *iterables, **kw)))
            finally:
                tracer.close("runner.pool_wait", start)

        shutdown = tracer.span("runner.pool_wait", runner.ProcessPoolExecutor.shutdown)

    runner.ProcessPoolExecutor = TracedPool

    worker = runner._worker
    owner = os.getpid()

    @functools.wraps(worker)
    def spooling_worker(args):
        out = worker(args)
        if os.getpid() != owner:
            (spool / f"worker-{os.getpid()}.json").write_text(json.dumps(tracer.to_dict()))
        return out

    # pickled by qualified name, so the pool sends this wrapper to its workers
    runner._worker = spooling_worker
    os.register_at_fork(after_in_child=tracer.reset)


def collect(tracer: Tracer, spool: Path) -> dict:
    """This process's spans merged with every worker's spooled spans."""
    for path in sorted(spool.glob("worker-*.json")):
        tracer.merge(json.loads(path.read_text()))
    return tracer.to_dict()
