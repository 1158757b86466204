"""Simulation drivers and the artifact pipeline.

Drivers loop one controller against one environment through one shared
per-step loop, which enforces the state invariants on every step, keeps an
exact coverage ledger and yields the rows the step returns as columnar
:class:`~coverctl.metrics.Trace` chunks; the library drivers join them into
one trace. The experiment layer resolves an
:class:`~coverctl.presets.ExperimentConfig` through one setup table (world,
oracle, driver) and turns it plus a replica index into a trace CSV, a
metrics summary, and benchmark values, streaming the run chunk by chunk
into the CSV; replicas
derive independent substreams from the master seed and may run in any order
or in parallel without changing a byte of output. A run maps one task per
replica of every variant, on one process pool or in the parent; each task
writes its own trace into a staging directory next to the output directory.
The output directory must be absent or empty, or the run is refused before
anything runs; once every task has returned, one rename makes the staging
directory the output directory. A failed, interrupted or killed run leaves
the output directory as it was.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import count, repeat, takewhile
from pathlib import Path
from typing import Callable, Generator, NamedTuple

import numpy as np

from . import environments as envs
from . import metrics as mt
from . import oracles
from .bandit import BOUNDARY_RULE, PROJECTED_BASELINE, BanditConfig, BanditState, bandit_step
from .chains import POSITION_KEYED, PREFIX_KEYED, ChainConfig, ChainStats, acog_step
from .control import ControllerState, InvariantViolation, StepSchedule
from .presets import WORLDS, ExperimentConfig, expand_variants
from .rng import replica_seed
from .threshold import NewsvendorConfig, ThresholdConfig, newsvendor_step, threshold_step

_TOL = 1e-12
# rows per chunk: _drive yields, and render_csv renders, this many rows at a
# time; a replica holds one chunk at a time, so its memory is flat in T
_CHUNK_ROWS = 2048


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported the first time it is asked for: a
    ``--jobs 1`` run never loads ``concurrent.futures.process`` or
    ``multiprocessing``. The class is then kept as a module attribute, which
    a caller may replace, since ``execute`` looks it up there."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


@dataclass
class SimulationResult:
    trace: mt.Trace
    final_state: float
    info: dict

    @cached_property
    def records(self) -> list[mt.TraceRecord]:
        """The trace read row by row."""
        tr = self.trace
        rows = zip(*(col.tolist() for col in tr.extras.values())) if tr.extras else repeat(())
        extras = map(dict, map(zip, repeat(tuple(tr.extras)), rows))
        return list(map(mt.TraceRecord, count(1), tr.action, tr.reward.tolist(), tr.cost.tolist(),
                        tr.state.tolist(), tr.k.tolist(), extras))


def _drive(step, state: ControllerState, T: int, band: tuple[float, float], keep_trace: bool,
           columns: tuple[str, ...], window_start: int = 1) -> Generator[mt.Trace, None, tuple]:
    """The per-step loop behind every driver: call ``step()`` T times, and
    yield the rows as column chunks while it runs.

    Each call returns a row ``(action, reward, cost, state, *columns)``; with
    ``keep_trace`` every ``_CHUNK_ROWS`` rows, and the rows left at the end,
    are yielded as one :class:`~coverctl.metrics.Trace` as soon as they are
    driven, so a caller can be done with a chunk before the next is driven.
    At least one chunk comes (an empty one without ``keep_trace`` or steps),
    so a caller always sees the columns. From step ``window_start`` on, the
    decision-time state, and the final one, must be finite and lie in
    ``band`` (else InvariantViolation, under ``python -O`` too), and the steps
    feed the coverage ledger: Y served over L asked, by the rule of
    :func:`~coverctl.metrics.coverage_series` (the sums of the ``y`` and ``a``
    columns where there is an ``a`` column), and D, the sum of
    (state_end - state_start) / eta over each maximal segment of steps that
    applied one ``state.eta``. For any schedule and feedback, the unprojected
    update makes the ``ledger_residual`` Y/L - phi + D/L vanish up to rounding.
    The generator returns ``(final_state, info)``: ``info`` holds that
    residual, the ``coverage`` Y/L and the a-priori ``coverage_bound``
    (hi - lo) / (eta_T * L) on |Y/L - phi| that Abel summation gives a
    non-increasing schedule (inf for an open band).
    """
    lo, hi = max(band[0], -sys.float_info.max), min(band[1], sys.float_info.max)
    y_at, a_at = (4 + columns.index("y"), 4 + columns.index("a")) if "a" in columns else (1, None)
    seg_start, eta = state.value, state.eta
    closed = 0.0  # the closed segments' sum of (state_end - state_start) / eta
    served = asked = 0.0
    rows = []
    for t in range(1, T + 1):
        row = step()
        if t >= window_start:
            served += row[y_at]
            if a_at:
                asked += row[a_at]
            if not lo <= row[3] <= hi:
                raise InvariantViolation(t, row[3], (lo, hi))
            if state.eta != eta:  # this step opened a segment at its decision-time state
                closed += (row[3] - seg_start) / eta
                seg_start, eta = row[3], state.eta
        if keep_trace:
            rows.append(row)
            if len(rows) == _CHUNK_ROWS:
                chunk = mt.Trace.from_rows(rows, columns)
                rows.clear()  # freed before the caller takes the chunk
                yield chunk
    if rows or not (keep_trace and T):
        yield mt.Trace.from_rows(rows, columns)
    info = {}
    steps = T - window_start + 1
    if steps > 0:
        if not lo <= state.value <= hi:
            raise InvariantViolation(T + 1, state.value, (lo, hi))
        total = asked if a_at else steps
        coverage = info["coverage"] = served / total
        info["ledger_residual"] = (coverage - state.phi) + (
            closed / total + (state.value - seg_start) / (eta * total))
        info["coverage_bound"] = (band[1] - band[0]) / (eta * total)
    return state.value, info


def _simulate(run: Generator[mt.Trace, None, tuple]) -> SimulationResult:
    """A driver run (see :func:`_drive`) with its chunks joined into one trace."""
    chunks = []
    try:
        while True:
            chunks.append(next(run))
    except StopIteration as end:
        final_state, info = end.value
    reward, cost, value, *extras = (np.concatenate(col) for col in zip(
        *((c.reward, c.cost, c.state, *c.extras.values()) for c in chunks)))
    trace = mt.Trace([a for c in chunks for a in c.action], reward, cost, value,
                     dict(zip(chunks[0].extras, extras, strict=True)))
    return SimulationResult(trace, final_state, info)


def drive_bandit(cfg: BanditConfig, schedule: StepSchedule, env, T: int,
                 keep_trace: bool = True) -> SimulationResult:
    """Run the primal-dual loop for T steps.

    In boundary mode the dual is checked to stay inside
    [-eta_max, cap + eta_max] on every step after the warm-up pass. The
    coverage ledger covers the controlled window (warm-up plays excluded,
    since the dual does not move during them).
    """
    return _simulate(_bandit_run(cfg, schedule, env, T, keep_trace))


def _bandit_run(cfg: BanditConfig, schedule: StepSchedule, env, T: int, keep_trace: bool = True):
    state = BanditState(cfg, schedule)
    eta_max = schedule.max_eta()
    boundary = cfg.mode == BOUNDARY_RULE
    band = (-eta_max - _TOL, cfg.lambda_cap + eta_max + _TOL) if boundary else (-math.inf, math.inf)
    final_state, info = yield from _drive(lambda: bandit_step(state, cfg, env), state.dual, T,
                                          band, keep_trace, ("boundary",), window_start=cfg.n + 1)
    if info:
        info["window_coverage"] = info.pop("coverage")
        info["window_len"] = T - cfg.n
    return final_state, info


def drive_threshold(cfg: ThresholdConfig, env, T: int, keep_trace: bool = True) -> SimulationResult:
    return _simulate(_threshold_run(cfg, env, T, keep_trace))


def _threshold_run(cfg: ThresholdConfig, env, T: int, keep_trace: bool = True):
    state = ControllerState(value=cfg.tau_min, phi=cfg.phi, schedule=cfg.schedule)
    eta_max = cfg.schedule.max_eta()
    band = (cfg.tau_min - eta_max - _TOL, cfg.tau_max + eta_max + _TOL)
    return _drive(lambda: threshold_step(state, cfg, env), state, T, band, keep_trace,
                  ("boundary",))


def drive_newsvendor(cfg: NewsvendorConfig, demand_stream, T: int,
                     keep_trace: bool = True, q_init: float = 0.0) -> SimulationResult:
    """Run the inventory controller for T periods; when eta_max * (1 - phi) <= 1
    the level stays in [0, max(q_init, phi * D * max(1, eta_max))].

    From a level q >= a the update is -eta * (1 - phi) * a, so q = a falls to
    a * (1 - eta * (1 - phi)) >= 0. The level rises only while q < phi * a <= phi * D,
    and then to (1 - eta) * q + eta * phi * a <= max(1, eta_max) * phi * D.
    """
    return _simulate(_newsvendor_run(cfg, demand_stream, T, keep_trace, q_init))


def _newsvendor_run(cfg: NewsvendorConfig, demand_stream, T: int, keep_trace: bool = True,
                    q_init: float = 0.0):
    state = ControllerState(value=q_init, phi=cfg.phi, schedule=cfg.schedule)
    top = max(q_init, cfg.phi * cfg.demand_cap * max(1.0, cfg.schedule.max_eta()))
    # a slack relative to the top: both edges are reached exactly, up to the
    # rounding of values of the top's size
    band = (-_TOL * top, top + _TOL * top)
    return _drive(lambda: newsvendor_step(state, cfg, demand_stream.draw(state.step_index)),
                  state, T, band, keep_trace, ("a", "leftover", "y"))


def drive_acog(cfg: ChainConfig, schedule: StepSchedule, env, T: int,
               variant: str = PREFIX_KEYED, keep_trace: bool = True) -> SimulationResult:
    return _simulate(_acog_run(cfg, schedule, env, T, variant, keep_trace))


def _acog_run(cfg: ChainConfig, schedule: StepSchedule, env, T: int,
              variant: str = PREFIX_KEYED, keep_trace: bool = True):
    theta = ControllerState(value=0.0, phi=cfg.phi, schedule=schedule)
    stats = ChainStats(cfg.n, cfg.horizon_T, variant)
    # theta falls by at most eta_max * (1 - phi) a step, and only from theta > 0:
    # K = 0 probes the empty chain, whose Y is 0. No upper band holds in every
    # world: where even the full chain can fail, theta climbs past n.
    band = (-schedule.max_eta() * (1.0 - cfg.phi) - _TOL, math.inf)
    return _drive(lambda: acog_step(theta, stats, cfg, env), theta, T, band, keep_trace,
                  ("boundary",))


# --- experiment layer -------------------------------------------------------

BASE_COLUMNS = ("t", "action", "reward", "cost", "state", "K",
                "coverage_cum", "regret_cum", "regret_pos_cum")


_F17 = "%.17g".__mod__  # 17 significant digits: every float round-trips exactly


def _f17_repeated(col: np.ndarray):
    """A column of few distinct values, each formatted once per bit pattern
    (so ``-0.0`` and ``0.0``, which compare equal, keep their own strings)."""
    bits, index = np.unique(np.asarray(col, dtype=np.float64).view(np.uint64),
                            return_inverse=True)
    return map(list(map(_F17, bits.view(np.float64).tolist())).__getitem__, index.tolist())


def _f17_reusing(col: np.ndarray, strings: list, values: np.ndarray) -> list:
    """``col`` formatted, reusing ``strings`` (``values`` formatted) at every
    step where the two columns are bitwise equal."""
    differ = np.flatnonzero(col.view(np.uint64) != values.view(np.uint64))
    if not differ.size:
        return strings
    out = np.array(strings, dtype=object)
    out[differ] = list(map(_F17, col[differ].tolist()))
    return out.tolist()


def render_csv(trace: mt.Trace, coverage_cum, regret_cum, regret_pos_cum, t0: int = 1) -> str:
    """Serialize a trace with its cumulative metric columns, its rows numbered
    from ``t0``; the header line leads when ``t0`` is 1, so the texts of a
    run's chunks, each rendered with its first step, join into its CSV.

    The three series hold one value per step, as built by
    :func:`~coverctl.metrics.coverage_series` and
    :func:`~coverctl.metrics.regret_series`. The rows are rendered
    ``_CHUNK_ROWS`` at a time by :func:`_render_rows`, and the chunk strings
    joined once, so the returned text is the only full-size object made here.
    """
    if not len(trace):
        raise ValueError("cannot serialize an empty trace")
    series = (coverage_cum, regret_cum, regret_pos_cum)
    if any(len(col) != len(trace) for col in series):
        raise ValueError("every series needs one value per step")
    texts = [",".join(BASE_COLUMNS + tuple(trace.extras)) + "\n"] if t0 == 1 else []
    for start in range(0, len(trace), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        part = mt.Trace(trace.action[rows], trace.reward[rows], trace.cost[rows],
                        trace.state[rows], {name: col[rows] for name, col in trace.extras.items()})
        texts.append(_render_rows(t0 + start, part, [col[rows] for col in series]))
    return "".join(texts)


def _render_rows(t0: int, trace: mt.Trace, series) -> str:
    """The CSV rows of ``trace`` and its three ``series``, numbered from
    ``t0``, each row ending in a newline.

    Every row comes from one ``%`` template: ``t`` is the row number, ``K``
    the probing budget, and every float carries 17 significant digits
    (``"%.17g"``, the same bytes as ``format(x, ".17g")``). A value repeated
    across a column is formatted once: ``reward``, the extra columns and a
    chain or arm run's ``cost`` hold few distinct values, formatted once per
    bit pattern, and where the action is a float, ``cost`` and ``state``
    reuse the action's string at every step where they are bitwise equal to
    it, as in the threshold setting.
    """
    first = trace.action[0]
    # each column as (template field, values)
    if isinstance(first, (tuple, int)):  # probed chains are "a|b|c", or "-" when empty
        action = ("%s", ["|".join(map(str, a)) or "-" for a in trace.action]
                  if isinstance(first, tuple) else trace.action)
        cost, state = ("%s", _f17_repeated(trace.cost)), ("%.17g", trace.state.tolist())
    else:
        strings = list(map(_F17, trace.action))
        values = np.array(trace.action, dtype=float)
        action = ("%s", strings)
        cost = ("%s", _f17_reusing(trace.cost, strings, values))
        state = ("%s", _f17_reusing(trace.state, strings, values))
    cells = [("%d", range(t0, t0 + len(trace))), action, ("%s", _f17_repeated(trace.reward)),
             cost, state, ("%d", trace.k.tolist()), *(("%.17g", col.tolist()) for col in series),
             *(("%s", _f17_repeated(col)) for col in trace.extras.values())]
    row = ",".join(field for field, _ in cells) + "\n"
    return "".join(map(row.__mod__, zip(*(col for _, col in cells), strict=True)))


class _Setup(NamedTuple):
    """One config resolved for one replica, before anything runs."""

    bench: dict  # the benchmark block of metrics.json
    c_star: object  # cost benchmark: a scalar, or a function of an array of steps t
    run: Callable[[], Generator[mt.Trace, None, tuple]]  # the replica's driver run, see _drive
    # extra summary fields: counts of a chunk that starts at step t0, summed over the run
    counts: Callable[[mt.Trace, int], dict] = lambda chunk, t0: {}
    # whether metrics.json keeps the ledger residual (of a constant step only): not
    # where a clamp breaks the identity, nor for the inventory controller
    keeps_residual: bool = True


def _bandit_setup(config: ExperimentConfig, seed: int) -> _Setup:
    kind = config.environment["kind"]
    world = WORLDS[kind](config.environment, seed)
    if kind == "interval":
        bench = oracles.interval_benchmark(world.delta, world.cdf, config.phi)
        bench_dict = {
            "benchmark": "grid_interval",
            "c_star": bench.c_star,
            "interval": [bench.lo, bench.hi],
            "continuous_c_star": bench.continuous_c_star,
            "discretization_gap": bench.discretization_gap,
        }
    else:
        rates, label = ((world.means(config.T), "stationary_lp_of_average_rates")
                        if kind == "trap" else (world.means(), "arm_mixture_lp"))
        sol = oracles.lp_benchmark(*rates, config.phi)
        bench_dict = {"benchmark": label, "c_star": sol.c_star, "mixture": list(sol.mixture)}
    mode = PROJECTED_BASELINE if config.algorithm == "pd_bandit_projected" else BOUNDARY_RULE
    cfg = BanditConfig(
        n=world.n,
        c_max=world.c_max,
        phi=config.phi,
        horizon_T=config.T,
        i_min=world.i_min,
        i_max=world.i_max,
        lambda_cap=config.algorithm_params.get("lambda_cap"),  # null: c_max / (1 - phi)
        mode=mode,
    )
    bench_dict["lambda_cap"] = cfg.lambda_cap
    return _Setup(bench_dict, bench_dict["c_star"],
                  lambda: _bandit_run(cfg, config.step_schedule, world, config.T),
                  keeps_residual=mode != PROJECTED_BASELINE)


def _threshold_setup(config: ExperimentConfig, seed: int) -> _Setup:
    world = envs.ScoreWorld(seed)
    tau_star = oracles.threshold_benchmark(world.expected_reward, config.phi,
                                           world.tau_min, world.tau_max)
    # a threshold is its own cost, so c* is tau*
    bench = {"benchmark": "threshold_root", "tau_star": tau_star, "c_star": tau_star}
    cfg = ThresholdConfig(world.tau_min, world.tau_max, config.phi, config.step_schedule)
    return _Setup(bench, tau_star, lambda: _threshold_run(cfg, world, config.T))


def _newsvendor_setup(config: ExperimentConfig, seed: int) -> _Setup:
    stream = envs.PoissonDemand(**{key: value for key, value in config.environment.items()
                                   if key != "kind"}, seed=seed)
    q1, mu1 = oracles.newsvendor_benchmark(stream.pmf(stream.before), config.phi)
    q2, mu2 = oracles.newsvendor_benchmark(stream.pmf(stream.after), config.phi)
    bench = {
        "benchmark": "phase_base_stock",
        "q_star_before": q1,
        "q_star_after": q2,
        "mu_before": mu1,
        "mu_after": mu2,
    }
    cfg = NewsvendorConfig(
        demand_cap=stream.cap,
        phi=config.phi,
        schedule=config.step_schedule,
        dynamic_carryover=config.algorithm_params.get("dynamic_carryover", False),
    )
    q_init = float(config.algorithm_params.get("initial_level", 0.0))
    return _Setup(bench, lambda t: np.where(t <= stream.shift_t, q1, q2),
                  lambda: _newsvendor_run(cfg, stream, config.T, q_init=q_init),
                  keeps_residual=False)


def _chain_setup(config: ExperimentConfig, seed: int) -> _Setup:
    world = WORLDS[config.environment["kind"]](config.environment, seed)
    report = oracles.greedy_chain(world.value_oracle(), world.n)
    k_star = report.budget_for(config.phi)
    bench = {
        "benchmark": "greedy_budget",
        "k_star": k_star,
        "gap_delta": report.gap_delta,
        "degenerate_margin": report.is_degenerate(config.phi),
        "p": world.p,
        "greedy_chain": list(report.chain),
        "prefix_values": list(report.prefix_values),
    }
    cfg = ChainConfig(n=world.n, phi=config.phi, horizon_T=config.T)
    variant = PREFIX_KEYED if config.algorithm == "acog_prefix" else POSITION_KEYED

    def counts(chunk: mt.Trace, t0: int) -> dict:
        above = chunk.k > k_star + 1
        return {
            "greedy_deviation_steps": mt.deviation_counter(chunk, report),
            "greedy_deviation_steps_ordered": mt.deviation_counter(
                chunk, report, order_sensitive=True),
            "steps_above_k_star_plus_1": int(above.sum()),
            # the late half: steps t > T // 2
            "late_steps_above_k_star_plus_1": int(above[max(0, config.T // 2 + 1 - t0):].sum()),
        }

    return _Setup(bench, float(k_star),
                  lambda: _acog_run(cfg, config.step_schedule, world, config.T, variant),
                  counts=counts)


# the one place that maps a checked config to its world (through presets.WORLDS
# where it has arms), oracle and driver
_SETUPS = {
    "pd_bandit": _bandit_setup,
    "pd_bandit_projected": _bandit_setup,
    "primal_threshold": _threshold_setup,
    "newsvendor": _newsvendor_setup,
    "acog_prefix": _chain_setup,
    "acog_position": _chain_setup,
}


def run_replica(config: ExperimentConfig, replica: int, *, write=None,
                keep_series: bool = False) -> dict:
    """Execute one replica and return its serialized artifacts.

    The replica's substream seed is mix(master_seed, replica); outputs are
    independent of execution order. The run goes one driver chunk at a time:
    the chunk's series are continued, checked and counted, and its CSV text is
    rendered and handed to ``write`` before the next chunk is driven, so the
    replica holds no object that grows with T. Without ``write`` the texts are
    joined into ``csv``. With ``keep_series``, ``series`` holds the run's
    coverage and regret arrays.
    """
    seed = replica_seed(config.seed, replica)
    setup = _SETUPS[config.algorithm](config, seed)
    texts = []
    emit = texts.append if write is None else write
    # extras is a Counter, so each chunk's counts add up
    carry, report = mt.Carry(), mt.MetricsReport(extras=Counter())
    series = np.empty((2, config.T)) if keep_series else None  # coverage and regret
    run = setup.run()
    while True:
        try:
            chunk = next(run)
        except StopIteration as end:
            final_state, info = end.value
            break
        t0 = carry.steps + 1
        c_star = setup.c_star
        if callable(c_star):
            c_star = c_star(np.arange(t0, t0 + len(chunk)))
        coverage = mt.coverage_series(chunk, carry)
        regret = mt.regret_series(chunk, c_star, carry=carry)
        regret_pos = mt.regret_series(chunk, c_star, positive_part=True, carry=carry)
        report.add(coverage, regret, regret_pos, int(np.sum(chunk.extras.get("boundary", 0.0))))
        report.extras.update(setup.counts(chunk, t0))
        emit(render_csv(chunk, coverage, regret, regret_pos, t0))
        if keep_series:
            series[:, t0 - 1:carry.steps] = coverage, regret
    summary = {
        "replica": replica,
        "substream_seed": seed,
        "final_state": final_state,
        **report.summary(),
    }
    for key in ("ledger_residual", "window_coverage", "window_len"):
        if key in info:
            summary[key] = info[key]
    if config.step_schedule.p or not setup.keeps_residual:
        summary.pop("ledger_residual", None)
    if "a" in chunk.extras:
        summary["fill_rate"] = summary["coverage_final"]
    out = {"summary": summary, "benchmark": setup.bench}
    if write is None:
        out["csv"] = "".join(texts)
    if keep_series:
        out["series"] = tuple(series)
    return out


def _worker(args) -> dict:
    """Run one replica, writing its ``trace_<replica>.csv`` into the staging
    directory a chunk at a time, and with ``plot`` replica 0's plots; return
    the replica's summary and benchmark, the only outputs that leave this
    process."""
    config, replica, staging_dir, plot = args
    if not os.path.isdir(staging_dir):  # the run has failed: a queued task starts nothing
        return {}
    plotting = plot and replica == 0
    with open(os.path.join(staging_dir, f"trace_{replica}.csv"), "w") as trace:
        out = run_replica(config, replica, write=trace.write, keep_series=plotting)
    if plotting:
        from .svgplot import plot_series

        plot_series(staging_dir, *out.pop("series"), config.phi)
    return out


def _write_variant(config: ExperimentConfig, stage_dir: Path, outputs: list[dict]) -> dict:
    """Write one variant's ``config.json`` and ``metrics.json`` into
    ``stage_dir`` from its replicas' outputs, in replica order."""
    (stage_dir / "config.json").write_text(config.to_json() + "\n")
    metrics_doc = {
        "preset": config.preset,
        "variant": config.variant,
        "algorithm": config.algorithm,
        "T": config.T,
        "phi": config.phi,
        "benchmark": outputs[0]["benchmark"],
        "replicas": [{**o["summary"], "benchmark": o["benchmark"]} for o in outputs],
        "aggregate": _aggregate([o["summary"] for o in outputs]),
    }
    (stage_dir / "metrics.json").write_text(
        json.dumps(metrics_doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return metrics_doc


def _aggregate(summaries: list[dict]) -> dict:
    keys = ("coverage_final", "regret_final", "regret_pos_final", "fill_rate",
            "steps_above_k_star_plus_1", "late_steps_above_k_star_plus_1")
    agg: dict = {"replicas": len(summaries)}
    for key in keys:
        vals = [s[key] for s in summaries if key in s]
        if not vals:
            continue
        arr = np.asarray(vals, dtype=float)
        agg[f"{key}_mean"] = float(arr.mean())
        if arr.size > 1:
            agg[f"{key}_stderr"] = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return agg


def execute(config: ExperimentConfig, out_dir: Path, jobs: int = 1, plot: bool = False) -> None:
    """Run a config (expanding sweep presets) and write all artifacts.

    ``out_dir`` must be absent or an empty directory, and not the working
    directory; any other ``out_dir`` raises FileExistsError, and ``jobs < 1``
    ValueError, before anything runs. One task per replica of every variant,
    in variant order, runs through ``_worker``: on one pool of
    ``min(jobs, tasks)`` processes, or in the parent when that is 1. Each task
    writes its trace, and with ``plot`` replica 0's task its variant's plots,
    to a staging directory next to ``out_dir``, on the same filesystem; each
    variant's ``config.json`` and ``metrics.json`` follow once every task has
    returned, and the parent reads back no file. The staging directory then
    takes the mode a plain ``mkdir`` gives and becomes ``out_dir`` by one
    rename, which replaces an empty directory and fails on any other. A
    failed or interrupted run deletes the staging directory, before it waits
    for the pool, so a queued task starts nothing: ``out_dir`` stays as it was,
    and so do its ancestors: those the run made are removed, deepest first,
    while they are empty.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    out_dir = Path(out_dir).resolve()
    # the rename replaces only an empty directory, and one that is the working
    # directory would leave the caller in a directory that no path names
    if out_dir == Path.cwd().resolve():
        raise FileExistsError(f"output directory {out_dir} is the working directory")
    if out_dir.exists() and (not out_dir.is_dir() or any(out_dir.iterdir())):
        raise FileExistsError(f"output directory {out_dir} exists and is not an empty directory")
    variants = expand_variants(config)
    # the ancestors of out_dir that this run makes, deepest first
    made = list(takewhile(lambda parent: not parent.exists(), out_dir.parents))
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.staging-", dir=out_dir.parent))
    try:
        for var in variants:
            (stage / var.variant).mkdir(parents=True, exist_ok=True)
        tasks = [(var, k, str(stage / var.variant), plot) for var in variants
                 for k in range(var.replicas)]
        workers = min(jobs, len(tasks))  # a pool starts all its workers up front
        if workers > 1:
            with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
                try:
                    outputs = list(pool.map(_worker, tasks))
                except BaseException:  # before the pool waits for its queued tasks
                    shutil.rmtree(stage, ignore_errors=True)
                    raise
        else:
            outputs = list(map(_worker, tasks))
        replicas = iter(outputs)  # each variant's slice, in replica order
        docs = [_write_variant(var, stage / var.variant,
                               [next(replicas) for _ in range(var.replicas)])
                for var in variants]
        if len(variants) > 1:
            manifest = {"preset": config.preset, "variants": [v.variant for v in variants]}
            if len({v.T for v in variants}) >= 3:
                # a horizon sweep gets the log-log fit of positive-part regret: the
                # per-sequence cost overshoot that the threshold setting's rate
                # statement is about
                pts = [(d["T"], d["aggregate"]["regret_pos_final_mean"]) for d in docs]
                fit = mt.sublinearity_fit(pts)
                manifest["slope_fit"] = {**asdict(fit),  # slope, intercept, r2, clipped
                                         "points": [{"T": t, "regret_mean": r} for t, r in pts]}
            (stage / "manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
        umask = os.umask(0)  # mkdtemp made the directory 0700
        os.umask(umask)
        stage.chmod(0o777 & ~umask)
        os.rename(stage, out_dir)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        for parent in made:  # while empty: another process may have written there
            try:
                parent.rmdir()
            except OSError:
                break
        raise


def benchmark_values(config: ExperimentConfig) -> dict:
    """Benchmark values per variant for replica 0, without running anything.

    Each value is the ``benchmark`` block that ``run`` writes to the
    variant's metrics.json.
    """
    return {var.variant or "run": _SETUPS[var.algorithm](var, replica_seed(var.seed, 0)).bench
            for var in expand_variants(config)}
