import copy
import functools
import gc
import hashlib
import json
import math
import operator
import os
import re
import shlex
import signal
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coverctl import environments as envs
from coverctl import runner
from coverctl.bandit import BanditConfig
from coverctl.chains import ChainConfig, budget_from_theta
from coverctl.cli import build_parser, main
from coverctl.control import InvariantViolation, StepSchedule
from coverctl.presets import (
    ALGORITHMS,
    ConfigError,
    ExperimentConfig,
    expand_variants,
    preset_catalog,
    preset_config,
)
from coverctl.runner import (benchmark_values, drive_acog, drive_bandit, drive_newsvendor,
                             drive_threshold, execute, render_csv, run_replica)
from coverctl.threshold import NewsvendorConfig, ThresholdConfig
from coverctl.metrics import Trace, TraceRecord, coverage_series, regret_series
from coverctl.rng import replica_seed
from coverctl.svgplot import plot_series

EXPECTED_PRESETS = {
    "interval-beta",
    "interval-eta-sweep",
    "adversarial-shift",
    "threshold-primal",
    "threshold-decay",
    "newsvendor-shift",
    "combinatorial-or",
    "regret-scaling",
}


def small_config(**overrides):
    base = dict(
        preset="custom",
        algorithm="newsvendor",
        environment={"kind": "poisson_demand", "before": 20.0, "after": 50.0,
                     "shift_t": 25, "cap": 100.0},
        T=50,
        phi=0.9,
        schedule={"kind": "power", "c": 5.0, "p": 0.5, "index_offset": 1},
        seed=5,
        replicas=2,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_catalog_contains_exactly_the_presets():
    assert {p["name"] for p in preset_catalog()} == EXPECTED_PRESETS


def test_preset_configs_round_trip():
    for name in EXPECTED_PRESETS:
        cfg = preset_config(name, seed=3)
        assert ExperimentConfig.from_dict(json.loads(cfg.to_json())) == cfg


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_config("no-such-preset")


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="algorithm"):
        ExperimentConfig.from_dict({
            "algorithm": "made_up", "environment": {"kind": "trap"},
            "T": 10, "phi": 0.5, "schedule": {"kind": "constant", "c": 0.1}, "seed": 1,
        })
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({
            "algorithm": "newsvendor", "environment": {"kind": "poisson_demand"},
            "T": 10, "phi": 0.5, "schedule": {}, "seed": 1, "bogus": 3,
        })
    with pytest.raises(ConfigError, match="missing config keys"):
        ExperimentConfig.from_dict({"algorithm": "newsvendor"})


@settings(max_examples=100, deadline=None)
@given(c=st.floats(1e-3, 10.0), p=st.floats(0.0, 1.0, exclude_max=True),
       offset=st.integers(0, 100))
def test_schedule_block_decodes_to_one_step_schedule(c, p, offset):
    # a constant block ignores its p and index_offset; a power block keeps both
    block = {"c": c, "p": p, "index_offset": offset}
    for extra in (block, {"c": c}):
        assert (small_config(schedule={"kind": "constant", **extra}).step_schedule
                == StepSchedule.constant(c))
    assert (small_config(schedule={"kind": "power", **block}).step_schedule
            == StepSchedule.power(c, p, offset))
    assert small_config(schedule={"kind": "power", "c": c}).step_schedule == StepSchedule(c)


def test_variant_expansion_counts():
    assert len(expand_variants(preset_config("interval-beta"))) == 1
    assert len(expand_variants(preset_config("interval-eta-sweep"))) == 3
    assert len(expand_variants(preset_config("adversarial-shift"))) == 2
    assert len(expand_variants(preset_config("threshold-decay"))) == 3
    assert len(expand_variants(preset_config("regret-scaling"))) == 5
    etas = [v.schedule["c"] for v in expand_variants(preset_config("interval-eta-sweep"))]
    assert etas == [0.01, 0.05, 0.2]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _render(trace, c_star):
    return render_csv(trace, coverage_series(trace), regret_series(trace, c_star),
                      regret_series(trace, c_star, positive_part=True))


def test_csv_schema_and_round_trip_precision():
    floats = [1 / 3, 2 / 7, -0.0, 5e-324, 1e22, 0.1 + 0.2]
    rewards = [0.0, 1.0, -0.0, 1.0, -0.0, 0.0]
    trace = Trace.from_rows(
        [(arm, reward, cost, state, float(arm > 3))
         for arm, reward, cost, state in zip(range(6), rewards, floats, reversed(floats))],
        ("boundary",))
    lines = _render(trace, 0.25).strip().split("\n")
    assert lines[0] == "t,action,reward,cost,state,K,coverage_cum,regret_cum,regret_pos_cum,boundary"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "6"]
    assert [r[1] for r in rows] == ["0", "1", "2", "3", "4", "5"]
    assert {r[5] for r in rows} == {"0"}
    for col, values in ((2, trace.reward), (3, trace.cost), (4, trace.state),
                        (9, trace.extras["boundary"])):
        for row, x in zip(rows, values.tolist()):
            # 17 significant digits: every float, -0.0 and subnormals included,
            # round-trips bit for bit
            assert row[col] == format(x, ".17g")
            assert _bits(float(row[col])) == _bits(x)
    assert [rows[i][3] for i in (2, 3, 4)] == ["-0", "4.9406564584124654e-324", "1e+22"]
    # a repeated value is formatted once per bit pattern, so -0.0 keeps its sign
    assert [r[2] for r in rows] == ["0", "1", "-0", "1", "-0", "0"]
    # float actions: the cost column reuses the action strings only where the
    # two columns are bitwise equal, and -0.0 differs from 0.0 there
    actions = [0.25, -0.0, 0.1 + 0.2, 1 / 3]
    for costs in (actions, [0.25, 0.0, 0.1 + 0.2, 1 / 3]):
        trace = Trace.from_rows([(a, 1.0, c, 0.5, 0.0) for a, c in zip(actions, costs)],
                                ("boundary",))
        rows = [line.split(",") for line in _render(trace, 0.25).strip().split("\n")[1:]]
        assert [r[1] for r in rows] == [format(x, ".17g") for x in actions]
        assert [r[3] for r in rows] == [format(x, ".17g") for x in costs]


def test_csv_writes_chain_actions():
    trace = Trace.from_rows([((2, 0), 1.0, 2.0, 1.5, 0.0), ((), 0.0, 0.0, -0.1, 1.0)],
                            ("boundary",))
    rows = [line.split(",") for line in _render(trace, 1.0).split("\n")[1:3]]
    assert [r[1] for r in rows] == ["2|0", "-"]
    assert [r[5] for r in rows] == ["2", "0"]  # K is the chain's cost


def _reference_render_csv(trace, coverage_cum, regret_cum, regret_pos_cum):
    """The column-by-column renderer that the one-template render_csv
    replaced, kept as the reference for its bytes."""
    f17 = "{:.17g}".format

    def repeated(col):
        bits, index = np.unique(np.asarray(col, dtype=np.float64).view(np.uint64),
                                return_inverse=True)
        return map(list(map(f17, bits.view(np.float64).tolist())).__getitem__, index.tolist())

    if not len(trace):
        raise ValueError("cannot serialize an empty trace")
    first = trace.action[0]
    costs = None
    if isinstance(first, tuple):
        actions = ["|".join(map(str, a)) or "-" for a in trace.action]
    elif isinstance(first, int):
        actions = list(map(str, trace.action))
    else:
        actions = list(map(f17, trace.action))
        if np.array(trace.action, dtype=float).tobytes() == trace.cost.tobytes():
            costs = actions
    if costs is None:
        costs = map(f17, trace.cost.tolist())
    series = (coverage_cum, regret_cum, regret_pos_cum)
    cols = [map(str, range(1, len(trace) + 1)), actions, repeated(trace.reward), costs,
            map(f17, trace.state.tolist()), map(str, trace.k.tolist()),
            *(map(f17, col.tolist()) for col in series),
            *map(repeated, trace.extras.values())]
    header = ",".join(runner.BASE_COLUMNS + tuple(trace.extras))
    return "\n".join([header, *map(",".join, zip(*cols, strict=True))]) + "\n"


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, 0.1])
_ANY_FLOAT = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _traces(draw):
    """A trace of tuple, int or float actions; with float actions, cost and
    state equal the action at some steps and not at others."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["chain", "arm", "float"]))
    if kind == "chain":
        action = draw(st.lists(st.lists(st.integers(0, 12), max_size=4).map(tuple),
                               min_size=n, max_size=n))
        cost = [float(len(a)) for a in action]  # a chain's cost is its length
        state = draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n))
    elif kind == "arm":
        action = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
        cost = draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n))
        state = draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n))
    else:
        action = draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n))
        cost, state = ([a if same else other for a, same, other in zip(
            action, draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n)))] for _ in range(2))
    reward = draw(st.lists(_SPECIAL, min_size=n, max_size=n))
    extras = {name: np.array(draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n)))
              for name in ("boundary", "a", "leftover")[:draw(st.integers(0, 3))]}
    series = [np.array(draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n))) for _ in range(3)]
    trace = Trace(action, np.array(reward), np.array(cost), np.array(state), extras)
    return trace, series


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_traces())
def test_render_csv_equals_the_reference_renderer(case):
    trace, series = case
    assert render_csv(trace, *series) == _reference_render_csv(trace, *series)


def test_render_csv_rejects_an_empty_trace():
    empty = Trace.from_rows([], ("boundary",))
    with pytest.raises(ValueError, match="empty trace"):
        render_csv(empty, *([np.zeros(0)] * 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_traces())
def test_render_csv_in_small_chunks_equals_the_reference_renderer(case):
    # t continues across chunks, and each chunk's format-once memos give the
    # same strings as the whole trace's
    trace, series = case
    for rows in (1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner, "_CHUNK_ROWS", rows)
            assert render_csv(trace, *series) == _reference_render_csv(trace, *series)


def test_render_csv_rejects_a_series_of_another_length(monkeypatch):
    # one chunk of 4 rows: a longer series would otherwise lose its last value
    monkeypatch.setattr(runner, "_CHUNK_ROWS", 4)
    trace = Trace.from_rows([(0.5, 1.0, 0.5, 0.5, 0.0)] * 4, ("boundary",))
    with pytest.raises(ValueError, match="one value per step"):
        render_csv(trace, np.ones(4), np.ones(5), np.ones(4))


def _columns(trace):
    """A trace's columns, compared bit for bit (repr round-trips a float)."""
    return (repr(trace.action), *(col.tobytes() for col in (trace.reward, trace.cost, trace.state)),
            {name: col.tobytes() for name, col in trace.extras.items()})


def test_a_trace_drawn_in_chunks_equals_the_one_chunk_trace(monkeypatch):
    def drive(T, keep_trace=True):
        world = envs.ScoreWorld(3)
        cfg = ThresholdConfig(world.tau_min, world.tau_max, 0.8, StepSchedule.constant(0.05))
        return drive_threshold(cfg, world, T, keep_trace=keep_trace)

    c = 7
    assert 2 * c < runner._CHUNK_ROWS
    whole = {T: drive(T) for T in (c - 1, c, c + 1, 2 * c)}
    monkeypatch.setattr(runner, "_CHUNK_ROWS", c)
    for T, one in whole.items():
        chunked, bare = drive(T), drive(T, keep_trace=False)
        assert len(chunked.trace) == T and _columns(chunked.trace) == _columns(one.trace)
        assert _columns(bare.trace) == _columns(Trace.from_rows([], ("boundary",)))
        for sim in (chunked, bare):
            assert repr((sim.final_state, sim.info)) == repr((one.final_state, one.info))


def _preset_setup(name, T):
    cfg = preset_config(name).replace(T=T)
    return runner._SETUPS[cfg.algorithm](cfg, replica_seed(cfg.seed, 0))


def _peak_bytes(fn):
    """``fn()`` and the peak of the memory it allocated, in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["threshold-primal", "combinatorial-or"])
def test_render_csv_holds_at_most_its_chunks_beside_its_result(name):
    # rendering whole traces at once peaked at 2.9 (threshold) and 4.3 (chain)
    # times the text above it; chunk by chunk, the peak is the last join, the
    # chunk strings beside the text they make
    setup = _preset_setup(name, 20000)
    trace = runner._simulate(setup.run()).trace
    series = (coverage_series(trace), regret_series(trace, setup.c_star),
              regret_series(trace, setup.c_star, positive_part=True))
    text, peak = _peak_bytes(lambda: render_csv(trace, *series))
    assert peak - len(text) <= 1.1 * len(text)
    assert len(trace) >= 4 * runner._CHUNK_ROWS  # enough chunks for the last join to dominate


def test_drive_holds_no_row_object_of_the_whole_run():
    # the kept columns cost about 64 B a step (four float64 columns, and a list
    # slot and a float object per action), and joining the chunks copies the
    # arrays and the list once; one row tuple per step of the whole run, as a
    # trace transposed only at the end holds, peaked at about 217 B a step
    setup = _preset_setup("threshold-primal", 20000)
    sim, peak = _peak_bytes(lambda: runner._simulate(setup.run()))
    assert peak / len(sim.trace) < 160


@pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS) + ["prefix-keyed"])
def test_replica_leaves_no_cyclic_garbage(name):
    # a world whose draw block filled through a bound method of the world was
    # a cycle, freed with its rows only by a later collection: 216 objects a
    # replica on interval-beta, 3281 on combinatorial-or at T = 3000
    cfg = (preset_config("combinatorial-or").replace(algorithm="acog_prefix")
           if name == "prefix-keyed" else preset_config(name))
    gc.collect()
    gc.disable()
    try:
        run_replica(cfg.replace(T=300), 0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_execute_writes_artifacts_and_is_deterministic(tmp_path):
    cfg = small_config()
    execute(cfg, tmp_path / "a", jobs=1, plot=True)
    execute(cfg, tmp_path / "b", jobs=1)
    execute(cfg, tmp_path / "c", jobs=2)
    names = {p.name for p in (tmp_path / "a").iterdir()}
    assert {"config.json", "trace_0.csv", "trace_1.csv", "metrics.json",
            "coverage.svg", "regret.svg"} <= names
    for k in range(cfg.replicas):
        a = (tmp_path / "a" / f"trace_{k}.csv").read_bytes()
        assert a == (tmp_path / "b" / f"trace_{k}.csv").read_bytes()
        assert a == (tmp_path / "c" / f"trace_{k}.csv").read_bytes()


def test_effective_config_reproduces_run(tmp_path):
    cfg = small_config()
    execute(cfg, tmp_path / "orig", jobs=1)
    effective = json.loads((tmp_path / "orig" / "config.json").read_text())
    execute(ExperimentConfig.from_dict(effective), tmp_path / "redo", jobs=1)
    assert ((tmp_path / "orig" / "trace_0.csv").read_bytes()
            == (tmp_path / "redo" / "trace_0.csv").read_bytes())


def test_multi_variant_layout(tmp_path):
    cfg = preset_config("threshold-decay", seed=2).replace(T=400, replicas=1)
    execute(cfg, tmp_path, jobs=1)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["variants"] == ["p-0.3", "p-0.5", "p-0.7"]
    for label in manifest["variants"]:
        assert (tmp_path / label / "trace_0.csv").exists()
        assert (tmp_path / label / "metrics.json").exists()


def test_a_sweep_variant_config_reruns_only_that_variant(tmp_path, capsys):
    execute(preset_config("threshold-decay", seed=2, replicas=1).replace(T=400), tmp_path / "a")
    config = tmp_path / "a" / "p-0.3" / "config.json"
    out = tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    # no manifest and no sibling variant: the variant runs as itself
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "p-0.3", "p-0.3/config.json", "p-0.3/metrics.json", "p-0.3/trace_0.csv"]
    for name in ("trace_0.csv", "metrics.json"):
        assert (out / "p-0.3" / name).read_bytes() == (config.parent / name).read_bytes()
    capsys.readouterr()
    assert main(["oracle", "--config", str(config)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["p-0.3"]


def test_an_edited_sweep_variant_config_runs_as_edited(tmp_path, capsys):
    execute(preset_config("threshold-decay", seed=2, replicas=1).replace(T=400), tmp_path / "a")
    doc = json.loads((tmp_path / "a" / "p-0.3" / "config.json").read_text())
    doc["schedule"]["p"] = 0.9
    config = tmp_path / "edited.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    written = json.loads((tmp_path / "b" / "p-0.3" / "config.json").read_text())
    assert written["schedule"]["p"] == 0.9
    trace = (tmp_path / "b" / "p-0.3" / "trace_0.csv").read_text()
    assert trace == run_replica(ExperimentConfig.from_dict(doc), 0)["csv"]
    assert trace != (tmp_path / "a" / "p-0.3" / "trace_0.csv").read_text()


@pytest.mark.parametrize("name", ["regret-scaling", "threshold-primal"])
@pytest.mark.parametrize("replicas", [0, -1])
def test_preset_config_refuses_fewer_than_one_replica(name, replicas):
    with pytest.raises(ConfigError, match="key 'replicas'"):
        preset_config(name, replicas=replicas)


def test_metrics_document_shape():
    out = run_replica(small_config(), 0)
    assert set(out["summary"]) >= {"replica", "coverage_final", "regret_final",
                                   "regret_pos_final", "fill_rate"}
    doc_keys = {"benchmark", "q_star_before", "q_star_after", "mu_before", "mu_after"}
    assert doc_keys <= set(out["benchmark"])


def test_newsvendor_trace_extra_columns():
    out = run_replica(small_config(replicas=1), 0)
    header = out["csv"].split("\n", 1)[0].split(",")
    assert header[-3:] == ["a", "leftover", "y"]


def test_chain_trace_has_budget_column():
    for algorithm in ("acog_position", "acog_prefix"):
        cfg = ExperimentConfig.from_dict(dict(
            algorithm=algorithm,
            environment={"kind": "or_fixed", "p": [0.6, 0.5, 0.4]},
            T=60, phi=0.6,
            schedule={"kind": "constant", "c": 0.2}, seed=2,
        ))
        out = run_replica(cfg, 0)
        lines = out["csv"].strip().split("\n")
        k_col = lines[0].split(",").index("K")
        assert {int(line.split(",")[k_col]) for line in lines[1:]} <= {0, 1, 2, 3}
        assert out["benchmark"]["k_star"] == 1  # the 0.6 arm alone meets the target


def test_cli_list_and_oracle(capsys):
    assert main(["list-presets"]) == 0
    listed = capsys.readouterr().out
    for name in EXPECTED_PRESETS:
        assert name in listed
    assert main(["oracle", "--preset", "threshold-primal"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["run"]["c_star"] == pytest.approx(0.8, abs=1e-6)


def test_every_preset_executes_end_to_end(tmp_path):
    # reduced horizons/replicas: exercises every environment builder,
    # driver, benchmark, and artifact writer the catalog can reach
    for name in sorted(EXPECTED_PRESETS):
        cfg = preset_config(name, seed=2, replicas=1)
        small_T = min(cfg.T, 2000)
        overrides = {"T": small_T}
        if cfg.schedule["kind"] == "constant" and name.startswith(("interval", "adversarial")):
            overrides["schedule"] = {"kind": "constant",
                                     "c": 2.0 / math.sqrt(small_T),
                                     "p": 0.0, "index_offset": 0}
        cfg = cfg.replace(**overrides)
        out = tmp_path / name
        execute(cfg, out, jobs=1)
        variants = expand_variants(cfg)
        if len(variants) == 1:
            assert (out / "trace_0.csv").exists() and (out / "metrics.json").exists()
        else:
            assert (out / "manifest.json").exists()
            for var in variants:
                assert (out / var.variant / "trace_0.csv").exists()
        # `oracle` prints exactly the benchmark block that `run` writes
        oracle = benchmark_values(cfg)
        for var in variants:
            metrics = strict_json((out / var.variant / "metrics.json").read_text())
            assert oracle[var.variant or "run"] == metrics["benchmark"], (name, var.variant)
        if len(variants) > 1:
            strict_json((out / "manifest.json").read_text())


def test_oracle_values_available_for_every_preset():
    for name in sorted(EXPECTED_PRESETS):
        values = benchmark_values(preset_config(name, seed=2))
        assert values
        for bench in values.values():
            assert "benchmark" in bench


def test_cli_oracle_from_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(small_config().to_json())
    assert main(["oracle", "--config", str(cfg_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["run"]["benchmark"] == "phase_base_stock"


def test_cli_run_and_config_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(small_config(replicas=1).to_json())
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir),
                 "--seed", "9"]) == 0
    capsys.readouterr()
    written = json.loads((out_dir / "config.json").read_text())
    assert written["seed"] == 9


# every flag of any subcommand, with a value it parses
_FLAGS = {"--preset": ["p"], "--config": ["c.json"], "--seed": ["1"], "--replicas": ["1"],
          "--jobs": ["1"], "--plot": [], "--out": ["o"]}


@pytest.mark.parametrize("command,flags", [
    ("run", set(_FLAGS)),
    ("oracle", {"--preset", "--config", "--seed"}),
    ("list-presets", set()),
], ids=["run", "oracle", "list-presets"])
def test_each_subcommand_takes_exactly_its_flags(capsys, command, flags):
    accepted = set()
    for flag, value in _FLAGS.items():
        try:
            build_parser().parse_args([command, flag, *value])
            accepted.add(flag)
        except SystemExit as err:  # argparse refuses a flag the subcommand lacks
            assert err.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert accepted == flags


@pytest.mark.parametrize("flags,file_dir,out_dir", [
    (["--out", "given/"], None, "given"),
    (["--out", "given/"], "from-file/", "given"),
    ([], "from-file/", "from-file"),
    ([], None, "runs/custom"),
], ids=["out", "out-over-file", "file", "default"])
def test_cli_run_resolves_and_normalises_its_output_dir(tmp_path, capsys, monkeypatch, flags,
                                                        file_dir, out_dir):
    # --out, else the config's output_dir, else runs/<preset>, each through Path
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(small_config(replicas=1, output_dir=file_dir).to_json())
    assert main(["run", "--config", "cfg.json", *flags]) == 0
    assert capsys.readouterr().out == f"wrote artifacts to {out_dir}\n"
    assert json.loads(Path(out_dir, "config.json").read_text())["output_dir"] == out_dir


def test_cli_rejects_bad_config_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"algorithm": ')
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:1:" in err


def test_cli_requires_exactly_one_source(capsys):
    assert main(["run"]) == 2
    assert main(["run", "--preset", "interval-beta", "--config", "x.json"]) == 2


def test_cli_reports_infeasible_benchmark(tmp_path, capsys):
    cfg = ExperimentConfig.from_dict(dict(
        algorithm="acog_position",
        environment={"kind": "or_fixed", "p": [0.1, 0.1]},
        T=20, phi=0.8,
        schedule={"kind": "constant", "c": 0.1}, seed=1,
    ))
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "infeasible" in capsys.readouterr().err
    assert main(["oracle", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert "infeasible" in captured.err and captured.out == ""


def test_every_valid_algorithm_has_a_setup():
    # ExperimentConfig validates against ALGORITHMS; run and oracle dispatch
    # through the setup table, so the two must name the same algorithms
    assert set(ALGORITHMS) == set(runner._SETUPS)


def _drive_bandit(keep_trace, schedule):
    world = envs.TrapWorld((100, 250))
    cfg = BanditConfig(n=world.n, c_max=world.c_max, phi=0.5, horizon_T=400,
                       i_min=world.i_min, i_max=world.i_max)
    return drive_bandit(cfg, schedule, world, 400, keep_trace=keep_trace)


def _drive_threshold(keep_trace, schedule):
    world = envs.ScoreWorld(3)
    cfg = ThresholdConfig(world.tau_min, world.tau_max, 0.8, schedule)
    return drive_threshold(cfg, world, 400, keep_trace=keep_trace)


def _drive_newsvendor(keep_trace, schedule):
    cfg = NewsvendorConfig(100.0, 0.9, schedule)
    return drive_newsvendor(cfg, envs.PoissonDemand(20.0, 50.0, 200, 100.0, seed=3), 400,
                            keep_trace=keep_trace, q_init=20.0)


def _drive_chain(keep_trace, schedule):
    cfg = ChainConfig(n=3, phi=0.7, horizon_T=400)
    return drive_acog(cfg, schedule, envs.OrWorld([0.6, 0.5, 0.4], 3), 400,
                      keep_trace=keep_trace)


def _former_records(tr):
    """``SimulationResult.records`` as the former build made them, one
    comprehension over the rows: the reference for the column-wise build."""
    cols = [tr.action, *(col.tolist() for col in (tr.reward, tr.cost, tr.state, tr.k,
                                                  *tr.extras.values()))]
    return [TraceRecord(t, *row[:5], dict(zip(tr.extras, row[5:])))
            for t, row in enumerate(zip(*cols), start=1)]


def _typed_fields(record):
    """A record's fields, the extras' names and values included, as (type, repr)."""
    return [(type(v), repr(v)) for v in (record.t, record.action, record.reward, record.cost,
                                         record.state, record.k, *record.extras.items())]


@pytest.mark.parametrize("drive", [_drive_bandit, _drive_threshold, _drive_newsvendor,
                                   _drive_chain], ids=["bandit", "threshold", "newsvendor",
                                                       "chain"])
def test_keep_trace_does_not_change_the_result(drive):
    for schedule in (StepSchedule.constant(0.05), StepSchedule.constant(0.1),
                     StepSchedule.power(5.0, 0.5, index_offset=1)):
        kept, bare = drive(True, schedule), drive(False, schedule)
        # the ledger lives in the driver loop, not in the trace: same final
        # state, residual, coverage and bound bit for bit (repr round-trips)
        assert repr(kept.final_state) == repr(bare.final_state)
        assert repr(kept.info) == repr(bare.info) and "coverage" in repr(bare.info)
        assert abs(bare.info["ledger_residual"]) <= 1e-9 and bare.info["coverage_bound"] > 0.0
        assert len(bare.trace) == 0 and bare.records == []
        rows = kept.records
        assert [r.t for r in rows] == list(range(1, 401))
        assert ([_typed_fields(r) for r in rows]
                == [_typed_fields(r) for r in _former_records(kept.trace)])
        if drive is _drive_chain:
            assert all(r.k == budget_from_theta(r.state, 3) == len(r.action) for r in rows)
            assert 0 < max(r.k for r in rows)


def _ledgers(name, replicas=1):
    """Each variant of a preset and the ``info`` of its drives, replicas 0.."""
    setups = runner._SETUPS
    return [(var, [runner._simulate(setups[var.algorithm](var, replica_seed(var.seed, k)).run()).info
                   for k in range(replicas)])
            for var in expand_variants(preset_config(name))]


def test_decaying_and_inventory_presets_keep_the_ledger_and_their_bound():
    # the decaying-step settings: every threshold-decay variant at its full
    # T = 50000, and 20 newsvendor-shift replicas, whose fill rate is the coverage
    for var, infos in _ledgers("threshold-decay") + _ledgers("newsvendor-shift", 20):
        assert var.schedule["kind"] == "power"
        for info in infos:
            assert abs(info["ledger_residual"]) <= 1e-9, var.variant
            assert abs(info["coverage"] - var.phi) <= info["coverage_bound"] < math.inf


def test_the_projected_baseline_breaks_the_ledger():
    [(_, [boundary]), (_, [projected])] = _ledgers("adversarial-shift")
    assert abs(boundary["ledger_residual"]) <= 1e-9
    assert abs(projected["ledger_residual"]) > 1e-6 and projected["coverage_bound"] == math.inf


@pytest.mark.parametrize("name", ["threshold-decay", "newsvendor-shift", "adversarial-shift"])
def test_metrics_json_holds_a_residual_for_a_constant_unprojected_aci_step_only(name):
    for var in expand_variants(preset_config(name)):
        summary = run_replica(var.replace(T=200), 0)["summary"]
        assert ("ledger_residual" in summary) == (var.variant == "boundary"), var.variant
        assert "coverage_bound" not in summary and "coverage" not in summary


@pytest.mark.parametrize("algorithm,environment", [
    ("primal_threshold", {"kind": "interval", "delta": 0.05, "points": ["beta", 2, 5]}),
    ("newsvendor", {"kind": "score_uniform"}),
], ids=["threshold-on-interval", "newsvendor-on-scores"])
def test_run_and_oracle_reject_a_mismatched_environment(tmp_path, capsys, algorithm,
                                                         environment):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(
        algorithm=algorithm, environment=environment, T=20, phi=0.8,
        schedule={"kind": "constant", "c": 0.1}, seed=1,
    )))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    run_err = capsys.readouterr().err
    assert main(["oracle", "--config", str(path)]) == 2
    oracle_err = capsys.readouterr().err
    assert run_err == oracle_err
    assert run_err.startswith(f"config error: key 'environment.kind': {algorithm} expects ")
    assert "Traceback" not in run_err


_DOC = dict(algorithm="pd_bandit", T=100, phi=0.8, seed=1,
            environment={"kind": "interval", "delta": 0.25, "points": ["beta", 2, 5]},
            schedule={"kind": "constant", "c": 0.1})
_OR_FIXED = {"algorithm": "acog_position", "environment": {"kind": "or_fixed", "p": [0.9, 0.5]}}
_POISSON = {"algorithm": "newsvendor", "environment": {
    "kind": "poisson_demand", "before": 20.0, "after": 50.0, "shift_t": 50, "cap": 100.0}}
_SCORES = {"algorithm": "primal_threshold", "environment": {"kind": "score_uniform"}}
# labels that are not one plain path component: each would name a directory
# outside OUT, or OUT itself, or no directory at all
_BAD_LABELS = ("../escaped", "a/b", "a\\b", ".", "..", "/abs", "a\0b")


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("override,key", [
    ({"environment": {"kind": "interval", "points": ["beta", 2, 5]}}, "environment.delta"),
    ({"T": 100.5}, "T"),
    ({"schedule": {"kind": "constant", "c": "0.1"}}, "schedule.c"),
    ({"environment": {"kind": "trap", "window": ["a", 5]}}, "environment.window[0]"),
    ({"environment": {"kind": "interval", "delta": 0.25, "points": ["beta", None, 5]}},
     "environment.points[1]"),
    ({"environment": {"kind": "interval", "delta": 0.25, "points": []}}, "environment.points[0]"),
    ({"environment": {"kind": "iid", "specs": [[0.5, 0.2], [0.3, [0.1, "x"]]]}},
     "environment.specs[1][1][1]"),
    ({"environment": {"kind": "iid", "specs": [[0.5, 0.2], [None, 0.1]]}},
     "environment.specs[1][0]"),
    ({**_OR_FIXED, "environment": {"kind": "or_fixed", "p": [None, 0.9]}}, "environment.p[0]"),
    ({"algorithm_params": {"lambda_cap": "x"}}, "algorithm_params.lambda_cap"),
    ({"algorithm_params": [1]}, "algorithm_params"),
    ({**_POISSON, "algorithm_params": {"initial_level": "x"}}, "algorithm_params.initial_level"),
    ({**_POISSON, "algorithm_params": {"dynamic_carryover": "false"}},
     "algorithm_params.dynamic_carryover"),
    ({"environment": {"kind": "trap", "window": [5]}}, "environment.window"),
    ({"environment": {"kind": "iid", "specs": [[0.5, 0.2], [0.5]]}}, "environment.specs[1]"),
    ({"environment": {"kind": "iid", "specs": [[0.5, [0.1, 0.2, 0.3]]]}},
     "environment.specs[0][1]"),
    ({"environment": {"kind": "interval", "delta": 0.25, "points": ["beta", 2]}},
     "environment.points"),
    ({"environment": {"kind": "interval", "delta": 0.25, "points": ["uniform", 3]}},
     "environment.points"),
    ({"environment": {"kind": "interval", "delta": 0.25, "points": ["normal", 1, 2]}},
     "environment.points[0]"),
    ({"preset": ["interval-beta"]}, "preset"),
    ({"preset": {"name": "interval-beta"}}, "preset"),
    ({"variant": ["a"]}, "variant"),
    ({"variant": {"label": "a"}}, "variant"),
    *(({"variant": label}, "variant") for label in _BAD_LABELS),
    *(({"preset": label}, "preset") for label in _BAD_LABELS),
    ({"algorithm": "primal_threshold"}, "environment.kind"),
    ({"environment": {"kind": {"name": "interval"}}}, "environment.kind"),
    ({"schedule": {"kind": "x", "c": 0.1}}, "schedule.kind"),
    ({"schedule": {"kind": "constant", "c": -0.1}}, "schedule.c"),
    ({"schedule": {"kind": "power", "c": 1.0, "p": 1.5}}, "schedule.p"),
    ({"schedule": {"kind": "constant", "c": 0.1, "index_offset": -1}},
     "schedule.index_offset"),
    ({"output_dir": [1]}, "output_dir"),
    ({"algorithm_params": {"bogus": 1}}, "algorithm_params.bogus"),
    ({"algorithm_params": {"lamda_cap": 2.0}}, "algorithm_params.lamda_cap"),
    ({**_POISSON, "algorithm_params": {"lambda_cap": 2.0}}, "algorithm_params.lambda_cap"),
    ({**_OR_FIXED, "algorithm_params": {"initial_level": 1.0}},
     "algorithm_params.initial_level"),
    ({**_SCORES, "schedule": {"kind": "power", "c": 1.0, "P": 0.5}}, "schedule.P"),
    ({**_SCORES, "environment": {"kind": "score_uniform", "bogus": 1}}, "environment.bogus"),
    ({"schedule": {"kind": "constant", "c": math.nan}}, "schedule.c"),
    ({"schedule": {"kind": "constant", "c": math.inf}}, "schedule.c"),
    ({**_POISSON, "environment": {**_POISSON["environment"], "before": math.nan}},
     "environment.before"),
    ({**_POISSON, "environment": {**_POISSON["environment"], "cap": math.inf}},
     "environment.cap"),
    ({"algorithm_params": {"lambda_cap": math.nan}}, "algorithm_params.lambda_cap"),
    ({"environment": {"kind": "iid", "specs": [[0.5, -0.1]]}}, "environment.specs[0][1]"),
    ({"environment": {"kind": "iid", "specs": [[0.5, [0.3, 0.1]]]}}, "environment.specs[0][1]"),
    ({"environment": {"kind": "trap", "window": [1.5, 5]}}, "environment.window[0]"),
    ({"environment": {"kind": "trap", "window": [-1, 5]}}, "environment.window[0]"),
    ({"environment": {"kind": "trap", "window": [5, 5]}}, "environment.window"),
    ({**_POISSON, "algorithm_params": {"initial_level": -5.0}}, "algorithm_params.initial_level"),
    ({**_POISSON, "algorithm_params": {"dynamic_carryover": True},
      "schedule": {"kind": "constant", "c": 2.0}}, "algorithm_params.dynamic_carryover"),
    ({"environment": {"kind": "interval", "delta": 0.3, "points": ["beta", 2, 5]}},
     "environment.delta"),
    ({"environment": {"kind": "interval", "delta": math.nan, "points": ["beta", 2, 5]}},
     "environment.delta"),
    ({"environment": {"kind": "interval", "delta": 0.25, "points": ["beta", 0, 5]}},
     "environment.points[1]"),
    ({"environment": {"kind": "interval", "delta": 0.25, "points": ["beta", 2, 1.5]}},
     "environment.points[2]"),
    ({"environment": {"kind": "iid", "specs": []}}, "environment.specs"),
    ({**_OR_FIXED, "environment": {"kind": "or_fixed", "p": []}}, "environment.p"),
    ({"environment": {"kind": "iid", "specs": [[1.5, 0.2]]}}, "environment.specs[0][0]"),
    ({**_OR_FIXED, "environment": {"kind": "or_fixed", "p": [0.9, 2.0]}}, "environment.p[1]"),
    ({**_OR_FIXED, "environment": {"kind": "or_random", "n": 0, "p_low": 0.1, "p_high": 0.3}},
     "environment.n"),
    ({**_OR_FIXED, "environment": {"kind": "or_random", "n": -2, "p_low": 0.1, "p_high": 0.3}},
     "environment.n"),
    ({**_POISSON, "environment": {**_POISSON["environment"], "after": -1.0}},
     "environment.after"),
    ({**_POISSON, "environment": {**_POISSON["environment"], "cap": 0.5}}, "environment.cap"),
    ({"algorithm_params": {"lambda_cap": 0.0}}, "algorithm_params.lambda_cap"),
    ({"algorithm_params": {"lambda_cap": -1.0}}, "algorithm_params.lambda_cap"),
    ({**_OR_FIXED, "environment": {"kind": "or_fixed", "p": [0.9]}, "T": 1}, "T"),
    ({"environment": {"kind": "interval", "delta": 1.0, "points": ["uniform"]}, "T": 1}, "T"),
    ({"environment": {"kind": "iid", "specs": [[1.0, 0.2]]}, "T": 1}, "T"),
    # a run's cost sums, and the default price cap c_max / (1 - phi), overflow
    ({"environment": {"kind": "iid", "specs": [[0.5, 1e308]]}, "T": 10, "phi": 0.3},
     "environment.specs"),
    ({"environment": {"kind": "iid", "specs": [[0.5, 1e308]]}, "T": 10, "phi": 0.8},
     "environment.specs"),
    ({"environment": {"kind": "iid", "specs": [[0.5, [0.0, 5e307]]]}, "T": 2, "phi": 0.8},
     "environment.specs"),
    # a decaying step that underflows to 0.0 by step T, or whose t + index_offset
    # exceeds every float
    ({**_SCORES, "T": 10, "schedule": {"kind": "power", "c": 5e-324, "p": 0.5}}, "schedule"),
    ({**_SCORES, "T": 10, "schedule": {"kind": "power", "c": 1.0, "p": 0.5,
                                       "index_offset": 10**400}}, "schedule"),
    ({**_OR_FIXED, "environment": {"kind": "or_random", "n": 5, "p_low": 0.9, "p_high": 0.1}},
     "environment.p_high"),
    # a rate whose exp(-rate) is not a normal float, and beta shapes whose
    # beta_cdf coefficients exceed the largest float
    ({**_POISSON, "environment": {**_POISSON["environment"], "before": 800.0, "after": 800.0,
                                  "cap": 2000.0}}, "environment.before"),
    ({**_POISSON, "environment": {**_POISSON["environment"], "after": 740.0}},
     "environment.after"),
    ({"environment": {"kind": "interval", "delta": 0.25, "points": ["beta", 600, 600]}},
     "environment.points"),
    ({"environment": {"kind": "interval", "delta": 0.25, "points": ["beta", 1, 10**6]}},
     "environment.points"),
    # inventory steps with eta_max * (1 - phi) > 1: from a level q = a the level
    # falls below 0 (3 * 0.5), or overflows to inf (1e307 * 0.1)
    ({**_POISSON, "environment": {**_POISSON["environment"], "shift_t": 500}, "T": 1000,
      "phi": 0.5, "schedule": {"kind": "constant", "c": 3.0}}, "schedule"),
    ({**_POISSON, "environment": {**_POISSON["environment"], "after": 20.0, "shift_t": 0},
      "T": 20, "phi": 0.9, "schedule": {"kind": "constant", "c": 1e307}}, "schedule"),
], ids=["missing-delta", "fractional-T", "string-step", "string-window", "null-shape",
        "empty-points", "string-cost", "null-p", "or-null-p", "string-lambda-cap",
        "list-params", "string-initial-level", "string-carryover", "short-window",
        "short-spec", "long-cost", "short-beta-points", "long-uniform-points",
        "unknown-point-law", "list-preset", "dict-preset", "list-variant", "dict-variant",
        *(f"{key}-{name}" for key in ("variant", "preset") for name in (
            "parent", "nested", "backslash", "dot", "dot-dot", "absolute", "nul")),
        "mismatched-kind", "dict-kind", "unknown-schedule-kind", "negative-step",
        "decay-exponent-one-or-more", "negative-index-offset", "list-output-dir",
        "unknown-param", "misspelt-lambda-cap", "bandit-param-on-newsvendor",
        "newsvendor-param-on-chain", "misspelt-schedule-key", "unknown-environment-key",
        "nan-step", "infinite-step", "nan-rate", "infinite-cap", "nan-lambda-cap",
        "negative-cost", "reversed-cost-range", "fractional-window", "negative-window",
        "empty-window", "negative-initial-level", "carryover-with-large-steps",
        "delta-not-dividing-one", "nan-delta", "zero-shape", "fractional-shape",
        "empty-specs", "empty-p", "probability-above-one", "or-probability-above-one",
        "zero-arms", "negative-arms", "negative-rate", "cap-below-one", "zero-lambda-cap",
        "negative-lambda-cap", "one-arm-one-step", "two-arm-interval-one-step",
        "two-arm-iid-one-step", "cost-sum-overflow", "cost-sum-and-cap-overflow",
        "cap-overflow", "underflowing-decay-step", "overflowing-index-offset",
        "reversed-or-range", "subnormal-rate-before", "subnormal-rate-after",
        "overflowing-beta-shapes", "far-overflowing-beta-shapes", "inventory-negative-step",
        "inventory-overflowing-step"])
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, command, override, key):
    doc = {**_DOC, **override}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, "--config", str(path), *out]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err and "Traceback" not in err
    # nothing is written: no OUT, and no staging directory beside it
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    # the config is refused when it is built, before any world or oracle exists
    with pytest.raises(ConfigError, match=re.escape(f"key '{key}'")):
        ExperimentConfig.from_dict(doc)


# mutations for the fuzz test: wrong JSON types, non-finite numbers, zero,
# negatives and fractions; a list may also lose or repeat its last entry
_FUZZ_VALUES = ("x", None, True, [], {}, [0.5], {"a": 1}, math.nan, math.inf, -math.inf,
                0, 0.0, -1, -2.5, 0.5, 1.5, 1e308, *_BAD_LABELS)
_FUZZ_DOCS = [preset_config(name).to_dict() for name in sorted(EXPECTED_PRESETS)] + [
    {**_DOC, **_OR_FIXED}, {**_DOC, **_POISSON},
    # one arm, so no competitor: a benchmark with no positional gap
    {**_DOC, **_OR_FIXED, "environment": {"kind": "or_fixed", "p": [0.9]}}]


def _key_paths(doc, path=()):
    """Every key path into a JSON value: object keys and list indices, nested."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield (*path, key)
        yield from _key_paths(value, (*path, key))


@settings(derandomize=True, deadline=None, max_examples=300, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_config_exits_0_2_3_or_4(tmp_path, capsys, data):
    # one key path of a valid config gets a bad value, or its object an unknown key
    doc = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_DOCS)))
    *where, key = data.draw(st.sampled_from(list(_key_paths(doc))))
    parent = functools.reduce(operator.getitem, where, doc)
    old = parent[key]
    lists = [old[:-1], old + old[-1:]] if isinstance(old, list) and old else []
    value = data.draw(st.sampled_from([*_FUZZ_VALUES, *lists]))
    if isinstance(parent, dict) and data.draw(st.booleans()):
        key = "unknown_key"
    parent[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["oracle", "--config", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4) and "Traceback" not in err
    assert code != 2 or "key '" in err, err
    if code == 0:  # strict JSON: no NaN or Infinity
        strict_json(out)


@pytest.mark.parametrize("key,out", [("variant", ["--out", "runs/out"]), ("preset", [])])
def test_a_label_that_leaves_out_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                            key, out):
    # without --out, a run writes to runs/<preset>
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({**_DOC, key: "../escaped"}))
    assert main(["run", "--config", "cfg.json", *out]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python reads integers of any length")
@pytest.mark.parametrize("command", ["run", "oracle"])
def test_an_integer_too_long_for_python_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                          command):
    # valid JSON, but json.loads refuses an integer of more than 4300 digits
    # with a plain ValueError, not a JSONDecodeError
    monkeypatch.chdir(tmp_path)
    doc = {**_DOC, **_SCORES, "schedule": {"kind": "power", "c": 1.0, "p": 0.5,
                                           "index_offset": 7}}
    text = json.dumps(doc).replace('"index_offset": 7', '"index_offset": ' + "9" * 5001)
    (tmp_path / "cfg.json").write_text(text)
    out = ["--out", "o"] if command == "run" else []
    assert main([command, "--config", "cfg.json", *out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cfg.json: Exceeds the limit (4300 digits)")
    assert "Traceback" not in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]


def test_every_preset_label_passes_the_label_rule():
    # expanding a preset builds each variant's config, which checks its label;
    # the empty label of a preset without variants stays legal
    labels = {var.variant for name in EXPECTED_PRESETS
              for var in expand_variants(preset_config(name))}
    assert {"", "eta-0.01", "p-0.3", "T-2000", "boundary", "projected"} <= labels


def _count_replicas(monkeypatch) -> list:
    calls = []

    def counted(config, replica, **kwargs):
        calls.append(replica)
        return run_replica(config, replica, **kwargs)

    monkeypatch.setattr(runner, "run_replica", counted)
    return calls


def test_cli_run_into_a_regular_file_exits_2(tmp_path, capsys, monkeypatch):
    calls = _count_replicas(monkeypatch)
    config = tmp_path / "cfg.json"
    config.write_text(small_config(replicas=1).to_json())
    target = tmp_path / "outfile"
    target.write_text("")
    assert main(["run", "--config", str(config), "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    # the file is untouched, no staging directory is left next to it, and OUT
    # was refused before any replica ran
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "outfile"]
    assert target.read_text() == ""
    assert calls == []


def test_cli_sweep_into_a_variant_that_is_a_regular_file_exits_2(tmp_path, capsys, monkeypatch):
    calls = _count_replicas(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    (out / "T-2000").write_text("")
    argv = ["run", "--preset", "regret-scaling", "--replicas", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # OUT is not empty, so the whole run is refused, naming OUT
    assert err == f"error: output directory {out} exists and is not an empty directory\n"
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert [p.name for p in out.iterdir()] == ["T-2000"]
    assert (out / "T-2000").read_text() == ""


def test_cli_chain_run_with_a_large_step_probes_the_empty_chain(tmp_path, capsys):
    # eta * (1 - phi) = 4.5: one success takes theta from 0.5 to -4.0, inside
    # the band [-eta * (1 - phi), inf) that drive_acog checks, and the budget
    # clips to 0 until theta recovers
    config = {"algorithm": "acog_position", "environment": {"kind": "or_fixed", "p": [0.9] * 3},
              "T": 50, "phi": 0.1, "schedule": {"kind": "constant", "c": 5.0}, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "error" not in capsys.readouterr().err
    rows = (tmp_path / "o" / "trace_0.csv").read_text().splitlines()
    header = rows[0].split(",")
    states = [float(r.split(",")[header.index("state")]) for r in rows[1:]]
    budgets = [int(r.split(",")[header.index("K")]) for r in rows[1:]]
    assert len(budgets) == 50 and min(budgets) == 0 and min(states) < -1.0
    assert all(k >= 0 for k in budgets)


def test_cli_chain_run_whose_full_chain_can_fail_climbs_past_n(tmp_path, capsys):
    # every arm fails half the time, so even the full chain of n = 3 fails
    # on 1/8 of the steps and theta rises past n: a healthy run, with no
    # upper band to escape
    config = {"algorithm": "acog_position", "environment": {"kind": "or_fixed", "p": [0.5] * 3},
              "T": 2000, "phi": 0.85, "schedule": {"kind": "constant", "c": 1.0}, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "error" not in capsys.readouterr().err
    rows = (tmp_path / "o" / "trace_0.csv").read_text().splitlines()
    i_state = rows[0].split(",").index("state")
    states = [float(r.split(",")[i_state]) for r in rows[1:]]
    assert max(states) > 3.0
    assert min(states) >= -1.0 * (1 - 0.85)


def strict_json(text: str):
    """Parse ``text`` as strict JSON: ``NaN`` and ``Infinity`` raise ValueError."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_a_one_arm_chain_world_writes_strict_json(tmp_path, capsys):
    # one arm has no competitor, so no positional gap: gap_delta is null
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "algorithm": "acog_prefix", "environment": {"kind": "or_fixed", "p": [1.0]}, "T": 3,
        "phi": 0.5, "seed": 1, "schedule": {"kind": "constant", "c": 0.5}}))
    assert main(["oracle", "--config", str(path)]) == 0
    assert strict_json(capsys.readouterr().out)["run"]["gap_delta"] is None
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    metrics = strict_json((tmp_path / "o" / "metrics.json").read_text())
    assert metrics["benchmark"]["gap_delta"] is metrics["replicas"][0]["benchmark"]["gap_delta"]
    assert metrics["benchmark"]["gap_delta"] is None
    with pytest.raises(ValueError, match="Infinity"):
        strict_json('{"gap_delta": Infinity}')


_OVERFLOWS = {
    # the chain's band is open above, so theta reaches inf
    "chain": ({"algorithm": "acog_position", "environment": {"kind": "or_fixed", "p": [0.9]},
               "T": 2000, "phi": 0.5, "schedule": {"kind": "constant", "c": 1e308}}, 645),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWS))
def test_a_state_that_overflows_exits_4_and_writes_nothing(tmp_path, capsys, name):
    # steps the schema accepts push the state to inf; the driver loop checks an
    # open end of a band as the largest float, so the state escapes it
    config, step = _OVERFLOWS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "seed": 1}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: state inf escaped [") and "Traceback" not in err
    assert err.endswith(f", {sys.float_info.max!r}] at step {step}\n"), err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("existing", [[], ["a"]], ids=["none", "a"])
def test_a_failed_run_removes_the_ancestors_of_out_it_made(tmp_path, monkeypatch, existing):
    # for OUT a/b/c the run makes a and a/b (only a/b under an existing a), then
    # fails at a step; it takes back what it made and no directory that was there
    config, _ = _OVERFLOWS["chain"]
    (tmp_path / "cfg.json").write_text(json.dumps({**config, "seed": 1}))
    for name in existing:
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "cfg.json", "--out", "a/b/c"]) == 4
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == sorted(
        ["cfg.json", *existing])


def test_cli_invariant_violation_exits_4_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # the schema refuses the steps that overshoot the stock below zero, so a
    # patched step does it: it pushes the level below zero after the update of
    # step 6, and step 7 is the first whose decision-time level is negative
    step = runner.newsvendor_step

    def pushed(q, cfg, demand):
        row = step(q, cfg, demand)
        if q.step_index == 7:
            q.value = -1.0
        return row

    monkeypatch.setattr(runner, "newsvendor_step", pushed)
    path = tmp_path / "cfg.json"
    path.write_text(small_config(replicas=1).to_json())
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: state ") and "at step 7" in err
    assert "Traceback" not in err
    assert not (out_dir / "config.json").exists()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
@pytest.mark.parametrize("failure", ["raise", "interrupt"])
def test_failed_or_interrupted_run_leaves_no_artifacts(tmp_path, monkeypatch, failure, sweep,
                                                       jobs):
    cfg = preset_config("regret-scaling", seed=1, replicas=3) if sweep else small_config(replicas=3)
    stop_at = 4000 if sweep else cfg.T  # the sweep's second horizon
    runs = tmp_path / "runs"
    started = tmp_path / "started"
    started.mkdir()
    parent = os.getpid()
    run = runner.run_replica

    def failing_replica(config, replica, **kwargs):
        # pool workers fork, so they run this too; replica 2 starts only
        # after an earlier replica has written its trace to staging
        (started / f"{config.T}-{replica}").touch()
        if replica == 2 and config.T == stop_at:
            assert any(runs.rglob("trace_*.csv"))
            if failure == "raise":
                raise RuntimeError("replica failed")
            os.kill(parent, signal.SIGINT)  # Ctrl-C in the parent, mid-run
        return run(config, replica, **kwargs)

    monkeypatch.setattr(runner, "run_replica", failing_replica)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(RuntimeError if failure == "raise" else KeyboardInterrupt):
            execute(cfg, runs / "out", jobs=jobs)
    finally:
        signal.signal(signal.SIGINT, handler)
    # no trace, metrics or manifest file in OUT and no staging directory next to
    # it: the run made OUT's parent, so it took that back too
    assert not runs.exists()
    # the failure stops the sweep: a replica already running or queued may
    # still start, but none of the last two horizons does
    assert not [p.name for p in started.iterdir() if p.name.startswith(("16000-", "32000-"))]


def _tree_digests(root: Path) -> dict:
    """Every path under ``root``: a file's SHA-256, or None for a directory."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("first, second", [
    (["--preset", "threshold-primal", "--replicas", "3"],
     ["--preset", "threshold-primal", "--replicas", "2", "--seed", "5"]),
    (["--preset", "interval-eta-sweep", "--plot"], ["--preset", "interval-beta"]),
], ids=["fewer-replicas", "sweep-then-single"])
def test_a_run_into_a_used_out_exits_2_and_changes_no_byte(tmp_path, capsys, monkeypatch,
                                                           first, second):
    # a second run once published over the first, and left the first's third
    # trace, or its sweep manifest, variants and plots, beside its own files
    out = tmp_path / "o"
    assert main(["run", *first, "--out", str(out)]) == 0
    capsys.readouterr()
    before = _tree_digests(out)
    calls = _count_replicas(monkeypatch)
    assert main(["run", *second, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory {out} exists and is not an empty directory\n"
    assert calls == []
    assert _tree_digests(out) == before
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "empty"])
def test_a_failed_rename_leaves_out_as_it_was(tmp_path, monkeypatch, existing):
    def failing_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "rename", failing_rename)
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    with pytest.raises(OSError, match="rename failed"):
        execute(small_config(replicas=3), out, jobs=1, plot=True)
    # OUT is absent or empty as before, and no staging directory is left next to it
    assert list(tmp_path.iterdir()) == ([out] if existing else [])
    assert not existing or list(out.iterdir()) == []


def test_an_empty_out_is_replaced_by_the_full_run(tmp_path):
    (tmp_path / "empty").mkdir()
    for name in ("empty", "absent"):
        execute(preset_config("regret-scaling", seed=4, replicas=1), tmp_path / name, jobs=1)
    assert _tree_digests(tmp_path / "empty") == _tree_digests(tmp_path / "absent")
    # the manifest, and per horizon its directory, config, trace and metrics.json
    assert len(_tree_digests(tmp_path / "empty")) == 1 + 5 * 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["absent", "empty"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_out_takes_the_mode_of_a_plain_mkdir(tmp_path, umask):
    old = os.umask(umask)
    try:
        execute(small_config(replicas=1), tmp_path / "out", jobs=1)
        (tmp_path / "made").mkdir()
    finally:
        os.umask(old)
    mode = (tmp_path / "out").stat().st_mode & 0o777
    assert mode == 0o777 & ~umask == (tmp_path / "made").stat().st_mode & 0o777


def test_cli_run_into_the_working_directory_exits_2(tmp_path, capsys, monkeypatch):
    # the rename would replace the directory the caller is in, which would then
    # list nothing
    calls = _count_replicas(monkeypatch)
    (tmp_path / "cfg.json").write_text(small_config(replicas=1).to_json())
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    assert main(["run", "--config", "../cfg.json", "--out", "."]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory {here} is the working directory\n"
    assert calls == []
    assert Path.cwd().samefile(here) and list(here.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "here"]


def test_a_killed_pool_worker_exits_5_and_writes_nothing(tmp_path, capsys, monkeypatch):
    parent, run = os.getpid(), runner.run_replica

    def killed_replica(config, replica, **kwargs):
        # pool workers fork, so they run this too: replica 1's worker dies as
        # if the out-of-memory killer had taken it
        if replica == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run(config, replica, **kwargs)

    monkeypatch.setattr(runner, "run_replica", killed_replica)
    config = tmp_path / "cfg.json"
    config.write_text(small_config(replicas=3).to_json())
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--jobs", "2", "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: a --jobs pool worker process died ") and str(out) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    # no OUT and no staging directory next to it
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_jobs_1_and_jobs_2_write_the_same_bytes(tmp_path, capsys):
    digests = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs-{jobs}"
        assert main(["run", "--preset", "regret-scaling", "--replicas", "3", "--seed", "4",
                     "--jobs", str(jobs), "--plot", "--out", str(out)]) == 0
        digests.append({p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in out.rglob("*") if p.is_file() and p.name != "config.json"})
    assert digests[0] == digests[1]
    # the manifest, and per horizon three traces, metrics.json and two plots
    assert len(digests[0]) == 1 + 5 * 6
    # no hidden staging directory is left in OUT or next to it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs-1", "jobs-2"]
    assert not list(tmp_path.rglob(".*"))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it was asked
    for and maps in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, size, preset", [
    pytest.param(1, None, None, id="1-None"), pytest.param(2, 2, None, id="2-2"),
    pytest.param(3, 3, None, id="3-3"), pytest.param(64, 3, None, id="64-3"),
    # a sweep's 15 replicas run on one pool, not one pool per horizon
    pytest.param(2, 2, "regret-scaling", id="sweep-2-2"),
])
def test_pool_size_is_capped_at_the_replica_count(tmp_path, monkeypatch, jobs, size, preset):
    cfg = preset_config(preset, seed=4, replicas=3) if preset else small_config(replicas=3)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)
    execute(cfg, tmp_path / "pooled", jobs=jobs)
    assert _RecordingPool.sizes == ([] if size is None else [size])
    monkeypatch.undo()
    execute(cfg, tmp_path / "serial", jobs=1)
    names = ["trace_0.csv", "trace_1.csv", "trace_2.csv", "metrics.json"]
    for name in names if preset is None else [f"T-{T}/{n}" for T in (2000, 32000) for n in names]:
        assert ((tmp_path / "pooled" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())


_NO_POOL = """
import concurrent.futures, sys
from coverctl import cli, runner

assert cli.main(["run", "--config", sys.argv[1], "--jobs", "1", "--out", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules
             if m.lstrip("_").split(".")[0] == "multiprocessing"
             or m == "concurrent.futures.process"))
print(runner.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)
"""


def test_a_jobs_1_run_loads_no_pool_machinery(tmp_path):
    # in a fresh interpreter, since this process has loaded the pool already;
    # runner imports the pool class the first time it is asked for it
    path = tmp_path / "cfg.json"
    path.write_text(small_config(replicas=2).to_json())
    env = dict(os.environ, PYTHONPATH=str(Path(runner.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _NO_POOL, str(path), str(tmp_path / "o")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["[]", "True"]
    assert (tmp_path / "o" / "trace_1.csv").exists()


@pytest.mark.parametrize("jobs", [0, -1])
def test_execute_rejects_fewer_than_one_job(tmp_path, monkeypatch, jobs):
    calls = _count_replicas(monkeypatch)
    with pytest.raises(ValueError, match="jobs"):
        execute(small_config(replicas=1), tmp_path / "out", jobs=jobs)
    assert calls == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_fewer_than_one_job(tmp_path, capsys, monkeypatch, jobs):
    calls = _count_replicas(monkeypatch)
    argv = ["run", "--preset", "threshold-primal", "--jobs", jobs, "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "Traceback" not in err
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_svg_plots_are_self_contained(tmp_path):
    execute(small_config(replicas=1), tmp_path, jobs=1, plot=True)
    svg = (tmp_path / "coverage.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg and "</svg>" in svg


def test_plots_are_drawn_without_reading_back_an_artifact(tmp_path, monkeypatch):
    # replica 0's task draws the plots from its own series: a run reads no
    # file under tmp_path, which holds OUT and the staging directory
    def refuse(read):
        def guarded(path, *args, **kwargs):
            if tmp_path in path.resolve().parents:
                raise AssertionError(f"{path} was read back")
            return read(path, *args, **kwargs)
        return guarded

    for name in ("read_text", "read_bytes"):
        monkeypatch.setattr(Path, name, refuse(getattr(Path, name)))
    execute(small_config(replicas=2), tmp_path / "out", jobs=1, plot=True)
    monkeypatch.undo()
    for name in ("coverage.svg", "regret.svg"):
        svg = (tmp_path / "out" / name).read_text()
        assert svg.startswith("<svg") and "polyline" in svg


# SHA-256 of every artifact but config.json, plus the `oracle` values, per
# preset at seed 3 with 2 replicas, plots on and T capped at 3000 (except
# regret-scaling, whose variants set their own T). A refactor that claims the
# same bytes out must leave this table unchanged.
PRESET_SHA256 = {
    "adversarial-shift": "0cbd41dff8ad4bb76c5d6d3b88ac9a5826bcd2e736006650aeed9360d9d6444c",
    "combinatorial-or": "2628dfdc5fa0377db41a0a7e32ab12cdc3cf9f7be654766a5f53018b728e0572",
    "interval-beta": "f5fa341d4955fd5a424096a191c92d752096f71f3dc362a96fdc1ea79694a9af",
    "interval-eta-sweep": "dcfde05ccf9ac4a9b661addbfca27bfbc0edd7a01f16bbd2c9f120b39427d616",
    "newsvendor-shift": "11991e73294e98504e6bf97b78d7d353d66860aa16a4eb38edd506508e32b8a3",
    "regret-scaling": "dacbe3b1d9482007e3bece94fa651c4524c2256a81414cc8b9427f1f713ac4ce",
    "threshold-decay": "b504f922d0b13a4a74c1cf8612106996eb07a796d33b0cb834b1551e6fbf8536",
    "threshold-primal": "421015e21e6c9279edeb58d4b3df81cef0371cac795abb0b1a22e34ae8160917",
}


def _preset_digest(name, out_dir, jobs=1):
    cfg = preset_config(name, seed=3, replicas=2)
    if name != "regret-scaling":
        cfg = cfg.replace(T=min(cfg.T, 3000))
    execute(cfg, out_dir, jobs=jobs, plot=True)
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name != "config.json":
            digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    digest.update(json.dumps(benchmark_values(cfg), sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(EXPECTED_PRESETS))
def test_preset_artifacts_match_pinned_hashes(tmp_path, name):
    assert _preset_digest(name, tmp_path) == PRESET_SHA256[name]


# no preset runs the prefix-keyed learner, so its bytes are pinned here
PREFIX_KEYED_SHA256 = {
    "trace_0.csv": "ccb8fd8dcf495ec0bb4560e60ea4469d58919e01a0414b4799042b8f92820218",
    "metrics.json": "9e99dbac216b56bd6145a6377ffb05abc266ab6238ce44a49652a34491d7b19f",
}


def _prefix_keyed_digests(out_dir):
    cfg = ExperimentConfig.from_dict(dict(
        algorithm="acog_prefix",
        environment={"kind": "or_random", "n": 8, "p_low": 0.05, "p_high": 0.30},
        T=3000, phi=0.6, schedule={"kind": "constant", "c": 8 / (2 * math.sqrt(3000))},
        seed=3,
    ))
    execute(cfg, out_dir, jobs=1)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in PREFIX_KEYED_SHA256}


def test_prefix_keyed_chain_run_matches_pinned_hashes(tmp_path):
    assert _prefix_keyed_digests(tmp_path) == PREFIX_KEYED_SHA256


# no preset runs the i.i.d. arm world; its uniform-cost arm gives the cost
# column many distinct values, so every one of them is formatted on its own
IID_SHA256 = {
    "trace_0.csv": "9dc7c118bd7afeb53d362e995f592b6a70aa51eae37a8c848d838fb900fc5cf9",
    "metrics.json": "54564dd7874ae40c1dd84bd6fbaae5c0eef6068630965cfa50357bd149e5e77d",
}


def _iid_digests(out_dir):
    cfg = ExperimentConfig.from_dict(dict(
        algorithm="pd_bandit",
        environment={"kind": "iid", "specs": [[0.7, [0.1, 0.5]]]},
        T=3000, phi=0.8, schedule={"kind": "constant", "c": 0.05}, seed=3,
    ))
    execute(cfg, out_dir, jobs=1)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in IID_SHA256}


def test_iid_run_matches_pinned_hashes(tmp_path):
    assert _iid_digests(tmp_path) == IID_SHA256


# chunks of one row for float, int and tuple actions, the a,leftover,y extras
# and all four controllers; chunks of 7 rows for every preset
_SMALL_CHUNK_PRESETS = {
    1: ("threshold-primal", "interval-beta", "combinatorial-or", "newsvendor-shift"),
    7: tuple(sorted(PRESET_SHA256)),
}


@pytest.mark.parametrize("rows", [1, 7])
def test_artifacts_drawn_and_rendered_in_small_chunks_match_pinned_hashes(tmp_path, monkeypatch,
                                                                          rows):
    # a replica drives, checks, renders and writes each chunk before the next:
    # every trace, metrics file and plot keeps its bytes, also where forked
    # pool workers stream (regret-scaling, 2 jobs)
    monkeypatch.setattr(runner, "_CHUNK_ROWS", rows)
    for name in _SMALL_CHUNK_PRESETS[rows]:
        jobs = 2 if name == "regret-scaling" else 1
        assert _preset_digest(name, tmp_path / name, jobs) == PRESET_SHA256[name], name
    assert _prefix_keyed_digests(tmp_path / "prefix-keyed") == PREFIX_KEYED_SHA256
    assert _iid_digests(tmp_path / "iid") == IID_SHA256


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failure_after_a_written_chunk_publishes_nothing(tmp_path, capsys, monkeypatch, jobs):
    # chunks of 7 rows: the chunks of steps 1-7 and 8-14 are rendered and
    # handed to the staged trace file before step 20 raises
    monkeypatch.setattr(runner, "_CHUNK_ROWS", 7)
    render, step = runner.render_csv, runner.threshold_step
    first_steps = []

    def recorded_render(chunk, *series_and_t0):
        first_steps.append(series_and_t0[-1])
        return render(chunk, *series_and_t0)

    def failing_step(tau, cfg, env):
        if tau.step_index == 20:
            assert first_steps == [1, 8]
            assert list(tmp_path.glob(".o.staging-*/trace_*.csv"))
            raise InvariantViolation(20, tau.value, (cfg.tau_min, cfg.tau_max))
        return step(tau, cfg, env)

    monkeypatch.setattr(runner, "render_csv", recorded_render)
    monkeypatch.setattr(runner, "threshold_step", failing_step)
    argv = ["run", "--preset", "threshold-primal", "--replicas", "2", "--jobs", str(jobs),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: state ") and err.endswith(" at step 20\n"), err
    assert "Traceback" not in err
    # no file in OUT and no staging directory next to it
    assert list(tmp_path.iterdir()) == []


def _worker_peak(tmp_path, T):
    """The tracemalloc peak of one threshold-primal replica task without a
    plot, and the length of the trace it wrote."""
    stage = tmp_path / f"T-{T}"
    stage.mkdir()
    task = (preset_config("threshold-primal").replace(T=T), 0, str(stage), False)
    _, peak = _peak_bytes(lambda: runner._worker(task))
    return peak, (stage / "trace_0.csv").stat().st_size


def test_a_replica_task_holds_memory_flat_in_T(tmp_path):
    # a replica that held its trace, its series and its whole CSV text peaked
    # at about 2.7 times its CSV's length (7.1 MB at T = 20000, 28.1 MB at
    # T = 80000); one that streams holds one chunk at a time (1.4 MB at both)
    small, csv_small = _worker_peak(tmp_path, 20000)
    large, csv_large = _worker_peak(tmp_path, 80000)
    assert csv_large > 3.9 * csv_small
    assert large < 1.25 * small
    assert max(small, large) < csv_small


def test_plot_series_holds_a_small_part_of_its_series(tmp_path):
    # a chart that turned each whole series into a list peaked at about twice
    # the series' bytes; one that samples the arrays converts 2000 points
    steps = 250_000
    coverage = np.linspace(0.0, 1.0, steps)
    regret = np.sqrt(np.arange(1.0, steps + 1.0))
    _, peak = _peak_bytes(lambda: plot_series(tmp_path, coverage, regret, 0.8))
    assert peak < (coverage.nbytes + regret.nbytes) / 8
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coverage.svg", "regret.svg"]


def test_readme_command_lines_parse_and_each_run_writes_a_new_out():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("coverctl ")]
    outs = []
    for argv in lines:
        args = build_parser().parse_args(argv[1:])  # a line that does not parse exits
        if args.command == "run":
            # a config that a run wrote names that run's OUT, which now holds it
            assert args.out or not args.config, argv
            outs.append(args.out or f"runs/{args.preset}")
    assert len(lines) == 7 and len(outs) == len(set(outs)) == 5
