"""Declarative experiment configurations and the built-in preset catalog.

A config fully determines a run: expanding a preset resolves every
parameter (no hidden defaults beyond what is serialized), and re-running
from the written effective config reproduces the trace files byte for byte.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

from . import environments as envs, oracles
from .control import StepSchedule


class ConfigError(ValueError):
    """A config file or flag set fails validation."""


def _fail(path: str, message: str):
    raise ConfigError(f"key '{path}': {message}")


# --- the config schema -------------------------------------------------------
# Every key a config may hold, with its type and bound, is stated once in the
# tables below. A spec is one of:
#   "<type> <interval>", e.g. "number (0, 1]": a JSON number, integer, bool,
#     string or list; numbers are finite, ints count as numbers and bools only
#     as bools; the interval is optional, and " or null" also admits null;
#   a tuple: the allowed values;
#   a list of entry specs; [spec, ...] is one or more entries of one spec;
#   a dict of key specs: a key ending in "?" may be left out, and no key
#     outside the dict may appear;
#   a function (path, value) for what the forms above cannot say.
_TYPES = {"number": (int, float), "integer": int, "bool": bool, "string": str, "list": list}


def _check(path: str, x, spec) -> None:
    """Raise ConfigError naming ``path`` unless the JSON value ``x`` fits ``spec``."""
    if callable(spec):
        spec(path, x)
    elif isinstance(spec, tuple):
        if x not in spec:
            _fail(path, f"expected {' or '.join(map(repr, spec))}, got {x!r}")
    elif isinstance(spec, list):
        some = spec[-1] is ...
        if not isinstance(x, list) or (not x if some else len(x) != len(spec)):
            _fail(path, f"expected {'one or more' if some else len(spec)} entries, got {x!r}")
        for i, item in enumerate(x):
            _check(f"{path}[{i}]", item, spec[0 if some else i])
    elif isinstance(spec, dict):
        keys = {key.rstrip("?"): key for key in spec}
        if not isinstance(x, dict):
            _fail(path, f"expected an object, got {x!r}")
        bad = ([key for key in x if key not in keys]  # the unknown keys, or else the missing ones
               or [key for key, name in keys.items() if key == name and key not in x])
        if bad:
            _fail(f"{path}.{bad[0]}".lstrip("."), f"{'missing' if bad[0] in keys else 'unknown'}"
                  f" config keys: {bad}; expected {list(keys)}")
        for key in x:
            _check(f"{path}.{key}".lstrip("."), x[key], spec[keys[key]])
    elif not (x is None and spec.endswith(" or null")):
        kind, _, bound = spec.removesuffix(" or null").partition(" ")
        lo, hi = map(float, bound[1:-1].split(",")) if bound else (0.0, 0.0)
        if (isinstance(x, bool) != (kind == "bool") or not isinstance(x, _TYPES[kind])
                or isinstance(x, float) and not math.isfinite(x)
                or bound and not ((lo < x or bound[0] == "[" and x == lo)
                                  and (x < hi or bound[-1] == "]" and x == hi))):
            _fail(path, f"expected {spec}, got {x!r}")


def _also(spec, test, text: str):  # a value that fits spec, then passes test
    return lambda path, x: _check(path, x, spec) or test(x) or _fail(path, f"{text}, got {x!r}")


def _points(path, x):  # ["beta", a, b] with integer shapes a, b >= 1, or ["uniform"]
    _check(path, x, "list")
    _check(f"{path}[0]", x[0] if x else None, ("beta", "uniform"))
    _check(path, x, [("beta",), _SHAPE, _SHAPE] if x[0] == "beta" else [("uniform",)])
    if x[0] == "beta" and not _passes(oracles.beta_coefficients, x[1], x[2]):
        _fail(path, f"expected shapes whose beta_cdf coefficients C(a+b-1, j), j >= a, stay"
              f" within the float range (always so for a + b <= 1030), got {x!r}")


def _arm_cost(path, x):  # a fixed cost, or a [lo, hi] range it is drawn from uniformly
    _check(path, x, _COST_RANGE if isinstance(x, list) else _COST)


def _passes(fn, *args) -> bool:  # a library function's own ValueError test, as a yes or no
    try:
        fn(*args)
    except ValueError:
        return False
    return True


_UNIT, _COST, _SHAPE = "number [0, 1]", "number [0, inf)", "integer [1, inf)"
# a variant label names a directory under OUT, and a preset name one under runs/
# when no OUT is given
_LABEL = _also("string", lambda s: not {"/", "\\", "\0"} & set(s) and s not in (".", ".."),
               "expected one plain path component")
_COST_RANGE = _also([_COST, _COST], lambda c: c[0] <= c[1], "expected lo <= hi")
# a Poisson demand rate, by environments.clamped_poisson's own test
_RATE = _also("number (0, inf)", lambda lam: _passes(envs.clamped_poisson, lam, 1),
              "expected exp(-rate) to be a normal float (a rate of at most about 708.4)")

# environment kind -> {key: spec}
_ENVIRONMENTS = {
    "interval": {"delta": _also("number (0, 1]", lambda d: _passes(oracles.grid_cells, d),
                                "1/delta must be a whole number"),
                 "points": _points},
    "trap": {"window": _also(["integer [0, inf)"] * 2, lambda w: w[0] < w[1],
                             "the window must start before it ends")},
    "iid": {"specs": [[_UNIT, _arm_cost], ...]},
    "score_uniform": {},
    "poisson_demand": {"before": _RATE, "after": _RATE, "shift_t": "integer",
                       "cap": "number [1, inf)"},
    "or_random": {"n": "integer [1, inf)", "p_low": _UNIT, "p_high": _UNIT},
    "or_fixed": {"p": [_UNIT, ...]},
}

# the worlds with arms, built from their checked keys and a seed
WORLDS = {
    "interval": lambda env, seed: envs.IntervalWorld(env["delta"], env["points"], seed),
    "trap": lambda env, seed: envs.TrapWorld(env["window"]),
    "iid": lambda env, seed: envs.IidArmWorld([envs.ArmSpec(*s) for s in env["specs"]], seed),
    "or_random": lambda env, seed: envs.OrWorld(envs.draw_or_probabilities(
        env["n"], env["p_low"], env["p_high"], seed), seed),
    "or_fixed": lambda env, seed: envs.OrWorld(env["p"], seed),
}

# algorithm -> (the environment kinds it accepts, its algorithm_params specs);
# the setup function gives each left-out parameter its default
_ALGORITHMS = {
    **dict.fromkeys(("pd_bandit", "pd_bandit_projected"), (
        ("interval", "trap", "iid"), {"lambda_cap?": "number (0, inf) or null"})),
    "primal_threshold": (("score_uniform",), {}),
    "newsvendor": (("poisson_demand",),
                   {"dynamic_carryover?": "bool", "initial_level?": "number [0, inf)"}),
    **dict.fromkeys(("acog_prefix", "acog_position"), (("or_random", "or_fixed"), {})),
}
ALGORITHMS = tuple(_ALGORITHMS)

# the keys every config holds, in the order they are checked
_FIELDS = {
    "algorithm": ALGORITHMS,
    "T": "integer [1, inf)",
    "phi": "number (0, 1)",
    "replicas": "integer [1, inf)",
    "seed": "integer",
    "preset": _LABEL,
    "variant": _LABEL,
    "output_dir": "string or null",
    "schedule": {"kind": ("constant", "power"), "c": "number (0, inf)",
                 "p?": "number [0, 1)", "index_offset?": "integer [0, inf)"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    algorithm: str
    environment: dict
    T: int
    phi: float
    schedule: dict
    seed: int
    replicas: int = 1
    variant: str = ""
    output_dir: str | None = None
    algorithm_params: dict = field(default_factory=dict)

    def __post_init__(self):
        # every key is checked against the schema tables; no value is rewritten
        for key, spec in _FIELDS.items():
            _check(key, getattr(self, key), spec)
        try:  # the step is non-increasing, so a positive float at T is one at every step
            self.step_schedule.eta(self.T)
        except ValueError as err:
            _fail("schedule", str(err))
        kinds, params = _ALGORITHMS[self.algorithm]
        kind = self.environment.get("kind") if isinstance(self.environment, dict) else None
        if kind not in kinds:
            _fail("environment.kind",
                  f"{self.algorithm} expects {' or '.join(kinds)}, got {kind!r}")
        _check("environment", self.environment, {"kind": (kind,), **_ENVIRONMENTS[kind]})
        if kind == "or_random" and self.environment["p_low"] > self.environment["p_high"]:
            _fail("environment.p_high", f"expected p_low <= p_high, got {self.environment}")
        _check("algorithm_params", self.algorithm_params, params)
        if kind in WORLDS and (self.T < 3 or kind == "iid"):  # one world for both checks
            world = WORLDS[kind](self.environment, 0)
            # the bandit and chain statistics take log(n * T) over the world's n arms
            if world.n * self.T < 3:
                _fail("T", "the arm count times T must be at least 3")
            # a run sums up to T arm costs, and the bandit's default price cap is
            # c_max / (1 - phi): both must be finite floats (T compared as an int,
            # which may exceed every float)
            if kind == "iid" and (self.T > sys.float_info.max / world.c_max
                                  or not math.isfinite(world.c_max / (1.0 - self.phi))):
                _fail("environment.specs", f"the largest arm cost {world.c_max!r} must stay"
                      f" finite times T = {self.T} and over 1 - phi = 1 - {self.phi!r}")
        if (self.algorithm_params.get("dynamic_carryover")
                and self.step_schedule.max_eta() >= 1.0):
            _fail("algorithm_params.dynamic_carryover", "carry-over needs every step below 1")
        # from the level q = a the step -eta * (1 - phi) * a leaves a * (1 - eta * (1 - phi))
        if self.algorithm == "newsvendor" and self.step_schedule.max_eta() * (1 - self.phi) > 1:
            _fail("schedule", f"the inventory level stays at or above 0 only for"
                  f" eta_max * (1 - phi) <= 1, got {self.step_schedule.max_eta()!r}"
                  f" * (1 - {self.phi!r})")

    @property
    def step_schedule(self) -> StepSchedule:
        """The schedule block decoded; a constant block ignores its p and index_offset."""
        s = self.schedule
        if s["kind"] == "constant":
            return StepSchedule.constant(s["c"])
        return StepSchedule.power(s["c"], s.get("p", 0.0), s.get("index_offset", 0))

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        # the keys only: a field with a default may be left out, and __post_init__
        # checks the values
        d = {"preset": "custom", **d}
        _check("", d, {f.name + "?" * (f.default is not MISSING
                                       or f.default_factory is not MISSING):
                       lambda path, x: None for f in fields(cls)})
        return cls(**d)

    def replace(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)


def _constant(eta: float) -> dict:
    return {"kind": "constant", "c": eta, "p": 0.0, "index_offset": 0}


def _power(c: float, p: float, offset: int = 0) -> dict:
    return {"kind": "power", "c": c, "p": p, "index_offset": offset}


# settings shared by the interval presets and by the score-world presets
_INTERVAL = dict(algorithm="pd_bandit", T=25000, phi=0.8,
                 environment={"kind": "interval", "delta": 0.05, "points": ["beta", 2, 5]})
_SCORES = dict(algorithm="primal_threshold", phi=0.8, environment={"kind": "score_uniform"})

# name -> (description, base settings, [(variant label, overrides), ...]).
# The base omits name, seed and replicas, which come from the caller (replicas
# defaults to 1 unless the base says otherwise), and output_dir, which the CLI
# sets; a preset with no variants runs its base once, under an empty label.
_PRESETS = {
    "interval-beta": (
        "interval selection over a 0.05 grid, skewed input points, "
        "dual-price controller, T=25000",
        dict(_INTERVAL, schedule=_constant(2.0 / math.sqrt(25000))),
        [],
    ),
    "interval-eta-sweep": (
        "interval-beta at step sizes 0.01 / 0.05 / 0.2",
        dict(_INTERVAL, schedule=_constant(0.01)),
        [(f"eta-{eta:g}", {"schedule": _constant(eta)}) for eta in (0.01, 0.05, 0.2)],
    ),
    "adversarial-shift": (
        "three-arm trap world, boundary rule vs projected dual, T=20000, target 0.5",
        dict(
            algorithm="pd_bandit",
            environment={"kind": "trap", "window": [7501, 12501]},
            T=20000,
            phi=0.5,
            schedule=_constant(0.01),
        ),
        [("boundary", {"algorithm": "pd_bandit"}),
         ("projected", {"algorithm": "pd_bandit_projected"})],
    ),
    "threshold-primal": (
        "uniform score world, direct threshold calibration, constant step 1/sqrt(T)",
        dict(_SCORES, T=20000, schedule=_constant(1.0 / math.sqrt(20000))),
        [],
    ),
    "threshold-decay": (
        "uniform score world with decaying steps t^-p, p in {0.3, 0.5, 0.7}, T=50000",
        dict(_SCORES, T=50000, schedule=_power(1.0, 0.5)),
        [(f"p-{p:g}", {"schedule": _power(1.0, p)}) for p in (0.3, 0.5, 0.7)],
    ),
    "newsvendor-shift": (
        "truncated-Poisson demand shifting 20 -> 50 mid-horizon, "
        "fill target 0.9, steps 5/sqrt(t+1)",
        dict(
            algorithm="newsvendor",
            environment={
                "kind": "poisson_demand",
                "before": 20.0,
                "after": 50.0,
                "shift_t": 500,
                "cap": 100.0,
            },
            T=1000,
            phi=0.9,
            schedule=_power(5.0, 0.5, offset=1),
            # stock starts at the announced pre-shift demand rate; the decay
            # schedule's early steps are too large for a cold start at zero
            algorithm_params={"dynamic_carryover": False, "initial_level": 20.0},
        ),
        [],
    ),
    "combinatorial-or": (
        "20-arm any-success world, position-keyed chain learner, "
        "budget controller, T=20000",
        dict(
            algorithm="acog_position",
            environment={"kind": "or_random", "n": 20, "p_low": 0.05, "p_high": 0.30},
            T=20000,
            phi=0.8,
            schedule=_constant(20.0 / (2.0 * math.sqrt(20000))),
        ),
        [],
    ),
    # score world rather than the interval grid: at these horizons the
    # 211-arm interval instance is still exploration-dominated (measured
    # log-log slope ~0.97), while the threshold controller's
    # positive-part regret shows its T^(3/4) rate cleanly
    "regret-scaling": (
        "threshold controller on the score world across T in "
        "{2000..32000}, 20 replicas each, feeds the log-log regret slope fit",
        dict(_SCORES, T=2000, schedule=_constant(1.0 / math.sqrt(2000)), replicas=20),
        [(f"T-{T}", {"T": T, "schedule": _constant(1.0 / math.sqrt(T))})
         for T in (2000, 4000, 8000, 16000, 32000)],
    ),
}


def preset_catalog() -> list[dict]:
    """Names and one-line descriptions of the built-in presets."""
    return [{"name": k, "description": v[0]} for k, v in _PRESETS.items()]


def preset_config(name: str, seed: int = 1, replicas: int | None = None) -> ExperimentConfig:
    """Resolve a preset name into its base config (variants expand later)."""
    _check("preset", name, tuple(_PRESETS))
    base = copy.deepcopy(_PRESETS[name][1])
    base["replicas"] = base.get("replicas", 1) if replicas is None else replicas
    return ExperimentConfig(preset=name, seed=seed, **base)


def expand_variants(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Expand a sweep preset's base config (variant label ``""``, as
    :func:`preset_config` returns it) into fully resolved single-run configs.
    Any other config, such as one variant's own ``config.json``, returns itself."""
    variants = _PRESETS[cfg.preset][2] if cfg.preset in _PRESETS and not cfg.variant else []
    return [cfg.replace(variant=label, **copy.deepcopy(over)) for label, over in variants] or [cfg]
