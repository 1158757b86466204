"""Declarative experiment configurations and the built-in preset catalog.

A config fully determines a run: expanding a preset resolves every
parameter (no hidden defaults beyond what is serialized), and re-running
from the written effective config reproduces the trace files byte for byte.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .control import ScheduleError, StepSchedule

ALGORITHMS = (
    "pd_bandit",
    "pd_bandit_projected",
    "primal_threshold",
    "newsvendor",
    "acog_prefix",
    "acog_position",
)


class ConfigError(ValueError):
    """A config file or flag set fails validation."""


def checked(path: str, value, kind: type = float):
    """``value`` if a ``kind`` (ints count as floats; bools only as bools); else
    ConfigError at ``path``."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"key '{path}': expected {kind.__name__}, got {value!r}")
    return value


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
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if checked("T", self.T, int) < 1:
            raise ConfigError("key 'T': horizon must be at least 1")
        if not 0.0 < checked("phi", self.phi) < 1.0:
            raise ConfigError("key 'phi': target must lie strictly in (0, 1)")
        if checked("replicas", self.replicas, int) < 1:
            raise ConfigError("key 'replicas': must be at least 1")
        checked("seed", self.seed, int)
        checked("preset", self.preset, str)
        checked("variant", self.variant, str)
        if self.output_dir is not None:
            checked("output_dir", self.output_dir, str)
        if not isinstance(self.environment, dict) or "kind" not in self.environment:
            raise ConfigError("key 'environment': missing 'kind' tag")
        checked("environment.kind", self.environment["kind"], str)
        checked("algorithm_params", self.algorithm_params, dict)
        schedule = checked("schedule", self.schedule, dict)
        for key, kind, default in (("kind", str, None), ("c", float, None),
                                   ("p", float, 0.0), ("index_offset", int, 0)):
            checked(f"schedule.{key}", schedule.get(key, default), kind)
        try:
            StepSchedule.from_dict(schedule)
        except ScheduleError as err:
            raise ConfigError(f"key 'schedule.{err.field}': {err}") from err

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"algorithm", "environment", "T", "phi", "schedule", "seed"} - set(d)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        d = dict(d)
        d.setdefault("preset", "custom")
        return cls(**d)

    def replace(self, **overrides) -> "ExperimentConfig":
        d = self.to_dict()
        d.update(overrides)
        return ExperimentConfig.from_dict(d)


def _constant(eta: float) -> dict:
    return {"kind": "constant", "c": eta, "p": 0.0, "index_offset": 0}


def _power(c: float, p: float, offset: int = 0) -> dict:
    return {"kind": "power", "c": c, "p": p, "index_offset": offset}


# settings shared by the interval presets and by the score-world presets
_INTERVAL = dict(algorithm="pd_bandit", T=25000, phi=0.8,
                 environment={"kind": "interval", "delta": 0.05, "points": ["beta", 2, 5]})
_SCORES = dict(algorithm="primal_threshold", phi=0.8, environment={"kind": "score_uniform"})

# name -> (description, base settings, [(variant label, overrides), ...]).
# The base omits name, seed, replicas and output_dir, which come from the
# caller (replicas defaults to 1 unless the base says otherwise); a preset
# with no variants runs its base once, under an empty label.
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


def preset_config(name: str, seed: int = 1, replicas: int | None = None,
                  output_dir: str | None = None) -> ExperimentConfig:
    """Resolve a preset name into its base config (variants expand later)."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; see list-presets")
    base = copy.deepcopy(_PRESETS[name][1])
    base["replicas"] = replicas or base.get("replicas", 1)
    return ExperimentConfig(preset=name, seed=seed, output_dir=output_dir, **base)


def expand_variants(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Expand sweep presets into fully resolved single-run configs.

    Single presets return themselves (with an empty variant label).
    """
    variants = _PRESETS[cfg.preset][2] if cfg.preset in _PRESETS else []
    return [cfg.replace(variant=label, **copy.deepcopy(over)) for label, over in variants] or [cfg]
