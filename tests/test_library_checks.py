"""Range checks of the library constructors, the rule that keeps every
check alive under ``python -O``, and the rule that every error the package
defines has a CLI exit code."""

import ast
import importlib
import math
from pathlib import Path

import pytest

import coverctl
from coverctl.bandit import BanditConfig
from coverctl.control import ControllerState, InvariantViolation, StepSchedule
from coverctl.environments import (ArmSpec, IntervalWorld, PoissonDemand, TrapWorld,
                                   draw_or_probabilities)
from coverctl.oracles import beta_cdf, interval_benchmark, newsvendor_benchmark
from coverctl.threshold import NewsvendorConfig, ThresholdConfig

_STEP = StepSchedule(0.1)


def _bandit(**over):
    return BanditConfig(**{"n": 3, "c_max": 1.0, "phi": 0.5, "horizon_T": 10, "i_min": 2,
                           "i_max": 0, **over})


# each row is an out-of-range value that a library constructor must refuse
# with ValueError: not accept it, and not fail with OverflowError or
# ZeroDivisionError, which are not ValueErrors
_BAD = {
    "schedule-c-nan": lambda: StepSchedule(math.nan),
    "schedule-c-inf": lambda: StepSchedule(math.inf),
    "schedule-offset-nan": lambda: StepSchedule(1.0, 0.5, math.nan),
    "schedule-offset-inf": lambda: StepSchedule(1.0, 0.5, math.inf),
    "state-value-nan": lambda: ControllerState(math.nan, 0.5, _STEP),
    "state-value-inf": lambda: ControllerState(math.inf, 0.5, _STEP),
    "state-value-minus-inf": lambda: ControllerState(-math.inf, 0.5, _STEP),
    "interval-delta-1e-320": lambda: IntervalWorld(1e-320, ("uniform",), 1),
    "interval-shape-inf": lambda: IntervalWorld(0.25, ("beta", math.inf, 2), 1),
    "interval-shape-minus-inf": lambda: IntervalWorld(0.25, ("beta", 2, -math.inf), 1),
    # C(1199, 600) and more of beta_cdf's coefficients exceed the largest float
    "interval-shape-overflow": lambda: IntervalWorld(0.25, ("beta", 600, 600), 1),
    "beta-cdf-shape-zero": lambda: beta_cdf(0.5, 0, 1),
    "beta-cdf-shape-fractional": lambda: beta_cdf(0.5, 2.5, 3),
    "benchmark-delta-1e-320": lambda: interval_benchmark(1e-320, lambda x: x, 0.5),
    "benchmark-delta-zero": lambda: interval_benchmark(0.0, lambda x: x, 0.5),
    "benchmark-delta-minus-zero": lambda: interval_benchmark(-0.0, lambda x: x, 0.5),
    "poisson-before-nan": lambda: PoissonDemand(math.nan, 5.0, 10, 20.0, 1),
    "poisson-after-nan": lambda: PoissonDemand(5.0, math.nan, 10, 20.0, 1),
    "poisson-before-inf": lambda: PoissonDemand(math.inf, 5.0, 10, 20.0, 1),
    "poisson-cap-inf": lambda: PoissonDemand(5.0, 5.0, 10, math.inf, 1),
    # exp(-800) is 0.0: every term of the law underflows, and its mass would sit on the cap
    "poisson-rate-subnormal": lambda: PoissonDemand(800.0, 800.0, 0, 2000.0, 1),
    # a NaN weight makes the total NaN, which no tolerance test of |total - 1| passes
    "newsvendor-pmf-nan": lambda: newsvendor_benchmark({1: math.nan, 2: 1.0}, 0.5),
    "trap-end-inf": lambda: TrapWorld((0, math.inf)),
    "arm-cost-negative": lambda: ArmSpec(0.5, -0.1),
    "arm-cost-nan": lambda: ArmSpec(0.5, math.nan),
    "arm-cost-inf": lambda: ArmSpec(0.5, math.inf),
    "arm-range-reversed": lambda: ArmSpec(0.5, (0.3, 0.1)),
    "arm-range-negative-lo": lambda: ArmSpec(0.5, (-0.1, 0.2)),
    "arm-range-hi-inf": lambda: ArmSpec(0.5, (0.1, math.inf)),
    "or-range-reversed": lambda: draw_or_probabilities(3, 0.9, 0.1, 1),
    "or-range-nan": lambda: draw_or_probabilities(3, math.nan, 0.5, 1),
    "bandit-c-max-nan": lambda: _bandit(c_max=math.nan),
    "bandit-c-max-inf": lambda: _bandit(c_max=math.inf),
    "bandit-lambda-cap-nan": lambda: _bandit(lambda_cap=math.nan),
    "bandit-lambda-cap-inf": lambda: _bandit(lambda_cap=math.inf),
    "threshold-tau-max-nan": lambda: ThresholdConfig(0.0, math.nan, 0.5, _STEP),
    "newsvendor-cap-nan": lambda: NewsvendorConfig(math.nan, 0.5, _STEP),
}


@pytest.mark.parametrize("build", _BAD.values(), ids=_BAD.keys())
def test_library_constructors_refuse_out_of_range_values(build):
    with pytest.raises(ValueError):
        build()


def _package_nodes():
    """(path, node) for every AST node of every module in the package."""
    for path in sorted(Path(coverctl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path, node


def test_library_has_no_assert_statements():
    # python -O strips asserts, and every invariant must hold in that mode too
    found = [f"{path.name}:{node.lineno}"
             for path, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_every_exception_the_package_defines_has_a_cli_exit_code():
    # cli.main maps ValueError (ConfigError and InfeasibleBenchmarkError among
    # them) to exit 2 or 3 and InvariantViolation to exit 4; any other error
    # would end in a traceback
    classes = [getattr(importlib.import_module(f"coverctl.{path.stem}"), node.name)
               for path, node in _package_nodes() if isinstance(node, ast.ClassDef)]
    errors = [cls for cls in classes
              if issubclass(cls, Exception) and not issubclass(cls, Warning)]
    assert {cls.__name__ for cls in errors} >= {"ConfigError", "InvariantViolation"}
    assert [cls.__name__ for cls in errors
            if not issubclass(cls, (ValueError, InvariantViolation))] == []
