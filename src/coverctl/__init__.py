"""Online coverage controllers with unprojected additive calibration.

The package couples one update rule — state += eta * (target - feedback) —
to four selection mechanisms (a dual-priced arm selector, a direct score
threshold, a base-stock inventory level, and a greedy probing chain), plus
the simulation environments, exact offline benchmarks, metrics, and the
CLI harness that reproduce the reference experiments.
"""

from .bandit import (
    BanditConfig,
    BanditState,
    bandit_step,
    select_arm,
)
from .chains import ChainConfig, ChainStats, acog_step, budget_from_theta, select_chain
from .control import ControllerState, StepSchedule, aci_update
from .metrics import (
    MetricsReport,
    Trace,
    TraceRecord,
    coverage_series,
    deviation_counter,
    regret_series,
    sublinearity_fit,
)
from .oracles import (
    GreedyReport,
    LpSolution,
    greedy_chain,
    interval_benchmark,
    lp_benchmark,
    newsvendor_benchmark,
    threshold_benchmark,
)
from .presets import ExperimentConfig, preset_catalog, preset_config
from .threshold import NewsvendorConfig, ThresholdConfig, newsvendor_step, threshold_step

__version__ = "0.1.0"
