"""Sub-shot-noise transmission measurement simulator.

Models coherent, Fock and time-multiplexed heralded single-photon sources,
evaluates transmission estimators under number-resolving and threshold
detection (exactly and by Monte Carlo), and runs the benchmark sweeps behind
the `subshot` command line tool.
"""

from subshot.pmf import Moments, poisson_rows
from subshot.sources import (
    Coherent,
    ConfigError,
    Fock,
    Multiplexed,
    Source,
    make_multiplexed,
    source_moments,
    source_pump,
    tune_pair_mean,
)
from subshot.detection import Channel, Detector, detected_moments, detected_row_plan
from subshot.estimators import (
    EstimatorReport,
    asymptotic_relative_mse_floor,
    exact_report,
    relative_mse_percent,
    snl_ratio,
    snl_report,
)
from subshot.montecarlo import (
    NEGATIVES,
    REDRAWS,
    FluctuationConfig,
    McEstimate,
    McSummary,
    fluctuation_mse,
    fluctuation_study,
    mc_estimate,
    pump_nodes,
)

__version__ = "0.1.0"
