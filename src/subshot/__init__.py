"""Sub-shot-noise transmission measurement simulator.

Models coherent, Fock and time-multiplexed heralded single-photon sources,
evaluates transmission estimators under number-resolving and threshold
detection (exactly and by Monte Carlo), and runs the benchmark sweeps behind
the `subshot` command line tool.
"""

from subshot.pmf import Moments, poisson_rows
from subshot.sources import (
    Coherent,
    Fock,
    Multiplexed,
    MuxParams,
    Source,
    make_multiplexed,
    mux_click_probability,
    mux_output_rows,
    source_click_probability,
    source_moments,
    sync_probability_at,
    tune_pair_mean,
    unreachable_field,
)
from subshot.detection import Channel, nr_detected_moments
from subshot.estimators import (
    Detector,
    EstimatorReport,
    EstimatorSpec,
    asymptotic_relative_mse_floor,
    exact_report,
    exact_report_nr,
    exact_report_threshold,
    make_estimator_spec,
    relative_mse_percent,
    snl_ratio,
    snl_report,
)
from subshot.montecarlo import (
    FluctuationConfig,
    McEstimate,
    McSummary,
    NegativeDraws,
    PumpRedraw,
    fluctuation_study,
    mc_estimate,
)

__version__ = "0.1.0"
