"""Sub-shot-noise transmission measurement simulator.

Models coherent, Fock and time-multiplexed heralded single-photon sources,
evaluates transmission estimators under number-resolving and threshold
detection (exactly and by Monte Carlo), and runs the benchmark sweeps behind
the `subshot` command line tool.
"""

from subshot.pmf import (
    DEFAULT_TRUNCATION_EPS,
    Moments,
    Pmf,
    apply_loss,
    fock_pmf,
    moments,
    poisson_pmf,
    poisson_rows,
    vacuum_pmf,
)
from subshot.sources import (
    Coherent,
    Fock,
    Multiplexed,
    MuxParams,
    Source,
    herald_click_probability,
    make_multiplexed,
    mux_click_probability,
    mux_output_pmf,
    mux_output_rows,
    source_click_probability,
    source_moments,
    source_pmf,
    sync_probability,
    sync_probability_at,
    tune_pair_mean,
    unreachable_field,
)
from subshot.detection import (
    Channel,
    click_probability,
    nr_detected_moments,
    nr_detected_pmf,
)
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
