"""Monte Carlo engine: exact-report validation, reproducibility, and the
pump-fluctuation study machinery."""

import math

import numpy as np
import pytest

from subshot.detection import Channel, click_probability, nr_detected_pmf
from subshot.estimators import (
    Detector,
    exact_report_nr,
    exact_report_threshold,
    make_estimator_spec,
)
from subshot.montecarlo import (
    FluctuationConfig,
    NegativeDraws,
    PumpRedraw,
    fluctuation_study,
    mc_estimate,
)
from subshot.sources import (
    Coherent,
    Fock,
    Multiplexed,
    MuxParams,
    make_multiplexed,
    mux_click_probability,
    mux_output_rows,
    source_pmf,
)

CH = Channel(0.8, 0.9)


class TestMcEstimate:
    def test_perfect_fock_channel_has_zero_error(self):
        spec = make_estimator_spec(Fock(1), Detector.NUMBER_RESOLVING, 1.0, 50)
        res = mc_estimate(spec, Channel(1.0, 1.0), trials=2000, seed=1)
        assert res.expectation == 1.0
        assert res.mse == 0.0

    def test_coherent_nr_matches_exact_report(self):
        spec = make_estimator_spec(Coherent(1.0), Detector.NUMBER_RESOLVING, 0.9, 200)
        res = mc_estimate(spec, CH, trials=100_000, seed=2)
        exact = exact_report_nr(Coherent(1.0), CH, 200)
        assert abs(res.expectation - exact.expectation) < 4 * res.expectation_se
        assert abs(res.mse - exact.mse) < 4 * res.mse_se

    def test_multiplexed_threshold_matches_exact_report(self):
        src = make_multiplexed(2, 1.0)
        ch = Channel(0.9, 0.9)
        spec = make_estimator_spec(src, Detector.THRESHOLD, 0.9, 200)
        res = mc_estimate(spec, ch, trials=100_000, seed=3)
        exact = exact_report_threshold(src, ch, 200)
        assert abs(res.expectation - exact.expectation) < 4 * res.expectation_se
        assert abs(res.mse - exact.mse) < 4 * res.mse_se

    def test_deterministic_per_seed(self):
        spec = make_estimator_spec(Coherent(0.5), Detector.NUMBER_RESOLVING, 0.9, 50)
        a = mc_estimate(spec, CH, trials=5000, seed=9)
        b = mc_estimate(spec, CH, trials=5000, seed=9)
        assert a == b

    def test_chunking_does_not_change_the_stream(self):
        spec = make_estimator_spec(Coherent(0.5), Detector.NUMBER_RESOLVING, 0.9, 50)
        a = mc_estimate(spec, CH, trials=5000, seed=9, chunk_size=512)
        b = mc_estimate(spec, CH, trials=5000, seed=9, chunk_size=5000)
        assert a == b

    def test_invalid_trials_rejected(self):
        spec = make_estimator_spec(Coherent(0.5), Detector.NUMBER_RESOLVING, 0.9, 50)
        with pytest.raises(ValueError):
            mc_estimate(spec, CH, trials=0, seed=0)


class TestBatchBuilders:
    """The per-pump-batch source functions the fluctuation rounds sample from
    must agree with the scalar pipeline (the PMF thinned by a loss matrix)."""

    def test_detected_rows_match_scalar_pipeline(self):
        params = MuxParams(stages=3, pair_mean=0.27, herald_eff=0.8)
        rows = mux_output_rows(params, np.array([0.27]), CH.survival, 1e-18)
        scalar = nr_detected_pmf(source_pmf(Multiplexed(params)), CH)
        n = min(rows.shape[1], scalar.n_max + 1)
        np.testing.assert_allclose(rows[0, :n], scalar.probs[:n], rtol=0, atol=1e-12)

    def test_click_probabilities_match_scalar_pipeline(self):
        params = MuxParams(stages=2, pair_mean=0.4, herald_eff=0.7)
        got = mux_click_probability(params, np.array([0.4, 0.1]), CH.survival)
        for mu, value in zip((0.4, 0.1), got):
            p = source_pmf(Multiplexed(MuxParams(stages=2, pair_mean=mu, herald_eff=0.7)))
            assert value == pytest.approx(click_probability(p, CH), abs=1e-12)

    def test_zero_pump_rows_are_vacuum(self):
        params = MuxParams(stages=2, pair_mean=0.0, herald_eff=0.7)
        rows = mux_output_rows(params, np.array([0.0]), 0.72, 1e-18)
        assert rows[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert rows[0, 1:].sum() == pytest.approx(0.0, abs=1e-15)


class TestFluctuationStudy:
    def test_zero_fluctuation_matches_exact_mse(self):
        cfg = FluctuationConfig(a_grid=(0.0,), rounds=800, nu=200, target_mean=0.5)
        res = fluctuation_study(cfg, Coherent(0.5), Detector.NUMBER_RESOLVING, CH, seed=5)
        exact = exact_report_nr(Coherent(0.5), CH, 200).mse
        # mean of 800 squared errors: relative standard error ~ sqrt(2/800)
        assert res[0].mean_mse == pytest.approx(exact, rel=0.25)

    def test_zero_fluctuation_matches_exact_mse_multiplexed(self):
        src = make_multiplexed(5, 0.5)
        cfg = FluctuationConfig(a_grid=(0.0,), rounds=800, nu=200, target_mean=0.5)
        res = fluctuation_study(cfg, src, Detector.THRESHOLD, CH, seed=6)
        exact = exact_report_threshold(src, CH, 200).mse
        assert res[0].mean_mse == pytest.approx(exact, rel=0.25)

    def test_fluctuations_inflate_mse(self):
        cfg = FluctuationConfig(a_grid=(0.0, 0.6), rounds=50)
        for src in (Coherent(0.5), Multiplexed(MuxParams(stages=5, pair_mean=0.1))):
            for det in (Detector.NUMBER_RESOLVING, Detector.THRESHOLD):
                res = fluctuation_study(cfg, src, det, CH, seed=7)
                assert res[-1].mean_mse > res[0].mean_mse

    def test_multiplexed_more_robust_than_coherent(self):
        """The saturating pump-to-output map damps fluctuations."""
        cfg = FluctuationConfig(a_grid=(0.0, 0.6), rounds=200)
        infl = {}
        for name, src in [("coh", Coherent(0.5)), ("mux", Multiplexed(MuxParams(stages=5, pair_mean=0.1)))]:
            res = fluctuation_study(cfg, src, Detector.NUMBER_RESOLVING, CH, seed=8)
            infl[name] = res[-1].mean_mse / res[0].mean_mse
        assert infl["mux"] < infl["coh"]

    def test_mse_standard_error(self):
        """mse_se is std(ddof=1)/sqrt(rounds) of the rounds' squared errors.

        At a = 0 the coherent round total K is Poisson with mean M = nu * t *
        eta * n, so the squared error (K - M)^2 / (nu * eta * n)^2 has
        standard deviation sqrt(M + 2 M^2) / (nu * eta * n)^2 exactly.  Over
        2000 rounds the sample standard deviation is within ~4% of it.
        """
        cfg = FluctuationConfig(a_grid=(0.0, 0.4), rounds=2000, nu=200)
        res = fluctuation_study(cfg, Coherent(0.5), Detector.NUMBER_RESOLVING, CH, seed=4)
        m = cfg.nu * CH.survival * 0.5
        sd = math.sqrt(m + 2.0 * m * m) / (cfg.nu * CH.detector_eff * 0.5) ** 2
        assert res[0].mse_se == pytest.approx(sd / math.sqrt(cfg.rounds), rel=0.2)
        for s in res:
            assert 0.0 < s.mse_se < s.mean_mse

    def test_reproducible_per_seed(self):
        cfg = FluctuationConfig(rounds=40)
        a = fluctuation_study(cfg, Coherent(0.5), Detector.THRESHOLD, CH, seed=42)
        b = fluctuation_study(cfg, Coherent(0.5), Detector.THRESHOLD, CH, seed=42)
        assert a == b

    def test_percentiles_ordered(self):
        cfg = FluctuationConfig(rounds=60)
        for s in fluctuation_study(cfg, Coherent(0.5), Detector.NUMBER_RESOLVING, CH, seed=1):
            assert s.ci_low <= s.mean_mse or s.ci_low <= s.ci_high
            assert s.ci_low <= s.ci_high

    def test_per_repetition_mode_runs_and_inflates_less(self):
        """Independent per-repetition pump noise averages out within a round,
        so it inflates the MSE far less than a shared per-round drift."""
        per_rep = FluctuationConfig(
            a_grid=(0.0, 0.6), rounds=300, redraw=PumpRedraw.PER_REPETITION
        )
        per_round = FluctuationConfig(a_grid=(0.0, 0.6), rounds=300)
        src = Coherent(0.5)
        r_rep = fluctuation_study(per_rep, src, Detector.NUMBER_RESOLVING, CH, seed=11)
        r_round = fluctuation_study(per_round, src, Detector.NUMBER_RESOLVING, CH, seed=11)
        infl_rep = r_rep[-1].mean_mse / r_rep[0].mean_mse
        infl_round = r_round[-1].mean_mse / r_round[0].mean_mse
        assert 1.0 < infl_rep < 3.0
        assert infl_round > 5.0

    def test_resample_mode_runs(self):
        cfg = FluctuationConfig(
            a_grid=(0.0, 0.6), rounds=40, negatives=NegativeDraws.RESAMPLE
        )
        res = fluctuation_study(cfg, Coherent(0.5), Detector.THRESHOLD, CH, seed=2)
        assert len(res) == 2 and all(np.isfinite(s.mean_mse) for s in res)

    def test_fock_source_rejected(self):
        with pytest.raises(TypeError):
            fluctuation_study(FluctuationConfig(), Fock(1), Detector.THRESHOLD, CH, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a_grid": (0.7,)},
            {"a_grid": ()},
            {"rounds": 1},
            {"nu": 0},
            {"target_mean": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FluctuationConfig(**kwargs)
