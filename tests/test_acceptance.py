"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to see them).  Exact-computation
criteria use tight tolerances; Monte Carlo criteria use seeded runs with
4-standard-error bands.

C16b checks the absolute MSE inflation of the default pump-fluctuation model
(pump redrawn per round, negative draws clamped) against the exact quadrature
oracle in `_oracles.py`: 24.84x coherent and 9.46x multiplexed m=5 at a=0.6.
Published-style factors (3.4x / 2.1x) fall between what the two documented
pump correlation models give with clamped negatives (1.14x / 2.00x per
repetition, 24.84x / 9.46x per round) and are reproduced by neither; see
README "Known residuals".
"""

import math
from statistics import NormalDist

import numpy as np
import pytest

from _oracles import (
    enumerate_mux_output,
    nr_mse_fluctuating_pump,
    poisson_probs,
    thinned_count_moments,
    tune_pump,
)
from subshot.detection import Channel
from subshot import montecarlo
from subshot.estimators import Detector, exact_report, reference_mean, snl_ratio, snl_report
from subshot.montecarlo import FluctuationConfig, fluctuation_study, mc_estimate, pump_nodes
from subshot.sources import (
    Coherent,
    CountRows,
    Fock,
    Multiplexed,
    make_multiplexed,
    source_click_probabilities,
    tune_pair_mean,
)

ETA = 0.9
NU = 200
T_GRID = np.linspace(0.0, 1.0, 101)
STAGE_RANGE = range(1, 7)


def check(cid: str, description: str, passed: bool, detail: str = "") -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {cid}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def mux_mean1():
    return {m: make_multiplexed(m, 1.0) for m in STAGE_RANGE}


@pytest.fixture(scope="module")
def flux_studies():
    """Fluctuation studies for C11 and C16, shared across tests.

    1500 rounds instead of the experiment default 50: the monotonicity checks
    compare adjacent grid points whose exact separation is a few percent.
    """
    ch = Channel(0.8, ETA)
    cfg = FluctuationConfig(rounds=1500, nu=NU)
    sources = {
        "coherent": Coherent(0.5),
        "mux3": make_multiplexed(3, 0.5),
        "mux5": make_multiplexed(5, 0.5),
    }
    keys = [(name, det) for det in Detector for name in sources]
    pairs = [(sources[name], det) for name, det in keys]
    return dict(zip(keys, fluctuation_study(cfg, pairs, ch, seed=20240)))


@pytest.fixture(scope="module")
def flux_round_errors(flux_studies):
    """Each round's squared error, shape (a, rounds), for each pair of
    `flux_studies`: the same config, pairs and seed, from the engine's round
    totals, with the bits `fluctuation_study` forms them with."""
    ch = Channel(0.8, ETA)
    cfg = FluctuationConfig(rounds=1500, nu=NU)
    sources = {
        "coherent": Coherent(0.5),
        "mux3": make_multiplexed(3, 0.5),
        "mux5": make_multiplexed(5, 0.5),
    }
    pairs = [(sources[name], det) for name, det in flux_studies]
    nodes = pump_nodes(cfg.a_grid, cfg.negatives)
    totals = montecarlo._study_totals(cfg, pairs, ch.survival, 20240, nodes)
    scales = [cfg.nu * reference_mean(source, det, ETA) for source, det in pairs]
    return {key: (pair_totals / scale - ch.transmission) ** 2
            for key, pair_totals, scale in zip(flux_studies, totals, scales)}


def test_c01_nr_unbiasedness(mux_mean1):
    worst = 0.0
    for source in (Coherent(1.0), Fock(1), mux_mean1[2]):
        for t in T_GRID:
            rep = exact_report(source, Detector.NUMBER_RESOLVING, Channel(float(t), ETA), NU)
            worst = max(worst, abs(rep.bias))
    check(
        "C01",
        "number-resolving estimators unbiased for all three sources on the t-grid",
        worst < 1e-12,
        f"max |bias| = {worst:.2e}",
    )


def test_c02_coherent_nr_mse_closed_form():
    worst = 0.0
    for t in T_GRID:
        rep = exact_report(Coherent(1.0), Detector.NUMBER_RESOLVING, Channel(float(t), ETA), NU)
        worst = max(worst, abs(rep.mse - t / (NU * ETA * 1.0)))
    spot = exact_report(Coherent(1.0), Detector.NUMBER_RESOLVING, Channel(0.8, ETA), NU).mse
    ok = worst < 1e-12 and abs(spot - 4.444444444444444e-3) < 1e-12
    check(
        "C02",
        "coherent NR MSE equals t/(nu*eta*mean); 4.444e-3 at t=0.8",
        ok,
        f"max dev = {worst:.2e}, spot = {spot:.12e}",
    )


def test_c03_fock_nr_mse_and_uql_ratio():
    worst_mse = 0.0
    worst_ratio = 0.0
    for t in T_GRID:
        ch = Channel(float(t), ETA)
        rep = exact_report(Fock(1), Detector.NUMBER_RESOLVING, ch, NU)
        worst_mse = max(worst_mse, abs(rep.mse - t * (1 - t * ETA) / (NU * ETA)))
        if t > 0:
            ratio = snl_ratio(rep, snl_report(1.0, ch, NU))
            worst_ratio = max(worst_ratio, abs(ratio - 1.0 / (1.0 - t * ETA)))
    check(
        "C03",
        "Fock NR MSE equals t(1-t*eta)/(nu*eta); UQL/SNL ratio equals 1/(1-t*eta)",
        worst_mse < 1e-12 and worst_ratio < 1e-9,
        f"max MSE dev = {worst_mse:.2e}, max ratio dev = {worst_ratio:.2e}",
    )


def test_c04_fock_click_probability():
    worst = 0.0
    for t in T_GRID:
        p = source_click_probabilities(Fock(1), Channel(float(t), ETA).survival)[1]
        worst = max(worst, abs(p - t * ETA))
    check(
        "C04",
        "threshold Fock click probability equals t*eta",
        worst < 1e-15,
        f"max dev = {worst:.2e}",
    )


def test_c05_threshold_bias_endpoints(mux_mean1):
    sources = (Coherent(1.0), Fock(1), mux_mean1[2])
    exact_zero = all(
        exact_report(s, Detector.THRESHOLD, Channel(t, ETA), NU).bias == 0.0
        for s in sources
        for t in (0.0, 1.0)
    )
    biased_inside = all(
        abs(exact_report(s, Detector.THRESHOLD, Channel(0.5, ETA), NU).bias) > 1e-6
        for s in (Coherent(1.0), mux_mean1[2])
    )
    check(
        "C05",
        "threshold bias exactly 0 at t in {0,1}, nonzero at t=0.5 for coherent/multiplexed",
        exact_zero and biased_inside,
    )


def test_c06_asymptotic_bias_floor(mux_mean1):
    ok = True
    details = []
    for source in (Coherent(1.0), mux_mean1[2]):
        for t in (0.3, 0.6, 0.9):
            rep = exact_report(source, Detector.THRESHOLD, Channel(t, ETA), nu=10**6)
            rel = abs(rep.mse - rep.bias**2) / rep.bias**2
            details.append(f"{rel:.1e}")
            ok = ok and rel < 0.01
    check(
        "C06",
        "threshold MSE at nu=1e6 within 1% of bias^2 for t in {0.3, 0.6, 0.9}",
        ok,
        "rel dev: " + ", ".join(details),
    )


def test_c07_click_count_identity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(25):
        kind = rng.integers(3)
        if kind == 0:
            src = Coherent(float(rng.uniform(0.05, 3.0)))
        elif kind == 1:
            src = Fock(int(rng.integers(1, 4)))
        else:
            src = Multiplexed(
                stages=int(rng.integers(1, 6)),
                pair_mean=float(rng.uniform(0.02, 1.0)),
                herald_eff=float(rng.uniform(0.3, 1.0)),
            )
        ch = Channel(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.4, 1.0)))
        detected = CountRows(src, ch.survival).rows()
        dev = abs(source_click_probabilities(src, ch.survival)[1] - (1.0 - detected[0]))
        worst = max(worst, dev)
    check(
        "C07",
        "click probability equals 1 - P(0 detected) on random configurations",
        worst < 1e-12,
        f"max dev = {worst:.2e}",
    )


def test_c08_mux_model_matches_enumeration():
    worst = 0.0
    for m in (1, 2, 3):
        for mu in (0.05, 0.25, 0.5):
            src = Multiplexed(
                stages=m,
                pair_mean=mu,
                herald_eff=0.9,
                stage_transmission=0.88,
                optics_transmission=0.9,
            )
            expected = enumerate_mux_output(m, mu, 0.9, 0.88, 0.9)
            out = CountRows(src, 1.0).rows()
            got = np.zeros(len(expected))
            got[: min(out.size, len(expected))] = out[: len(expected)]
            worst = max(worst, float(np.abs(got - np.array(expected)).max()))
    check(
        "C08",
        "closed-form source model equals event-level enumeration (m<=3, mu<=0.5)",
        worst < 1e-10,
        f"max entry dev = {worst:.2e}",
    )


def test_c09_pump_tuning_residuals():
    worst = 0.0
    for m in STAGE_RANGE:
        src = Multiplexed(stages=m, pair_mean=0.0)
        for target in (0.1, 0.5, 1.0):
            mu = tune_pair_mean(src, target)
            # Summed over the enumerated distribution, not read from the
            # closed-form mean the tuning solves for.
            probs = enumerate_mux_output(m, mu, 0.9, 0.88, 0.9, n_cut=25)
            achieved = thinned_count_moments(probs, 1.0)[0]
            worst = max(worst, abs(achieved - target))
    check(
        "C09",
        "pump tuning residual < 1e-9 at targets {0.1, 0.5, 1.0} for m in 1..6",
        worst < 1e-9,
        f"max residual = {worst:.2e}",
    )


def test_c10_monte_carlo_matches_exact_reports(mux_mean1):
    ch = Channel(0.8, ETA)
    canned = [
        (Coherent(1.0), Detector.NUMBER_RESOLVING),
        (Coherent(1.0), Detector.THRESHOLD),
        (Fock(1), Detector.NUMBER_RESOLVING),
        (Fock(1), Detector.THRESHOLD),
        (mux_mean1[2], Detector.NUMBER_RESOLVING),
        (mux_mean1[5], Detector.THRESHOLD),
    ]
    worst_z = 0.0
    for index, (source, detector) in enumerate(canned):
        mc = mc_estimate(source, detector, ch, NU, trials=100_000, seed=500 + index)
        exact = exact_report(source, detector, ch, NU)
        worst_z = max(
            worst_z,
            abs(mc.expectation - exact.expectation) / mc.expectation_se,
            abs(mc.mse - exact.mse) / mc.mse_se,
        )
    check(
        "C10",
        "Monte Carlo matches exact reports within 4 SE at 1e5 trials (6 configs)",
        worst_z < 4.0,
        f"max |z| = {worst_z:.2f}",
    )


def test_c11_fluctuation_study_consistency(flux_studies):
    ch = Channel(0.8, ETA)
    sources = {
        "coherent": Coherent(0.5),
        "mux3": make_multiplexed(3, 0.5),
        "mux5": make_multiplexed(5, 0.5),
    }
    ok_zero = True
    details = []
    for (name, det), summaries in flux_studies.items():
        exact = exact_report(sources[name], det, ch, NU).mse
        rel = abs(summaries[0].mean_mse / exact - 1.0)
        details.append(f"{name}/{det.value}: {rel:.3f}")
        ok_zero = ok_zero and rel < 0.15  # 4 x the ~3.7% SE of the mean at 1500 rounds
    ok_monotone = all(
        np.all(np.diff([s.mean_mse for s in summaries]) >= 0)
        for summaries in flux_studies.values()
    )
    check(
        "C11",
        "fluctuation study at a=0 matches exact MSE; mean MSE non-decreasing in a",
        ok_zero and ok_monotone,
        "; ".join(details),
    )


# C11b: each sampled step of the mean MSE between adjacent fractions, in
# units of its own standard error, against the exact step.  Bonferroni over
# the 6 pairs x 6 steps keeps the family-wise false alarm rate at 1e-3
# (normal approximation of a mean over 1500 rounds).
C11B_STEPS = 6 * 6
C11B_Z_MAX = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * C11B_STEPS))


def test_c11b_fluctuation_steps_match_the_exact_steps(flux_studies, flux_round_errors):
    """The seed-independent companion of C11's monotone clause.  The
    fractions share each round's stream (common random numbers), so a
    step's standard error is that of the per-round difference of squared
    errors, not a difference of the two means' errors."""
    worst, details = 0.0, []
    for (name, det), summaries in flux_studies.items():
        sq_err = flux_round_errors[name, det]
        assert sq_err.mean(axis=-1).tolist() == [s.mean_mse for s in summaries]
        steps = np.diff(sq_err, axis=0)
        se = steps.std(ddof=1, axis=-1) / math.sqrt(steps.shape[-1])
        exact = np.diff([s.mse_exact for s in summaries])
        z = np.abs(steps.mean(axis=-1) - exact) / se
        worst = max(worst, float(z.max()))
        details.append(f"{name}/{det.value}: {z.max():.2f}")
    assert sum(map(len, flux_studies.values())) - len(flux_studies) == C11B_STEPS
    check(
        "C11b",
        f"each sampled step of mean MSE in a is its exact step within {C11B_Z_MAX:.2f} SE",
        worst <= C11B_Z_MAX,
        "max |z| " + "; ".join(details),
    )


def test_c12_nr_ratio_advantage_and_optimal_stage_count(mux_mean1):
    all_above_one = True
    for t in T_GRID[1:]:
        ch = Channel(float(t), ETA)
        snl = snl_report(1.0, ch, NU)
        for m in STAGE_RANGE:
            ratio = snl_ratio(exact_report(mux_mean1[m], Detector.NUMBER_RESOLVING, ch, NU), snl)
            all_above_one = all_above_one and ratio > 1.0
    ch = Channel(0.5, ETA)
    snl = snl_report(1.0, ch, NU)
    ratios = {
        m: snl_ratio(exact_report(mux_mean1[m], Detector.NUMBER_RESOLVING, ch, NU), snl)
        for m in STAGE_RANGE
    }
    best_m = max(ratios, key=ratios.get)
    check(
        "C12",
        "NR ratio > 1 for all t in (0,1] and m in 1..6; optimum m interior in {2,3}",
        all_above_one and best_m in (2, 3),
        f"optimum m = {best_m}, ratios = "
        + ", ".join(f"m{m}:{r:.3f}" for m, r in ratios.items()),
    )


def test_c13_threshold_ratio_above_two_near_transparency(mux_mean1):
    best = 0.0
    for t in T_GRID[90:]:
        ch = Channel(float(t), ETA)
        snl = snl_report(1.0, ch, NU)
        for m in STAGE_RANGE:
            ratio = snl_ratio(exact_report(mux_mean1[m], Detector.THRESHOLD, ch, NU), snl)
            best = max(best, ratio)
    coh_high_t = []
    for t in (0.95, 0.98, 1.0):
        ch = Channel(t, ETA)
        coh_high_t.append(
            snl_ratio(
                exact_report(Coherent(1.0), Detector.THRESHOLD, ch, NU), snl_report(1.0, ch, NU)
            )
        )
    check(
        "C13",
        "best threshold ratio exceeds 2 near t=1; coherent+threshold beats SNL at high t",
        best > 2.0 and all(r > 1.0 for r in coh_high_t),
        f"best = {best:.3f}, coherent at high t = "
        + ", ".join(f"{r:.3f}" for r in coh_high_t),
    )


def test_c14_intensity_sweep_peaks():
    ch = Channel(0.8, ETA)
    mean_grid = [round(0.05 * k, 2) for k in range(1, 21)]
    best_th = (0.0, None)
    best_nr = (0.0, None)
    for mean in mean_grid:
        snl = snl_report(mean, ch, NU)
        for m in STAGE_RANGE:
            src = make_multiplexed(m, mean)
            r_th = snl_ratio(exact_report(src, Detector.THRESHOLD, ch, NU), snl)
            r_nr = snl_ratio(exact_report(src, Detector.NUMBER_RESOLVING, ch, NU), snl)
            if r_th > best_th[0]:
                best_th = (r_th, mean)
            if r_nr > best_nr[0]:
                best_nr = (r_nr, mean)
    ok_th = 1.3 <= best_th[0] <= 1.7 and best_th[1] < 1.0
    ok_nr = 1.30 <= best_nr[0] <= 1.60 and 0.45 <= best_nr[1] <= 0.75
    check(
        "C14",
        "intensity sweep at t=0.8: best threshold ratio 1.5+-0.2 below mean 1; "
        "best NR ratio 1.45+-0.15 near mean 0.6",
        ok_th and ok_nr,
        f"threshold {best_th[0]:.3f} @ mean {best_th[1]}, NR {best_nr[0]:.3f} @ mean {best_nr[1]}",
    )


def test_c15_headline_operating_points(mux_mean1):
    ch_098 = Channel(0.98, ETA)
    snl_098 = snl_report(1.0, ch_098, NU)
    best_098 = max(
        snl_ratio(exact_report(mux_mean1[m], Detector.THRESHOLD, ch_098, NU), snl_098)
        for m in STAGE_RANGE
    )
    ok_a = 1.8 <= best_098 <= 2.6

    ch_08 = Channel(0.8, ETA)
    reports = {
        m: exact_report(make_multiplexed(m, 0.5), Detector.THRESHOLD, ch_08, 2000)
        for m in STAGE_RANGE
    }
    snl_2000 = snl_report(0.5, ch_08, 2000)
    ratios = {m: snl_ratio(r, snl_2000) for m, r in reports.items()}
    best_m = max(ratios, key=ratios.get)
    ok_b = 1.1 <= ratios[best_m] <= 1.7
    rel_mse = reports[best_m].relative_mse_percent
    ok_rel = 2.6 <= rel_mse <= 3.6
    check(
        "C15",
        "headline points: threshold enhancement 2.2+-0.4 at t=0.98 (nu=200, mean 1); "
        "1.4+-0.3 with ~3.1% relative MSE at t=0.8 (nu=2000, mean 0.5)",
        ok_a and ok_b and ok_rel,
        f"t=0.98 best = {best_098:.3f}; nu=2000 best = {ratios[best_m]:.3f} "
        f"with rel MSE {rel_mse:.2f}%",
    )


def _inflation(summaries):
    return summaries[-1].mean_mse / summaries[0].mean_mse


def test_c16_fluctuation_ordering_and_ci_widths(flux_studies):
    ok = True
    details = []
    for det in (Detector.NUMBER_RESOLVING, Detector.THRESHOLD):
        coh = flux_studies[("coherent", det)]
        mux = flux_studies[("mux5", det)]
        infl_c, infl_m = _inflation(coh), _inflation(mux)
        width = lambda s: s.ci_high - s.ci_low
        growth_c = width(coh[-1]) - width(coh[0])
        growth_m = width(mux[-1]) - width(mux[0])
        ok = ok and infl_m < infl_c and growth_m < growth_c
        details.append(
            f"{det.value}: inflation mux {infl_m:.2f} < coh {infl_c:.2f}, "
            f"CI growth mux {growth_m:.2e} < coh {growth_c:.2e}"
        )
    check(
        "C16a",
        "multiplexed source inflates strictly less than coherent; CI widths grow slower",
        ok,
        "; ".join(details),
    )


def _oracle_inflation(output_probs, pump: float) -> float:
    """Exact NR MSE(a=0.6) / MSE(a=0) of the `flux_studies` model at t=0.8.

    Pump redrawn per round, negative draws clamped; `output_probs(pump)` is
    the photon-number distribution at the sample.
    """
    t = 0.8
    reference = ETA * thinned_count_moments(output_probs(pump), 1.0)[0]

    def count_moments(x):
        return thinned_count_moments(output_probs(pump * x), t * ETA)

    def mse(a):
        return nr_mse_fluctuating_pump(count_moments, reference, t, NU, a, "per-round")

    return mse(0.6) / mse(0.0)


def test_c16_fluctuation_inflation_magnitudes(flux_studies):
    """Absolute NR inflation at a=0.6 against the exact oracle.

    The oracle integrates the estimator MSE over the clamped Gaussian pump:
    24.84x coherent, 9.46x mux m=5.  The windows reject the other readings
    of the model: per-repetition redraw gives 1.14x / 2.00x and per-round
    redraw with resampled negatives 22.47x / 4.70x (the mux window rejects
    that one).  The published-style 3.4x / 2.1x are not a property of
    either correlation model; see README "Known residuals".
    """
    mux = Multiplexed(stages=5, pair_mean=0.0)

    def mux_probs(pump):
        # The largest pump node is 7x the tuned 0.134, where the Poisson tail
        # beyond 20 pairs is below 1e-20.
        return enumerate_mux_output(
            mux.stages,
            pump,
            mux.herald_eff,
            mux.stage_transmission,
            mux.optics_transmission,
            n_cut=20,
        )

    exact_c = _oracle_inflation(poisson_probs, 0.5)
    exact_m = _oracle_inflation(mux_probs, tune_pump(mux_probs, 0.5))
    infl_c = _inflation(flux_studies[("coherent", Detector.NUMBER_RESOLVING)])
    infl_m = _inflation(flux_studies[("mux5", Detector.NUMBER_RESOLVING)])
    # Relative SE of a 1500-round inflation: its spread over 40 disjoint
    # 1500-round blocks of a 60 000-round study is 5.6% coherent and 9.2% mux
    # m=5 (heavier-tailed a=0.6 errors).  Windows are 4 SE.
    ok = abs(infl_c / exact_c - 1.0) < 0.22 and abs(infl_m / exact_m - 1.0) < 0.37
    check(
        "C16b",
        "NR inflation at a=0.6 within 4 SE of the exact oracle "
        "(per-round pump, clamped negatives): coherent +-22%, mux m=5 +-37%",
        ok,
        f"coherent = {infl_c:.2f}x vs {exact_c:.2f}x, "
        f"mux m=5 = {infl_m:.2f}x vs {exact_m:.2f}x",
    )
