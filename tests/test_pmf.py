"""Photon-number distribution algebra: constructors, loss and moments, each
checked against independent closed forms (textbook formulas and scipy)."""

import math

import numpy as np
import pytest
from scipy import stats

from _oracles import poisson_probs
from subshot.pmf import (
    DEFAULT_TRUNCATION_EPS,
    Pmf,
    apply_loss,
    fock_pmf,
    loss_matrix,
    moments,
    poisson_pmf,
    poisson_rows,
    poisson_support,
    vacuum_pmf,
)


def random_pmf(rng, n_max=8):
    """Arbitrary normalized pmf for property checks."""
    probs = rng.random(rng.integers(1, n_max + 1))
    return Pmf.from_probs(probs / probs.sum())


def assert_pmf_close(a: Pmf, b: Pmf, atol=1e-12):
    n = max(a.n_max, b.n_max) + 1
    pa = np.zeros(n)
    pb = np.zeros(n)
    pa[: a.n_max + 1] = a.probs
    pb[: b.n_max + 1] = b.probs
    np.testing.assert_allclose(pa, pb, rtol=0, atol=atol)


class TestPoisson:
    def test_vacuum_at_zero_mean(self):
        p = poisson_pmf(0.0)
        assert p.n_max == 0
        assert p.prob(0) == 1.0

    def test_closed_form_entries(self):
        """Entries must match e^-mu mu^n / n! evaluated directly."""
        p = poisson_pmf(0.5)
        assert p.prob(0) == pytest.approx(math.exp(-0.5), abs=1e-15)
        for n in range(6):
            expected = math.exp(-0.5) * 0.5**n / math.factorial(n)
            assert p.prob(n) == pytest.approx(expected, abs=1e-15)

    def test_poisson_identities(self):
        m = moments(poisson_pmf(1.0))
        assert m.mean == pytest.approx(1.0, abs=1e-9)
        assert m.fano == pytest.approx(1.0, abs=1e-9)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(-0.1)

    def test_eps_bounds(self):
        with pytest.raises(ValueError):
            poisson_pmf(1.0, eps=1e-8)
        with pytest.raises(ValueError):
            poisson_pmf(1.0, eps=0.0)

    @pytest.mark.parametrize("mu", [1e-6, 0.3, 1.0, 7.5, 40.0, 180.0])
    def test_truncation_below_tolerance(self, mu):
        p = poisson_pmf(mu)
        assert p.cutoff_mass <= DEFAULT_TRUNCATION_EPS
        # recorded cutoff agrees with the scipy survival function
        assert p.cutoff_mass == pytest.approx(stats.poisson.sf(p.n_max, mu), abs=1e-13)

    @pytest.mark.parametrize("mu", [0.05, 1.0, 12.0])
    def test_support_bound_is_tight_enough(self, mu):
        n = poisson_support(mu, 1e-20)
        assert stats.poisson.sf(n, mu) <= 1e-20 * 1.01


class TestPoissonRows:
    MEANS = (0.0, 1e-3, 0.5, 7.0, 60.0)

    @pytest.mark.parametrize("mu", MEANS)
    def test_matches_textbook_formula(self, mu):
        n_max = 150
        expected = poisson_probs(mu, n_max)
        np.testing.assert_allclose(poisson_rows(mu, n_max), expected, rtol=1e-12, atol=1e-300)
        p = poisson_pmf(mu)
        np.testing.assert_allclose(p.probs, expected[: p.n_max + 1], rtol=1e-12, atol=1e-300)

    def test_one_row_per_mean(self):
        rows = poisson_rows(np.array(self.MEANS), 150)
        assert rows.shape == (len(self.MEANS), 151)
        for mu, row in zip(self.MEANS, rows):
            np.testing.assert_array_equal(row, poisson_rows(mu, 150))
        np.testing.assert_array_equal(rows[0], np.arange(151) == 0)


class TestLossMatrix:
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_matches_binomial_formula(self, t):
        n_max = 60
        m = loss_matrix(t, n_max)
        expected = np.zeros((n_max + 1, n_max + 1))
        for n in range(n_max + 1):
            for k in range(n + 1):
                expected[n, k] = math.comb(n, k) * t**k * (1.0 - t) ** (n - k)
        np.testing.assert_allclose(m, expected, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-13)

    def test_matches_scipy(self):
        ns = np.arange(201)
        expected = stats.binom.pmf(ns[None, :], ns[:, None], 0.72)
        np.testing.assert_allclose(loss_matrix(0.72, 200), expected, rtol=0, atol=1e-13)


class TestFock:
    def test_single_photon(self):
        np.testing.assert_array_equal(fock_pmf(1).probs, [0.0, 1.0])

    def test_vacuum(self):
        np.testing.assert_array_equal(fock_pmf(0).probs, [1.0])

    def test_mean_and_zero_variance(self):
        m = moments(fock_pmf(3))
        assert m.mean == 3.0
        assert m.variance == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fock_pmf(-1)


class TestApplyLoss:
    def test_identity_channel(self):
        p = poisson_pmf(1.3)
        assert_pmf_close(apply_loss(p, 1.0), p, atol=0)

    def test_opaque_channel(self):
        out = apply_loss(poisson_pmf(2.0), 0.0)
        assert out.n_max == 0
        assert out.prob(0) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_loss(vacuum_pmf(), 1.5)

    @pytest.mark.parametrize("mu,tau", [(0.5, 0.3), (1.0, 0.72), (3.0, 0.9)])
    def test_thinned_poisson_closure(self, mu, tau):
        """Thinning a Poisson(mu) gives Poisson(mu * tau), entrywise."""
        thinned = apply_loss(poisson_pmf(mu), tau)
        direct = poisson_pmf(mu * tau)
        n = min(thinned.n_max, direct.n_max)
        np.testing.assert_allclose(
            thinned.probs[: n + 1], direct.probs[: n + 1], rtol=0, atol=1e-10
        )

    def test_single_photon_becomes_bernoulli(self):
        out = apply_loss(fock_pmf(1), 0.72)
        np.testing.assert_allclose(out.probs, [0.28, 0.72], atol=1e-15)

    def test_thinning_composition(self):
        """Two cascaded losses equal one loss with the product transmission."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_pmf(rng)
            a, b = rng.random(2)
            assert_pmf_close(
                apply_loss(apply_loss(p, a), b), apply_loss(p, a * b), atol=1e-10
            )

    def test_mean_linearity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_pmf(rng)
            tau = rng.random()
            assert moments(apply_loss(p, tau)).mean == pytest.approx(
                tau * moments(p).mean, abs=1e-9
            )

    def test_mass_preserved(self):
        p = poisson_pmf(2.5)
        out = apply_loss(p, 0.4)
        assert out.total_mass() == pytest.approx(p.total_mass(), abs=1e-13)


class TestMoments:
    def test_fock(self):
        m = moments(fock_pmf(1))
        assert (m.mean, m.variance) == (1.0, 0.0)

    def test_poisson(self):
        m = moments(poisson_pmf(2.0))
        assert m.mean == pytest.approx(2.0, abs=1e-9)
        assert m.variance == pytest.approx(2.0, abs=1e-9)

    def test_vacuum_fano_undefined(self):
        assert moments(vacuum_pmf()).fano is None


class TestInvariants:
    def test_constructors_keep_mass(self):
        for p in (poisson_pmf(0.3), poisson_pmf(5.0), fock_pmf(4), vacuum_pmf()):
            assert 1.0 - 1e-12 <= p.total_mass() <= 1.0 + 1e-13

    def test_transforms_keep_mass(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_pmf(rng)
            q = apply_loss(p, rng.random())
            assert q.total_mass() == pytest.approx(p.total_mass(), abs=1e-12)

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            Pmf(np.array([0.9, 0.9]))

    def test_cutoff_consistency_enforced(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.25]), cutoff_mass=0.0)
