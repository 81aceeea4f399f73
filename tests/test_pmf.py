"""Photon-number rows: Poisson and binomial weights and Poisson truncation,
each checked against independent closed forms (textbook formulas and scipy)."""

import math

import numpy as np
import pytest
from scipy import stats

from _oracles import poisson_probs, thinned_count_moments
from subshot.pmf import binomial_row, poisson_rows, poisson_support
from subshot.sources import Coherent, Fock, source_moments


def random_probs(rng, n_max=8):
    """Arbitrary normalized distribution for property checks."""
    probs = rng.random(rng.integers(1, n_max + 1))
    return probs / probs.sum()


def thin(probs, tau):
    """Loss channel built from `binomial_row`: each photon survives with
    probability `tau`."""
    out = np.zeros(len(probs))
    for n, p in enumerate(probs):
        out[: n + 1] += p * binomial_row(n, tau)
    return out


def moments_of(probs):
    mean, second = thinned_count_moments(probs, 1.0)
    return mean, second - mean * mean


class TestPoisson:
    def test_vacuum_at_zero_mean(self):
        assert poisson_support(0.0, 1e-16) == 0
        np.testing.assert_array_equal(poisson_rows(0.0, 0), [1.0])

    def test_closed_form_entries(self):
        """Entries must match e^-mu mu^n / n! evaluated directly."""
        row = poisson_rows(0.5, 5)
        assert row[0] == pytest.approx(math.exp(-0.5), abs=1e-15)
        for n in range(6):
            expected = math.exp(-0.5) * 0.5**n / math.factorial(n)
            assert row[n] == pytest.approx(expected, abs=1e-15)

    def test_poisson_identities(self):
        mean, variance = moments_of(poisson_rows(1.0, poisson_support(1.0, 1e-16)))
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert variance / mean == pytest.approx(1.0, abs=1e-9)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_support(-0.1, 1e-16)

    def test_eps_bounds(self):
        with pytest.raises(ValueError):
            poisson_support(1.0, 1.0)
        with pytest.raises(ValueError):
            poisson_support(1.0, 0.0)

    @pytest.mark.parametrize("mu", [1e-6, 0.3, 1.0, 7.5, 40.0, 180.0])
    def test_truncation_below_tolerance(self, mu):
        n_max = poisson_support(mu, 1e-16)
        cutoff = 1.0 - float(poisson_rows(mu, n_max).sum())
        assert cutoff <= 1e-12
        # the discarded mass agrees with the scipy survival function
        assert cutoff == pytest.approx(stats.poisson.sf(n_max, mu), abs=1e-13)

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

    def test_one_row_per_mean(self):
        rows = poisson_rows(np.array(self.MEANS), 150)
        assert rows.shape == (len(self.MEANS), 151)
        for mu, row in zip(self.MEANS, rows):
            np.testing.assert_array_equal(row, poisson_rows(mu, 150))
        np.testing.assert_array_equal(rows[0], np.arange(151) == 0)


class TestLossMatrix:
    """The binomial loss channel, one `binomial_row` per photon number."""

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_matches_binomial_formula(self, t):
        for n in range(61):
            expected = [math.comb(n, k) * t**k * (1.0 - t) ** (n - k) for k in range(n + 1)]
            row = binomial_row(n, t)
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-300)
            assert row.sum() == pytest.approx(1.0, abs=1e-13)

    def test_matches_scipy(self):
        for n in range(201):
            expected = stats.binom.pmf(np.arange(n + 1), n, 0.72)
            np.testing.assert_allclose(binomial_row(n, 0.72), expected, rtol=0, atol=1e-13)


class TestFock:
    """A number state delivered whole: its row at survival 1."""

    def test_single_photon(self):
        np.testing.assert_array_equal(binomial_row(1, 1.0), [0.0, 1.0])

    def test_vacuum(self):
        np.testing.assert_array_equal(binomial_row(0, 1.0), [1.0])

    def test_mean_and_zero_variance(self):
        assert moments_of(binomial_row(3, 1.0)) == (3.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Fock(-1)


class TestApplyLoss:
    """Binomial thinning of a whole distribution (`thin`, built on
    `binomial_row`)."""

    def test_identity_channel(self):
        p = poisson_rows(1.3, 30)
        np.testing.assert_array_equal(thin(p, 1.0), p)

    def test_opaque_channel(self):
        out = thin(poisson_rows(2.0, 40), 0.0)
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert not out[1:].any()

    @pytest.mark.parametrize("mu,tau", [(0.5, 0.3), (1.0, 0.72), (3.0, 0.9)])
    def test_thinned_poisson_closure(self, mu, tau):
        """Thinning a Poisson(mu) gives Poisson(mu * tau), entrywise: the
        identity the coherent detected-count rows rely on."""
        thinned = thin(poisson_rows(mu, 60), tau)
        np.testing.assert_allclose(thinned, poisson_rows(mu * tau, 60), rtol=0, atol=1e-10)

    def test_single_photon_becomes_bernoulli(self):
        np.testing.assert_allclose(binomial_row(1, 0.72), [0.28, 0.72], atol=1e-15)

    def test_thinning_composition(self):
        """Two cascaded losses equal one loss with the product transmission."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_probs(rng)
            a, b = rng.random(2)
            np.testing.assert_allclose(thin(thin(p, a), b), thin(p, a * b), rtol=0, atol=1e-10)

    def test_mean_linearity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_probs(rng)
            tau = rng.random()
            assert moments_of(thin(p, tau))[0] == pytest.approx(tau * moments_of(p)[0], abs=1e-9)

    def test_mass_preserved(self):
        p = poisson_rows(2.5, 40)
        assert thin(p, 0.4).sum() == pytest.approx(p.sum(), abs=1e-13)


class TestMoments:
    def test_fock(self):
        m = source_moments(Fock(1))
        assert (m.mean, m.variance) == (1.0, 0.0)

    def test_poisson(self):
        m = source_moments(Coherent(2.0))
        assert m.mean == pytest.approx(2.0, abs=1e-9)
        assert m.variance == pytest.approx(2.0, abs=1e-9)

    def test_vacuum_fano_undefined(self):
        assert source_moments(Coherent(0.0)).fano is None


class TestInvariants:
    def test_constructors_keep_mass(self):
        rows = [poisson_rows(mu, poisson_support(mu, 1e-16)) for mu in (0.3, 5.0, 0.0)]
        for row in rows + [binomial_row(4, 1.0), binomial_row(4, 0.3)]:
            assert 1.0 - 1e-12 <= row.sum() <= 1.0 + 1e-13

    def test_transforms_keep_mass(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_probs(rng)
            assert thin(p, rng.random()).sum() == pytest.approx(p.sum(), abs=1e-12)
