"""Log-distance regression: exact recovery, CI coverage, the distance bound."""

import math

import numpy as np
import pytest
from scansets import gain_samples

from portcanyon.errors import DegenerateFitError, DomainError
from portcanyon.pathloss import fit_fixed_slope, fit_loglinear


def line_samples(n, r0, distances):
    return gain_samples(distances, [10.0 * n * math.log10(d) + r0 for d in distances])


DISTANCES = np.linspace(55.0, 135.0, 30)


FITS = [fit_loglinear, lambda samples: fit_fixed_slope(samples, -4.0)]


class TestDistanceBound:
    @pytest.mark.parametrize("fit", FITS, ids=["free", "fixed"])
    @pytest.mark.parametrize("short", [0.5, 0.0, -3.0, math.nan])
    def test_rejects_sub_metre_distance(self, fit, short):
        distances = [50.0, short, 60.0, 0.25, 70.0]
        with pytest.raises(DomainError, match=rf"^distance must be >= 1.0 m, got {short}$"):
            fit(gain_samples(distances, [-60.0] * 5))

    @pytest.mark.parametrize("fit", FITS, ids=["free", "fixed"])
    def test_boundary_distance_accepted(self, fit):
        assert fit(line_samples(-2.0, -60.0, [1.0, 10.0, 100.0])).sample_count == 3


class TestFreeSlopeFit:
    def test_noiseless_line_recovered_exactly(self):
        fit = fit_loglinear(line_samples(-2.0, -60.0, DISTANCES))
        assert fit.n == pytest.approx(-2.0, abs=1e-12)
        assert fit.r0_db == pytest.approx(-60.0, abs=1e-10)
        assert fit.rmse_db == pytest.approx(0.0, abs=1e-10)
        assert fit.ci_n == pytest.approx(0.0, abs=1e-10)
        assert fit.ci_r0 == pytest.approx(0.0, abs=1e-9)

    def test_reference_aggregate_line_recovered(self):
        fit = fit_loglinear(line_samples(-2.18, -57.4, DISTANCES))
        assert fit.n == pytest.approx(-2.18, abs=1e-12)
        assert fit.r0_db == pytest.approx(-57.4, abs=1e-10)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(0)
        samples = gain_samples(DISTANCES, [
            -2.0 * 10.0 * math.log10(d) - 60.0 + rng.normal(0, 3) for d in DISTANCES
        ])
        fit = fit_loglinear(samples)
        resid = [g - (10.0 * fit.n * math.log10(d) + fit.r0_db)
                 for d, g in zip(DISTANCES, samples.gain_db)]
        assert abs(sum(resid)) < 1e-9

    def test_prediction_reproduces_noiseless_line(self):
        fit = fit_loglinear(line_samples(-3.1, -42.0, DISTANCES))
        for d in (1.0, 17.3, 444.4):
            expected = 10.0 * -3.1 * math.log10(d) - 42.0
            assert 10.0 * fit.n * math.log10(d) + fit.r0_db == pytest.approx(expected, abs=1e-9)

    def test_ci_coverage_monte_carlo(self):
        # Scaled-down coverage check; the acceptance suite runs 10^4 trials.
        rng = np.random.default_rng(1)
        true_n, true_r0, sigma = -2.18, -57.4, 2.7
        x = 10.0 * np.log10(DISTANCES)
        hits_n = hits_r0 = 0
        trials = 2000
        for _ in range(trials):
            gains = true_n * x + true_r0 + rng.normal(0.0, sigma, x.size)
            fit = fit_loglinear(gain_samples(DISTANCES, gains))
            hits_n += abs(fit.n - true_n) <= fit.ci_n
            hits_r0 += abs(fit.r0_db - true_r0) <= fit.ci_r0
        assert hits_n / trials == pytest.approx(0.95, abs=0.02)
        assert hits_r0 / trials == pytest.approx(0.95, abs=0.02)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_loglinear(line_samples(-2.0, -60.0, [50.0, 60.0]))
        with pytest.raises(DegenerateFitError):
            fit_loglinear(line_samples(-2.0, -60.0, [50.0, 50.0, 50.0]))


class TestFixedSlopeFit:
    def test_noiseless_fourth_power_data(self):
        fit = fit_fixed_slope(line_samples(-4.0, -20.0, DISTANCES), -4.0)
        assert fit.n == -4.0
        assert fit.ci_n == 0.0
        assert fit.r0_db == pytest.approx(-20.0, abs=1e-10)
        assert fit.rmse_db == pytest.approx(0.0, abs=1e-10)

    def test_free_vs_pinned_on_matching_data(self):
        rng = np.random.default_rng(2)
        gains = [
            -4.0 * 10.0 * math.log10(d) - 25.0 + rng.normal(0.0, 2.3)
            for d in DISTANCES
        ]
        samples = gain_samples(DISTANCES, gains)
        free = fit_loglinear(samples)
        pinned = fit_fixed_slope(samples, -4.0)
        assert abs(free.rmse_db - pinned.rmse_db) < 0.3

    def test_intercept_shift_linearity(self):
        samples = line_samples(-4.0, -25.0, DISTANCES)
        shifted = gain_samples(samples.distance_m, samples.gain_db + 7.5)
        base = fit_fixed_slope(samples, -4.0)
        moved = fit_fixed_slope(shifted, -4.0)
        assert moved.r0_db == pytest.approx(base.r0_db + 7.5, abs=1e-10)

    def test_two_samples_minimum(self):
        fit = fit_fixed_slope(line_samples(-4.0, -20.0, [50.0, 100.0]), -4.0)
        assert fit.sample_count == 2
        with pytest.raises(DegenerateFitError):
            fit_fixed_slope(line_samples(-4.0, -20.0, [50.0]), -4.0)
