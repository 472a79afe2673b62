"""Link budget: noise floor, allowable path loss, coverage inversion."""

import numpy as np
import pytest

from portcanyon.errors import DomainError, NoSolutionError
from portcanyon.linkbudget import (
    LinkBudgetConfig,
    coverage_range_m,
    dual_pol_throughput_bps,
    eirp_dbm,
    max_allowable_pathloss_db,
    noise_floor_dbm,
)
from portcanyon.pathloss import LogLinFit, predict

# Reference 5G base-station assumptions for the 28 GHz port scenario.
REFERENCE = LinkBudgetConfig(
    tx_power_dbm_per_pol=28.0,
    tx_antenna_gain_dbi=23.0,
    shadow_margin_db=10.0,
    bandwidth_hz=400e6,
    temperature_k=300.0,
    noise_figure_db=10.0,
    required_snr_db=8.0,
)


def fit(n, r0):
    return LogLinFit(n=n, r0_db=r0, ci_n=0.0, ci_r0=0.0, rmse_db=0.0, sample_count=0)


class TestConfig:
    def test_rejects_bad_bandwidth_and_temperature(self):
        with pytest.raises(DomainError):
            LinkBudgetConfig(28, 23, 10, 0.0, 300, 10, 8)
        with pytest.raises(DomainError):
            LinkBudgetConfig(28, 23, 10, 400e6, -1.0, 10, 8)

    def test_defaults_are_the_reference_budget(self):
        assert LinkBudgetConfig() == REFERENCE

    @pytest.mark.parametrize("name", [
        "tx_power_dbm_per_pol", "tx_antenna_gain_dbi", "shadow_margin_db",
        "bandwidth_hz", "temperature_k", "noise_figure_db", "required_snr_db",
        "spectral_efficiency_bps_hz",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(DomainError, match=name):
            LinkBudgetConfig(**{name: value})


class TestNoiseFloor:
    def test_reference_configuration(self):
        assert noise_floor_dbm(REFERENCE) == pytest.approx(-77.8, abs=0.05)

    def test_thermal_floor_1hz_290k(self):
        cfg = LinkBudgetConfig(0, 0, 0, 1.0, 290.0, 0.0, 0)
        assert noise_floor_dbm(cfg) == pytest.approx(-173.98, abs=0.01)

    def test_bandwidth_log_linearity(self):
        wide = LinkBudgetConfig(28, 23, 10, 4e9, 300, 10, 8)
        assert noise_floor_dbm(wide) - noise_floor_dbm(REFERENCE) == pytest.approx(
            10.0, abs=1e-9
        )


class TestMapl:
    def test_reference_configuration(self):
        assert eirp_dbm(REFERENCE) == 51.0
        assert max_allowable_pathloss_db(REFERENCE) == pytest.approx(110.8, abs=0.05)

    def test_no_margins_equals_eirp_minus_floor(self):
        cfg = LinkBudgetConfig(28, 23, 0.0, 400e6, 300, 10, 0.0)
        assert max_allowable_pathloss_db(cfg) == pytest.approx(
            eirp_dbm(cfg) - noise_floor_dbm(cfg), abs=1e-12
        )

    def test_antenna_gain_additivity(self):
        plus = LinkBudgetConfig(28, 24.0, 10, 400e6, 300, 10, 8)
        assert max_allowable_pathloss_db(plus) - max_allowable_pathloss_db(
            REFERENCE
        ) == pytest.approx(1.0, abs=1e-12)


class TestCoverageRange:
    def test_reference_model(self):
        assert coverage_range_m(fit(-4.09, -23.4), 110.8) == pytest.approx(137.0, abs=2.0)

    def test_round_numbers(self):
        assert coverage_range_m(fit(-2.0, 0.0), 40.0) == pytest.approx(100.0, rel=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            model = fit(rng.uniform(-6.0, -0.5), rng.uniform(-80.0, 0.0))
            mapl = rng.uniform(60.0, 150.0)
            d = coverage_range_m(model, mapl)
            assert predict(model, d) == pytest.approx(-mapl, abs=1e-6)

    def test_monotone_in_mapl_and_intercept(self):
        base = coverage_range_m(fit(-4.09, -23.4), 110.8)
        assert coverage_range_m(fit(-4.09, -23.4), 111.8) > base
        assert coverage_range_m(fit(-4.09, -22.4), 110.8) > base

    def test_non_decaying_model_rejected(self):
        with pytest.raises(NoSolutionError):
            coverage_range_m(fit(0.5, -20.0), 110.8)
        with pytest.raises(NoSolutionError):
            coverage_range_m(fit(0.0, -20.0), 110.8)


def test_dual_pol_throughput_note():
    # 2 bit/s/Hz per polarization in 400 MHz -> 1.6 Gbps.
    assert dual_pol_throughput_bps(REFERENCE) == pytest.approx(1.6e9, rel=1e-12)


@pytest.mark.parametrize("temperature_k, bandwidth_hz", [(1e300, 1e300), (1e-300, 1e-300)])
def test_noise_power_out_of_range_is_domain_error(temperature_k, bandwidth_hz):
    cfg = LinkBudgetConfig(temperature_k=temperature_k, bandwidth_hz=bandwidth_hz)
    with pytest.raises(DomainError, match="noise power"):
        noise_floor_dbm(cfg)
    with pytest.raises(DomainError, match="noise power"):
        max_allowable_pathloss_db(cfg)
