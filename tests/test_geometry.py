"""Canyon model: frozen reference values and geometric properties.

Reference values were computed independently with 50-digit arithmetic
(mpmath) from the closed-form expressions and frozen here.
"""

import math

import numpy as np
import pytest

from portcanyon.errors import DomainError
from portcanyon.geometry import (
    CanyonGeometry,
    acceptance_length,
    elevation_angles,
    poynting_fspl,
    projected_aperture_exact,
    received_power_approx,
    received_power_exact,
    vertical_fraction,
)

# Back-solved TX height that reproduces the reference elevation-angle
# pair at 63 m and 113 m (see README); canyon width is 8 m.
REF = dict(h=17.4, d=8.0, D=63.0, h_prime=5.0, psi=0.1)


def geom(**overrides):
    params = {**REF, **overrides}
    return CanyonGeometry(**params)


class TestValidation:
    def test_accepts_reference_geometry(self):
        geom()

    @pytest.mark.parametrize("field", ["h", "D", "h_prime"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive_lengths(self, field, bad):
        with pytest.raises(DomainError):
            geom(**{field: bad})

    def test_rejects_negative_width(self):
        with pytest.raises(DomainError):
            geom(d=-0.1)

    def test_zero_width_is_degenerate_but_allowed(self):
        assert geom(d=0.0).d == 0.0

    @pytest.mark.parametrize("bad", [0.0, math.pi / 2, 2.0, -0.1])
    def test_rejects_bad_psi(self, bad):
        with pytest.raises(DomainError):
            geom(psi=bad)


class TestElevationAngles:
    def test_reference_pair_shares_one_height(self):
        phi1_63, _, _ = elevation_angles(geom(D=63.0))
        phi1_113, _, _ = elevation_angles(geom(D=113.0))
        assert math.degrees(phi1_63) == pytest.approx(15.439645535319264, rel=1e-12)
        assert math.degrees(phi1_113) == pytest.approx(8.753782395441931, rel=1e-12)

    def test_unit_slope_gives_45_degrees(self):
        phi1, _, _ = elevation_angles(geom(h=42.0, D=42.0))
        assert phi1 == pytest.approx(math.pi / 4, rel=1e-15)

    def test_opening_angle_frozen_value(self):
        _, _, theta = elevation_angles(geom())
        assert math.degrees(theta) == pytest.approx(1.6695384788985672, rel=1e-12)

    def test_angle_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = geom(
                h=rng.uniform(0.5, 40),
                d=rng.uniform(0.5, 20),
                D=rng.uniform(1, 500),
                h_prime=rng.uniform(0.5, 10),
            )
            phi1, phi2, theta = elevation_angles(g)
            assert phi1 > phi2 > 0
            assert theta == pytest.approx(phi1 - phi2, rel=1e-12)
            assert theta > 0

    def test_small_angle_limit_matches_first_order(self):
        # For a far TX the arctangent is within 1% of its argument.
        rng = np.random.default_rng(8)
        for _ in range(200):
            h = rng.uniform(0.5, 40)
            d = rng.uniform(0.5, 20)
            D = rng.uniform(20.0, 100.0) * max(h, d)
            phi1, _, _ = elevation_angles(geom(h=h, d=d, D=D))
            assert abs(phi1 - h / D) / phi1 < 0.01


class TestFactors:
    def test_poynting_345_triangle(self):
        assert poynting_fspl(geom(h=3.0, D=4.0)) == pytest.approx(0.04, rel=1e-15)

    def test_poynting_frozen_value(self):
        assert poynting_fspl(geom()) == pytest.approx(2.3409554843905088e-4, rel=1e-12)

    def test_poynting_grazing_limit(self):
        assert poynting_fspl(geom(h=1e-12, D=10.0)) == pytest.approx(0.01, rel=1e-9)

    def test_aperture_frozen_value(self):
        assert projected_aperture_exact(geom()) == pytest.approx(
            1.9042140397501406, rel=1e-12
        )

    def test_aperture_vanishes_for_zero_width(self):
        assert projected_aperture_exact(geom(d=0.0)) == 0.0

    def test_aperture_vanishes_for_grazing_wave(self):
        assert projected_aperture_exact(geom(h=1e-6)) < 2e-7
        assert projected_aperture_exact(geom(h=1e-9)) < 2e-10

    def test_acceptance_length(self):
        assert acceptance_length(geom(D=100.0, psi=1.2)) == pytest.approx(
            100.0 * math.sin(1.2), rel=1e-15
        )
        assert acceptance_length(geom(D=100.0, psi=0.1)) == pytest.approx(
            9.983341664682815, rel=1e-12
        )
        assert acceptance_length(geom(D=63.0, psi=0.1)) == pytest.approx(
            6.289505248750174, rel=1e-12
        )

    def test_vertical_fraction_unit_path(self):
        assert vertical_fraction(geom(h=5.0, h_prime=5.0, D=1.0)) == 1.0

    def test_vertical_fraction_frozen_value(self):
        assert vertical_fraction(geom()) == pytest.approx(3.0512471655328798e-3, rel=1e-12)

    def test_vertical_fraction_inverse_square_in_distance(self):
        assert vertical_fraction(geom(D=126.0)) == pytest.approx(
            vertical_fraction(geom(D=63.0)) / 4.0, rel=1e-12
        )


class TestReceivedPower:
    def test_exact_frozen_value(self):
        assert received_power_exact(geom()) == pytest.approx(
            8.554660739651623e-6, rel=1e-12
        )

    def test_exact_is_product_of_factors(self):
        g = geom(h=11.0, d=6.0, D=140.0, h_prime=4.0, psi=0.2)
        product = (
            vertical_fraction(g)
            * acceptance_length(g)
            * projected_aperture_exact(g)
            * poynting_fspl(g)
        )
        assert received_power_exact(g) == pytest.approx(product, rel=1e-15)

    def test_exact_zero_width_gives_zero(self):
        assert received_power_exact(geom(d=0.0)) == 0.0

    def test_exact_decreasing_in_distance(self):
        distances = np.linspace(REF["h"] + 1.0, 500.0, 200)
        powers = [received_power_exact(geom(D=float(D))) for D in distances]
        assert np.all(np.diff(powers) < 0)

    def test_approx_frozen_value(self):
        assert received_power_approx(geom(D=100.0)) == pytest.approx(1.392e-7, rel=1e-12)

    def test_approx_fourth_power_scaling(self):
        ratio = received_power_approx(geom(D=200.0)) / received_power_approx(geom(D=100.0))
        assert ratio == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert received_power_approx(geom(D=200.0)) == pytest.approx(8.7e-9, rel=1e-12)

    def test_approx_linear_in_each_numerator_factor(self):
        base = received_power_approx(geom())
        assert received_power_approx(geom(psi=0.2)) == pytest.approx(2 * base, rel=1e-12)
        assert received_power_approx(geom(h=34.8)) == pytest.approx(2 * base, rel=1e-12)
        assert received_power_approx(geom(d=16.0)) == pytest.approx(2 * base, rel=1e-12)

    def test_exact_approx_ratio_converges(self):
        # The ratio settles to a constant as the TX recedes.
        ratios = [
            received_power_exact(geom(D=scale * REF["h"]))
            / received_power_approx(geom(D=scale * REF["h"]))
            for scale in (1e3, 1e4, 1e5)
        ]
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-4)
        assert ratios[0] == pytest.approx(ratios[2], rel=1e-2)

    @pytest.mark.parametrize("power", [received_power_exact, received_power_approx])
    @pytest.mark.parametrize("overrides", [
        dict(D=1e200),      # D**4 overflows
        dict(D=1e-300),     # D**4 underflows to zero
        dict(d=1e-320),     # the product underflows to zero
    ])
    def test_unrepresentable_power_is_domain_error(self, power, overrides):
        with pytest.raises(DomainError, match="received power"):
            power(geom(**overrides))

    @pytest.mark.parametrize("h", [1e200, 1e-300])
    def test_exact_unrepresentable_in_height_is_domain_error(self, h):
        with pytest.raises(DomainError, match="received power"):
            received_power_exact(geom(h=h))

    def test_approx_zero_width_gives_zero(self):
        assert received_power_approx(geom(d=0.0)) == 0.0


def _loglog_slope_db_per_decade(g: CanyonGeometry, D: float) -> float:
    step = 1.05
    lo = received_power_exact(CanyonGeometry(g.h, g.d, D / step, g.h_prime, g.psi))
    hi = received_power_exact(CanyonGeometry(g.h, g.d, D * step, g.h_prime, g.psi))
    return 10.0 * (math.log10(hi) - math.log10(lo)) / (2.0 * math.log10(step))


def test_far_field_slope_is_minus_40_db_per_decade():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = CanyonGeometry(
            h=rng.uniform(1, 30),
            d=rng.uniform(1, 15),
            D=100.0,
            h_prime=rng.uniform(0.5, 10),
            psi=rng.uniform(0.02, 0.5),
        )
        for scale in (50.0, 100.0, 1000.0):
            D = scale * max(g.h, g.d)
            assert abs(_loglog_slope_db_per_decade(g, D) + 40.0) < 0.5
