"""Synthetic campaign generator: layouts, horn smoothing, determinism."""

import math

import numpy as np
import pytest

from portcanyon import synth
from portcanyon.angular import (
    AngularScan,
    Stacking,
    VehicleState,
    azimuth_gain,
    circular_mean_gain,
)
from portcanyon.config import load_config
from portcanyon.errors import DomainError
from portcanyon.geometry import CanyonGeometry, received_power_approx
from portcanyon.pathloss import GainSample, fit_fixed_slope, fit_loglinear
from portcanyon.synth import (
    HornPattern,
    SynthConfig,
    TxSpec,
    add_vehicle_offset,
    build_layout,
    fullspread_gain_distribution,
    generate_campaign,
    generate_scan,
    geometry_for,
    mean_gain_at,
    tx_position,
)
from portcanyon.vehicle import fit_gaussian, vehicle_delta

CFG = SynthConfig(seed=3, n_angles=360)


class TestLayout:
    def test_uniform_coarse_grid(self):
        layout = build_layout("uniform")
        # 4 lines, x = 1, 5, ..., 33 -> 9 points per line.
        assert len(layout.coarse_points) == 36
        xs = sorted({p[0] for p in layout.coarse_points})
        assert xs == [1.0 + 4.0 * k for k in range(9)]

    def test_nonuniform_coarse_grid(self):
        layout = build_layout("nonuniform")
        assert len(layout.coarse_points) == 72
        xs = sorted({p[0] for p in layout.coarse_points})
        assert xs == [1.0 + 2.0 * k for k in range(18)]

    def test_dense_grid_refined_subset(self):
        layout = build_layout("uniform")
        xs = sorted({p[0] for p in layout.dense_points})
        refined = [x for x in xs if 13.5 - 1e-9 <= x <= 14.9 + 1e-9]
        assert len(refined) == 15
        assert np.allclose(np.diff(refined), 0.1, atol=1e-12)
        assert xs[0] == 12.5 and xs[-1] == 15.3
        assert len(layout.dense_points) == len(xs) * 4

    def test_transmitter_sets(self):
        uni = build_layout("uniform")
        assert [t.tx_id for t in uni.txs] == [
            "TX1_63", "TX1_73", "TX1_83", "TX1_93", "TX1_103", "TX1_113", "TX2",
        ]
        non = build_layout("nonuniform")
        assert [t.tx_id for t in non.txs] == ["TX1_63", "TX1_83", "TX1_103", "TX2"]
        assert tx_position("TX2")[:2] == (18.85, 60.5)

    def test_uniform_wall_heights(self):
        layout = build_layout("uniform")
        assert layout.tx_side_height_at(10.0) == 7.5
        assert layout.tx_side_height_at(29.9) == 7.5
        # Last 6 m section is two containers (5 m) high.
        assert layout.tx_side_height_at(30.1) == 5.0
        assert layout.tx_side_height_at(36.0) == 5.0

    def test_nonuniform_wall_heights(self):
        layout = build_layout("nonuniform")
        assert layout.section_heights_row1_m == (10.0, 7.5, 5.0, 5.0, 7.5, 5.0)
        assert layout.section_heights_row2_m == (5.0, 5.0, 5.0, 7.5, 7.5, 7.5)
        assert layout.tx_side_height_at(0.0) == 5.0
        assert layout.tx_side_height_at(20.0) == 7.5

    def test_position_outside_canyon_rejected(self):
        layout = build_layout("uniform")
        with pytest.raises(DomainError):
            layout.tx_side_height_at(40.0)

    def test_foreign_transmitter_rejected(self):
        layout = build_layout("uniform")
        with pytest.raises(DomainError):
            layout.tx_index(TxSpec("TX9", 0.0, 99.0, 30.0))


class TestGeometryMapping:
    def test_link_geometry_fields(self):
        layout = build_layout("uniform")
        tx = layout.txs[0]  # TX1_63
        geom = geometry_for(layout, tx, (5.0, 3.5), psi=0.1)
        assert geom.D == pytest.approx(63.0 - layout.near_edge_y_m, abs=1e-12)
        assert geom.h == pytest.approx(23.0 - 7.5, abs=1e-12)
        assert geom.h_prime == pytest.approx(7.5 - 1.5, abs=1e-12)
        assert geom.d == 8.0

    def test_tx_over_the_edge_rejected(self):
        layout = build_layout("uniform")
        low = TxSpec("TX1_10", 18.8, layout.near_edge_y_m, 23.0)
        with pytest.raises(DomainError):
            geometry_for(layout, low, (5.0, 3.5))

    def test_tx_below_canyon_top_rejected(self):
        layout = build_layout("uniform")
        buried = TxSpec("TX1_63", 18.8, 63.0, 5.0)
        with pytest.raises(DomainError):
            geometry_for(layout, buried, (5.0, 3.5))


class TestMeanGain:
    def test_doubling_edge_distance(self):
        layout = build_layout("uniform")
        edge = layout.near_edge_y_m
        near = TxSpec("TX1_63", 18.8, edge + 50.0, 23.0)
        far = TxSpec("TX1_63", 18.8, edge + 100.0, 23.0)
        layout2 = layout.__class__(**{**layout.__dict__, "txs": (near, far)})
        drop = mean_gain_at(layout2, near, (5.0, 3.5), CFG) - mean_gain_at(
            layout2, far, (5.0, 3.5), CFG
        )
        assert drop == pytest.approx(40.0 * math.log10(2.0), abs=1e-9)

    def test_matches_canyon_model_in_db(self):
        layout = build_layout("uniform")
        tx = layout.txs[0]
        point = (5.0, 3.5)
        geom = geometry_for(layout, tx, point, CFG.psi)
        expected = 10.0 * math.log10(received_power_approx(geom)) + CFG.gain_offset_db
        assert mean_gain_at(layout, tx, point, CFG) == pytest.approx(expected, abs=1e-12)

    def test_hand_geometry_reference_value(self):
        geom = CanyonGeometry(h=17.4, d=8.0, D=100.0, h_prime=5.0, psi=0.1)
        assert 10.0 * math.log10(received_power_approx(geom)) == pytest.approx(
            10.0 * math.log10(1.392e-7), abs=1e-9
        )


class TestHornPattern:
    def test_half_power_at_half_beamwidth(self):
        horn = HornPattern(hpbw_deg=10.0)
        assert horn.power(0.0) == pytest.approx(1.0, abs=1e-15)
        assert horn.power(math.radians(5.0)) == pytest.approx(0.5, rel=1e-12)
        assert horn.power(-math.radians(5.0)) == pytest.approx(0.5, rel=1e-12)

    def test_kernel_unit_sum_and_symmetry(self):
        kernel = HornPattern(10.0).kernel(360)
        assert kernel.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(kernel[1:], kernel[1:][::-1], atol=1e-15)

    def test_smoothing_conserves_circular_power(self):
        rng = np.random.default_rng(0)
        from portcanyon.synth import _smooth

        raw = rng.exponential(1.0, 360)
        smoothed = _smooth(raw, HornPattern(10.0).kernel(360))
        assert smoothed.sum() == pytest.approx(raw.sum(), rel=1e-9)

    def test_rejects_bad_beamwidth(self):
        with pytest.raises(DomainError):
            HornPattern(0.0)


class TestGenerateScan:
    def setup_method(self):
        self.layout = build_layout("uniform")
        self.tx = self.layout.txs[0]
        self.point = self.layout.coarse_points[0]

    def test_deterministic_and_order_independent(self):
        a1 = generate_scan(self.layout, self.tx, self.point, CFG)
        b = generate_scan(self.layout, self.tx, self.layout.coarse_points[1], CFG)
        a2 = generate_scan(self.layout, self.tx, self.point, CFG)
        assert np.array_equal(a1.gains, a2.gains)
        assert not np.array_equal(a1.gains, b.gains)

    def test_fading_disabled_gives_flat_spectrum(self):
        cfg = SynthConfig(seed=3, n_angles=360, fading=False)
        scan = generate_scan(self.layout, self.tx, self.point, cfg)
        mean = mean_gain_at(self.layout, self.tx, self.point, cfg)
        assert np.allclose(
            10.0 * np.log10(scan.gains), mean, atol=1e-9
        )

    def test_scan_metadata(self):
        scan = generate_scan(self.layout, self.tx, self.point, CFG)
        assert scan.tx == "TX1_63"
        assert (scan.x, scan.y) == self.point
        assert scan.stacking is Stacking.UNIFORM
        assert scan.vehicle_state is VehicleState.ABSENT
        assert scan.angles.size == 360

    def test_ensemble_mean_converges_to_model(self):
        # Law of large numbers over independent seeds, per angle.
        mean_db = mean_gain_at(self.layout, self.tx, self.point, CFG)
        acc = np.zeros(72)
        n = 3000
        for seed in range(n):
            cfg = SynthConfig(seed=seed, n_angles=72)
            acc += generate_scan(self.layout, self.tx, self.point, cfg).gains
        ensemble_db = 10.0 * np.log10(acc / n)
        assert np.all(np.abs(ensemble_db - mean_db) < 0.25)


class TestVehicleOffset:
    def test_recovers_configured_parameters(self):
        layout = build_layout("uniform")
        cfg = SynthConfig(seed=11, n_angles=360, vehicle_mu_db=1.13, vehicle_sigma_db=6.91)
        deltas = []
        for tx in layout.txs:
            for point in layout.dense_points:
                base = generate_scan(layout, tx, point, cfg)
                veh = add_vehicle_offset(layout, tx, base, VehicleState.POSITION1, cfg)
                deltas.append(vehicle_delta(base, veh))
        fit = fit_gaussian(np.concatenate(deltas))
        assert fit.mu_db == pytest.approx(1.13, abs=0.02)
        assert fit.sigma_db == pytest.approx(6.91, abs=0.02)

    def test_positions_use_independent_streams(self):
        layout = build_layout("uniform")
        cfg = SynthConfig(seed=11, n_angles=64)
        base = generate_scan(layout, layout.txs[0], layout.dense_points[0], cfg)
        v1 = add_vehicle_offset(layout, layout.txs[0], base, VehicleState.POSITION1, cfg)
        v2 = add_vehicle_offset(layout, layout.txs[0], base, VehicleState.POSITION2, cfg)
        assert not np.array_equal(v1.gains, v2.gains)

    def test_absent_state_rejected(self):
        layout = build_layout("uniform")
        base = generate_scan(layout, layout.txs[0], layout.dense_points[0], CFG)
        with pytest.raises(DomainError):
            add_vehicle_offset(layout, layout.txs[0], base, VehicleState.ABSENT, CFG)


class TestFullspread:
    @pytest.mark.parametrize("seed,hpbw", [(0, 10.0), (5, 5.0), (7, 20.0)])
    def test_matches_per_scan_azimuth_gain(self, seed, hpbw):
        cfg = SynthConfig(seed=seed, hpbw_deg=hpbw, n_realizations=300, n_angles=72)
        # The generator's draws, taken one validated scan per row.
        rng = synth._rng((cfg.seed, synth._STREAM_FULLSPREAD))
        raw = rng.exponential(scale=1.0, size=(cfg.n_realizations, cfg.n_angles))
        smoothed = synth._smooth(raw, cfg.horn.kernel(cfg.n_angles))
        expected = sorted(
            azimuth_gain(AngularScan(tx="fullspread", x=0.0, y=0.0,
                                     angles=cfg.angles_rad, gains=row))
            for row in smoothed
        )
        cdf = fullspread_gain_distribution(cfg)
        assert cdf.values.tolist() == expected

    def test_support_strictly_positive(self):
        cdf = fullspread_gain_distribution(SynthConfig(seed=5, n_realizations=500))
        assert cdf.values[0] > 0.0
        assert cdf.n == 500

    def test_median_stable_across_seeds(self):
        # Scaled-down stability check; the acceptance suite runs 10^4 scans.
        m1 = fullspread_gain_distribution(SynthConfig(seed=5, n_realizations=2000)).median()
        m2 = fullspread_gain_distribution(SynthConfig(seed=6, n_realizations=2000)).median()
        assert abs(m1 - m2) < 0.4

    def test_narrower_beam_shifts_distribution_right(self):
        wide = fullspread_gain_distribution(
            SynthConfig(seed=7, n_realizations=2000, hpbw_deg=20.0)
        )
        narrow = fullspread_gain_distribution(
            SynthConfig(seed=7, n_realizations=2000, hpbw_deg=5.0)
        )
        for p in (0.25, 0.5, 0.75):
            assert narrow.quantile(p) > wide.quantile(p)


class TestCampaign:
    def test_row_counts(self):
        layout = build_layout("uniform")
        cfg = SynthConfig(seed=1, n_angles=36)
        scans = generate_campaign(layout, cfg, vehicle_mode="none")
        assert len(scans) == len(layout.txs) * len(layout.all_points())
        dense = generate_campaign(layout, cfg, vehicle_mode="dense")
        expected_extra = 2 * len(layout.txs) * len(layout.dense_points)
        assert len(dense) == len(scans) + expected_extra

    def test_unknown_vehicle_mode(self):
        with pytest.raises(DomainError):
            generate_campaign(build_layout("uniform"), CFG, vehicle_mode="sometimes")

    @staticmethod
    def _crane_sweep_samples(cfg):
        """Angle-averaged gains over the TX1 crane positions (shared mount
        height, model distance varying), against the model distance."""
        layout = build_layout("uniform")
        samples = []
        for tx in layout.txs:
            if not tx.tx_id.startswith("TX1_"):
                continue
            geom_d = tx.y - layout.near_edge_y_m
            for point in layout.coarse_points:
                scan = generate_scan(layout, tx, point, cfg)
                samples.append(GainSample(geom_d, circular_mean_gain(scan)))
        return samples

    def test_free_slope_regression_recovers_fourth_power(self):
        samples = self._crane_sweep_samples(SynthConfig(seed=2, n_angles=360))
        fit = fit_loglinear(samples)
        assert abs(fit.n - (-4.0)) <= fit.ci_n

    def test_pinned_fit_rmse_reflects_fading_spread(self):
        samples = self._crane_sweep_samples(SynthConfig(seed=4, n_angles=360))
        fit = fit_fixed_slope(samples, -4.0)
        # Angle-averaging 360 iid exponential bins leaves a residual spread
        # of about (10/ln10)/sqrt(360) ~ 0.23 dB.
        assert 0.1 < fit.rmse_db < 0.45


def test_vehicle_mode_all_is_unknown():
    with pytest.raises(DomainError, match="unknown vehicle_mode 'all'"):
        generate_campaign(build_layout("uniform"), CFG, vehicle_mode="all")


@pytest.mark.parametrize("n_angles", [synth.MAX_N_ANGLES + 1, 100_000_000])
def test_n_angles_is_bounded(tmp_path, n_angles):
    # Checked where the config becomes a SynthConfig: nothing is allocated.
    ini = tmp_path / "big.ini"
    ini.write_text(f"[synth]\nn_angles = {n_angles}\n", encoding="utf-8")
    cfg = load_config(str(ini))
    with pytest.raises(DomainError, match=f"at most {synth.MAX_N_ANGLES} angles"):
        cfg.synth_config()


def test_n_angles_bound_admits_hundredth_degree_steps(tmp_path):
    ini = tmp_path / "fine.ini"
    ini.write_text("[synth]\nn_angles = 36000\n", encoding="utf-8")
    assert load_config(str(ini)).synth_config().n_angles == synth.MAX_N_ANGLES
