"""Synthetic campaign generator: layouts, horn smoothing, determinism."""

import math
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scansets import Scan, column, gain_samples, grid, records, scan_set
from test_dataio import oracle_scans_bytes

from portcanyon import synth
from portcanyon.angular import Stacking, VehicleState, circular_mean_gain
from portcanyon.config import load_config
from portcanyon.dataio import write_scans
from portcanyon.errors import DomainError, IngestError
from portcanyon.geometry import CanyonGeometry, received_power_approx
from portcanyon.pathloss import fit_fixed_slope, fit_loglinear
from portcanyon.synth import (
    HornPattern,
    SynthConfig,
    build_layout,
    fullspread_gain_distribution,
    generate_campaign,
    geometry_for,
    mean_gain_at,
    tx_position,
)
from portcanyon.vehicle import fit_gaussian, vehicle_delta

CFG = SynthConfig(seed=3, n_angles=360)


def one_point(layout, point, dense=False):
    """layout narrowed to one grid point, coarse or dense.  The transmitters
    stay whole: each random stream is keyed by the TX's index in the layout."""
    if dense:
        return replace(layout, coarse_points=(), dense_points=(point,))
    return replace(layout, coarse_points=(point,), dense_points=())


# ----------------------------------------------- per-scan reference generator

def oracle_scan(layout, tx, rx_point, cfg) -> Scan:
    """One baseline scan, generated on its own, as the per-scan generator did
    before `generate_campaign` worked on matrices."""
    mean_lin = 10.0 ** (mean_gain_at(layout, tx, rx_point, cfg) / 10.0)
    if cfg.fading:
        rng = synth._rng(synth._point_entropy(cfg, synth._STREAM_SCAN, layout.txs.index(tx),
                                              rx_point))
        raw = rng.exponential(scale=mean_lin, size=cfg.n_angles)
    else:
        raw = np.full(cfg.n_angles, mean_lin)
    gains = 10.0 * np.log10(synth._smooth(raw, cfg.horn.kernel(cfg.n_angles)))
    x, y = rx_point
    return Scan(tx=tx, x=x, y=y, angles=grid(cfg.n_angles), gains=gains,
                vehicle_state=VehicleState.ABSENT, stacking=layout.stacking)


def oracle_vehicle_scan(layout, tx, base, state, cfg) -> Scan:
    """The with-vehicle scan derived from a baseline scan, on its own: its dB
    gains through linear power and back, as the generator sends them."""
    rng = synth._rng(synth._point_entropy(
        cfg, synth._STREAM_VEHICLE, layout.txs.index(tx), (base.x, base.y),
        extra=(synth._VEHICLE_CODE[state],)))
    delta_db = rng.normal(cfg.vehicle_mu_db, cfg.vehicle_sigma_db, base.gains.size)
    gains = 10.0 * np.log10(10.0 ** ((base.gains - delta_db) / 10.0))
    return Scan(tx=base.tx, x=base.x, y=base.y, angles=base.angles, gains=gains,
                vehicle_state=state, stacking=base.stacking)


def oracle_campaign(layout, cfg, vehicle_mode) -> list:
    """The per-scan campaign, its scans checked as one set."""
    scans = []
    for tx in layout.txs:
        for point in layout.all_points():
            base = oracle_scan(layout, tx, point, cfg)
            scans.append(base)
            if vehicle_mode == "dense" and point in layout.dense_points:
                for state in (VehicleState.POSITION1, VehicleState.POSITION2):
                    scans.append(oracle_vehicle_scan(layout, tx, base, state, cfg))
    scan_set(scans)
    return scans


def _y_id(y_text):
    """A test id for a crane id's <y> text: its repr, or its length if long."""
    return repr(y_text) if len(y_text) < 12 else f"{len(y_text)} characters"


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
        assert list(uni.txs) == [
            "TX1_63", "TX1_73", "TX1_83", "TX1_93", "TX1_103", "TX1_113", "TX2",
        ]
        non = build_layout("nonuniform")
        assert list(non.txs) == ["TX1_63", "TX1_83", "TX1_103", "TX2"]
        assert tx_position("TX2")[:2] == (18.85, 60.5)

    @pytest.mark.parametrize("y_text", [
        "63", "-7", "+7", "7.", ".5", "6.3E+1", "1e200", "1e-400", "1" * 32,
    ], ids=_y_id)
    def test_a_crane_id_takes_a_plain_number(self, y_text):
        assert tx_position(f"TX1_{y_text}") == (18.8, float(y_text), 23.0)

    @pytest.mark.parametrize("y_text", [
        "", " 7", "7 ", "7\n", "\t7", "1_000", "inf", "nan", "Infinity", "1e400",
        "\u0663", "0x10", "7e", "e7", ".", "--7", "7.0.0", "1" * 33, "7." + "0" * 300,
    ], ids=_y_id)
    def test_a_crane_id_that_is_not_a_plain_number_has_no_position(self, y_text):
        # float() reads most of these: with spaces or an underscore, inf,
        # nan, 1e400 (infinite), an Arabic-Indic digit, 33 or 305 characters.
        # The id names angular's table files.
        with pytest.raises(IngestError, match="no position for transmitter id"):
            tx_position(f"TX1_{y_text}")

    def test_uniform_wall_heights(self):
        layout = build_layout("uniform")
        assert layout.tx_side_height_at(10.0) == 7.5
        assert layout.tx_side_height_at(29.9) == 7.5
        # Last 6 m section is two containers (5 m) high.
        assert layout.tx_side_height_at(30.1) == 5.0
        assert layout.tx_side_height_at(36.0) == 5.0

    def test_nonuniform_wall_heights(self):
        layout = build_layout("nonuniform")
        assert layout.section_heights_row2_m == (5.0, 5.0, 5.0, 7.5, 7.5, 7.5)
        assert layout.tx_side_height_at(0.0) == 5.0
        assert layout.tx_side_height_at(20.0) == 7.5

    def test_position_outside_canyon_rejected(self):
        layout = build_layout("uniform")
        with pytest.raises(DomainError):
            layout.tx_side_height_at(40.0)


class TestGeometryMapping:
    def test_link_geometry_fields(self):
        layout = build_layout("uniform")
        tx = layout.txs[0]  # TX1_63
        geom = geometry_for(layout, tx, (5.0, 3.5), SynthConfig(psi=0.1))
        assert geom.D == pytest.approx(63.0 - synth.NEAR_EDGE_Y_M, abs=1e-12)
        assert geom.h == pytest.approx(23.0 - 7.5, abs=1e-12)
        assert geom.h_prime == pytest.approx(7.5 - 1.5, abs=1e-12)
        assert geom.d == 8.0
        # The RX depth is the wall top less the configured RX height.
        cfg = SynthConfig(psi=0.1, rx_height_m=3.0)
        assert geometry_for(layout, tx, (5.0, 3.5), cfg).h_prime == 7.5 - cfg.rx_height_m

    def test_tx_over_the_edge_rejected(self):
        layout = build_layout("uniform")
        assert tx_position("TX1_10.5")[1] == synth.NEAR_EDGE_Y_M
        with pytest.raises(DomainError, match="above or inside the canyon"):
            geometry_for(layout, "TX1_10.5", (5.0, 3.5), CFG)


class TestMeanGain:
    def test_doubling_edge_distance(self):
        layout = build_layout("uniform")
        edge = synth.NEAR_EDGE_Y_M
        near, far = f"TX1_{edge + 50.0:g}", f"TX1_{edge + 100.0:g}"
        layout2 = layout.__class__(**{**layout.__dict__, "txs": (near, far)})
        drop = mean_gain_at(layout2, near, (5.0, 3.5), CFG) - mean_gain_at(
            layout2, far, (5.0, 3.5), CFG
        )
        assert drop == pytest.approx(40.0 * math.log10(2.0), abs=1e-9)

    def test_matches_canyon_model_in_db(self):
        layout = build_layout("uniform")
        tx = layout.txs[0]
        point = (5.0, 3.5)
        geom = geometry_for(layout, tx, point, CFG)
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

    @pytest.mark.parametrize("hpbw_deg", [5e-324, 1.4e-322])
    def test_beamwidth_of_zero_radians_is_domain_error(self, hpbw_deg):
        with pytest.raises(DomainError, match="deg is 0 rad in floating point"):
            HornPattern(hpbw_deg)

    def test_smallest_beamwidth_of_nonzero_radians_is_a_one_bin_kernel(self):
        kernel = HornPattern(1.43e-322).kernel(8)
        assert kernel.tolist() == [1.0] + [0.0] * 7

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


class TestBaselineScans:
    def setup_method(self):
        self.layout = build_layout("uniform")
        self.point = self.layout.coarse_points[0]

    def first_tx_gains(self, point, cfg):
        return generate_campaign(one_point(self.layout, point), cfg).gains[0]

    def test_deterministic_and_order_independent(self):
        a1 = self.first_tx_gains(self.point, CFG)
        b = self.first_tx_gains(self.layout.coarse_points[1], CFG)
        a2 = generate_campaign(self.layout, CFG).gains[0]  # TX1_63, first point
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_fading_disabled_gives_flat_spectrum(self):
        cfg = SynthConfig(seed=3, n_angles=360, fading=False)
        mean = mean_gain_at(self.layout, self.layout.txs[0], self.point, cfg)
        assert np.allclose(self.first_tx_gains(self.point, cfg), mean, atol=1e-9)

    def test_scan_metadata(self):
        scans = generate_campaign(one_point(self.layout, self.point), CFG)
        assert column(scans, "tx") == list(self.layout.txs)
        assert (scans.x[0], scans.y[0]) == self.point
        assert set(column(scans, "stacking")) == {Stacking.UNIFORM.value}
        assert set(column(scans, "vehicle_state")) == {VehicleState.ABSENT.value}
        assert scans.gains.shape == (len(self.layout.txs), 360)
        assert scans.grid.tobytes() == grid(360).tobytes()

    def test_ensemble_mean_converges_to_model(self):
        # Law of large numbers over independent seeds, per angle.
        mean_db = mean_gain_at(self.layout, self.layout.txs[0], self.point, CFG)
        acc = np.zeros(72)
        n = 3000
        for seed in range(n):
            acc += 10.0 ** (self.first_tx_gains(self.point, SynthConfig(seed=seed, n_angles=72))
                            / 10.0)
        ensemble_db = 10.0 * np.log10(acc / n)
        assert np.all(np.abs(ensemble_db - mean_db) < 0.25)


class TestVehicleScans:
    def test_recovers_configured_parameters(self):
        layout = replace(build_layout("uniform"), coarse_points=())
        cfg = SynthConfig(seed=11, n_angles=360, vehicle_mu_db=1.13, vehicle_sigma_db=6.91)
        scans = generate_campaign(layout, cfg, vehicle_mode="dense")
        deltas = vehicle_delta(scans, VehicleState.POSITION1)
        fit = fit_gaussian(deltas.ravel())
        assert fit.mu_db == pytest.approx(1.13, abs=0.02)
        assert fit.sigma_db == pytest.approx(6.91, abs=0.02)

    def test_positions_use_independent_streams(self):
        layout = build_layout("uniform")
        cfg = SynthConfig(seed=11, n_angles=64)
        scans = generate_campaign(one_point(layout, layout.dense_points[0], dense=True), cfg,
                                  vehicle_mode="dense")
        assert column(scans, "vehicle_state")[:3] == ["absent", "position1", "position2"]
        v1, v2 = scans.gains[1:3]
        assert not np.array_equal(v1, v2)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n_angles=st.integers(8, 64),
    hpbw_deg=st.floats(0.01, 360.0), fading=st.booleans(),
    gain_offset_db=st.floats(-60.0, 60.0), vehicle_mu_db=st.floats(-10.0, 10.0),
    vehicle_sigma_db=st.floats(0.0, 15.0),
    kind=st.sampled_from(["uniform", "nonuniform"]),
    vehicle_mode=st.sampled_from(["none", "dense"]),
    stride=st.integers(1, 6),
)
def test_campaign_matches_per_scan_oracle(kind, vehicle_mode, stride, **knobs):
    cfg = SynthConfig(**knobs)
    layout = build_layout(kind)
    # Every stride-th grid point keeps each example short; stride 1 is the full layout.
    layout = replace(layout, coarse_points=layout.coarse_points[::stride],
                     dense_points=layout.dense_points[::stride])
    scans = generate_campaign(layout, cfg, vehicle_mode=vehicle_mode)
    oracle = oracle_campaign(layout, cfg, vehicle_mode)
    assert [s.key for s in records(scans)] == [s.key for s in oracle]
    assert scans.gains.tobytes() == np.stack([s.gains for s in oracle]).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "campaign.csv")
        write_scans(path, scans, seed=cfg.seed)
        with open(path, "rb") as fh:
            assert fh.read() == oracle_scans_bytes(oracle, seed=cfg.seed)


class TestFullspread:
    @pytest.mark.parametrize("seed,hpbw", [(0, 10.0), (5, 5.0), (7, 20.0)])
    def test_matches_per_scan_azimuth_gain(self, seed, hpbw):
        cfg = SynthConfig(seed=seed, hpbw_deg=hpbw, n_realizations=300, n_angles=72)
        # The generator's draws, one row at a time: the max of the row's dB
        # gains less the dB of its linear mean, as `gain_cdfs` takes each
        # scan's azimuth gain.
        rng = synth._rng((cfg.seed, synth._STREAM_FULLSPREAD))
        raw = rng.exponential(scale=1.0, size=(cfg.n_realizations, cfg.n_angles))
        smoothed = synth._smooth(raw, cfg.horn.kernel(cfg.n_angles))
        expected = sorted(float(np.max(10.0 * np.log10(row) - 10.0 * np.log10(np.mean(row))))
                          for row in smoothed)
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
        layout = replace(build_layout("uniform"), dense_points=())
        scans = generate_campaign(layout, cfg)
        distance = {tx: tx_position(tx)[1] - synth.NEAR_EDGE_Y_M for tx in layout.txs}
        txs = column(scans, "tx")
        crane = np.flatnonzero([tx.startswith("TX1_") for tx in txs])
        return gain_samples([distance[txs[i]] for i in crane],
                            circular_mean_gain(scans, crane))

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
    # Checked where the config becomes a SynthConfig, which a loaded file does
    # at once: nothing is allocated.
    ini = tmp_path / "big.ini"
    ini.write_text(f"[synth]\nn_angles = {n_angles}\n", encoding="utf-8")
    with pytest.raises(DomainError, match=f"at most {synth.MAX_N_ANGLES} angles"):
        load_config(str(ini))
    cfg = load_config()
    cfg.n_angles = n_angles  # as the --n-angles flag sets it
    with pytest.raises(DomainError, match=f"at most {synth.MAX_N_ANGLES} angles"):
        cfg.synth_config()


def test_rx_height_below_the_lowest_tx_side_wall_top_is_accepted():
    assert SynthConfig(rx_height_m=4.999).rx_height_m == 4.999


@pytest.mark.parametrize("rx_height_m", [0.0, 5.0, -1.0, math.nan])
def test_rx_height_outside_the_canyon_is_a_domain_error(rx_height_m):
    message = ("RX antenna height must be in (0, 5) m, below the TX-side canyon top, "
               f"got {rx_height_m}")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        SynthConfig(rx_height_m=rx_height_m)


def test_psi_bound_keeps_every_extreme_gain_in_range():
    # The docstring's worst case: the lowest psi, offset and vehicle mean.
    extreme = dict(gain_offset_db=-synth.MAX_OFFSET_DB, vehicle_mu_db=synth.MAX_OFFSET_DB,
                   vehicle_sigma_db=synth.MAX_SIGMA_DB, n_angles=16)
    scans = generate_campaign(build_layout("uniform"), SynthConfig(psi=synth.MIN_PSI, **extreme),
                              vehicle_mode="dense")
    assert 10.0 ** (scans.gains.min() / 10.0) > np.finfo(float).tiny
    with pytest.raises(DomainError, match=r"^psi must be >= 0.025 rad .* got psi=0.0249$"):
        SynthConfig(psi=0.0249, **extreme)


def test_n_angles_bound_admits_hundredth_degree_steps(tmp_path):
    ini = tmp_path / "fine.ini"
    ini.write_text("[synth]\nn_angles = 36000\n", encoding="utf-8")
    assert load_config(str(ini)).synth_config().n_angles == synth.MAX_N_ANGLES
