"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; Monte Carlo criteria use fixed seeds
so the whole suite is deterministic.
"""

import math
from dataclasses import replace

import numpy as np

from portcanyon.angular import (
    AngularScan,
    VehicleState,
    azimuth_gain,
    from_db,
    gain_cdfs,
    normalized_spectrum,
)
from portcanyon.dataio import ingest, write_scans
from portcanyon.geometry import (
    CanyonGeometry,
    elevation_angles,
    received_power_approx,
    received_power_exact,
)
from portcanyon.linkbudget import (
    LinkBudgetConfig,
    coverage_range_m,
    max_allowable_pathloss_db,
    noise_floor_dbm,
)
from portcanyon.pathloss import GainSample, LogLinFit, fit_fixed_slope, fit_loglinear
from portcanyon.spatialcorr import DenseLine, averaged_correlation
from portcanyon.stats import ks_gap
from portcanyon.synth import (
    HornPattern,
    SynthConfig,
    TxSpec,
    _smooth,
    build_layout,
    fullspread_gain_distribution,
    generate_campaign,
    mean_gain_at,
)
from portcanyon.vehicle import fit_gaussian, vehicle_delta


def check(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def uniform_grid(n):
    return np.radians(360.0 * np.arange(n) / n)


# --------------------------------------------------------------------------
def test_criterion_01_link_budget():
    cfg = LinkBudgetConfig(
        tx_power_dbm_per_pol=28.0,
        tx_antenna_gain_dbi=23.0,
        shadow_margin_db=10.0,
        bandwidth_hz=400e6,
        temperature_k=300.0,
        noise_figure_db=10.0,
        required_snr_db=8.0,
    )
    floor = noise_floor_dbm(cfg)
    mapl = max_allowable_pathloss_db(cfg)
    fit = LogLinFit(n=-4.09, r0_db=-23.4, ci_n=0.0, ci_r0=0.0, rmse_db=0.0,
                    sample_count=0)
    rng_m = coverage_range_m(fit, 110.8)
    ok = (
        abs(floor - (-77.8)) <= 0.05
        and abs(mapl - 110.8) <= 0.05
        and abs(rng_m - 137.0) <= 2.0
    )
    check(
        1,
        f"link budget: noise floor {floor:.2f} dBm (-77.8+/-0.05), "
        f"MAPL {mapl:.2f} dB (110.8+/-0.05), range {rng_m:.1f} m (137+/-2)",
        ok,
    )


# --------------------------------------------------------------------------
def test_criterion_02_elevation_angles():
    h = 17.4  # one back-solved TX height must satisfy both distances
    phi1_63 = math.degrees(
        elevation_angles(CanyonGeometry(h=h, d=8.0, D=63.0, h_prime=5.0))[0]
    )
    phi1_113 = math.degrees(
        elevation_angles(CanyonGeometry(h=h, d=8.0, D=113.0, h_prime=5.0))[0]
    )
    ok = abs(phi1_63 - 15.4) <= 0.15 and abs(phi1_113 - 8.8) <= 0.15
    check(
        2,
        f"elevation angles at h={h} m: phi1(63 m)={phi1_63:.2f} deg "
        f"(15.4+/-0.15), phi1(113 m)={phi1_113:.2f} deg (8.8+/-0.15)",
        ok,
    )


# --------------------------------------------------------------------------
def _fd_slope_db_per_decade(geom: CanyonGeometry, distance: float) -> float:
    step = 1.05
    lo = received_power_exact(replace(geom, D=distance / step))
    hi = received_power_exact(replace(geom, D=distance * step))
    return 10.0 * (math.log10(hi) - math.log10(lo)) / (2.0 * math.log10(step))


def test_criterion_03_model_slope():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(50):
        geom = CanyonGeometry(
            h=rng.uniform(1.0, 30.0),
            d=rng.uniform(1.0, 15.0),
            D=100.0,
            h_prime=rng.uniform(0.5, 10.0),
            psi=rng.uniform(0.02, 0.5),
        )
        for scale in (50.0, 200.0, 1000.0):
            dev = abs(_fd_slope_db_per_decade(geom, scale * max(geom.h, geom.d)) + 40.0)
            worst = max(worst, dev)
    slope_ok = worst < 0.5

    # Noiseless mean-model gains over a 60..300 m sweep of the TX distance.
    layout = build_layout("uniform")
    cfg = SynthConfig(seed=0, n_angles=36)
    distances = np.linspace(60.0, 300.0, 25)
    txs = tuple(
        TxSpec(f"TX1_{y:g}", 18.8, y, 23.0)
        for y in layout.near_edge_y_m + distances
    )
    sweep = replace(layout, txs=txs)
    samples = [
        GainSample(float(d), mean_gain_at(sweep, tx, (5.0, 3.5), cfg))
        for d, tx in zip(distances, txs)
    ]
    fit = fit_loglinear(samples)
    fit_ok = abs(fit.n - (-4.0)) <= 0.05

    check(
        3,
        f"fourth-power decay: worst |slope+40| = {worst:.3f} dB/decade (<0.5) "
        f"for D >= 50*max(h,d); noiseless sweep fit n = {fit.n:.4f} (-4.0+/-0.05)",
        slope_ok and fit_ok,
    )


# --------------------------------------------------------------------------
def test_criterion_04_exact_vs_approx_ratio():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(100):
        geom = CanyonGeometry(
            h=rng.uniform(0.5, 30.0),
            d=rng.uniform(0.5, 15.0),
            D=100.0,
            h_prime=rng.uniform(0.5, 10.0),
            psi=rng.uniform(0.02, 0.5),
        )
        scale = max(geom.h, geom.d, geom.h_prime)
        limit_geom = replace(geom, D=1e6 * scale)
        limit = received_power_exact(limit_geom) / received_power_approx(limit_geom)
        for factor in (100.0, 300.0, 1000.0):
            probe = replace(geom, D=factor * scale)
            ratio = received_power_exact(probe) / received_power_approx(probe)
            worst = max(worst, abs(ratio / limit - 1.0))
    ok = worst < 0.05
    check(
        4,
        f"exact/approx ratio within {worst * 100:.2f}% (<5%) of its far-field "
        "limit for D >= 100*max(h,d,h') over 100 random geometries",
        ok,
    )


# --------------------------------------------------------------------------
def test_criterion_05_regression_recovery():
    distances = np.linspace(55.0, 135.0, 30)
    x = 10.0 * np.log10(distances)
    exact = fit_loglinear(
        [GainSample(float(d), -2.18 * xi - 57.4) for d, xi in zip(distances, x)]
    )
    exact_ok = (
        abs(exact.n - (-2.18)) < 1e-9
        and abs(exact.r0_db - (-57.4)) < 1e-7
        and exact.rmse_db < 1e-9
    )

    rng = np.random.default_rng(50)
    trials = 10_000
    hits_n = hits_r0 = 0
    for _ in range(trials):
        gains = -2.18 * x - 57.4 + rng.normal(0.0, 2.7, x.size)
        fit = fit_loglinear(
            [GainSample(float(d), float(g)) for d, g in zip(distances, gains)]
        )
        hits_n += abs(fit.n - (-2.18)) <= fit.ci_n
        hits_r0 += abs(fit.r0_db - (-57.4)) <= fit.ci_r0
    cov_n = hits_n / trials
    cov_r0 = hits_r0 / trials
    coverage_ok = abs(cov_n - 0.95) <= 0.02 and abs(cov_r0 - 0.95) <= 0.02
    check(
        5,
        f"regression: noiseless (-2.18, -57.4) recovered exactly "
        f"({'yes' if exact_ok else 'no'}); 95% CI coverage over 10^4 noisy "
        f"trials: slope {cov_n:.3f}, intercept {cov_r0:.3f} (0.95+/-0.02)",
        exact_ok and coverage_ok,
    )


# --------------------------------------------------------------------------
def test_criterion_06_fixed_slope_parity():
    rng = np.random.default_rng(60)
    distances = np.linspace(55.0, 135.0, 40)
    gains = [
        -40.0 * math.log10(d) - 25.0 + rng.normal(0.0, 2.3) for d in distances
    ]
    samples = [GainSample(float(d), g) for d, g in zip(distances, gains)]
    free = fit_loglinear(samples)
    pinned = fit_fixed_slope(samples, -4.0)
    diff = abs(free.rmse_db - pinned.rmse_db)
    ok = diff < 0.3
    check(
        6,
        f"fixed-slope parity: RMSE free {free.rmse_db:.3f} dB vs pinned "
        f"{pinned.rmse_db:.3f} dB, difference {diff:.3f} dB (<0.3)",
        ok,
    )


# --------------------------------------------------------------------------
def test_criterion_07_angular_invariants():
    rng = np.random.default_rng(70)
    grid = uniform_grid(360)
    worst_mean_err = 0.0
    min_gain = math.inf
    for _ in range(1000):
        gains = rng.lognormal(mean=-14.0, sigma=rng.uniform(0.2, 2.0), size=360)
        scan = AngularScan(tx="TX2", x=1.0, y=3.5, angles=grid, gains=gains)
        spectrum = normalized_spectrum(scan)
        worst_mean_err = max(worst_mean_err, abs(np.mean(from_db(spectrum)) - 1.0))
        min_gain = min(min_gain, azimuth_gain(scan))
    ok = worst_mean_err < 1e-12 and min_gain >= 0.0
    check(
        7,
        f"normalized spectrum: worst |linear mean - 1| = {worst_mean_err:.2e} "
        f"(<1e-12) and min azimuth gain {min_gain:.3f} dB (>=0) over 10^3 scans",
        ok,
    )


# --------------------------------------------------------------------------
def test_criterion_08_spatial_decorrelation():
    rng = np.random.default_rng(80)
    grid = uniform_grid(8)
    positions = 13.5 + 0.1 * np.arange(15)
    lines = []
    for _ in range(10_000):
        gains = rng.exponential(1e-6, size=(15, 8))
        scans = tuple(
            AngularScan(tx="TX1_63", x=float(x), y=3.5, angles=grid, gains=gains[i])
            for i, x in enumerate(positions)
        )
        lines.append(DenseLine(positions=positions, scans=scans))
    _, corr = averaged_correlation(lines)
    worst = float(np.max(np.abs(corr[1:])))
    ok = worst < 0.1
    check(
        8,
        f"spatial decorrelation: 10^4 iid-fading lines at 0.1 m spacing give "
        f"max |r(lag>=1)| = {worst:.4f} (<0.1)",
        ok,
    )


# --------------------------------------------------------------------------
def test_criterion_09_vehicle_statistics():
    layout = replace(build_layout("uniform"), coarse_points=())  # the vehicle's dense grid
    deltas = []
    for seed in range(5):
        cfg = SynthConfig(seed=seed, n_angles=360,
                          vehicle_mu_db=1.13, vehicle_sigma_db=6.91)
        scans = generate_campaign(layout, cfg, vehicle_mode="dense")
        deltas.append(vehicle_delta(
            scans[scans.vehicle_state == VehicleState.ABSENT.value],
            scans[scans.vehicle_state == VehicleState.POSITION1.value]).ravel())
    pool = np.concatenate(deltas)
    fit = fit_gaussian(pool)
    gap = ks_gap(pool, fit.mu_db, fit.sigma_db)
    ok = (
        pool.size >= 1_000_000
        and abs(fit.mu_db - 1.13) <= 0.05
        and abs(fit.sigma_db - 6.91) <= 0.05
        and gap < 0.01
    )
    check(
        9,
        f"vehicle pipeline over {pool.size} deltas: mu {fit.mu_db:.3f} "
        f"(1.13+/-0.05), sigma {fit.sigma_db:.3f} (6.91+/-0.05), "
        f"CDF sup-gap {gap:.4f} (<0.01)",
        ok,
    )


# --------------------------------------------------------------------------
def test_criterion_10_fullspread_azimuth_gain():
    med_a = fullspread_gain_distribution(
        SynthConfig(seed=101, n_realizations=10_000)
    ).median()
    med_b = fullspread_gain_distribution(
        SynthConfig(seed=202, n_realizations=10_000)
    ).median()
    median_ok = abs(med_a - med_b) < 0.2

    # Isotropic ensemble: pooled normalized-gain CDF vs TX-direction CDF.
    rng = np.random.default_rng(12345)
    n_scans, n_angles = 10_000, 360
    smoothed = _smooth(
        rng.exponential(1.0, (n_scans, n_angles)), HornPattern(10.0).kernel(n_angles)
    )
    grid = uniform_grid(n_angles)
    xs = 1.0 + (np.arange(n_scans) % 33)
    ys = np.array([3.5, 5.5, 7.5, 9.5])[np.arange(n_scans) % 4]
    scans = [
        AngularScan(tx="TX1_63", x=float(xs[i]), y=float(ys[i]), angles=grid,
                    gains=smoothed[i])
        for i in range(n_scans)
    ]
    cdf_all, cdf_tx = gain_cdfs(scans, {"TX1_63": (18.8, 63.0)})
    ps = np.arange(0.02, 0.981, 0.02)
    gap = max(abs(cdf_all.quantile(p) - cdf_tx.quantile(p)) for p in ps)
    # Threshold frozen from the first oracle run (observed 0.021 dB); kept an
    # order of magnitude below the 2.8 dB upper envelope seen in the field.
    gap_ok = gap < 0.5
    check(
        10,
        f"full spread: medians {med_a:.3f}/{med_b:.3f} dB differ by "
        f"{abs(med_a - med_b):.3f} dB (<0.2) across seeds; all-directions vs "
        f"TX-direction CDF gap {gap:.3f} dB (<0.5, frozen)",
        median_ok and gap_ok,
    )


# --------------------------------------------------------------------------
def test_criterion_11_roundtrip_determinism(tmp_path):
    layout = build_layout("nonuniform")
    cfg = SynthConfig(seed=7, n_angles=60)
    scans = generate_campaign(layout, cfg, vehicle_mode="dense")

    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_scans(path_a, scans, seed=cfg.seed)
    write_scans(
        path_b, generate_campaign(layout, cfg, vehicle_mode="dense"), seed=cfg.seed
    )
    bytes_ok = path_a.read_bytes() == path_b.read_bytes()

    back = ingest(path_a)
    lossless_ok = len(back) == len(scans) and all(
        rec.key == orig.key
        and np.allclose(rec.angles, orig.angles, atol=1e-12)
        and np.allclose(rec.gains, orig.gains, rtol=1e-12)
        for rec, orig in zip(back, scans)
    )

    from portcanyon.cli import main

    rep_a, rep_b = tmp_path / "rep_a", tmp_path / "rep_b"
    rc1 = main(["angular", "--input", str(path_a), "--out-dir", str(rep_a)])
    rc2 = main(["angular", "--input", str(path_a), "--out-dir", str(rep_b)])
    reports_ok = rc1 == rc2 == 0 and all(
        (rep_a / f.name).read_bytes() == (rep_b / f.name).read_bytes()
        for f in sorted(rep_a.iterdir())
    )
    check(
        11,
        "round-trip: write->ingest reproduces every scan (grids to 1e-12 rad, "
        "gains to 1e-12 relative); same seed gives byte-identical datasets "
        "and reports",
        bytes_ok and lossless_ok and reports_ok,
    )
