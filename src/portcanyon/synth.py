"""Synthetic measurement-campaign generator.

Stands in for the (non-public) measured dataset: replicates the campaign
layouts (canyon dimensions, stacking profiles, TX mounts, coarse and dense
RX grids) and produces angular scans whose mean power follows the canyon
model with fully spread Rayleigh fading, smoothed by the rotating horn's
pattern.  `generate_campaign` returns the whole campaign as one
`angular.ScanSet`, built and checked by `ScanSet.from_rows` as every set is,
and `dataio.write_scans` writes it.  Everything is driven by one integer seed;
every (tx, point, variant) gets its own child random stream, so scans can be
generated in any order, or in parallel, with identical results.

Layout coordinate conventions (lengths in metres):

* x runs along the canyon, y across it, z up; the reference corner is the
  outer corner of the reference-side container row at (0, 0).
* Each container row is six 6 m sections long and assumed 2.5 m thick, so
  the 8 m canyon interior spans y in [2.5, 10.5]; both TXs stand beyond the
  far row (y > 13), which is therefore the wall the wave enters over.
* Row 1 is the reference-side wall (small y), row 2 the TX-side wall.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .angular import ScanSet, Stacking, VehicleState, from_db, to_db
from .errors import DomainError, IngestError
from .geometry import CanyonGeometry, received_power_approx
from .stats import EmpiricalCdf, empirical_cdf

__all__ = [
    "CampaignLayout", "HornPattern", "SynthConfig", "build_layout",
    "geometry_for", "mean_gain_at", "fullspread_gain_distribution", "generate_campaign",
    "tx_position", "MAX_N_ANGLES", "DENSE_LINE_TENTHS",
]

CANYON_LENGTH_M = 36.0
CANYON_WIDTH_M = 8.0
WALL_THICKNESS_M = 2.5
SECTION_LENGTH_M = 6.0
N_SECTIONS = 6

# Inner top edge of the TX-side wall: interior starts at the wall thickness
# and spans the canyon width.
NEAR_EDGE_Y_M = WALL_THICKNESS_M + CANYON_WIDTH_M

UNIFORM_HEIGHTS_M = (7.5, 7.5, 7.5, 7.5, 7.5, 5.0)
NONUNIFORM_ROW1_M = (10.0, 7.5, 5.0, 5.0, 7.5, 5.0)
NONUNIFORM_ROW2_M = (5.0, 5.0, 5.0, 7.5, 7.5, 7.5)

TX1_X_M, TX1_Z_M = 18.8, 23.0
TX2_X_M, TX2_Y_M, TX2_Z_M = 18.85, 60.5, 22.0
TX1_Y_UNIFORM_M = (63.0, 73.0, 83.0, 93.0, 103.0, 113.0)
TX1_Y_NONUNIFORM_M = (63.0, 83.0, 103.0)
_CRANE_ID = re.compile(r"TX1_(?=.{1,32}\Z)[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

RX_Y_LINES_M = (3.5, 5.5, 7.5, 9.5)
COARSE_X_START_M = 1.0
COARSE_X_STEP_UNIFORM_M = 4.0
COARSE_X_STEP_NONUNIFORM_M = 2.0
# The dense grid's refined line in tenths of a metre (13.5-14.9 m), `spatial`'s default.
DENSE_LINE_TENTHS = range(135, 150, 1)

# Random-stream tags keeping scan fading, vehicle perturbations and the
# full-spread reference ensemble on disjoint child streams of one seed.
_STREAM_SCAN = 0
_STREAM_VEHICLE = 1
_STREAM_FULLSPREAD = 2

# Azimuth samples per rotation, at most 0.01 deg steps: each scan's arrays
# then stay under 300 kB, as `MAX_HISTOGRAM_BINS` bounds a histogram.
MAX_N_ANGLES = 36_000

# Bounds of `SynthConfig`'s dB knobs and of its psi, derived in its
# docstring; every command that loads a config checks them.
MAX_OFFSET_DB = 1000.0
MAX_SIGMA_DB = 100.0
MIN_PSI = 0.025

_VEHICLE_CODE = {VehicleState.POSITION1: 1, VehicleState.POSITION2: 2}


@dataclass(frozen=True)
class HornPattern:
    """Rotating RX horn, azimuth power pattern.

    Gaussian main lobe exp(-4*ln(2)*(offset/HPBW)^2): peak 1 at boresight
    and exactly 0.5 at +/- HPBW/2.  No sidelobes are modelled; the spectrum
    normalization makes the absolute gain irrelevant.
    """

    hpbw_deg: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hpbw_deg <= 360.0:
            raise DomainError(f"HPBW must be in (0, 360] deg, got {self.hpbw_deg}")
        if math.radians(self.hpbw_deg) == 0.0:  # below about 1.4e-322 deg: a 0/0 lobe
            raise DomainError(f"HPBW of {self.hpbw_deg} deg is 0 rad in floating point")

    def power(self, offset_rad):
        """Normalized pattern at an offset from boresight (rad, wrapped)."""
        offset = np.mod(np.asarray(offset_rad, dtype=float) + math.pi, 2.0 * math.pi) - math.pi
        hpbw = math.radians(self.hpbw_deg)
        # A tiny HPBW squares offset/hpbw to inf; exp(-inf) = 0 is the exact
        # limit, so numpy's overflow warning would report no error.
        with np.errstate(over="ignore"):
            return np.exp(-4.0 * math.log(2.0) * (offset / hpbw) ** 2)

    def kernel(self, n_angles: int) -> np.ndarray:
        """Unit-sum circular smoothing kernel on an n-point uniform grid."""
        offsets = 2.0 * math.pi * np.arange(n_angles) / n_angles
        w = self.power(offsets)
        return w / w.sum()


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; a fixed seed makes every output byte-identical.

    |gain_offset_db| and |vehicle_mu_db| are at most MAX_OFFSET_DB (1000 dB),
    vehicle_sigma_db at most MAX_SIGMA_DB (100 dB) and psi at least MIN_PSI
    (0.025 rad), so that every gain fits a float.  A model mean gain,
    10*log10(psi*h*d/D**4) at the campaign points (h 14.5-18 m, d 8 m, D
    50-102.5 m), lies within 10*log10(psi) - 60 and -44 dB; with the offset
    and a vehicle delta within 9 sigma of mu (+/-1900 dB), a scan's mean
    gain lies within 10*log10(psi) - 2960 and 2856 dB.  Normal floats > 0
    span -3076 to 3082 dB: at the default psi = 0.1 that leaves over 100 dB
    below every scan mean for the deepest fades.  A smaller psi lowers every
    gain by 10 dB a decade, so the smallest psi that still leaves 100 dB
    has 10*log10(psi) - 2960 = -3076 + 100, that is 10*log10(psi) = -16 dB:
    psi = 10**-1.6, about 0.025 rad (at 0.025 the unrounded bounds, -59.5
    and -3076.5 dB, leave 101 dB).  `to_db` (a gain of 0) and
    `ScanSet.from_rows` (naming the first scan out of range) stay the backstop.
    """

    seed: int = 0
    n_angles: int = 360
    hpbw_deg: float = HornPattern.hpbw_deg
    psi: float = CanyonGeometry.psi
    fading: bool = True
    n_realizations: int = 10_000
    gain_offset_db: float = 0.0
    vehicle_mu_db: float = 1.13
    vehicle_sigma_db: float = 6.91

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.n_angles < 8:
            raise DomainError(f"need at least 8 angles, got {self.n_angles}")
        if self.n_angles > MAX_N_ANGLES:
            raise DomainError(f"at most {MAX_N_ANGLES} angles, got {self.n_angles}")
        if self.n_realizations < 1:
            raise DomainError("n_realizations must be >= 1")
        for name, bound in (("gain_offset_db", MAX_OFFSET_DB), ("vehicle_mu_db", MAX_OFFSET_DB),
                            ("vehicle_sigma_db", MAX_SIGMA_DB)):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            if abs(value) > bound:
                raise DomainError(f"{name} must be within +/-{bound:g} dB, got {value}")
        if self.vehicle_sigma_db < 0.0:
            raise DomainError("vehicle sigma must be >= 0")
        HornPattern(self.hpbw_deg)  # the horn's and the canyon model's own range checks
        CanyonGeometry.check_psi(self.psi)
        if self.psi < MIN_PSI:
            raise DomainError(f"psi must be >= {MIN_PSI:g} rad for the synthetic gains to "
                              f"fit a float, got psi={self.psi}")

    @property
    def horn(self) -> HornPattern:
        return HornPattern(hpbw_deg=self.hpbw_deg)

    @property
    def angles_rad(self) -> np.ndarray:
        return np.radians(360.0 * np.arange(self.n_angles) / self.n_angles)


@dataclass(frozen=True)
class CampaignLayout:
    """Campaign geometry: stacking, TX mounts (their ids, each placed by
    `tx_position`), RX grids, in the canyon the module's constants fix."""

    stacking: Stacking
    section_heights_row1_m: tuple[float, ...]
    section_heights_row2_m: tuple[float, ...]
    txs: tuple[str, ...]
    coarse_points: tuple[tuple[float, float], ...]
    dense_points: tuple[tuple[float, float], ...]
    rx_height_m: float = 1.5

    def __post_init__(self) -> None:
        for row in (self.section_heights_row1_m, self.section_heights_row2_m):
            if len(row) != N_SECTIONS:
                raise DomainError(f"stacking profile needs {N_SECTIONS} sections per row")
        lowest = min(self.section_heights_row2_m)
        if not 0.0 < self.rx_height_m < lowest:
            raise DomainError(f"RX antenna height must be in (0, {lowest:g}) m, below the "
                              f"TX-side canyon top, got {self.rx_height_m}")

    def tx_side_height_at(self, x: float) -> float:
        """Height of the TX-side wall (row 2) at position x along the canyon."""
        if not 0.0 <= x <= CANYON_LENGTH_M:
            raise DomainError(f"x={x} outside the canyon (0..{CANYON_LENGTH_M} m)")
        return self.section_heights_row2_m[min(int(x // SECTION_LENGTH_M), N_SECTIONS - 1)]

    def all_points(self) -> tuple[tuple[float, float], ...]:
        return self.coarse_points + self.dense_points


def tx_position(tx_id: str) -> tuple[float, float, float]:
    """Campaign TX position (x, y, z) from its id: 'TX2', or 'TX1_<y>' for the
    crane at y metres, as `build_layout` names it.  An id names `angular`'s
    table files, so <y> must be a plain number of at most 32 characters; any
    other id, or an infinite y, is an IngestError."""
    if tx_id == "TX2":
        return (TX2_X_M, TX2_Y_M, TX2_Z_M)
    y = float(tx_id[4:]) if _CRANE_ID.fullmatch(tx_id) else math.nan
    if not math.isfinite(y):
        raise IngestError(f"no position for transmitter id {tx_id!r}; expected 'TX1_<y>' "
                          "(<y> a finite plain number of at most 32 characters) or 'TX2'")
    return (TX1_X_M, y, TX1_Z_M)


def build_layout(kind, rx_height_m: float = CampaignLayout.rx_height_m) -> CampaignLayout:
    """Assemble the campaign layout for one stacking configuration.

    Coarse RX grid: 4 lines across the canyon, x starting at 1 m with a 4 m
    step (uniform stacking) or 2 m step (nonuniform).  Dense grid: x from
    12.5 to 15.3 m in 0.2 m steps, refined to 0.1 m between 13.5 and 14.9 m.
    """
    kind = Stacking(kind)
    if kind is Stacking.UNIFORM:
        row1 = row2 = UNIFORM_HEIGHTS_M
        tx1_ys = TX1_Y_UNIFORM_M
        coarse_step = COARSE_X_STEP_UNIFORM_M
    else:
        row1, row2 = NONUNIFORM_ROW1_M, NONUNIFORM_ROW2_M
        tx1_ys = TX1_Y_NONUNIFORM_M
        coarse_step = COARSE_X_STEP_NONUNIFORM_M

    n_coarse = int((CANYON_LENGTH_M - COARSE_X_START_M) // coarse_step) + 1
    coarse_xs = [COARSE_X_START_M + coarse_step * i for i in range(n_coarse)]

    # In integer tenths of a metre, so the two step sizes merge without float fuzz.
    dense_xs = [t / 10.0 for t in sorted(set(range(125, 154, 2)) | set(DENSE_LINE_TENTHS))]

    coarse = tuple((x, y) for y in RX_Y_LINES_M for x in coarse_xs)
    dense = tuple((x, y) for y in RX_Y_LINES_M for x in dense_xs)

    return CampaignLayout(
        stacking=kind,
        section_heights_row1_m=row1,
        section_heights_row2_m=row2,
        txs=tuple(f"TX1_{y:g}" for y in tx1_ys) + ("TX2",),
        coarse_points=coarse,
        dense_points=dense,
        rx_height_m=rx_height_m,
    )


def geometry_for(
    layout: CampaignLayout, tx_id: str, rx_point, psi: float = CanyonGeometry.psi
) -> CanyonGeometry:
    """Map layout coordinates onto the canyon-model geometry for one link.

    D is the horizontal distance of the TX (at `tx_position`) to the near
    (TX-side) canyon edge, h the TX height above the local wall top, and
    h_prime the RX antenna depth below it.  Uses the wall section at the RX's
    x position.
    """
    x, _y = rx_point
    _, tx_y, tx_z = tx_position(tx_id)
    wall_h = layout.tx_side_height_at(x)
    distance = tx_y - NEAR_EDGE_Y_M
    if distance <= 0.0:
        raise DomainError(
            f"TX {tx_id!r} is above or inside the canyon (y={tx_y}); "
            "the canyon model needs the TX beyond the near edge"
        )
    h_prime = wall_h - layout.rx_height_m  # > 0: the layout keeps the RX below every wall top
    return CanyonGeometry(h=tx_z - wall_h, d=CANYON_WIDTH_M, D=distance, h_prime=h_prime,
                          psi=psi)


def mean_gain_at(layout: CampaignLayout, tx_id: str, rx_point, cfg: SynthConfig) -> float:
    """Deterministic mean channel gain (dB) of the canyon model at one point.

    Proportional gain plus the configured calibration offset; the offset is
    the knob that pins synthetic gains to a desired absolute level.
    """
    geom = geometry_for(layout, tx_id, rx_point, cfg.psi)
    return to_db(received_power_approx(geom)) + cfg.gain_offset_db


def _rng(entropy) -> np.random.Generator:
    return np.random.default_rng(list(entropy))


def _point_entropy(cfg: SynthConfig, stream: int, tx_index: int, rx_point, extra=()):
    x, y = rx_point
    return (cfg.seed, stream, tx_index, round(x * 1000), round(y * 1000), *extra)


def _smooth(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Circular convolution along the last axis with a symmetric kernel."""
    n = values.shape[-1]
    return np.fft.irfft(np.fft.rfft(values) * np.fft.rfft(kernel), n=n)


def fullspread_gain_distribution(cfg: SynthConfig) -> EmpiricalCdf:
    """Monte Carlo distribution of the azimuth directional gain for a fully
    spread channel.

    Generates cfg.n_realizations unit-mean fully spread scans (independent
    exponential bins smoothed by the horn) and returns the empirical CDF of
    their azimuth gain.  This is the reference any measured azimuth-gain
    distribution is compared against.  The azimuth gain of each row is taken
    as `angular.gain_cdfs` takes it for its third CDF: the row's max dB gain
    over its circular mean.
    """
    rng = _rng((cfg.seed, _STREAM_FULLSPREAD))
    raw = rng.exponential(scale=1.0, size=(cfg.n_realizations, cfg.n_angles))
    smoothed = _smooth(raw, cfg.horn.kernel(cfg.n_angles))
    mean_db = to_db(np.mean(smoothed, axis=-1))
    spectra = to_db(smoothed, out=smoothed)
    spectra -= mean_db[:, None]
    return empirical_cdf(spectra.max(axis=1))


def generate_campaign(
    layout: CampaignLayout, cfg: SynthConfig, vehicle_mode: str = "none"
) -> ScanSet:
    """Generate the full scan dataset for a layout, as one checked ScanSet.

    vehicle_mode:
        "none"  - baseline scans only;
        "dense" - vehicle variants (both positions) on the dense grid, the
                  part of the campaign where the vehicle was parked.

    A baseline scan draws independent exponential powers per angle bin
    (Rayleigh envelope) around the model mean, and each transmitter's
    (points x angles) draws are smoothed with the horn pattern in one call;
    with fading disabled the spectrum is flat at the mean gain.  A vehicle
    scan subtracts an independent N(mu, sigma) dB perturbation per angle from
    its baseline, so that baseline - vehicle recovers those draws.  Each (tx,
    point) and each (tx, point, vehicle state) draws from its own child
    stream of the seed, so with a fixed seed the dataset is byte-identical
    run to run and independent of how generation is scheduled.

    Scans come out in a canonical order (tx, then grid point, baseline
    before vehicle states), on the one grid `cfg.angles_rad` in degrees, the
    draws converted to dB in place.  `ScanSet.from_rows` checks the set as every
    set: the first scan whose gains leave the float range, which
    `SynthConfig`'s bounds rule out at the default psi, raises its
    DomainError.
    """
    if vehicle_mode not in ("none", "dense"):
        raise DomainError(f"unknown vehicle_mode {vehicle_mode!r}")
    n, points, kernel = cfg.n_angles, layout.all_points(), cfg.horn.kernel(cfg.n_angles)
    base = np.empty((len(layout.txs), len(points), n))  # draws, then smoothed in place
    keys, source, moved, deltas = [], [], [], []
    for t, tx in enumerate(layout.txs):
        for p, point in enumerate(points):
            mean_lin = from_db(mean_gain_at(layout, tx, point, cfg))
            base[t, p] = (_rng(_point_entropy(cfg, _STREAM_SCAN, t, point)).exponential(mean_lin, n)
                          if cfg.fading else mean_lin)
            states = (VehicleState.ABSENT,)
            if vehicle_mode == "dense" and point in layout.dense_points:
                states += (VehicleState.POSITION1, VehicleState.POSITION2)
            for state in states:
                keys.append((tx, *point, state.value, layout.stacking.value))
                source.append(t * len(points) + p)
                moved.append(state in _VEHICLE_CODE)
                if moved[-1]:
                    rng = _rng(_point_entropy(cfg, _STREAM_VEHICLE, t, point,
                                              extra=(_VEHICLE_CODE[state],)))
                    deltas.append(rng.normal(cfg.vehicle_mu_db, cfg.vehicle_sigma_db, n))
        with np.errstate(over="ignore", invalid="ignore"):
            base[t] = _smooth(base[t], kernel)
    gains, moved = base.reshape(-1, n)[source], np.array(moved, dtype=bool)
    to_db(gains, out=gains)
    if deltas:
        # Through linear power and back on purpose: the files keep the bytes
        # tests/golden_digests.json records (37,090 of the 443,520 paper-scale
        # vehicle values differ without it), and each value, as a baseline one,
        # is then a fixed point of to_db(from_db(.)) 10 dB or more from 0 dB.
        vehicle_db = gains[moved] - np.array(deltas)
        gains[moved] = to_db(from_db(vehicle_db, out=vehicle_db), out=vehicle_db)
    # The grid goes through radians on purpose, to keep the CSV bytes
    # (tests/golden_digests.json): np.degrees(cfg.angles_rad) are the angles
    # the files hold, and 360*k/n itself differs from 38 of them at n = 360.
    return ScanSet.from_rows(ScanSet.key_columns(keys), np.full(len(keys), n),
                             np.degrees(cfg.angles_rad), gains)
