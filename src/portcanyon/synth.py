"""Synthetic measurement-campaign generator.

Stands in for the (non-public) measured dataset: replicates the campaign
layouts (canyon dimensions, stacking profiles, TX mounts, coarse and dense
RX grids) and produces angular scans whose mean power follows the canyon
model with fully spread Rayleigh fading, smoothed by the rotating horn's
pattern.  Everything is driven by one integer seed; every (tx, point,
variant) gets its own child random stream, so scans can be generated in any
order, or in parallel, with identical results.

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
from dataclasses import dataclass

import numpy as np

from .angular import AngularScan, Stacking, VehicleState, to_db
from .errors import DomainError, IngestError
from .geometry import CanyonGeometry, received_power_approx
from .stats import EmpiricalCdf, empirical_cdf

__all__ = [
    "TxSpec", "CampaignLayout", "HornPattern", "SynthConfig", "build_layout",
    "geometry_for", "mean_gain_at", "generate_scan", "add_vehicle_offset",
    "fullspread_gain_distribution", "generate_campaign", "tx_position", "MAX_N_ANGLES",
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

RX_Y_LINES_M = (3.5, 5.5, 7.5, 9.5)
COARSE_X_START_M = 1.0
COARSE_X_STEP_UNIFORM_M = 4.0
COARSE_X_STEP_NONUNIFORM_M = 2.0

# Random-stream tags keeping scan fading, vehicle perturbations and the
# full-spread reference ensemble on disjoint child streams of one seed.
_STREAM_SCAN = 0
_STREAM_VEHICLE = 1
_STREAM_FULLSPREAD = 2

# Azimuth samples per rotation, at most 0.01 deg steps: each scan's arrays
# then stay under 300 kB, as `MAX_HISTOGRAM_BINS` bounds a histogram.
MAX_N_ANGLES = 36_000

_VEHICLE_CODE = {VehicleState.POSITION1: 1, VehicleState.POSITION2: 2}


@dataclass(frozen=True)
class TxSpec:
    """One transmitter mount: identifier and position (m)."""

    tx_id: str
    x: float
    y: float
    z: float


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
    """Generator knobs; a fixed seed makes every output byte-identical."""

    seed: int = 0
    n_angles: int = 360
    hpbw_deg: float = 10.0
    psi: float = 0.1
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
        if self.vehicle_sigma_db < 0.0:
            raise DomainError("vehicle sigma must be >= 0")

    @property
    def horn(self) -> HornPattern:
        return HornPattern(hpbw_deg=self.hpbw_deg)

    @property
    def angles_rad(self) -> np.ndarray:
        return np.radians(360.0 * np.arange(self.n_angles) / self.n_angles)


@dataclass(frozen=True)
class CampaignLayout:
    """Full campaign geometry: canyon, stacking, TX mounts, RX grids."""

    stacking: Stacking
    section_heights_row1_m: tuple[float, ...]
    section_heights_row2_m: tuple[float, ...]
    txs: tuple[TxSpec, ...]
    coarse_points: tuple[tuple[float, float], ...]
    dense_points: tuple[tuple[float, float], ...]
    rx_height_m: float = 1.5
    length_m: float = CANYON_LENGTH_M
    width_m: float = CANYON_WIDTH_M
    near_edge_y_m: float = NEAR_EDGE_Y_M

    def __post_init__(self) -> None:
        for row in (self.section_heights_row1_m, self.section_heights_row2_m):
            if len(row) != N_SECTIONS:
                raise DomainError(f"stacking profile needs {N_SECTIONS} sections per row")
        if not 0.0 < self.rx_height_m:
            raise DomainError("RX antenna height must be > 0")

    def section_index(self, x: float) -> int:
        if not 0.0 <= x <= self.length_m:
            raise DomainError(f"x={x} outside the canyon (0..{self.length_m} m)")
        return min(int(x // SECTION_LENGTH_M), N_SECTIONS - 1)

    def tx_side_height_at(self, x: float) -> float:
        """Height of the TX-side wall (row 2) at position x along the canyon."""
        return self.section_heights_row2_m[self.section_index(x)]

    def all_points(self) -> tuple[tuple[float, float], ...]:
        return self.coarse_points + self.dense_points

    def tx_index(self, tx: TxSpec) -> int:
        try:
            return self.txs.index(tx)
        except ValueError:
            raise DomainError(f"transmitter {tx.tx_id!r} is not part of this layout")


def tx_position(tx_id: str) -> tuple[float, float, float]:
    """Campaign TX position (x, y, z) from its id: 'TX2', or 'TX1_<y>' for the
    crane at y metres, as `build_layout` names it.  Any other id is an
    IngestError."""
    if tx_id == "TX2":
        return (TX2_X_M, TX2_Y_M, TX2_Z_M)
    try:
        y = float(tx_id[4:]) if tx_id.startswith("TX1_") else math.nan
    except ValueError:
        y = math.nan
    if not math.isfinite(y):
        raise IngestError(
            f"no position for transmitter id {tx_id!r}; expected 'TX1_<y>' (finite y) or 'TX2'"
        )
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

    tx_ids = [f"TX1_{y:g}" for y in tx1_ys] + ["TX2"]
    txs = tuple(TxSpec(tx_id, *tx_position(tx_id)) for tx_id in tx_ids)

    n_coarse = int((CANYON_LENGTH_M - COARSE_X_START_M) // coarse_step) + 1
    coarse_xs = [COARSE_X_START_M + coarse_step * i for i in range(n_coarse)]

    # Work in integer tenths of a metre so the two dense step sizes merge
    # without float fuzz.
    tenths = sorted(set(range(125, 154, 2)) | set(range(135, 150, 1)))
    dense_xs = [t / 10.0 for t in tenths]

    coarse = tuple((x, y) for y in RX_Y_LINES_M for x in coarse_xs)
    dense = tuple((x, y) for y in RX_Y_LINES_M for x in dense_xs)

    return CampaignLayout(
        stacking=kind,
        section_heights_row1_m=row1,
        section_heights_row2_m=row2,
        txs=txs,
        coarse_points=coarse,
        dense_points=dense,
        rx_height_m=rx_height_m,
    )


def geometry_for(
    layout: CampaignLayout, tx: TxSpec, rx_point, psi: float = 0.1
) -> CanyonGeometry:
    """Map layout coordinates onto the canyon-model geometry for one link.

    D is the horizontal TX distance to the near (TX-side) canyon edge, h the
    TX height above the local wall top, and h_prime the RX antenna depth
    below it.  Uses the wall section at the RX's x position.
    """
    x, _y = rx_point
    wall_h = layout.tx_side_height_at(x)
    distance = tx.y - layout.near_edge_y_m
    if distance <= 0.0:
        raise DomainError(
            f"TX {tx.tx_id!r} is above or inside the canyon (y={tx.y}); "
            "the canyon model needs the TX beyond the near edge"
        )
    h = tx.z - wall_h
    if h <= 0.0:
        raise DomainError(f"TX {tx.tx_id!r} does not clear the canyon top")
    h_prime = wall_h - layout.rx_height_m
    if h_prime <= 0.0:
        raise DomainError("RX antenna is above the canyon top")
    return CanyonGeometry(h=h, d=layout.width_m, D=distance, h_prime=h_prime, psi=psi)


def mean_gain_at(
    layout: CampaignLayout, tx: TxSpec, rx_point, cfg: SynthConfig
) -> float:
    """Deterministic mean channel gain (dB) of the canyon model at one point.

    Proportional gain plus the configured calibration offset; the offset is
    the knob that pins synthetic gains to a desired absolute level.
    """
    geom = geometry_for(layout, tx, rx_point, cfg.psi)
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


def generate_scan(
    layout: CampaignLayout, tx: TxSpec, rx_point, cfg: SynthConfig
) -> AngularScan:
    """One synthetic rotation measurement at one RX point (no vehicle).

    Per-angle-bin independent exponential power draws (Rayleigh envelope)
    around the model mean, circularly convolved with the horn pattern; with
    fading disabled the spectrum is flat at the mean gain.  The draw stream
    depends only on (seed, tx, point), so generation order is irrelevant.
    """
    mean_lin = 10.0 ** (mean_gain_at(layout, tx, rx_point, cfg) / 10.0)
    if cfg.fading:
        rng = _rng(_point_entropy(cfg, _STREAM_SCAN, layout.tx_index(tx), rx_point))
        raw = rng.exponential(scale=mean_lin, size=cfg.n_angles)
    else:
        raw = np.full(cfg.n_angles, mean_lin)
    gains = _smooth(raw, cfg.horn.kernel(cfg.n_angles))
    x, y = rx_point
    return AngularScan(
        tx=tx.tx_id,
        x=x,
        y=y,
        angles=cfg.angles_rad,
        gains=gains,
        vehicle_state=VehicleState.ABSENT,
        stacking=layout.stacking,
    )


def add_vehicle_offset(
    layout: CampaignLayout,
    tx: TxSpec,
    base: AngularScan,
    state: VehicleState,
    cfg: SynthConfig,
) -> AngularScan:
    """Derive a with-vehicle scan from a baseline scan.

    The vehicle is modelled statistically: an independent Gaussian dB
    perturbation per angle, subtracted from the baseline so that
    baseline - vehicle recovers draws from N(mu, sigma).
    """
    state = VehicleState(state)
    if state is VehicleState.ABSENT:
        raise DomainError("vehicle state must be position1 or position2")
    if base.tx != tx.tx_id:
        raise DomainError(f"scan belongs to {base.tx!r}, not {tx.tx_id!r}")
    rng = _rng(
        _point_entropy(
            cfg, _STREAM_VEHICLE, layout.tx_index(tx), (base.x, base.y),
            extra=(_VEHICLE_CODE[state],),
        )
    )
    delta_db = rng.normal(cfg.vehicle_mu_db, cfg.vehicle_sigma_db, base.gains.size)
    gains = 10.0 ** ((to_db(base.gains) - delta_db) / 10.0)
    return AngularScan(
        tx=base.tx,
        x=base.x,
        y=base.y,
        angles=base.angles,
        gains=gains,
        vehicle_state=state,
        stacking=base.stacking,
    )


def fullspread_gain_distribution(cfg: SynthConfig) -> EmpiricalCdf:
    """Monte Carlo distribution of the azimuth directional gain for a fully
    spread channel.

    Generates cfg.n_realizations unit-mean fully spread scans (independent
    exponential bins smoothed by the horn) and returns the empirical CDF of
    their azimuth gain.  This is the reference any measured azimuth-gain
    distribution is compared against.  The azimuth gain of each row is taken
    on the matrix as `angular.azimuth_gain` takes it on one scan: the row's
    max dB gain over its circular mean.
    """
    rng = _rng((cfg.seed, _STREAM_FULLSPREAD))
    raw = rng.exponential(scale=1.0, size=(cfg.n_realizations, cfg.n_angles))
    smoothed = _smooth(raw, cfg.horn.kernel(cfg.n_angles))
    normalized_db = to_db(smoothed) - 10.0 * np.log10(smoothed.mean(axis=1, keepdims=True))
    return empirical_cdf(normalized_db.max(axis=1))


def generate_campaign(
    layout: CampaignLayout, cfg: SynthConfig, vehicle_mode: str = "none"
) -> list[AngularScan]:
    """Generate the full scan dataset for a layout.

    vehicle_mode:
        "none"  - baseline scans only;
        "dense" - vehicle variants (both positions) on the dense grid, the
                  part of the campaign where the vehicle was parked.

    Scans come out in a canonical order (tx, then grid point, baseline
    before vehicle states); with a fixed seed the dataset is byte-identical
    run to run and independent of how generation is scheduled.
    """
    if vehicle_mode not in ("none", "dense"):
        raise DomainError(f"unknown vehicle_mode {vehicle_mode!r}")
    scans: list[AngularScan] = []
    for tx in layout.txs:
        for point in layout.all_points():
            base = generate_scan(layout, tx, point, cfg)
            scans.append(base)
            if vehicle_mode == "dense" and point in layout.dense_points:
                for state in (VehicleState.POSITION1, VehicleState.POSITION2):
                    scans.append(add_vehicle_offset(layout, tx, base, state, cfg))
    return scans
