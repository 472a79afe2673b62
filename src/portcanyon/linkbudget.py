"""Downlink coverage estimate: noise floor, allowable path loss, range.

Sign convention: channel gain = -(path loss).  The budget is computed on
path loss in dB and converted to gain exactly once, inside
`coverage_range_m`, when the fitted gain model is inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError, NoSolutionError
from .pathloss import LogLinFit

__all__ = [
    "BOLTZMANN_J_PER_K", "LinkBudgetConfig", "eirp_dbm", "noise_floor_dbm",
    "max_allowable_pathloss_db", "coverage_range_m", "dual_pol_throughput_bps",
]

BOLTZMANN_J_PER_K = 1.380649e-23


@dataclass(frozen=True)
class LinkBudgetConfig:
    """Base-station and receiver assumptions for the coverage estimate.

    Every value must be finite, and the bandwidth and temperature > 0.

    spectral_efficiency_bps_hz is informational only (throughput note); it
    never enters the path-loss arithmetic.
    """

    tx_power_dbm_per_pol: float = 28.0
    tx_antenna_gain_dbi: float = 23.0
    shadow_margin_db: float = 10.0
    bandwidth_hz: float = 400e6
    temperature_k: float = 300.0
    noise_figure_db: float = 10.0
    required_snr_db: float = 8.0
    spectral_efficiency_bps_hz: float = 2.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.bandwidth_hz <= 0.0:
            raise DomainError(f"bandwidth must be > 0, got {self.bandwidth_hz}")
        if self.temperature_k <= 0.0:
            raise DomainError(f"temperature must be > 0, got {self.temperature_k}")


def eirp_dbm(cfg: LinkBudgetConfig) -> float:
    """Effective isotropic radiated power: TX power plus antenna gain."""
    return cfg.tx_power_dbm_per_pol + cfg.tx_antenna_gain_dbi


def noise_floor_dbm(cfg: LinkBudgetConfig) -> float:
    """Thermal noise power in the receiver bandwidth plus its noise figure."""
    ktb_mw = BOLTZMANN_J_PER_K * cfg.temperature_k * cfg.bandwidth_hz / 1e-3
    if not 0.0 < ktb_mw < math.inf:
        raise DomainError(
            f"noise power k*T*B is out of range for {cfg.temperature_k} K, {cfg.bandwidth_hz} Hz")
    return 10.0 * math.log10(ktb_mw) + cfg.noise_figure_db


def max_allowable_pathloss_db(cfg: LinkBudgetConfig) -> float:
    """Largest path loss still meeting the SNR target after the shadow margin."""
    return eirp_dbm(cfg) - noise_floor_dbm(cfg) - cfg.required_snr_db - cfg.shadow_margin_db


def coverage_range_m(fit: LogLinFit, mapl_db: float) -> float:
    """Distance at which the fitted gain model hits -mapl_db.

    Closed form inversion of the log-linear model: D = 10^((-mapl - R0) / (10n)).
    Requires a decaying model (negative slope) and a finite distance.
    """
    if fit.n >= 0.0:
        raise NoSolutionError(f"gain model must decay with distance (n < 0), got n={fit.n}")
    try:
        range_m = 10.0 ** ((-mapl_db - fit.r0_db) / (10.0 * fit.n))
    except OverflowError:
        range_m = math.inf
    if not math.isfinite(range_m):
        raise DomainError(f"coverage range overflows for n={fit.n}, R0={fit.r0_db} dB")
    return range_m


def dual_pol_throughput_bps(cfg: LinkBudgetConfig) -> float:
    """Informational throughput: spectral efficiency doubled by polarization."""
    return 2.0 * cfg.spectral_efficiency_bps_hz * cfg.bandwidth_hz
