"""Distance-dependent gain models and log-linear regression.

Channel gain in dB is modelled as gain = 10*n*log10(D) + R0, so the fitted
slope n is the path-loss exponent directly (free space: |n| = 2).  Gains
DECREASE with distance, hence n is negative for physical data; prose often
quotes |n|, tables and this module store the signed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, DomainError
from .stats import t_quantile

__all__ = [
    "GainSample", "LogLinFit", "SPEED_OF_LIGHT_M_S", "fspl_db", "fit_loglinear",
    "fit_fixed_slope", "predict",
]

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Log-distance models misbehave in the near field; the campaign never gets
# close to 1 m, so shorter distances are rejected outright.
MIN_DISTANCE_M = 1.0


@dataclass(frozen=True)
class GainSample:
    """Angle-averaged channel gain (dB) at a 3-D Euclidean TX-RX distance (m)."""

    distance_m: float
    gain_db: float

    def __post_init__(self) -> None:
        if not self.distance_m >= MIN_DISTANCE_M:
            raise DomainError(f"distance must be >= {MIN_DISTANCE_M} m, got {self.distance_m}")


@dataclass(frozen=True)
class LogLinFit:
    """Log-linear gain fit: slope n, intercept R0, 95% CIs and RMSE.

    ci_n and ci_r0 are +/- half-widths of two-sided 95% t-intervals; rmse is
    the root mean square residual with a 1/N normalization.
    """

    n: float
    r0_db: float
    ci_n: float
    ci_r0: float
    rmse_db: float
    sample_count: int

    def __post_init__(self) -> None:
        for name in ("n", "r0_db", "ci_n", "ci_r0", "rmse_db"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {name}={value}")
        if self.rmse_db < 0.0 or self.ci_n < 0.0 or self.ci_r0 < 0.0:
            raise DomainError("rmse and CI half-widths must be >= 0")


def fspl_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss between isotropic antennas: 20*log10(4*pi*D*f/c)."""
    if distance_m <= 0.0 or frequency_hz <= 0.0:
        raise DomainError("distance and frequency must be > 0")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT_M_S)


def _xy(samples) -> tuple[np.ndarray, np.ndarray]:
    samples = list(samples)
    x = np.array([10.0 * math.log10(s.distance_m) for s in samples])
    y = np.array([s.gain_db for s in samples])
    return x, y


def fit_loglinear(samples) -> LogLinFit:
    """Ordinary least squares of gain (dB) on 10*log10(distance).

    95% confidence intervals use the two-sided t distribution with N-2
    degrees of freedom on the standard OLS standard errors.

    Raises:
        DegenerateFitError: fewer than 3 samples or fewer than 2 distinct
            distances.
    """
    x, y = _xy(samples)
    n_samples = x.size
    if n_samples < 3:
        raise DegenerateFitError(f"need at least 3 samples, got {n_samples}")
    if np.unique(x).size < 2:
        raise DegenerateFitError("need at least 2 distinct distances")

    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / sxx)
    intercept = float(y_mean - slope * x_mean)

    resid = y - (slope * x + intercept)
    ssr = float(np.sum(resid**2))
    s2 = ssr / (n_samples - 2)
    t_q = t_quantile(0.975, n_samples - 2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n_samples + x_mean**2 / sxx))

    return LogLinFit(
        n=slope,
        r0_db=intercept,
        ci_n=t_q * se_slope,
        ci_r0=t_q * se_intercept,
        rmse_db=math.sqrt(ssr / n_samples),
        sample_count=n_samples,
    )


def fit_fixed_slope(samples, n_fixed: float) -> LogLinFit:
    """Least-squares intercept with the slope pinned to n_fixed.

    ci_n is 0 by construction; the intercept CI uses N-1 degrees of freedom.
    """
    if not math.isfinite(n_fixed):
        raise DomainError(f"fixed slope must be finite, got {n_fixed}")
    x, y = _xy(samples)
    n_samples = x.size
    if n_samples < 2:
        raise DegenerateFitError(f"need at least 2 samples, got {n_samples}")

    intercept = float(np.mean(y - n_fixed * x))
    resid = y - (n_fixed * x + intercept)
    ssr = float(np.sum(resid**2))
    s2 = ssr / (n_samples - 1)
    t_q = t_quantile(0.975, n_samples - 1)

    return LogLinFit(
        n=float(n_fixed),
        r0_db=intercept,
        ci_n=0.0,
        ci_r0=t_q * math.sqrt(s2 / n_samples),
        rmse_db=math.sqrt(ssr / n_samples),
        sample_count=n_samples,
    )


def predict(fit: LogLinFit, distance_m: float) -> float:
    """Modelled gain (dB) at a distance: 10*n*log10(D) + R0."""
    if distance_m <= 0.0:
        raise DomainError(f"distance must be > 0, got {distance_m}")
    return 10.0 * fit.n * math.log10(distance_m) + fit.r0_db
