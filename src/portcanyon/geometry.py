"""Container-canyon propagation model.

Side view: a transmitter sits h metres above the canyon top and a horizontal
distance D from the near canyon edge; the canyon has internal width d.  The
wave impinging on the top opening is treated as a plane wave.  The power that
reaches a receiver h_prime metres below the canyon top is the product of four
factors:

* free-space spreading of the wave between the TX and the canyon top,
* the top opening projected onto a plane orthogonal to the wave vector,
* the canyon length over which shallow-azimuth energy is accepted,
* the fraction of the entering energy that survives the in-canyon spread
  down to the receiver.

All returned powers are proportional quantities: constant factors are
deliberately dropped, since they are absorbed by the intercept when the model
is fitted to measured gains.  For a far transmitter the product collapses to
psi*h*d / D**4, i.e. the received power falls off with the fourth power of
distance (-40 dB/decade) instead of the free-space -20 dB/decade.

Angles are radians throughout; degrees appear only at the CLI surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "CanyonGeometry", "elevation_angles", "poynting_fspl", "projected_aperture_exact",
    "acceptance_length", "vertical_fraction", "received_power_exact",
    "received_power_approx",
]


@dataclass(frozen=True)
class CanyonGeometry:
    """Geometry of one elevated-TX / in-canyon-RX link.

    Attributes:
        h: TX height above the canyon top (m), > 0.
        d: canyon internal width (m), >= 0.  Zero is the degenerate
            zero-aperture canyon and yields zero received power.
        D: horizontal distance from the TX to the near canyon edge (m), > 0.
        h_prime: receiver depth below the canyon top along the in-canyon
            path (m), > 0.
        psi: maximum azimuthal angle at which entering energy still reaches
            the receiver (rad), in (0, pi/2).  A free model parameter; it
            only shifts the fitted intercept, default 0.1 rad.
    """

    h: float
    d: float
    D: float
    h_prime: float
    psi: float = 0.1

    def __post_init__(self) -> None:
        for name in ("h", "d", "D", "h_prime", "psi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {name}={value}")
        if not (self.h > 0.0 and self.D > 0.0 and self.h_prime > 0.0):
            raise DomainError(
                "h, D and h_prime must be positive, got "
                f"h={self.h}, D={self.D}, h_prime={self.h_prime}"
            )
        if self.d < 0.0:
            raise DomainError(f"canyon width d must be >= 0, got d={self.d}")
        if not 0.0 < self.psi < math.pi / 2.0:
            raise DomainError(f"psi must lie in (0, pi/2), got psi={self.psi}")


def elevation_angles(geom: CanyonGeometry) -> tuple[float, float, float]:
    """Elevation angles (phi1, phi2, theta) of the canyon opening seen from the TX.

    phi1 is the depression angle of the near canyon edge, phi2 that of the
    far edge, and theta = phi1 - phi2 is the angle subtended by the opening.
    theta > 0 whenever d > 0.
    """
    phi1 = math.atan(geom.h / geom.D)
    phi2 = math.atan(geom.h / (geom.D + geom.d))
    return phi1, phi2, phi1 - phi2


def poynting_fspl(geom: CanyonGeometry) -> float:
    """Free-space spreading between TX and canyon top, up to a constant (1/m^2).

    Proportional to the magnitude of the Poynting vector at the opening:
    1 / ell^2 with ell = sqrt(h^2 + D^2) the slant TX-to-edge distance.
    """
    return 1.0 / (geom.h**2 + geom.D**2)


def projected_aperture_exact(geom: CanyonGeometry) -> float:
    """Canyon top opening projected orthogonal to the wave vector (m).

    ell * sin(theta) with the exact theta from `elevation_angles`; no
    small-angle approximation is applied.
    """
    _, _, theta = elevation_angles(geom)
    return math.hypot(geom.h, geom.D) * math.sin(theta)


def acceptance_length(geom: CanyonGeometry) -> float:
    """Length of the canyon section accepting energy (m): D * sin(psi)."""
    return geom.D * math.sin(geom.psi)


def vertical_fraction(geom: CanyonGeometry) -> float:
    """Fraction of entering energy reaching the receiver, up to a constant.

    The in-canyon path length is ell' ~= h_prime * D / h (similar triangles,
    far-TX limit), and the energy spreads evenly over the incident area, so
    the fraction is proportional to 1/ell'^2 = (h / (h_prime * D))^2.
    """
    return (geom.h / (geom.h_prime * geom.D)) ** 2


def _checked_power(geom: CanyonGeometry, power) -> float:
    """Evaluate power(); a result that overflowed or underflowed is an error.

    Zero is a valid power only for the zero-width canyon.
    """
    try:
        value = power()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not (math.isfinite(value) and (value > 0.0 or geom.d == 0.0)):
        raise DomainError(
            f"received power is not representable for h={geom.h}, d={geom.d}, "
            f"D={geom.D}, h_prime={geom.h_prime}, got {value}"
        )
    return value


def received_power_exact(geom: CanyonGeometry) -> float:
    """Proportional received power with the exact geometric chain.

    Product vertical_fraction * acceptance_length * projected_aperture_exact
    * poynting_fspl; only the vertical-fraction factor uses the far-TX path
    approximation, the aperture and acceptance length are exact.

    Raises:
        DomainError: the power overflows, or underflows to zero for d > 0.
    """
    return _checked_power(
        geom,
        lambda: vertical_fraction(geom)
        * acceptance_length(geom)
        * projected_aperture_exact(geom)
        * poynting_fspl(geom),
    )


def received_power_approx(geom: CanyonGeometry) -> float:
    """Proportional received power in the far-TX small-angle limit.

    psi * h * d / D^4 exactly; h_prime is absorbed into the omitted constant.
    The numerator is constant for a given layout, so the model predicts a
    pure fourth-power distance decay.

    Raises:
        DomainError: the power overflows, or underflows to zero for d > 0.
    """
    return _checked_power(geom, lambda: geom.psi * geom.h * geom.d / geom.D**4)
