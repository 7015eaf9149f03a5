"""Boundary angles, trace functionals and the sin/cos diagonal matrices.

Angles live in the strip 0 <= Re(theta) < 2*pi (complex imaginary parts are
allowed; the operator family is non-self-adjoint in general).  The Robin
trace of a C^1 function u on [0, R] is the pair

    ( cos(theta0) u(0) + sin(theta0) u'(0),
      cos(thetaR) u(R) - sin(thetaR) u'(R) ),

Dirichlet at theta = 0, Neumann at theta = 3*pi/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._lazy import np

TWO_PI = 2.0 * math.pi


def normalize_strip(theta: complex) -> complex:
    """Shift theta by a multiple of 2*pi so 0 <= Re(theta) < 2*pi."""
    theta = complex(theta)
    k = math.floor(theta.real / TWO_PI)
    out = theta - k * TWO_PI
    # the division can underflow (denormal Re) or the subtraction can round
    # onto 2*pi; wrap until the representative lands in [0, 2*pi)
    while out.real < 0.0:
        out += TWO_PI
    while out.real >= TWO_PI:
        out -= TWO_PI
    return out


@dataclass(frozen=True)
class AnglePair:
    """Boundary parameters (theta0, thetaR), normalized into the strip."""

    theta0: complex
    thetaR: complex

    def __post_init__(self):
        object.__setattr__(self, "theta0", normalize_strip(self.theta0))
        object.__setattr__(self, "thetaR", normalize_strip(self.thetaR))

    @property
    def is_real(self) -> bool:
        return self.theta0.imag == 0.0 and self.thetaR.imag == 0.0

    def shifted(self, d0: complex, dR: complex) -> "AnglePair":
        return AnglePair(self.theta0 + d0, self.thetaR + dR)

    def robin_primed(self) -> "AnglePair":
        """The (theta + pi/2) pair defining the Robin-to-Robin special case."""
        return self.shifted(math.pi / 2.0, math.pi / 2.0)


@dataclass(frozen=True)
class AngleQuad:
    """Base and primed boundary pairs of a general boundary data map."""

    base: AnglePair
    primed: AnglePair

    @property
    def is_real(self) -> bool:
        return self.base.is_real and self.primed.is_real

    @property
    def diffs(self) -> tuple[complex, complex]:
        """(theta0' - theta0, thetaR' - thetaR), un-normalized differences."""
        return (self.primed.theta0 - self.base.theta0,
                self.primed.thetaR - self.base.thetaR)


def quad(theta0, thetaR, theta0p, thetaRp) -> AngleQuad:
    """Convenience constructor from four raw angles."""
    return AngleQuad(AnglePair(theta0, thetaR), AnglePair(theta0p, thetaRp))


def trace_gamma(pair: AnglePair, bdry) -> tuple[complex, complex]:
    """Robin trace from boundary data (u(0), u'(0), u(R), u'(R))."""
    u0, du0, uR, duR = (complex(v) for v in bdry)
    g0 = cmath.cos(pair.theta0) * u0 + cmath.sin(pair.theta0) * du0
    gR = cmath.cos(pair.thetaR) * uR - cmath.sin(pair.thetaR) * duR
    return (g0, gR)


def diag_sin(alpha: complex, beta: complex) -> np.ndarray:
    return np.array([[cmath.sin(alpha), 0.0], [0.0, cmath.sin(beta)]],
                    dtype=complex)


def diag_cos(alpha: complex, beta: complex) -> np.ndarray:
    return np.array([[cmath.cos(alpha), 0.0], [0.0, cmath.cos(beta)]],
                    dtype=complex)


def angles_mod_pi_zero(theta: complex, tol: float = 1e-12) -> bool:
    """True when theta == 0 mod pi (sin(theta) vanishes), up to tol."""
    return abs(cmath.sin(theta)) <= tol
