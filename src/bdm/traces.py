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

from .errors import DegenerateError, DomainError

TWO_PI = 2.0 * math.pi
MAX_ANGLE_IM = 350.0
COND_LIMIT = 1e8
EYE2 = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))


def normalize_strip(theta: complex) -> complex:
    """Shift theta by a multiple of 2*pi so 0 <= Re(theta) < 2*pi.  A
    DomainError unless theta is finite with |Im(theta)| <= MAX_ANGLE_IM:
    past it a product of two of the angles' trig factors leaves double
    range, and tan(theta) = +-i to 8e-18 from |Im(theta)| = 20 on."""
    theta = complex(theta)
    if not (abs(theta.imag) <= MAX_ANGLE_IM and abs(theta.real) < math.inf):
        raise DomainError(f"angle {theta} must be finite with |Im| <= "
                          f"{MAX_ANGLE_IM:g}")
    # fmod is exact; the shift into [0, 2*pi) can round onto 2*pi
    re = math.fmod(theta.real, TWO_PI)
    if re < 0.0:
        re += TWO_PI
    if re >= TWO_PI:
        re -= TWO_PI
    return complex(re, theta.imag)


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

    def robin_primed(self) -> "AnglePair":
        """The (theta + pi/2) pair defining the Robin-to-Robin special case."""
        return AnglePair(self.theta0 + math.pi / 2.0,
                         self.thetaR + math.pi / 2.0)


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


def diag_sin(alpha: complex, beta: complex) -> tuple:
    return ((cmath.sin(alpha), 0j), (0j, cmath.sin(beta)))


def diag_cos(alpha: complex, beta: complex) -> tuple:
    return ((cmath.cos(alpha), 0j), (0j, cmath.cos(beta)))


# every 2x2 value in bdm is ((a, b), (c, d)) of Python complex numbers;
# these are the operations on it
def mat_mul(m: tuple, *rest: tuple) -> tuple:
    """The product m rest[0] rest[1] ..., left to right."""
    for (e, f), (g, h) in rest:
        (a, b), (c, d) = m
        m = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return m


def mat_add(m: tuple, n: tuple) -> tuple:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(m, n))


def mat_sub(m: tuple, n: tuple) -> tuple:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(m, n))


def mat_adjoint(m: tuple) -> tuple:
    (a, b), (c, d) = m
    return ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate()))


def mat_max_abs(m: tuple) -> float:
    return max(abs(x) for row in m for x in row)


def mat_det(m: tuple) -> complex:
    (a, b), (c, d) = m
    return a * d - b * c


def _unit_scaled(m: tuple) -> tuple:
    """(m / s, s), s the largest absolute entry (1 for a zero m): the
    entries of m / s are at most 1, so no square or product overflows."""
    s = mat_max_abs(m) or 1.0
    return tuple(tuple(x / s for x in row) for row in m), s


def mat_cond(m: tuple) -> float:
    """The 2-norm condition number (F + sqrt(F^2 - 4|det|^2)) / (2|det|),
    F the squared Frobenius norm, of m scaled to a largest entry of 1; inf
    for a singular m.  F^2 - 4|det|^2 is summed as (p - r)^2 + 4|q|^2, with
    m m* = [[p, q], [q*, r]], free of the cancellation of the difference."""
    n, _ = _unit_scaled(m)
    (a, b), (c, d) = n
    p, r = abs(a) ** 2 + abs(b) ** 2, abs(c) ** 2 + abs(d) ** 2
    q = a * c.conjugate() + b * d.conjugate()
    det = abs(mat_det(n))
    root = math.sqrt((p - r) ** 2 + 4.0 * abs(q) ** 2)
    return (p + r + root) / (2.0 * det) if det else math.inf


def mat_inv(m: tuple, what: str) -> tuple:
    """m^-1; a DomainError for a non-finite entry and a DegenerateError
    unless mat_cond(m) <= COND_LIMIT, so a NaN condition number fails."""
    if not all(cmath.isfinite(x) for row in m for x in row):
        raise DomainError(f"{what} has a non-finite entry")
    if not mat_cond(m) <= COND_LIMIT:
        raise DegenerateError(f"{what} is ill-conditioned "
                              f"(cond > {COND_LIMIT:g})")
    n, s = _unit_scaled(m)
    (a, b), (c, d) = n
    det = mat_det(n) * s
    return ((d / det, -b / det), (-c / det, a / det))


def angles_mod_pi_zero(theta: complex, tol: float = 1e-12) -> bool:
    """True when theta == 0 mod pi (sin(theta) vanishes), up to tol."""
    return abs(cmath.sin(theta)) <= tol
