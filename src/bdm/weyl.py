"""Two-point Weyl-Titchmarsh scalars, interior-reference m-functions, the
2x2 Weyl-Titchmarsh matrices M_alpha, and their Green's-function links.

The general scalar m(z; x0, xi; y0, eta) is the ratio -[B Theta]/[B Phi]
where (Theta, Phi) is the fundamental matrix rotated by xi at x0 and
B = [cos(eta), -sin(eta)] is applied at y0.  Its special values at the
endpoints are the diagonal of the Robin-to-Robin map; at an interior
reference point x0 the rotated pair (m-, m+) assembles M_alpha with
det M_alpha = -1/4 identically.

Green's-function identities are checked with wedge-respecting finite
differences: the kernel is smooth on each side of x = x', so derivative
limits onto the diagonal are taken on the x < x' wedge and extrapolated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .bdmap import bdmap_robin, m_functions_from_fs
from .errors import DegenerateError, DomainError, PoleHitError
from .odecore import (DEFAULT_TOL, _check_R, _propagate_vec, char_det,
                      solution)
from .potential import PotentialSpec
from .resolvent import green_evaluator
from .traces import AnglePair, normalize_strip


@dataclass(frozen=True)
class WTMatrix:
    """M_alpha(z, x0): entries ((m11, m12), (m21, m22)) as Python complex
    numbers, and matrix, the same as a new 2x2 numpy array on each access
    (the one place, with BoundaryDataMap.matrix, that needs numpy)."""

    entries: tuple
    alpha: float
    x0: float
    z: complex

    @property
    def matrix(self):
        import numpy as np
        return np.array(self.entries, dtype=complex)


def wt_m(V: PotentialSpec, R: float, z: complex, x0: float, xi: complex,
         y0: float, eta: complex, tol: float = DEFAULT_TOL) -> complex:
    """m(z; x0, alpha(xi); y0, beta(eta)) for the fundamental matrix
    normalized at x0 by the xi-rotation."""
    _check_R(V, R)
    if not (0.0 <= x0 <= R and 0.0 <= y0 <= R):
        raise DomainError("reference points must lie in [0, R]")
    xi, eta = normalize_strip(xi), normalize_strip(eta)
    cxi, sxi = cmath.cos(xi), cmath.sin(xi)
    # columns (theta, theta') = (cos xi, sin xi), (phi, phi') = (-sin xi, cos xi)
    # a ratio of two combinations: the log scale cancels
    (th, dth, ph, dph), _ = _propagate_vec(V, z, x0, (cxi, sxi, -sxi, cxi),
                                           y0, tol)
    ce, se = cmath.cos(eta), cmath.sin(eta)
    den = ce * ph - se * dph
    num = ce * th - se * dth
    if abs(den) < max(1e-13, 50.0 * tol) * max(1.0, abs(num)):
        raise PoleHitError(f"wt_m pole: beta(eta)-trace of phi vanishes at z = {z}")
    return -num / den


def _alpha_rotate(m0: complex, alpha: float) -> complex:
    c, s = math.cos(alpha), math.sin(alpha)
    den = c + s * m0
    if abs(den) < 1e-13 * max(1.0, abs(m0)):
        raise PoleHitError("alpha-rotation pole of the interior m-function")
    return (-s + c * m0) / den


def interior_m(V: PotentialSpec, R: float, z: complex, x0: float, sign: int,
               pair: AnglePair, alpha: float = 0.0,
               tol: float = DEFAULT_TOL) -> complex:
    """m_{+,alpha} (sign=+1) or m_{-,alpha} (sign=-1) at interior x0:
    the logarithmic derivative u±'/u± rotated by alpha."""
    if not 0.0 < x0 < R:
        raise DomainError("x0 must be interior to (0, R)")
    alpha = complex(alpha)
    if alpha.imag != 0.0 or not 0.0 <= alpha.real < math.pi:
        raise DomainError("alpha must be real in [0, pi)")
    alpha = alpha.real
    view = green_evaluator(V, R, pair, z, tol)
    # scale-free: a common factor of (u, u') cancels, so the mantissas do
    d, _ = view.scaled(1 if sign > 0 else -1, x0)
    if abs(d.u) < max(1e-13, 50.0 * tol) * abs(d.du):
        raise PoleHitError(f"x0 = {x0} is a node of u{'+' if sign > 0 else '-'}")
    return _alpha_rotate(d.du / d.u, alpha)


def wt_matrix(V: PotentialSpec, R: float, z: complex, x0: float,
              pair: AnglePair, alpha: float = 0.0,
              tol: float = DEFAULT_TOL) -> WTMatrix:
    """M_alpha(z, x0): entries [1, (m-+m+)/2; (m-+m+)/2, m- m+]/(m- - m+)."""
    mm = interior_m(V, R, z, x0, -1, pair, alpha, tol)
    mp = interior_m(V, R, z, x0, +1, pair, alpha, tol)
    d = mm - mp
    if abs(d) < 1e-13 * max(1.0, abs(mm), abs(mp)):
        raise DegenerateError("m- = m+ at this (z, x0): M_alpha undefined")
    half = 0.5 * (mm + mp) / d
    return WTMatrix(((1.0 / d, half), (half, mm * mp / d)),
                    complex(alpha).real, x0, z)


def _fd_second_mixed(gk, x: float, xp: float, h: float) -> complex:
    """d1 d2 G by a wedge-interior central stencil around (x, xp)."""
    return (gk(x + h, xp + h) - gk(x + h, xp - h)
            - gk(x - h, xp + h) + gk(x - h, xp - h)) / (4.0 * h * h)


def green_link_check(V: PotentialSpec, R: float, pair: AnglePair, z: complex,
                     tol: float = DEFAULT_TOL) -> dict:
    """Residuals of the Robin-map/Green-function identities.

    Returns a dict name -> residual; identities whose angle hypotheses fail
    (sin of an angle vanishing) are skipped.
    """
    lam = bdmap_robin(V, R, pair, z, tol).entries
    mp, mm = m_functions_from_fs(solution(V, z, tol).fs, R, pair)
    gk = green_evaluator(V, R, pair, z, tol)
    g00 = gk(0.0, 0.0)
    gRR = gk(R, R)
    t0, tR = pair.theta0, pair.thetaR
    s0, c0 = cmath.sin(t0), cmath.cos(t0)
    sR, cR = cmath.sin(tR), cmath.cos(tR)
    out = {}
    # the lambda12 links are stated undivided, so they hold where
    # Delta(theta0, 0) or Delta(0, thetaR) vanishes as well
    if abs(s0) > 1e-9:
        out["lambda11_from_green"] = abs(lam[0][0] - (g00 + s0 * c0) / (s0 * s0))
        out["g00_from_mplus"] = abs(g00 - s0 * (-c0 + s0 * mp))
        dR = char_det(V, z, 0.0, tR, tol)
        out["lambda12_from_g00"] = abs(s0 * dR * lam[0][1] + g00)
    if abs(sR) > 1e-9:
        out["lambda22_from_green"] = abs(lam[1][1] - (gRR + sR * cR) / (sR * sR))
        out["gRR_from_mminus"] = abs(gRR - sR * (-cR - sR * mm))
        d0 = char_det(V, z, t0, 0.0, tol)
        out["lambda12_from_gRR"] = abs(sR * d0 * lam[0][1] + gRR)
    # Dirichlet corner-derivative limits, step-refined one-sided differences
    # on the x < x' wedge, quadratically extrapolated toward the corner
    if abs(s0) <= 1e-9 and abs(sR) <= 1e-9:
        h = 2.5e-4
        f1, f2, f3 = (_fd_second_mixed(gk, d, 2.5 * d, h)
                      for d in (4 * h, 8 * h, 16 * h))
        out["dirichlet_corner_0"] = abs(lam[0][0] - (8 * f1 - 6 * f2 + f3) / 3.0)
        f1, f2, f3 = (_fd_second_mixed(gk, R - 2.5 * d, R - d, h)
                      for d in (4 * h, 8 * h, 16 * h))
        out["dirichlet_corner_R"] = abs(lam[1][1] - (8 * f1 - 6 * f2 + f3) / 3.0)
    return out
