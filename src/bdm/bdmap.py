"""General boundary data maps, the Robin-to-Robin special case, and the
scalar Weyl-Titchmarsh functions on their diagonal.

Entries are assembled from characteristic-determinant ratios.  Expanding
the distinguished basis u-, u+ in the fundamental system and collapsing
the Wronskian terms gives the exact form

    Lambda^{theta'}_{theta}(z)
        = 1/Delta(theta0,thetaR) * [ Delta(theta0',thetaR)   sin(theta0'-theta0) ]
                                   [ sin(thetaR'-thetaR)     Delta(theta0,thetaR') ]

so the removable singularities at the auxiliary spectra sigma(H_{theta0,0})
and sigma(H_{0,thetaR}) cancel identically (only Delta at the requested
angle pairs appears), realizing the meromorphic continuation numerically.
The determinant identity det Lambda = Delta(theta')/Delta(theta) makes the
group laws exact at this level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import AccuracyError, DomainError
from .odecore import (DEFAULT_TOL, FundamentalEval, _check_R, delta_from_fs,
                      delta_off_spectrum, solution)
from .potential import PotentialSpec, sqrt_upper
from .traces import AnglePair, AngleQuad, angles_mod_pi_zero


@dataclass(frozen=True)
class BoundaryDataMap:
    """Lambda at z: entries ((l11, l12), (l21, l22)) as Python complex
    numbers, and matrix, the same as a new 2x2 numpy array on each access
    (the one place, with WTMatrix.matrix, that needs numpy)."""

    entries: tuple
    z: complex
    quad: AngleQuad

    @property
    def matrix(self):
        import numpy as np
        return np.array(self.entries, dtype=complex)


def lambda_from_fs(fs: FundamentalEval, R: float, quad: AngleQuad,
                   tol: float = 0.0) -> tuple:
    """The entries ((l11, l12), (l21, l22)) of Lambda from one sweep."""
    t0, tR = quad.base.theta0, quad.base.thetaR
    t0p, tRp = quad.primed.theta0, quad.primed.thetaR
    den = delta_off_spectrum(fs, R, t0, tR, tol)
    # the Delta ratios are scale-free; sin(...)/Delta carries e^-log_scale
    unit = math.exp(-fs.log_scale)
    return ((delta_from_fs(fs, t0p, tR) / den, cmath.sin(t0p - t0) / den * unit),
            (cmath.sin(tRp - tR) / den * unit, delta_from_fs(fs, t0, tRp) / den))


def bdmap_general(V: PotentialSpec, R: float, quad: AngleQuad, z: complex,
                  tol: float = DEFAULT_TOL) -> BoundaryDataMap:
    """The map sending the (theta0,thetaR)-trace of a solution to its
    (theta0',thetaR')-trace, as a 2x2 matrix."""
    _check_R(V, R)
    fs = solution(V, z, tol).fs
    return BoundaryDataMap(lambda_from_fs(fs, R, quad, tol), z, quad)


def bdmap_robin(V: PotentialSpec, R: float, pair: AnglePair, z: complex,
                tol: float = DEFAULT_TOL) -> BoundaryDataMap:
    """Robin-to-Robin map: primed angles are base + pi/2; the diagonal is
    (m+, -m-) and the off-diagonal entries coincide."""
    q = AngleQuad(pair, pair.robin_primed())
    return bdmap_general(V, R, q, z, tol)


def m_functions_from_fs(fs: FundamentalEval, R: float, pair: AnglePair,
                        tol: float = 0.0):
    """(m+, m-) from one fundamental solve, in exact determinant-ratio form."""
    t0, tR = pair.theta0, pair.thetaR
    den = delta_off_spectrum(fs, R, t0, tR, tol)
    mplus = delta_from_fs(fs, t0 + math.pi / 2.0, tR) / den
    mminus = -delta_from_fs(fs, t0, tR + math.pi / 2.0) / den
    return mplus, mminus


def m_plus(V: PotentialSpec, R: float, theta0: complex, thetaR: complex,
           z: complex, tol: float = DEFAULT_TOL) -> complex:
    """m+ = (-sin(theta0) + cos(theta0) u+'(z,0)) / (cos(theta0) + sin(theta0) u+'(z,0))."""
    _check_R(V, R)
    fs = solution(V, z, tol).fs
    return m_functions_from_fs(fs, R, AnglePair(theta0, thetaR), tol)[0]


def m_minus(V: PotentialSpec, R: float, theta0: complex, thetaR: complex,
            z: complex, tol: float = DEFAULT_TOL) -> complex:
    """m- = (sin(thetaR) + cos(thetaR) u-'(z,R)) / (cos(thetaR) - sin(thetaR) u-'(z,R))."""
    _check_R(V, R)
    fs = solution(V, z, tol).fs
    return m_functions_from_fs(fs, R, AnglePair(theta0, thetaR), tol)[1]


def asymptotic_reference(pair: AnglePair, z: complex, R: float) -> tuple:
    """Leading |z| -> infinity behavior of the Robin map (Im sqrt(z) > 0).

    Four cases by whether sin(theta0), sin(thetaR) vanish.  The (2,2)
    leading terms are +cot(thetaR) resp. +i sqrt(z), as the V = 0 closed
    forms dictate (and as they must be: the diagonal of a Herglotz matrix
    cannot have negative imaginary part on the upper half-plane).
    """
    rt = sqrt_upper(z)
    if rt.imag <= 0.0:
        raise DomainError("asymptotic reference needs Im sqrt(z) > 0")
    t0, tR = pair.theta0, pair.thetaR
    z0 = angles_mod_pi_zero(t0)
    zR = angles_mod_pi_zero(tR)
    e = cmath.exp(1j * rt * R)
    i = 1j
    if not z0 and not zR:
        off = 2.0 * i * e / (rt * cmath.sin(t0) * cmath.sin(tR))
        d1, d2 = 1.0 / cmath.tan(t0), 1.0 / cmath.tan(tR)
    elif z0 and not zR:
        off = -2.0 * e / cmath.sin(tR)
        d1, d2 = i * rt, 1.0 / cmath.tan(tR)
    elif not z0 and zR:
        off = -2.0 * e / cmath.sin(t0)
        d1, d2 = 1.0 / cmath.tan(t0), i * rt
    else:
        off = -2.0 * i * rt * e
        d1, d2 = i * rt, i * rt
    return ((d1, off), (off, d2))


def herglotz_imag(V: PotentialSpec, R: float, quad: AngleQuad, z: complex,
                  tol: float = DEFAULT_TOL) -> tuple:
    """Im(Lambda^{theta'}_{theta}(z) S_{theta'-theta}) as a Hermitian matrix.

    Positive definite for real V, real admissible angles and Im z > 0;
    the caller asserts definiteness.
    """
    if not V.is_real:
        raise DomainError("the Herglotz property needs a real potential")
    if not quad.is_real:
        raise DomainError("the Herglotz property needs real boundary angles")
    d0, dR = quad.diffs
    if angles_mod_pi_zero(d0) or angles_mod_pi_zero(dR):
        raise DomainError("angle differences must be nonzero mod pi")
    if z.imag <= 0.0:
        raise DomainError("z must lie in the open upper half-plane")
    s = (cmath.sin(d0), cmath.sin(dR))
    m = [[l * sk for l, sk in zip(row, s)]
         for row in bdmap_general(V, R, quad, z, tol).entries]
    return tuple(tuple((m[j][k] - m[k][j].conjugate()) / 2j for k in range(2))
                 for j in range(2))


def _neville_to_zero(eps, vals):
    """Polynomial extrapolation of vals(eps) to eps = 0, entrywise over 2x2
    tuples.

    Returns (limit, error_estimate) where the estimate is the largest
    magnitude of the last correction.
    """
    n = len(eps)

    def extrapolate(t):
        tops = [t[0]]
        for m in range(1, n):
            t = [(eps[i] * t[i + 1] - eps[i + m] * t[i]) / (eps[i] - eps[i + m])
                 for i in range(n - m)]
            tops.append(t[0])
        return tops[-1], abs(tops[-1] - tops[-2])

    limits = [[extrapolate([v[j][k] for v in vals]) for k in range(2)]
              for j in range(2)]
    return (tuple(tuple(lim for lim, _ in row) for row in limits),
            max(est for row in limits for _, est in row))


def measure_point_mass(V: PotentialSpec, R: float, quad: AngleQuad,
                       lam: float, tol: float = DEFAULT_TOL) -> tuple:
    """Jump Sigma({lam}) of the Herglotz measure at an isolated eigenvalue.

    Near a simple pole, Lambda(z) S ~ Sigma({lam})/(lam - z), so
    eps * Im[(Lambda S)(lam + i eps)] -> Sigma({lam}); the limit is taken by
    polynomial extrapolation over eps = 1e-3, 1e-4, 1e-5 (the literal double
    limit of the Stieltjes inversion is not implementable).
    """
    eps = (1e-3, 1e-4, 1e-5)
    vals = [[[e * h for h in row]
             for row in herglotz_imag(V, R, quad, lam + 1j * e, tol)]
            for e in eps]
    jump, est = _neville_to_zero(eps, vals)
    scale = max(1.0, max(abs(v) for row in jump for v in row))
    if est > 1e-3 * scale:
        raise AccuracyError(
            f"point-mass extrapolation at lambda = {lam} did not settle "
            f"(last correction {est:.3e}); is the eigenvalue isolated?")
    # exact jump is Hermitian PSD; symmetrize away the O(eps) residue
    return tuple(tuple((jump[j][k] + jump[k][j].conjugate()) / 2.0
                       for k in range(2)) for j in range(2))
