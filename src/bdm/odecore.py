"""Complex propagation of -u'' + V u = z u and everything built on it.

One sweep from 0 to R produces the fundamental system (theta, phi)
normalized by theta(z,0) = phi'(z,0) = 1, theta'(z,0) = phi(z,0) = 0.  The
characteristic determinant

    Delta(z,R,theta0,thetaR) = cos(theta0) cos(thetaR) phi(z,R)
                             - cos(theta0) sin(thetaR) phi'(z,R)
                             - sin(theta0) cos(thetaR) theta(z,R)
                             + sin(theta0) sin(thetaR) theta'(z,R)

vanishes exactly on the spectrum of the Robin realization (tested by
delta_off_spectrum alone).  The unit-start solutions ~u-, ~u+ (boundary
condition at 0 resp. R) have W(~u+, ~u-) = Delta(theta0, thetaR) and the
far-endpoint values Delta(theta0, 0) resp. Delta(0, thetaR): no second
solve and no boundary-value iteration is needed.  Everything built on them
divides by Delta(theta0, thetaR) alone, so it needs z off the spectrum of
H_{theta0,thetaR} and nothing else.

How a sweep propagates depends only on the pieces of V it crosses
(PotentialSpec.span), whatever the kind of V.  A constant piece applies its
exact trig rotation (potential.trig_piece), exact to rounding with tol
unused.  A linear piece is integrated by adaptive Dormand-Prince 5(4) at
tol, one piece at a time, so the integrator keeps its order across kinks.

Solution data are mantissas times e^log_scale: each constant piece pulls
e^|Im k d| out, so nothing overflows however large |z| is on exact paths
(DP54 leaves log_scale as it is).  Ratios (maps, m-functions, ~u+-/Delta,
Green's function) read the mantissas; absolute values and zero tests add
log_scale.

Everything at one (V, z, tol) derives from one Solution: the sweep, and per
angle pair the ~u-, ~u+ interior tables.  solution() keeps
the last Solution only, so consecutive calls at the same (V, z, tol) share
it and distinct problems never do.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import (AccuracyError, DomainError, EigenvalueHitError,
                     StiffnessError)
from .potential import PotentialSpec, is_near_eigenvalue, trig_piece, unscale

DEFAULT_TOL = 1e-10

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


@dataclass(frozen=True)
class CauchyData:
    """A solution's (value, derivative) at a point."""

    u: complex
    du: complex
    x: float


@dataclass(frozen=True)
class FundamentalEval:
    """(theta, theta', phi, phi') at x; Wronskian theta*phi' - theta'*phi = 1.

    Held as mantissas (same order) times e^log_scale.  Each named value is
    the true one, or AccuracyError when that does not fit in a double.
    """

    mantissas: tuple
    log_scale: float
    z: complex
    x: float

    def _value(self, i: int) -> complex:
        return unscale(self.mantissas[i], self.log_scale, self.z, self.x)

    theta = property(lambda self: self._value(0))
    dtheta = property(lambda self: self._value(1))
    phi = property(lambda self: self._value(2))
    dphi = property(lambda self: self._value(3))

    def wronskian(self) -> complex:
        return self.theta * self.dphi - self.dtheta * self.phi


def _rk_segment(qfun, x0: float, y0: tuple, x1: float, tol: float) -> tuple:
    """Adaptive DP54 from x0 to x1 (either direction) for u'' = q(x) u.

    The state is a flat tuple of (value, derivative) pairs sharing the same
    q; the Dormand-Prince stages are unrolled with one q evaluation per
    stage applied to every pair.  Pure scalar complex arithmetic keeps the
    hot loop allocation-free.
    """
    span = x1 - x0
    if span == 0.0:
        return y0
    npair = len(y0) // 2
    direction = 1.0 if span > 0 else -1.0
    x, y = x0, list(y0)
    q0 = qfun(x)
    scale = max(1.0, abs(q0)) ** 0.5
    h = direction * min(abs(span), max(1e-8, 0.1 / scale))
    # a span below the minimum step is crossed in one step
    hmin = min(1e-14 * max(1.0, abs(span)), abs(span))
    a21, = _A[1]
    a31, a32 = _A[2]
    a41, a42, a43 = _A[3]
    a51, a52, a53, a54 = _A[4]
    a61, a62, a63, a64, a65 = _A[5]
    a71, _, a73, a74, a75, a76 = _A[6]
    e1, _, e3, e4, e5, e6, e7 = _E
    # k-derivative at a point: pair (u, p) maps to (p, q*u)
    while (x1 - x) * direction > 0.0:
        if abs(h) < hmin:
            raise StiffnessError(f"step size underflow at x = {x}")
        if (x + h - x1) * direction > 0.0:
            h = x1 - x
        q2 = qfun(x + 0.2 * h)
        q3 = qfun(x + 0.3 * h)
        q4 = qfun(x + 0.8 * h)
        q5 = qfun(x + (8.0 / 9.0) * h)
        q6 = qfun(x + h)
        errnorm = 0.0
        ynew = [0.0] * (2 * npair)
        for i in range(npair):
            u, p = y[2 * i], y[2 * i + 1]
            k1u, k1p = p, q0 * u
            u2 = u + h * (a21 * k1u)
            p2 = p + h * (a21 * k1p)
            k2u, k2p = p2, q2 * u2
            u3 = u + h * (a31 * k1u + a32 * k2u)
            p3 = p + h * (a31 * k1p + a32 * k2p)
            k3u, k3p = p3, q3 * u3
            u4 = u + h * (a41 * k1u + a42 * k2u + a43 * k3u)
            p4 = p + h * (a41 * k1p + a42 * k2p + a43 * k3p)
            k4u, k4p = p4, q4 * u4
            u5 = u + h * (a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u)
            p5 = p + h * (a51 * k1p + a52 * k2p + a53 * k3p + a54 * k4p)
            k5u, k5p = p5, q5 * u5
            u6 = u + h * (a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u)
            p6 = p + h * (a61 * k1p + a62 * k2p + a63 * k3p + a64 * k4p + a65 * k5p)
            k6u, k6p = p6, q6 * u6
            un = u + h * (a71 * k1u + a73 * k3u + a74 * k4u + a75 * k5u + a76 * k6u)
            pn = p + h * (a71 * k1p + a73 * k3p + a74 * k4p + a75 * k5p + a76 * k6p)
            erru = h * (e1 * k1u + e3 * k3u + e4 * k4u + e5 * k5u + e6 * k6u + e7 * pn)
            errp = h * (e1 * k1p + e3 * k3p + e4 * k4p + e5 * k5p + e6 * k6p + e7 * q6 * un)
            eu = abs(erru) / (tol + tol * max(abs(u), abs(un)))
            ep = abs(errp) / (tol + tol * max(abs(p), abs(pn)))
            if eu > errnorm:
                errnorm = eu
            if ep > errnorm:
                errnorm = ep
            ynew[2 * i] = un
            ynew[2 * i + 1] = pn
        if errnorm <= 1.0:
            x += h
            y = ynew
            q0 = q6
            factor = 5.0 if errnorm == 0.0 else min(5.0, 0.9 * errnorm ** -0.2)
        else:
            factor = max(0.2, 0.9 * errnorm ** -0.2)
        h *= factor
    return tuple(y)


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol = {tol} must be positive and finite")


def _check_R(V: PotentialSpec, R: float) -> None:
    if R != V.R:
        raise DomainError(f"R = {R} disagrees with the interval [0, {V.R}] "
                          f"of the potential")


def _check_z(z: complex) -> None:
    if not cmath.isfinite(z):
        raise DomainError(f"z = {z} must be finite")


def _propagate_vec(V: PotentialSpec, z: complex, x0: float, y0: tuple,
                   x1: float, tol: float, knots: dict | None = None) -> tuple:
    """(y, log_scale): the (value, derivative) pairs of y0 at x0 carried to
    x1, as mantissas y times e^log_scale, one piece of V.span at a time.
    knots, if given, receives the same (y, log_scale) at the end of every
    piece: each knot crossed, and x1."""
    _check_tol(tol)
    _check_z(z)
    y, log_scale = list(y0), 0.0
    for s, e, (a, b, va, vb) in V.span(x0, x1):
        if va == vb:
            # constant piece: the exact rotation
            c, sn, beta = trig_piece(z - va, e - s)
            ks = (va - z) * sn
            for i in range(0, len(y), 2):
                u, du = y[i], y[i + 1]
                y[i], y[i + 1] = c * u + sn * du, ks * u + c * du
            log_scale += beta
        else:
            w = b - a

            def qfun(x):  # V - z on the linear piece
                t = (x - a) / w
                return va * (1.0 - t) + vb * t - z

            y = list(_rk_segment(qfun, s, y, e, tol))
            if not all(map(cmath.isfinite, y)):
                raise AccuracyError(f"the solution state is not finite at "
                                    f"x = {e} (z = {z})", z=z, x=e)
        if knots is not None:
            knots[e] = (tuple(y), log_scale)
    return tuple(y), log_scale


def propagate(V: PotentialSpec, z: complex, data: CauchyData, to_x: float,
              tol: float = DEFAULT_TOL) -> CauchyData:
    """Propagate solution data to to_x (left or right), local error ~ tol."""
    if not (0.0 <= data.x <= V.R and 0.0 <= to_x <= V.R):
        raise DomainError("propagation endpoints must lie in [0, R]")
    if not (cmath.isfinite(data.u) and cmath.isfinite(data.du)):
        raise DomainError(f"start data (u, u') = ({data.u}, {data.du}) "
                          f"must be finite")
    (u, du), log_scale = _propagate_vec(V, z, data.x, (data.u, data.du),
                                        to_x, tol)
    return CauchyData(unscale(u, log_scale, z, to_x),
                      unscale(du, log_scale, z, to_x), to_x)


def fundamental_system(V: PotentialSpec, z: complex, x: float,
                       tol: float = DEFAULT_TOL) -> FundamentalEval:
    """theta, phi and derivatives at x, both propagated in one sweep."""
    if not 0.0 <= x <= V.R:
        raise DomainError(f"x = {x} outside [0, {V.R}]")
    y, log_scale = _propagate_vec(
        V, z, 0.0, (1.0 + 0j, 0.0 + 0j, 0.0 + 0j, 1.0 + 0j), x, tol)
    return FundamentalEval(y, log_scale, z, x)


def delta_from_fs(fs: FundamentalEval, theta0: complex, thetaR: complex) -> complex:
    """The mantissa of Delta, from an already computed fundamental system at
    x = R: Delta = delta_from_fs(fs, ...) e^fs.log_scale."""
    c0, s0 = cmath.cos(theta0), cmath.sin(theta0)
    cR, sR = cmath.cos(thetaR), cmath.sin(thetaR)
    th, dth, ph, dph = fs.mantissas
    return c0 * cR * ph - c0 * sR * dph - s0 * cR * th + s0 * sR * dth


def delta_off_spectrum(fs: FundamentalEval, R: float, theta0: complex,
                       thetaR: complex, tol: float) -> complex:
    """delta_from_fs, or EigenvalueHitError where z is numerically on the
    spectrum of H_{theta0,thetaR}: the one spectrum test behind Lambda,
    m+-, the Green's function and the trace-row kernels."""
    delta = delta_from_fs(fs, theta0, thetaR)
    if is_near_eigenvalue(delta, fs.z, R, theta0, thetaR,
                          max(1e-12, 50.0 * tol), fs.log_scale):
        raise EigenvalueHitError(
            f"z = {fs.z} is numerically an eigenvalue of H_({theta0}, "
            f"{thetaR}); Delta vanishes there",
            z=fs.z, operator=f"H_{{{theta0},{thetaR}}}")
    return delta


def char_det(V: PotentialSpec, z: complex, theta0: complex, thetaR: complex,
             tol: float = DEFAULT_TOL) -> complex:
    """Characteristic determinant; zeros = eigenvalues of the Robin
    realization with angles (theta0, thetaR).  AccuracyError when it does
    not fit in a double."""
    fs = solution(V, z, tol).fs
    return unscale(delta_from_fs(fs, theta0, thetaR), fs.log_scale, z, V.R)


class Solution:
    """The forward sweep at one (V, z, tol) and the ~u-, ~u+ bases built on
    it, one BasisView per angle pair asked for."""

    def __init__(self, V: PotentialSpec, z: complex, tol: float):
        _check_z(z)   # before the sweep, so a bad z costs no propagation
        self.V = V
        self.z = z
        self.tol = tol
        self.fs = fundamental_system(V, z, V.R, tol)
        self._views = {}

    def basis(self, theta0: complex, thetaR: complex) -> "BasisView":
        view = self._views.get((theta0, thetaR))
        if view is None:
            view = self._views[(theta0, thetaR)] = BasisView(self, theta0, thetaR)
        return view


@functools.lru_cache(maxsize=1)
def solution(V: PotentialSpec, z: complex, tol: float) -> Solution:
    """The Solution of (V, z, tol).  Only the last one is kept, so calls
    share a sweep when they are made one after another at the same
    (V, z, tol), and never otherwise."""
    return Solution(V, z, tol)


class BasisView:
    """The unit-start ~u-, ~u+ of the (theta0, thetaR) realization at one
    (V, z, tol), and the Green's function G(x, x') = ~u-(min) ~u+(max) /
    Delta built on them.

    The tables hold ~u- with data (-sin theta0, cos theta0) at 0 and ~u+
    with data (-sin thetaR, -cos thetaR) at R, as (mantissas, log scale).
    A new x is propagated from the nearest tabulated point on the side the
    solution grows from (rightward for ~u-, leftward for ~u+): for
    Im sqrt(z) > 0 the complementary mode then decays and the relative
    step control holds.  Every knot of V that a propagation crosses is
    tabulated too, so a new x repeats earlier propagation over part of one
    piece at most, in whatever order the points come.  W(~u+, ~u-) =
    Delta(theta0, thetaR), so every value read here, with the scales netted
    before they are applied, needs z off the spectrum of H_{theta0,thetaR}
    only.
    """

    def __init__(self, sol: Solution, theta0: complex, thetaR: complex):
        fs, R = sol.fs, sol.V.R
        self.sol = sol
        self.theta0, self.thetaR = theta0, thetaR
        self._log = fs.log_scale
        c0, s0 = cmath.cos(theta0), cmath.sin(theta0)
        cR, sR = cmath.cos(thetaR), cmath.sin(thetaR)
        th, dth, _, dph = fs.mantissas
        # sign -1: ~u-, sign +1: ~u+; the far endpoint comes from the sweep
        self._table = {
            -1: {0.0: ((-s0, c0), 0.0),
                 R: ((delta_from_fs(fs, theta0, 0.0), c0 * dph - s0 * dth),
                     self._log)},
            1: {R: ((-sR, -cR), 0.0),
                0.0: ((delta_from_fs(fs, 0.0, thetaR), sR * dth - cR * th),
                      self._log)}}

    @functools.cached_property
    def delta(self) -> complex:
        """The mantissa of Delta(theta0, thetaR) = W(~u+, ~u-) e^-log_scale,
        or EigenvalueHitError on the spectrum."""
        sol = self.sol
        return delta_off_spectrum(sol.fs, sol.V.R, self.theta0, self.thetaR,
                                  sol.tol)

    def scaled(self, sign: int, x: float) -> tuple:
        """(~u(x) e^-g, g) for ~u- (sign -1) or ~u+ (sign +1): the
        unit-start data as CauchyData of mantissas, and their log scale g."""
        table = self._table[sign]
        hit = table.get(x)
        if hit is None:
            sol = self.sol
            if not 0.0 <= x <= sol.V.R:
                raise DomainError(f"x = {x} outside [0, {sol.V.R}]")
            start = (max(k for k in table if k <= x) if sign < 0
                     else min(k for k in table if k >= x))
            y, log_scale = table[start]
            # each crossed point's scale is start's plus the step summed
            # from start, the same rounding as one propagation straight to it
            crossed = {}
            _propagate_vec(sol.V, sol.z, start, y, x, sol.tol, crossed)
            for k, (ky, step) in crossed.items():
                table[k] = (ky, log_scale + step)
            hit = table[x]
        (u, du), log_scale = hit
        return CauchyData(u, du, x), log_scale

    def over_delta(self, sign: int, x: float) -> CauchyData:
        """~u(x) / Delta(theta0, thetaR) for ~u- (sign -1) or ~u+ (+1),
        with the scales netted first."""
        d = self.delta
        m, g = self.scaled(sign, x)
        scale = math.exp(g - self._log)
        return CauchyData(m.u / d * scale, m.du / d * scale, x)

    def _kernel(self, lo: float, dlo: bool, hi: float, dhi: bool) -> complex:
        """~u-(lo) ~u+(hi) / Delta, with ~u-' if dlo and ~u+' if dhi."""
        d = self.delta
        (um, gm), (up, gp) = self.scaled(-1, lo), self.scaled(1, hi)
        return ((um.du if dlo else um.u) * (up.du if dhi else up.u) / d
                * math.exp(gm + gp - self._log))

    def __call__(self, x: float, xp: float) -> complex:
        lo, hi = (x, xp) if x <= xp else (xp, x)
        return self._kernel(lo, False, hi, False)

    def d1(self, x: float, xp: float) -> complex:
        """d/dx G on the wedge containing (x, xp); on the diagonal the
        x < x' wedge is used."""
        if x <= xp:
            return self._kernel(x, True, xp, False)
        return self._kernel(xp, False, x, True)

    def d2(self, x: float, xp: float) -> complex:
        if x <= xp:
            return self._kernel(x, False, xp, True)
        return self._kernel(xp, True, x, False)
