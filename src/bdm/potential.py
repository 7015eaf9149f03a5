"""Potential representations and the two exact oracles.

The free (V = 0) problem has closed-form solutions built from the pair

    f(z,s,a,b) = z sin(a) sin(b) sin(sqrt(z) s) + sqrt(z) sin(a+b) cos(sqrt(z) s)
                 - cos(a) cos(b) sin(sqrt(z) s),
    g(z,s,a,b) = f(z,s,a+pi/2,b),

from which the free boundary data map and Green's function follow.  The
second oracle covers piecewise-constant potentials, where the propagator of
the Schrodinger equation on each piece is an explicit trig/hyperbolic
rotation with wavenumber sqrt(z - v).  Both are built on trig_piece, the
one piece routine, which odecore also propagates with; it returns the
rotation with e^|Im k d| pulled out, so f, g and transfer products are
formed as mantissas and log scales that cannot overflow.

sqrt(z) is always taken with Im >= 0 (nonnegative real root for z >= 0);
every module shares this branch.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import AccuracyError, DomainError, EigenvalueHitError
from .traces import EYE2, mat_mul


def sqrt_upper(z: complex) -> complex:
    """Branch of sqrt with Im(sqrt(z)) >= 0; real nonnegative for z >= 0."""
    w = cmath.sqrt(z)
    if w.imag < 0.0 or (w.imag == 0.0 and w.real < 0.0):
        w = -w
    return w


def trig_piece(k2: complex, d: float) -> tuple:
    """(c, s, beta) with cos(k d) = c e^beta, sin(k d)/k = s e^beta and
    beta = |Im(k d)|, for k^2 = k2 and d of either sign.

    The one piece routine: on a piece where V = v the solution data
    propagate by [[cos kd, sin(kd)/k], [-k^2 sin(kd)/k, cos kd]] with
    k^2 = z - v, and pulling e^beta out keeps |c| <= 1 and |k s| <= 1
    whatever |z| is.
    """
    if k2 == 0:
        return 1.0 + 0j, complex(d), 0.0
    k = sqrt_upper(k2)
    w = k * d
    beta = abs(w.imag)
    if beta < 1.0:
        damp = math.exp(-beta)
        return cmath.cos(w) * damp, cmath.sin(w) / k * damp, beta
    # cos w = e^(-i w~)(1 + e^(2i w~))/2 with w~ = w sign(Im w), |e^(2i w~)| < 1
    sign = 1.0 if w.imag > 0.0 else -1.0
    head = cmath.exp(-1j * sign * w.real)
    tail = cmath.exp(2j * sign * w)
    return 0.5 * head * (1.0 + tail), 0.5j * sign * head * (1.0 - tail) / k, beta


def unscale(m: complex, log_scale: float, z=None, x=None) -> complex:
    """m e^log_scale, or AccuracyError when it does not fit in a double."""
    if m == 0 or log_scale == 0.0:
        return m
    half = 0.5 * log_scale
    try:
        v = m * math.exp(half) * math.exp(half)
    except OverflowError:
        v = math.inf
    if not cmath.isfinite(v):
        raise AccuracyError(f"a value at x = {x} (z = {z}) does not fit in a "
                            f"double: log scale {log_scale:.6g}", z=z, x=x)
    return v


def _f_scaled(z: complex, s: float, alpha: complex, beta: complex) -> tuple:
    """f(z,s,alpha,beta)/sqrt(z) = m e^g as (m, g), g = Im sqrt(z) s."""
    sa, sb = cmath.sin(alpha), cmath.sin(beta)
    ca, cb = cmath.cos(alpha), cmath.cos(beta)
    c, snc, g = trig_piece(z, s)
    return z * sa * sb * snc + cmath.sin(alpha + beta) * c - ca * cb * snc, g


def _f_reduced(z: complex, s: float, alpha: complex, beta: complex) -> complex:
    """f(z,s,alpha,beta)/sqrt(z): entire in z, safe at z = 0."""
    return unscale(*_f_scaled(z, s, alpha, beta))


def _g_reduced(z: complex, s: float, alpha: complex, beta: complex) -> complex:
    return _f_reduced(z, s, alpha + math.pi / 2.0, beta)


def closed_form_f(z: complex, s: float, alpha: complex, beta: complex) -> complex:
    """The generating function of the free problem; symmetric in (alpha, beta)."""
    return sqrt_upper(z) * _f_reduced(z, s, alpha, beta)


def closed_form_g(z: complex, s: float, alpha: complex, beta: complex) -> complex:
    """closed_form_f with alpha advanced by pi/2."""
    return sqrt_upper(z) * _g_reduced(z, s, alpha, beta)


@dataclass(frozen=True)
class PotentialSpec:
    """A representative of V in L^1((0, R)); possibly complex-valued.

    kind is one of "zero", "piecewise_constant", "sampled".  Piecewise
    specs carry strictly increasing interior breakpoints and one value per
    piece; sampled specs carry a strictly increasing grid spanning [0, R]
    with piecewise-linear interpolation.  At a breakpoint the right-limit
    value is returned (fixed tie-break so tests are deterministic).
    """

    kind: str
    R: float
    breakpoints: tuple = ()
    values: tuple = ()
    grid: tuple = ()

    def __post_init__(self):
        # tuples keep the spec hashable: the solve memo is keyed by it
        for name in ("breakpoints", "values", "grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.R <= 0.0 or not math.isfinite(self.R):
            raise DomainError("interval length R must be positive and finite")
        if self.kind == "zero":
            pass
        elif self.kind == "piecewise_constant":
            bp = self.breakpoints
            if any(not (0.0 < b < self.R) for b in bp):
                raise DomainError("breakpoints must lie inside (0, R)")
            if any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
                raise DomainError("breakpoints must be strictly increasing")
            if len(self.values) != len(bp) + 1:
                raise DomainError("need one piece value per breakpoint gap")
        elif self.kind == "sampled":
            g = self.grid
            if len(g) < 2 or g[0] != 0.0 or g[-1] != self.R:
                raise DomainError("sampled grid must span [0, R]")
            if any(not g[i] < g[i + 1] for i in range(len(g) - 1)):
                raise DomainError("sampled grid must be strictly increasing")
            if len(self.values) != len(g):
                raise DomainError("need one sample per grid point")
        else:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if any(not (math.isfinite(complex(v).real) and math.isfinite(complex(v).imag))
               for v in self.values):
            raise DomainError("potential values must be finite")

    @classmethod
    def zero(cls, R: float) -> "PotentialSpec":
        return cls("zero", float(R))

    @classmethod
    def piecewise_constant(cls, breakpoints, values, R: float) -> "PotentialSpec":
        return cls("piecewise_constant", float(R),
                   breakpoints=tuple(float(b) for b in breakpoints),
                   values=tuple(complex(v) for v in values))

    @classmethod
    def sampled(cls, grid, values, R: float) -> "PotentialSpec":
        return cls("sampled", float(R),
                   grid=tuple(float(x) for x in grid),
                   values=tuple(complex(v) for v in values))

    @property
    def is_real(self) -> bool:
        return all(complex(v).imag == 0.0 for v in self.values)

    @functools.cached_property
    def pieces(self) -> tuple:
        """(a, b, va, vb) per piece of [0, R], left to right: V is linear
        from va at a to vb at b, and constant where va == vb.  The one place
        that knows how each kind splits [0, R]."""
        if self.kind == "sampled":
            g, v = self.grid, self.values
            return tuple(zip(g, g[1:], v, v[1:]))
        edges = (0.0,) + self.breakpoints + (self.R,)
        return tuple((a, b, v, v) for a, b, v in
                     zip(edges, edges[1:], self.values or (0.0,)))

    def span(self, x0: float, x1: float) -> list:
        """The path from x0 to x1 as (s, e, piece), one per piece it
        crosses, in the order of travel: the path runs from s to e inside
        piece.  Empty when x0 == x1."""
        lo, hi = (x0, x1) if x0 <= x1 else (x1, x0)
        parts = [(p[0] if p[0] > lo else lo, p[1] if p[1] < hi else hi, p)
                 for p in self.pieces if lo < hi and p[0] < hi and p[1] > lo]
        if x0 > x1:
            return [(e, s, p) for s, e, p in reversed(parts)]
        return parts


def eval_potential(V: PotentialSpec, x: float) -> complex:
    """Pointwise value of the chosen representative of V (right limits at
    breakpoints)."""
    if not 0.0 <= x <= V.R:
        raise DomainError(f"x = {x} outside [0, {V.R}]")
    a, b, va, vb = next(p for p in reversed(V.pieces) if p[0] <= x)
    if va == vb:
        return complex(va)
    t = (x - a) / (b - a)
    return complex(va * (1.0 - t) + vb * t)


def log_delta_scale(z: complex, R: float, theta0: complex,
                    thetaR: complex) -> float:
    """log of the natural magnitude scale of Delta away from its zeros.

    The four boundary-weighted terms grow like |z|^(1/2) e^(Im sqrt(z) R)
    (sin*sin), e^(...) (mixed) and |z|^(-1/2) e^(...) (cos*cos); weighting
    them by the actual angle coefficients gives Dirichlet-type pairs the
    correct smaller scale.  Everything stays in log space so large |z|
    cannot overflow.
    """
    root = math.sqrt(max(1.0, abs(z)))
    s0, c0 = abs(cmath.sin(theta0)), abs(cmath.cos(theta0))
    sR, cR = abs(cmath.sin(thetaR)), abs(cmath.cos(thetaR))
    amp = root * s0 * sR + s0 * cR + c0 * sR + c0 * cR / root
    return math.log(max(amp, 1e-300)) + sqrt_upper(z).imag * R


def is_near_eigenvalue(delta: complex, z: complex, R: float, theta0: complex,
                       thetaR: complex, floor: float,
                       log_scale: float = 0.0) -> bool:
    """Whether Delta(z; theta0, thetaR) = delta e^log_scale counts as zero:
    |Delta| < floor * scale, in log space so large-|z| scales cannot
    overflow.

    The floor is the caller's: a determinant computed at tolerance tol
    carries O(tol) relative error, so exact spectral hits land at
    |Delta| ~ tol * scale.
    """
    if delta == 0.0:
        return True
    return math.log(abs(delta)) + log_scale < (
        math.log(floor) + log_delta_scale(z, R, theta0, thetaR))


def _raise_if_free_eigenvalue(fr: complex, g: float, z: complex, R: float,
                              theta0: complex, thetaR: complex) -> None:
    # fr e^g is the entire part f/sqrt(z) = -Delta of the free problem
    if is_near_eigenvalue(fr, z, R, theta0, thetaR, 1e-12, g):
        raise EigenvalueHitError(
            f"z = {z} is an eigenvalue of the free operator with angles "
            f"({theta0}, {thetaR})", z=z, operator="H0")


def oracle_bdmap_zero(z: complex, R: float, theta0: complex,
                      thetaR: complex) -> tuple:
    """Exact Robin-to-Robin map of the free problem (entries g/f, -sqrt(z)/f,
    written through the entire parts so z = 0 is a removable point).  f and
    g share the scale e^(Im sqrt(z) R), so only the off-diagonal sees it."""
    fr, g = _f_scaled(z, R, theta0, thetaR)
    _raise_if_free_eigenvalue(fr, g, z, R, theta0, thetaR)
    m11 = _f_scaled(z, R, theta0 + math.pi / 2.0, thetaR)[0] / fr
    m22 = _f_scaled(z, R, thetaR + math.pi / 2.0, theta0)[0] / fr
    off = -math.exp(-g) / fr
    return ((m11, off), (off, m22))


def oracle_green_zero(z: complex, R: float, theta0: complex, thetaR: complex,
                      x: float, xp: float) -> complex:
    """Exact Green's function of the free problem, with the scales of its
    three f factors netted before they are applied."""
    if not (0.0 <= x <= R and 0.0 <= xp <= R):
        raise DomainError("x, x' must lie in [0, R]")
    fr, g = _f_scaled(z, R, theta0, thetaR)
    _raise_if_free_eigenvalue(fr, g, z, R, theta0, thetaR)
    lo, hi = (x, xp) if x <= xp else (xp, x)
    f_lo, g_lo = _f_scaled(z, lo, theta0, 0.0)
    f_hi, g_hi = _f_scaled(z, R - hi, 0.0, thetaR)
    return -f_lo * f_hi / fr * math.exp(g_lo + g_hi - g)


def transfer_matrix_piecewise(V: PotentialSpec, z: complex, a: float,
                              b: float) -> tuple:
    """Exact 2x2 propagator T with (u(b), u'(b))^T = T (u(a), u'(a))^T for
    piecewise-constant V; det T = 1.  AccuracyError when an entry does not
    fit in a double."""
    if any(va != vb for _, _, va, vb in V.pieces):
        raise DomainError("transfer matrices require a piecewise-constant potential")
    if not (0.0 <= a <= b <= V.R):
        raise DomainError("need 0 <= a <= b <= R")
    T, log_scale = EYE2, 0.0
    for lo, hi, (_, _, v, _) in V.span(a, b):
        c, s, beta = trig_piece(z - v, hi - lo)
        T = mat_mul(((c, s), ((v - z) * s, c)), T)
        log_scale += beta
    return tuple(tuple(unscale(t, log_scale, z, b) for t in row) for row in T)
