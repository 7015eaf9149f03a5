"""Green's function, boundary-trace resolvent kernels, and Krein-type
rank-<=2 resolvent corrections between different Robin realizations.

The resolvent kernel is G(z,x,x') = ~u-(z,min) ~u+(z,max) / Delta(z) with
~u-, ~u+ the unit-start solutions, defined for z off the spectrum only.
Applying a primed trace to the resolvent produces integral kernels
proportional to ~u+ and ~u-, and the adjoint of the conjugated trace
applied to the adjoint resolvent is a two-dimensional family spanned by
~u+ and ~u- as well; together they build the correction kernel that turns
one realization's Green's function into another's.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .bdmap import bdmap_general
from .errors import DomainError
from .odecore import DEFAULT_TOL, BasisView, _check_R, solution
from .potential import PotentialSpec
from .traces import AnglePair, AngleQuad, trace_gamma


@dataclass(frozen=True)
class GreenEval:
    value: complex
    z: complex
    x: float
    xp: float


def green_evaluator(V: PotentialSpec, R: float, pair: AnglePair, z: complex,
                    tol: float = DEFAULT_TOL) -> BasisView:
    """Pointwise Green's function of one Robin realization at fixed z."""
    _check_R(V, R)
    return solution(V, z, tol).basis(pair.theta0, pair.thetaR)


def green(V: PotentialSpec, R: float, pair: AnglePair, z: complex, x: float,
          xp: float, tol: float = DEFAULT_TOL) -> GreenEval:
    """G(z,x,x'); symmetric in (x,x'), satisfies the boundary condition in
    each variable."""
    if not (0.0 <= x <= R and 0.0 <= xp <= R):
        raise DomainError("x, x' must lie in [0, R]")
    k = green_evaluator(V, R, pair, z, tol)
    return GreenEval(k(x, xp), z, x, xp)


def gamma_resolvent_rows(V: PotentialSpec, R: float, pair: AnglePair,
                         primed: AnglePair, z: complex,
                         tol: float = DEFAULT_TOL):
    """Kernels (k1, k2) with (gamma_{primed} (H - z)^-1 f)_j = int k_j f.

    k1 = sin(theta0'-theta0) ~u+/Delta and k2 = sin(thetaR'-thetaR)
    ~u-/Delta, with ~u+- the unit-start solutions of BasisView and Delta =
    Delta(theta0, thetaR); they vanish as primed -> base.
    """
    view = green_evaluator(V, R, pair, z, tol)
    s0, sR = (cmath.sin(d) for d in AngleQuad(pair, primed).diffs)
    view.delta  # the spectrum test, before any row value is asked for

    def k1(xp: float) -> complex:
        return s0 * view.over_delta(1, xp).u

    def k2(xp: float) -> complex:
        return sR * view.over_delta(-1, xp).u

    return k1, k2


def adjoint_trace_kernel(V: PotentialSpec, R: float, pair: AnglePair,
                         primed: AnglePair, z: complex, v,
                         tol: float = DEFAULT_TOL):
    """The function x -> ([conjugated-trace of adjoint resolvent]^* v)(x)
    = v1 k1(x) + v2 k2(x), with (k1, k2) the trace-row kernels."""
    v1, v2 = complex(v[0]), complex(v[1])
    k1, k2 = gamma_resolvent_rows(V, R, pair, primed, z, tol)

    def func(x: float) -> complex:
        return v1 * k1(x) + v2 * k2(x)

    return func


def lambda_times_s(V: PotentialSpec, R: float, quad: AngleQuad, z: complex,
                   tol: float = DEFAULT_TOL) -> tuple:
    """gamma_{primed} applied to the adjoint-trace columns: assembles
    Lambda^{theta'}_{theta}(z) S_{theta'-theta} column by column, entirely
    from basis endpoint data (the resolvent-representation route): the
    columns are sin(theta0'-theta0) gamma_{primed}(~u+/Delta) and
    sin(thetaR'-thetaR) gamma_{primed}(~u-/Delta)."""
    view = green_evaluator(V, R, quad.base, z, tol)
    d0, dR = quad.diffs
    cols = []
    for sign, d in ((1, d0), (-1, dR)):
        a, b = view.over_delta(sign, 0.0), view.over_delta(sign, R)
        g0, gR = trace_gamma(quad.primed, (a.u, a.du, b.u, b.du))
        cols.append((cmath.sin(d) * g0, cmath.sin(d) * gR))
    return tuple(zip(*cols))


@dataclass
class RankTwoKernel:
    """Separable kernel sum_{j,k} left_j(x) coupling[j][k] right_k(x')."""

    left: tuple
    coupling: tuple
    right: tuple

    def __call__(self, x: float, xp: float) -> complex:
        lx = [f(x) for f in self.left]
        rx = [f(xp) for f in self.right]
        return sum(lj * c * rk for lj, row in zip(lx, self.coupling)
                   for c, rk in zip(row, rx))


def krein_kernel(V: PotentialSpec, R: float, pair: AnglePair,
                 primed: AnglePair, z: complex,
                 tol: float = DEFAULT_TOL) -> RankTwoKernel | None:
    """Correction kernel C with G_{primed}(z,x,x') = G_{pair}(z,x,x') - C(x,x').

    C(x,x') = sum_{j,k} r_j(x) (Lambda^-1 S)_{jk} r_k(x') with r = (~u+/Delta,
    ~u-/Delta), Lambda^-1 the map from the primed traces back and S =
    diag(sin(theta0'-theta0), sin(thetaR'-thetaR)).  An unchanged angle
    zeroes its column of S and its off-diagonal entry of Lambda^-1, so one
    formula covers every case.  Returns None when primed == pair (the
    correction is zero).
    """
    if primed == pair:
        return None
    view = green_evaluator(V, R, pair, z, tol)
    view.delta  # the pair's spectrum test comes before the primed map's
    lam_inv = bdmap_general(V, R, AngleQuad(primed, pair), z, tol).entries
    s0, sR = (cmath.sin(d) for d in AngleQuad(pair, primed).diffs)
    coupling = tuple((a * s0, b * sR) for a, b in lam_inv)
    rows = (lambda x: view.over_delta(1, x).u,
            lambda x: view.over_delta(-1, x).u)
    return RankTwoKernel(left=rows, coupling=coupling, right=rows)


def krein_correction(V: PotentialSpec, R: float, pair: AnglePair,
                     primed: AnglePair, z: complex, x: float, xp: float,
                     tol: float = DEFAULT_TOL) -> complex:
    """Pointwise value of the Krein correction kernel (0 when primed == pair)."""
    k = krein_kernel(V, R, pair, primed, z, tol)
    if k is None:
        return 0.0 + 0.0j
    return k(x, xp)
