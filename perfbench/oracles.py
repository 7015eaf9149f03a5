"""Exact references for the benchmark, computed apart from bdm.

Nothing here imports bdm.  A potential is handed over as a list of pieces
``(x0, x1, v0, v1)``: V is linear from v0 at x0 to v1 at x1 (constant when
v0 == v1).  On a constant piece the propagator is the trig rotation with
wavenumber sqrt(z - v); on a linear piece it comes from the Airy pair
Ai, Bi.  Everything derived (maps, Green's function, Krein correction,
Weyl-Titchmarsh matrix, eigenvalues, point masses) is built from these
propagators and the definitions of the Robin trace

    gamma_(a, b)(u) = (cos a u(0) + sin a u'(0),  cos b u(R) - sin b u'(R)),

never from bdm's own Delta-ratio formulas.

Maps and interior values are evaluated in mpmath, with the working
precision raised with the growth exp(Im sqrt(z - V) R) of the solutions so
that large |z| stays finite and cancellation-free.  Real-line eigenvalue
searches use a numpy/scipy double-precision Delta (exponentially scaled
Airy functions) and scipy's brentq.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
from scipy import optimize, special

BASE_DPS = 30


def pieces_of(kind: str, R: float, breakpoints=(), values=(), grid=()):
    """Pieces (x0, x1, v0, v1) of a potential given by its raw data."""
    if kind == "zero":
        return [(0.0, R, 0j, 0j)]
    if kind == "piecewise_constant":
        edges = (0.0,) + tuple(breakpoints) + (R,)
        return [(edges[i], edges[i + 1], complex(v), complex(v))
                for i, v in enumerate(values)]
    if kind == "sampled":
        return [(grid[i], grid[i + 1], complex(values[i]), complex(values[i + 1]))
                for i in range(len(grid) - 1)]
    raise ValueError(f"unknown potential kind {kind!r}")


def _clip(pieces, a: float, b: float):
    """Sub-pieces covering [a, b] (a <= b), linear data re-evaluated at the
    cut points."""
    out = []
    for x0, x1, v0, v1 in pieces:
        lo, hi = max(x0, a), min(x1, b)
        if hi <= lo:
            continue
        if v0 == v1:
            out.append((lo, hi, v0, v0))
        else:
            s = (v1 - v0) / (x1 - x0)
            out.append((lo, hi, v0 + s * (lo - x0), v0 + s * (hi - x0)))
    return out


# ---------------------------------------------------------------- mpmath

def growth(pieces, z: complex) -> float:
    """Upper estimate of log |T| over the pieces: sum of L Im sqrt(z - v)."""
    g = 0.0
    for x0, x1, v0, v1 in pieces:
        k = max(abs(cmath.sqrt(z - v0).imag), abs(cmath.sqrt(z - v1).imag))
        g += k * (x1 - x0)
    return g


def dps_for(pieces, z: complex) -> int:
    """Digits that absorb the cancellation between solutions of size
    exp(+-growth)."""
    return BASE_DPS + int(2.2 * growth(pieces, z) / math.log(10.0)) + 5


def _const_piece_mp(k2, d):
    if k2 == 0:
        return mp.matrix([[1, d], [0, 1]])
    k = mp.sqrt(k2)
    c, s = mp.cos(k * d), mp.sin(k * d)
    return mp.matrix([[c, s / k], [-k * s, c]])


def _linear_piece_mp(x0, x1, v0, v1, z):
    """Airy propagator of u'' = (V - z) u with V linear on [x0, x1].

    With c^3 = V' and t = (v0 - z)/c^2 + c (x - x0), the functions
    Ai(w t), w^3 = 1, solve the equation.  The pair is the one recessive
    and one dominant along arg t (Ai(w t) with w t nearest the positive
    axis, and its neighbour), so that their Wronskian does not cancel at
    large |t|; the propagator is F(t1) F(t0)^-1.
    """
    b = (v1 - v0) / (x1 - x0)
    c = mp.cbrt(b)
    t0 = (v0 - z) / (c * c)
    t1 = t0 + c * (x1 - x0)
    omegas = [mp.expjpi(mp.mpf(2 * j) / 3) for j in range(3)]
    tm = (t0 + t1) / 2
    j = min(range(3), key=lambda i: abs(mp.arg(omegas[i] * tm)) if tm != 0 else i)
    w1, w2 = omegas[j], omegas[(j + 1) % 3]
    extra = int(mp.log10(1 + abs(t0) + abs(t1))) * 2 + 10
    with mp.workdps(mp.mp.dps + extra):
        def frame(t):
            return mp.matrix([[mp.airyai(w1 * t), mp.airyai(w2 * t)],
                              [c * w1 * mp.airyai(w1 * t, 1), c * w2 * mp.airyai(w2 * t, 1)]])
        F0, F1 = frame(t0), frame(t1)
        det0 = F0[0, 0] * F0[1, 1] - F0[0, 1] * F0[1, 0]
        inv0 = mp.matrix([[F0[1, 1], -F0[0, 1]], [-F0[1, 0], F0[0, 0]]]) / det0
        return F1 * inv0


def transfer_mp(pieces, z, a: float, b: float):
    """Exact propagator T(a -> b), a <= b: (u, u')(b) = T (u, u')(a).
    Call inside an ``mp.workdps`` block."""
    z = mp.mpc(z)
    T = mp.eye(2)
    for x0, x1, v0, v1 in _clip(pieces, a, b):
        d = mp.mpf(x1) - mp.mpf(x0)
        if v0 == v1:
            P = _const_piece_mp(z - mp.mpc(v0), d)
        else:
            P = _linear_piece_mp(mp.mpf(x0), mp.mpf(x1), mp.mpc(v0), mp.mpc(v1), z)
        T = P * T
    return T


def _mat_np(M) -> np.ndarray:
    return np.array([[complex(M[0, 0]), complex(M[0, 1])],
                     [complex(M[1, 0]), complex(M[1, 1])]], dtype=complex)


def trace_matrix(T, a, b):
    """Columns: Robin traces gamma_(a,b) of the solutions with data
    (u, u')(0) = (1, 0) and (0, 1)."""
    ca, sa, cb, sb = mp.cos(a), mp.sin(a), mp.cos(b), mp.sin(b)
    return mp.matrix([[ca, sa],
                      [cb * T[0, 0] - sb * T[1, 0], cb * T[0, 1] - sb * T[1, 1]]])


def bdmap_ref(pieces, R: float, angles, z: complex) -> np.ndarray:
    """Lambda with angles = (theta0, thetaR, theta0', thetaR'): the matrix
    taking the (theta0, thetaR)-trace of every solution to its primed
    trace, i.e. A' A^-1 with A, A' the trace matrices."""
    with mp.workdps(dps_for(pieces, z)):
        T = transfer_mp(pieces, z, 0.0, R)
        t0, tR, t0p, tRp = (mp.mpc(a) for a in angles)
        A = trace_matrix(T, t0, tR)
        Ap = trace_matrix(T, t0p, tRp)
        return _mat_np(Ap * mp.inverse(A))


class Interior:
    """u-, u+ of one (V, z, theta0, thetaR) at a fixed set of points.

    u- satisfies the theta0 condition at 0, u+ the thetaR condition at R;
    G(x, x') = u-(min) u+(max) / W with W = u+ u-' - u+' u-.
    """

    def __init__(self, pieces, R: float, z: complex, theta0, thetaR, xs):
        self.dps = dps_for(pieces, z)
        with mp.workdps(self.dps):
            zz = mp.mpc(z)
            t0, tR = mp.mpc(theta0), mp.mpc(thetaR)
            start_m = mp.matrix([-mp.sin(t0), mp.cos(t0)])
            end_p = mp.matrix([mp.sin(tR), mp.cos(tR)])
            self.um, self.up = {}, {}
            for x in sorted(set(float(v) for v in xs)):
                self.um[x] = transfer_mp(pieces, zz, 0.0, x) * start_m
                T = transfer_mp(pieces, zz, x, R)
                # T^-1 for det T = 1
                inv = mp.matrix([[T[1, 1], -T[0, 1]], [-T[1, 0], T[0, 0]]])
                self.up[x] = inv * end_p
            x = next(iter(self.um))
            self.w = self.up[x][0] * self.um[x][1] - self.up[x][1] * self.um[x][0]

    def green(self, x: float, xp: float) -> complex:
        lo, hi = (x, xp) if x <= xp else (xp, x)
        with mp.workdps(self.dps):
            return complex(self.um[float(lo)][0] * self.up[float(hi)][0] / self.w)

    def log_derivs(self, x0: float):
        """(u-'/u-, u+'/u+) at x0."""
        with mp.workdps(self.dps):
            um, up = self.um[float(x0)], self.up[float(x0)]
            return complex(um[1] / um[0]), complex(up[1] / up[0])


def wt_matrix_ref(mm0: complex, mp0: complex, alpha: float) -> np.ndarray:
    """M_alpha from the log-derivatives of u- and u+, rotated by alpha:
    m = (-sin a + cos a m0) / (cos a + sin a m0)."""
    c, s = math.cos(alpha), math.sin(alpha)
    mm = (-s + c * mm0) / (c + s * mm0)
    mpl = (-s + c * mp0) / (c + s * mp0)
    half = 0.5 * (mm + mpl)
    return np.array([[1.0, half], [half, mm * mpl]], dtype=complex) / (mm - mpl)


def char_fn_mp(pieces, R: float, theta0, thetaR, z):
    """det of the Robin trace matrix: zero exactly on the spectrum."""
    T = transfer_mp(pieces, z, 0.0, R)
    return mp.det(trace_matrix(T, mp.mpc(theta0), mp.mpc(thetaR)))


def point_mass_ref(pieces, R: float, angles, lam: float) -> np.ndarray:
    """Sigma({lam}) = -Res_{z=lam} Lambda(z) S, S = diag(sin(theta0'-theta0),
    sin(thetaR'-thetaR)), from Lambda = A' adj(A) / det A."""
    t0, tR, t0p, tRp = angles
    with mp.workdps(dps_for(pieces, lam) + 10):
        z = mp.mpf(lam)
        T = transfer_mp(pieces, z, 0.0, R)
        A = trace_matrix(T, mp.mpc(t0), mp.mpc(tR))
        Ap = trace_matrix(T, mp.mpc(t0p), mp.mpc(tRp))
        adj = mp.matrix([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])
        dd = mp.diff(lambda e: char_fn_mp(pieces, R, t0, tR, e), z)
        S = mp.diag([mp.sin(mp.mpc(t0p) - mp.mpc(t0)), mp.sin(mp.mpc(tRp) - mp.mpc(tR))])
        return _mat_np(-(Ap * adj * S) / dd)


def newton_root_mp(pieces, R: float, theta0, thetaR, z0: complex,
                   steps: int = 40) -> complex:
    """Newton root of the exact characteristic function from z0."""
    with mp.workdps(dps_for(pieces, z0) + 10):
        f = lambda e: char_fn_mp(pieces, R, theta0, thetaR, e)
        z = mp.mpc(z0)
        for _ in range(steps):
            step = f(z) / mp.diff(f, z)
            z -= step
            if abs(step) < mp.mpf(10) ** (-25) * max(1, abs(z)):
                break
        return complex(z)


# ------------------------------------------------------ numpy (double)

def _airy_scaled(t: np.ndarray):
    """Ai, Ai', Bi, Bi' of real t as mantissas with exponent zeta:
    Ai = ai e^-zeta, Bi = bi e^+zeta (zeta = 2/3 t^1.5 for t > 0, else 0)."""
    pos = t > 0.0
    tp = np.where(pos, t, 1.0)
    ai_s, aip_s, bi_s, bip_s = special.airye(tp)
    ai_u, aip_u, bi_u, bip_u = special.airy(np.where(pos, 0.0, t))
    zeta = np.where(pos, (2.0 / 3.0) * tp ** 1.5, 0.0)
    return (np.where(pos, ai_s, ai_u), np.where(pos, aip_s, aip_u),
            np.where(pos, bi_s, bi_u), np.where(pos, bip_s, bip_u), zeta)


def _transfer_np(pieces, E: np.ndarray, R: float):
    """Propagators T(0 -> R) for an array of spectral values E (complex for
    constant pieces; real E and real V on linear pieces)."""
    E = np.asarray(E)
    one = np.ones_like(E)
    T = [[one, 0 * one], [0 * one, one]]
    for x0, x1, v0, v1 in pieces:
        d = x1 - x0
        if v0 == v1:
            k2 = E - v0
            k = np.sqrt(k2.astype(complex))
            c = np.cos(k * d)
            sk = np.where(np.abs(k) * d < 1e-8, d, np.sin(k * d) / np.where(k == 0, 1, k))
            P = [[c, sk], [-k2 * sk, c]]
        else:
            b = (v1 - v0).real / d
            cc = np.cbrt(b)
            t0 = (v0.real - E) / (cc * cc)
            t1 = t0 + cc * d
            a0, ap0, b0, bp0, z0 = _airy_scaled(t0)
            a1, ap1, b1, bp1, z1 = _airy_scaled(t1)
            up, dn = np.exp(z1 - z0), np.exp(z0 - z1)
            P = [[math.pi * (a1 * bp0 * dn - b1 * ap0 * up),
                  math.pi * (b1 * a0 * up - a1 * b0 * dn) / cc],
                 [math.pi * cc * (ap1 * bp0 * dn - bp1 * ap0 * up),
                  math.pi * (bp1 * a0 * up - ap1 * b0 * dn)]]
        T = [[P[0][0] * T[0][0] + P[0][1] * T[1][0], P[0][0] * T[0][1] + P[0][1] * T[1][1]],
             [P[1][0] * T[0][0] + P[1][1] * T[1][0], P[1][0] * T[0][1] + P[1][1] * T[1][1]]]
    return T


def char_fn_np(pieces, R: float, theta0, thetaR, E):
    """Vectorised characteristic function (det of the trace matrix)."""
    T = _transfer_np(pieces, E, R)
    ca, sa = cmath.cos(theta0), cmath.sin(theta0)
    cb, sb = cmath.cos(thetaR), cmath.sin(thetaR)
    return (ca * (cb * T[0][1] - sb * T[1][1])
            - sa * (cb * T[0][0] - sb * T[1][0]))


def real_eigs_ref(pieces, R: float, theta0: float, thetaR: float, n: int):
    """Lowest n eigenvalues of a real self-adjoint problem: sign changes of
    the characteristic function on a grid uniform in sqrt(E - E_low),
    refined by brentq."""
    vmin = min(min(p[2].real, p[3].real) for p in pieces)
    kappa = 0.0
    for th in (theta0, thetaR):
        if abs(math.sin(th)) > 1e-12:
            kappa = max(kappa, abs(math.cos(th) / math.sin(th)))
    e_low = vmin - 4.0 * (kappa + 1.0) ** 2
    ds = math.pi / (32.0 * R)

    def f(e):
        return float(np.real(char_fn_np(pieces, R, theta0, thetaR, np.array([e]))[0]))

    roots, s_lo = [], 0.0
    while len(roots) < n:
        s = s_lo + ds * np.arange(0, 257)
        E = e_low + s * s
        vals = np.real(char_fn_np(pieces, R, theta0, thetaR, E))
        for i in range(len(E) - 1):
            if vals[i] == 0.0:
                roots.append(float(E[i]))
            elif vals[i] * vals[i + 1] < 0.0:
                roots.append(optimize.brentq(f, E[i], E[i + 1], xtol=1e-14,
                                             rtol=1e-15, maxiter=200))
        s_lo = float(s[-1])
    return sorted(roots)[:n]


def winding_count(pieces, R: float, theta0, thetaR, rect, n0: int = 64) -> int:
    """Argument-principle count of zeros of the exact characteristic
    function inside rect = (re0, re1, im0, im1); edges are refined until
    the phase moves by less than pi/4 between samples."""
    re0, re1, im0, im1 = rect
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1),
               complex(re0, im1)]
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        t = np.linspace(0.0, 1.0, n0 + 1)
        for _ in range(30):
            w = char_fn_np(pieces, R, theta0, thetaR, a + (b - a) * t)
            dphi = np.angle(w[1:] / w[:-1])
            bad = np.abs(dphi) > math.pi / 4
            if not bad.any():
                break
            mids = 0.5 * (t[:-1] + t[1:])[bad]
            t = np.sort(np.concatenate([t, mids]))
        else:
            raise ArithmeticError("winding count did not resolve")
        total += float(dphi.sum())
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.05:
        raise ArithmeticError(f"winding {w} not near an integer")
    return int(round(w))
