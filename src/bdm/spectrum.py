"""Eigenvalue localization as zeros of the characteristic determinant.

All searches run on the mantissa of Delta (odecore.delta_from_fs): a
positive factor e^-log_scale away from Delta, so it has the same zeros, the
same phase and, on the real axis, the same sign, and it stays finite where
Delta itself would overflow.

Self-adjoint case: Delta is real-analytic on the real axis with simple
zeros (separated boundary conditions), so sign-change bracketing on a grid
seeded by the free-problem guesses ((n + sigma) pi / R)^2 plus
bisection/Newton polish finds the spectrum.  Non-self-adjoint case: the
argument principle counts zeros inside a rectangle (adaptive phase tracking
of Delta along the contour integrates Delta'/Delta exactly per segment),
rectangles are quadrisected until each holds at most one zero, and Newton
with a finite-difference derivative polishes each root.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ContourError, DomainError, SearchFailureError
from .odecore import (DEFAULT_TOL, _check_R, _check_tol, delta_from_fs,
                      solution)
from .potential import PotentialSpec, is_near_eigenvalue, unscale
from .traces import AnglePair, angles_mod_pi_zero


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: tuple
    residuals: tuple
    window: str
    multiplicities: tuple = ()

    def __len__(self):
        return len(self.eigenvalues)


def _delta_fn(V: PotentialSpec, pair: AnglePair, tol: float):
    """z -> (mantissa, log scale) of Delta(z; theta0, thetaR), memoized."""
    cache = {}

    def f(z):
        hit = cache.get(z)
        if hit is None:
            fs = solution(V, z, tol).fs
            hit = cache[z] = (delta_from_fs(fs, pair.theta0, pair.thetaR),
                              fs.log_scale)
        return hit

    return f


def _is_root(f, z: complex, R: float, pair: AnglePair, floor: float) -> bool:
    delta, log_scale = f(z)
    return is_near_eigenvalue(delta, z, R, pair.theta0, pair.thetaR, floor,
                              log_scale)


def _residual(f, lam: complex) -> float:
    return abs(unscale(*f(lam), lam))


def _newton_polish(f, z0: complex, real_line: bool):
    """Newton with central-difference derivative; falls back to the last
    iterate when the step stagnates."""
    z = z0
    for _ in range(60):
        h = 1e-6 * max(1.0, abs(z))
        df = (f(z + h)[0] - f(z - h)[0]) / (2.0 * h)
        if df == 0.0:
            break
        step = f(z)[0] / df
        z = z - step
        if real_line:
            z = complex(z.real, 0.0)
        if abs(step) <= 1e-14 * max(1.0, abs(z)):
            break
    return z


def _merge_close(found):
    """(root, count) pairs sorted along the real axis, with roots within
    1e-8 relative of the previous kept root merged into it (counts add)."""
    merged = []
    for lam, n in sorted(found, key=lambda p: (p[0].real, p[0].imag)):
        if merged and abs(lam - merged[-1][0]) <= 1e-8 * max(1.0, abs(lam)):
            merged[-1] = (merged[-1][0], merged[-1][1] + n)
        else:
            merged.append((lam, n))
    return merged


def _guess_offset(pair: AnglePair) -> float:
    z0 = angles_mod_pi_zero(pair.theta0)
    zR = angles_mod_pi_zero(pair.thetaR)
    if z0 != zR:
        return 0.5
    return 0.0


def eig_selfadjoint(V: PotentialSpec, R: float, pair: AnglePair, n_max: int,
                    tol: float = DEFAULT_TOL,
                    verify_counts: bool = False) -> SpectrumResult:
    """Lowest n_max eigenvalues of the self-adjoint realization."""
    if not V.is_real:
        raise DomainError("eig_selfadjoint needs a real-valued potential")
    if not pair.is_real:
        raise DomainError("eig_selfadjoint needs real boundary angles")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    _check_R(V, R)
    _check_tol(tol)
    f = _delta_fn(V, pair, tol)
    # scanning and bracketing only need signs; run them loose, polish tight
    f_scan = _delta_fn(V, pair, max(tol, 1e-6))
    sigma = _guess_offset(pair)
    both_dirichlet_type = angles_mod_pi_zero(pair.theta0) and angles_mod_pi_zero(pair.thetaR)
    n0 = 1 if both_dirichlet_type else 0

    # search window: a couple of asymptotic slots above the target count,
    # and below the first guess far enough to catch Robin-bound states
    s_top = (n0 + n_max + 1 + sigma) * math.pi / R
    cot_bound = 0.0
    for th in (pair.theta0, pair.thetaR):
        s = math.sin(th.real)
        if abs(s) > 1e-12:
            cot_bound += abs(math.cos(th.real) / s)
    depth = (cot_bound + V.l1_norm() + 2.0 / R) ** 2 + 1.0
    e_min = -4.0 * depth

    # grid: uniform in sqrt(E) above 0 (zeros are ~ pi/R apart there),
    # uniform in E below 0
    pts = []
    n_neg = max(8, int(8 * math.sqrt(abs(e_min)) * R / math.pi) + 1)
    for i in range(n_neg):
        pts.append(e_min + (0.0 - e_min) * i / n_neg)
    n_pos = max(16, int(8 * s_top * R / math.pi) + 1)
    for i in range(n_pos + 1):
        s = s_top * i / n_pos
        pts.append(s * s)
    vals = [f_scan(p)[0].real for p in pts]

    roots = []
    for i in range(len(pts) - 1):
        a, b, fa, fb = pts[i], pts[i + 1], vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(_newton_polish(f, complex(a), True).real)
            continue
        if fa * fb < 0.0:
            for _ in range(10):
                m = 0.5 * (a + b)
                fm = f_scan(m)[0].real
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            lam = _newton_polish(f, complex(0.5 * (a + b)), True).real
            roots.append(lam)
    if vals[-1] == 0.0:
        roots.append(_newton_polish(f, complex(pts[-1]), True).real)

    # dedupe near-coincident refinements; keep those with a small residual
    cleaned = [lam for lam, _ in _merge_close((lam, 1) for lam in roots)
               if _is_root(f, lam, R, pair, max(tol, 1e-10))]
    found = cleaned[:n_max]
    if len(found) < n_max:
        raise SearchFailureError(
            f"found only {len(found)} of {n_max} eigenvalues in "
            f"[{e_min:.3g}, {s_top**2:.3g}]")

    if verify_counts:
        lo, hi = found[0], found[-1]
        margin = max(1.0, 0.25 * (math.pi / R) ** 2)
        rect = (lo - margin, hi + margin, -1.0, 1.0)
        n_rect = count_zeros_rectangle(V, R, pair, rect, tol)
        if n_rect != len(found):
            raise SearchFailureError(
                f"bracket count {len(found)} disagrees with argument-"
                f"principle count {n_rect} on {rect}")

    res = tuple(_residual(f, lam) for lam in found)
    return SpectrumResult(tuple(complex(lam) for lam in found), res,
                          window=f"real line [{e_min:.6g}, {s_top**2:.6g}]",
                          multiplicities=tuple(1 for _ in found))


def _edge_pieces(a: complex, b: complex, R: float) -> int:
    """Initial subdivision of a contour edge: enough pieces that no piece
    can straddle several zeros (zeros of Delta sit near ((n pi/R))^2 on the
    real direction; density in E is ~ R/(2 pi sqrt(E)))."""
    s0 = math.sqrt(max(a.real, 0.0))
    s1 = math.sqrt(max(b.real, 0.0))
    expected = abs(s1 - s0) * R / math.pi + abs(b.imag - a.imag) * 0.25
    return max(8, 4 * (int(expected) + 1))


def _phase_winding(f, corners, R, pair, floor):
    """Total winding of f along the closed polygon.

    Each edge starts from a zero-density-aware subdivision; pieces are then
    bisected until the endpoint phase difference is < pi/2 AND the magnitude
    ratio is moderate.  Phase aliasing (a full turn hiding inside one piece)
    requires sailing close past a zero, where the magnitude dips, so the
    ratio guard catches it.
    """
    total = 0.0
    for a, b in zip(corners, corners[1:] + corners[:1]):
        vals = {}

        def val(t):
            hit = vals.get(t)
            if hit is None:
                z = a + (b - a) * t
                hit = f(z)
                if _is_root(f, z, R, pair, floor):
                    raise ContourError(
                        f"determinant vanishes near contour point {z}",
                        suggested_inflation=1.5)
                vals[t] = hit
            return hit

        n0 = _edge_pieces(a, b, R)
        stack = [(i / n0, (i + 1) / n0) for i in reversed(range(n0))]
        while stack:
            t0, t1 = stack.pop()
            (w0, g0), (w1, g1) = val(t0), val(t1)
            dphi = cmath.phase(w1 / w0)
            # |Delta(t1)/Delta(t0)| in log space: the scales differ freely
            log_ratio = math.log(abs(w1) / abs(w0)) + g1 - g0
            if abs(dphi) < 0.5 * math.pi and abs(log_ratio) < math.log(4.0):
                total += dphi
                continue
            if t1 - t0 < 1e-9:
                raise ContourError(
                    f"phase jump of Delta unresolved near "
                    f"{a + (b - a) * 0.5 * (t0 + t1)}; a zero may sit on the "
                    f"contour", suggested_inflation=1.5)
            tm = 0.5 * (t0 + t1)
            stack.append((tm, t1))
            stack.append((t0, tm))
    return total / (2.0 * math.pi)


def _count_box(f, box, R: float, pair: AnglePair,
               scan_tol: float = 1e-6) -> int:
    re0, re1, im0, im1 = box
    # a determinant sampled at scan_tol carries O(scan_tol) relative error:
    # values below ~30 scan_tol * scale cannot be told from a contour hit
    floor = max(1e-12, 30.0 * scan_tol)
    corners = [complex(re0, im0), complex(re1, im0),
               complex(re1, im1), complex(re0, im1)]
    w = _phase_winding(f, corners, R, pair, floor)
    n = round(w)
    if abs(w - n) > 0.1:
        raise ContourError(f"winding number {w} is not near an integer",
                           suggested_inflation=1.2)
    return int(n)


def count_zeros_rectangle(V: PotentialSpec, R: float, pair: AnglePair, rect,
                          tol: float = DEFAULT_TOL) -> int:
    """Argument-principle zero count in rect = (re0, re1, im0, im1)."""
    _check_R(V, R)
    _check_tol(tol)
    scan = max(tol, 1e-6)
    return _count_box(_delta_fn(V, pair, scan), tuple(rect), R, pair, scan)


def eig_rectangle(V: PotentialSpec, R: float, pair: AnglePair, rect,
                  tol: float = DEFAULT_TOL) -> SpectrumResult:
    """All eigenvalues inside a complex rectangle (re0, re1, im0, im1)."""
    re0, re1, im0, im1 = (float(v) for v in rect)
    if not (re0 < re1 and im0 < im1):
        raise DomainError("rectangle must have positive extent")
    _check_R(V, R)
    _check_tol(tol)
    f = _delta_fn(V, pair, tol)
    scan_tol = max(tol, 1e-6)
    f_scan = _delta_fn(V, pair, scan_tol)
    min_size = 1e-8 * max(1.0, abs(re0), abs(re1))

    found = []  # (lambda, count in the isolating cell)

    def recurse(box, n):
        a0, a1, b0, b1 = box
        if n == 0:
            return
        small = max(a1 - a0, b1 - b0) < min_size
        if n == 1 or small:
            center = complex(0.5 * (a0 + a1), 0.5 * (b0 + b1))
            lam = _newton_polish(f, center, False)
            inside = (a0 - min_size <= lam.real <= a1 + min_size
                      and b0 - min_size <= lam.imag <= b1 + min_size)
            if inside or small:
                # a cell below min_size is the localization itself
                found.append((lam if inside else center, n))
                return
            # Newton left a one-zero cell: quadrisect it and start closer
        # split midlines may themselves hit a zero: jitter until clean
        for shift in (0.0, 0.0173, -0.0231, 0.0517, -0.0719):
            am = 0.5 * (a0 + a1) + shift * (a1 - a0)
            bm = 0.5 * (b0 + b1) + shift * (b1 - b0)
            subs = ((a0, am, b0, bm), (am, a1, b0, bm),
                    (a0, am, bm, b1), (am, a1, bm, b1))
            try:
                counts = [_count_box(f_scan, s, R, pair, scan_tol) for s in subs]
            except ContourError:
                continue
            if sum(counts) != n:
                continue
            for s, c in zip(subs, counts):
                recurse(s, c)
            return
        raise ContourError(
            f"could not quadrisect {box} without hitting a zero of Delta",
            suggested_inflation=1.3)

    recurse((re0, re1, im0, im1),
            _count_box(f_scan, (re0, re1, im0, im1), R, pair, scan_tol))
    merged = _merge_close(found)
    eigs = tuple(lam for lam, _ in merged)
    return SpectrumResult(eigs, tuple(_residual(f, lam) for lam in eigs),
                          window=f"rectangle {rect}",
                          multiplicities=tuple(n for _, n in merged))
