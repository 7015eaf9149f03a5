"""Eigenvalue localization as zeros of the characteristic determinant.

All searches run on the mantissa of Delta = W(~u+, ~u-), which needs ~u-
alone, ~u+ having unit data at R: Delta = cos thetaR ~u-(R) - sin thetaR
~u-'(R).  The mantissa is a positive factor e^-log_scale away from Delta, so
it has the same zeros, the same phase and, on the real axis, the same sign,
and it stays finite where Delta itself would overflow.

Self-adjoint case: the Prufer angle theta(R; E) of ~u- counts the N(E)
eigenvalues below E (Sturm oscillation), so eigenvalue k is bracketed by
its index, N = k and k + 1 at the ends, and found on the sign of Delta.
Non-self-adjoint case: the argument principle counts zeros inside a
rectangle (adaptive phase tracking of Delta along the contour), rectangles
are quadrisected until each holds at most one zero, and Newton with a
finite-difference derivative polishes each root.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

from .errors import ContourError, DomainError, SearchFailureError
from .odecore import DEFAULT_TOL, _check_R, _check_tol, _propagate_vec
from .potential import PotentialSpec, is_near_eigenvalue, unscale
from .traces import AnglePair


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: tuple
    residuals: tuple
    window: str
    multiplicities: tuple = ()

    def __len__(self):
        return len(self.eigenvalues)


def _delta_fn(V: PotentialSpec, pair: AnglePair, tol: float):
    """z -> (mantissa, log scale) of Delta(z; theta0, thetaR), memoized:
    cos thetaR ~u-(R) - sin thetaR ~u-'(R), from one sweep of ~u- alone."""
    y0 = (-cmath.sin(pair.theta0), cmath.cos(pair.theta0))
    cR, sR = cmath.cos(pair.thetaR), cmath.sin(pair.thetaR)
    cache = {}

    def f(z):
        hit = cache.get(z)
        if hit is None:
            (u, du), log_scale = _propagate_vec(V, z, 0.0, y0, V.R, tol)
            hit = cache[z] = (cR * u - sR * du, log_scale)
        return hit

    return f


def _newton_polish(f, z: complex):
    """Newton with central-difference derivative; falls back to the last
    iterate when the step stagnates."""
    for _ in range(60):
        h = 1e-6 * max(1.0, abs(z))
        df = (f(z + h)[0] - f(z - h)[0]) / (2.0 * h)
        if df == 0.0:
            break
        step = f(z)[0] / df
        z = z - step
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


def _prufer_angle(V: PotentialSpec, E: float, theta0: float,
                  tol: float) -> float:
    """theta(R; E) = atan2(u, u') of the unit-start ~u-, from theta(0) =
    -theta0 mod pi.  Each piece of V is cut so that k cut <= pi/2 with
    k^2 = max(E - min V, 1): atan2(k u, u') then moves by at most pi/2 per
    cut and theta never falls back past a multiple of pi, so the principal
    difference of consecutive atan2 values is the true increment."""
    th = -theta0 % math.pi
    y = (math.sin(th), math.cos(th))
    for a, b, va, vb in V.pieces:
        k = math.sqrt(max(E - min(va.real, vb.real), 1.0))
        n = math.ceil(k * (b - a) / (0.5 * math.pi))
        xs = [a + (b - a) * i / n for i in range(n)] + [b]
        for x0, x1 in zip(xs, xs[1:]):
            (u, du), _ = _propagate_vec(V, E, x0, y, x1, tol)
            th += math.remainder(math.atan2(u.real, du.real) - th, 2 * math.pi)
            s = max(abs(u), abs(du))
            y = (u.real / s, du.real / s)
    return th


def eig_selfadjoint(V: PotentialSpec, R: float, pair: AnglePair, n_max: int,
                    tol: float = DEFAULT_TOL,
                    verify_counts: bool = False) -> SpectrumResult:
    """Lowest n_max eigenvalues of the self-adjoint realization, each
    isolated by its index in the oscillation count N(E)."""
    if not (V.is_real and pair.is_real):
        raise DomainError("eig_selfadjoint needs real V and real angles")
    if not hasattr(n_max, "__index__") or n_max < 1:  # an int, as range takes
        raise DomainError("n_max must be a positive integer")
    _check_R(V, R)
    _check_tol(tol)
    # N(E) and the Illinois pass only need signs: run them loose
    scan = max(tol, 1e-6)
    f = _delta_fn(V, pair, tol)
    f_scan = f if scan == tol else _delta_fn(V, pair, scan)
    beta = pair.thetaR.real % math.pi or math.pi
    angle = {}

    def count(E):  # N(E): the number of eigenvalues below E
        if E not in angle:
            angle[E] = _prufer_angle(V, E, pair.theta0.real, scan)
        return max(0, math.ceil((angle[E] - beta) / math.pi))

    def aim(a, b, k):
        # theta(R; E) = beta + k pi, with theta near linear in sqrt(E - lo)
        t = (beta + k * math.pi - angle[a]) / max(angle[b] - angle[a], 1e-300)
        m = lo + ((1.0 - t) * math.sqrt(a - lo) + t * math.sqrt(b - lo)) ** 2
        return m if a < m < b else 0.5 * (a + b)

    v = [w.real for p in V.pieces for w in p[2:]]
    lo, hi = min(v) - 1.0, max(v) + ((n_max + 0.5) * math.pi / R) ** 2
    for _ in range(64):  # widen by bounded doubling
        if count(lo) == 0 and count(hi) >= n_max:
            break
        lo, hi = (2.0 * lo - min(v), hi) if count(lo) else (lo, 2.0 * hi - lo)
    else:
        raise SearchFailureError(f"no window [{lo:.6g}, {hi:.6g}] with N(E_lo)"
                                 f" = 0 and N(E_hi) >= {n_max}")
    found, pts = [], [lo, hi]
    for k in range(n_max):
        # split a < b, N(a) <= k < N(b), until N(a) = k and N(b) = k + 1
        for step in range(200):
            a, b = next(p for p in zip(pts, pts[1:]) if count(p[1]) > k)
            if count(a) == k and count(b) == k + 1:
                break
            side = k - 0.5 if count(a) < k else k + 0.5
            bisect.insort(pts, 0.5 * (a + b) if step % 2 else aim(a, b, side))
        else:
            raise SearchFailureError(f"N(E) did not isolate eigenvalue {k} in "
                                     f"[{a:.17g}, {b:.17g}]")
        found.append(_root_in(f_scan, f, a, b, aim(a, b, k), scan, tol, k))
    if verify_counts:  # the independent argument-principle cross-check
        m = max(1.0, 0.25 * (math.pi / R) ** 2)
        rect = (found[0] - m, found[-1] + m, -1.0, 1.0)
        if (n_rect := count_zeros_rectangle(V, R, pair, rect, tol)) != n_max:
            raise SearchFailureError(f"argument-principle count {n_rect} on "
                                     f"{rect} disagrees with N(E) = {n_max}")
    return SpectrumResult(tuple(complex(lam) for lam in found),
                          tuple(abs(unscale(*f(lam), lam)) for lam in found),
                          f"real line [{lo:.6g}, {hi:.6g}], N(E_lo)=0, "
                          f"N(E_hi)={count(hi)}", (1,) * n_max)


def _root_in(f_scan, f, a: float, b: float, x: float, scan: float,
             tol: float, k: int) -> float:
    """The zero of Delta in the bracket (a, b) of eigenvalue k: Illinois at
    scan from x, then secant steps at tol kept in [a, b]."""
    (xa, ga), (xb, gb) = (a, f_scan(a)[0].real), (b, f_scan(b)[0].real)
    if ga * gb > 0.0:
        raise SearchFailureError(f"Delta keeps its sign on the bracket "
                                 f"[{a:.17g}, {b:.17g}] of eigenvalue {k}")
    prev, side = a, 0
    for _ in range(100):
        gx = f_scan(x)[0].real
        if gx == 0.0 or abs(x - prev) <= scan * max(1.0, abs(x)):
            break
        if (gx > 0.0) == (gb > 0.0):
            xb, gb, ga, side = x, gx, ga * (0.5 if side > 0 else 1.0), 1
        else:
            xa, ga, gb, side = x, gx, gb * (0.5 if side < 0 else 1.0), -1
        prev, x = x, (xa * gb - xb * ga) / (gb - ga)
    else:
        raise SearchFailureError(f"Illinois did not converge for eigenvalue "
                                 f"{k} in [{a:.17g}, {b:.17g}]")
    # the last evaluated iterate is returned, so its residual is reported
    x0 = prev if prev != x else min(b, x + scan * max(1.0, abs(x)))
    g0, g1 = f(x0)[0].real, f(x)[0].real
    for _ in range(3):
        x2 = min(max(x - g1 * (x - x0) / (g1 - g0), a), b) if g1 != g0 else x
        if abs(x2 - x) <= 0.1 * tol * max(1.0, abs(x2)):
            break
        x0, g0, x, g1 = x, g1, x2, f(x2)[0].real
    return x


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
                if is_near_eigenvalue(hit[0], z, R, pair.theta0,
                                      pair.thetaR, floor, hit[1]):
                    raise ContourError(
                        f"determinant vanishes near contour point {z}",
                        suggested_inflation=1.5)
                vals[t] = hit
            return hit

        # enough pieces that none straddles two zeros (~pi/R apart in sqrt E)
        s0, s1 = math.sqrt(max(a.real, 0.0)), math.sqrt(max(b.real, 0.0))
        expected = abs(s1 - s0) * R / math.pi + abs(b.imag - a.imag) * 0.25
        n0 = max(8, 4 * (int(expected) + 1))
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
            stack += [(tm, t1), (t0, tm)]
    return total / (2.0 * math.pi)


def _count_box(f, box, R: float, pair: AnglePair, scan_tol: float) -> int:
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


def _check_rect(rect) -> tuple:
    """rect = (re0, re1, im0, im1) as floats, or DomainError unless its
    corners are finite with re0 < re1 and im0 < im1 (NaN fails too)."""
    re0, re1, im0, im1 = (float(v) for v in rect)
    if not (-math.inf < re0 < re1 < math.inf
            and -math.inf < im0 < im1 < math.inf):
        raise DomainError("rectangle must be finite with positive extent")
    return re0, re1, im0, im1


def count_zeros_rectangle(V: PotentialSpec, R: float, pair: AnglePair, rect,
                          tol: float = DEFAULT_TOL) -> int:
    """Argument-principle zero count in rect = (re0, re1, im0, im1)."""
    rect = _check_rect(rect)
    _check_R(V, R)
    _check_tol(tol)
    scan = max(tol, 1e-6)
    return _count_box(_delta_fn(V, pair, scan), rect, R, pair, scan)


def eig_rectangle(V: PotentialSpec, R: float, pair: AnglePair, rect,
                  tol: float = DEFAULT_TOL) -> SpectrumResult:
    """All eigenvalues inside a complex rectangle (re0, re1, im0, im1)."""
    re0, re1, im0, im1 = _check_rect(rect)
    _check_R(V, R)
    _check_tol(tol)
    scan_tol = max(tol, 1e-6)
    f = _delta_fn(V, pair, tol)
    f_scan = f if scan_tol == tol else _delta_fn(V, pair, scan_tol)
    min_size = 1e-8 * max(1.0, abs(re0), abs(re1))

    found = []  # (lambda, count in the isolating cell)

    def recurse(box, n):
        a0, a1, b0, b1 = box
        if n == 0:
            return
        small = max(a1 - a0, b1 - b0) < min_size
        if n == 1 or small:
            center = complex(0.5 * (a0 + a1), 0.5 * (b0 + b1))
            lam = _newton_polish(f, center)
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
    return SpectrumResult(eigs,
                          tuple(abs(unscale(*f(lam), lam)) for lam in eigs),
                          window=f"rectangle {rect}",
                          multiplicities=tuple(n for _, n in merged))
