"""The cross-identity verification suite.

Every structural statement about the boundary data maps is a testable
matrix equation; this module evaluates each family of identities on a
problem configuration (potential, interval, boundary angles) with fixed
seeded draws and reports one row per family: max residual vs threshold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bdmap import (asymptotic_reference, bdmap_general, bdmap_robin,
                    herglotz_imag, m_functions_from_fs)
from .errors import EigenvalueHitError, NumericalError
from .lft import block_relations_residual, connector, lft_residuals
from .odecore import DEFAULT_TOL, solution
from .potential import PotentialSpec
from .resolvent import green_evaluator, krein_kernel, lambda_times_s
from .traces import (EYE2, AnglePair, AngleQuad, diag_sin, mat_det,
                     mat_max_abs, mat_mul, mat_sub, quad)
from .weyl import green_link_check, wt_matrix

GROUP_LAW_THRESHOLD = 1e-9
SYMMETRY_THRESHOLD = 1e-9
RESOLVENT_REP_THRESHOLD = 1e-8
LFT_THRESHOLD = 1e-8
CONNECTOR_THRESHOLD = 1e-12
KREIN_THRESHOLD = 1e-7
DETM_THRESHOLD = 1e-10
GREEN_LINK_THRESHOLD = 1e-6
ASYMPTOTIC_T = 1e4
ASYMPTOTIC_THRESHOLD = 0.05


@dataclass(frozen=True)
class IdentityResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    note: str = ""


def _rand_quads(rng, n, complex_angles):
    quads = []
    for _ in range(n):
        a = [rng.uniform(0.25, 2 * math.pi - 0.25) for _ in range(4)]
        if complex_angles:
            a = [x + 1j * rng.uniform(-0.3, 0.3) for x in a]
        quads.append(quad(*a))
    return quads


def _safe_z(V, R, rng, tol):
    """A z comfortably off every spectrum drawn here (Im z >= 0.6)."""
    for _ in range(10):
        z = complex(rng.uniform(-3.0, 6.0), rng.uniform(0.6, 1.8))
        try:
            solution(V, z, tol)
            return z
        except NumericalError:
            continue
    return 0.5 + 1.0j


def check_group_laws(V, R, rng, tol, n=4) -> IdentityResult:
    worst = 0.0
    for qa in _rand_quads(rng, n, True):
        z = _safe_z(V, R, rng, tol)
        try:
            base, mid = qa.base, qa.primed
            top = AnglePair(qa.base.theta0 + 0.9, qa.base.thetaR + 2.2)
            l_id = bdmap_general(V, R, AngleQuad(base, base), z, tol).entries
            l1 = bdmap_general(V, R, AngleQuad(base, mid), z, tol).entries
            l2 = bdmap_general(V, R, AngleQuad(mid, top), z, tol).entries
            l13 = bdmap_general(V, R, AngleQuad(base, top), z, tol).entries
            linv = bdmap_general(V, R, AngleQuad(mid, base), z, tol).entries
        except EigenvalueHitError:
            continue
        worst = max(worst, mat_max_abs(mat_sub(l_id, EYE2)))
        scale = max(1.0, mat_max_abs(l13))
        worst = max(worst, mat_max_abs(mat_sub(mat_mul(l2, l1), l13)) / scale)
        worst = max(worst, mat_max_abs(mat_sub(mat_mul(linv, l1), EYE2)))
    return IdentityResult("group_laws", worst,
                          GROUP_LAW_THRESHOLD, worst < GROUP_LAW_THRESHOLD)


def check_symmetry_diagonal(V, R, pair, rng, tol, n=3) -> IdentityResult:
    worst = 0.0
    pairs = [pair] + [AnglePair(rng.uniform(0, 2 * math.pi),
                                rng.uniform(0, 2 * math.pi))
                      for _ in range(n - 1)]
    for p in pairs:
        z = _safe_z(V, R, rng, tol)
        try:
            fs = solution(V, z, tol).fs
            lam = bdmap_robin(V, R, p, z, tol).entries
            mp, mm = m_functions_from_fs(fs, R, p)
        except EigenvalueHitError:
            continue
        worst = max(worst, abs(lam[0][1] - lam[1][0]),
                    abs(lam[0][0] - mp), abs(lam[1][1] + mm))
    return IdentityResult("map_symmetry", worst, SYMMETRY_THRESHOLD,
                          worst < SYMMETRY_THRESHOLD)


def check_resolvent_representation(V, R, rng, tol, n=3) -> IdentityResult:
    worst = 0.0
    for qa in _rand_quads(rng, n, True):
        z = _safe_z(V, R, rng, tol)
        try:
            ls_res = lambda_times_s(V, R, qa, z, tol)
            lam = bdmap_general(V, R, qa, z, tol).entries
        except EigenvalueHitError:
            continue
        d0, dR = qa.diffs
        ls = mat_mul(lam, diag_sin(d0, dR))
        worst = max(worst, mat_max_abs(mat_sub(ls_res, ls)))
    return IdentityResult("trace_representation", worst,
                          RESOLVENT_REP_THRESHOLD, worst < RESOLVENT_REP_THRESHOLD)


def check_lft(V, R, rng, tol, n=3) -> IdentityResult:
    worst = 0.0
    for _ in range(n):
        qa, qb = _rand_quads(rng, 2, False)
        z = _safe_z(V, R, rng, tol)
        try:
            res = lft_residuals(V, R, qa, qb, z, tol)
        except NumericalError:
            continue
        worst = max(worst, max(res.values()))
    return IdentityResult("lft_between_maps", worst, LFT_THRESHOLD,
                          worst < LFT_THRESHOLD)


def check_connector_membership(rng, n=6) -> IdentityResult:
    worst = 0.0
    for _ in range(n):
        qa, qb = _rand_quads(rng, 2, False)
        try:
            A = connector(qa, qb)
        except NumericalError:
            continue
        worst = max(worst, block_relations_residual(A))
    return IdentityResult("connector_membership", worst,
                          CONNECTOR_THRESHOLD, worst < CONNECTOR_THRESHOLD)


def _min_eigenvalue(h: tuple) -> float:
    """The smallest eigenvalue of a Hermitian 2x2.  For a positive trace
    it is det / lam_max: mid - root cancels where it is near zero."""
    (a, b), (_, d) = h
    mid = 0.5 * (a.real + d.real)
    root = math.hypot(0.5 * (a.real - d.real), abs(b))
    if mid > 0.0:
        return mat_det(h).real / (mid + root)
    return mid - root


def check_herglotz(V, R, rng, tol, n_quads=4, n_z=5) -> IdentityResult:
    if not V.is_real:
        return IdentityResult("herglotz_positivity", 0.0, 0.0, True,
                              note="skipped: complex potential")
    min_eig = math.inf
    for _ in range(n_quads):
        qa = quad(*(rng.uniform(0.3, 2 * math.pi - 0.3) for _ in range(4)))
        d0, dR = qa.diffs
        if abs(math.sin(d0.real)) < 0.2 or abs(math.sin(dR.real)) < 0.2:
            continue
        for _ in range(n_z):
            z = complex(rng.uniform(-2.0, 6.0), rng.uniform(0.1, 3.0))
            try:
                im = herglotz_imag(V, R, qa, z, tol)
            except EigenvalueHitError:
                continue
            min_eig = min(min_eig, _min_eigenvalue(im))
    if math.isinf(min_eig):
        return IdentityResult("herglotz_positivity", 0.0, 0.0,
                              True, note="skipped: no admissible draws")
    passed = min_eig > 0.0
    return IdentityResult("herglotz_positivity",
                          min_eig, 0.0, passed,
                          note="metric is min eigenvalue of Im(Lambda S); must be > 0")


def check_krein(V, R, rng, tol, grid_n=5) -> IdentityResult:
    worst = 0.0
    xs = [R * (i + 0.5) / grid_n for i in range(grid_n)]
    cases = [(AnglePair(0.35, 0.75), AnglePair(1.5, 2.4)),       # both change
             (AnglePair(0.35, 0.75), AnglePair(0.35, 2.4)),      # thetaR only
             (AnglePair(0.35, 0.75), AnglePair(1.5, 0.75))]      # theta0 only
    for base, primed in cases:
        z = _safe_z(V, R, rng, tol)
        try:
            g_base = green_evaluator(V, R, base, z, tol)
            g_primed = green_evaluator(V, R, primed, z, tol)
            ker = krein_kernel(V, R, base, primed, z, tol)
        except EigenvalueHitError:
            continue
        for x in xs:
            for xp in xs:
                lhs = g_primed(x, xp)
                rhs = g_base(x, xp) - ker(x, xp)
                worst = max(worst, abs(lhs - rhs))
    return IdentityResult("krein_resolvent", worst, KREIN_THRESHOLD,
                          worst < KREIN_THRESHOLD)


def check_wt_and_green_links(V, R, pair, rng, tol, n=3) -> IdentityResult:
    worst_det = 0.0
    for _ in range(n):
        z = complex(rng.uniform(-2.0, 5.0), rng.uniform(0.5, 2.0))
        x0 = rng.uniform(0.2 * R, 0.8 * R)
        alpha = rng.uniform(0.0, math.pi - 1e-6)
        try:
            M = wt_matrix(V, R, z, x0, pair, alpha, tol)
        except NumericalError:
            continue
        worst_det = max(worst_det, abs(mat_det(M.entries) + 0.25))
    z = _safe_z(V, R, rng, tol)
    links = green_link_check(V, R, pair, z, tol)
    worst_link = max(links.values()) if links else 0.0
    ok = worst_det < DETM_THRESHOLD and worst_link < GREEN_LINK_THRESHOLD
    return IdentityResult("green_function_links",
                          max(worst_det, worst_link),
                          max(DETM_THRESHOLD, GREEN_LINK_THRESHOLD), ok,
                          note=f"det residual {worst_det:.2e}, link residual {worst_link:.2e}")


def check_asymptotics(V, R, pair, tol) -> IdentityResult:
    # cap t so the fundamental system stays inside double range
    t = min(ASYMPTOTIC_T, (300.0 / (0.7072 * R)) ** 2)
    threshold = ASYMPTOTIC_THRESHOLD * max(1.0, math.sqrt(ASYMPTOTIC_T / t))
    c0 = pair.theta0 if abs(math.sin(pair.theta0.real)) > 0.2 else math.pi / 3
    cR = pair.thetaR if abs(math.sin(pair.thetaR.real)) > 0.2 else math.pi / 4
    worst = 0.0
    for p in (AnglePair(0, 0), AnglePair(0, cR), AnglePair(c0, 0),
              AnglePair(c0, cR)):
        lam = bdmap_robin(V, R, p, 1j * t, tol).entries
        ref = asymptotic_reference(p, 1j * t, R)
        worst = max(worst, abs(lam[0][0] / ref[0][0] - 1.0),
                    abs(lam[1][1] / ref[1][1] - 1.0))
    return IdentityResult("large_z_asymptotics", worst, threshold,
                          worst < threshold, note=f"probed at z = {t:g}i")


def run_suite(V: PotentialSpec, R: float, pair: AnglePair,
              tol: float = DEFAULT_TOL,
              seed: int = 2024) -> list[IdentityResult]:
    """Run every identity family; deterministic for a fixed seed."""
    rng = random.Random(seed)
    results = [
        check_group_laws(V, R, rng, tol),
        check_symmetry_diagonal(V, R, pair, rng, tol),
        check_resolvent_representation(V, R, rng, tol),
        check_lft(V, R, rng, tol),
        check_connector_membership(rng),
        check_herglotz(V, R, rng, tol),
        check_krein(V, R, rng, tol),
        check_wt_and_green_links(V, R, pair, rng, tol),
        check_asymptotics(V, R, pair, tol),
    ]
    return results


def format_table(results) -> str:
    name_w = max(len(r.name) for r in results) + 2
    lines = [f"{'identity':<{name_w}}{'status':<8}{'residual':<14}threshold"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{name_w}}{status:<8}{r.residual:<14.3e}{r.threshold:.3e}"
        if r.note:
            line += f"  ({r.note})"
        lines.append(line)
    return "\n".join(lines)
