"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its measured figure.

Expected values come from independent references: the mpmath trig and
Airy propagators of perfbench/oracles.py (which imports no bdm) with the
maps, Green's functions and M_alpha built from them by definition, and
frozen constants computed from sinh/cosh expressions.
"""

import math
import time

import numpy as np

from bdm.bdmap import (asymptotic_reference, bdmap_general, bdmap_robin,
                       herglotz_imag, m_minus, m_plus, measure_point_mass)
from bdm.errors import NumericalError
from bdm.lft import block_relations_residual, connector, lft_residuals
from bdm.odecore import fundamental_system
from bdm.potential import PotentialSpec
from bdm.resolvent import green_evaluator, krein_kernel, lambda_times_s
from bdm.spectrum import count_zeros_rectangle, eig_selfadjoint
from bdm.traces import AnglePair, AngleQuad, diag_sin, quad
from bdm.verify import run_suite
from bdm.weyl import green_link_check, wt_matrix

R = math.pi
VFREE = PotentialSpec.zero(R)
VREAL = PotentialSpec.sampled([0.0, 1.0, 2.2, R], [0.3, -1.0, 0.8, 0.1], R)
VCPLX = PotentialSpec.sampled([0.0, 1.0, 2.2, R],
                              [0.3 + 0.2j, -1.0 + 0.5j, 0.8, 0.1 - 0.4j], R)
VPIECE = PotentialSpec.piecewise_constant([1.1, 2.0], [0.8, -0.5, 0.4], R)


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_free_oracle_equivalence(oracles):
    t_start = time.time()
    pairs = [AnglePair(0.0, 0.0), AnglePair(math.pi / 3, math.pi / 4),
             AnglePair(1.2, 2.8), AnglePair(2.0, 5.5), AnglePair(0.0, 1.1)]
    zs = [-1.0, 1j, 2.0 + 1.3j, -0.7 + 0.4j, 3.6 + 2.0j]
    xs = [0.3, 1.0, 1.6, 2.3, 2.9]
    pieces = oracles.pieces_of("zero", R)
    worst = 0.0
    for p in pairs:
        for z in zs:
            robin = AngleQuad(p, p.robin_primed())
            general = AngleQuad(p, AnglePair(p.theta0 + 0.9, p.thetaR + 2.2))
            refs = [oracles.bdmap_ref(pieces, R, (q.base.theta0, q.base.thetaR,
                                                  q.primed.theta0,
                                                  q.primed.thetaR), z)
                    for q in (robin, general)]
            for q, oracle in zip((robin, general), refs):
                lam = bdmap_general(VFREE, R, q, z).matrix
                scale = max(1.0, float(np.max(np.abs(oracle))))
                worst = max(worst, float(np.max(np.abs(lam - oracle))) / scale)
            # the Robin map's diagonal is (m+, -m-)
            mp_o, mm_o = refs[0][0, 0], -refs[0][1, 1]
            mp = m_plus(VFREE, R, p.theta0, p.thetaR, z)
            mm = m_minus(VFREE, R, p.theta0, p.thetaR, z)
            worst = max(worst, abs(mp - mp_o) / max(1.0, abs(mp_o)),
                        abs(mm - mm_o) / max(1.0, abs(mm_o)))
            gk = green_evaluator(VFREE, R, p, z)
            ref = oracles.Interior(pieces, R, z, p.theta0, p.thetaR, xs)
            for x, xp in zip(xs, reversed(xs)):
                g_o = ref.green(x, xp)
                worst = max(worst, abs(gk(x, xp) - g_o) / max(1.0, abs(g_o)))
    elapsed = time.time() - t_start
    ok = worst < 1e-8 and elapsed < 30.0
    _report("criterion 1 (V=0 oracle equivalence)", ok,
            f"max rel residual {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_2_piecewise_transfer_oracle(oracles):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        cuts = np.sort(rng.uniform(0.4, R - 0.4, 2))
        vals = rng.uniform(-5, 5, 3) + 1j * rng.uniform(-3, 3, 3)
        V = PotentialSpec.piecewise_constant(cuts, vals, R)
        z = complex(rng.uniform(-6, 6), rng.uniform(-3, 3))
        fs = fundamental_system(V, z, R, tol=1e-12)
        M = np.array([[fs.theta, fs.phi], [fs.dtheta, fs.dphi]])
        pieces = oracles.pieces_of("piecewise_constant", R, cuts, vals)
        with oracles.mp.workdps(oracles.dps_for(pieces, z)):
            T = oracles.transfer_mp(pieces, z, 0.0, R)
            T = np.array([[complex(T[i, j]) for j in (0, 1)] for i in (0, 1)])
        worst = max(worst, float(np.max(np.abs(M - T)) / np.max(np.abs(T))))
    ok = worst < 1e-9
    _report("criterion 2 (piecewise-constant transfer oracle)", ok,
            f"max rel residual {worst:.3e} over 50 trials")
    assert ok


def test_criterion_3_group_laws():
    rng = np.random.default_rng(202)
    worst = 0.0
    done = 0
    while done < 100:
        a = rng.uniform(0.2, 6.0, 6) + 1j * rng.uniform(-0.3, 0.3, 6)
        base, mid, top = (AnglePair(a[0], a[1]), AnglePair(a[2], a[3]),
                          AnglePair(a[4], a[5]))
        z = complex(rng.uniform(-2, 4), rng.uniform(0.6, 1.6))
        try:
            l_id = bdmap_general(VCPLX, R, AngleQuad(base, base), z).matrix
            l1 = bdmap_general(VCPLX, R, AngleQuad(base, mid), z).matrix
            l2 = bdmap_general(VCPLX, R, AngleQuad(mid, top), z).matrix
            l13 = bdmap_general(VCPLX, R, AngleQuad(base, top), z).matrix
            linv = bdmap_general(VCPLX, R, AngleQuad(mid, base), z).matrix
        except NumericalError:
            continue
        done += 1
        scale = max(1.0, float(np.max(np.abs(l13))))
        worst = max(worst,
                    float(np.max(np.abs(l_id - np.eye(2)))),
                    float(np.max(np.abs(l2 @ l1 - l13))) / scale,
                    float(np.max(np.abs(linv @ l1 - np.eye(2)))))
    ok = worst < 1e-9
    _report("criterion 3 (group laws, 100 complex quads)", ok,
            f"max residual {worst:.3e}")
    assert ok


def test_criterion_4_symmetry_and_diagonal():
    rng = np.random.default_rng(303)
    worst = 0.0
    for V in (VFREE, VREAL, VCPLX):
        for _ in range(10):
            p = AnglePair(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            z = complex(rng.uniform(-2, 4), rng.uniform(0.5, 1.8))
            try:
                lam = bdmap_robin(V, R, p, z).matrix
                mp = m_plus(V, R, p.theta0, p.thetaR, z)
                mm = m_minus(V, R, p.theta0, p.thetaR, z)
            except NumericalError:
                continue
            scale = max(1.0, float(np.max(np.abs(lam))))
            worst = max(worst, abs(lam[0, 1] - lam[1, 0]) / scale,
                        abs(lam[0, 0] - mp) / scale,
                        abs(lam[1, 1] + mm) / scale)
    ok = worst < 1e-9
    _report("criterion 4 (off-diagonal equality, diagonal = (m+, -m-))", ok,
            f"max residual {worst:.3e}")
    assert ok


def test_criterion_5_resolvent_representation():
    rng = np.random.default_rng(404)
    worst = 0.0
    for V in (VREAL, VCPLX):
        for _ in range(10):
            a = rng.uniform(0.2, 6.0, 4) + 1j * rng.uniform(-0.3, 0.3, 4)
            q = quad(*a)
            z = complex(rng.uniform(-2, 3), rng.uniform(0.6, 1.6))
            try:
                ls = lambda_times_s(V, R, q, z)
                lam = bdmap_general(V, R, q, z).matrix
            except NumericalError:
                continue
            d0, dR = q.diffs
            expect = lam @ diag_sin(d0, dR)
            scale = max(1.0, float(np.max(np.abs(expect))))
            worst = max(worst, float(np.max(np.abs(ls - expect))) / scale)
    ok = worst < 1e-8
    _report("criterion 5 (trace representation of Lambda S)", ok,
            f"max residual {worst:.3e}")
    assert ok


def test_criterion_6_lft_and_connector():
    rng = np.random.default_rng(505)
    worst_lft = 0.0
    worst_mem = 0.0
    done = 0
    while done < 50:
        a = rng.uniform(0.3, 2 * math.pi - 0.3, 8)
        qa, qb = quad(*a[:4]), quad(*a[4:])
        diffs = list(qa.diffs) + list(qb.diffs)
        if any(abs(math.sin(d.real)) < 0.15 for d in diffs):
            continue
        z = complex(rng.uniform(-2, 4), rng.uniform(0.6, 1.6))
        V = (VFREE, VREAL)[done % 2]
        try:
            res = lft_residuals(V, R, qa, qb, z)
        except NumericalError:
            continue
        done += 1
        worst_lft = max(worst_lft, max(res.values()))
        worst_mem = max(worst_mem, block_relations_residual(connector(qa, qb)))
    # Robin-type quads exercise the Dirichlet-to-Neumann special form
    for _ in range(5):
        b = rng.uniform(0.3, 2.8, 4)
        qa = quad(b[0], b[1], b[0] + math.pi / 2, b[1] + math.pi / 2)
        qb = quad(b[2], b[3], b[2] + math.pi / 2, b[3] + math.pi / 2)
        res = lft_residuals(VREAL, R, qa, qb, 1j)
        assert "dtn_special" in res
        worst_lft = max(worst_lft, max(res.values()))
    ok = worst_lft < 1e-8 and worst_mem < 1e-12
    _report("criterion 6 (LFT relations and connector membership)", ok,
            f"max LFT residual {worst_lft:.3e}, membership {worst_mem:.3e}")
    assert worst_lft < 1e-8
    assert worst_mem < 1e-12


def test_criterion_7_herglotz_and_point_mass():
    rng = np.random.default_rng(606)
    potentials = [VFREE, VREAL,
                  PotentialSpec.piecewise_constant([1.0, 2.1], [0.6, -0.8, 0.3], R)]
    quads = []
    while len(quads) < 10:
        a = rng.uniform(0.25, 2 * math.pi - 0.25, 4)
        q = quad(*a)
        d0, dR = q.diffs
        if abs(math.sin(d0.real)) < 0.2 or abs(math.sin(dR.real)) < 0.2:
            continue
        quads.append(q)
    zs = [complex(re, im) for re in (-1.5, 0.5, 2.5, 4.5)
          for im in (0.15, 0.8, 1.7, 2.6, 3.4)]
    assert len(zs) == 20
    min_eig = math.inf
    for V in potentials:
        for q in quads:
            for z in zs:
                try:
                    im = herglotz_imag(V, R, q, z)
                except NumericalError:
                    continue
                min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(im))))
    sig = measure_point_mass(VFREE, R, quad(0.0, 0.0, math.pi / 2, math.pi / 2), 1.0)
    jump_err = abs(sig[0][0].real - 2.0 / math.pi)
    ok = min_eig > 0.0 and jump_err < 1e-4
    _report("criterion 7 (Herglotz positivity and point mass 2/pi)", ok,
            f"min eig {min_eig:.3e}, jump error {jump_err:.3e}")
    assert min_eig > 0.0
    assert jump_err < 1e-4


def test_criterion_8_krein_formulas():
    cases = [(AnglePair(0.35, 0.75), AnglePair(1.5, 2.4)),
             (AnglePair(0.35, 0.75), AnglePair(0.35, 2.4)),
             (AnglePair(0.35, 0.75), AnglePair(1.5, 0.75))]
    zs = [1j, -1.0 + 2.0j, 5.0 + 0.3j]
    xs = [R * (i + 0.5) / 7 for i in range(7)]
    worst = 0.0
    for V in (VREAL, VCPLX):
        for base, primed in cases:
            for z in zs:
                gb = green_evaluator(V, R, base, z)
                gp = green_evaluator(V, R, primed, z)
                ker = krein_kernel(V, R, base, primed, z)
                for x in xs:
                    for xp in xs:
                        worst = max(worst, abs(gp(x, xp)
                                               - (gb(x, xp) - ker(x, xp))))
    ok = worst < 1e-7
    _report("criterion 8 (Krein kernels, three cases, real+complex)", ok,
            f"max kernel residual {worst:.3e}")
    assert ok


def test_criterion_9_asymptotics():
    R2 = 0.5
    vb = PotentialSpec.sampled([0.0, 0.1, 0.25, 0.4, R2],
                               [0.0, 0.8, 1.0, 0.6, 0.0], R2)
    c0, cR = math.pi / 3, math.pi / 4
    pairs = [AnglePair(0.0, 0.0), AnglePair(0.0, cR), AnglePair(c0, 0.0),
             AnglePair(c0, cR)]
    figures = {}
    for t, thr in ((1e4, 0.05), (1e6, 0.005)):
        worst = 0.0
        for p in pairs:
            lam = bdmap_robin(vb, R2, p, 1j * t).matrix
            ref = asymptotic_reference(p, 1j * t, R2)
            worst = max(worst, abs(lam[0, 0] / ref[0][0] - 1.0),
                        abs(lam[1, 1] / ref[1][1] - 1.0))
        figures[t] = worst
        assert worst < thr, f"asymptotics at t={t:g}: {worst:.3e} >= {thr}"
    _report("criterion 9 (large-z asymptotics)", True,
            f"t=1e4: {figures[1e4]:.3e} < 0.05, t=1e6: {figures[1e6]:.3e} < 0.005")


def test_criterion_10_wt_matrix_and_green_links(oracles):
    rng = np.random.default_rng(707)
    worst_det = 0.0
    done = 0
    while done < 500:
        V = (VFREE, VREAL, VCPLX)[done % 3]
        z = complex(rng.uniform(-3, 5), rng.uniform(0.3, 2.5))
        x0 = rng.uniform(0.2, R - 0.2)
        alpha = rng.uniform(0.0, math.pi - 1e-9)
        p = AnglePair(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        try:
            M = wt_matrix(V, R, z, x0, p, alpha)
        except NumericalError:
            continue
        done += 1
        worst_det = max(worst_det, abs(np.linalg.det(M.matrix) + 0.25))
    worst_link = 0.0
    for p in (AnglePair(math.pi / 3, math.pi / 3), AnglePair(0.8, 2.3),
              AnglePair(0.0, 0.0)):
        links = green_link_check(VREAL, R, p, 1j)
        worst_link = max(worst_link, max(links.values()))
    # M_alpha against the Airy u-, u+; M_0 11 is G(x0, x0) exactly
    z, x0, p = 0.8 + 1.1j, 1.7, AnglePair(0.7, 2.3)
    pieces = oracles.pieces_of("sampled", R, values=VREAL.values,
                               grid=VREAL.grid)
    ref = oracles.Interior(pieces, R, z, p.theta0, p.thetaR, [x0])
    for alpha in (0.0, 0.6, 1.4):
        M = wt_matrix(VREAL, R, z, x0, p, alpha).matrix
        expect = oracles.wt_matrix_ref(*ref.log_derivs(x0), alpha)
        worst_link = max(worst_link, float(np.max(np.abs(M - expect))))
    m11 = wt_matrix(VREAL, R, z, x0, p).entries[0][0]
    worst_link = max(worst_link, abs(m11 - green_evaluator(VREAL, R, p, z)(x0, x0)))
    ok = worst_det < 1e-10 and worst_link < 1e-6
    _report("criterion 10 (det M_alpha = -1/4 and Green links)", ok,
            f"det residual {worst_det:.3e} (500 draws), links {worst_link:.3e}")
    assert worst_det < 1e-10
    assert worst_link < 1e-6


def test_criterion_11_spectrum_and_suite_runtime():
    res = eig_selfadjoint(VFREE, R, AnglePair(0.0, 0.0), 5)
    worst_free = max(abs(lam - (n + 1) ** 2)
                     for n, lam in enumerate(res.eigenvalues))
    assert worst_free < 1e-10

    def l1_norm(V):
        # trapezoid over V's pieces: exact for this bump, which is >= 0
        return sum(0.5 * (abs(va) + abs(vb)) * (b - a)
                   for a, b, va, vb in V.pieces)

    raw = PotentialSpec.sampled([0.0, 0.7, 1.5, 2.4, R],
                                [0.0, 0.55, 0.35, 0.6, 0.0], R)
    scale = 1.0 / l1_norm(raw)
    vb = PotentialSpec.sampled(raw.grid, [v * scale for v in raw.values], R)
    assert abs(l1_norm(vb) - 1.0) < 1e-12  # unit-L1 bump
    res = eig_selfadjoint(vb, R, AnglePair(0.0, 0.0), 50, tol=1e-8)
    seq = [abs(math.sqrt(lam.real) * R / math.pi - (n + 1)) * (n + 1)
           for n, lam in enumerate(res.eigenvalues)]
    bound = max(seq)
    assert bound < 1.0  # a_n stays bounded

    lo = res.eigenvalues[0].real - 0.5
    hi = res.eigenvalues[9].real + 0.5
    n_contour = count_zeros_rectangle(vb, R, AnglePair(0.0, 0.0),
                                      (lo, hi, -0.5, 0.5))
    assert n_contour == 10

    t0 = time.time()
    results = run_suite(VREAL, R, AnglePair(math.pi / 3, math.pi / 4))
    suite_time = time.time() - t0
    all_pass = all(r.passed for r in results)
    ok = worst_free < 1e-10 and bound < 1.0 and all_pass and suite_time < 300.0
    _report("criterion 11 (spectrum accuracy, counts, suite runtime)", ok,
            f"free err {worst_free:.2e}, a_n bound {bound:.3f}, "
            f"suite {suite_time:.1f}s, all identities pass: {all_pass}")
    assert all_pass
    assert suite_time < 300.0
