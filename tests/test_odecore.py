"""Propagation, fundamental system, characteristic determinant, basis."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bdm import odecore
from bdm.bdmap import (asymptotic_reference, bdmap_general, bdmap_robin,
                       lambda_from_fs, m_minus, m_plus)
from bdm.errors import AccuracyError
from bdm.odecore import (CauchyData, char_det, delta_from_fs,
                         fundamental_system, propagate)
from bdm.potential import PotentialSpec, is_near_eigenvalue, sqrt_upper
from bdm.resolvent import green, green_evaluator, krein_correction
from bdm.spectrum import count_zeros_rectangle, eig_rectangle, eig_selfadjoint
from bdm.traces import AnglePair, quad, trace_gamma
from bdm.weyl import wt_m, wt_matrix

SINH_PI = 11.548739357257748


def test_propagate_constant_solution():
    V = PotentialSpec.zero(2.0)
    d = propagate(V, 0.0, CauchyData(1.0, 0.0, 0.0), 1.7)
    assert d.u == pytest.approx(1.0, abs=1e-12)
    assert d.du == pytest.approx(0.0, abs=1e-12)


def test_propagate_free_sine():
    V = PotentialSpec.zero(4.0)
    d = propagate(V, 1.0, CauchyData(0.0, 1.0, 0.0), 2.0)
    assert d.u == pytest.approx(math.sin(2.0), abs=1e-9)
    assert d.du == pytest.approx(math.cos(2.0), abs=1e-9)


def test_propagate_leftward():
    V = PotentialSpec.zero(4.0)
    d = propagate(V, 1.0, CauchyData(math.sin(2.0), math.cos(2.0), 2.0), 0.5)
    assert d.u == pytest.approx(math.sin(0.5), abs=1e-9)


def test_propagate_matches_transfer_matrix(oracles):
    rng = np.random.default_rng(5)
    for _ in range(12):
        cuts = np.sort(rng.uniform(0.3, 2.7, 2))
        vals = rng.uniform(-4, 4, 3) + 1j * rng.uniform(-2, 2, 3)
        V = PotentialSpec.piecewise_constant(cuts, vals, 3.0)
        z = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        u0, du0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        d = propagate(V, z, CauchyData(u0, du0, 0.0), 3.0, tol=1e-12)
        pieces = oracles.pieces_of("piecewise_constant", 3.0, cuts, vals)
        with oracles.mp.workdps(oracles.dps_for(pieces, z)):
            T = oracles.transfer_mp(pieces, z, 0.0, 3.0)
            T = np.array([[complex(T[i, j]) for j in (0, 1)] for i in (0, 1)])
        expect = T @ np.array([u0, du0])
        scale = max(abs(expect[0]), abs(expect[1]))
        assert abs(d.u - expect[0]) < 1e-9 * scale
        assert abs(d.du - expect[1]) < 1e-9 * scale


def test_fundamental_system_free_closed_form():
    V = PotentialSpec.zero(math.pi)
    for z in (-1.0, 2.3 + 1.1j, 5.0):
        rt = sqrt_upper(z)
        fs = fundamental_system(V, z, 2.1)
        assert fs.theta == pytest.approx(cmath.cos(rt * 2.1), rel=1e-9)
        assert fs.phi == pytest.approx(cmath.sin(rt * 2.1) / rt, rel=1e-9)


def test_fundamental_system_initial_data():
    V = PotentialSpec.sampled([0.0, 1.0, 2.0], [1.0, -1.0, 0.5], 2.0)
    fs = fundamental_system(V, 1.4j, 0.0)
    assert (fs.theta, fs.dtheta, fs.phi, fs.dphi) == (1.0, 0.0, 0.0, 1.0)


def test_fundamental_system_wronskian_unity():
    V = PotentialSpec.sampled([0.0, 0.7, 2.0], [0.4, -2.0 + 1j, 1.1], 2.0)
    for z in (0.9 + 2.2j, -4.0, 7.0 + 0.1j):
        fs = fundamental_system(V, z, 2.0)
        assert fs.wronskian() == pytest.approx(1.0, abs=1e-9)


def test_char_det_free_dirichlet():
    V = PotentialSpec.zero(math.pi)
    # Delta = sin(sqrt(z) R)/sqrt(z); frozen at z = -1: sinh(pi)
    assert char_det(V, -1.0, 0.0, 0.0) == pytest.approx(SINH_PI, rel=1e-9)
    # Dirichlet eigenvalue n=2
    assert abs(char_det(V, 4.0, 0.0, 0.0)) < 1e-9


def test_char_det_is_uminus_uplus_denominator():
    # Delta(theta0, 0) and Delta(0, thetaR) are the far-endpoint values
    # ~u-(R) and ~u+(0) of the unit-start solutions, tabulated from the
    # sweep and propagated on their own
    V = PotentialSpec.sampled([0.0, 1.1, 2.0], [0.5, -1.0, 0.2], 2.0)
    z = 0.3 + 1.4j
    t0, tR = 0.8, 2.3
    dm = char_det(V, z, t0, 0.0)
    dp = char_det(V, z, 0.0, tR)
    assert _unit_start(V, z, t0, tR, 2.0)[0].u == pytest.approx(dm, rel=1e-10)
    assert _unit_start(V, z, t0, tR, 0.0)[1].u == pytest.approx(dp, rel=1e-10)
    um = propagate(V, z, CauchyData(-cmath.sin(t0), cmath.cos(t0), 0.0), 2.0)
    up = propagate(V, z, CauchyData(-cmath.sin(tR), -cmath.cos(tR), 2.0), 0.0)
    assert um.u == pytest.approx(dm, rel=1e-9)
    assert up.u == pytest.approx(dp, rel=1e-9)


def test_char_det_analyticity_mean_value():
    V = PotentialSpec.sampled([0.0, 1.0, 2.0], [1.0, 0.3, -0.6], 2.0)
    center = 1.2 + 0.8j
    r = 0.15
    n = 24
    vals = [char_det(V, center + r * cmath.exp(2j * math.pi * k / n), 0.7, 1.9)
            for k in range(n)]
    mean = sum(vals) / n
    direct = char_det(V, center, 0.7, 1.9)
    assert abs(mean - direct) < 1e-6 * max(1.0, abs(direct))


def _unit_start(V, z, t0, tR, x):
    """(~u-(x), ~u+(x)) of the (t0, tR) basis, as CauchyData of values."""
    view = odecore.solution(V, z, odecore.DEFAULT_TOL).basis(t0, tR)
    out = []
    for sign in (-1, 1):
        m, g = view.scaled(sign, x)
        out.append(CauchyData(m.u * math.exp(g), m.du * math.exp(g), x))
    return tuple(out)


def test_basis_endpoints_free_dirichlet():
    # ~u- = sin(sqrt(z) x)/sqrt(z), ~u+ = sin(sqrt(z)(R-x))/sqrt(z); at
    # z = -1 these are sinh(x) and sinh(pi - x), and Delta = sinh(pi)
    V = PotentialSpec.zero(math.pi)
    z = -1.0
    for x in (0.0, 1.0, math.pi):
        um, up = _unit_start(V, z, 0.0, 0.0, x)
        assert um.u == pytest.approx(math.sinh(x), rel=1e-12, abs=1e-12)
        assert um.du == pytest.approx(math.cosh(x), rel=1e-12)
        assert up.u == pytest.approx(math.sinh(math.pi - x), rel=1e-12,
                                     abs=1e-12)
        assert up.du == pytest.approx(-math.cosh(math.pi - x), rel=1e-12)
    # divided by Delta: sinh(x)/sinh(pi) and sinh(pi - x)/sinh(pi)
    view = odecore.solution(V, z, odecore.DEFAULT_TOL).basis(0.0, 0.0)
    assert view.over_delta(-1, 0.0).u == pytest.approx(0.0, abs=1e-12)
    assert view.over_delta(-1, 0.0).du == pytest.approx(1.0 / SINH_PI, rel=1e-9)
    assert view.over_delta(-1, math.pi).du == pytest.approx(
        math.cosh(math.pi) / SINH_PI, rel=1e-9)
    assert view.over_delta(1, math.pi).u == pytest.approx(0.0, abs=1e-12)
    assert view.over_delta(1, 0.0).du == pytest.approx(
        -math.cosh(math.pi) / SINH_PI, rel=1e-9)


def test_basis_boundary_residuals():
    # the own-end Robin traces vanish: gamma_theta0 ~u-(0) = 0 and
    # gamma_thetaR ~u+(R) = 0, with ~u-(0) and ~u+(R) carried back from
    # the far-endpoint data of the sweep
    V = PotentialSpec.sampled([0.0, 0.9, 2.0], [0.4, -1.0, 1.3], 2.0)
    z = 1.1 + 0.7j
    for t0, tR in ((0.0, 0.0), (0.9, 5.1), (math.pi / 2, 1.0)):
        umR = _unit_start(V, z, t0, tR, 2.0)[0]
        up0 = _unit_start(V, z, t0, tR, 0.0)[1]
        um0, upR = propagate(V, z, umR, 0.0), propagate(V, z, up0, 2.0)
        r0, rR = trace_gamma(AnglePair(t0, tR), (um0.u, um0.du, upR.u, upR.du))
        assert abs(r0) < 1e-10
        assert abs(rR) < 1e-10


def _wronskians(V, z, t0, tR, xs=()):
    """W(~u+, ~u-) = ~u+ ~u-' - ~u+' ~u- at x = 0, x = R and each of xs."""
    out = []
    for x in (0.0, V.R) + tuple(xs):
        um, up = _unit_start(V, z, t0, tR, x)
        out.append(up.u * um.du - up.du * um.u)
    return out


def test_wronskian_frozen_free_dirichlet():
    V = PotentialSpec.zero(math.pi)
    ws = _wronskians(V, -1.0, 0.0, 0.0, (0.4, 1.7, 2.9))
    for w in ws[:2]:
        assert w == pytest.approx(SINH_PI, rel=1e-9)
    for w in ws[2:]:
        assert w == pytest.approx(SINH_PI, rel=1e-8)
    assert char_det(V, -1.0, 0.0, 0.0) == pytest.approx(SINH_PI, rel=1e-9)


def test_wronskian_small_near_eigenvalue():
    # W(~u+, ~u-) = Delta vanishes on the spectrum of the Robin pair under
    # test
    V = PotentialSpec.zero(math.pi)
    pair = AnglePair(0.7, 1.1)
    lam0 = eig_selfadjoint(V, math.pi, pair, 1).eigenvalues[0].real
    z = lam0 + 1e-8
    expect = char_det(V, z, pair.theta0, pair.thetaR)
    assert abs(expect) < 1e-6
    for w in _wronskians(V, z, pair.theta0, pair.thetaR, (0.8, 2.3)):
        assert w == pytest.approx(expect, rel=1e-6)


def test_wronskian_factorizations():
    # the far-end Robin traces are Delta: gamma_theta0 ~u+(0) =
    # gamma_thetaR ~u-(R) = Delta(theta0, thetaR) = W(~u+, ~u-) at every x,
    # for random Robin angles
    V = PotentialSpec.sampled([0.0, 0.8, 2.0], [0.4, -0.9 + 0.3j, 1.0], 2.0)
    rng = np.random.default_rng(4)
    for _ in range(8):
        t0, tR = rng.uniform(0.1, 6.1, 2)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2.5))
        w = char_det(V, z, t0, tR)
        up0 = _unit_start(V, z, t0, tR, 0.0)[1]
        umR = _unit_start(V, z, t0, tR, 2.0)[0]
        g0, gR = trace_gamma(AnglePair(t0, tR), (up0.u, up0.du, umR.u, umR.du))
        ws = _wronskians(V, z, t0, tR, rng.uniform(0.05, 1.95, 3))
        for got in [g0, gR] + ws[:2]:
            assert got == pytest.approx(w, rel=1e-9)
        for got in ws[2:]:
            assert got == pytest.approx(w, rel=1e-8)


def test_wronskian_constancy_two_solutions():
    V = PotentialSpec.sampled([0.0, 1.3, 3.0], [1.2, -0.8, 0.3 + 0.1j], 3.0)
    rng = np.random.default_rng(9)
    for _ in range(6):
        z = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        a = propagate(V, z, CauchyData(1.0, 0.3 + 0.2j, 0.0), 3.0, tol=1e-10)
        b = propagate(V, z, CauchyData(-0.2j, 1.0, 0.0), 3.0, tol=1e-10)
        w0 = 1.0 * 1.0 - (0.3 + 0.2j) * (-0.2j)
        wR = a.u * b.du - a.du * b.u
        assert abs(wR - w0) < 1e-8 * abs(w0)


def test_volterra_asymptotics_decay_rate():
    # |theta(z,R) - cos(sqrt z R)| <= C |z|^(-1/2) e^(Im sqrt z R) along z = it;
    # the constant is fitted at the smallest t, the decay is asserted
    R = 0.5
    V = PotentialSpec.sampled([0.0, 0.1, 0.25, 0.4, R],
                              [0.0, 4.0, 2.0, 3.2, 0.0], R)
    # ||V||_1 by the trapezoid over V's pieces: exact, the bump is >= 0
    norm = sum(0.5 * (abs(va) + abs(vb)) * (b - a)
               for a, b, va, vb in V.pieces)
    assert 0.5 < norm < 2.0  # bump of order-unity L1 mass
    ratios = []
    for t in (1e2, 1e4, 1e6):
        z = 1j * t
        rt = sqrt_upper(z)
        fs = fundamental_system(V, z, R, tol=1e-10)
        bound = abs(z) ** -0.5 * math.exp(rt.imag * R)
        ratios.append(abs(fs.theta - cmath.cos(rt * R)) / bound)
    C = ratios[0] * 1.5
    assert ratios[1] <= C
    assert ratios[2] <= C


def _record_propagations(monkeypatch):
    """Empty the solution memo and log (x0, x1, state size) of every call
    of the propagator."""
    calls = []
    inner = odecore._propagate_vec

    def counted(V, z, x0, y0, x1, tol, *rest):
        calls.append((x0, x1, len(y0)))
        return inner(V, z, x0, y0, x1, tol, *rest)

    monkeypatch.setattr(odecore, "_propagate_vec", counted)
    odecore.solution.cache_clear()
    return calls


def test_interior_calls_share_one_sweep(monkeypatch):
    # a 3x3 Green grid, a 3x3 Krein grid and two M_alpha at one (V, z, pair)
    R = math.pi
    V = PotentialSpec.sampled([0.0, 1.0, 2.2, R], [0.3, -1.0, 0.8, 0.1], R)
    pair, primed, z = AnglePair(0.35, 0.75), AnglePair(1.5, 2.4), 20.0 + 1.5j
    xs, x0s = [0.5, 1.3, 2.7], [1.3, 2.2]
    calls = _record_propagations(monkeypatch)
    for x in xs:
        for xp in xs:
            green(V, R, pair, z, x, xp)
            krein_correction(V, R, pair, primed, z, x, xp)
    for x0 in x0s:
        wt_matrix(V, R, z, x0, pair, 0.4)
    sweeps = [c for c in calls if c == (0.0, R, 4)]
    rightward = [x1 for x0, x1, n in calls if n == 2 and x1 > x0]
    leftward = [x1 for x0, x1, n in calls if n == 2 and x1 < x0]
    assert len(sweeps) == 1
    assert len(calls) == 1 + len(rightward) + len(leftward)
    for ends in (rightward, leftward):
        assert len(ends) == len(set(ends))
        assert set(ends) <= set(xs + x0s)
    odecore.solution.cache_clear()


def test_basis_tables_the_knots_it_crosses(monkeypatch):
    # an ascending 3x3 Green grid on five linear pieces: ~u+ (from R) at
    # 0.5 crosses every knot, so 1.3 then starts at the knot 1.9 and not
    # at R; before the knots were kept, ~u+ ran pi-0.5, pi-1.3 and pi-2.7
    R = math.pi
    V = PotentialSpec.sampled([0.0, 0.6, 1.2, 1.9, 2.5, R],
                              [0.3, -1.0, 0.8, 0.1, -0.4, 0.6], R)
    xs = [0.5, 1.3, 2.7]
    calls = _record_propagations(monkeypatch)
    for x in xs:
        for xp in xs:
            green(V, R, AnglePair(0.35, 0.75), 20.0 + 1.5j, x, xp)
    assert [c for c in calls if c[2] == 4] == [(0.0, R, 4)]
    uminus = sum(x1 - x0 for x0, x1, n in calls if n == 2 and x1 > x0)
    uplus = sum(x0 - x1 for x0, x1, n in calls if n == 2 and x1 < x0)
    assert uminus == pytest.approx(2.7, rel=1e-14)
    assert uplus == pytest.approx((R - 0.5) + (1.9 - 1.3) + (R - 2.7),
                                  rel=1e-14)
    odecore.solution.cache_clear()


def test_solution_memo_keeps_one_entry(monkeypatch):
    # (V1, z1), (V2, z2), (V1, z1): the third call cannot reuse the first
    R = math.pi
    V1 = PotentialSpec.zero(R)
    V2 = PotentialSpec.piecewise_constant([1.1, 2.0], [0.8, -0.5, 0.4], R)
    pair = AnglePair(0.35, 0.75)
    calls = _record_propagations(monkeypatch)
    for V, z in ((V1, 2.0 + 1.0j), (V2, 5.0 + 0.5j), (V1, 2.0 + 1.0j)):
        green(V, R, pair, z, 1.0, 2.0)
    assert sum(1 for c in calls if c == (0.0, R, 4)) == 3
    assert odecore.solution.cache_info().maxsize == 1
    odecore.solution.cache_clear()


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_bad_tol_is_domain_error(tol):
    from bdm.bdmap import bdmap_robin
    from bdm.errors import DomainError
    V = PotentialSpec.zero(math.pi)
    with pytest.raises(DomainError):
        propagate(V, 1.0, CauchyData(0.0, 1.0, 0.0), 1.0, tol=tol)
    with pytest.raises(DomainError):
        char_det(V, 2.0 + 1.0j, 0.3, 0.7, tol=tol)
    with pytest.raises(DomainError):
        bdmap_robin(V, math.pi, AnglePair(0.3, 0.7), 2.0 + 1.0j, tol=tol)


# ------------------------------------------------ exact piecewise-constant path

def _dp54_fundamental(V, z, tol):
    """The fundamental system at R from DP54 alone (_rk_segment on every
    piece of V.span, constant ones too), the reference for the exact path."""
    y = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    for s, e, (a, b, va, vb) in V.span(0.0, V.R):
        y = odecore._rk_segment(
            lambda x: va + (vb - va) * (x - a) / (b - a) - z, s, y, e, tol)
    return odecore.FundamentalEval(y, 0.0, z, V.R)


_reals = st.floats(min_value=-5.0, max_value=5.0)
_pieces = st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
    st.lists(st.floats(min_value=0.2, max_value=math.pi - 0.2),
             min_size=n - 1, max_size=n - 1, unique=True),
    st.lists(st.builds(complex, _reals, st.floats(min_value=-1.0, max_value=1.0)),
             min_size=n, max_size=n)))
_angle = st.builds(complex, st.floats(min_value=0.1, max_value=6.2),
                   st.sampled_from([0.0, 0.15, -0.2]))


@settings(max_examples=30, deadline=None)
@given(pieces=_pieces, angles=st.lists(_angle, min_size=4, max_size=4),
       log_r=st.floats(min_value=0.0, max_value=4.0),
       arg=st.floats(min_value=0.15 * math.pi, max_value=0.85 * math.pi))
def test_exact_maps_match_dp54(pieces, angles, log_r, arg):
    R = math.pi
    cuts, vals = pieces
    cuts = sorted(cuts)
    # pieces shorter than 1e-3 stay out of the draws; a one-ulp piece is
    # covered by test_dp54_crosses_segment_below_minimum_step
    assume(all(b - a > 1e-3 for a, b in zip(cuts, cuts[1:])))
    V = PotentialSpec.piecewise_constant(cuts, vals, R)
    z = 10.0 ** log_r * cmath.exp(1j * arg)
    q = quad(*angles)
    ref = _dp54_fundamental(V, z, 1e-12)
    den = delta_from_fs(ref, q.base.theta0, q.base.thetaR)
    # next to a pole the map itself is ill-conditioned for either backend
    assume(not is_near_eigenvalue(den, z, R, q.base.theta0, q.base.thetaR, 1e-4))
    expect = np.array(lambda_from_fs(ref, R, q))
    got = bdmap_general(V, R, q, z).matrix
    assert np.max(np.abs(got - expect)) <= 1e-8 * np.max(np.abs(expect))


def test_large_z_maps_are_finite_and_right(oracles):
    # both returned NaN when the exact path was DP54
    R = math.pi
    pair = AnglePair(1.0, 0.7)
    lam = bdmap_robin(PotentialSpec.zero(R), R, pair, 1e6j).matrix
    oracle = oracles.bdmap_ref(oracles.pieces_of("zero", R), R,
                               (1.0, 0.7, 1.0 + math.pi / 2, 0.7 + math.pi / 2),
                               1e6j)
    assert np.all(np.isfinite(lam))
    assert np.max(np.abs(lam - oracle)) < 1e-10 * np.max(np.abs(oracle))
    ref = asymptotic_reference(pair, 1e6j, R)
    assert abs(lam[0, 0] / ref[0][0] - 1.0) < 5e-3
    assert abs(lam[1, 1] / ref[1][1] - 1.0) < 5e-3
    # interior m-functions are ratios of u+- data as well
    M = wt_matrix(PotentialSpec.zero(R), R, 1e6j, 1.3, pair, 0.4).matrix
    assert abs(np.linalg.det(M) + 0.25) < 1e-9

    V = PotentialSpec.piecewise_constant([1.1, 2.0], [0.8 + 0.2j, -0.5, 0.4 - 0.3j], R)
    q = quad(0.35, 0.75, 1.5, 2.4)
    lam = bdmap_general(V, R, q, 3e5j).matrix
    expect = _mp_piecewise_map(V, q, 3e5j)
    assert np.all(np.isfinite(lam))
    assert np.max(np.abs(lam - expect)) < 1e-10 * np.max(np.abs(expect))


def _mp_piecewise_map(V, q, z):
    """The general map from mpmath transfer matrices at 50 digits, whose
    exponent range holds e^(Im sqrt(z) R) at any z used here."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        T = mpmath.eye(2)
        edges = (0.0,) + V.breakpoints + (V.R,)
        for v, a, b in zip(V.values, edges, edges[1:]):
            k = mpmath.sqrt(mpmath.mpc(z) - mpmath.mpc(v))
            if k.imag < 0:
                k = -k
            c, s = mpmath.cos(k * (b - a)), mpmath.sin(k * (b - a))
            T = mpmath.matrix([[c, s / k], [-k * s, c]]) * T

        def delta(t0, tR):
            c0, s0 = mpmath.cos(t0), mpmath.sin(t0)
            cR, sR = mpmath.cos(tR), mpmath.sin(tR)
            return (c0 * cR * T[0, 1] - c0 * sR * T[1, 1]
                    - s0 * cR * T[0, 0] + s0 * sR * T[1, 0])

        (t0, tR), (t0p, tRp) = ((q.base.theta0, q.base.thetaR),
                                (q.primed.theta0, q.primed.thetaR))
        den = delta(t0, tR)
        out = [[delta(t0p, tR) / den, mpmath.sin(t0p - t0) / den],
               [mpmath.sin(tRp - tR) / den, delta(t0, tRp) / den]]
        return np.array([[complex(v) for v in row] for row in out])


@pytest.mark.parametrize("V, exact", [
    (PotentialSpec.zero(math.pi), True),
    (PotentialSpec.piecewise_constant([1.1, 2.0], [0.8, -0.5 + 0.3j, 0.4],
                                      math.pi), True),
    (PotentialSpec.sampled([0.0, 1.0, math.pi], [0.3, -1.0, 0.1], math.pi), False),
    # all pieces flat: propagation follows the piece, not the kind
    (PotentialSpec.sampled([0.0, 1.0, math.pi], [0.3, 0.3, 0.3], math.pi), True),
])
def test_dp54_runs_for_sampled_potentials_only(V, exact, monkeypatch):
    calls = []
    inner = odecore._rk_segment

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(odecore, "_rk_segment", counted)
    odecore.solution.cache_clear()
    bdmap_robin(V, math.pi, AnglePair(0.35, 0.75), 20.0 + 1.5j)
    odecore.solution.cache_clear()
    assert (len(calls) == 0) if exact else (len(calls) >= 1)


def test_mixed_flat_sloped_sampled_map_matches_airy_oracle(oracles):
    # flat pieces of a sampled V rotate exactly, sloped ones run DP54, and
    # one sweep carries the log scale across both
    R = math.pi
    grid = [0.0, 0.7, 1.5, 2.2, R]
    vals = [0.5, 0.5, -1.0 + 0.3j, -1.0 + 0.3j, 0.8]
    V = PotentialSpec.sampled(grid, vals, R)
    pieces = oracles.pieces_of("sampled", R, values=V.values, grid=V.grid)
    angles = (0.35, 0.75, 1.5, 2.4)
    for z in (1 + 1j, 30 + 2j, 1e3j, 1e4j):
        got = bdmap_general(V, R, quad(*angles), z).matrix
        expect = oracles.bdmap_ref(pieces, R, angles, z)
        assert np.max(np.abs(got - expect)) <= 1e-9 * np.max(np.abs(expect))


def test_large_z_fundamental_system_does_not_fit():
    # the true values are ~e^(707 pi): they raise instead of returning inf
    V = PotentialSpec.zero(math.pi)
    fs = fundamental_system(V, 1e6j, math.pi)
    with pytest.raises(AccuracyError) as err:
        fs.theta
    assert err.value.z == 1e6j and err.value.x == math.pi
    with pytest.raises(AccuracyError):
        char_det(V, 1e6j, 0.3, 0.7)


def test_sampled_non_finite_state_is_accuracy_error():
    # DP54 overflows at this z; it returned NaN before
    V = PotentialSpec.sampled([0.0, 1.0, 2.0, math.pi], [0.3, -1.0, 0.8, 0.1], math.pi)
    with pytest.raises(AccuracyError) as err:
        bdmap_robin(V, math.pi, AnglePair(1.0, 0.7), 1e6j)
    assert err.value.z == 1e6j and err.value.x is not None


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.inf)],
                         ids=["nan", "inf", "1+inf*i"])
@pytest.mark.parametrize("call", [
    lambda V, z: bdmap_robin(V, math.pi, AnglePair(0.3, 0.7), z),
    lambda V, z: char_det(V, z, 0.3, 0.7),
    lambda V, z: green(V, math.pi, AnglePair(0.3, 0.7), z, 1.0, 2.0),
], ids=["bdmap_robin", "char_det", "green"])
def test_non_finite_z_rejected_before_any_propagation(call, z, monkeypatch):
    from bdm.errors import DomainError
    calls = []
    inner = odecore._propagate_vec

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(odecore, "_propagate_vec", counted)
    odecore.solution.cache_clear()
    with pytest.raises(DomainError):
        call(PotentialSpec.zero(math.pi), z)
    assert calls == []


@pytest.mark.parametrize("x", [math.nan, math.inf, -1.0, math.pi + 1.0],
                         ids=["nan", "inf", "-1", "R+1"])
@pytest.mark.parametrize("V", [
    PotentialSpec.zero(math.pi),
    PotentialSpec.piecewise_constant([1.1, 2.0], [0.8, -0.5, 0.4], math.pi),
    PotentialSpec.sampled([0.0, 1.0, math.pi], [0.3, -1.0, 0.1], math.pi),
], ids=["zero", "piecewise_constant", "sampled"])
def test_fundamental_system_rejects_x_outside_interval(V, x, monkeypatch):
    from bdm.errors import DomainError
    calls = _record_propagations(monkeypatch)
    with pytest.raises(DomainError):
        fundamental_system(V, 2.0 + 1.0j, x)
    assert calls == []


def test_dp54_crosses_segment_below_minimum_step():
    # two knots one ulp apart: the segment between them is shorter than
    # DP54's minimum step and is crossed in one step
    R = math.pi
    close = PotentialSpec.sampled([0.0, 2.9415926535897925, 2.941592653589793, R],
                                  [0.0, 1.0, 1.0, 0.0], R)
    merged = PotentialSpec.sampled([0.0, 2.941592653589793, R], [0.0, 1.0, 0.0], R)
    pair, z, tol = AnglePair(0.35, 0.75), 2.0 + 1.0j, 1e-10
    got = bdmap_robin(close, R, pair, z, tol).matrix
    expect = bdmap_robin(merged, R, pair, z, tol).matrix
    assert np.max(np.abs(got - expect)) <= 100 * tol * np.max(np.abs(expect))


@pytest.mark.parametrize("call", [
    lambda V, R: bdmap_general(V, R, quad(1.0, 0.7, 2.0, 0.2), 2.0 + 1.0j),
    lambda V, R: m_plus(V, R, 1.0, 0.7, 2.0 + 1.0j),
    lambda V, R: m_minus(V, R, 1.0, 0.7, 2.0 + 1.0j),
    lambda V, R: green_evaluator(V, R, AnglePair(1.0, 0.7), 2.0 + 1.0j),
    lambda V, R: wt_m(V, R, 2.0 + 1.0j, 0.0, 0.0, 1.5, 0.0),
    lambda V, R: eig_selfadjoint(V, R, AnglePair(0.0, 0.0), 3),
    lambda V, R: count_zeros_rectangle(V, R, AnglePair(0.0, 0.0),
                                       (0.5, 5.0, -1.0, 1.0)),
    lambda V, R: eig_rectangle(V, R, AnglePair(0.0, 0.0),
                               (0.5, 5.0, -1.0, 1.0)),
], ids=["bdmap_general", "m_plus", "m_minus", "green_evaluator", "wt_m",
        "eig_selfadjoint", "count_zeros_rectangle", "eig_rectangle"])
@pytest.mark.parametrize("R", [2.0, 4.0])
def test_R_other_than_the_potentials_rejected_before_any_propagation(
        call, R, monkeypatch):
    from bdm import spectrum, weyl
    from bdm.errors import DomainError
    calls = _record_propagations(monkeypatch)
    monkeypatch.setattr(weyl, "_propagate_vec", odecore._propagate_vec)
    monkeypatch.setattr(spectrum, "_propagate_vec", odecore._propagate_vec)
    with pytest.raises(DomainError):
        call(PotentialSpec.zero(math.pi), R)
    assert calls == []
