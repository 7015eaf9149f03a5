"""Propagation, fundamental system, characteristic determinant, basis."""

import cmath
import math

import numpy as np
import pytest

from bdm import odecore
from bdm.errors import AccuracyError, NearEigenvalueError
from bdm.odecore import (CauchyData, basis_endpoints, char_det,
                         fundamental_system, propagate, wronskian)
from bdm.potential import (PotentialSpec, sqrt_upper,
                           transfer_matrix_piecewise)
from bdm.resolvent import green, krein_correction
from bdm.traces import AnglePair
from bdm.weyl import wt_matrix

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


def test_propagate_matches_transfer_matrix():
    rng = np.random.default_rng(5)
    for _ in range(12):
        cuts = np.sort(rng.uniform(0.3, 2.7, 2))
        vals = rng.uniform(-4, 4, 3) + 1j * rng.uniform(-2, 2, 3)
        V = PotentialSpec.piecewise_constant(cuts, vals, 3.0)
        z = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        u0, du0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        d = propagate(V, z, CauchyData(u0, du0, 0.0), 3.0, tol=1e-12)
        expect = transfer_matrix_piecewise(V, z, 0.0, 3.0) @ np.array([u0, du0])
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
    # Delta(theta0, 0) and Delta(0, thetaR) normalize u-/u+: their endpoint
    # data must match the closed fundamental-system combinations
    V = PotentialSpec.sampled([0.0, 1.1, 2.0], [0.5, -1.0, 0.2], 2.0)
    z = 0.3 + 1.4j
    t0, tR = 0.8, 2.3
    dm = char_det(V, z, t0, 0.0)
    dp = char_det(V, z, 0.0, tR)
    be = basis_endpoints(V, z, t0, tR)
    assert be.uminus_at_0.u == pytest.approx(-cmath.sin(t0) / dm, rel=1e-10)
    assert be.uminus_at_0.du == pytest.approx(cmath.cos(t0) / dm, rel=1e-10)
    assert be.uplus_at_R.u == pytest.approx(-cmath.sin(tR) / dp, rel=1e-10)
    assert be.uplus_at_R.du == pytest.approx(-cmath.cos(tR) / dp, rel=1e-10)


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


def test_basis_endpoints_free_dirichlet():
    # u- = sin(sqrt(z) x)/sin(sqrt(z) R), u+ = sin(sqrt(z)(R-x))/sin(sqrt(z) R)
    V = PotentialSpec.zero(math.pi)
    z = -1.0
    be = basis_endpoints(V, z, 0.0, 0.0)
    assert be.uminus_at_0.u == pytest.approx(0.0, abs=1e-12)
    assert be.uminus_at_0.du == pytest.approx(1.0 / SINH_PI, rel=1e-9)
    assert be.uminus_at_R.du == pytest.approx(math.cosh(math.pi) / SINH_PI, rel=1e-9)
    assert be.uplus_at_R.u == pytest.approx(0.0, abs=1e-12)
    assert be.uplus_at_0.du == pytest.approx(-math.cosh(math.pi) / SINH_PI, rel=1e-9)


def test_basis_normalizations_exact():
    V = PotentialSpec.sampled([0.0, 0.9, 2.0], [0.4 + 0.2j, -1.0, 1.3], 2.0)
    be = basis_endpoints(V, 1.1 + 0.7j, 0.9, 5.1)
    assert be.uminus_at_R.u == 1.0  # exact by construction
    assert be.uplus_at_0.u == 1.0


def test_basis_boundary_residuals():
    V = PotentialSpec.sampled([0.0, 0.9, 2.0], [0.4, -1.0, 1.3], 2.0)
    for t0, tR in ((0.0, 0.0), (0.9, 5.1), (math.pi / 2, 1.0)):
        be = basis_endpoints(V, 1.1 + 0.7j, t0, tR)
        r0 = (cmath.cos(t0) * be.uminus_at_0.u
              + cmath.sin(t0) * be.uminus_at_0.du)
        rR = (cmath.cos(tR) * be.uplus_at_R.u
              - cmath.sin(tR) * be.uplus_at_R.du)
        assert abs(r0) < 1e-10
        assert abs(rR) < 1e-10


def test_basis_near_auxiliary_eigenvalue_raises():
    # z = 1 is a Dirichlet eigenvalue of the free problem: the u-
    # normalization for theta0 = 0 fails there, and the error says which
    # auxiliary operator was hit
    V = PotentialSpec.zero(math.pi)
    with pytest.raises(NearEigenvalueError) as err:
        basis_endpoints(V, 1.0, 0.0, 2.2)
    assert "theta0" in str(err.value)


def test_wronskian_frozen_free_dirichlet():
    V = PotentialSpec.zero(math.pi)
    w = wronskian(basis_endpoints(V, -1.0, 0.0, 0.0))
    assert w == pytest.approx(1.0 / SINH_PI, rel=1e-9)


def test_wronskian_small_near_eigenvalue():
    # W vanishes on the spectrum of the Robin pair under test (the pair must
    # be generic: for theta0 = 0 the u+ normalization itself degenerates on
    # the spectrum and W diverges instead)
    from bdm.spectrum import eig_selfadjoint
    from bdm.traces import AnglePair
    V = PotentialSpec.zero(math.pi)
    pair = AnglePair(0.7, 1.1)
    lam0 = eig_selfadjoint(V, math.pi, pair, 1).eigenvalues[0].real
    w = wronskian(basis_endpoints(V, lam0 + 1e-8, pair.theta0, pair.thetaR))
    assert abs(w) < 1e-6


def test_wronskian_factorizations():
    # both boundary factorizations of W agree for random Robin angles
    V = PotentialSpec.sampled([0.0, 0.8, 2.0], [0.4, -0.9 + 0.3j, 1.0], 2.0)
    rng = np.random.default_rng(4)
    for _ in range(8):
        t0, tR = rng.uniform(0.1, 6.1, 2)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2.5))
        be = basis_endpoints(V, z, t0, tR)
        w = wronskian(be)
        left = ((-cmath.sin(t0) * be.uminus_at_0.u
                 + cmath.cos(t0) * be.uminus_at_0.du)
                * (cmath.cos(t0) + cmath.sin(t0) * be.uplus_at_0.du))
        right = ((cmath.cos(tR) - cmath.sin(tR) * be.uminus_at_R.du)
                 * (-cmath.sin(tR) * be.uplus_at_R.u
                    - cmath.cos(tR) * be.uplus_at_R.du))
        assert left == pytest.approx(w, rel=1e-9)
        assert right == pytest.approx(w, rel=1e-9)


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
    norm = V.l1_norm()
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


def test_wronskian_endpoint_disagreement_raises():
    from bdm.odecore import BasisEndpoints
    bad = BasisEndpoints(
        uminus_at_0=CauchyData(0.0, 1.0, 0.0),
        uminus_at_R=CauchyData(1.0, 0.5, 2.0),
        uplus_at_0=CauchyData(1.0, -0.5, 0.0),
        uplus_at_R=CauchyData(0.1, -1.0, 2.0),
        z=1j)
    with pytest.raises(AccuracyError):
        wronskian(bad)


def _record_propagations(monkeypatch):
    """Empty the solution memo and log (x0, x1, state size) of every call
    of the propagator."""
    calls = []
    inner = odecore._propagate_vec

    def counted(V, z, x0, y0, x1, tol):
        calls.append((x0, x1, len(y0)))
        return inner(V, z, x0, y0, x1, tol)

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
