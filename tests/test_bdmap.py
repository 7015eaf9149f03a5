"""Boundary data maps: group laws, diagonal m-functions, asymptotics,
Herglotz positivity, spectral point masses."""

import cmath
import math

import numpy as np
import pytest

from bdm.bdmap import (asymptotic_reference, bdmap_general, bdmap_robin,
                       herglotz_imag, m_minus, m_plus, measure_point_mass)
from bdm.errors import DomainError, EigenvalueHitError
from bdm.odecore import fundamental_system
from bdm.potential import PotentialSpec, oracle_bdmap_zero, sqrt_upper
from bdm.traces import AnglePair, AngleQuad, diag_sin, quad

SINH_PI = 11.548739357257748
COSH_PI = 11.591953275521519
COTH_PI = COSH_PI / SINH_PI

R = math.pi
VFREE = PotentialSpec.zero(R)
VCPLX = PotentialSpec.sampled([0.0, 1.0, 2.2, R],
                              [0.3 + 0.2j, -1.0 + 0.5j, 0.8, 0.1 - 0.4j], R)
VREAL = PotentialSpec.sampled([0.0, 1.0, 2.2, R], [0.3, -1.0, 0.8, 0.1], R)
VREAL_HALF = PotentialSpec.sampled([0.0, 0.2, 0.35, 0.5], [0.2, 0.7, 0.4, 0.1], 0.5)


def test_robin_map_frozen_free_dirichlet():
    lam = bdmap_robin(VFREE, R, AnglePair(0.0, 0.0), -1.0).matrix
    expect = np.array([[-COTH_PI, 1 / SINH_PI], [1 / SINH_PI, -COTH_PI]])
    assert np.max(np.abs(lam - expect)) < 1e-9


def test_maps_compare_and_hash_by_entries():
    q = quad(0.35, 0.75, 1.5, 2.4)
    a, b = (bdmap_general(VREAL, R, q, 2.0 + 1.0j) for _ in range(2))
    assert np.array_equal(a.matrix, np.array(a.entries))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != bdmap_general(VREAL, R, q, 2.0 + 1.5j)
    assert bdmap_robin(VREAL, R, q.base, 1j) == bdmap_robin(VREAL, R, q.base, 1j)


def test_general_map_identity_quad():
    q = quad(0.7, 1.9, 0.7, 1.9)
    lam = bdmap_general(VCPLX, R, q, 1.2 + 0.9j).matrix
    assert np.max(np.abs(lam - np.eye(2))) < 1e-12


def test_general_map_zero_structure():
    # theta0' = theta0 kills the (1,2) entry, thetaR' = thetaR the (2,1)
    z = 0.8 + 1.3j
    lam = bdmap_general(VCPLX, R, quad(0.7, 1.9, 0.7, 0.4), z).matrix
    assert lam[0, 1] == 0.0
    lam = bdmap_general(VCPLX, R, quad(0.7, 1.9, 2.6, 1.9), z).matrix
    assert lam[1, 0] == 0.0


def test_group_laws_random_quads():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.uniform(0.2, 6.0, 6) + 1j * rng.uniform(-0.3, 0.3, 6)
        base = AnglePair(a[0], a[1])
        mid = AnglePair(a[2], a[3])
        top = AnglePair(a[4], a[5])
        z = complex(rng.uniform(-2, 4), rng.uniform(0.6, 1.6))
        l1 = bdmap_general(VCPLX, R, AngleQuad(base, mid), z).matrix
        l2 = bdmap_general(VCPLX, R, AngleQuad(mid, top), z).matrix
        l13 = bdmap_general(VCPLX, R, AngleQuad(base, top), z).matrix
        linv = bdmap_general(VCPLX, R, AngleQuad(mid, base), z).matrix
        scale = max(1.0, float(np.max(np.abs(l13))))
        assert np.max(np.abs(l2 @ l1 - l13)) < 1e-9 * scale
        assert np.max(np.abs(linv @ l1 - np.eye(2))) < 1e-9


def test_robin_map_matches_free_oracle_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        t0, tR = rng.uniform(0, 2 * math.pi, 2)
        z = complex(rng.uniform(-3, 5), rng.uniform(0.4, 2.0))
        lam = bdmap_robin(VFREE, R, AnglePair(t0, tR), z).matrix
        oracle = oracle_bdmap_zero(z, R, t0, tR)
        assert np.max(np.abs(lam - oracle)) < 1e-8 * max(1.0, np.max(np.abs(oracle)))


def test_map_evaluates_on_auxiliary_spectrum():
    # z = 1 is an eigenvalue of the Dirichlet auxiliary problem that
    # normalizes u-; the map itself is regular there and must evaluate
    lam = bdmap_robin(VFREE, R, AnglePair(0.0, math.pi / 4), 1.0).matrix
    oracle = oracle_bdmap_zero(1.0, R, 0.0, math.pi / 4)
    assert np.max(np.abs(lam - oracle)) < 1e-9 * max(1.0, np.max(np.abs(oracle)))


def test_eigenvalue_hit_raises():
    with pytest.raises(EigenvalueHitError):
        bdmap_robin(VFREE, R, AnglePair(0.0, 0.0), 1.0)


def test_neumann_dirichlet_duality():
    # Lambda_{pi/2,pi/2}(z) Lambda_{0,0}(z) = -I
    for z in (1j, 2.0 + 0.7j):
        lpp = bdmap_robin(VREAL, R, AnglePair(math.pi / 2, math.pi / 2), z).matrix
        l00 = bdmap_robin(VREAL, R, AnglePair(0.0, 0.0), z).matrix
        assert np.max(np.abs(lpp @ l00 + np.eye(2))) < 1e-9


def test_pi_shift_invariance_robin():
    z = 0.4 + 1.2j
    l1 = bdmap_robin(VCPLX, R, AnglePair(0.9, 0.3), z).matrix
    l2 = bdmap_robin(VCPLX, R, AnglePair(0.9 + math.pi, 0.3 + math.pi), z).matrix
    assert np.max(np.abs(l1 - l2)) < 1e-10 * max(1.0, np.max(np.abs(l1)))


def test_m_plus_frozen_free():
    # u+'(z,0) = -sqrt(z) cot(sqrt(z) pi) at theta0 = 0
    val = m_plus(VFREE, R, 0.0, 0.0, -1.0)
    assert val == pytest.approx(-COTH_PI, rel=1e-9)


def test_m_functions_are_robin_diagonal():
    z = 1.1 + 0.8j
    p = AnglePair(0.9, 2.3)
    lam = bdmap_robin(VCPLX, R, p, z).matrix
    assert m_plus(VCPLX, R, p.theta0, p.thetaR, z) == pytest.approx(lam[0, 0], rel=1e-12)
    assert -m_minus(VCPLX, R, p.theta0, p.thetaR, z) == pytest.approx(lam[1, 1], rel=1e-12)


def test_m_plus_angle_lft():
    z = 0.6 + 1.4j
    tR = 1.7
    m0 = m_plus(VCPLX, R, 0.0, tR, z)
    for t0 in (0.5, 1.3, 2.9):
        lhs = m_plus(VCPLX, R, t0, tR, z)
        rhs = (-math.sin(t0) + math.cos(t0) * m0) / (math.cos(t0) + math.sin(t0) * m0)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_offdiagonal_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(10):
        t0, tR = rng.uniform(0, 2 * math.pi, 2)
        z = complex(rng.uniform(-2, 4), rng.uniform(0.5, 1.5))
        lam = bdmap_robin(VCPLX, R, AnglePair(t0, tR), z).matrix
        assert abs(lam[0, 1] - lam[1, 0]) < 1e-10 * max(1.0, abs(lam[0, 1]))


def test_asymptotic_reference_structure():
    z = 1e4j
    rt = sqrt_upper(z)
    ref = asymptotic_reference(AnglePair(0.0, 0.0), z, 0.5)
    assert ref[0][0] == pytest.approx(1j * rt, rel=1e-14)
    # the (2,2) leading term carries the same sign as (1,1): the map is
    # Herglotz in the self-adjoint case, which rules out -i sqrt(z)
    assert ref[1][1] == pytest.approx(1j * rt, rel=1e-14)
    assert ref[0][1] == pytest.approx(-2j * rt * cmath.exp(1j * rt * 0.5), rel=1e-12)
    ref = asymptotic_reference(AnglePair(1.0, 0.7), z, 0.5)
    assert ref[0][0] == pytest.approx(1.0 / math.tan(1.0), rel=1e-14)
    assert ref[1][1] == pytest.approx(1.0 / math.tan(0.7), rel=1e-14)


def test_asymptotic_reference_needs_upper_half_plane():
    with pytest.raises(DomainError):
        asymptotic_reference(AnglePair(0.0, 0.0), 4.0, 1.0)


def test_asymptotics_converge_free_and_bounded():
    R2 = 0.5
    vb = PotentialSpec.sampled([0.0, 0.1, 0.25, 0.4, R2],
                               [0.0, 0.8, 1.0, 0.6, 0.0], R2)
    for V in (PotentialSpec.zero(R2), vb):
        last = math.inf
        for t in (1e2, 1e4):
            p = AnglePair(math.pi / 3, math.pi / 4)
            lam = bdmap_robin(V, R2, p, 1j * t).matrix
            ref = asymptotic_reference(p, 1j * t, R2)
            err = max(abs(lam[0, 0] / ref[0][0] - 1), abs(lam[1, 1] / ref[1][1] - 1))
            assert err < last
            last = err
        assert last < 0.05


def test_no_linear_term():
    # ||Lambda(it) S|| / t -> 0: the Herglotz representation has no linear part
    R2 = 0.5
    q = quad(math.pi / 3, math.pi / 4, math.pi / 3 + 1.2, math.pi / 4 + 0.9)
    d0, dR = q.diffs
    vals = []
    for t in (1e2, 1e4):
        lam = bdmap_general(VREAL_HALF, R2, q, 1j * t).matrix
        vals.append(float(np.max(np.abs(lam @ diag_sin(d0, dR)))) / t)
    assert vals[1] < 0.1 * vals[0]
    assert vals[1] < 1e-1


def test_herglotz_imag_positive_definite():
    q = quad(0.0, 0.0, math.pi / 2, math.pi / 2)
    im = herglotz_imag(VFREE, R, q, 1j)
    evals = np.linalg.eigvalsh(im)
    assert evals[0] > 0.0


def test_herglotz_lower_half_plane_negative():
    # conjugate symmetry in the self-adjoint case flips the sign below the axis
    q = quad(0.0, 0.0, math.pi / 2, math.pi / 2)
    with pytest.raises(DomainError):
        herglotz_imag(VFREE, R, q, -1j)
    lam = bdmap_robin(VFREE, R, AnglePair(0.0, 0.0), -1j).matrix
    im = (lam - lam.conj().T) / 2j
    assert np.linalg.eigvalsh(im)[-1] < 0.0


def test_herglotz_rejects_complex_data():
    q = quad(0.0, 0.0, math.pi / 2, math.pi / 2)
    with pytest.raises(DomainError):
        herglotz_imag(VCPLX, R, q, 1j)
    with pytest.raises(DomainError):
        herglotz_imag(VFREE, R, quad(0.0, 0.0, math.pi, math.pi), 1j)


def test_complex_potential_breaks_positivity():
    # documentation of why positivity needs real V: with V = 5i the
    # imaginary part of Lambda S is indefinite at some upper-half-plane z
    vimag = PotentialSpec.piecewise_constant([], [5j], R)
    lam = bdmap_robin(vimag, R, AnglePair(0.0, 0.0), 0.5 + 0.5j).matrix
    im = (lam - lam.conj().T) / 2j
    assert np.linalg.eigvalsh(im)[0] < 0.0


def test_measure_point_mass_free_dirichlet():
    q = quad(0.0, 0.0, math.pi / 2, math.pi / 2)
    sig = np.array(measure_point_mass(VFREE, R, q, 1.0))
    assert sig[0, 0].real == pytest.approx(2.0 / math.pi, abs=1e-6)
    # Hermitian PSD
    assert np.max(np.abs(sig - sig.conj().T)) < 1e-12
    evals = np.linalg.eigvalsh(sig)
    assert evals[0] > -1e-8
    # simple eigenvalue: the jump has rank one
    assert evals[0] < 1e-6 * evals[1]


def test_measure_point_mass_real_potential():
    from bdm.spectrum import eig_selfadjoint
    pair = AnglePair(0.0, 0.0)
    lam0 = eig_selfadjoint(VREAL, R, pair, 1).eigenvalues[0].real
    q = AngleQuad(pair, pair.robin_primed())
    sig = np.array(measure_point_mass(VREAL, R, q, lam0))
    assert np.max(np.abs(sig - sig.conj().T)) < 1e-10
    evals = np.linalg.eigvalsh(sig)
    assert evals[0] > -1e-7
    assert evals[1] > 1e-4  # a genuine point mass


def test_measure_point_mass_rejects_unresolved_pole():
    # probing at lambda close to (but off) an eigenvalue puts the pole at a
    # distance comparable to the epsilon ladder: the extrapolation cannot
    # settle and must say so
    from bdm.errors import AccuracyError
    q = quad(0.0, 0.0, math.pi / 2, math.pi / 2)
    with pytest.raises(AccuracyError):
        measure_point_mass(VFREE, R, q, 1.0 + 1e-4)


def test_measure_point_mass_zero_off_spectrum():
    # far from the spectrum the measure has no atom
    q = quad(0.0, 0.0, math.pi / 2, math.pi / 2)
    sig = measure_point_mass(VFREE, R, q, 2.5)
    assert float(np.max(np.abs(sig))) < 1e-6


def test_diagonal_reduces_to_wt_m_scalars():
    # m+ is the (1,1) entry computed through one fundamental solve
    z = 0.9 + 1.1j
    fs = fundamental_system(VREAL, z, R)
    from bdm.bdmap import m_functions_from_fs
    mp, mm = m_functions_from_fs(fs, R, AnglePair(1.2, 0.4))
    lam = bdmap_robin(VREAL, R, AnglePair(1.2, 0.4), z).matrix
    assert mp == pytest.approx(lam[0, 0], rel=1e-13)
    assert mm == pytest.approx(-lam[1, 1], rel=1e-13)
