"""Weyl-Titchmarsh scalars and matrices, Green's-function links."""

import math

import numpy as np
import pytest

from bdm.bdmap import m_minus, m_plus
from bdm.errors import DomainError, PoleHitError
from bdm.potential import PotentialSpec, _f_reduced, _g_reduced
from bdm.resolvent import green_evaluator
from bdm.traces import AnglePair
from bdm.weyl import (green_link_check, interior_m, wt_m, wt_matrix,
                      wt_matrix_via_green)

R = math.pi
VFREE = PotentialSpec.zero(R)
VREAL = PotentialSpec.sampled([0.0, 1.0, 2.2, R], [0.3, -1.0, 0.8, 0.1], R)
VCPLX = PotentialSpec.sampled([0.0, 1.0, 2.2, R],
                              [0.3 + 0.2j, -1.0 + 0.5j, 0.8, 0.1 - 0.4j], R)


def test_wt_m_endpoint_frames_are_m_functions():
    z = 0.9 + 1.2j
    for pair in (AnglePair(0.9, 0.4), AnglePair(0.0, 2.2)):
        t0, tR = pair.theta0, pair.thetaR
        # m+ with frames (0, theta0) -> (R, thetaR); m- with (R, -thetaR)
        # -> (0, -theta0), as beta(t) = alpha(-t)
        assert wt_m(VCPLX, R, z, 0.0, t0, R, tR) == pytest.approx(
            m_plus(VCPLX, R, t0, tR, z), rel=1e-9)
        assert wt_m(VCPLX, R, z, R, -tR, 0.0, -t0) == pytest.approx(
            m_minus(VCPLX, R, t0, tR, z), rel=1e-9)


def test_wt_m_angle_lft():
    z = 0.9 + 1.2j
    eta = 0.4
    m0 = wt_m(VCPLX, R, z, 0.0, 0.0, R, eta)
    for xi in (0.3, 1.2, 2.0):
        lhs = wt_m(VCPLX, R, z, 0.0, xi, R, eta)
        rhs = (-math.sin(xi) + math.cos(xi) * m0) / (math.cos(xi) + math.sin(xi) * m0)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_interior_m_free_closed_forms():
    z = 0.9 + 1.2j
    x0 = 1.234
    tR, t0 = 0.4, 0.9
    mi = interior_m(VFREE, R, z, x0, +1, AnglePair(0.0, tR))
    expect = _g_reduced(z, R - x0, 0.0, tR) / _f_reduced(z, R - x0, 0.0, tR)
    assert mi == pytest.approx(expect, rel=1e-9)
    mi = interior_m(VFREE, R, z, x0, -1, AnglePair(t0, 0.0))
    expect = -_g_reduced(z, x0, 0.0, t0) / _f_reduced(z, x0, 0.0, t0)
    assert mi == pytest.approx(expect, rel=1e-9)


def test_interior_m_alpha_zero_is_log_derivative():
    z = 1.3 + 0.8j
    pair = AnglePair(0.7, 1.9)
    x0 = 2.0
    d = green_evaluator(VREAL, R, pair, z).over_delta(1, x0)
    assert interior_m(VREAL, R, z, x0, +1, pair) == pytest.approx(
        d.du / d.u, rel=1e-12)


def test_interior_m_is_herglotz():
    m = interior_m(VREAL, R, 1j, 1.1, +1, AnglePair(0.5, 2.5), 0.4)
    assert m.imag > 0.0
    m = interior_m(VREAL, R, 1j, 1.1, -1, AnglePair(0.5, 2.5), 0.4)
    assert (-m).imag > 0.0


def test_interior_m_rejects_bad_alpha():
    with pytest.raises(DomainError):
        interior_m(VREAL, R, 1j, 1.1, +1, AnglePair(0.5, 2.5), alpha=3.5)
    with pytest.raises(DomainError):
        interior_m(VREAL, R, 1j, 1.1, +1, AnglePair(0.5, 2.5), alpha=0.3 + 0.1j)


def test_interior_m_pole_at_node():
    # u+ for the free Dirichlet problem at z = 2.25 is sin(1.5 (R - x)),
    # with a node at x = R - 2 pi/3
    x0 = R - 2 * math.pi / 3
    with pytest.raises(PoleHitError):
        interior_m(VFREE, R, 2.25, x0, +1, AnglePair(0.0, 0.0))


def test_wt_matrix_determinant():
    rng = np.random.default_rng(23)
    for _ in range(25):
        z = complex(rng.uniform(-3, 5), rng.uniform(0.3, 2.5))
        x0 = rng.uniform(0.3, R - 0.3)
        alpha = rng.uniform(0.0, math.pi - 1e-9)
        pair = AnglePair(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        V = VREAL if rng.uniform() < 0.5 else VCPLX
        M = wt_matrix(V, R, z, x0, pair, alpha)
        assert abs(np.linalg.det(M.matrix) + 0.25) < 1e-10


def test_wt_matrices_compare_and_hash_by_entries():
    pair = AnglePair(0.35, 0.75)
    a, b = (wt_matrix(VREAL, R, 2.0 + 1.0j, 1.3, pair, 0.4) for _ in range(2))
    assert np.array_equal(a.matrix, np.array(a.entries))
    assert a == b and hash(a) == hash(b)
    assert a != wt_matrix(VREAL, R, 2.0 + 1.0j, 1.3, pair, 0.5)


def test_wt_matrix_large_imaginary_z_has_no_false_node():
    # u- and u+ are tiny at x0 = 1.3, z = 300i but have no node there: the
    # node test compares |u| with |u'| and ignores their common scale
    M = wt_matrix(VFREE, R, 300j, 1.3, AnglePair(0.35, 0.75), 0.4)
    assert abs(np.linalg.det(M.matrix) + 0.25) < 1e-10


def test_wt_matrix_11_is_green_diagonal():
    z = 0.8 + 1.1j
    x0 = 1.7
    pair = AnglePair(0.7, 2.3)
    M = wt_matrix(VREAL, R, z, x0, pair, 0.0)
    gk = green_evaluator(VREAL, R, pair, z)
    assert M.matrix[0, 0] == pytest.approx(gk(x0, x0), rel=1e-9)


def test_wt_matrix_herglotz():
    M = wt_matrix(VREAL, R, 1j, 1.3, AnglePair(0.5, 2.5), 0.7)
    im = (M.matrix - M.matrix.conj().T) / 2j
    assert np.linalg.eigvalsh(im)[0] > 0.0


@pytest.mark.parametrize("alpha", [0.0, 0.6, 1.4])
def test_wt_matrix_green_identities(alpha):
    # the three M_alpha entries against wedge finite differences of G
    z = 0.8 + 1.1j
    x0 = 1.7
    pair = AnglePair(0.7, 2.3)
    M = wt_matrix(VREAL, R, z, x0, pair, alpha)
    Mg = wt_matrix_via_green(VREAL, R, z, x0, pair, alpha)
    assert np.max(np.abs(M.matrix - Mg)) < 1e-6


def test_green_links_robin():
    res = green_link_check(VCPLX, R, AnglePair(math.pi / 3, math.pi / 3), 1j)
    assert {"lambda11_from_green", "lambda22_from_green", "g00_from_mplus",
            "gRR_from_mminus"} <= set(res)
    assert all(v < 1e-8 for v in res.values())


def test_green_links_skip_degenerate_angles():
    res = green_link_check(VREAL, R, AnglePair(0.0, math.pi / 3), 1j)
    assert "lambda11_from_green" not in res  # needs sin(theta0) != 0
    assert "lambda22_from_green" in res
    assert all(v < 1e-8 for v in res.values())


def test_green_links_dirichlet_corner_limits():
    res = green_link_check(VREAL, R, AnglePair(0.0, 0.0), 1j)
    assert res["dirichlet_corner_0"] < 1e-5
    assert res["dirichlet_corner_R"] < 1e-5
