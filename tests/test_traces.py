"""Trace functionals, angle normalization, sin/cos diagonals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.bdmap import bdmap_robin
from bdm.errors import DegenerateError
from bdm.odecore import char_det
from bdm.potential import PotentialSpec
from bdm.traces import (COND_LIMIT, EYE2, AnglePair, AngleQuad, diag_cos,
                        diag_sin, mat_add, mat_adjoint, mat_cond, mat_det,
                        mat_inv, mat_max_abs, mat_mul, mat_sub,
                        normalize_strip, trace_gamma)
from bdm.verify import _min_eigenvalue

reals = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
angles = st.complex_numbers(max_magnitude=20.0, allow_nan=False,
                            allow_infinity=False)


def test_dirichlet_trace():
    assert trace_gamma(AnglePair(0.0, 0.0), (1, 2, 3, 4)) == (1, 3)


def test_neumann_trace():
    g = trace_gamma(AnglePair(3 * math.pi / 2, 3 * math.pi / 2), (1, 2, 3, 4))
    assert g[0] == pytest.approx(-2.0, abs=1e-15)
    assert g[1] == pytest.approx(4.0, abs=1e-15)


@settings(max_examples=100)
@given(t0=angles, tR=angles, u0=reals, du0=reals, uR=reals, duR=reals)
def test_pi_shift_negates_trace(t0, tR, u0, du0, uR, duR):
    g = trace_gamma(AnglePair(t0, tR), (u0, du0, uR, duR))
    gs = trace_gamma(AnglePair(t0 + math.pi, tR + math.pi), (u0, du0, uR, duR))
    scale = max(1.0, abs(g[0]), abs(g[1]))
    assert abs(gs[0] + g[0]) < 1e-9 * scale
    assert abs(gs[1] + g[1]) < 1e-9 * scale


def test_normalize_strip_examples():
    assert normalize_strip(2 * math.pi) == 0.0
    assert normalize_strip(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    assert normalize_strip(1 + 1j) == 1 + 1j


@settings(max_examples=100)
@given(t=angles)
def test_normalize_strip_invariants(t):
    n = normalize_strip(t)
    assert 0.0 <= n.real < 2 * math.pi
    assert n.imag == t.imag
    k = (t - n) / (2 * math.pi)
    assert abs(k.real - round(k.real)) < 1e-9
    assert abs(k.imag) < 1e-12


def test_angle_pair_normalizes_on_construction():
    p = AnglePair(-math.pi / 2, 2 * math.pi + 0.5)
    assert p.theta0 == pytest.approx(3 * math.pi / 2)
    assert p.thetaR == pytest.approx(0.5)


def test_diag_matrices():
    assert np.allclose(diag_sin(math.pi / 2, math.pi / 2), np.eye(2))
    assert np.allclose(diag_cos(0.0, 0.0), np.eye(2))


@settings(max_examples=60)
@given(a=angles, b=angles)
def test_sin_cos_diag_identity(a, b):
    s = diag_sin(a, b)
    c = diag_cos(a, b)
    scale = max(1.0, mat_max_abs(s), mat_max_abs(c)) ** 2
    assert mat_max_abs(mat_sub(mat_add(mat_mul(s, s), mat_mul(c, c)),
                               EYE2)) < 1e-10 * scale


def _tup(m):
    return tuple(map(tuple, m.tolist()))


def _draws(rng, n, cond, decades=3):
    """n random complex 2x2 arrays s U diag(1, 1/c) W with log10(c) uniform
    in cond (a (lo, hi) pair), U and W random unitaries and log10(s)
    uniform in [-decades, decades]: condition numbers spread over
    [10^lo, 10^hi]."""
    out = []
    for _ in range(n):
        u, w = (np.linalg.qr(rng.normal(size=(2, 2))
                             + 1j * rng.normal(size=(2, 2)))[0]
                for _ in range(2))
        c = 10.0 ** rng.uniform(*cond)
        s = 10.0 ** rng.uniform(-decades, decades)
        out.append(s * u @ np.diag([1.0, 1.0 / c]) @ w)
    return out


def test_mat_algebra_matches_numpy():
    rng = np.random.default_rng(31)
    ms = _draws(rng, 300, (0.0, 12.0))
    for a, b, c in zip(ms, ms[1:], ms[2:]):
        ta, tb, tc = _tup(a), _tup(b), _tup(c)
        prod = a @ b @ c
        assert np.max(np.abs(np.array(mat_mul(ta, tb, tc)) - prod)) <= (
            4e-15 * np.max(np.abs(a)) * np.max(np.abs(b)) * np.max(np.abs(c)))
        assert np.array_equal(mat_add(ta, tb), a + b)
        assert np.array_equal(mat_sub(ta, tb), a - b)
        assert np.array_equal(mat_adjoint(ta), a.conj().T)
        assert mat_max_abs(ta) == pytest.approx(np.max(np.abs(a)), rel=1e-15)
        scale = abs(a[0, 0] * a[1, 1]) + abs(a[0, 1] * a[1, 0])
        assert abs(mat_det(ta) - np.linalg.det(a)) <= 4e-15 * scale


def test_mat_cond_and_inverse_match_numpy():
    rng = np.random.default_rng(32)
    # entries far from 1, whose squares leave double range, included
    for m in _draws(rng, 300, (0.0, 12.0), decades=200):
        # 1e-12 relative up to cond = 1e3; past it numpy's SVD and the
        # closed form each carry a relative error of order 1e-16 cond
        cond = np.linalg.cond(m)
        assert abs(mat_cond(_tup(m)) - cond) <= max(1e-12, 1e-15 * cond) * cond
        if cond < 0.99 * COND_LIMIT:
            inv = np.linalg.inv(m)
            got = np.array(mat_inv(_tup(m), "m"))
            assert np.max(np.abs(got - inv)) <= 1e-15 * cond * np.max(np.abs(inv))
    assert mat_cond(((1.0, 2.0), (2.0, 4.0))) == math.inf


def test_mat_inv_guard_matches_numpy_cond():
    # near-singular draws on both sides of the limit; a 1% band around it
    # is left out, where two roundings of the same number may disagree
    rng = np.random.default_rng(33)
    checked = set()
    for m in _draws(rng, 400, (6.0, 10.0)):
        cond = np.linalg.cond(m)
        if 0.99 * COND_LIMIT <= cond <= 1.01 * COND_LIMIT:
            continue
        if cond > COND_LIMIT:
            with pytest.raises(DegenerateError):
                mat_inv(_tup(m), "m")
        else:
            mat_inv(_tup(m), "m")
        checked.add(cond > COND_LIMIT)
    assert checked == {False, True}


def test_hermitian_min_eigenvalue_matches_numpy():
    rng = np.random.default_rng(34)
    for m in _draws(rng, 200, (0.0, 12.0)):
        for h in (m @ m.conj().T, -(m @ m.conj().T), m + m.conj().T):
            evals = np.linalg.eigvalsh(h)
            assert abs(_min_eigenvalue(_tup(h)) - evals[0]) <= (
                1e-14 * np.max(np.abs(evals)))
    # det / lam_max keeps the relative accuracy of a tiny eigenvalue
    tiny = _min_eigenvalue(((1.0 + 0j, 1e-9 + 0j), (1e-9 + 0j, 2e-18 + 0j)))
    assert tiny == pytest.approx(1e-18, rel=1e-12)


def test_pi_shift_leaves_operator_invariant():
    # Delta and the Robin map only see the boundary pair mod pi shifts of
    # both angles at once
    V = PotentialSpec.sampled([0.0, 0.9, 2.0], [0.6, -0.4, 1.0], 2.0)
    z = 0.8 + 1.1j
    for t0, tR in ((0.3, 1.2), (2.5, 4.4)):
        d1 = char_det(V, z, t0, tR)
        d2 = char_det(V, z, (t0 + math.pi) % (2 * math.pi),
                      (tR + math.pi) % (2 * math.pi))
        assert d1 == pytest.approx(d2, rel=1e-10)
        l1 = bdmap_robin(V, 2.0, AnglePair(t0, tR), z).matrix
        l2 = bdmap_robin(V, 2.0, AnglePair(t0 + math.pi, tR + math.pi), z).matrix
        assert np.max(np.abs(l1 - l2)) < 1e-10 * max(1.0, np.max(np.abs(l1)))


def test_quad_diffs():
    q = AngleQuad(AnglePair(0.5, 1.0), AnglePair(1.5, 2.5))
    d0, dR = q.diffs
    assert d0 == pytest.approx(1.0)
    assert dR == pytest.approx(1.5)
