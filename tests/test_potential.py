"""Potential representations and the exact free/piecewise oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.errors import DomainError, EigenvalueHitError
from bdm.potential import (PotentialSpec, closed_form_f, closed_form_g,
                           eval_potential, oracle_bdmap_zero,
                           oracle_green_zero, sqrt_upper,
                           transfer_matrix_piecewise)

# frozen from the independent sinh/cosh closed forms
SINH_PI = 11.548739357257748
COSH_PI = 11.591953275521519
COTH_PI = COSH_PI / SINH_PI

angles = st.complex_numbers(min_magnitude=0.0, max_magnitude=6.0,
                            allow_nan=False, allow_infinity=False)
zs = st.complex_numbers(min_magnitude=1e-3, max_magnitude=30.0,
                        allow_nan=False, allow_infinity=False)
lengths = st.floats(min_value=0.05, max_value=4.0)


def test_eval_zero_potential():
    V = PotentialSpec.zero(math.pi)
    assert eval_potential(V, 1.0) == 0.0


def test_eval_piecewise_right_limit_at_breakpoint():
    V = PotentialSpec.piecewise_constant([1.0], [2.0, 5.0], 3.0)
    assert eval_potential(V, 1.0) == 5.0
    assert eval_potential(V, 0.999) == 2.0


def test_eval_sampled_linear_midpoint():
    V = PotentialSpec.sampled([0.0, 2.0], [0.0, 4.0], 2.0)
    assert eval_potential(V, 1.0) == pytest.approx(2.0)


def test_eval_outside_interval_raises():
    V = PotentialSpec.zero(2.0)
    with pytest.raises(DomainError):
        eval_potential(V, 2.5)
    with pytest.raises(DomainError):
        eval_potential(V, -0.1)


def test_direct_construction_with_lists_is_hashable():
    from bdm.odecore import char_det
    V = PotentialSpec("sampled", 2.0, grid=[0.0, 1.0, 2.0], values=[0.0, 1.0, 0.5])
    assert V == PotentialSpec.sampled([0.0, 1.0, 2.0], [0.0, 1.0, 0.5], 2.0)
    assert cmath.isfinite(char_det(V, 1.0 + 1.0j, 0.3, 0.7))


def test_pieces_table_of_each_kind():
    assert PotentialSpec.zero(2.0).pieces == ((0.0, 2.0, 0.0, 0.0),)
    pc = PotentialSpec.piecewise_constant([1.0], [2.0, 5.0], 3.0)
    assert pc.pieces == ((0.0, 1.0, 2.0, 2.0), (1.0, 3.0, 5.0, 5.0))
    sp = PotentialSpec.sampled([0.0, 1.0, 2.0], [0.0, 4.0, 4.0], 2.0)
    assert sp.pieces == ((0.0, 1.0, 0.0, 4.0), (1.0, 2.0, 4.0, 4.0))


SPAN_V = PotentialSpec.sampled([0.0, 0.7, 1.5, 2.2, 3.0],
                               [0.5, 0.5, -1.0, 2.0, 0.0], 3.0)


def test_span_crosses_pieces_in_the_order_of_travel():
    V = SPAN_V
    right = V.span(0.3, 2.6)
    assert [(s, e) for s, e, _ in right] == [(0.3, 0.7), (0.7, 1.5),
                                             (1.5, 2.2), (2.2, 2.6)]
    assert tuple(p for _, _, p in right) == V.pieces
    # the leftward path is the rightward one reversed
    assert V.span(2.6, 0.3) == [(e, s, p) for s, e, p in reversed(right)]
    # a path inside one piece, and one that ends on a knot
    assert V.span(1.9, 1.6) == [(1.9, 1.6, V.pieces[2])]
    assert V.span(0.0, 0.7) == [(0.0, 0.7, V.pieces[0])]
    assert V.span(1.2, 1.2) == [] and V.span(0.7, 0.7) == []


@settings(max_examples=100)
@given(x0=st.floats(min_value=0.0, max_value=3.0),
       x1=st.floats(min_value=0.0, max_value=3.0))
def test_span_parts_join_up_to_the_path(x0, x1):
    parts = SPAN_V.span(x0, x1)
    ends = [x0] + [e for _, e, _ in parts]
    assert [s for s, _, _ in parts] == ends[:-1]
    assert ends[-1] == x1 or not parts
    assert sum(abs(e - s) for s, e, _ in parts) == pytest.approx(
        abs(x1 - x0), abs=1e-15)
    for s, e, (a, b, _, _) in parts:
        assert a <= min(s, e) < max(s, e) <= b


def test_potential_validation():
    with pytest.raises(DomainError):
        PotentialSpec.piecewise_constant([2.0, 1.0], [1, 2, 3], 3.0)
    with pytest.raises(DomainError):
        PotentialSpec.piecewise_constant([1.0], [1.0], 3.0)
    with pytest.raises(DomainError):
        PotentialSpec.sampled([0.0, 1.0], [1.0, 2.0], 2.0)
    with pytest.raises(DomainError):
        PotentialSpec.zero(-1.0)


def test_sqrt_branch():
    assert sqrt_upper(4.0) == 2.0
    assert sqrt_upper(-1.0) == 1j
    assert sqrt_upper(1j).imag > 0
    assert sqrt_upper(-1j).imag > 0


def test_f_collapses_at_zero_angles():
    # f(z, s, 0, 0) = -sin(sqrt(z) s)
    for z in (2.0 + 0.5j, -3.0, 1j):
        rt = sqrt_upper(z)
        assert closed_form_f(z, 1.3, 0.0, 0.0) == pytest.approx(
            -cmath.sin(rt * 1.3), rel=1e-13)


def test_f_frozen_value():
    # z=-1, s=pi, both angles 0: -sin(i pi) = -i sinh(pi)
    val = closed_form_f(-1.0, math.pi, 0.0, 0.0)
    assert val == pytest.approx(-1j * SINH_PI, rel=1e-14)


def test_g_frozen_value():
    # sqrt(z) cos(sqrt(z) s) at z=-1, s=pi: i cosh(pi)
    val = closed_form_g(-1.0, math.pi, 0.0, 0.0)
    assert val == pytest.approx(1j * COSH_PI, rel=1e-14)


@settings(max_examples=150)
@given(z=zs, s=lengths, a=angles, b=angles)
def test_f_symmetric_in_angles(z, s, a, b):
    fa = closed_form_f(z, s, a, b)
    fb = closed_form_f(z, s, b, a)
    assert cmath.isclose(fa, fb, rel_tol=1e-11, abs_tol=1e-11)


@settings(max_examples=150)
@given(z=zs, s=lengths, a=angles, b=angles)
def test_g_is_f_shifted(z, s, a, b):
    g = closed_form_g(z, s, a, b)
    f = closed_form_f(z, s, a + math.pi / 2.0, b)
    assert cmath.isclose(g, f, rel_tol=1e-11, abs_tol=1e-11)


def test_series_fallback_matches_direct_near_zero():
    # |z| = 1e-6 sits inside the series window for s ~ pi; compare against
    # the raw formula evaluated without any fallback
    for ang in ((0.3, 1.1), (0.0, 0.0), (2.2, 5.1)):
        for z in (1e-6, -1e-6, 1e-6j):
            s = 2.9
            a, b = ang
            rt = sqrt_upper(z)
            direct = (z * cmath.sin(a) * cmath.sin(b) * cmath.sin(rt * s)
                      + rt * cmath.sin(a + b) * cmath.cos(rt * s)
                      - cmath.cos(a) * cmath.cos(b) * cmath.sin(rt * s))
            val = closed_form_f(z, s, a, b)
            assert val == pytest.approx(direct, rel=1e-9, abs=1e-15)


def test_oracle_bdmap_zero_frozen_dirichlet():
    lam = oracle_bdmap_zero(-1.0, math.pi, 0.0, 0.0)
    expect = np.array([[-COTH_PI, 1.0 / SINH_PI],
                       [1.0 / SINH_PI, -COTH_PI]])
    assert np.max(np.abs(lam - expect)) < 1e-12


def test_oracle_bdmap_zero_symmetric_offdiag():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.3, 3))
        t0, tR = rng.uniform(0, 2 * math.pi, 2)
        lam = oracle_bdmap_zero(z, 2.0, t0, tR)
        assert lam[0][1] == lam[1][0]


def test_oracle_bdmap_zero_dirichlet_entry_is_cot():
    # entry (1,1) at theta0 = thetaR = 0 reduces to -sqrt(z) cot(sqrt(z) R)
    for z in (0.7 + 1.1j, -2.0, 3j):
        rt = sqrt_upper(z)
        lam = oracle_bdmap_zero(z, 1.7, 0.0, 0.0)
        assert lam[0][0] == pytest.approx(-rt / cmath.tan(rt * 1.7), rel=1e-11)


def test_oracle_bdmap_zero_eigenvalue_hit():
    with pytest.raises(EigenvalueHitError):
        oracle_bdmap_zero(1.0, math.pi, 0.0, 0.0)


def test_oracle_green_zero_frozen():
    g = oracle_green_zero(-1.0, math.pi, 0.0, 0.0, math.pi / 2, math.pi / 4)
    expect = math.sinh(math.pi / 4) * math.sinh(math.pi / 2) / math.sinh(math.pi)
    assert g == pytest.approx(expect, rel=1e-13)


def test_oracle_green_zero_symmetry_and_boundary():
    z = 0.4 + 0.9j
    assert oracle_green_zero(z, 2.0, 0.3, 1.1, 0.5, 1.7) == pytest.approx(
        oracle_green_zero(z, 2.0, 0.3, 1.1, 1.7, 0.5), rel=1e-14)
    # Dirichlet at 0: kernel vanishes on the boundary
    assert abs(oracle_green_zero(z, 2.0, 0.0, 1.1, 0.0, 1.2)) < 1e-15


@settings(max_examples=80)
@given(z=zs, a=angles, b=angles,
       x=st.floats(min_value=0.0, max_value=2.0),
       xp=st.floats(min_value=0.0, max_value=2.0))
def test_oracle_green_zero_symmetric_property(z, a, b, x, xp):
    try:
        g1 = oracle_green_zero(z, 2.0, a, b, x, xp)
        g2 = oracle_green_zero(z, 2.0, a, b, xp, x)
    except EigenvalueHitError:
        return
    assert g1 == g2  # min/max structure makes the swap exact


@pytest.mark.parametrize("z", [1e4j, 1e6j, 1e6 * (0.3 + 1j)])
def test_free_oracles_at_large_z(z):
    # they raised OverflowError at 1e6i; f and g are now evaluated scaled
    from bdm.bdmap import asymptotic_reference, bdmap_robin
    from bdm.resolvent import green
    from bdm.traces import AnglePair
    R, V = math.pi, PotentialSpec.zero(math.pi)
    lam = oracle_bdmap_zero(z, R, 1.0, 0.7)
    assert np.all(np.isfinite(lam))
    solved = bdmap_robin(V, R, AnglePair(1.0, 0.7), z).matrix
    assert np.max(np.abs(lam - solved)) < 1e-10 * np.max(np.abs(lam))
    ref = asymptotic_reference(AnglePair(1.0, 0.7), z, R)
    for i in (0, 1):
        assert abs(lam[i][i] / ref[i][i] - 1.0) < 3.0 * abs(z) ** -0.5
    for x, xp in ((1.3, 1.3), (0.0, 1.0), (2.9, 3.1), (0.2, 3.0)):
        g = oracle_green_zero(z, R, 0.35, 0.75, x, xp)
        assert cmath.isfinite(g)
        solved = green(V, R, AnglePair(0.35, 0.75), z, x, xp).value
        assert abs(g - solved) <= 1e-12 * abs(g)


def test_transfer_matrix_identity_at_equal_endpoints():
    V = PotentialSpec.piecewise_constant([1.0], [1.0, -2.0], 2.5)
    T = transfer_matrix_piecewise(V, 1.3 + 0.4j, 0.7, 0.7)
    assert np.max(np.abs(T - np.eye(2))) == 0.0


def test_transfer_matrix_free_rotation():
    V = PotentialSpec.piecewise_constant([], [0.0], math.pi)
    T = transfer_matrix_piecewise(V, 1.0, 0.0, math.pi)
    assert np.max(np.abs(T - np.array([[-1.0, 0.0], [0.0, -1.0]]))) < 1e-14


@settings(max_examples=60)
@given(v1=st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
       v2=st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
       z=zs, cut=st.floats(min_value=0.3, max_value=1.7))
def test_transfer_matrix_unimodular(v1, v2, z, cut):
    V = PotentialSpec.piecewise_constant([cut], [v1, v2], 2.0)
    T = transfer_matrix_piecewise(V, z, 0.0, 2.0)
    assert abs(np.linalg.det(T) - 1.0) < 1e-12 * max(1.0, np.max(np.abs(T)) ** 2)


def test_transfer_matrix_composes():
    V = PotentialSpec.piecewise_constant([0.8, 1.9], [1.0, -3.0 + 1j, 0.5], 3.0)
    z = 2.0 - 0.6j
    a, b, c = 0.2, 1.3, 2.7
    T_ac = transfer_matrix_piecewise(V, z, a, c)
    T_ab = transfer_matrix_piecewise(V, z, a, b)
    T_bc = transfer_matrix_piecewise(V, z, b, c)
    assert np.max(np.abs(T_ac - np.array(T_bc) @ T_ab)) < 1e-12 * np.max(np.abs(T_ac))


def test_transfer_matrix_rejects_sampled():
    V = PotentialSpec.sampled([0.0, 1.0], [1.0, 2.0], 1.0)
    with pytest.raises(DomainError):
        transfer_matrix_piecewise(V, 1.0, 0.0, 1.0)
