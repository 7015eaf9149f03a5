"""Potential representations, and bdm's free-problem values and
piecewise-constant transfer matrices pinned against closed forms."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm.bdmap import asymptotic_reference, bdmap_robin
from bdm.errors import DomainError, EigenvalueHitError
from bdm.odecore import CauchyData, char_det, propagate
from bdm.potential import PotentialSpec, sqrt_upper
from bdm.resolvent import green
from bdm.traces import AnglePair

# frozen from the independent sinh/cosh closed forms
SINH_PI = 11.548739357257748
COSH_PI = 11.591953275521519
COTH_PI = COSH_PI / SINH_PI

angles = st.complex_numbers(min_magnitude=0.0, max_magnitude=6.0,
                            allow_nan=False, allow_infinity=False)
zs = st.complex_numbers(min_magnitude=1e-3, max_magnitude=30.0,
                        allow_nan=False, allow_infinity=False)
lengths = st.floats(min_value=0.05, max_value=4.0)


def test_direct_construction_with_lists_is_hashable():
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
    # a field the kind does not use would be read as data: zero with
    # values (5,) is V = 5
    for kind, fields in [
            ("zero", {"values": (5.0,)}),
            ("zero", {"breakpoints": (1.0,)}),
            ("zero", {"grid": (0.0, 2.0)}),
            ("piecewise_constant", {"values": (1.0,), "grid": (0.0, 2.0)}),
            ("sampled", {"grid": (0.0, 2.0), "values": (1.0, 2.0),
                         "breakpoints": (1.0,)})]:
        with pytest.raises(DomainError, match="takes no"):
            PotentialSpec(kind, 2.0, **fields)


def test_sqrt_branch():
    assert sqrt_upper(4.0) == 2.0
    assert sqrt_upper(-1.0) == 1j
    assert sqrt_upper(1j).imag > 0
    assert sqrt_upper(-1j).imag > 0


# The free problem on [0, s] has the closed forms
#     f(z, s, a, b) = z sin a sin b sin(sqrt(z) s) - cos a cos b sin(sqrt(z) s)
#                     + sqrt(z) sin(a + b) cos(sqrt(z) s),
#     g(z, s, a, b) = f(z, s, a + pi/2, b),
# with f = -sqrt(z) Delta(a, b): the tests on f and g pin bdm's Delta.

def _f_free(z, s, a, b):
    return -sqrt_upper(z) * char_det(PotentialSpec.zero(s), z, a, b)


def test_f_collapses_at_zero_angles():
    # f(z, s, 0, 0) = -sin(sqrt(z) s)
    for z in (2.0 + 0.5j, -3.0, 1j):
        rt = sqrt_upper(z)
        assert _f_free(z, 1.3, 0.0, 0.0) == pytest.approx(
            -cmath.sin(rt * 1.3), rel=1e-13)


def test_f_frozen_value():
    # z=-1, s=pi, both angles 0: -sin(i pi) = -i sinh(pi)
    val = _f_free(-1.0, math.pi, 0.0, 0.0)
    assert val == pytest.approx(-1j * SINH_PI, rel=1e-14)


def test_g_frozen_value():
    # sqrt(z) cos(sqrt(z) s) at z=-1, s=pi: i cosh(pi)
    val = _f_free(-1.0, math.pi, math.pi / 2.0, 0.0)
    assert val == pytest.approx(1j * COSH_PI, rel=1e-14)


@settings(max_examples=150)
@given(z=zs, s=lengths, a=angles, b=angles)
def test_f_symmetric_in_angles(z, s, a, b):
    # V = 0 is symmetric about s/2, so Delta is symmetric in the angles
    fa = _f_free(z, s, a, b)
    fb = _f_free(z, s, b, a)
    assert cmath.isclose(fa, fb, rel_tol=1e-11, abs_tol=1e-11)


def test_series_fallback_matches_direct_near_zero():
    # |z| = 1e-6 on [0, 2.9]: against the raw formula for f
    for ang in ((0.3, 1.1), (0.0, 0.0), (2.2, 5.1)):
        for z in (1e-6, -1e-6, 1e-6j):
            s = 2.9
            a, b = ang
            rt = sqrt_upper(z)
            direct = (z * cmath.sin(a) * cmath.sin(b) * cmath.sin(rt * s)
                      + rt * cmath.sin(a + b) * cmath.cos(rt * s)
                      - cmath.cos(a) * cmath.cos(b) * cmath.sin(rt * s))
            val = _f_free(z, s, a, b)
            assert val == pytest.approx(direct, rel=1e-9, abs=1e-15)


def test_oracle_bdmap_zero_frozen_dirichlet():
    lam = bdmap_robin(PotentialSpec.zero(math.pi), math.pi,
                      AnglePair(0.0, 0.0), -1.0).entries
    expect = ((-COTH_PI, 1.0 / SINH_PI), (1.0 / SINH_PI, -COTH_PI))
    assert max(abs(lam[i][j] - expect[i][j])
               for i in range(2) for j in range(2)) < 1e-12


def test_oracle_bdmap_zero_symmetric_offdiag():
    rng = random.Random(11)
    V = PotentialSpec.zero(2.0)
    for _ in range(20):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.3, 3))
        t0, tR = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        lam = bdmap_robin(V, 2.0, AnglePair(t0, tR), z).entries
        assert lam[0][1] == lam[1][0]


def test_oracle_bdmap_zero_dirichlet_entry_is_cot():
    # entry (1,1) at theta0 = thetaR = 0 reduces to -sqrt(z) cot(sqrt(z) R)
    V = PotentialSpec.zero(1.7)
    for z in (0.7 + 1.1j, -2.0, 3j):
        rt = sqrt_upper(z)
        lam = bdmap_robin(V, 1.7, AnglePair(0.0, 0.0), z).entries
        assert lam[0][0] == pytest.approx(-rt / cmath.tan(rt * 1.7), rel=1e-11)


def test_oracle_bdmap_zero_eigenvalue_hit():
    # z = 1 is a Neumann eigenvalue of V = 0 on [0, pi]
    with pytest.raises(EigenvalueHitError):
        bdmap_robin(PotentialSpec.zero(math.pi), math.pi,
                    AnglePair(math.pi / 2, math.pi / 2), 1.0)


def test_oracle_green_zero_frozen():
    g = green(PotentialSpec.zero(math.pi), math.pi, AnglePair(0.0, 0.0), -1.0,
              math.pi / 2, math.pi / 4).value
    expect = math.sinh(math.pi / 4) * math.sinh(math.pi / 2) / math.sinh(math.pi)
    assert g == pytest.approx(expect, rel=1e-13)


def test_oracle_green_zero_symmetry_and_boundary():
    V, z = PotentialSpec.zero(2.0), 0.4 + 0.9j
    p = AnglePair(0.3, 1.1)
    assert green(V, 2.0, p, z, 0.5, 1.7).value == pytest.approx(
        green(V, 2.0, p, z, 1.7, 0.5).value, rel=1e-14)
    # Dirichlet at 0: kernel vanishes on the boundary
    assert abs(green(V, 2.0, AnglePair(0.0, 1.1), z, 0.0, 1.2).value) < 1e-15


@settings(max_examples=80)
@given(z=zs, a=angles, b=angles,
       x=st.floats(min_value=0.0, max_value=2.0),
       xp=st.floats(min_value=0.0, max_value=2.0))
def test_oracle_green_zero_symmetric_property(z, a, b, x, xp):
    V, p = PotentialSpec.zero(2.0), AnglePair(a, b)
    try:
        g1 = green(V, 2.0, p, z, x, xp).value
        g2 = green(V, 2.0, p, z, xp, x).value
    except EigenvalueHitError:
        return
    assert g1 == g2  # min/max structure makes the swap exact


@pytest.mark.parametrize("z", [1e4j, 1e6j, 1e6 * (0.3 + 1j)])
def test_free_oracles_at_large_z(z, oracles):
    R, V = math.pi, PotentialSpec.zero(math.pi)
    pieces = oracles.pieces_of("zero", R)
    ref = oracles.bdmap_ref(pieces, R, (1.0, 0.7, 1.0 + math.pi / 2,
                                        0.7 + math.pi / 2), z)
    lam = bdmap_robin(V, R, AnglePair(1.0, 0.7), z).matrix
    assert np.all(np.isfinite(lam))
    assert np.max(np.abs(lam - ref)) < 1e-10 * np.max(np.abs(ref))
    asym = asymptotic_reference(AnglePair(1.0, 0.7), z, R)
    for i in (0, 1):
        assert abs(lam[i][i] / asym[i][i] - 1.0) < 3.0 * abs(z) ** -0.5
    xy = ((1.3, 1.3), (0.0, 1.0), (2.9, 3.1), (0.2, 3.0))
    interior = oracles.Interior(pieces, R, z, 0.35, 0.75,
                                [x for pair in xy for x in pair])
    for x, xp in xy:
        g = green(V, R, AnglePair(0.35, 0.75), z, x, xp).value
        expect = interior.green(x, xp)
        assert cmath.isfinite(g)
        assert abs(g - expect) <= 1e-12 * abs(expect)


def _transfer(V, z, a, b):
    """bdm's propagator T(a -> b): its columns carry the data (1, 0) and
    (0, 1) at a to b."""
    cols = [propagate(V, z, CauchyData(u, du, a), b) for u, du in ((1, 0), (0, 1))]
    return np.array([[cols[0].u, cols[1].u], [cols[0].du, cols[1].du]])


def test_transfer_matrix_identity_at_equal_endpoints():
    V = PotentialSpec.piecewise_constant([1.0], [1.0, -2.0], 2.5)
    T = _transfer(V, 1.3 + 0.4j, 0.7, 0.7)
    assert np.max(np.abs(T - np.eye(2))) == 0.0


def test_transfer_matrix_free_rotation():
    V = PotentialSpec.piecewise_constant([], [0.0], math.pi)
    T = _transfer(V, 1.0, 0.0, math.pi)
    assert np.max(np.abs(T - np.array([[-1.0, 0.0], [0.0, -1.0]]))) < 1e-14


@settings(max_examples=60)
@given(v1=st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
       v2=st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False),
       z=zs, cut=st.floats(min_value=0.3, max_value=1.7))
def test_transfer_matrix_unimodular(v1, v2, z, cut):
    V = PotentialSpec.piecewise_constant([cut], [v1, v2], 2.0)
    T = _transfer(V, z, 0.0, 2.0)
    assert abs(np.linalg.det(T) - 1.0) < 1e-12 * max(1.0, np.max(np.abs(T)) ** 2)


def test_transfer_matrix_composes():
    V = PotentialSpec.piecewise_constant([0.8, 1.9], [1.0, -3.0 + 1j, 0.5], 3.0)
    z = 2.0 - 0.6j
    a, b, c = 0.2, 1.3, 2.7
    T_ac = _transfer(V, z, a, c)
    T_ab = _transfer(V, z, a, b)
    T_bc = _transfer(V, z, b, c)
    assert np.max(np.abs(T_ac - T_bc @ T_ab)) < 1e-12 * np.max(np.abs(T_ac))
