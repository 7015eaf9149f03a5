"""Argument checks: non-finite, huge or malformed inputs are a DomainError
before any propagation, never a NaN result or an untyped exception."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdm import odecore
from bdm.bdmap import bdmap_robin
from bdm.errors import BdmError, DomainError
from bdm.potential import PotentialSpec
from bdm.resolvent import green
from bdm.spectrum import count_zeros_rectangle, eig_rectangle, eig_selfadjoint
from bdm.traces import AnglePair, normalize_strip
from bdm.weyl import interior_m, wt_m, wt_matrix

R = math.pi
V0 = PotentialSpec.zero(R)
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("theta", [INF, NAN, complex(0.3, NAN), -INF,
                                   complex(1.0, 360.0), complex(1.0, -800.0)],
                         ids=["inf", "nan", "nan-im", "-inf", "im-360",
                              "im-minus-800"])
def test_bad_angle_is_domain_error(theta):
    with pytest.raises(DomainError):
        AnglePair(theta, 0.5)
    with pytest.raises(DomainError):
        AnglePair(0.5, theta)


def test_angle_imaginary_part_bound_is_inclusive():
    m = bdmap_robin(V0, R, AnglePair(1 + 350j, 0.5 - 350j), 1j).matrix
    assert np.all(np.isfinite(m))


def test_map_and_green_reject_bad_angles():
    with pytest.raises(DomainError):
        bdmap_robin(V0, R, AnglePair(1 + 360j, 0.5 + 360j), 1j)
    with pytest.raises(DomainError):
        green(V0, R, AnglePair(complex(0.3, NAN), 0.7), 1j, 1.0, 2.0)


@pytest.mark.parametrize("x", [1e300, -1e300, 1.7e308, -1.7e308, 1e16])
def test_normalize_strip_huge_real_part(x):
    # the shift is exact (fmod), so it lands in the strip in one step
    n = normalize_strip(complex(x, 2.0))
    assert 0.0 <= n.real < 2 * math.pi and n.imag == 2.0


def test_sampled_grid_with_nan_is_domain_error():
    with pytest.raises(DomainError):
        PotentialSpec.sampled([0.0, NAN, 1.0], [0.0, 5.0, 0.0], 1.0)


@pytest.mark.parametrize("rect", [(5.0, 0.5, -1, 1), (0.5, 5.0, NAN, 1),
                                  (0.0, INF, -1, 1), (0.0, 5.0, -INF, 1)],
                         ids=["inverted", "nan", "inf", "minus-inf"])
@pytest.mark.parametrize("call", [count_zeros_rectangle, eig_rectangle])
def test_bad_rectangle_is_domain_error(call, rect):
    with pytest.raises(DomainError, match="positive extent"):
        call(V0, R, AnglePair(0, 0), rect)


def test_wt_m_rejects_bad_frame_angles():
    for xi, eta in ((NAN, 0.3), (0.3, complex(0.0, 400.0))):
        with pytest.raises(DomainError):
            wt_m(V0, R, 1j, 1.0, xi, 2.0, eta)


def test_complex_alpha_with_zero_imaginary_part_is_its_real_part():
    pair = AnglePair(0.3, 0.7)
    assert interior_m(V0, R, 1j, 1.0, 1, pair, 0.5 + 0j) == interior_m(
        V0, R, 1j, 1.0, 1, pair, 0.5)
    m = wt_matrix(V0, R, 1j, 1.0, pair, 0.5 + 0j)
    assert np.array_equal(m.matrix, wt_matrix(V0, R, 1j, 1.0, pair, 0.5).matrix)
    assert m.alpha == 0.5 and isinstance(m.alpha, float)


def test_non_integer_n_max_is_domain_error():
    with pytest.raises(DomainError, match="positive integer"):
        eig_selfadjoint(V0, R, AnglePair(0, 0), 2.5)


# floats and complex numbers with nan, +-inf and huge values; the angle
# draws also cover imaginary parts on both sides of the bound
wild = st.floats()
wild_complex = st.one_of(
    wild, st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.builds(complex, wild, st.floats(min_value=-400.0, max_value=400.0)))


def _valid_alpha(a) -> bool:
    a = complex(a)
    return a.imag == 0.0 and 0.0 <= a.real < math.pi


@settings(max_examples=100, deadline=None)
@given(t0=wild_complex, tR=wild_complex, g=wild,
       corners=st.tuples(wild, wild, wild, wild),
       alpha=wild_complex.filter(lambda a: not _valid_alpha(a)),
       n_max=st.one_of(wild, st.integers(max_value=0)))
def test_wild_inputs_give_finite_values_or_bdm_errors(t0, tR, g, corners,
                                                      alpha, n_max):
    # every call is rejected before any propagation, except one Robin map
    # at z = 1j on V = 0
    inner, calls = odecore._propagate_vec, []

    def counted(*args):
        calls.append(args)
        return inner(*args)

    pair = AnglePair(0.3, 0.7)
    a, d, c, e = corners
    with mock.patch.object(odecore, "_propagate_vec", counted):
        try:
            PotentialSpec.sampled([0.0, g, 1.0], [0.0, 5.0, 0.0], 1.0)
        except DomainError:
            pass
        # re1 <= re0 or a NaN: never a positive extent
        with pytest.raises(DomainError):
            count_zeros_rectangle(V0, R, pair, (a, a - abs(d), c, e))
        with pytest.raises(DomainError):
            interior_m(V0, R, 1j, 1.0, 1, pair, alpha)
        with pytest.raises(DomainError):
            wt_matrix(V0, R, 1j, 1.0, pair, alpha)
        with pytest.raises(DomainError):
            eig_selfadjoint(V0, R, AnglePair(0, 0), n_max)
        try:
            drawn = AnglePair(t0, tR)
        except DomainError:
            drawn = None
        assert calls == []
        if drawn is not None:
            try:
                m = bdmap_robin(V0, R, drawn, 1j).matrix
            except BdmError:
                return
            assert all(cmath.isfinite(v) for v in m.ravel())
