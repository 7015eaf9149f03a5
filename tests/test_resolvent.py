"""Green's function, trace-row kernels, adjoint trace kernel, Krein
corrections."""

import cmath
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from bdm.bdmap import bdmap_general
from bdm.errors import EigenvalueHitError
from bdm.potential import PotentialSpec
from bdm.resolvent import (adjoint_trace_kernel, gamma_resolvent_rows, green,
                           green_evaluator, krein_correction, krein_kernel,
                           lambda_times_s)
from bdm.spectrum import eig_selfadjoint
from bdm.traces import AnglePair, AngleQuad, diag_sin, quad, trace_gamma
from bdm.weyl import green_link_check, wt_matrix

R = math.pi
VFREE = PotentialSpec.zero(R)
VREAL = PotentialSpec.sampled([0.0, 1.0, 2.2, R], [0.3, -1.0, 0.8, 0.1], R)
VCPLX = PotentialSpec.sampled([0.0, 1.0, 2.2, R],
                              [0.3 + 0.2j, -1.0 + 0.5j, 0.8, 0.1 - 0.4j], R)

GREEN_FROZEN = math.sinh(math.pi / 4) * math.sinh(math.pi / 2) / math.sinh(math.pi)


def free_green(oracles, z, pair, xs):
    """G(x, x') of V = 0 at points of xs, from the oracles' trig solutions."""
    return oracles.Interior(oracles.pieces_of("zero", R), R, z, pair.theta0,
                            pair.thetaR, xs).green


def test_green_frozen_free_dirichlet():
    g = green(VFREE, R, AnglePair(0.0, 0.0), -1.0, math.pi / 2, math.pi / 4)
    assert g.value == pytest.approx(GREEN_FROZEN, rel=1e-9)


def test_green_symmetry():
    p = AnglePair(0.8, 2.4)
    a = green(VCPLX, R, p, 1j, 0.7, 2.3).value
    b = green(VCPLX, R, p, 1j, 2.3, 0.7).value
    assert a == pytest.approx(b, rel=1e-10)


def test_green_satisfies_boundary_conditions():
    p = AnglePair(0.8, 2.4)
    gk = green_evaluator(VREAL, R, p, 1j)
    xp = 1.9
    bdry = (gk(0.0, xp), gk.d1(0.0, xp), gk(R, xp), gk.d1(R, xp))
    g0, gR = trace_gamma(p, bdry)
    scale = max(abs(v) for v in bdry)
    assert abs(g0) < 1e-9 * scale
    assert abs(gR) < 1e-9 * scale


def test_green_matches_free_oracle_grid(oracles):
    p = AnglePair(0.6, 1.9)
    z = 0.8 + 1.4j
    gk = green_evaluator(VFREE, R, p, z)
    g = free_green(oracles, z, p, (0.0, 0.9, 2.2, R, 0.4, 1.7))
    for x in (0.0, 0.9, 2.2, R):
        for xp in (0.4, 1.7):
            expect = g(x, xp)
            assert gk(x, xp) == pytest.approx(expect, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("z", [100j, 300j, 1000j])
def test_green_large_imaginary_z_matches_free_oracle(z, oracles):
    # Im sqrt(z) R up to 70: u+/- start from unit data, so the relative step
    # control holds however small the normalized u+/- become
    p = AnglePair(0.35, 0.75)
    g = green(VFREE, R, p, z, 1.3, 1.3).value
    expect = free_green(oracles, z, p, [1.3])(1.3, 1.3)
    assert abs(g - expect) <= 1e-8 * abs(expect)


def test_krein_correction_large_imaginary_z_matches_free_oracles(oracles):
    # at z = 300i the correction near either endpoint is about 1e-3 of G,
    # so the difference of the two exact kernels is still a sharp reference
    base, primed = AnglePair(0.35, 0.75), AnglePair(1.5, 2.4)
    z = 300j
    xs = (0.2, 0.3, 2.9)
    g0, g1 = (free_green(oracles, z, p, xs) for p in (base, primed))
    for x, xp in ((0.2, 0.3), (2.9, 2.9)):
        c = krein_correction(VFREE, R, base, primed, z, x, xp)
        expect = g0(x, xp) - g1(x, xp)
        assert abs(c - expect) <= 1e-8 * abs(expect)



def test_krein_correction_where_the_scale_underflows(oracles):
    # at z = 1e6i, e^-(Im sqrt(z) R) underflows: u-(0), u+(R) and W are
    # formed as mantissas with their scales netted
    base, primed = AnglePair(0.35, 0.75), AnglePair(1.5, 2.4)
    z = 1e6j
    # mid-interval the exact correction (~e^-1300) underflows
    c = krein_correction(VFREE, R, base, primed, z, 1.3, 1.3)
    g = green(VFREE, R, base, z, 1.3, 1.3).value
    assert cmath.isfinite(c) and abs(c) <= 1e-12 * abs(g)
    # near either endpoint the correction is about 1e-3 of G
    xs = (0.001, 0.002, 3.14, 3.141)
    g0, g1 = (free_green(oracles, z, p, xs) for p in (base, primed))
    for x, xp in ((0.001, 0.002), (3.14, 3.141)):
        c = krein_correction(VFREE, R, base, primed, z, x, xp)
        g = green(VFREE, R, base, z, x, xp).value
        expect = g0(x, xp) - g1(x, xp)
        assert abs(c - expect) <= 1e-10 * abs(g)


def test_trace_kernels_where_the_scale_underflows():
    base, primed = AnglePair(0.35, 0.75), AnglePair(1.5, 2.4)
    z = 1e6j
    f = adjoint_trace_kernel(VFREE, R, base, primed, z, (1.0, 2.0))
    assert all(cmath.isfinite(f(x)) for x in (0.001, 1.3, 3.14))
    q = quad(base.theta0, base.thetaR, primed.theta0, primed.thetaR)
    ls = lambda_times_s(VFREE, R, q, z)
    assert np.all(np.isfinite(ls))
    d0, dR = q.diffs
    expect = bdmap_general(VFREE, R, q, z).matrix @ diag_sin(d0, dR)
    assert np.max(np.abs(ls - expect)) <= 1e-10 * np.max(np.abs(expect))

def test_gamma_rows_vanish_for_same_angles():
    k1, k2 = gamma_resolvent_rows(VCPLX, R, AnglePair(0.9, 0.4),
                                  AnglePair(0.9, 0.4), 0.7 + 1.3j)
    for x in (0.3, 1.5, 2.9):
        assert abs(k1(x)) < 1e-13
        assert abs(k2(x)) < 1e-13


def test_gamma_rows_scale_linearly_in_angle_difference():
    base = AnglePair(0.9, 0.4)
    z = 0.7 + 1.3j
    x = 1.3
    vals = []
    for eps in (1e-3, 1e-4):
        k1, _ = gamma_resolvent_rows(VREAL, R, base,
                                     AnglePair(0.9 + eps, 0.4), z)
        vals.append(abs(k1(x)))
    assert vals[1] == pytest.approx(vals[0] / 10.0, rel=1e-2)


def test_gamma_rows_quadrature_check():
    # applying (k1, k2) to f = ~u+/Delta reproduces the primed trace of the
    # quadrature-applied resolvent (Gauss-Legendre, 64 nodes)
    base, primed = AnglePair(0.9, 0.4), AnglePair(2.0, 5.0)
    z = 0.7 + 1.3j
    nodes, weights = leggauss(64)
    xs = 0.5 * R * (nodes + 1.0)
    ws = 0.5 * R * weights
    gk = green_evaluator(VREAL, R, base, z)
    fvals = [gk.over_delta(1, float(x)).u for x in xs]
    k1, k2 = gamma_resolvent_rows(VREAL, R, base, primed, z)
    lhs = (sum(w * k1(float(x)) * f for x, w, f in zip(xs, ws, fvals)),
           sum(w * k2(float(x)) * f for x, w, f in zip(xs, ws, fvals)))
    F0 = sum(w * gk(0.0, float(x)) * f for x, w, f in zip(xs, ws, fvals))
    dF0 = sum(w * gk.d1(0.0, float(x)) * f for x, w, f in zip(xs, ws, fvals))
    FR = sum(w * gk(R, float(x)) * f for x, w, f in zip(xs, ws, fvals))
    dFR = sum(w * gk.d1(R, float(x)) * f for x, w, f in zip(xs, ws, fvals))
    rhs = trace_gamma(primed, (F0, dF0, FR, dFR))
    assert abs(lhs[0] - rhs[0]) < 1e-6 * max(1.0, abs(rhs[0]))
    assert abs(lhs[1] - rhs[1]) < 1e-6 * max(1.0, abs(rhs[1]))


def test_adjoint_kernel_zero_vector():
    f = adjoint_trace_kernel(VCPLX, R, AnglePair(0.9, 0.4),
                             AnglePair(2.0, 5.0), 1j, (0.0, 0.0))
    assert all(f(x) == 0.0 for x in (0.2, 1.1, 3.0))


def test_adjoint_kernel_injective_selfadjoint():
    f = adjoint_trace_kernel(VREAL, R, AnglePair(0.9, 0.4),
                             AnglePair(2.0, 5.0), 1j, (0.3, -0.7))
    assert any(abs(f(x)) > 1e-6 for x in (0.4, 1.6, 2.8))


def test_trace_representation_assembly():
    # gamma_primed applied to the adjoint-trace columns equals Lambda * S
    rng = np.random.default_rng(17)
    for V in (VREAL, VCPLX):
        for _ in range(4):
            a = rng.uniform(0.2, 6.0, 4) + 1j * rng.uniform(-0.3, 0.3, 4)
            q = quad(*a)
            z = complex(rng.uniform(-2, 3), rng.uniform(0.6, 1.6))
            ls = lambda_times_s(V, R, q, z)
            lam = bdmap_general(V, R, q, z).matrix
            d0, dR = q.diffs
            expect = lam @ diag_sin(d0, dR)
            assert np.max(np.abs(ls - expect)) < 1e-8 * max(1.0, np.max(np.abs(expect)))


def test_trace_representation_factor_structure():
    # each assembled entry is sin(theta0'-theta0) resp. sin(thetaR'-thetaR)
    # times the matching map entry (column scaling)
    q = quad(0.8, 1.7, 2.1, 4.9)
    z = 0.4 + 1.1j
    ls = lambda_times_s(VREAL, R, q, z)
    lam = bdmap_general(VREAL, R, q, z).matrix
    d0, dR = q.diffs
    for j in range(2):
        assert ls[j][0] == pytest.approx(cmath.sin(d0) * lam[j, 0], rel=1e-10)
        assert ls[j][1] == pytest.approx(cmath.sin(dR) * lam[j, 1], rel=1e-10)


KREIN_CASES = [
    (AnglePair(0.0, 0.0), AnglePair(math.pi / 2, math.pi / 2)),  # both change
    (AnglePair(0.0, 0.0), AnglePair(0.0, math.pi / 3)),          # thetaR only
    (AnglePair(0.0, 0.0), AnglePair(1.1, 0.0)),                  # theta0 only
    (AnglePair(0.0, 0.0), AnglePair(0.0, math.pi)),   # same condition, by pi
    (AnglePair(0.0, 0.0), AnglePair(1.1, 1e-9)),      # thetaR moved by 1e-9
]


@pytest.mark.parametrize("base,primed", KREIN_CASES)
def test_krein_against_free_oracle(base, primed, oracles):
    z = 1j
    xs = [0.0, 0.6, 1.3, 2.1, 2.8]
    g0, g1 = (free_green(oracles, z, p, xs) for p in (base, primed))
    worst = 0.0
    for x in xs:
        for xp in xs:
            c = krein_correction(VFREE, R, base, primed, z, x, xp)
            worst = max(worst, abs(g1(x, xp) - (g0(x, xp) - c)))
    assert worst < 1e-8


def test_krein_boundary_value_mismatch(oracles):
    # Dirichlet base kernel vanishes at x = 0; the correction carries the
    # primed kernel's boundary value
    base, primed = AnglePair(0.0, 0.0), AnglePair(1.1, 0.0)
    z = 1j
    xp = 1.7
    c = krein_correction(VFREE, R, base, primed, z, 0.0, xp)
    g1 = free_green(oracles, z, primed, (0.0, xp))(0.0, xp)
    assert c == pytest.approx(-g1, rel=1e-8)


def test_krein_complex_data():
    base, primed = AnglePair(0.5, 2.0), AnglePair(1.4, 0.9)
    z = -1.0 + 2.0j
    g0 = green_evaluator(VCPLX, R, base, z)
    g1 = green_evaluator(VCPLX, R, primed, z)
    ker = krein_kernel(VCPLX, R, base, primed, z)
    for x in (0.3, 1.2, 2.6):
        for xp in (0.8, 2.1):
            assert abs(g1(x, xp) - (g0(x, xp) - ker(x, xp))) < 1e-8


def test_krein_degenerate_same_angles():
    p = AnglePair(0.5, 2.0)
    assert krein_kernel(VREAL, R, p, p, 1j) is None
    assert krein_correction(VREAL, R, p, p, 1j, 0.5, 1.0) == 0.0


# z on the spectrum of the pair itself: Neumann-Neumann at z = 0, and the
# second eigenvalue (about -1.40243) of (0.3, 0.7) on the free interval
ON_SPECTRUM = {
    "neumann-z0": lambda: (AnglePair(math.pi / 2, math.pi / 2),
                           AnglePair(0.3, 0.2), 0.0),
    "robin-second": lambda: (
        AnglePair(0.3, 0.7), AnglePair(1.0, 0.2),
        eig_selfadjoint(VFREE, R, AnglePair(0.3, 0.7), 2).eigenvalues[1].real),
}


@pytest.mark.parametrize("call", [
    lambda p, pr, z: green(VFREE, R, p, z, 1.0, 2.0),
    lambda p, pr, z: krein_correction(VFREE, R, p, pr, z, 1.0, 2.0),
    lambda p, pr, z: gamma_resolvent_rows(VFREE, R, p, pr, z),
    lambda p, pr, z: adjoint_trace_kernel(VFREE, R, p, pr, z, (1.0, 2.0)),
    lambda p, pr, z: lambda_times_s(VFREE, R, AngleQuad(p, pr), z),
], ids=["green", "krein_correction", "gamma_resolvent_rows",
        "adjoint_trace_kernel", "lambda_times_s"])
@pytest.mark.parametrize("case", sorted(ON_SPECTRUM))
def test_on_spectrum_is_eigenvalue_hit(case, call):
    pair, primed, z = ON_SPECTRUM[case]()
    with pytest.raises(EigenvalueHitError) as err:
        call(pair, primed, z)
    # the pair's own spectrum, not an auxiliary normalization
    assert type(err.value) is EigenvalueHitError
    assert err.value.operator == f"H_{{{pair.theta0},{pair.thetaR}}}"


def test_auxiliary_eigenvalue_free_matches_closed_forms(oracles):
    # mu (about 1.22064) is an eigenvalue of H_{0.3,0} only: G, the Krein
    # correction, M_alpha and the Robin-map/Green links all hold there
    pair, primed = AnglePair(0.3, 0.7), AnglePair(1.5, 2.4)
    mu = eig_selfadjoint(VFREE, R, AnglePair(0.3, 0.0), 2).eigenvalues[1].real
    xs = (0.5, 1.0, 1.3, 2.0, 2.2, 2.7)
    kernels = {p: free_green(oracles, mu, p, xs) for p in (pair, primed)}

    def g(p, x, xp):
        return kernels[p](x, xp)

    for x, xp in ((1.0, 2.0), (1.3, 1.3), (0.5, 2.7)):
        assert green(VFREE, R, pair, mu, x, xp).value == pytest.approx(
            g(pair, x, xp), rel=1e-12)
        assert krein_correction(VFREE, R, pair, primed, mu, x, xp) == (
            pytest.approx(g(pair, x, xp) - g(primed, x, xp), rel=1e-12))
    for x0 in (1.3, 2.2):
        # the (1,1) entry of M_0(z, x0) is G(z, x0, x0)
        m = wt_matrix(VFREE, R, mu, x0, pair).matrix
        assert m[0, 0] == pytest.approx(g(pair, x0, x0), rel=1e-12)
    assert all(v < 1e-8 for v in green_link_check(VFREE, R, pair, mu).values())


def test_auxiliary_eigenvalue_sampled_matches_airy_oracle(oracles):
    pair, primed = AnglePair(0.3, 0.7), AnglePair(1.5, 2.4)
    mu = eig_selfadjoint(VREAL, R, AnglePair(0.3, 0.0), 2).eigenvalues[1].real
    pieces = oracles.pieces_of("sampled", R, values=VREAL.values,
                               grid=VREAL.grid)
    xs = [0.5, 1.3, 2.7]
    ref = oracles.Interior(pieces, R, mu, pair.theta0, pair.thetaR, xs)
    ref_primed = oracles.Interior(pieces, R, mu, primed.theta0,
                                  primed.thetaR, xs)
    for x in xs:
        for xp in xs:
            expect = ref.green(x, xp)
            assert abs(green(VREAL, R, pair, mu, x, xp).value - expect) <= (
                1e-8 * abs(expect))
            expect = expect - ref_primed.green(x, xp)
            got = krein_correction(VREAL, R, pair, primed, mu, x, xp)
            assert abs(got - expect) <= 1e-8 * abs(expect)
    for x0 in xs:
        expect = oracles.wt_matrix_ref(*ref.log_derivs(x0), 0.4)
        got = wt_matrix(VREAL, R, mu, x0, pair, 0.4).matrix
        assert np.max(np.abs(got - expect)) <= 1e-8 * np.max(np.abs(expect))
    assert all(v < 1e-8 for v in green_link_check(VREAL, R, pair, mu).values())
