"""Eigenvalue localization: real-line bracketing and contour counting."""

import math

import pytest

from bdm.errors import ContourError, DomainError, SearchFailureError
from bdm.odecore import char_det, delta_from_fs, fundamental_system
from bdm.potential import PotentialSpec, unscale
from bdm.spectrum import (_delta_fn, count_zeros_rectangle, eig_rectangle,
                          eig_selfadjoint)
from bdm.traces import AnglePair

VFREE = PotentialSpec.zero(math.pi)
VBUMP = PotentialSpec.sampled([0.0, 0.6, 1.4, 2.3, math.pi],
                              [0.0, 0.9, 0.5, 1.1, 0.0], math.pi)


def test_free_dirichlet_eigenvalues():
    res = eig_selfadjoint(VFREE, math.pi, AnglePair(0.0, 0.0), 5)
    expect = [1.0, 4.0, 9.0, 16.0, 25.0]
    for lam, e in zip(res.eigenvalues, expect):
        assert abs(lam - e) < 1e-10


def test_free_mixed_eigenvalues():
    res = eig_selfadjoint(VFREE, math.pi, AnglePair(0.0, math.pi / 2), 4)
    expect = [0.25, 2.25, 6.25, 12.25]
    for lam, e in zip(res.eigenvalues, expect):
        assert abs(lam - e) < 1e-10


def test_constant_shift():
    c = 2.5
    V = PotentialSpec.piecewise_constant([], [c], math.pi)
    res = eig_selfadjoint(V, math.pi, AnglePair(0.0, 0.0), 4)
    for n, lam in enumerate(res.eigenvalues, start=1):
        assert abs(lam - (n * n + c)) < 1e-9


def test_reported_residuals_are_small():
    res = eig_selfadjoint(VBUMP, math.pi, AnglePair(0.4, 1.2), 4)
    assert all(r < 1e-8 for r in res.residuals)
    assert len(set(round(e.real, 6) for e in res.eigenvalues)) == 4


def test_negative_robin_eigenvalues_found():
    res = eig_selfadjoint(VFREE, math.pi, AnglePair(1.0, 1.0), 3,
                          verify_counts=True)
    assert res.eigenvalues[0].real < 0.0


def test_selfadjoint_rejects_complex_input():
    with pytest.raises(DomainError):
        eig_selfadjoint(VFREE, math.pi, AnglePair(1.0 + 0.1j, 0.0), 3)
    vc = PotentialSpec.piecewise_constant([], [1j], math.pi)
    with pytest.raises(DomainError):
        eig_selfadjoint(vc, math.pi, AnglePair(0.0, 0.0), 3)


def test_rectangle_free_dirichlet():
    res = eig_rectangle(VFREE, math.pi, AnglePair(0.0, 0.0),
                        (0.5, 4.5, -1.0, 1.0))
    assert len(res) == 2
    assert abs(res.eigenvalues[0] - 1.0) < 1e-9
    assert abs(res.eigenvalues[1] - 4.0) < 1e-9


def test_rectangle_complex_shift():
    V = PotentialSpec.piecewise_constant([], [1j], math.pi)
    res = eig_rectangle(V, math.pi, AnglePair(0.0, 0.0),
                        (0.5, 9.5, 0.2, 1.8))
    expect = [1 + 1j, 4 + 1j, 9 + 1j]
    assert len(res) == 3
    for lam, e in zip(res.eigenvalues, expect):
        assert abs(lam - e) < 1e-8


def test_rectangle_empty_below_spectrum():
    res = eig_rectangle(VFREE, math.pi, AnglePair(0.0, 0.0),
                        (-8.0, 0.5, -1.0, 1.0))
    assert len(res) == 0


def test_counting_consistency():
    pair = AnglePair(0.7, 2.1)
    res = eig_selfadjoint(VBUMP, math.pi, pair, 4)
    lo = res.eigenvalues[0].real - 0.5
    hi = res.eigenvalues[-1].real + 0.5
    n = count_zeros_rectangle(VBUMP, math.pi, pair, (lo, hi, -0.5, 0.5))
    assert n == 4


def test_dirichlet_neumann_interlacing():
    d = eig_selfadjoint(VBUMP, math.pi, AnglePair(0.0, 0.0), 4)
    n = eig_selfadjoint(VBUMP, math.pi,
                        AnglePair(3 * math.pi / 2, 3 * math.pi / 2), 6)
    mu = [e.real for e in n.eigenvalues]
    lam = [e.real for e in d.eigenvalues]
    # changing both ends is a rank-two resolvent perturbation:
    # mu_k <= lam_k <= mu_(k+2)
    for k in range(4):
        assert mu[k] <= lam[k] + 1e-9
        assert lam[k] <= mu[k + 2] + 1e-9


def test_single_end_change_interlaces_strictly():
    # Dirichlet -> Neumann at one end only is rank one: one-step interlacing
    d = eig_selfadjoint(VBUMP, math.pi, AnglePair(0.0, 0.0), 4)
    m = eig_selfadjoint(VBUMP, math.pi, AnglePair(0.0, 3 * math.pi / 2), 5)
    mu = [e.real for e in m.eigenvalues]
    lam = [e.real for e in d.eigenvalues]
    for k in range(4):
        assert mu[k] <= lam[k] + 1e-9
        assert lam[k] <= mu[k + 1] + 1e-9


def test_zero_on_contour_raises():
    with pytest.raises(ContourError) as err:
        count_zeros_rectangle(VFREE, math.pi, AnglePair(0.0, 0.0),
                              (1.0, 4.5, -1.0, 1.0))
    assert err.value.suggested_inflation > 1.0


def test_winding_robust_to_many_zeros():
    # a tall window around several close zeros must still count exactly
    n = count_zeros_rectangle(VFREE, math.pi, AnglePair(0.0, 0.0),
                              (0.5, 30.0, -1.0, 1.0))
    assert n == 5  # 1, 4, 9, 16, 25


def test_rectangle_agrees_with_real_line_search():
    pair = AnglePair(0.7, 2.1)
    line = eig_selfadjoint(VBUMP, math.pi, pair, 3)
    lo = line.eigenvalues[0].real - 0.4
    hi = line.eigenvalues[-1].real + 0.4
    rect = eig_rectangle(VBUMP, math.pi, pair, (lo, hi, -0.5, 0.5))
    assert len(rect) == 3
    for a, b in zip(line.eigenvalues, rect.eigenvalues):
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_rectangle_survives_zero_on_split_midline():
    # quadrisecting (0.5, 7.5) puts the first midline exactly on the zero
    # at 4; the splitter must jitter and still isolate both roots
    res = eig_rectangle(VFREE, math.pi, AnglePair(0.0, 0.0),
                        (0.5, 7.5, -1.0, 1.0))
    assert len(res) == 2
    assert abs(res.eigenvalues[0] - 1.0) < 1e-8
    assert abs(res.eigenvalues[1] - 4.0) < 1e-8


def test_rectangle_refines_cell_when_newton_escapes():
    # Newton started at the centre of the one-zero cell around 7.17 leaves
    # the cell; the cell is quadrisected again instead of its centre being
    # reported as an eigenvalue
    V = PotentialSpec.piecewise_constant(
        [1.1, 2.0], [0.6413 + 0.1572j, -0.3925 - 0.0831j, 0.3802 - 0.3579j],
        math.pi)
    res = eig_rectangle(V, math.pi, AnglePair(0.35 + 0.0371j, 0.75),
                        (-2, 20, -2, 2), tol=1e-10)
    assert min(abs(lam - (7.16741931143335 + 0.00924110712547899j))
               for lam in res.eigenvalues) < 1e-8
    assert 3.5 + 1j not in res.eigenvalues


def test_deep_well_scan_finishes():
    # V = -400 on [1, 2]: the search reaches E ~ -6.4e5, where Delta is
    # ~e^2500; on the scaled Delta it completes in well under a second (it
    # took minutes before).  Only completion is pinned here; the values are
    # checked against real_eigs_ref by test_deep_well_close_pair_found.
    V = PotentialSpec.piecewise_constant([1.0, 2.0], [0.0, -400.0, 0.0], math.pi)
    res = eig_selfadjoint(V, math.pi, AnglePair(0.0, 0.0), 3)
    assert len(res) == 3
    assert all(math.isfinite(lam.real) for lam in res.eigenvalues)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("search", [
    lambda tol: eig_selfadjoint(VBUMP, math.pi, AnglePair(0.7, 2.1), 3, tol),
    lambda tol: eig_rectangle(VFREE, math.pi, AnglePair(0.0, 0.0),
                              (0.5, 5.0, -1.0, 1.0), tol),
    lambda tol: count_zeros_rectangle(VFREE, math.pi, AnglePair(0.0, 0.0),
                                      (0.5, 5.0, -1.0, 1.0), tol),
], ids=["eig_selfadjoint", "eig_rectangle", "count_zeros_rectangle"])
def test_bad_tol_rejected_before_any_propagation(search, tol, monkeypatch):
    # spectrum binds _propagate_vec by name: patch both bindings
    from bdm import odecore, spectrum
    calls = []
    inner = odecore._propagate_vec

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(odecore, "_propagate_vec", counted)
    monkeypatch.setattr(spectrum, "_propagate_vec", counted)
    with pytest.raises(DomainError):
        search(tol)
    assert calls == []


def _check_against_reference(oracles, V, pair, n, tol, expect=None):
    res = eig_selfadjoint(V, V.R, pair, n, tol)
    pieces = oracles.pieces_of(V.kind, V.R, V.breakpoints, V.values, V.grid)
    ref = oracles.real_eigs_ref(pieces, V.R, pair.theta0.real,
                                pair.thetaR.real, n)
    assert len(res) == n
    for lam, r in zip(res.eigenvalues, ref):
        assert lam.imag == 0.0
        assert abs(lam.real - r) <= 100 * tol * max(1.0, abs(r))
    for lam, e in zip(res.eigenvalues, expect or ()):
        assert lam.real == pytest.approx(e, abs=5e-3)
    assert res.window.startswith("real line [")
    assert "N(E_lo)=0" in res.window


def test_deep_well_close_pair_found(oracles):
    # the lowest pair, -391.85 and -367.46, is a close pair: Delta keeps its
    # sign across any interval that holds both
    V = PotentialSpec.piecewise_constant([1.0, 2.0], [0.0, -400.0, 0.0],
                                         math.pi)
    _check_against_reference(oracles, V, AnglePair(0.0, 0.0), 5, 1e-10,
                             [-391.85, -367.46, -327.03, -270.99, -200.12])


def test_robin_bound_states_found(oracles):
    # the cli workload's seed-105 eig config: two Robin bound states 0.89
    # apart, below a sampled bump
    V = PotentialSpec.sampled(
        [0.0, 0.8, 1.6, 2.4, math.pi],
        [0.0, 0.7235277306553369, 0.10245466563879863, 0.7657486789910927,
         0.0], math.pi)
    _check_against_reference(oracles, V, AnglePair(0.9590439908395737,
                                          0.7321010158818426), 5, 1e-10,
                             [-0.93554, -0.04260])


def test_long_interval_finds_every_eigenvalue(oracles):
    # a long interval: a Robin bound state near -9.45 and many close well
    # states between -2 and 5
    V = PotentialSpec.piecewise_constant([7.0, 15.0, 22.0],
                                         [1.0, -2.0, 0.5, 3.0], 30.0)
    _check_against_reference(oracles, V, AnglePair(0.3, 2.0), 20, 1e-10)


def test_long_sampled_interval_finds_every_eigenvalue(oracles):
    # every piece is sloped: each Delta is a DP54 sweep across [0, 30]
    V = PotentialSpec.sampled([0.0, 7.0, 15.0, 22.0, 30.0],
                              [1.0, -2.0, 0.5, 3.0, 0.0], 30.0)
    _check_against_reference(oracles, V, AnglePair(0.5, 1.0), 12, 1e-10)


# shaped like the spectrum workload's sampled Robin n = 10 problem
VROBIN = PotentialSpec.sampled([0.0, 0.6, 1.2, 1.9, 2.5, math.pi],
                               [-1.0, 0.5, 1.5, 0.0, -0.5, 1.0], math.pi)


def _record_search_work(monkeypatch):
    """(angles, sweeps): each Prufer angle computed, and the (z, tol) of
    each Delta sweep, that is each propagation made outside an angle."""
    from bdm import spectrum
    angles, sweeps, inside = [], [], []
    inner_angle, inner_propagate = (spectrum._prufer_angle,
                                    spectrum._propagate_vec)

    def angle(*args):
        angles.append(args)
        inside.append(args)
        try:
            return inner_angle(*args)
        finally:
            inside.pop()

    def propagate(V, z, x0, y0, x1, tol, *rest):
        if not inside:
            sweeps.append((z, tol))
        return inner_propagate(V, z, x0, y0, x1, tol, *rest)

    monkeypatch.setattr(spectrum, "_prufer_angle", angle)
    monkeypatch.setattr(spectrum, "_propagate_vec", propagate)
    return angles, sweeps


def test_search_work_is_bounded(monkeypatch):
    tol, n = 1e-8, 10
    angles, sweeps = _record_search_work(monkeypatch)
    res = eig_selfadjoint(VROBIN, math.pi, AnglePair(0.9, 2.2), n, tol)
    tight = [z for z, t in sweeps if t == tol]
    assert len(res) == n
    assert len(sweeps) > 0 and len(sweeps) + len(angles) <= 160
    assert 0 < len(tight) <= 5 * n


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
@pytest.mark.parametrize("search", [
    lambda tol: eig_selfadjoint(VROBIN, math.pi, AnglePair(0.9, 2.2), 10,
                                tol),
    lambda tol: eig_rectangle(VROBIN, math.pi, AnglePair(0.9, 2.2),
                              (-2.0, 20.0, -1.0, 1.0), tol),
], ids=["eig_selfadjoint", "eig_rectangle"])
def test_no_delta_sweep_is_repeated(search, tol, monkeypatch):
    # at tol >= 1e-6 the scan runs at tol itself: one memo serves both
    _, sweeps = _record_search_work(monkeypatch)
    assert len(search(tol)) > 0
    assert len(sweeps) > 0 and len(set(sweeps)) == len(sweeps)


VSTEP = PotentialSpec.piecewise_constant([0.7, 2.0], [1.5, -3.0, 0.4],
                                        math.pi)


@pytest.mark.parametrize("V, tol, bound", [
    (VFREE, 1e-10, 1e-12),
    (VSTEP, 1e-10, 1e-12),
    (VBUMP, 1e-10, 1e-8),
    (VBUMP, 1e-6, 1e-4),
], ids=["zero", "piecewise_constant", "sampled", "sampled-loose"])
@pytest.mark.parametrize("pair", [AnglePair(0.7, 2.1),
                                  AnglePair(0.3 + 0.2j, 1.1 - 0.4j)],
                         ids=["real", "complex"])
@pytest.mark.parametrize("z", [-4.1, 0.37, 5.3, 2.0 + 3.0j, 40.0 - 1.5j])
def test_delta_from_uminus_matches_fundamental_system(V, tol, bound, pair, z):
    # W(~u+, ~u-) = cos thetaR ~u-(R) - sin thetaR ~u-'(R) = char_det
    ref = char_det(V, z, pair.theta0, pair.thetaR, tol)
    got = unscale(*_delta_fn(V, pair, tol)(z))
    assert abs(got - ref) <= bound * abs(ref)


def test_delta_from_uminus_at_large_z():
    # at z = 1e6i Delta ~ e^2221 leaves double range: compare mantissas
    # and log scales
    z = 1e6j
    fs = fundamental_system(VSTEP, z, VSTEP.R)
    for pair in (AnglePair(0.0, 0.0), AnglePair(0.7, 2.1),
                 AnglePair(0.3 + 0.2j, 1.1 - 0.4j)):
        m, g = _delta_fn(VSTEP, pair, 1e-10)(z)
        ref = delta_from_fs(fs, pair.theta0, pair.thetaR)
        assert g > 2000.0
        assert abs(g - fs.log_scale) <= 1e-12 * g
        assert abs(m * math.exp(g - fs.log_scale) - ref) <= 1e-12 * abs(ref)


def test_search_failures_are_typed(monkeypatch):
    from bdm import spectrum
    pair = AnglePair(0.0, 0.0)
    # an angle that never grows: no window reaches N(E_hi) >= n_max
    monkeypatch.setattr(spectrum, "_prufer_angle", lambda *args: 0.5)
    with pytest.raises(SearchFailureError, match="no window"):
        eig_selfadjoint(VFREE, math.pi, pair, 3)
    # N(E) steps from 0 to 2 at E = 5: no bracket isolates eigenvalue 0
    monkeypatch.setattr(spectrum, "_prufer_angle",
                        lambda V, E, *args: 0.5 + 2 * math.pi * (E > 5.0))
    with pytest.raises(SearchFailureError, match="eigenvalue 0"):
        eig_selfadjoint(VFREE, math.pi, pair, 2)
