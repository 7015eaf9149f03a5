"""Tests of the benchmark's reference oracles, where they overlap.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import math

import numpy as np
import pytest

import oracles as O

R = math.pi
ZS = [2 + 1j, 40 + 30j, -300 + 500j, 3000 + 8000j, 1e5j]


def rel(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("z", ZS)
def test_zero_potential_as_piecewise_constant(z):
    free = O.pieces_of("zero", R)
    pc = O.pieces_of("piecewise_constant", R, (0.7, 2.1), (0j, 0j, 0j))
    angles = (0.35, 0.75 + 0.1j, 1.5, 2.4)
    assert rel(O.bdmap_ref(pc, R, angles, z), O.bdmap_ref(free, R, angles, z)) < 1e-14


@pytest.mark.parametrize("z", ZS[:4])
def test_airy_piece_with_near_zero_slope_matches_constant_piece(z):
    v, eps = 0.8 - 0.2j, 1e-12
    linear = O.pieces_of("sampled", R, values=(v - eps, v + eps), grid=(0.0, R))
    const = O.pieces_of("piecewise_constant", R, (), (v,))
    angles = (0.35, 0.75, 1.5, 2.4)
    assert rel(O.bdmap_ref(linear, R, angles, z), O.bdmap_ref(const, R, angles, z)) < 1e-9


@pytest.mark.parametrize("pieces", [
    O.pieces_of("zero", R),
    O.pieces_of("piecewise_constant", R, (1.1, 2.0), (0.8 + 0.2j, -0.5, 0.4 - 0.3j)),
    O.pieces_of("sampled", R, values=(0, 0.9, 0.3 - 0.2j, 0.7, 1.0), grid=(0, 0.8, 1.6, 2.4, R)),
])
@pytest.mark.parametrize("z", ZS)
def test_transfer_matrix_is_unimodular(pieces, z):
    with O.mp.workdps(O.dps_for(pieces, z)):
        det = complex(O.mp.det(O.transfer_mp(pieces, z, 0.0, R)))
    assert abs(det - 1.0) < 1e-20


def test_free_dirichlet_eigenvalues_are_squares():
    eigs = O.real_eigs_ref(O.pieces_of("zero", R), R, 0.0, 0.0, 10)
    assert np.allclose(eigs, [k * k for k in range(1, 11)], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("pieces, energies", [
    (O.pieces_of("sampled", R, values=(-1.0, 0.5, 1.5, 0.0, -0.5, 1.0),
                 grid=(0.0, 0.6, 1.2, 1.9, 2.5, R)), (-6.0, -0.3, 2.0, 37.5, 410.0)),
    (O.pieces_of("piecewise_constant", R, (1.1, 2.0), (0.8 + 0.2j, -0.5, 0.4 - 0.3j)),
     (-1.5 - 1.0j, 0.3, 7.2 + 0.1j, 19.0 + 2.5j)),
])
def test_double_precision_delta_matches_mpmath(pieces, energies):
    for e in energies:
        with O.mp.workdps(40):
            want = complex(O.char_fn_mp(pieces, R, 0.9, 2.2, e))
        got = complex(O.char_fn_np(pieces, R, 0.9, 2.2, np.array([e]))[0])
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_free_dirichlet_green_closed_form():
    z = 5.0 + 1.5j
    k = np.sqrt(z)
    interior = O.Interior(O.pieces_of("zero", R), R, z, 0.0, 0.0, [0.4, 1.7, 2.9])
    for x, y in [(0.4, 1.7), (2.9, 0.4), (1.7, 1.7)]:
        lo, hi = min(x, y), max(x, y)
        want = np.sin(k * lo) * np.sin(k * (R - hi)) / (k * np.sin(k * R))
        assert abs(interior.green(x, y) - want) < 1e-13


def test_robin_map_is_symmetric_with_herglotz_diagonal():
    pieces = O.pieces_of("sampled", R, values=(0, 0.9, 0.3, 0.7, 0.0), grid=(0, 0.8, 1.6, 2.4, R))
    lam = O.bdmap_ref(pieces, R, (1.0, 0.7, 1.0 + R / 2, 0.7 + R / 2), 3.0 + 2.0j)
    assert abs(lam[0, 1] - lam[1, 0]) < 1e-14 * np.max(np.abs(lam))
    im = (lam - lam.conj().T) / 2j
    assert np.min(np.linalg.eigvalsh(im)) > 0.0


def test_winding_count_and_newton_root_on_free_dirichlet():
    free = O.pieces_of("zero", R)
    assert O.winding_count(free, R, 0.0, 0.0, (0.5, 10.0, -1.0, 1.0)) == 3
    assert abs(O.newton_root_mp(free, R, 0.0, 0.0, 4.1 + 0.05j) - 4.0) < 1e-20


def test_point_mass_of_free_dirichlet_problem():
    # Lambda_11 = -k cot(kR) for Dirichlet -> Neumann data; at lam = k^2 the
    # residue of -k cot(k R) in z is -2 k^2 / R, so Sigma_11 = 2 k^2 / R
    sig = O.point_mass_ref(O.pieces_of("zero", R), R, (0.0, 0.0, R / 2, R / 2), 4.0)
    assert abs(sig[0, 0] - 2 * 4.0 / R) < 1e-12
    assert np.min(np.linalg.eigvalsh((sig + sig.conj().T) / 2)) > -1e-12
