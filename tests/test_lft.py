"""Moebius calculus, the J4-preserving class, connectors, LFT relations."""

import math

import numpy as np
import pytest

from bdm.bdmap import bdmap_general, bdmap_robin
from bdm.errors import DegenerateError, DomainError
from bdm.lft import (Block4, block_relations_residual, connector,
                     lft_residuals, moebius, moebius_imag_factor)
from bdm.potential import PotentialSpec
from bdm.traces import EYE2, AnglePair, AngleQuad, diag_cos, diag_sin, quad

R = math.pi
VFREE = PotentialSpec.zero(R)
VREAL = PotentialSpec.sampled([0.0, 1.0, 2.2, R], [0.3, -1.0, 0.8, 0.1], R)

ZERO2 = ((0j, 0j), (0j, 0j))
I4 = Block4(EYE2, ZERO2, ZERO2, EYE2)


def _tup(m):
    """A 2x2 array as a tuple of Python complex numbers."""
    return tuple(map(tuple, np.asarray(m, dtype=complex).tolist()))


def _rand2(rng):
    return _tup(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))


def _rand_block(rng):
    return Block4(*(_rand2(rng) for _ in range(4)))


def _full(A):
    """The 4x4 array of a Block4."""
    return np.block([[np.array(A.a11), np.array(A.a12)],
                     [np.array(A.a21), np.array(A.a22)]])


def _blocks(M):
    """The Block4 of a 4x4 array."""
    return Block4(_tup(M[:2, :2]), _tup(M[:2, 2:]), _tup(M[2:, :2]),
                  _tup(M[2:, 2:]))


def test_moebius_identity():
    rng = np.random.default_rng(2)
    L = _rand2(rng)
    assert np.max(np.abs(np.array(moebius(I4, L)) - L)) < 1e-14


def test_moebius_composition_and_inverse():
    rng = np.random.default_rng(12)
    for _ in range(10):
        A, B = _rand_block(rng), _rand_block(rng)
        L = _rand2(rng)
        if np.linalg.cond(np.add(B.a11, np.array(B.a12) @ L)) > 1e6:
            continue
        inner = moebius(B, L)
        AB = _blocks(_full(A) @ _full(B))
        if np.linalg.cond(np.add(AB.a11, np.array(AB.a12) @ L)) > 1e6:
            continue
        lhs = np.array(moebius(AB, L))
        rhs = np.array(moebius(A, inner))
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
        Ainv = _blocks(np.linalg.inv(_full(A)))
        back = np.array(moebius(Ainv, moebius(A, L)))
        assert np.max(np.abs(back - L)) < 1e-10 * max(1.0, np.max(np.abs(L)))


def test_moebius_guards_singular_denominator():
    A = Block4(ZERO2, ZERO2, EYE2, EYE2)
    with pytest.raises(DegenerateError):
        moebius(A, ZERO2)


def test_identity_in_class():
    assert block_relations_residual(I4) < 1e-15


def test_connector_membership_and_inverse():
    rng = np.random.default_rng(6)
    for _ in range(8):
        a = rng.uniform(0.3, 2 * math.pi - 0.3, 8)
        qa, qb = quad(*a[:4]), quad(*a[4:])
        d = [qa.diffs[0], qa.diffs[1], qb.diffs[0], qb.diffs[1]]
        if any(abs(math.sin(x.real)) < 0.1 for x in d):
            continue
        A = connector(qa, qb)
        assert block_relations_residual(A) < 1e-12
        Ainv = _blocks(np.linalg.inv(_full(A)))
        assert block_relations_residual(Ainv) < 1e-10


def test_left_inverse_is_right_inverse():
    # for members of the class, the adjugate-style block matrix inverts from
    # both sides
    A = connector(quad(0.9, 0.4, 2.0, 5.0), quad(0.0, 0.0, math.pi / 2, math.pi / 2))
    adj = [np.array(b).conj().T for b in (A.a11, A.a12, A.a21, A.a22)]
    left = np.block([[adj[3], -adj[1]], [-adj[2], adj[0]]])
    assert np.max(np.abs(left @ _full(A) - np.eye(4))) < 1e-12
    assert np.max(np.abs(_full(A) @ left - np.eye(4))) < 1e-12


def test_connector_identity_quad():
    q = quad(0.0, 0.0, math.pi / 2, math.pi / 2)
    A = connector(q, q)
    assert np.max(np.abs(_full(A) - np.eye(4))) < 1e-15


def test_connector_rejects_degenerate_and_complex():
    good = quad(0.9, 0.4, 2.0, 5.0)
    with pytest.raises(DegenerateError):
        connector(quad(0.9, 0.4, 0.9 + math.pi, 5.0), good)
    with pytest.raises(DomainError):
        connector(AngleQuad(AnglePair(0.1 + 0.2j, 0.4),
                            AnglePair(2.0, 5.0)), good)


def test_connector_reference_choice_carries_herglotz_route():
    # with the reference quad ((0,0),(pi/2,pi/2)) the Moebius image of the
    # Dirichlet map is Lambda^{theta'}_{theta} S
    qa = quad(0.9, 0.4, 2.0, 5.0)
    qref = quad(0.0, 0.0, math.pi / 2, math.pi / 2)
    z = 0.8 + 1.2j
    A = connector(qa, qref)
    l00 = bdmap_robin(VREAL, R, AnglePair(0.0, 0.0), z).entries
    la = bdmap_general(VREAL, R, qa, z).matrix
    d0, dR = qa.diffs
    ls = la @ diag_sin(d0, dR)
    img = np.array(moebius(A, l00))
    assert np.max(np.abs(img - ls)) < 1e-9 * max(1.0, np.max(np.abs(ls)))


def test_dirichlet_reference_representation():
    # Lambda^{theta'}_{theta} = [C' + S' L00][C + S L00]^-1
    z = 0.8 + 1.2j
    l00 = bdmap_robin(VREAL, R, AnglePair(0.0, 0.0), z).matrix
    for q in (quad(0.9, 0.4, 2.0, 5.0), quad(1.3, 2.7, 0.2, 1.1)):
        la = bdmap_general(VREAL, R, q, z).matrix
        cp = diag_cos(q.primed.theta0, q.primed.thetaR)
        sp = diag_sin(q.primed.theta0, q.primed.thetaR)
        c = diag_cos(q.base.theta0, q.base.thetaR)
        s = diag_sin(q.base.theta0, q.base.thetaR)
        rhs = (cp + sp @ l00) @ np.linalg.inv(c + s @ l00)
        assert np.max(np.abs(la - rhs)) < 1e-9 * max(1.0, np.max(np.abs(la)))


def test_lft_residuals_free_and_real():
    rng = np.random.default_rng(14)
    for V in (VFREE, VREAL):
        for _ in range(4):
            a = rng.uniform(0.3, 2 * math.pi - 0.3, 8)
            qa, qb = quad(*a[:4]), quad(*a[4:])
            d = list(qa.diffs) + list(qb.diffs)
            if any(abs(math.sin(x.real)) < 0.1 for x in d):
                continue
            r = max(lft_residuals(V, R, qa, qb, 1j).values())
            assert r < 1e-9


def test_lft_identity_transformation():
    q = quad(0.9, 0.4, 2.0, 5.0)
    res = lft_residuals(VREAL, R, q, q, 1j)
    assert res["sandwich"] < 1e-10


def test_lft_dtn_special_case():
    qa = quad(0.7, 1.3, 0.7 + math.pi / 2, 1.3 + math.pi / 2)
    qb = quad(0.2, 2.1, 0.2 + math.pi / 2, 2.1 + math.pi / 2)
    res = lft_residuals(VREAL, R, qa, qb, 0.5 + 1.1j)
    assert "dtn_special" in res
    assert res["dtn_special"] < 1e-9


def test_positivity_transport():
    # Im L > 0 pushes to Im M_A(L) > 0 through class members, by the exact
    # congruence with the denominator factor
    rng = np.random.default_rng(19)
    A = connector(quad(0.9, 0.4, 2.0, 5.0), quad(0.0, 0.0, math.pi / 2, math.pi / 2))
    for _ in range(10):
        X = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        L = X + X.T + 1j * (B @ B.T + 0.3 * np.eye(2))
        M = np.array(moebius(A, _tup(L)))
        imL = (L - L.conj().T) / 2j
        imM = (M - M.conj().T) / 2j
        F = np.array(moebius_imag_factor(A, _tup(L)))
        assert np.max(np.abs(imM - F.conj().T @ imL @ F)) < 1e-10
        assert np.linalg.eigvalsh(imM)[0] > 0.0
