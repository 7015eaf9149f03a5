"""Block-matrix Moebius calculus, the J4-preserving matrix class, connector
matrices between angle quadruples, and verification of the linear
fractional transformation relating two boundary data maps.

M_A(L) = (A21 + A22 L)(A11 + A12 L)^-1 for a 4x4 block matrix A; matrices
with A* J4 A = J4 (J4 the standard skew form) push the matrix upper
half-plane into itself, carrying the Herglotz property between maps.  The
congruence behind that is

    Im M_A(L) = ((A11 + A12 L)^-1)* Im(L) (A11 + A12 L)^-1,

with the denominator factor (the variant naming the numerator factor
fails already for scalar members, e.g. diag(2, 1/2)).

Blocks, arguments and results are 2x2 tuples of Python complex numbers
(the traces.mat_* algebra); Block4.full() is the one array, on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .bdmap import bdmap_general
from .errors import DegenerateError, DomainError
from .odecore import DEFAULT_TOL
from .potential import PotentialSpec
from .traces import (EYE2, AngleQuad, angles_mod_pi_zero, diag_cos, diag_sin,
                     mat_add, mat_adjoint, mat_inv, mat_max_abs, mat_mul,
                     mat_sub)


@dataclass(frozen=True)
class Block4:
    """A 4x4 complex matrix in 2x2 blocks, each ((a, b), (c, d))."""

    a11: tuple
    a12: tuple
    a21: tuple
    a22: tuple

    def full(self) -> np.ndarray:
        return np.array([r + s for top, bot in ((self.a11, self.a12),
                                                (self.a21, self.a22))
                         for r, s in zip(top, bot)], dtype=complex)

    @classmethod
    def from_full(cls, A) -> "Block4":
        rows = np.asarray(A, dtype=complex).tolist()
        return cls(*(tuple(tuple(r[j:j + 2]) for r in rows[i:i + 2])
                     for i in (0, 2) for j in (0, 2)))


def moebius(A: Block4, L: tuple) -> tuple:
    """(A21 + A22 L)(A11 + A12 L)^-1."""
    return mat_mul(mat_add(A.a21, mat_mul(A.a22, L)),
                   moebius_imag_factor(A, L))


def moebius_imag_factor(A: Block4, L: tuple) -> tuple:
    """The congruence factor (A11 + A12 L)^-1 of Im M_A(L)."""
    return mat_inv(mat_add(A.a11, mat_mul(A.a12, L)), "A11 + A12 L")


def block_relations_residual(A: Block4) -> float:
    """Max residual of the four block relations of membership: up to sign,
    the four 2x2 blocks of A* J4 A - J4."""
    def cross(x, y, u, v):  # x* y - u* v
        return mat_sub(mat_mul(mat_adjoint(x), y), mat_mul(mat_adjoint(u), v))

    r = [cross(A.a11, A.a21, A.a21, A.a11),
         cross(A.a22, A.a12, A.a12, A.a22),
         mat_sub(cross(A.a22, A.a11, A.a12, A.a21), EYE2),
         mat_sub(cross(A.a11, A.a22, A.a21, A.a12), EYE2)]
    return max(mat_max_abs(m) for m in r)


def _sine_block(theta: AngleQuad, delta: AngleQuad) -> Block4:
    """The block B of sines of angle differences with
    Lambda_theta = S_delta^-1 M_B(Lambda_delta) S_delta."""
    t0, tR = theta.base.theta0, theta.base.thetaR
    t0p, tRp = theta.primed.theta0, theta.primed.thetaR
    d0, dR = delta.base.theta0, delta.base.thetaR
    d0p, dRp = delta.primed.theta0, delta.primed.thetaR
    return Block4(diag_sin(d0p - t0, dRp - tR), diag_sin(t0 - d0, tR - dR),
                  diag_sin(d0p - t0p, dRp - tRp), diag_sin(t0p - d0, tRp - dR))


def connector(theta: AngleQuad, delta: AngleQuad) -> Block4:
    """The J4-preserving block matrix A(theta, delta) tying the two maps
    together: M_{A}(Lambda_delta S_delta-diffs) = Lambda_theta S_theta-diffs.

    Defined for real angles with all four primed-minus-unprimed differences
    nonzero mod pi.
    """
    if not (theta.is_real and delta.is_real):
        raise DomainError("connector matrices require real angle quadruples")
    names = ("theta0'-theta0", "thetaR'-thetaR", "delta0'-delta0", "deltaR'-deltaR")
    for name, diff in zip(names, theta.diffs + delta.diffs):
        if angles_mod_pi_zero(diff):
            raise DegenerateError(f"connector: {name} is 0 mod pi")
    s_t_inv = mat_inv(diag_sin(*theta.diffs), "connector S_theta")
    s_d_inv = mat_inv(diag_sin(*delta.diffs), "connector S_delta")
    B = _sine_block(theta, delta)
    return Block4(mat_mul(s_t_inv, B.a11), mat_mul(s_t_inv, s_d_inv, B.a12),
                  B.a21, mat_mul(s_d_inv, B.a22))


def lft_residuals(V: PotentialSpec, R: float, quad_a: AngleQuad,
                  quad_b: AngleQuad, z: complex,
                  tol: float = DEFAULT_TOL) -> dict:
    """Residuals of the LFT relating Lambda^{quad_a} to Lambda^{quad_b}.

    'sandwich' is the S^-1 M_B(Lambda^{quad_b}) S form, B the block of
    sines; 'right_multiplied' is the reformulation acting on Lambda S (via
    the connector when all angles are real); 'dtn_special' is the
    generalized Dirichlet-to-Neumann special case (only when both quads are
    Robin-type, primed = base + pi/2).
    """
    la = bdmap_general(V, R, quad_a, z, tol).entries
    lb = bdmap_general(V, R, quad_b, z, tol).entries
    s_a, s_b = diag_sin(*quad_a.diffs), diag_sin(*quad_b.diffs)
    rhs = mat_mul(mat_inv(s_b, "LFT S"),
                  moebius(_sine_block(quad_a, quad_b), lb), s_b)
    out = {"sandwich": mat_max_abs(mat_sub(la, rhs))}

    if quad_a.is_real and quad_b.is_real \
            and not any(angles_mod_pi_zero(d) for d in quad_a.diffs):
        img = moebius(connector(quad_a, quad_b), mat_mul(lb, s_b))
        out["right_multiplied"] = mat_max_abs(mat_sub(mat_mul(la, s_a), img))

    if all(angles_mod_pi_zero(d - math.pi / 2.0)
           for d in quad_a.diffs + quad_b.diffs):
        e0, eR = AngleQuad(quad_b.base, quad_a.base).diffs
        cd, sd = diag_cos(e0, eR), diag_sin(e0, eR)
        rhs = moebius(Block4(cd, sd, diag_sin(-e0, -eR), cd), lb)
        out["dtn_special"] = mat_max_abs(mat_sub(la, rhs))
    return out
