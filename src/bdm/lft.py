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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._lazy import np
from .bdmap import bdmap_general
from .errors import DegenerateError, DomainError
from .odecore import DEFAULT_TOL
from .potential import PotentialSpec
from .traces import AngleQuad, angles_mod_pi_zero, diag_cos, diag_sin

COND_LIMIT = 1e8


@dataclass(frozen=True)
class Block4:
    """A 4x4 complex matrix in 2x2 blocks."""

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def full(self) -> np.ndarray:
        return np.block([[self.a11, self.a12], [self.a21, self.a22]])

    @classmethod
    def from_full(cls, A: np.ndarray) -> "Block4":
        A = np.asarray(A, dtype=complex)
        return cls(A[:2, :2].copy(), A[:2, 2:].copy(),
                   A[2:, :2].copy(), A[2:, 2:].copy())


def _guarded_inv(M: np.ndarray, what: str) -> np.ndarray:
    if np.linalg.cond(M) > COND_LIMIT:
        raise DegenerateError(f"{what} is ill-conditioned "
                              f"(cond > {COND_LIMIT:g}); Moebius image undefined")
    return np.linalg.inv(M)


def moebius(A: Block4, L: np.ndarray) -> np.ndarray:
    """(A21 + A22 L)(A11 + A12 L)^-1."""
    L = np.asarray(L, dtype=complex)
    return (A.a21 + A.a22 @ L) @ moebius_imag_factor(A, L)


def moebius_imag_factor(A: Block4, L: np.ndarray) -> np.ndarray:
    """The congruence factor (A11 + A12 L)^-1 of Im M_A(L)."""
    return _guarded_inv(A.a11 + np.asarray(A.a12, dtype=complex) @ L,
                        "A11 + A12 L")


def in_class_A4(A: Block4, tol: float = 1e-12):
    """Whether A preserves the skew form J4, A* J4 A = J4; returns (bool,
    residual)."""
    res = block_relations_residual(A)
    return res < tol, res


def block_relations_residual(A: Block4) -> float:
    """Max residual of the four block relations of membership: up to sign,
    the four 2x2 blocks of A* J4 A - J4."""
    i2 = np.eye(2)
    r = [A.a11.conj().T @ A.a21 - A.a21.conj().T @ A.a11,
         A.a22.conj().T @ A.a12 - A.a12.conj().T @ A.a22,
         A.a22.conj().T @ A.a11 - A.a12.conj().T @ A.a21 - i2,
         A.a11.conj().T @ A.a22 - A.a21.conj().T @ A.a12 - i2]
    return float(max(np.max(np.abs(m)) for m in r))


def _sin_inv(a: complex, b: complex, what: str) -> np.ndarray:
    sa, sb = cmath.sin(a), cmath.sin(b)
    if abs(sa) < 1e-12 or abs(sb) < 1e-12:
        raise DegenerateError(f"{what}: angle difference is 0 mod pi")
    return np.array([[1.0 / sa, 0.0], [0.0, 1.0 / sb]], dtype=complex)


def connector(theta: AngleQuad, delta: AngleQuad) -> Block4:
    """The J4-preserving block matrix A(theta, delta) tying the two maps
    together: M_{A}(Lambda_delta S_delta-diffs) = Lambda_theta S_theta-diffs.

    Defined for real angles with all four primed-minus-unprimed differences
    nonzero mod pi.
    """
    if not (theta.is_real and delta.is_real):
        raise DomainError("connector matrices require real angle quadruples")
    t0, tR = theta.base.theta0.real, theta.base.thetaR.real
    t0p, tRp = theta.primed.theta0.real, theta.primed.thetaR.real
    d0, dR = delta.base.theta0.real, delta.base.thetaR.real
    d0p, dRp = delta.primed.theta0.real, delta.primed.thetaR.real
    for name, diff in (("theta0'-theta0", t0p - t0), ("thetaR'-thetaR", tRp - tR),
                       ("delta0'-delta0", d0p - d0), ("deltaR'-deltaR", dRp - dR)):
        if angles_mod_pi_zero(diff):
            raise DegenerateError(f"connector: {name} is 0 mod pi")
    s_t_inv = _sin_inv(t0p - t0, tRp - tR, "connector")
    s_d_inv = _sin_inv(d0p - d0, dRp - dR, "connector")
    a11 = s_t_inv @ diag_sin(d0p - t0, dRp - tR)
    a12 = s_t_inv @ s_d_inv @ diag_sin(t0 - d0, tR - dR)
    a21 = diag_sin(d0p - t0p, dRp - tRp)
    a22 = s_d_inv @ diag_sin(t0p - d0, tRp - dR)
    return Block4(a11, a12, a21, a22)


def lft_residuals(V: PotentialSpec, R: float, quad_a: AngleQuad,
                  quad_b: AngleQuad, z: complex,
                  tol: float = DEFAULT_TOL) -> dict:
    """Residuals of the LFT relating Lambda^{quad_a} to Lambda^{quad_b}.

    'sandwich' is the S^-1 [...] [...]^-1 S form; 'right_multiplied' is the
    reformulation acting on Lambda S (via the connector when all angles are
    real); 'dtn_special' is the generalized Dirichlet-to-Neumann special
    case (only when both quads are Robin-type, primed = base + pi/2).
    """
    la = bdmap_general(V, R, quad_a, z, tol).matrix
    lb = bdmap_general(V, R, quad_b, z, tol).matrix
    t0, tR = quad_a.base.theta0, quad_a.base.thetaR
    t0p, tRp = quad_a.primed.theta0, quad_a.primed.thetaR
    d0, dR = quad_b.base.theta0, quad_b.base.thetaR
    d0p, dRp = quad_b.primed.theta0, quad_b.primed.thetaR
    out = {}

    s_dd = diag_sin(d0p - d0, dRp - dR)
    s_dd_inv = _sin_inv(d0p - d0, dRp - dR, "LFT")
    bra = diag_sin(d0p - t0p, dRp - tRp) + diag_sin(t0p - d0, tRp - dR) @ lb
    ket = diag_sin(d0p - t0, dRp - tR) + diag_sin(t0 - d0, tR - dR) @ lb
    rhs = s_dd_inv @ bra @ _guarded_inv(ket, "LFT bracket") @ s_dd
    out["sandwich"] = float(np.max(np.abs(la - rhs)))

    if quad_a.is_real and quad_b.is_real \
            and not angles_mod_pi_zero(t0p - t0) and not angles_mod_pi_zero(tRp - tR):
        A = connector(quad_a, quad_b)
        ls_b = lb @ s_dd
        ls_a = la @ diag_sin(t0p - t0, tRp - tR)
        out["right_multiplied"] = float(np.max(np.abs(ls_a - moebius(A, ls_b))))

    half_pi = math.pi / 2.0
    robin_a = (abs(cmath.sin(t0p - t0 - half_pi)) < 1e-12
               and abs(cmath.sin(tRp - tR - half_pi)) < 1e-12)
    robin_b = (abs(cmath.sin(d0p - d0 - half_pi)) < 1e-12
               and abs(cmath.sin(dRp - dR - half_pi)) < 1e-12)
    if robin_a and robin_b:
        cd = diag_cos(t0 - d0, tR - dR)
        sd = diag_sin(t0 - d0, tR - dR)
        rhs = (-sd + cd @ lb) @ _guarded_inv(cd + sd @ lb, "DtN bracket")
        out["dtn_special"] = float(np.max(np.abs(la - rhs)))
    return out


def verify_lft_relation(V: PotentialSpec, R: float, quad_a: AngleQuad,
                        quad_b: AngleQuad, z: complex,
                        tol: float = DEFAULT_TOL) -> float:
    """Max residual over the applicable LFT forms."""
    return max(lft_residuals(V, R, quad_a, quad_b, z, tol).values())
