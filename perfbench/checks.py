"""Correctness of every operation, against the references in oracles.py.

``reference(op)`` is computed once per slot, outside every timed region;
``check(op, out, ref, round_outs)`` returns None when the output is right
and a short reason otherwise.  Bounds scale with the requested tolerance
``tol`` of the operation (see README.md for the table):

- maps, eigenvalues, Newton roots, cli map/eig:   MAP_K * tol (relative)
- Green, Krein, Weyl-Titchmarsh values, det M:     INTERIOR_K * tol (relative)
- spectral point masses (cli measure):             MASS_REL (relative)
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import oracles as O

MAP_K = 100.0
INTERIOR_K = 5000.0
MASS_REL = 1e-5
HERGLOTZ_MIN_SIN = 0.1


def _pieces(pot: dict):
    return O.pieces_of(pot["kind"], pot["R"], pot.get("breakpoints", ()),
                       pot.get("values", ()), pot.get("grid", ()))


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=complex))))


# ------------------------------------------------------------ references

def reference(op):
    p = op.params
    if op.kind == "map":
        return O.bdmap_ref(_pieces(p["pot"]), p["pot"]["R"], p["angles"], p["z"])
    if op.kind == "interior":
        return _interior_ref(_pieces(p["pot"]), p["pot"]["R"], p["z"], p["angles"],
                             p["xs"], p["x0s"], p["alpha"])
    if op.kind == "eig":
        a = p["angles"]
        return O.real_eigs_ref(_pieces(p["pot"]), p["pot"]["R"], a[0].real, a[1].real, p["n"])
    if op.kind == "rect":
        a = p["angles"]
        return {"count": O.winding_count(_pieces(p["pot"]), p["pot"]["R"], a[0], a[1], p["rect"]),
                "roots": {}}
    if op.kind == "cli":
        return _cli_ref(p)
    raise ValueError(op.kind)


def _interior_ref(pieces, R, z, ang, xs, x0s, alpha):
    base = O.Interior(pieces, R, z, ang[0], ang[1], list(xs) + list(x0s))
    primed = O.Interior(pieces, R, z, ang[2], ang[3], xs)
    G = np.array([[base.green(x, y) for y in xs] for x in xs])
    Gp = np.array([[primed.green(x, y) for y in xs] for x in xs])
    M = [O.wt_matrix_ref(*base.log_derivs(x0), alpha) for x0 in x0s]
    return {"G": G, "Gp": Gp, "M": M}


# ---------------------------------------------------------------- checks

def check(op, out, ref, round_outs=None):
    p = op.params
    if op.kind == "map":
        return _check_map(p, out, ref, p["tol"])
    if op.kind == "interior":
        return _check_interior(out, ref, p["tol"])
    if op.kind == "eig":
        return _check_eigs([e for e in out], ref, p["tol"])
    if op.kind == "rect":
        return _check_rect(p, out, ref)
    if op.kind == "cli":
        return _check_cli(p, out, ref, round_outs)
    raise ValueError(op.kind)


def _check_map(p, lam, ref, tol):
    lam = np.asarray(lam, dtype=complex)
    if not _finite(lam):
        return "non-finite map entries"
    err = _rel(lam, ref)
    if err > MAP_K * tol:
        return f"map off by {err:.2e} (relative)"
    scale = float(np.max(np.abs(lam)))
    if not p["general"] and abs(lam[0, 1] - lam[1, 0]) > MAP_K * tol * scale:
        return "Robin map not symmetric"
    ang, pot = p["angles"], p["pot"]
    real = all(complex(a).imag == 0 for a in ang) and all(
        complex(v).imag == 0 for v in pot.get("values", ()))
    if real and p["z"].imag > 0:
        s0 = math.sin((ang[2] - ang[0]).real)
        sR = math.sin((ang[3] - ang[1]).real)
        if min(abs(s0), abs(sR)) >= HERGLOTZ_MIN_SIN:
            LS = lam @ np.diag([s0, sR])
            im = (LS - LS.conj().T) / 2j
            if float(np.min(np.linalg.eigvalsh(im))) <= 0.0:
                return "Im(Lambda S) not positive definite"
    return None


def _check_interior(out, ref, tol):
    G, C, M = (np.asarray(out[0], dtype=complex), np.asarray(out[1], dtype=complex),
               [np.asarray(m, dtype=complex) for m in out[2]])
    if not (_finite(G) and _finite(C) and all(_finite(m) for m in M)):
        return "non-finite interior values"
    bound = INTERIOR_K * tol
    scale = float(np.max(np.abs(ref["G"])))
    err = float(np.max(np.abs(G - ref["G"]))) / scale
    if err > bound:
        return f"green off by {err:.2e}"
    if float(np.max(np.abs(G - G.T))) > bound * scale:
        return "green not symmetric"
    if float(np.max(np.abs(C - (ref["G"] - ref["Gp"])))) > bound * scale:
        return "krein correction off"
    if float(np.max(np.abs((G - C) - ref["Gp"]))) > bound * scale:
        return "G - C differs from the primed Green's function"
    for m, mr in zip(M, ref["M"]):
        if _rel(m, mr) > bound:
            return f"wt_matrix off by {_rel(m, mr):.2e}"
        if abs(np.linalg.det(m) + 0.25) > bound:
            return "det M_alpha != -1/4"
    return None


def _check_eigs(got, ref, tol):
    if len(got) != len(ref):
        return f"{len(got)} eigenvalues, expected {len(ref)}"
    for g, r in zip(got, ref):
        g = complex(g)
        if abs(g.imag) > 0 or abs(g.real - r) > MAP_K * tol * max(1.0, abs(r)):
            return f"eigenvalue {g} vs exact {r}"
    return None


def _check_rect(p, out, ref):
    """ref["roots"] caches the Newton root found from each reported value,
    since every round reports the same values."""
    eigs, mult = out
    if sum(mult) != ref["count"]:
        return (f"{sum(mult)} eigenvalues in the rectangle, argument principle "
                f"says {ref['count']}")
    a, pot = p["angles"], p["pot"]
    roots = []
    for lam in eigs:
        if lam not in ref["roots"]:
            ref["roots"][lam] = O.newton_root_mp(_pieces(pot), pot["R"], a[0], a[1], lam)
        r = ref["roots"][lam]
        if abs(r - lam) > MAP_K * p["tol"] * max(1.0, abs(r)):
            return f"{lam} is not a root of the exact Delta (nearest {r})"
        roots.append(r)
    for i, r in enumerate(roots):
        if any(abs(r - s) <= 1e-6 * max(1.0, abs(r)) for s in roots[:i]):
            return "an eigenvalue is reported twice"
    return None


# ------------------------------------------------------------------- cli

def _cfg_pieces(cfg):
    pot = cfg["potential"]
    R = cfg["R"]
    if pot["type"] == "zero":
        return O.pieces_of("zero", R), R
    vre = pot["values_re"]
    vim = pot.get("values_im", [0.0] * len(vre))
    vals = [complex(a, b) for a, b in zip(vre, vim)]
    return O.pieces_of(pot["type"], R, pot.get("breakpoints", ()), vals, pot.get("grid", ())), R


def _cfg_angles(block):
    return (complex(block.get("theta0_re", 0.0), block.get("theta0_im", 0.0)),
            complex(block.get("thetaR_re", 0.0), block.get("thetaR_im", 0.0)))


def _cfg_zs(cfg):
    return [complex(d.get("re", 0.0), d.get("im", 0.0)) for d in cfg["z_grid"]["list"]]


def _cli_ref(p):
    cfg, sub = p["cfg"], p["sub"]
    pieces, R = _cfg_pieces(cfg)
    t0, tR = _cfg_angles(cfg["theta"])
    if sub == "map":
        tp = _cfg_angles(cfg["theta_prime"])
        return [O.bdmap_ref(pieces, R, (t0, tR) + tp, z) for z in _cfg_zs(cfg)]
    if sub == "green":
        n = cfg["x_points"]
        xs = [R * (i + 1) / (n + 1) for i in range(n)]
        return [O.Interior(pieces, R, z, t0, tR, xs) for z in _cfg_zs(cfg)]
    if sub == "wtm":
        return [O.wt_matrix_ref(*O.Interior(pieces, R, z, t0, tR, [cfg["x0"]]).log_derivs(cfg["x0"]),
                                cfg["alpha"]) for z in _cfg_zs(cfg)]
    if sub == "eig":
        return O.real_eigs_ref(pieces, R, t0.real, tR.real, int(p["extra"][1]))
    if sub == "measure":
        eigs = O.real_eigs_ref(pieces, R, t0.real, tR.real, int(p["extra"][1]))
        ang = (t0, tR, t0 + math.pi / 2, tR + math.pi / 2)
        return eigs, [O.point_mass_ref(pieces, R, ang, lam) for lam in eigs]
    return None


def _rows(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in row] for row in csv.reader(io.StringIO("\n".join(lines[1:])))]


def _cplx(row, i):
    return complex(row[i], row[i + 1])


def _mat(row, i):
    return np.array([[_cplx(row, i), _cplx(row, i + 2)], [_cplx(row, i + 4), _cplx(row, i + 6)]])


def _check_cli(p, out, ref, round_outs):
    rc, stdout, data = out
    sub, tol = p["sub"], p["cfg"]["tol"]
    if rc != 0:
        return f"exit code {rc}"
    if sub == "verify":
        rows = [ln for ln in stdout.splitlines()[1:] if ln.strip()]
        if not rows or any(ln.split()[1] != "PASS" for ln in rows):
            return "verify reported a row that is not PASS"
        return None
    if p["run"] == "map-jobs2":
        first = round_outs.get("map-jobs1") if round_outs else None
        if first is None or first[2] != data:
            return "map --jobs 2 output differs from --jobs 1"
    rows = _rows(data.decode("utf-8"))
    if sub == "map":
        if len(rows) != len(ref):
            return "wrong number of map rows"
        for row, lam in zip(rows, ref):
            if _rel(_mat(row, 2), lam) > MAP_K * tol:
                return f"map row at z={_cplx(row, 0)} off by {_rel(_mat(row, 2), lam):.2e}"
        return None
    if sub == "green":
        n = p["cfg"]["x_points"]
        if len(rows) != len(ref) * n * n:
            return "wrong number of green rows"
        for k, interior in enumerate(ref):
            block = rows[k * n * n:(k + 1) * n * n]
            got = np.array([_cplx(r, 4) for r in block])
            want = np.array([interior.green(r[2], r[3]) for r in block])
            if _rel(got, want) > INTERIOR_K * tol:
                return f"green rows off by {_rel(got, want):.2e}"
        return None
    if sub == "wtm":
        if len(rows) != len(ref):
            return "wrong number of wtm rows"
        for row, mr in zip(rows, ref):
            m = _mat(row, 2)
            if _rel(m, mr) > INTERIOR_K * tol or abs(np.linalg.det(m) + 0.25) > INTERIOR_K * tol:
                return f"wtm row at z={_cplx(row, 0)} off"
        return None
    if sub == "eig":
        return _check_eigs([complex(r[1], r[2]) for r in rows], ref, tol)
    if sub == "measure":
        eigs, masses = ref
        bad = _check_eigs([complex(r[0]) for r in rows], eigs, tol)
        if bad:
            return bad
        for row, sig in zip(rows, masses):
            if _rel(_mat(row, 1), sig) > MASS_REL:
                return f"point mass at {row[0]} off by {_rel(_mat(row, 1), sig):.2e}"
        return None
    return f"unknown subcommand {sub}"
