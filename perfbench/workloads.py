"""Inputs and operations of the four workloads.

A workload is one *round*: a fixed list of operation slots.  Every run
repeats whole rounds, so each run attempts the same mix and the share of
failed operations is the same in every run.  The seed only jitters the
values inside each slot (stratified draws), so two seeds cost about the
same; the slot structure never depends on the seed.  Operations that fail
today because of a known fault use fixed inputs that do not depend on the
seed, and carry the name of that fault in ``known_fault``.

Nothing here imports bdm at module level: ``build`` receives the imported
package, so the set-up probe can time ``import bdm`` itself.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("maps", "interior", "spectrum", "cli")
PI = math.pi
TOL = 1e-10

FAULT_NAN = "silent NaN from the maps at large |z| (no log-scaled propagation)"
FAULT_INTERIOR = ("interior solutions lose accuracy at large Im sqrt(z) R "
                  "(SolutionEvaluator start data ~ 1/|Delta|); wt_matrix "
                  "reports a node that is not there")
FAULT_RECT = ("eig_rectangle reports the centre of an isolating cell when Newton "
              "leaves the cell")


@dataclass
class Op:
    """One operation: ``call()`` runs it through bdm's public API and
    returns plain data; ``params`` holds everything the references need."""

    name: str
    kind: str
    params: dict
    call: object = None
    argv: list = field(default_factory=list)
    known_fault: str | None = None


def _rng(workload: str, seed: int, slot) -> random.Random:
    return random.Random(f"{workload}:{seed}:{slot}")


def _jit(rng: random.Random, base: float, width: float) -> float:
    return base + width * rng.uniform(-1.0, 1.0)


# ------------------------------------------------------------ potentials

def potential_data(kind: str, rng: random.Random) -> dict:
    """Raw data of one of the five potential families, jittered by rng."""
    if kind == "zero":
        return {"kind": "zero", "R": PI}
    if kind == "pc_real":
        bp = [PI * (0.3 + 0.05 * rng.uniform(-1, 1)), PI * (0.65 + 0.05 * rng.uniform(-1, 1))]
        vals = [complex(rng.uniform(-3, 3)) for _ in range(3)]
        return {"kind": "piecewise_constant", "R": PI, "breakpoints": bp, "values": vals}
    if kind == "pc_complex":
        R = 2.5
        bp = [R * (k / 4 + 0.04 * rng.uniform(-1, 1)) for k in (1, 2, 3)]
        vals = [complex(rng.uniform(-3, 3), rng.uniform(-0.5, 0.5)) for _ in range(4)]
        return {"kind": "piecewise_constant", "R": R, "breakpoints": bp, "values": vals}
    if kind == "sampled_real":
        grid = [0.0] + [PI * (k / 5 + 0.03 * rng.uniform(-1, 1)) for k in (1, 2, 3, 4)] + [PI]
        vals = [complex(rng.uniform(-2, 2)) for _ in grid]
        return {"kind": "sampled", "R": PI, "grid": grid, "values": vals}
    if kind == "sampled_complex":
        R = 2.0
        grid = [0.0] + [R * (k / 4 + 0.04 * rng.uniform(-1, 1)) for k in (1, 2, 3)] + [R]
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5)) for _ in grid]
        return {"kind": "sampled", "R": R, "grid": grid, "values": vals}
    raise ValueError(kind)


def make_spec(bdm, pot: dict):
    if pot["kind"] == "zero":
        return bdm.PotentialSpec.zero(pot["R"])
    if pot["kind"] == "piecewise_constant":
        return bdm.PotentialSpec.piecewise_constant(pot["breakpoints"], pot["values"], pot["R"])
    return bdm.PotentialSpec.sampled(pot["grid"], pot["values"], pot["R"])


POT_KINDS = ("zero", "pc_real", "pc_complex", "sampled_real", "sampled_complex")


def _angles(rng: random.Random, n: int, complex_: bool) -> list:
    out = []
    for _ in range(n):
        a = rng.uniform(0.4, 2.7)
        out.append(complex(a, rng.uniform(-0.2, 0.2)) if complex_ else complex(a))
    return out


# ------------------------------------------------------------------ maps

MAP_STRATA = 6          # |z| in [1, 1e4], six log-strata
MAP_LOG_TOP = 4.0


def build_maps(bdm, seed: int) -> list:
    ops = []
    n_sub = 2 * len(POT_KINDS)
    for s in range(MAP_STRATA):
        for ki, kind in enumerate(POT_KINDS):
            for gi, general in enumerate((False, True)):
                slot = (s, kind, general)
                rng = _rng("maps", seed, slot)
                sub = 2 * ki + gi
                u = (s + (sub + rng.random()) / n_sub) / MAP_STRATA
                mod = 10.0 ** (MAP_LOG_TOP * u)
                arg = PI * (0.15 + 0.7 * (((sub * 3) % n_sub) + rng.random()) / n_sub)
                z = complex(mod * math.cos(arg), mod * math.sin(arg))
                pot = potential_data(kind, rng)
                cplx = kind.endswith("complex")
                ang = _angles(rng, 4 if general else 2, cplx)
                if not general:
                    ang = ang + [ang[0] + PI / 2, ang[1] + PI / 2]
                ops.append(_map_op(bdm, f"maps/{'general' if general else 'robin'}/{kind}/s{s}",
                                   pot, ang, z, general))
    # fixed inputs, independent of the seed: today these return NaN
    ops.append(_map_op(bdm, "maps/robin/zero/1e6i", {"kind": "zero", "R": PI},
                       [1.0, 0.7, 1.0 + PI / 2, 0.7 + PI / 2], 1e6j, False, FAULT_NAN))
    pc = {"kind": "piecewise_constant", "R": PI, "breakpoints": [1.1, 2.0],
          "values": [0.8 + 0.2j, -0.5 + 0j, 0.4 - 0.3j]}
    ops.append(_map_op(bdm, "maps/general/pc/3e5i", pc,
                       [0.35, 0.75, 1.5, 2.4], 3e5j, True, FAULT_NAN))
    return ops


def _map_op(bdm, name, pot, ang, z, general, fault=None) -> Op:
    V = make_spec(bdm, pot)
    R = pot["R"]
    if general:
        q = bdm.quad(*ang)

        def call():
            return bdm.bdmap_general(V, R, q, z, tol=TOL).matrix
    else:
        pair = bdm.AnglePair(ang[0], ang[1])

        def call():
            return bdm.bdmap_robin(V, R, pair, z, tol=TOL).matrix
    # angles as normalised by bdm are equivalent mod 2 pi; the reference
    # uses the raw values
    params = {"pot": pot, "angles": ang, "z": z, "general": general, "tol": TOL}
    return Op(name, "map", params, call, known_fault=fault)


# -------------------------------------------------------------- interior

GRID_M = 3


def build_interior(bdm, seed: int) -> list:
    ops = []
    n = 2 * len(POT_KINDS)
    for ki, kind in enumerate(POT_KINDS):
        for zi in range(2):
            slot = (kind, zi)
            rng = _rng("interior", seed, slot)
            sub = 2 * ki + zi
            # Re z from 2 to 80 (stratified), Im z in [0.5, 2.5]: Im sqrt(z) R <= 3
            re = 2.0 + 78.0 * (sub + rng.random()) / n
            z = complex(re, 0.5 + 2.0 * rng.random())
            pot = potential_data(kind, rng)
            cplx = kind.endswith("complex")
            ang = _angles(rng, 4, cplx)
            R = pot["R"]
            xs = [R * (i + 0.6 * rng.random() + 0.2) / GRID_M for i in range(GRID_M)]
            x0s = [R * (0.25 + 0.1 * rng.random()), R * (0.6 + 0.1 * rng.random())]
            alpha = rng.uniform(0.1, 3.0)
            ops.append(_interior_op(bdm, f"interior/{kind}/z{zi}", pot, ang, z, xs, x0s, alpha))
    # fixed inputs, independent of the seed: wrong or raising today
    for z in (100j, 300j):
        ops.append(_interior_op(bdm, f"interior/zero/{int(z.imag)}i", {"kind": "zero", "R": PI},
                                [0.35, 0.75, 1.5, 2.4], z, [0.5, 1.3, 2.7], [1.3, 2.2], 0.4,
                                FAULT_INTERIOR))
    return ops


def _interior_op(bdm, name, pot, ang, z, xs, x0s, alpha, fault=None) -> Op:
    V = make_spec(bdm, pot)
    R = pot["R"]
    pair = bdm.AnglePair(ang[0], ang[1])
    primed = bdm.AnglePair(ang[2], ang[3])

    def call():
        G = [[bdm.green(V, R, pair, z, x, y, tol=TOL).value for y in xs] for x in xs]
        C = [[bdm.krein_correction(V, R, pair, primed, z, x, y, tol=TOL) for y in xs]
             for x in xs]
        M = [bdm.wt_matrix(V, R, z, x0, pair, alpha, tol=TOL).matrix for x0 in x0s]
        return G, C, M

    params = {"pot": pot, "angles": ang, "z": z, "xs": xs, "x0s": x0s, "alpha": alpha,
              "tol": TOL}
    return Op(name, "interior", params, call, known_fault=fault)


# -------------------------------------------------------------- spectrum

def build_spectrum(bdm, seed: int) -> list:
    ops = []

    def sa(name, pot, ang, n, tol):
        V = make_spec(bdm, pot)
        pair = bdm.AnglePair(ang[0], ang[1])

        def call():
            return bdm.eig_selfadjoint(V, pot["R"], pair, n, tol=tol).eigenvalues

        ops.append(Op(name, "eig", {"pot": pot, "angles": ang, "n": n, "tol": tol}, call))

    def rect(name, pot, ang, box, tol, fault=None):
        V = make_spec(bdm, pot)
        pair = bdm.AnglePair(ang[0], ang[1])

        def call():
            res = bdm.eig_rectangle(V, pot["R"], pair, box, tol=tol)
            return res.eigenvalues, res.multiplicities

        ops.append(Op(name, "rect", {"pot": pot, "angles": ang, "rect": box, "tol": tol}, call,
                      known_fault=fault))

    # fixed base problems with small seeded jitter: the scan window of
    # eig_selfadjoint (and so its cost) depends on the angles and on |V|
    r = _rng("spectrum", seed, "free")
    sa("spectrum/free/dirichlet-robin/n12", {"kind": "zero", "R": PI},
       [0.0, _jit(r, 0.75, 0.1)], 12, 1e-10)
    r = _rng("spectrum", seed, "pc")
    sa("spectrum/pc/robin/n8",
       {"kind": "piecewise_constant", "R": PI, "breakpoints": [_jit(r, 0.94, 0.1), _jit(r, 2.04, 0.1)],
        "values": [complex(_jit(r, v, 0.3)) for v in (1.5, -1.0, 2.0)]},
       [_jit(r, 1.1, 0.1), _jit(r, 2.0, 0.1)], 8, 1e-10)
    r = _rng("spectrum", seed, "pc-loose")
    sa("spectrum/pc/neumann/n4",
       {"kind": "piecewise_constant", "R": PI, "breakpoints": [_jit(r, 1.3, 0.1)],
        "values": [complex(_jit(r, v, 0.3)) for v in (-1.0, 1.2)]},
       [PI / 2, _jit(r, PI / 2, 0.1)], 4, 1e-8)
    grid = [0.0, 0.6, 1.2, 1.9, 2.5, PI]
    r = _rng("spectrum", seed, "sampled")
    sa("spectrum/sampled/dirichlet/n5",
       {"kind": "sampled", "R": PI, "grid": grid,
        "values": [complex(_jit(r, v, 0.3)) for v in (0.5, 1.5, -0.5, 1.0, 0.2, 0.8)]},
       [0.0, 0.0], 5, 1e-10)
    r = _rng("spectrum", seed, "sampled-robin")
    sa("spectrum/sampled/robin/n10",
       {"kind": "sampled", "R": PI, "grid": grid,
        "values": [complex(_jit(r, v, 0.3)) for v in (-1.0, 0.5, 1.5, 0.0, -0.5, 1.0)]},
       [_jit(r, 0.9, 0.1), _jit(r, 2.2, 0.1)], 10, 1e-8)
    sa("spectrum/shallow-well/dirichlet/n3",
       {"kind": "piecewise_constant", "R": PI, "breakpoints": [1.0, 2.0],
        "values": [0j, -20 + 0j, 0j]}, [0.0, 0.0], 3, 1e-10)
    for i, tol in enumerate((1e-10, 1e-8)):
        r = _rng("spectrum", seed, f"rect{i}")
        vals = [complex(0.8 + 0.2 * r.uniform(-1, 1), 0.2 + 0.1 * r.uniform(-1, 1)),
                complex(-0.5 + 0.2 * r.uniform(-1, 1), 0.1 * r.uniform(-1, 1)),
                complex(0.4 + 0.2 * r.uniform(-1, 1), -0.3 + 0.1 * r.uniform(-1, 1))]
        pot = {"kind": "piecewise_constant", "R": PI, "breakpoints": [1.1, 2.0], "values": vals}
        ang = [complex(0.35, 0.05 * r.uniform(-1, 1)), complex(0.75)]
        rect(f"spectrum/rect/complex-pc/{i}", pot, ang, (-2.0, 20.0, -1.5, 2.5), tol)
    # fixed inputs, independent of the seed: in this box, whose midline is
    # the real axis, today's answer holds 3.5+1j (a cell centre) in place of
    # the eigenvalue near 7.2.  The jittered boxes above keep away from it.
    rect("spectrum/rect/complex-pc/cell-centre",
         {"kind": "piecewise_constant", "R": PI, "breakpoints": [1.1, 2.0],
          "values": [0.6413 + 0.1572j, -0.3925 - 0.0831j, 0.3802 - 0.3579j]},
         [0.35 + 0.0371j, 0.75 + 0j], (-2.0, 20.0, -2.0, 2.0), 1e-10, FAULT_RECT)
    return ops


# ------------------------------------------------------------------- cli

def cli_configs(seed: int) -> dict:
    """The JSON problem configs of the cli workload, keyed by run name."""
    r = _rng("cli", seed, "configs")
    samp_vals = [0.0, 0.9 + 0.2 * r.uniform(-1, 1), 0.3 + 0.2 * r.uniform(-1, 1),
                 0.7 + 0.2 * r.uniform(-1, 1), 0.0]
    sampled = {"type": "sampled", "grid": [0.0, 0.8, 1.6, 2.4, PI], "values_re": samp_vals}
    theta = {"theta0_re": PI / 3 + 0.1 * r.uniform(-1, 1),
             "thetaR_re": PI / 4 + 0.1 * r.uniform(-1, 1)}
    pc_complex = {"type": "piecewise_constant", "breakpoints": [1.1, 2.0],
                  "values_re": [0.8 + 0.3 * r.uniform(-1, 1), -0.5, 0.4],
                  "values_im": [0.2, 0.1 * r.uniform(-1, 1), -0.3]}
    zs = []
    for i in range(24):
        mod = 10.0 ** (2.5 * (i + r.random()) / 24)
        arg = PI * (0.2 + 0.6 * r.random())
        zs.append({"re": mod * math.cos(arg), "im": mod * math.sin(arg)})
    zl = [{"re": 1.0 + 20.0 * (i + r.random()) / 4, "im": 0.5 + r.random()} for i in range(4)]
    pc_real = {"type": "piecewise_constant", "breakpoints": [1.0, 2.2],
               "values_re": [r.uniform(-1, 1), r.uniform(-1, 1), r.uniform(-1, 1)]}
    return {
        "map": {"R": PI, "potential": pc_complex,
                "theta": {"theta0_re": 0.35, "theta0_im": 0.05 * r.uniform(-1, 1), "thetaR_re": 0.75},
                "theta_prime": {"theta0_re": 1.5, "thetaR_re": 2.4},
                "tol": TOL, "z_grid": {"list": zs}},
        "green": {"R": PI, "potential": sampled, "theta": theta, "tol": TOL,
                  "x_points": 3, "z_grid": {"list": zl[:2]}},
        "wtm": {"R": PI, "potential": sampled, "theta": theta, "tol": TOL,
                "x0": 1.3 + 0.2 * r.uniform(-1, 1), "alpha": 0.4 + 0.2 * r.uniform(-1, 1),
                "z_grid": {"list": zl}},
        "eig": {"R": PI, "potential": sampled, "theta": theta, "tol": TOL},
        "measure": {"R": PI, "potential": pc_real,
                    "theta": {"theta0_re": 0.0, "thetaR_re": 0.0}, "tol": TOL},
        "verify": {"R": PI, "potential": sampled, "theta": theta, "tol": TOL},
    }


CLI_RUNS = (
    ("map-jobs1", "map", ["--jobs", "1"]),
    ("map-jobs2", "map", ["--jobs", "2"]),
    ("green", "green", []),
    ("wtm", "wtm", []),
    ("eig", "eig", ["--n", "5"]),
    ("measure", "measure", ["--n", "3"]),
    ("verify", "verify", []),
)


def build_cli(seed: int, workdir: str) -> list:
    """Write the configs into workdir and return one op per bdm process."""
    cfgs = cli_configs(seed)
    paths = {}
    for name, cfg in cfgs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    ops = []
    for run, sub, extra in CLI_RUNS:
        out = os.path.join(workdir, f"{run}.csv")
        argv = [sub, "--config", paths[sub]] + extra + ["--out", out]
        ops.append(Op(f"cli/{run}", "cli", {"run": run, "sub": sub, "cfg": cfgs[sub],
                                            "out": out, "extra": extra}, argv=argv))
    return ops


def build(workload: str, seed: int, workdir: str, bdm=None) -> list:
    if workload == "cli":
        return build_cli(seed, workdir)
    return {"maps": build_maps, "interior": build_interior,
            "spectrum": build_spectrum}[workload](bdm, seed)
