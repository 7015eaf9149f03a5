"""Command-line front end.

Subcommands: eig, map, green, measure, wtm, verify.  Problems are described
by a JSON config; numeric output is CSV with complex values split into
paired _re/_im columns, floats printed with 17 significant digits, and a
version header comment so files are byte-reproducible.

Exit codes: 0 ok, 1 config error or input outside a function's domain,
2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from . import __version__
from .bdmap import bdmap_general, measure_point_mass
from .errors import ConfigError, DomainError, NumericalError
from .odecore import DEFAULT_TOL
from .potential import PotentialSpec
from .resolvent import green
from .spectrum import eig_selfadjoint
from .traces import AnglePair, AngleQuad
from .verify import format_table, run_suite
from .weyl import wt_matrix

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


def _fmt(x) -> str:
    return x if isinstance(x, str) else f"{float(x):.17g}"


def _complex_cols(prefix: str):
    return [f"{prefix}_re", f"{prefix}_im"]


def _pair(block: dict) -> AnglePair:
    return AnglePair(*(complex(block.get(f"{t}_re", 0.0), block.get(f"{t}_im", 0.0))
                       for t in ("theta0", "thetaR")))


@contextmanager
def _reading(what: str):
    """Malformed input met while reading `what` is a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def load_potential(cfg: dict, R: float) -> PotentialSpec:
    pot = cfg.get("potential", {"type": "zero"})
    kind = pot.get("type")
    with _reading("potential block"):
        if kind == "zero":
            return PotentialSpec.zero(R)
        vre = pot.get("values_re", [])
        vim = pot.get("values_im", [0.0] * len(vre))
        if len(vim) != len(vre):
            raise ConfigError("values_re and values_im lengths differ")
        values = [complex(a, b) for a, b in zip(vre, vim)]
        if kind == "piecewise_constant":
            return PotentialSpec.piecewise_constant(pot.get("breakpoints", []),
                                                    values, R)
        if kind == "sampled":
            return PotentialSpec.sampled(pot.get("grid", []), values, R)
    raise ConfigError(f"unknown potential type {kind!r}")


@dataclass(frozen=True)
class ProblemConfig:
    """A parsed problem description; angles are strip-normalized."""

    R: float
    V: PotentialSpec
    pair: AnglePair
    primed: AnglePair | None
    tol: float
    raw: dict


def parse_config(cfg: dict, tol_override=None) -> ProblemConfig:
    with _reading("config"):
        if "R" not in cfg:
            raise ConfigError("config must set R")
        R = float(cfg["R"])
        V = load_potential(cfg, R)
        pair = _pair(cfg.get("theta", {}))
        primed = _pair(cfg["theta_prime"]) if "theta_prime" in cfg else None
        tol = tol_override if tol_override is not None else cfg.get("tol")
        if tol is None:
            tol = DEFAULT_TOL
        return ProblemConfig(R=R, V=V, pair=pair, primed=primed,
                             tol=float(tol), raw=cfg)


def load_config(path: str, tol_override=None) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(cfg, tol_override)


def _nonempty(points: list, what: str) -> list:
    if not points:
        raise ConfigError(f"{what} holds no points")
    return points


def z_grid_from_config(cfg: dict, z_arg=None):
    if z_arg is not None:
        with _reading(f"--z {z_arg!r} (expected 're' or 're,im')"):
            return [complex(*(float(p) for p in z_arg.split(",")))]
    zg = cfg.get("z_grid")
    if zg is None:
        return [complex(0.0, 1.0)]
    with _reading("z_grid"):
        if "list" in zg:
            return _nonempty([complex(p.get("re", 0.0), p.get("im", 0.0))
                              for p in zg["list"]], "z_grid")
        if "rect" in zg:
            re0, re1, im0, im1 = (float(v) for v in zg["rect"])
            n_re = int(zg.get("n_re", 5))
            n_im = int(zg.get("n_im", 5))
            res = [re0 + (re1 - re0) * i / max(n_re - 1, 1) for i in range(n_re)]
            ims = [im0 + (im1 - im0) * j / max(n_im - 1, 1) for j in range(n_im)]
            return _nonempty([complex(a, b) for b in ims for a in res], "z_grid")
    raise ConfigError("z_grid must carry either 'list' or 'rect'")


def write_csv(path: str, header: list, rows) -> None:
    lines = [f"# bdm {__version__}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _mat_row(entries) -> list:
    """The 2x2 entries, row by row, as (re, im) column pairs."""
    return [part for row in entries for v in row for part in (v.real, v.imag)]


def cmd_eig(cfg, args) -> int:
    res = eig_selfadjoint(cfg.V, cfg.R, cfg.pair, args.n, cfg.tol)
    rows = [[i, lam.real, lam.imag, r]
            for i, (lam, r) in enumerate(zip(res.eigenvalues, res.residuals))]
    write_csv(args.out, ["index", "eigenvalue_re", "eigenvalue_im", "residual"],
              rows)
    return EXIT_OK


def cmd_map(cfg, args) -> int:
    rows = []
    quad = AngleQuad(cfg.pair, cfg.primed or cfg.pair.robin_primed())
    for z in z_grid_from_config(cfg.raw, args.z):
        lam = bdmap_general(cfg.V, cfg.R, quad, z, cfg.tol).entries
        rows.append([z.real, z.imag] + _mat_row(lam))
    header = (["z_re", "z_im"] + _complex_cols("l11") + _complex_cols("l12")
              + _complex_cols("l21") + _complex_cols("l22"))
    write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_green(cfg, args) -> int:
    raw = cfg.raw
    with _reading("x_points/x_grid/xp_grid"):
        n = int(raw.get("x_points", 5))
        xs = _nonempty([float(v) for v in raw.get(
            "x_grid", [cfg.R * (i + 1) / (n + 1) for i in range(n)])], "x grid")
        xps = _nonempty([float(v) for v in raw.get("xp_grid", xs)], "x' grid")
    rows = []
    for z in z_grid_from_config(raw, args.z):
        for x in xs:
            for xp in xps:
                g = green(cfg.V, cfg.R, cfg.pair, z, x, xp, cfg.tol).value
                rows.append([z.real, z.imag, x, xp, g.real, g.imag])
    write_csv(args.out, ["z_re", "z_im", "x", "xp", "g_re", "g_im"], rows)
    return EXIT_OK


def cmd_measure(cfg, args) -> int:
    V, R, pair, tol = cfg.V, cfg.R, cfg.pair, cfg.tol
    primed = cfg.primed or pair.robin_primed()
    spec = eig_selfadjoint(V, R, pair, args.n, tol)
    rows = []
    for lam in spec.eigenvalues:
        sig = measure_point_mass(V, R, AngleQuad(pair, primed), lam.real, tol)
        rows.append([lam.real] + _mat_row(sig))
    header = (["lambda"] + _complex_cols("sigma11") + _complex_cols("sigma12")
              + _complex_cols("sigma21") + _complex_cols("sigma22"))
    write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_wtm(cfg, args) -> int:
    with _reading("x0/alpha"):
        x0 = float(args.x0 if args.x0 is not None
                   else cfg.raw.get("x0", cfg.R / 2))
        alpha = float(args.alpha if args.alpha is not None
                      else cfg.raw.get("alpha", 0.0))
    rows = []
    for z in z_grid_from_config(cfg.raw, args.z):
        M = wt_matrix(cfg.V, cfg.R, z, x0, cfg.pair, alpha, cfg.tol).entries
        rows.append([z.real, z.imag] + _mat_row(M))
    header = (["z_re", "z_im"] + _complex_cols("m11") + _complex_cols("m12")
              + _complex_cols("m21") + _complex_cols("m22"))
    write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_verify(cfg, args) -> int:
    results = run_suite(cfg.V, cfg.R, cfg.pair, tol=cfg.tol)
    print(format_table(results))
    if args.out and args.out != "-":
        write_csv(args.out, ["identity", "residual", "threshold", "passed"],
                  [[r.name, r.residual, r.threshold, 1.0 if r.passed else 0.0]
                   for r in results])
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bdm",
                                 description="boundary data maps for 1-D "
                                 "Schrodinger operators on [0, R]")
    ap.add_argument("--version", action="version", version=f"bdm {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, default_out):
        p.add_argument("--config", required=True, help="JSON problem config")
        p.add_argument("--tol", type=float, default=None,
                       help="override the config's tolerance")
        p.add_argument("--jobs", type=int, default=1,
                       help="ignored; z grids run in one process")
        p.add_argument("--out", default=default_out,
                       help="output CSV path ('-' for stdout)")

    p = sub.add_parser("eig", help="eigenvalues of the self-adjoint problem")
    common(p, "eig.csv")
    p.add_argument("--n", type=int, default=5, help="number of eigenvalues")

    p = sub.add_parser("map", help="boundary data map entries over a z grid")
    common(p, "map.csv")
    p.add_argument("--z", default=None, help="single z as 're,im'")

    p = sub.add_parser("green", help="Green's function over an (x, x', z) grid")
    common(p, "green.csv")
    p.add_argument("--z", default=None, help="single z as 're,im'")

    p = sub.add_parser("measure", help="spectral point masses at eigenvalues")
    common(p, "measure.csv")
    p.add_argument("--n", type=int, default=5, help="number of eigenvalues")

    p = sub.add_parser("wtm", help="Weyl-Titchmarsh matrix over a z grid")
    common(p, "wtm.csv")
    p.add_argument("--z", default=None, help="single z as 're,im'")
    p.add_argument("--x0", type=float, default=None, help="interior reference point")
    p.add_argument("--alpha", type=float, default=None, help="rotation in [0, pi)")

    p = sub.add_parser("verify", help="run the identity suite")
    common(p, None)
    return ap


_COMMANDS = {"eig": cmd_eig, "map": cmd_map, "green": cmd_green,
             "measure": cmd_measure, "wtm": cmd_wtm, "verify": cmd_verify}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
