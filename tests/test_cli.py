"""CLI: subcommands, config handling, CSV determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdm import __version__
from bdm.cli import run

PI = math.pi


def write_config(path, **overrides):
    cfg = {
        "R": PI,
        "potential": {"type": "zero"},
        "theta": {"theta0_re": 0.0, "thetaR_re": 0.0},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def free_dirichlet(tmp_path):
    return write_config(tmp_path / "free.json")


@pytest.fixture
def robin_sampled(tmp_path):
    return write_config(
        tmp_path / "robin.json",
        potential={"type": "sampled",
                   "grid": [0.0, 0.8, 1.6, 2.4, PI],
                   "values_re": [0.0, 0.9, 0.3, 0.7, 0.0]},
        theta={"theta0_re": PI / 3, "thetaR_re": PI / 4},
        z_grid={"list": [{"re": 0.0, "im": 1.0}, {"re": 2.0, "im": 1.5}]})


def test_eig_writes_free_spectrum(free_dirichlet, tmp_path):
    out = tmp_path / "eig.csv"
    code = run(["eig", "--config", free_dirichlet, "--n", "5",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# bdm ")
    assert lines[1] == "index,eigenvalue_re,eigenvalue_im,residual"
    vals = [float(l.split(",")[1]) for l in lines[2:]]
    assert np.allclose(vals, [1, 4, 9, 16, 25], atol=1e-9)


def test_eig_deterministic_bytes(free_dirichlet, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["eig", "--config", free_dirichlet, "--n", "4", "--out", str(a)])
    run(["eig", "--config", free_dirichlet, "--n", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_map_single_z_matches_oracle(free_dirichlet, tmp_path, oracles):
    out = tmp_path / "map.csv"
    code = run(["map", "--config", free_dirichlet, "--z=-1,0",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    row = [float(v) for v in lines[2].split(",")]
    lam = oracles.bdmap_ref(oracles.pieces_of("zero", PI), PI,
                            (0.0, 0.0, PI / 2, PI / 2), -1.0)
    assert row[0] == -1.0 and row[1] == 0.0
    got = np.array([[complex(row[2], row[3]), complex(row[4], row[5])],
                    [complex(row[6], row[7]), complex(row[8], row[9])]])
    assert np.max(np.abs(got - lam)) < 1e-8


def test_map_grid_and_jobs_determinism(robin_sampled, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["map", "--config", robin_sampled, "--out", str(a)]) == 0
    assert run(["map", "--config", robin_sampled, "--jobs", "2",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 4  # header comment + header + 2 z


def test_green_subcommand(robin_sampled, tmp_path):
    out = tmp_path / "green.csv"
    code = run(["green", "--config", robin_sampled, "--z", "0,1",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "z_re,z_im,x,xp,g_re,g_im"
    assert len(lines) == 2 + 25  # default 5x5 interior grid
    # symmetry inside the file: (x, xp) and (xp, x) rows carry equal values
    rows = {}
    for l in lines[2:]:
        v = [float(t) for t in l.split(",")]
        rows[(v[2], v[3])] = complex(v[4], v[5])
    for (x, xp), g in rows.items():
        assert g == pytest.approx(rows[(xp, x)], rel=1e-9)


def test_green_respects_config_grids(tmp_path):
    cfg = write_config(tmp_path / "g.json",
                       theta={"theta0_re": 0.4, "thetaR_re": 1.1},
                       x_grid=[0.5, 1.5], xp_grid=[0.7, 2.0, 2.9])
    out = tmp_path / "green.csv"
    assert run(["green", "--config", str(cfg), "--z", "0,1",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 2 * 3
    xs = {(float(l.split(",")[2]), float(l.split(",")[3])) for l in lines[2:]}
    assert xs == {(x, xp) for x in (0.5, 1.5) for xp in (0.7, 2.0, 2.9)}


def test_measure_free_dirichlet(free_dirichlet, tmp_path):
    out = tmp_path / "measure.csv"
    code = run(["measure", "--config", free_dirichlet, "--n", "2",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    first = [float(v) for v in lines[2].split(",")]
    assert first[0] == pytest.approx(1.0, abs=1e-9)
    assert first[1] == pytest.approx(2.0 / PI, abs=1e-5)


def test_wtm_subcommand(robin_sampled, tmp_path):
    out = tmp_path / "wtm.csv"
    code = run(["wtm", "--config", robin_sampled, "--x0", "1.3",
                "--alpha", "0.4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    row = [float(v) for v in lines[2].split(",")]
    M = np.array([[complex(row[2], row[3]), complex(row[4], row[5])],
                  [complex(row[6], row[7]), complex(row[8], row[9])]])
    assert abs(np.linalg.det(M) + 0.25) < 1e-9


def test_verify_passes_on_good_config(robin_sampled, capsys):
    code = run(["verify", "--config", robin_sampled])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_fails_at_sloppy_tolerance(robin_sampled, free_dirichlet,
                                          capsys):
    # residual thresholds are meaningful: a deliberately loose integrator
    # tolerance must be caught as a verification failure (exit code 3)
    code = run(["verify", "--config", robin_sampled, "--tol", "1e-4"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out
    # a zero V is propagated exactly and does not use tol
    assert run(["verify", "--config", free_dirichlet, "--tol", "1e-4"]) == 0


def test_missing_config_is_config_error(tmp_path, capsys):
    code = run(["eig", "--config", str(tmp_path / "nope.json")])
    assert code == 1


def test_malformed_config_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(["eig", "--config", str(p)]) == 1
    p.write_text(json.dumps({"potential": {"type": "zero"}}))  # missing R
    assert run(["eig", "--config", str(p)]) == 1
    p.write_text(json.dumps({"R": PI, "potential": {"type": "warped"}}))
    assert run(["eig", "--config", str(p)]) == 1
    for argv, cfg in [
            (["map"], {"R": "abc"}),
            (["map"], {"R": PI, "theta": {"theta0_re": "abc"}}),
            (["map"], {"R": PI, "z_grid": {"rect": [0, 1, 0.5, 1],
                                           "n_re": "x"}}),
            (["map"], {"R": PI, "z_grid": {"list": [{"re": "a"}]}}),
            (["green"], {"R": PI, "x_grid": ["a", 1.0]}),
            (["wtm"], {"R": PI, "x0": "mid"}),
            (["wtm"], {"R": PI, "alpha": "x"}),
            # grids that hold no points
            (["map"], {"R": PI, "z_grid": {"list": []}}),
            (["wtm"], {"R": PI, "z_grid": {"rect": [0, 1, 0.5, 1], "n_re": 0}}),
            (["map"], {"R": PI, "z_grid": {"rect": [0, 1, 0.5, 1], "n_im": -2}}),
            (["green"], {"R": PI, "x_grid": []}),
            (["green"], {"R": PI, "xp_grid": []}),
            (["green"], {"R": PI, "x_points": 0})]:
        p.write_text(json.dumps(cfg))
        assert run(argv + ["--config", str(p),
                           "--out", str(tmp_path / "o.csv")]) == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("z", ["1,2,3", "abc", "1,", ""])
def test_malformed_z_is_config_error(z, free_dirichlet, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert run(["map", "--config", free_dirichlet, "--z", z,
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_eigenvalue_hit_is_numerical_error(free_dirichlet, tmp_path, capsys):
    code = run(["map", "--config", free_dirichlet, "--z", "1,0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_theta_prime_switches_to_general_map(tmp_path):
    cfg = write_config(tmp_path / "gen.json",
                       theta={"theta0_re": 0.3, "thetaR_re": 0.9},
                       theta_prime={"theta0_re": 0.3, "thetaR_re": 2.0})
    out = tmp_path / "map.csv"
    assert run(["map", "--config", cfg, "--z", "0,1", "--out", str(out)]) == 0
    row = [float(v) for v in out.read_text().splitlines()[2].split(",")]
    # theta0' = theta0 forces a zero (1,2) entry in the general map
    assert row[4] == 0.0 and row[5] == 0.0


@pytest.mark.parametrize("argv", [
    ["eig", "--n", "2"],
    ["measure", "--n", "2"],
    ["wtm", "--x0", "10"],
    ["map", "--z", "2,1", "--tol", "-1"],
    ["map", "--tol", "nan", "--jobs", "2"],
], ids=["eig-complex-V", "measure-complex-V", "wtm-x0-outside",
        "map-negative-tol", "map-nan-tol-jobs"])
def test_domain_error_is_one_line_exit_1(argv, tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        potential={"type": "piecewise_constant", "breakpoints": [1.1],
                   "values_re": [0.8, -0.5], "values_im": [0.2, 0.0]},
        theta={"theta0_re": 0.35, "thetaR_re": 0.75},
        z_grid={"list": [{"re": 0.0, "im": 1.0}, {"re": 2.0, "im": 1.5}]})
    code = run(argv + ["--config", cfg, "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("overrides", [
    {"theta": {"theta0_re": 0.3, "theta0_im": math.nan, "thetaR_re": 0.7}},
    {"theta": {"theta0_re": 0.3, "theta0_im": 800.0, "thetaR_re": 0.7}},
    {"potential": {"type": "sampled", "grid": [0.0, math.nan, PI],
                   "values_re": [0.0, 5.0, 0.0]}},
], ids=["nan-angle", "huge-imaginary-angle", "nan-grid-point"])
def test_bad_angle_or_grid_is_one_line_exit_1(overrides, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", **overrides)
    out = tmp_path / "o.csv"
    assert run(["map", "--config", cfg, "--z", "0,1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def _python(*args, cwd=None):
    """Run the interpreter on args with this checkout's src on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", sorted(
    (Path(__file__).resolve().parents[1] / "scripts").glob("*.py")),
    ids=lambda p: p.stem)
def test_demo_script_runs(script, tmp_path):
    # the demos write their CSVs into the working directory
    proc = _python(str(script), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_import_bdm_leaves_cli_out():
    proc = _python("-c", "import sys, bdm; "
                   "print('bdm.cli' in sys.modules, 'argparse' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


NUMPY_LOADED = "print('numpy' in sys.modules)"
COMMANDS = [["eig", "--n", "2"], ["green"], ["map"], ["wtm"],
            ["measure", "--n", "2"], ["verify"]]
ROBIN_SAMPLE = str(Path(__file__).resolve().parents[1]
                   / "scripts" / "configs" / "robin_sample.json")


def test_import_bdm_loads_no_numpy():
    proc = _python("-c", "import sys, bdm; " + NUMPY_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[a[0] for a in COMMANDS])
def test_scalar_commands_load_no_numpy(argv, tmp_path):
    # every 2x2 result is a tuple of Python numbers, and verify draws from
    # the standard library's random
    argv = argv + ["--config", ROBIN_SAMPLE, "--out", str(tmp_path / "o.csv")]
    proc = _python("-c", f"import sys; from bdm.cli import run; "
                   f"print(run({argv!r})); " + NUMPY_LOADED)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split()
    if argv[0] == "verify":  # verify prints its table first
        out = out[-2:]
    assert out == ["0", "False"]


def test_2x2_results_are_complex_tuples():
    proc = _python("-c", """
import math, sys
import bdm
from bdm.lft import moebius_imag_factor
from bdm.resolvent import lambda_times_s
R = math.pi
V = bdm.PotentialSpec.piecewise_constant([1.0], [0.5, -0.3], R)
p, q = bdm.AnglePair(0.35, 0.75), bdm.AnglePair(1.5, 2.4)
Q = bdm.AngleQuad(p, q)
A = bdm.connector(bdm.quad(0.9, 0.4, 2.0, 5.0), bdm.quad(0.0, 0.0, 1.5, 1.5))
L = bdm.bdmap_robin(V, R, p, 2 + 1j).entries
tuples = [bdm.bdmap_robin(V, R, p, 2 + 1j).entries,
          bdm.wt_matrix(V, R, 2 + 1j, 1.3, p).entries,
          bdm.diag_sin(0.3, 0.4), bdm.diag_cos(0.3, 0.4),
          lambda_times_s(V, R, Q, 2 + 1j),
          bdm.herglotz_imag(V, R, Q, 2 + 1j),
          bdm.measure_point_mass(bdm.PotentialSpec.zero(R), R,
                                 bdm.AngleQuad(bdm.AnglePair(0.0, 0.0),
                                               bdm.AnglePair(1.0, 1.0)), 1.0),
          bdm.asymptotic_reference(p, 1e4j, R),
          bdm.moebius(A, L), moebius_imag_factor(A, L),
          A.a11, A.a12, A.a21, A.a22]
print(all(type(m) is tuple and len(m) == 2
          and all(type(r) is tuple and len(r) == 2
                  and all(type(x) is complex for x in r) for r in m)
          for m in tuples))
import numpy
arrays = [bdm.bdmap_robin(V, R, p, 2 + 1j).matrix,
          bdm.wt_matrix(V, R, 2 + 1j, 1.3, p).matrix]
print(all(type(m) is numpy.ndarray and m.shape == (2, 2) for m in arrays))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_bdm_runs_without_numpy(tmp_path):
    # numpy hidden from the import system: every command gives the same
    # files, and only .matrix needs numpy
    proc = _python("-c", f"""
import math, sys

class HideNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)

sys.meta_path.insert(0, HideNumpy())
import bdm
from bdm.cli import run
codes = [run(argv + ["--config", {ROBIN_SAMPLE!r}, "--out",
                     {str(tmp_path)!r} + "/hidden-" + argv[0] + ".csv"])
         for argv in {COMMANDS!r}]
missing = []
V, p = bdm.PotentialSpec.zero(math.pi), bdm.AnglePair(0.35, 0.75)
for result in (bdm.bdmap_robin(V, math.pi, p, 1j),
               bdm.wt_matrix(V, math.pi, 1j, 1.3, p)):
    try:
        result.matrix
    except ModuleNotFoundError as exc:
        missing.append(exc.name)
print(codes, missing)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] ['numpy', 'numpy']"
    for argv in COMMANDS:
        out = tmp_path / f"{argv[0]}.csv"
        run(argv + ["--config", ROBIN_SAMPLE, "--out", str(out)])
        assert (tmp_path / f"hidden-{argv[0]}.csv").read_bytes() == out.read_bytes()


@pytest.mark.parametrize("module", ["bdm", "bdm.cli"])
def test_module_entry_points_run_without_warnings(module):
    proc = _python("-W", "error", "-m", module, "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"bdm {__version__}"


def test_domain_error_process_prints_no_traceback(tmp_path):
    out = tmp_path / "o.csv"
    proc = _python("-m", "bdm", "map", "--config", write_config(
        tmp_path / "f.json"), "--z", "2,1", "--tol", "0", "--out", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("invalid input: ")


def test_eig_finds_robin_bound_states(tmp_path, oracles):
    # the cli workload's seed-105 eig config, with two Robin bound states
    # near -0.9355 and -0.0426
    grid = [0.0, 0.8, 1.6, 2.4, PI]
    values = [0.0, 0.7235277306553369, 0.10245466563879863,
              0.7657486789910927, 0.0]
    theta0, thetaR, tol = 0.9590439908395737, 0.7321010158818426, 1e-10
    cfg = write_config(tmp_path / "eig.json", tol=tol,
                       potential={"type": "sampled", "grid": grid,
                                  "values_re": values},
                       theta={"theta0_re": theta0, "thetaR_re": thetaR})
    out = tmp_path / "eig.csv"
    assert run(["eig", "--config", cfg, "--n", "5", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
    pieces = oracles.pieces_of("sampled", PI, values=values, grid=grid)
    ref = oracles.real_eigs_ref(pieces, PI, theta0, thetaR, 5)
    assert len(rows) == 5
    for row, r in zip(rows, ref):
        assert float(row[2]) == 0.0
        assert abs(float(row[1]) - r) <= 100 * tol * max(1.0, abs(r))
