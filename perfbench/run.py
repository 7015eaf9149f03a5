#!/usr/bin/env python3
"""bdm benchmark: one command, four workloads, checked against exact references.

    python3 perfbench/run.py --workload {maps,interior,spectrum,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a bdm source tree (it imports ``src/bdm`` from the
current directory, never an installed copy).  One process drives bdm's
public API and repeats whole rounds of the workload's operations for S
seconds; the cli workload runs one ``bdm`` child process at a time.
Every output is then checked against references computed apart from bdm
(oracles.py), outside the timed region.  The last line of stdout is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics from
wrapped module functions with ``--trace 1``.  Details and trace spans go
to ``perfbench-results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

# The load is one process with no threads.  numpy's OpenBLAS would start
# worker threads at import, and on a loaded 2-vCPU host their start-up made
# fresh-interpreter set-up swing with the host's load (see README).
# Children (set-up probes, bdm processes) inherit this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "probe.py")
RESULTS_DIR = "perfbench-results"
SETUP_PROBES = 6           # before and again after the timed rounds
PROBES_PER_ROUND = 2       # after each round, outside the timed region
IMPORT_PROBES = 3
DEADLINE_S = 170

import workloads  # noqa: E402  (same directory; imports no bdm)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def locate(root: str) -> str:
    """The src directory of the bdm checkout at root."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bdm", "__init__.py")):
        fail(f"no bdm sources under {src}; run from the root of a bdm checkout")
    return src


def probe(args: list) -> float:
    out = subprocess.run([sys.executable, PROBE] + args, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ execution

class CliRunner:
    """Runs one bdm process per operation, the way the console script does."""

    # the console script's entry point, so no bdm/__main__.py is needed
    CODE = "import sys; from bdm.cli import main; sys.argv[0] = 'bdm'; sys.exit(main())"

    def __init__(self, root: str, src: str, workdir: str):
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.peak_kb = 0

    def process(self, op):
        """(seconds, (rc, stdout, csv bytes)); one child at a time, reaped
        with wait4 to read that child's own peak RSS."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        with open(out_path, "wb") as fo, open(os.devnull, "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", self.CODE] + op.argv,
                                    stdout=fo, stderr=fe, env=self.env, cwd=self.root)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            dt = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, ru.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        return dt, (proc.returncode, stdout, self._csv(op))

    @staticmethod
    def _csv(op) -> bytes:
        path = op.params["out"]
        if op.params["sub"] == "verify" or not os.path.exists(path):
            return b""
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return data

    def in_process(self, run, op):
        """bdm.cli.run(argv) in this process; stdout captured."""
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = run(op.argv)
        dt = perf_counter() - t0
        return dt, (rc, buf.getvalue(), self._csv(op))


def run_rounds(ops, seconds: float, run_one, before_round=None, after_round=None,
               between=None):
    """Whole rounds until `seconds` of rounds have passed; latencies, outputs,
    round times and the timed seconds.  `between` runs after each round,
    outside the timed region."""
    lat, outs, round_s = [], [], []
    timed = 0.0
    k = 0
    while True:
        t_start = perf_counter()
        if before_round:
            before_round(k)
        t0 = perf_counter()
        row = []
        for op in ops:
            dt, res = run_one(op)
            lat.append(dt)
            row.append(res)
        round_s.append(perf_counter() - t0)
        if after_round:
            after_round(k)
        outs.append(row)
        k += 1
        timed += perf_counter() - t_start
        if between:
            between()
        if timed >= seconds and (after_round is None or k >= 2):
            break
    return lat, outs, round_s, timed


def timed_inprocess(op):
    """(seconds, (output, error)); an operation's failure is a result."""
    t0 = perf_counter()
    try:
        res = op.call(), None
    except Exception as exc:
        res = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, res


# --------------------------------------------------------------- checks

def check_all(ops, outs, cli: bool):
    """(failed, correct, failures) over every round's outputs."""
    import checks
    refs = [checks.reference(op) for op in ops]
    failed, correct, failures = 0, True, {}
    for row in outs:
        by_run = {}
        if cli:
            by_run = {op.params["run"]: res for op, res in zip(ops, row)}
        for op, ref, res in zip(ops, refs, row):
            if cli:
                out, err = res, None
            else:
                out, err = res
            why = err
            if why is None:
                try:
                    why = checks.check(op, out, ref, by_run)
                except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                    why = f"output not in the expected form: {type(exc).__name__}: {exc}"
            if why is None:
                continue
            failed += 1
            failures[op.name] = why
            if op.known_fault is None:
                correct = False
    return failed, correct, failures


def report_failures(ops, failures) -> None:
    faults = {op.name: op.known_fault for op in ops}
    for name, why in sorted(failures.items()):
        tag = f"known fault: {faults[name]}" if faults[name] else "UNEXPECTED"
        print(f"failed {name}: {why} [{tag}]", file=sys.stderr)


# ------------------------------------------------------------------ main

def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = locate(root)
    results = os.path.join(root, RESULTS_DIR)
    workdir = os.path.join(results, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)

    def on_deadline(signum, frame):
        raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        doc = run(args, root, src, workdir, results)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))


def run(args, root, src, workdir, results) -> dict:
    wl, cli = args.workload, args.workload == "cli"
    if args.trace:
        import_s = statistics.median(probe(["import", src]) for _ in range(IMPORT_PROBES))
    else:
        setup_args = ["setup", src, wl, str(args.seed), workdir]
        setup = [probe(setup_args) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, src)
    import bdm
    if not os.path.abspath(bdm.__file__).startswith(os.path.join(src, "")):
        fail(f"imported bdm from {bdm.__file__}, not from {src}")
    ops = workloads.build(wl, args.seed, workdir, bdm)
    runner = CliRunner(root, src, workdir) if cli else None

    if not args.trace:
        run_one = runner.process if cli else timed_inprocess
        # the host's speed drifts over tens of seconds: probe before, between
        # and after the rounds, and take the median of all probes
        lat, outs, _, elapsed = run_rounds(ops, args.seconds, run_one,
                                           between=lambda: setup.extend(
                                               probe(setup_args) for _ in range(PROBES_PER_ROUND)))
        peak_kb = runner.peak_kb if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup += [probe(setup_args) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(setup)
        failed, correct, failures = check_all(ops, outs, cli)
        report_failures(ops, failures)
        ms = [t * 1e3 for t in lat]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(lat) / elapsed, "ops/s"),
            "op_ms_p50": (statistics.median(ms), "ms"),
            "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        detail = {"setup_probes_s": setup, "rounds": len(outs), "ops_per_round": len(ops), "elapsed_s": elapsed,
                  "latency_ms": {op.name: [ms[r * len(ops) + i] for r in range(len(outs))]
                                 for i, op in enumerate(ops)}}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics, detail, outs, failed, correct = traced(args, ops, runner, import_s, results)
    doc = {"correct": correct, "attempted": len(outs) * len(ops), "failed": failed,
           "metrics": metrics}
    with open(os.path.join(results, f"result-{wl}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(doc, detail=detail), fh, indent=1)
    return doc


def traced(args, ops, runner, import_s, results):
    """Alternate untraced and traced rounds; per-layer metrics come from the
    traced ones, and their cost against the untraced ones is the overhead."""
    from tracer import Tracer
    tr = Tracer()
    cli = runner is not None

    def before(k):
        if k % 2:
            tr.record = k == 1
            tr.install()

    def after(k):
        if k % 2:
            tr.uninstall()
            tr.record = False

    proc_s = []
    if cli:
        import bdm.cli as bdm_cli
        in_s = {False: [], True: []}
        cur = [0.0]

        def before_cli(k):
            cur[0] = 0.0
            before(k)

        def after_cli(k):
            after(k)
            in_s[bool(k % 2)].append(cur[0])

        def run_one(op):
            # the process run gives cli.process_s and the checked output;
            # the in-process run is traced (odd rounds) or timed untraced
            dt, res = runner.process(op)
            proc_s.append(dt)
            dt_in, res_in = runner.in_process(bdm_cli.run, op)
            cur[0] += dt_in
            if (res_in[0], res_in[2]) != (res[0], res[2]):
                res = (-1, "in-process run differs from the process run", b"")
            return dt, res

        _, outs, _, _ = run_rounds(ops, args.seconds, run_one, before_cli, after_cli)
        untraced, traced_ = in_s[False], in_s[True]
    else:
        _, outs, round_s, _ = run_rounds(ops, args.seconds, timed_inprocess, before, after)
        untraced, traced_ = round_s[0::2], round_s[1::2]
    failed, correct, failures = check_all(ops, outs, cli)
    report_failures(ops, failures)
    n_traced = len(traced_)
    overhead = statistics.mean(traced_) / statistics.mean(untraced) - 1.0
    cli_m = {"import_s": import_s,
             "run_s": statistics.mean(untraced) if cli else 0.0,
             "process_s": sum(proc_s) / len(outs) if cli else 0.0}
    metrics = tr.per_layer(n_traced, cli_m)
    path = os.path.join(results, f"trace-{args.workload}-seed{args.seed}.json")
    info = {"workload": args.workload, "seed": args.seed, "traced_rounds": n_traced,
            "untraced_rounds": len(untraced), "tracing_overhead": overhead,
            "metrics": metrics}
    tr.dump(path, info)
    print(f"tracing overhead {overhead:+.1%} ({n_traced} traced vs {len(untraced)} "
          f"untraced rounds); spans and counters in {os.path.relpath(path)}")
    return metrics, info, outs, failed, correct


if __name__ == "__main__":
    main()
