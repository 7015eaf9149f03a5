"""Fresh-interpreter timing probes; prints one number of seconds.

    python3 perfbench/probe.py import <src>
        time of ``import bdm``
    python3 perfbench/probe.py setup <src> <workload> <seed> <workdir>
        time of ``import bdm`` plus building the workload's inputs
"""

import sys
from time import perf_counter


def main() -> None:
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    if mode == "import":
        t0 = perf_counter()
        import bdm  # noqa: F401
        print(perf_counter() - t0)
        return
    import workloads
    workload, seed, workdir = sys.argv[3], int(sys.argv[4]), sys.argv[5]
    t0 = perf_counter()
    import bdm
    workloads.build(workload, seed, workdir, bdm)
    print(perf_counter() - t0)


if __name__ == "__main__":
    main()
