#!/usr/bin/env python3
"""Sweep |z| along the imaginary ray and record how fast the Robin map's
diagonal approaches its leading-order reference, for the four boundary
cases (each angle zero/nonzero mod pi).

Writes asymptotics_scan.csv with one row per (t, case).
"""

import argparse
import math

from bdm.bdmap import asymptotic_reference, bdmap_robin
from bdm.potential import PotentialSpec
from bdm.traces import AnglePair


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--R", type=float, default=0.5)
    ap.add_argument("--out", default="asymptotics_scan.csv")
    ap.add_argument("--tmax", type=float, default=1e6)
    args = ap.parse_args()

    R = args.R
    V = PotentialSpec.sampled([0.0, 0.2 * R, 0.5 * R, 0.8 * R, R],
                              [0.0, 0.8, 1.0, 0.6, 0.0], R)
    cases = {
        "dirichlet_dirichlet": AnglePair(0.0, 0.0),
        "dirichlet_robin": AnglePair(0.0, math.pi / 4),
        "robin_dirichlet": AnglePair(math.pi / 3, 0.0),
        "robin_robin": AnglePair(math.pi / 3, math.pi / 4),
    }
    ts = []
    t = 100.0
    while t <= args.tmax * 1.0000001:
        ts.append(t)
        t *= 10.0
    lines = ["t,case,err11,err22"]
    for t in ts:
        z = 1j * t
        for name, pair in cases.items():
            lam = bdmap_robin(V, R, pair, z).matrix
            ref = asymptotic_reference(pair, z, R)
            e11 = abs(lam[0, 0] / ref[0][0] - 1.0)
            e22 = abs(lam[1, 1] / ref[1][1] - 1.0)
            lines.append(f"{t:.17g},{name},{e11:.17g},{e22:.17g}")
            print(f"t={t:>10g}  {name:<20} err11={e11:.3e}  err22={e22:.3e}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
