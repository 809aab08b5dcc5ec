#!/usr/bin/env python3
"""Sweep a single twist region and watch the obstructions switch on.

A family of parallel edges between the marked vertex and one unmarked
vertex models a twist region with k crossings; its Goeritz form is the
single entry [-k].  Enlarging k drives the characteristic cut past both
thresholds: the weak bound (cut >= m) fires for every odd k >= 1, and
the strong bound (cut >= 9m) exactly from k = 9 on.
"""

from spinfill.graphs import MarkedGraph
from spinfill.spinc import obstruction_report


def banana(k):
    edges = tuple((0, 1, i) for i in range(k))
    rot0 = tuple((i, 0) for i in range(k))
    rot1 = tuple((i, 1) for i in range(k - 1, -1, -1))
    return MarkedGraph((0, 1), edges, marked=0, rotations=(rot0, rot1))


def main():
    print(f"{'k':>3} {'det':>4} {'special':>8} {'spin d':>8} "
          f"{'cut':>4} {'weak':>12} {'strong':>12}")
    for k in range(2, 13):
        w = banana(k)
        rep = obstruction_report(w)
        d = "-" if rep.spin_d is None else str(rep.spin_d)
        cut = rep.cap_entries[0].cut if rep.cap_entries else 0
        print(f"{k:>3} {rep.det:>4} {str(rep.special):>8} {d:>8} "
              f"{cut:>4} {rep.cutbound.verdict:>12} {rep.capbound.verdict:>12}")


if __name__ == "__main__":
    main()
