"""Sweep the fronthaul budget and watch the allocation change character.

Small C concentrates everything on one subchannel (spreading wastes
description bits); large C converges to plain waterfilling. The sweep
prints both the optimal rate and where the power went.
"""

import argparse

import numpy as np

from cranopt import solve_scalar_allocation, waterfilling_capacity


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gains", default="1.6,1.0,0.5", help="comma-separated singular values")
    ap.add_argument("--P", type=float, default=3.0)
    ap.add_argument("--sigma2", type=float, default=1.0)
    args = ap.parse_args()

    gains = np.array([float(g) for g in args.gains.split(",")])
    p_wf, cap = waterfilling_capacity(gains, args.P, args.sigma2)
    print(f"gains {gains}, P = {args.P}, sigma2 = {args.sigma2}")
    print(f"waterfilling capacity (C -> inf): {cap:.6f} bits, powers {np.round(p_wf, 4)}")
    print()
    print(f"{'C':>6}  {'rate':>10}  {'rate/cap':>8}  powers / shares")

    for C in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 60.0):
        a = solve_scalar_allocation(gains, args.P, C, args.sigma2)
        r = a.diagnostics["rate"]
        print(f"{C:6.2f}  {r:10.6f}  {r / cap:8.4f}  "
              f"p={np.round(a.power, 3)} c={np.round(a.share, 3)}")

    print()
    print("note the small-C rows: the whole budget piles onto one subchannel,")
    print("and active subchannels appear one at a time as C grows.")


if __name__ == "__main__":
    main()
