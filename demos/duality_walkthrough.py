"""Solve the uplink, carry it to the downlink, and compare the rates.

The scalar program over the channel's singular values is solved once and
carried to the downlink by the duality map (same powers and shares, tight
split). At the matrix level the two directions share nothing: different
functionals, different constraints, different assembled covariances. The
gap column below shows how well their rates agree.
"""

import argparse

import numpy as np

from cranopt import ChannelInstance, duality_gap, random_channel


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'dims':>6}  {'P':>5}  {'C':>5}  {'uplink':>10}  {'downlink':>10}  {'gap':>9}")
    worst = 0.0
    for k in range(args.count):
        n_r = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 4))
        P = float(rng.choice([0.5, 1.0, 4.0]))
        C = float(rng.choice([0.5, 2.0, 8.0]))
        inst = ChannelInstance(
            H=random_channel(n_r, n_u, seed=args.seed * 1000 + k), P=P, C=C, sigma2=1.0
        )
        out = duality_gap(inst)
        worst = max(worst, out["gap"])
        print(f"{n_r}x{n_u:>4}  {P:5.1f}  {C:5.1f}  "
              f"{out['uplink_rate']:10.6f}  {out['downlink_rate']:10.6f}  {out['gap']:9.2e}")
    print(f"\nworst gap: {worst:.2e} bits (tolerance in the acceptance suite: 1e-5)")


if __name__ == "__main__":
    main()
