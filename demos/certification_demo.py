"""Certify a solved design by trying to beat it, then plant a defect.

perturbation_search conjugates the base covariances by random unitaries
at several geodesic step sizes, each candidate carrying the base's
described subspace rotated with its quantizer, adds fully random pairs,
projects every candidate back onto the active power/fronthaul boundary
(on its own subspace), and keeps the best rate found. The margin is base rate minus best candidate rate: a
sound optimum keeps it nonnegative (the sharpest candidates tie it to
machine precision), while a half-power base goes clearly negative and
flips the verdict.
"""

import argparse

import numpy as np

from cranopt import ChannelInstance, perturbation_search, random_channel, solve_instance


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--trials", type=int, default=400)
    args = ap.parse_args()

    inst = ChannelInstance(H=random_channel(2, 2, args.seed), P=2.0, C=4.0, sigma2=1.0)
    for direction in ("uplink", "downlink"):
        design, report, _ = solve_instance(inst, direction)
        cert = perturbation_search(inst, design, trials=args.trials, seed=args.seed)
        print(f"{direction}: solved rate {report.rate:.6f} bits")
        print(f"  certification: best perturbed {cert.best_perturbed_rate:.6f}, "
              f"margin {cert.margin:+.2e}, verdict {cert.verdict} "
              f"({cert.diagnostics['evaluated']} candidates evaluated)")

        weak = type(design)(S=0.5 * design.S, Q=design.Q, active_basis=design.active_basis)
        cert = perturbation_search(inst, weak, trials=args.trials, seed=args.seed)
        print(f"  planted half-power base: margin {cert.margin:+.3f}, verdict {cert.verdict}")

    print("\nthe search never proves optimality; it fails to disprove it, loudly")
    print("and reproducibly (same seed, same verdict).")


if __name__ == "__main__":
    main()
