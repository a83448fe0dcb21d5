"""End-to-end matrix solver and the uplink/downlink rate agreement."""

import numpy as np
import pytest

from cranopt import (
    ChannelInstance,
    InvalidInputError,
    duality_gap,
    random_channel,
    solve_instance,
    waterfilling_capacity,
    svd,
)


def _random_instance(seed, n_r=2, n_u=2, P=2.0, C=3.0):
    return ChannelInstance(H=random_channel(n_r, n_u, seed), P=P, C=C, sigma2=1.0)


def test_solve_instance_returns_feasible_certified_triple():
    inst = _random_instance(1)
    for direction in ("uplink", "downlink"):
        design, report, alloc = solve_instance(inst, direction)
        assert report.feasible, report.diagnostics
        assert report.rate > 0
        assert np.isclose(report.rate, alloc.diagnostics["rate"], rtol=1e-10)
        assert design.S.shape[0] in (inst.n_r, inst.n_u)


def test_solve_instance_rejects_bad_direction():
    with pytest.raises(InvalidInputError):
        solve_instance(_random_instance(2), "both")


def test_rate_ceilings():
    # achievable rate can exceed neither the fronthaul budget nor the
    # unconstrained waterfilling capacity
    for seed in range(12):
        inst = _random_instance(seed, n_r=3, n_u=2, P=1.5, C=2.0)
        spec = svd(inst.H)
        _, cap = waterfilling_capacity(spec.singular_values, inst.P, inst.sigma2)
        for direction in ("uplink", "downlink"):
            _, report, _ = solve_instance(inst, direction)
            assert report.rate <= inst.C + 1e-9
            assert report.rate <= cap + 1e-9


def test_duality_gap_small_batch():
    for seed in range(20):
        n_r = 1 + seed % 3
        n_u = 1 + (seed // 3) % 3
        inst = _random_instance(seed + 100, n_r=n_r, n_u=n_u, P=2.0, C=3.0)
        out = duality_gap(inst)
        assert out["gap"] <= 1e-5, (seed, out["gap"])
        assert out["uplink_report"].feasible
        assert out["downlink_report"].feasible


def test_tall_and_wide_channels():
    for n_r, n_u in [(1, 3), (3, 1), (4, 2), (2, 4)]:
        inst = _random_instance(50 + n_r * 10 + n_u, n_r=n_r, n_u=n_u)
        for direction in ("uplink", "downlink"):
            design, report, alloc = solve_instance(inst, direction)
            assert report.feasible
        assert duality_gap(inst)["gap"] <= 1e-5
