"""End-to-end matrix solver and the uplink/downlink rate agreement."""

import numpy as np
import pytest

import cranopt.allocation as allocation
import cranopt.solver as solver
from cranopt import (
    ChannelInstance,
    InvalidInputError,
    SolverOptions,
    SubchannelAllocation,
    assemble_downlink,
    assemble_uplink,
    check_downlink_feasible,
    check_uplink_feasible,
    duality_gap,
    random_channel,
    solve_instance,
    subchannel_rate,
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


@pytest.mark.parametrize("n_r", [1, 2, 3, 4])
@pytest.mark.parametrize("n_u", [1, 2, 3, 4])
@pytest.mark.parametrize("direction", ["uplink", "downlink"])
@pytest.mark.parametrize("off", [False, True], ids=["all-on", "one-off"])
def test_assembly_contract(n_r, n_u, direction, off):
    # both assemblies realize an allocation on the channel's D singular
    # directions: full-space covariances, a forwarded/described basis made
    # of the left singular vectors that carry a share, and the scalar rate
    inst = ChannelInstance(H=random_channel(n_r, n_u, 10 * n_r + n_u), P=4.0, C=4.0, sigma2=1.0)
    spec = svd(inst.H)
    D = spec.rank
    power = 1.0 + 0.5 * np.arange(D)
    share = 0.5 + 0.25 * np.arange(D)
    if off and D >= 2:
        share[1] = 0.0
    alloc = SubchannelAllocation(power, share)
    if direction == "uplink":
        design = assemble_uplink(spec, alloc, inst.sigma2)
        report = check_uplink_feasible(inst, design)
        assert design.S.shape == (n_u, n_u)
    else:
        design = assemble_downlink(spec, alloc)
        report = check_downlink_feasible(inst, design)
        assert design.S.shape == (n_r, n_r)
    assert design.Q.shape == (n_r, n_r)
    on = alloc.share > 0
    if D == n_r and on.all():
        assert design.active_basis is None
    else:
        assert np.array_equal(design.active_basis, spec.left_basis[:, :D][:, on])
    expected = float(np.sum(subchannel_rate(spec.gains_squared * power, alloc.share, inst.sigma2)))
    assert np.isclose(report.rate, expected, rtol=1e-12, atol=0.0)


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


def _two_solve_duality_gap(inst, opts=None):
    """Reference for duality_gap: the former path, which solved the scalar
    problem once per direction and assembled each from its own solve."""
    _, rep_ul, _ = solve_instance(inst, "uplink", opts)
    _, rep_dl, _ = solve_instance(inst, "downlink", opts)
    return {
        "uplink_rate": rep_ul.rate,
        "downlink_rate": rep_dl.rate,
        "gap": float(abs(rep_ul.rate - rep_dl.rate)),
        "uplink_report": rep_ul,
        "downlink_report": rep_dl,
    }


def _unique_kinks_share_step(s, C, c_max):
    """Reference for allocation._share_step: the former version, which
    deduplicated the kinks of the budget curve before interpolating."""
    c = np.zeros_like(s, dtype=float)
    pos = s > 0
    n = int(pos.sum())
    if n == 0 or C <= 0:
        return c
    ls = np.log2(s[pos])
    if C >= n * c_max:
        c[pos] = c_max
        return c
    kinks = np.unique(np.concatenate([ls, ls - c_max]))
    g = np.clip(ls[None, :] - kinks[:, None], 0.0, c_max).sum(axis=1)
    j = int(np.argmax(g <= C))
    if g[j] == C:
        u = kinks[j]
    else:
        u = kinks[j - 1] + (g[j - 1] - C) * (kinks[j] - kinks[j - 1]) / (g[j - 1] - g[j])
    cp = np.clip(ls - u, 0.0, c_max)
    tot = cp.sum()
    if tot > C > 0:
        cp *= C / tot
    c[pos] = cp
    return c


def _duality_corpus():
    """Criterion-1 strata, degenerate budgets and gains, and channels whose
    share steps meet equal gains and equal kinks."""
    cases = []
    for k in range(144):
        n_r, n_u = 1 + k % 4, 1 + (k // 4) % 4
        P, C = (0.5, 1.0, 4.0)[k % 3], (0.5, 2.0, 8.0)[(k // 3) % 3]
        cases.append((_random_instance(500 + k, n_r, n_u, P, C), None))
    for n_r, n_u in [(1, 1), (2, 3), (3, 2)]:
        cases.append((_random_instance(700 + n_r, n_r, n_u, P=0.0, C=2.0), None))
        cases.append((_random_instance(710 + n_r, n_r, n_u, P=2.0, C=0.0), None))
        zero = ChannelInstance(H=np.zeros((n_r, n_u)), P=2.0, C=2.0, sigma2=1.0)
        cases.append((zero, None))
    for P in (0.5, 1.0, 4.0):
        for C in (0.5, 2.0, 8.0):
            for H in (np.eye(3), np.diag([2.0, 2.0, 1.0]), np.diag([2.0, 1.0])):
                cases.append((ChannelInstance(H=H, P=P, C=C, sigma2=1.0), None))
    # gains 2 and 1 at c_max = 2: on the uniform start the two subchannels'
    # log2 signal powers differ by exactly c_max, so two kinks coincide
    for C in (0.5, 1.0, 2.0, 3.0):
        cases.append(
            (ChannelInstance(H=np.diag([2.0, 1.0]), P=4.0, C=C, sigma2=1.0),
             SolverOptions(c_max=2.0))
        )
    return cases


def test_one_solve_duality_matches_two_solve_reference(monkeypatch):
    cases = _duality_corpus()
    with monkeypatch.context() as m:
        m.setattr(allocation, "_share_step", _unique_kinks_share_step)
        refs = [_two_solve_duality_gap(inst, opts) for inst, opts in cases]
    for k, ((inst, opts), ref) in enumerate(zip(cases, refs)):
        out = duality_gap(inst, opts)
        assert out["uplink_rate"] == ref["uplink_rate"], k
        assert out["downlink_rate"] == ref["downlink_rate"], k
        assert out["gap"] == ref["gap"], k
        assert out["uplink_report"] == ref["uplink_report"], k
        assert out["downlink_report"] == ref["downlink_report"], k


def test_duality_gap_solves_the_scalar_problem_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return allocation.solve_scalar_allocation(*args, **kwargs)

    # solver looks the name up in its own namespace
    monkeypatch.setattr(solver, "solve_scalar_allocation", counted)
    for k, (inst, opts) in enumerate(_duality_corpus()[::10]):
        calls.clear()
        duality_gap(inst, opts)
        assert len(calls) == 1, k
