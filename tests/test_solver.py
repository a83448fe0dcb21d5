"""End-to-end matrix solver and the uplink/downlink rate agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cranopt.allocation as allocation
import cranopt.solver as solver
from cranopt import (
    ChannelInstance,
    InvalidInputError,
    SubchannelAllocation,
    assemble_downlink,
    assemble_uplink,
    check_downlink_feasible,
    check_uplink_feasible,
    downlink_fronthaul,
    downlink_rate,
    duality_gap,
    random_channel,
    random_unitary,
    solve_instance,
    subchannel_rate,
    uplink_fronthaul,
    uplink_rate,
    waterfilling_capacity,
    svd,
)
from cranopt.allocation import tight_quantizer_downlink, tight_quantizer_uplink
from cranopt.kernels import ChannelSpectrum


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


def test_one_design_functionals_reject_the_other_direction():
    # each used to evaluate the other direction's design: uplink_rate of
    # the solved downlink design read 1.5066 bits, its downlink rate 1.6414
    inst = _random_instance(1)
    uplink = solve_instance(inst, "uplink")[0]
    downlink = solve_instance(inst, "downlink")[0]
    for functional in (uplink_rate, uplink_fronthaul, check_uplink_feasible):
        with pytest.raises(InvalidInputError, match="UplinkDesign"):
            functional(inst, downlink)
    for functional in (downlink_rate, check_downlink_feasible):
        with pytest.raises(InvalidInputError, match="DownlinkDesign"):
            functional(inst, uplink)
    with pytest.raises(InvalidInputError, match="DownlinkDesign"):
        downlink_fronthaul(uplink)


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


# Gaussian channels up to 4 x 4 with P in [1e-2, 1e2], C in [0.1, 10^1.5]
# and sigma2 in [0.1, 10]
_INSTANCES = st.builds(
    lambda n_r, n_u, seed, log_p, log_c, log_s2: ChannelInstance(
        H=random_channel(n_r, n_u, seed), P=10.0**log_p, C=10.0**log_c, sigma2=10.0**log_s2
    ),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**31),
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.5),
    st.floats(-1.0, 1.0),
)


def _duality_rates(inst):
    out = duality_gap(inst)
    return np.array([out["uplink_rate"], out["downlink_rate"]])


def _like(inst, H, sigma2):
    return ChannelInstance(H=H, P=inst.P, C=inst.C, sigma2=sigma2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_INSTANCES, st.integers(0, 2**31))
def test_duality_rates_invariant_under_unitary_rotation(inst, seed):
    # H -> U H V^H with Haar U and V keeps the singular values
    U, V = random_unitary(inst.n_r, seed), random_unitary(inst.n_u, seed + 1)
    rotated = _like(inst, U @ inst.H @ V.conj().T, inst.sigma2)
    assert np.abs(_duality_rates(rotated) - _duality_rates(inst)).max() <= 1e-9


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_INSTANCES, st.floats(-6.0, 6.0))
def test_duality_rates_invariant_under_channel_and_noise_scaling(inst, log_a):
    # (H, sigma2) -> (a H, a^2 sigma2) keeps every signal-to-noise ratio
    a = 10.0**log_a
    scaled = _like(inst, a * inst.H, a * a * inst.sigma2)
    assert np.abs(_duality_rates(scaled) - _duality_rates(inst)).max() <= 1e-9


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_INSTANCES)
def test_matrix_rates_equal_the_scalar_rate(inst):
    # each direction's matrix functional reads back the rate of the scalar
    # allocation its design realizes
    out = duality_gap(inst)
    scalar = out["uplink_report"].diagnostics["rate"]
    assert abs(out["uplink_rate"] - scalar) <= 1e-9
    assert abs(out["downlink_rate"] - scalar) <= 1e-9


def test_tall_and_wide_channels():
    for n_r, n_u in [(1, 3), (3, 1), (4, 2), (2, 4)]:
        inst = _random_instance(50 + n_r * 10 + n_u, n_r=n_r, n_u=n_u)
        for direction in ("uplink", "downlink"):
            design, report, alloc = solve_instance(inst, direction)
            assert report.feasible
        assert duality_gap(inst)["gap"] <= 1e-5


def _two_solve_duality_gap(inst):
    """Reference for duality_gap: the former path, which solved the scalar
    problem once per direction and assembled each from its own solve."""
    _, rep_ul, _ = solve_instance(inst, "uplink")
    _, rep_dl, _ = solve_instance(inst, "downlink")
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
    share steps meet equal gains."""
    cases = []
    for k in range(144):
        n_r, n_u = 1 + k % 4, 1 + (k // 4) % 4
        P, C = (0.5, 1.0, 4.0)[k % 3], (0.5, 2.0, 8.0)[(k // 3) % 3]
        cases.append(_random_instance(500 + k, n_r, n_u, P, C))
    for n_r, n_u in [(1, 1), (2, 3), (3, 2)]:
        cases.append(_random_instance(700 + n_r, n_r, n_u, P=0.0, C=2.0))
        cases.append(_random_instance(710 + n_r, n_r, n_u, P=2.0, C=0.0))
        cases.append(ChannelInstance(H=np.zeros((n_r, n_u)), P=2.0, C=2.0, sigma2=1.0))
    for P in (0.5, 1.0, 4.0):
        for C in (0.5, 2.0, 8.0):
            for H in (np.eye(3), np.diag([2.0, 2.0, 1.0]), np.diag([2.0, 1.0])):
                cases.append(ChannelInstance(H=H, P=P, C=C, sigma2=1.0))
    return cases


def test_one_solve_duality_matches_two_solve_reference(monkeypatch):
    cases = _duality_corpus()
    with monkeypatch.context() as m:
        m.setattr(allocation, "_share_step", _unique_kinks_share_step)
        refs = [_two_solve_duality_gap(inst) for inst in cases]
    for k, (inst, ref) in enumerate(zip(cases, refs)):
        out = duality_gap(inst)
        assert out["uplink_rate"] == ref["uplink_rate"], k
        assert out["downlink_rate"] == ref["downlink_rate"], k
        assert out["gap"] == ref["gap"], k
        assert out["uplink_report"] == ref["uplink_report"], k
        assert out["downlink_report"] == ref["downlink_report"], k


def test_share_step_at_coinciding_kinks_matches_the_unique_kinks_reference(monkeypatch):
    # gains 2 and 1 at c_max = 2: on the uniform start the two subchannels'
    # log2 signal powers differ by exactly c_max, so two kinks coincide
    g2, P = np.array([4.0, 1.0]), 4.0
    for C in (0.5, 1.0, 2.0, 3.0):
        starts = allocation._start_points(g2, P)
        with monkeypatch.context() as m:
            m.setattr(allocation, "_share_step", _unique_kinks_share_step)
            refs = [allocation._ascend(p0, g2, P, C, 1.0, 2.0) for p0 in starts]
        for p0, ref in zip(starts, refs):
            rate, p, c, rounds = allocation._ascend(p0, g2, P, C, 1.0, 2.0)
            assert rate == ref[0] and rounds == ref[3], C
            assert np.array_equal(p, ref[1]) and np.array_equal(c, ref[2]), C


def test_duality_gap_solves_the_scalar_problem_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return allocation.solve_scalar_allocation(*args, **kwargs)

    # solver looks the name up in its own namespace
    monkeypatch.setattr(solver, "solve_scalar_allocation", counted)
    for k, inst in enumerate(_duality_corpus()[::10]):
        calls.clear()
        duality_gap(inst)
        assert len(calls) == 1, k


def test_duality_gap_takes_one_svd(monkeypatch):
    # the solve, the downlink assembly and the downlink rate all read the
    # instance's spectrum, which is taken once, on first use
    calls = []
    lapack_svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return lapack_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for k, inst in enumerate(_duality_corpus()[::10]):
        calls.clear()
        duality_gap(inst)
        assert len(calls) == 1, k
        duality_gap(inst)
        assert len(calls) == 1, k


def test_matrix_rates_read_the_channel_not_its_spectrum():
    # a spectrum whose largest singular value is 5% high, with H and both
    # bases unchanged: the allocation and its scalar rate follow the wrong
    # gains, and both directions' matrix rates, read from H through the
    # bases, must depart from that scalar rate (the downlink rate once read
    # the gains from the spectrum and matched it to 7e-16 bits)
    inst = ChannelInstance(random_channel(3, 3, 4), 1, 2, 1)
    spec = inst.spectrum
    s = spec.singular_values.copy()
    s[0] *= 1.05
    inst.__dict__["spectrum"] = ChannelSpectrum(s, spec.left_basis, spec.right_basis)
    out = duality_gap(inst)
    scalar = out["allocation"].diagnostics["rate"]
    for direction in ("uplink", "downlink"):
        assert abs(out[f"{direction}_rate"] - scalar) > 1e-2, direction


def _dense_assembly(spec, alloc, direction):
    """S and Q as the dense assemblies formed them: U diag(x) U^H over all
    D subchannels, with zeros on those without a quantizer."""
    U, V, D = spec.left_basis, spec.right_basis, spec.rank
    on = alloc.share > 0
    q, pt = np.zeros(D), np.zeros(D)
    if direction == "uplink":
        q[on] = tight_quantizer_uplink(spec.gains_squared[on], alloc.power[on], alloc.share[on], 1.0)
        q[~np.isfinite(q)] = 0.0
        return (V * alloc.power) @ V.conj().T, (U * q) @ U.conj().T, int(np.count_nonzero(q))
    if on.any():
        q[on], pt[on] = tight_quantizer_downlink(alloc.power[on], alloc.share[on])
    return (U * pt) @ U.conj().T, (U * q) @ U.conj().T, int(np.count_nonzero(q))


def test_assembled_factors_form_the_dense_assembly():
    # on criterion 1's instances, the dense S and Q formed from an assembled
    # design's eigen-factors are the dense assembly's bit for bit, and
    # active_basis is None exactly where every receive dimension carries a
    # share.  One exception: a Q with one active subchannel of D >= 2, where
    # numpy's one-column product rounds differently from the D-column one
    # with zeros, each part by an ulp of the largest entry at most
    one_active = 0
    for k in range(200):
        n_r, n_u = 1 + k % 4, 1 + (k // 4) % 4
        inst = ChannelInstance(
            random_channel(n_r, n_u, 10_000 + k), (0.5, 1.0, 4.0)[k % 3],
            (0.5, 2.0, 8.0)[(k // 3) % 3], 1.0,
        )
        spec = inst.spectrum
        alloc = solve_instance(inst, "uplink")[2]
        for direction, design in (
            ("uplink", assemble_uplink(spec, alloc, 1.0)),
            ("downlink", assemble_downlink(spec, alloc)),
        ):
            S, Q, active = _dense_assembly(spec, alloc, direction)
            assert np.array_equal(design.S, S), (k, direction)
            if active == 1 < spec.rank:
                one_active += 1
                assert np.abs(design.Q - Q).max() <= 2 * np.spacing(np.abs(Q).max()), (k, direction)
            else:
                assert np.array_equal(design.Q, Q), (k, direction)
            assert (design.active_basis is None) == (active == n_r), (k, direction)
    assert one_active > 0
