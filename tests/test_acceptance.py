"""Acceptance suite: every structural guarantee at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import time
import traceback
import warnings

import numpy as np
import pytest

from cranopt import (
    TOL,
    ChannelInstance,
    DomainError,
    SubchannelAllocation,
    certified_gap_bits,
    check_downlink_bounds,
    check_downlink_feasible,
    check_power_lower_bound,
    check_uplink_feasible,
    check_uplink_rate_bound,
    duality_gap,
    perturbation_search,
    random_channel,
    random_unitary,
    solve_instance,
    solve_scalar_allocation,
    subchannel_rate,
    svd,
    waterfilling_capacity,
)
from cranopt.cli import EXIT_CHECK_FAILED, ExperimentConfig, run


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


def _rand_psd(n, rng):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (X @ X.conj().T) / n


def test_criterion_1_duality():
    """Uplink and downlink optimal rates agree within 1e-5 bits."""
    t0 = time.perf_counter()
    worst = 0.0
    P_cycle = (0.5, 1.0, 4.0)
    C_cycle = (0.5, 2.0, 8.0)
    for k in range(200):
        n_r = 1 + k % 4
        n_u = 1 + (k // 4) % 4
        inst = ChannelInstance(
            H=random_channel(n_r, n_u, seed=10_000 + k),
            P=P_cycle[k % 3],
            C=C_cycle[(k // 3) % 3],
            sigma2=1.0,
        )
        out = duality_gap(inst)
        assert out["uplink_report"].feasible and out["downlink_report"].feasible, k
        worst = max(worst, out["gap"])
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5
    assert _verdict(
        "criterion 1 (duality, 200 instances)", ok, f"worst gap {worst:.3e} <= 1e-5, {dt:.1f}s"
    )


def test_criterion_2_diagonalization_optimality():
    """Random perturbations never beat the diagonal design by > 1e-6 bits."""
    t0 = time.perf_counter()
    worst = np.inf
    for k in range(50):
        n_r = 1 + k % 3
        n_u = 1 + (k // 3) % 3
        inst = ChannelInstance(
            H=random_channel(n_r, n_u, seed=20_000 + k),
            P=(0.5, 1.0, 4.0)[k % 3],
            C=(0.5, 2.0, 8.0)[(k // 5) % 3],
            sigma2=1.0,
        )
        for direction in ("uplink", "downlink"):
            design, _, _ = solve_instance(inst, direction)
            report = perturbation_search(inst, design, trials=1000, seed=k)
            assert report.verdict, (k, direction, report.margin)
            worst = min(worst, report.margin)
    dt = time.perf_counter() - t0
    ok = worst >= -1e-6
    assert _verdict(
        "criterion 2 (diagonalization, 50 x 2 x 1000 trials)",
        ok,
        f"worst margin {worst:.3e} >= -1e-6, {dt:.1f}s",
    )


def test_criterion_3_single_subchannel_closed_form():
    """D = 1: solver and certified bound match log2((h^2 P + s2) /
    (s2 + 2^-C h^2 P)) to 1e-9."""
    h = 1.3
    worst_solver = 0.0
    worst_bound = 0.0
    for P in np.linspace(0.25, 4.0, 10):
        for C in np.linspace(0.25, 6.0, 10):
            closed = np.log2((h**2 * P + 1.0) / (1.0 + 2.0**-C * h**2 * P))
            a = solve_scalar_allocation(np.array([h]), P, C, 1.0)
            worst_solver = max(worst_solver, abs(a.diagnostics["rate"] - closed))
            bound = a.diagnostics["rate"] + certified_gap_bits(np.array([h]), P, C, 1.0, a)
            worst_bound = max(worst_bound, abs(bound - closed))
    ok = worst_solver <= 1e-9 and worst_bound <= 1e-9
    assert _verdict(
        "criterion 3 (D=1 closed form, 10x10 grid)",
        ok,
        f"solver dev {worst_solver:.3e} <= 1e-9, bound dev {worst_bound:.3e}",
    )


def test_closed_form_at_high_snr():
    """D = 1 above 120 dB: solver and certified bound match log2((s + 1) /
    (1 + 2^-C s)) to 1e-9, and an allocation held at 60 bits falls 0.90
    bits short of it."""
    worst_solver = 0.0
    worst_bound = 0.0
    for gain, C in ((1e6, 100.0), (1e9, 200.0)):
        s = gain**2
        closed = np.log2((s + 1.0) / (1.0 + 2.0**-C * s))
        a = solve_scalar_allocation(np.array([gain]), 1.0, C, 1.0)
        worst_solver = max(worst_solver, abs(a.diagnostics["rate"] - closed))
        bound = a.diagnostics["rate"] + certified_gap_bits(np.array([gain]), 1.0, C, 1.0, a)
        worst_bound = max(worst_bound, abs(bound - closed))
    held = SubchannelAllocation([1.0], [60.0])
    held_gap = certified_gap_bits(np.array([1e9]), 1.0, 200.0, 1.0, held)
    ok = worst_solver <= 1e-9 and worst_bound <= 1e-9 and abs(held_gap - 0.90) <= 0.01
    assert _verdict(
        "D=1 closed form at high SNR (gains 1e6 and 1e9)",
        ok,
        f"solver dev {worst_solver:.3e} <= 1e-9, bound dev {worst_bound:.3e}, "
        f"60-bit allocation gap {held_gap:.3f} ~ 0.90",
    )


def test_criterion_4_budget_limits():
    """C = 0 gives rate exactly 0; C = 60 recovers waterfilling to 1e-3."""
    worst = 0.0
    zero_ok = True
    for k in range(50):
        n_r = 1 + k % 3
        n_u = 1 + (k // 3) % 3
        H = random_channel(n_r, n_u, seed=30_000 + k)
        gains = svd(H).singular_values
        a0 = solve_scalar_allocation(gains, 2.0, 0.0, 1.0)
        zero_ok = zero_ok and a0.diagnostics["rate"] == 0.0
        a60 = solve_scalar_allocation(gains, 2.0, 60.0, 1.0)
        _, cap = waterfilling_capacity(gains, 2.0, 1.0)
        worst = max(worst, abs(a60.diagnostics["rate"] - cap))
    ok = zero_ok and worst <= 1e-3
    assert _verdict(
        "criterion 4 (C=0 and C=60 limits, 50 instances)",
        ok,
        f"zero-C exact: {zero_ok}, C=60 vs waterfilling dev {worst:.3e} <= 1e-3",
    )


def test_criterion_5_majorization_suite():
    """All four spectral bounds hold (slack >= -1e-9); equalities to 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = np.inf
    for k in range(1000):
        n = 2 + k % 3
        sigma2 = 0.5 + (k % 4) * 0.25
        lhs, rhs, _ = check_uplink_rate_bound(
            Phi=_rand_psd(n, rng),
            Q=_rand_psd(n, rng) + 1e-3 * np.eye(n),
            sigma2=sigma2,
        )
        worst = min(worst, rhs - lhs)

        H = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        power, bound, _ = check_power_lower_bound(H, _rand_psd(n, rng))
        worst = min(worst, power - bound)

        M = _rand_psd(n, rng) + 1e-6 * np.eye(n)
        lhs_s, rhs_s, _ = check_downlink_bounds(H, M, "signal", sigma2)
        worst = min(worst, rhs_s - lhs_s)
        lhs_q, rhs_q, _ = check_downlink_bounds(H, M, "quantizer", sigma2)
        worst = min(worst, lhs_q - rhs_q)

    # equality cases: aligned bases within 1e-9
    eq_dev = 0.0
    for k in range(50):
        n = 3
        U = random_unitary(n, 600 + k)
        phi = np.sort(rng.uniform(0.5, 4.0, n))[::-1]
        qs = np.sort(rng.uniform(0.1, 2.0, n))
        lhs, rhs, equal = check_uplink_rate_bound(
            U @ np.diag(phi) @ U.conj().T, U @ np.diag(qs) @ U.conj().T, 1.0
        )
        assert equal
        eq_dev = max(eq_dev, abs(lhs - rhs))

        g = np.sort(rng.uniform(0.5, 3.0, n))[::-1]
        p = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
        power, bound, equal = check_power_lower_bound(np.diag(g), np.diag(p).astype(complex))
        assert equal
        eq_dev = max(eq_dev, abs(power - bound))

        lam = np.sort(rng.uniform(0.2, 2.0, n))[::-1]
        H_eq = U @ np.diag(g)
        lhs, rhs, equal = check_downlink_bounds(H_eq, U @ np.diag(lam) @ U.conj().T, "signal", 1.0)
        assert equal
        eq_dev = max(eq_dev, abs(lhs - rhs))
        lhs, rhs, equal = check_downlink_bounds(H_eq, U @ np.diag(lam[::-1]) @ U.conj().T, "quantizer", 1.0)
        assert equal
        eq_dev = max(eq_dev, abs(lhs - rhs))
    dt = time.perf_counter() - t0
    ok = worst >= -1e-9 and eq_dev <= 1e-9
    assert _verdict(
        "criterion 5 (majorization suite, 1000 probes x 4 bounds)",
        ok,
        f"worst slack {worst:.3e} >= -1e-9, equality dev {eq_dev:.3e} <= 1e-9, {dt:.1f}s",
    )


def test_criterion_6_rate_ceilings():
    """Every solver output obeys rate <= C and rate <= waterfilling capacity."""
    worst_c = np.inf
    worst_wf = np.inf
    for k in range(40):
        n_r = 1 + k % 3
        n_u = 1 + (k // 3) % 3
        inst = ChannelInstance(
            H=random_channel(n_r, n_u, seed=40_000 + k),
            P=(0.5, 2.0)[k % 2],
            C=(0.5, 2.0, 8.0)[k % 3],
            sigma2=1.0,
        )
        gains = svd(inst.H).singular_values
        _, cap = waterfilling_capacity(gains, inst.P, inst.sigma2)
        for direction in ("uplink", "downlink"):
            _, report, _ = solve_instance(inst, direction)
            worst_c = min(worst_c, inst.C - report.rate)
            worst_wf = min(worst_wf, cap - report.rate)
    ok = worst_c >= -1e-9 and worst_wf >= -1e-9
    assert _verdict(
        "criterion 6 (rate ceilings, 40 instances x 2 directions)",
        ok,
        f"min C slack {worst_c:.3e}, min waterfilling slack {worst_wf:.3e}, both >= -1e-9",
    )


def test_criterion_7_solver_vs_certified_bound():
    """Scalar solver is never worse than the certified bound by > 1e-3."""
    rng = np.random.default_rng(777)
    worst = np.inf
    for k in range(20):
        D = 2 + k % 2
        gains = np.sort(rng.uniform(0.3, 2.5, D))[::-1]
        P = rng.uniform(0.5, 4.0)
        C = rng.uniform(0.5, 8.0)
        a = solve_scalar_allocation(gains, P, C, 1.0)
        worst = min(worst, -certified_gap_bits(gains, P, C, 1.0, a))
    ok = worst >= -1e-3
    assert _verdict(
        "criterion 7 (solver vs certified bound, 20 gain vectors)",
        ok,
        f"worst solver - bound {worst:.3e} >= -1e-3",
    )


def test_certified_optimum_at_four_to_six_subchannels():
    """At D = 4..6 and criterion-1 budgets the bound closes within 1e-6 bits."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for D in (4, 5, 6):
        z = (rng.standard_normal(D) + 1j * rng.standard_normal(D)) / np.sqrt(2)
        gains = np.sort(1.5 * np.abs(z))[::-1]
        for P in (0.5, 1.0, 4.0):
            for C in (0.5, 2.0, 8.0):
                a = solve_scalar_allocation(gains, P, C, 1.0)
                worst = max(worst, certified_gap_bits(gains, P, C, 1.0, a))
    ok = worst <= 1e-6
    assert _verdict(
        "certified optimum (D = 4..6, 27 budget points)", ok, f"worst gap {worst:.3e} <= 1e-6"
    )


def _stalled_cases():
    """Seven cases near optima with 3 or 4 active subchannels, where the
    bound once ran out of boxes: the D = 6 case of the 27-point check at
    P = 4, C = 20; random_channel(8, 8, s) for s = 11..13 at P = 4 and
    C = 8 or 20, without (s, C) = (12, 20); and a D = 3 case with near-equal
    gains.  Each is (name, gains, P, C, sigma2)."""
    rng = np.random.default_rng(7)
    for D in (4, 5, 6):
        z = (rng.standard_normal(D) + 1j * rng.standard_normal(D)) / np.sqrt(2)
    yield "D = 6", np.sort(1.5 * np.abs(z))[::-1], 4.0, 20.0, 1.0
    for s in (11, 12, 13):
        gains = ChannelInstance(random_channel(8, 8, s), 4.0, 8.0, 1.0).spectrum.singular_values
        for C in (8.0, 20.0):
            if (s, C) != (12, 20.0):
                yield f"8 x 8 seed {s} C = {C:g}", gains, 4.0, C, 1.0
    yield "D = 3", np.array([7.598, 7.553, 8.955]), 81.8, 5.23, 1.32


def test_certified_optimum_where_the_bound_used_to_stall():
    """Each of the seven cases certifies within 1e-6 bits in under 1 s."""
    worst, slowest = 0.0, 0.0
    for name, gains, P, C, sigma2 in _stalled_cases():
        a = solve_scalar_allocation(gains, P, C, sigma2)
        t0 = time.perf_counter()
        gap = certified_gap_bits(gains, P, C, sigma2, a)
        seconds = time.perf_counter() - t0
        assert gap <= 1e-6 and seconds < 1.0, (name, gap, seconds)
        worst, slowest = max(worst, gap), max(slowest, seconds)
    assert _verdict(
        "certified optimum (7 former stalls, D = 3..8)",
        True,
        f"worst gap {worst:.3e} <= 1e-6, slowest {slowest:.2f} s < 1 s",
    )


def test_criterion_8_harness_self_test(monkeypatch, tmp_path):
    """A planted half-power base is flagged and the CLI exits nonzero."""
    inst = ChannelInstance(H=random_channel(2, 2, 999), P=2.0, C=4.0, sigma2=1.0)
    worst_margin = -np.inf
    for direction in ("uplink", "downlink"):
        design, _, _ = solve_instance(inst, direction)
        weak = type(design)(S=0.5 * design.S, Q=design.Q, active_basis=design.active_basis)
        report = perturbation_search(inst, weak, trials=200, seed=8)
        assert not report.verdict, direction
        worst_margin = max(worst_margin, report.margin)

    # CLI leg: plant the same defect behind the certify mode
    import cranopt.cli as cli_mod

    real = cli_mod.solve_instance

    def planted(inst_, direction_, allocation=None):
        design_, report_, alloc_ = real(inst_, direction_, allocation)
        half = type(design_)(S=0.5 * design_.S, Q=design_.Q, active_basis=design_.active_basis)
        return half, report_, alloc_

    monkeypatch.setattr(cli_mod, "solve_instance", planted)
    cfg = ExperimentConfig(mode="certify", random_spec=(2, 2, 1), seed=12, trials=120)
    rows, status = run(cfg)
    cli_ok = status == EXIT_CHECK_FAILED and all(not r.passed for r in rows)
    ok = worst_margin < -0.01 and cli_ok
    assert _verdict(
        "criterion 8 (planted-defect self-test)",
        ok,
        f"planted margin {worst_margin:.3f} < -0.01, certify exit status {status} != 0",
    )


def _planted_designs(inst, direction):
    """The solved design and its planted losses, as (plant, design, loss in
    bits): half power (S/2 in the uplink, S/2 and Q/2 in the downlink), the
    fronthaul split evenly over the powered subchannels, and the shares of
    the first two powered subchannels swapped.  A split or swap that leaves
    the allocation as it was plants nothing and is left out."""
    design, report, alloc = solve_instance(inst, direction)
    half_Q = design.Q if direction == "uplink" else 0.5 * design.Q
    half = type(design)(S=0.5 * design.S, Q=half_Q, active_basis=design.active_basis)
    plants = [("solved", design), ("half power", half)]
    powered = np.flatnonzero(alloc.power > 0)
    even = alloc.share.copy()
    even[powered] = alloc.share.sum() / len(powered)
    swapped = alloc.share.copy()
    swapped[powered[:2]] = swapped[powered[:2][::-1]]
    for plant, share in (("even split", even), ("swapped shares", swapped)):
        if not np.array_equal(share, alloc.share):
            moved = SubchannelAllocation(alloc.power, share)
            plants.append((plant, solve_instance(inst, direction, moved)[0]))
    check = check_uplink_feasible if direction == "uplink" else check_downlink_feasible
    return [(plant, d, report.rate - check(inst, d).rate) for plant, d in plants]


# loss brackets (bits) of the planted-loss check's catch rates
_LOSS_BRACKETS = (0.0, 1e-6, 1e-3, 1e-2, 1e-1, np.inf)


def test_planted_losses_fail_certification_in_both_directions():
    """Solved designs pass and every half-power plant fails the perturbation
    search in both directions, on a seeded 3 x 3 subset at criterion 2's
    budgets and at random_channel(D, D, 1), P = D, C = 2 D, for D = 8 and
    16.  Share-split catches are printed, not asserted."""
    cases = [
        (ChannelInstance(random_channel(3, 3, 40_000 + k), (0.5, 1.0, 4.0)[k % 3],
                         (0.5, 2.0, 8.0)[(k // 3) % 3], 1.0), 1000)
        for k in range(18)
    ] + [(ChannelInstance(random_channel(D, D, 1), D, 2.0 * D, 1.0), 200) for D in (8, 16)]
    for direction in ("uplink", "downlink"):
        by_plant, by_bracket = {}, {}
        for k, (inst, trials) in enumerate(cases):
            for plant, design, loss in _planted_designs(inst, direction):
                report = perturbation_search(inst, design, trials=trials, seed=k)
                if plant == "solved":
                    assert report.verdict, (k, direction, report.margin)
                    continue
                if plant == "half power":
                    assert not report.verdict, (k, direction, report.margin)
                b = int(np.searchsorted(_LOSS_BRACKETS, loss, side="right")) - 1
                by_plant.setdefault(plant, []).append(not report.verdict)
                by_bracket.setdefault(b, []).append(not report.verdict)
        plants = ", ".join(f"{p} {sum(v)}/{len(v)}" for p, v in by_plant.items())
        brackets = ", ".join(
            f"[{_LOSS_BRACKETS[b]:g}, {_LOSS_BRACKETS[b + 1]:g}) {sum(v)}/{len(v)}"
            for b, v in sorted(by_bracket.items())
        )
        _verdict(
            f"planted losses ({direction}, {len(cases)} instances)",
            True,
            f"caught per plant: {plants}; per loss bracket in bits: {brackets}",
        )


def _extreme_corpus():
    """The 400 extreme-input cases of ROADMAP item 1, drawn in its order."""
    rng = np.random.default_rng(20261018)
    for k in range(400):
        n_r, n_u = (int(n) for n in rng.integers(1, 9, size=2))
        D = min(n_r, n_u)
        s = 10.0 ** rng.uniform(-6, 6, size=D)
        if rng.random() < 0.3:
            s[rng.integers(D)] = 0.0
        U = random_unitary(n_r, int(rng.integers(2**31)))
        V = random_unitary(n_u, int(rng.integers(2**31)))
        H = (U[:, :D] * s) @ V[:, :D].conj().T
        P = 10.0 ** rng.uniform(-4, 8)
        C = 10.0 ** rng.uniform(-3, np.log10(200))
        sigma2 = 10.0 ** rng.uniform(-2, 2)
        yield k, ChannelInstance(H=H, P=P, C=C, sigma2=sigma2)


# The cases outside the full gate, each with the way it fails: the budgets
# its reports overshoot, or the error it raises.  None is left since designs
# are held as eigen-factors: the power is the sum of the eigenvalues, not a
# dense trace a few eps P above P, and no functional reads the rounding a
# dense S and Q carry among their active subchannels.
_EXTREME_LIMITS = {}


def _extreme_case(inst):
    """The failures of one corpus case (empty when it passes the full gate),
    its duality gap and its matrix rates' worst distance from the scalar
    rate; an error is a failure with no gap or rate."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = duality_gap(inst)
        except DomainError as e:
            where = traceback.extract_tb(e.__traceback__)
            names = [f.name for f in where if f.name.endswith(("_rate", "_fronthaul"))]
            functional = names[0] if names else "duality_gap"
            return (f"DomainError in {functional}",), None, None
    failures = []
    deviation = 0.0
    for direction in ("uplink", "downlink"):
        report = out[f"{direction}_report"]
        deviation = max(deviation, abs(report.rate - report.diagnostics["rate"]))
        if report.slack_power < -TOL.feasibility:
            assert -report.slack_power <= 8 * np.finfo(float).eps * inst.P, direction
            failures.append(f"{direction} power")
        if report.slack_fronthaul < -TOL.feasibility:
            assert -report.slack_fronthaul < 1e-6, direction
            failures.append(f"{direction} fronthaul")
    return tuple(failures), out["gap"], deviation


def test_extreme_input_corpus():
    """On 400 extreme inputs both directions' matrix rates equal the scalar
    rate within 1e-6 bits and the duality gap is at most 1e-5 bits wherever
    the design evaluates; every case outside the full gate (an infeasible
    report, or an error) fails as documented in _EXTREME_LIMITS."""
    t0 = time.perf_counter()
    limits = {}
    worst_gap = worst_deviation = 0.0
    evaluated = 0
    for k, inst in _extreme_corpus():
        failures, gap, deviation = _extreme_case(inst)
        if failures:
            limits[k] = failures
        if gap is not None:
            evaluated += 1
            worst_gap = max(worst_gap, gap)
            worst_deviation = max(worst_deviation, deviation)
    dt = time.perf_counter() - t0
    assert limits == _EXTREME_LIMITS
    assert evaluated == 400
    ok = worst_gap <= 1e-5 and worst_deviation <= 1e-6
    assert _verdict(
        "extreme-input corpus (400 cases)",
        ok,
        f"{400 - len(limits)} pass the full gate, {len(limits)} documented limits; on the "
        f"{evaluated} that evaluate, worst gap {worst_gap:.3e} <= 1e-5, worst matrix - "
        f"scalar rate {worst_deviation:.3e} <= 1e-6, {dt:.1f}s",
    )
