"""End-to-end solves: channel matrix -> singular basis -> scalar
allocation -> assembled covariance design.

The two directions share one scalar problem on the channel's singular
values, and one (power, share) allocation solves it for both.  Each
direction's assembly realizes that allocation with its own tight quantizers
and is measured by its own matrix functionals, so agreement of the two
designs' rates is an outcome of the two assemblies, not of shared rate
evaluation.
"""

from __future__ import annotations

from .allocation import solve_scalar_allocation
from .downlink import assemble_downlink, check_downlink_feasible
from .problem import DOWNLINK, UPLINK, ChannelInstance, check_direction
from .uplink import assemble_uplink, check_uplink_feasible


def solve_instance(inst: ChannelInstance, direction: str, allocation=None):
    """Solve one instance in one direction.

    Without ``allocation`` the scalar problem is solved on the instance's
    singular values; a given allocation, such as the one the other
    direction returned, is assembled as it is, with no solve.  Returns
    (design, report, allocation); the report carries the allocation's
    diagnostics (achieved rate, iteration count) merged into its own.
    """
    check_direction(direction)
    spec = inst.spectrum
    if allocation is None:
        allocation = solve_scalar_allocation(spec.singular_values, inst.P, inst.C, inst.sigma2)
    if direction == UPLINK:
        design = assemble_uplink(spec, allocation, inst.sigma2)
        report = check_uplink_feasible(inst, design)
    else:
        design = assemble_downlink(spec, allocation)
        report = check_downlink_feasible(inst, design)
    report.diagnostics.update(allocation.diagnostics)
    return design, report, allocation


def duality_gap(inst: ChannelInstance) -> dict:
    """Solve the uplink, realize its allocation as a downlink design too,
    and report the rate difference of the two designs.

    The scalar problem is solved once, by ``solve_instance`` for the
    uplink; the downlink is ``solve_instance`` given that allocation, so it
    assembles and checks the downlink design by its own direction's
    functionals without a second solve.  The gap thus measures how well the
    uplink and downlink assemblies and rate functionals agree.  Returns a
    dict with the two rates, their absolute gap, both feasibility reports
    and the allocation.

    The CLI's solve, sweep, oracle and duality modes read both directions'
    rows from one call per budget point.
    """
    _, rep_ul, alloc = solve_instance(inst, UPLINK)
    _, rep_dl, _ = solve_instance(inst, DOWNLINK, alloc)
    gap = abs(rep_ul.rate - rep_dl.rate)
    return {
        "uplink_rate": rep_ul.rate,
        "downlink_rate": rep_dl.rate,
        "gap": float(gap),
        "uplink_report": rep_ul,
        "downlink_report": rep_dl,
        "allocation": alloc,
    }
