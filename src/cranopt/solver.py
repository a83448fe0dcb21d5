"""End-to-end solves: channel matrix -> singular basis -> scalar
allocation -> assembled covariance design.

The two directions share one scalar problem on the channel's singular
values, but each is solved and assembled independently here, so agreement
of the two covariance designs' rates, each measured by its own direction's
matrix functionals, is an outcome, not an artifact of shared computation.
"""

from __future__ import annotations

from .allocation import DOWNLINK, UPLINK, SolverOptions, solve_scalar_allocation
from .downlink import assemble_downlink, check_downlink_feasible
from .errors import InvalidInputError
from .kernels import svd
from .problem import ChannelInstance
from .uplink import assemble_uplink, check_uplink_feasible


def solve_instance(
    inst: ChannelInstance, direction: str, opts: SolverOptions | None = None
):
    """Solve one instance in one direction.

    Returns (design, report, allocation); the report carries the solver
    diagnostics (achieved rate, iteration count) merged into its own.
    """
    if direction not in (UPLINK, DOWNLINK):
        raise InvalidInputError(f"direction must be uplink or downlink, got {direction!r}")
    spec = svd(inst.H)
    alloc = solve_scalar_allocation(
        spec.singular_values, inst.P, inst.C, inst.sigma2, direction, opts
    )
    if direction == UPLINK:
        design = assemble_uplink(spec, alloc)
        report = check_uplink_feasible(inst, design)
    else:
        design = assemble_downlink(spec, alloc)
        report = check_downlink_feasible(inst, design)
    report.diagnostics.update(alloc.diagnostics)
    return design, report, alloc


def duality_gap(
    inst: ChannelInstance,
    uplink_opts: SolverOptions | None = None,
    downlink_opts: SolverOptions | None = None,
) -> dict:
    """Solve both directions independently and report the rate difference.

    The scalar solver is deterministic, so with equal options both
    directions start from the same scalar allocation; the gap measures how
    well the uplink and downlink assemblies and rate functionals agree on
    it.  Returns a dict
    with the two rates, their absolute gap, and both feasibility reports.
    """
    _, rep_ul, _ = solve_instance(inst, UPLINK, uplink_opts)
    _, rep_dl, _ = solve_instance(inst, DOWNLINK, downlink_opts)
    gap = abs(rep_ul.rate - rep_dl.rate)
    return {
        "uplink_rate": rep_ul.rate,
        "downlink_rate": rep_dl.rate,
        "gap": float(gap),
        "uplink_report": rep_ul,
        "downlink_report": rep_dl,
    }
