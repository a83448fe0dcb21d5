"""Command-line benchmark harness.

Modes, each run at every budget point of every instance
  solve    one row per direction
  sweep    solve, with --P-grid and --C-grid required
  duality  one row: |uplink rate - downlink rate|, checked against tol
  certify  perturbation search around each solved design, both directions;
           an infeasible design fails its row, with an empty margin
  oracle   solver rate minus a certified bound on the scalar optimum of the
           instance's subchannel gains, at any number of subchannels

The budget points are every (P, C) of --P-grid x --C-grid in every mode; a
grid that is not given is the instance's own budget (P = 1, C = 2 for
--random instances).  Every mode makes one scalar solve per point and
realizes it in both directions.  The channel's SVD is taken once per
instance, before any row is timed.  In solve, sweep, oracle and duality
wall_ms is the time of the point's solver.duality_gap call, shared by its
rows (in oracle with the certified bound); certify times each direction's
row: the uplink's the solve, assembly, check and search, the downlink's
the assembly, check and search of the same allocation.

Exit status: 0 all checks passed, 1 a duality/certification/feasibility
check failed, 2 usage, I/O, or parse errors.  A numerical error on an
instance (DomainError or InconsistencyError) also exits 1,
with no rows and one stderr line "error: instance ID: message".  Output is
CSV (default) or JSON; rows are ordered by instance, direction, then budget
indices, so reruns with one seed are byte-identical except for the wall_ms
column.

Instance files are JSON: a single object or a list of objects shaped like

    {"n_r": 2, "n_u": 2, "H": [[[re, im], ...] per row], "P": 2.0,
     "C": 2.0, "sigma2": 1.0, "id": "optional-name"}

with each complex entry a two-element [re, im] array.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistencyError, InstanceFormatError, InvalidInputError
from .kernels import check_count, check_positive, random_channel
from .oracle import certified_gap_bits, perturbation_search
from .problem import DIRECTIONS, DOWNLINK, ChannelInstance
from .solver import duality_gap, solve_instance

CSV_COLUMNS = (
    "instance_id",
    "direction",
    "P",
    "C",
    "rate_bits",
    "fronthaul_bits",
    "power_used",
    "iterations",
    "margin_bits",
    "wall_ms",
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@dataclass
class ExperimentConfig:
    """One CLI run: what to solve, on which instances, where to write."""

    mode: str
    instances_path: str | None = None
    random_spec: tuple[int, int, int] | None = None  # (n_r, n_u, count)
    seed: int = 0
    p_grid: tuple[float, ...] = ()
    c_grid: tuple[float, ...] = ()
    trials: int = 1000
    tol: float = 1e-5
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self):
        if self.mode not in _MODE_RUNNERS:
            raise InvalidInputError(
                f"mode must be one of {tuple(_MODE_RUNNERS)}, got {self.mode!r}"
            )
        if (self.instances_path is None) == (self.random_spec is None):
            raise InvalidInputError(
                "exactly one instance source: --instances PATH or --random n_r,n_u,count"
            )
        if self.random_spec is not None:
            for name, n in zip(("n_r", "n_u", "count"), self.random_spec):
                check_count(n, f"--random {name}", 1)
        if self.mode == "sweep" and not (self.p_grid and self.c_grid):
            raise InvalidInputError("sweep mode needs nonempty --P-grid and --C-grid")
        check_count(self.trials, "--trials", 1)
        check_count(self.seed, "--seed")
        check_positive(self.tol, "--tol")
        if self.out_format not in ("csv", "json"):
            raise InvalidInputError(f"format must be csv or json, got {self.out_format!r}")


@dataclass
class ResultRow:
    """One output row; margin_bits carries the mode's check quantity:
    |uplink - downlink| rate (duality), certification margin (certify),
    solver rate minus certified bound (oracle), empty otherwise.  Duality
    rows use direction "duality" and report the uplink functionals; solve
    mode has the per-direction detail."""

    instance_id: str
    direction: str
    P: float
    C: float
    rate_bits: float
    fronthaul_bits: float
    power_used: float
    iterations: int
    margin_bits: float | None
    wall_ms: float
    passed: bool = field(default=True, compare=False)

    def as_record(self) -> dict:
        rec = {}
        for k in CSV_COLUMNS:
            v = getattr(self, k)
            if isinstance(v, float):
                v = f"{v:.12g}"
            rec[k] = "" if v is None else v
        return rec


def _complex_entry(v, where: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        raise InstanceFormatError(
            f"{where} must be a two-element [re, im] array, got {v!r}"
        )
    return complex(float(v[0]), float(v[1]))


def instance_from_record(rec, default_id: str = "instance") -> tuple[ChannelInstance, str]:
    """Build a ChannelInstance from one decoded JSON object.

    Raises InstanceFormatError naming the offending field or matrix entry.
    """
    if not isinstance(rec, dict):
        raise InstanceFormatError(f"instance must be a JSON object, got {type(rec).__name__}")
    required = ("n_r", "n_u", "H", "P", "C", "sigma2")
    for name in required:
        if name not in rec:
            raise InstanceFormatError(f"missing field {name!r}")
    unknown = set(rec) - set(required) - {"id"}
    if unknown:
        raise InstanceFormatError(f"unknown fields {sorted(unknown)!r}")
    for name in ("n_r", "n_u"):
        if not isinstance(rec[name], int) or isinstance(rec[name], bool) or rec[name] < 1:
            raise InstanceFormatError(f"{name} must be a positive integer")
    for name in ("P", "C", "sigma2"):
        if not isinstance(rec[name], (int, float)) or isinstance(rec[name], bool):
            raise InstanceFormatError(f"{name} must be a number")
    n_r, n_u = rec["n_r"], rec["n_u"]
    rows = rec["H"]
    if not isinstance(rows, list) or len(rows) != n_r:
        raise InstanceFormatError(f"H must be a list of {n_r} rows")
    H = np.zeros((n_r, n_u), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_u:
            raise InstanceFormatError(f"H[{i}] must be a list of {n_u} entries")
        for j, v in enumerate(row):
            H[i, j] = _complex_entry(v, f"H[{i}][{j}]")
    label = rec.get("id", default_id)
    if not isinstance(label, str) or not label:
        raise InstanceFormatError("id must be a nonempty string")
    # domain validation (sigma2 > 0, budgets >= 0) raises InvalidInputError
    inst = ChannelInstance(H=H, P=rec["P"], C=rec["C"], sigma2=rec["sigma2"])
    return inst, label


def load_instances(path: str) -> list[tuple[ChannelInstance, str]]:
    """Parse an instance file holding one object or a list of objects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    records = data if isinstance(data, list) else [data]
    if not records:
        raise InstanceFormatError(f"{path} holds no instances")
    out = []
    for k, rec in enumerate(records):
        width = max(3, len(str(len(records) - 1)))
        inst, label = instance_from_record(rec, default_id=f"inst-{k:0{width}d}")
        out.append((inst, label))
    labels = [lb for _, lb in out]
    if len(set(labels)) != len(labels):
        raise InstanceFormatError("duplicate instance ids")
    return out


def _instances(config: ExperimentConfig) -> list[tuple[ChannelInstance, str]]:
    if config.instances_path is not None:
        return load_instances(config.instances_path)
    n_r, n_u, count = config.random_spec
    width = max(3, len(str(count - 1)))
    return [
        (ChannelInstance(random_channel(n_r, n_u, seed=config.seed + k), 1.0, 2.0, 1.0),
         f"rand-{k:0{width}d}")
        for k in range(count)
    ]


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _row(label, direction, point, report, margin, wall_ms, passed=True) -> ResultRow:
    return ResultRow(
        instance_id=label,
        direction=direction,
        P=point.P,
        C=point.C,
        rate_bits=report.rate,
        fronthaul_bits=report.fronthaul_used,
        power_used=report.power_used,
        iterations=int(report.diagnostics.get("iterations", 0)),
        margin_bits=margin,
        wall_ms=wall_ms,
        passed=passed,
    )


def _both_directions(label, point, out, margin, wall_ms, ok=True) -> list[ResultRow]:
    # one solve serves both directions' rows, which share its time
    reports = [out[f"{direction}_report"] for direction in DIRECTIONS]
    return [
        _row(label, direction, point, report, margin, wall_ms, ok and report.feasible)
        for direction, report in zip(DIRECTIONS, reports)
    ]


def _run_solve(config, point, label) -> list[ResultRow]:
    t0 = time.perf_counter()
    out = duality_gap(point)
    return _both_directions(label, point, out, None, _ms_since(t0))


def _run_duality(config, point, label) -> list[ResultRow]:
    # one row per point: the row certifies the pair, not one direction
    t0 = time.perf_counter()
    out = duality_gap(point)
    rep_ul, gap = out["uplink_report"], out["gap"]
    ok = gap <= config.tol and rep_ul.feasible and out["downlink_report"].feasible
    return [_row(label, "duality", point, rep_ul, gap, _ms_since(t0), ok)]


def _run_certify(config, point, label) -> list[ResultRow]:
    # the uplink solves the scalar problem, and the downlink realizes the
    # allocation it returned; each row times its own direction
    rows, alloc = [], None
    for direction in DIRECTIONS:
        t0 = time.perf_counter()
        design, report, alloc = solve_instance(point, direction, alloc)
        # an infeasible design fails its row and has no margin to search for
        margin, ok = None, False
        if report.feasible:
            cert = perturbation_search(
                point,
                design,
                trials=config.trials,
                seed=config.seed * 4 + 3,
                instance_id=label,
            )
            margin, ok = cert.margin, cert.verdict
        rows.append(_row(label, direction, point, report, margin, _ms_since(t0), ok))
    return rows


def _run_oracle(config, point, label) -> list[ResultRow]:
    # one solve and one bound serve both directions, which share the scalar
    # problem; both rows carry the time of the solve and the bound, and the
    # solver's rate minus the certified bound on the scalar optimum as their
    # margin
    t0 = time.perf_counter()
    out = duality_gap(point)
    gains = point.spectrum.singular_values
    gap = certified_gap_bits(gains, point.P, point.C, point.sigma2, out["allocation"])
    wall_ms = _ms_since(t0)
    margin = 0.0 - gap  # a zero gap prints as 0, not -0
    return _both_directions(label, point, out, margin, wall_ms, margin >= -config.tol)


# the modes, in the order the parser lists them
_MODE_RUNNERS = {
    "solve": _run_solve,
    "sweep": _run_solve,
    "duality": _run_duality,
    "certify": _run_certify,
    "oracle": _run_oracle,
}

# numerical faults of the library on one instance; they fail the run's check
_NUMERICAL_ERRORS = (DomainError, InconsistencyError)


def run(config: ExperimentConfig) -> tuple[list[ResultRow], int]:
    """Execute one experiment; returns (rows, exit_status).  A numerical
    error is re-raised as its own type with the instance id in front."""
    runner = _MODE_RUNNERS[config.mode]
    rows = []
    for inst, label in _instances(config):
        inst.spectrum  # the channel's one SVD, taken before any row is timed
        Ps, Cs = config.p_grid or (inst.P,), config.c_grid or (inst.C,)
        points = [inst.with_budgets(P, C) for P in Ps for C in Cs]
        try:
            inst_rows = [row for point in points for row in runner(config, point, label)]
        except _NUMERICAL_ERRORS as exc:
            raise type(exc)(f"instance {label}: {exc}") from exc
        # direction first, then budget indices: the sort is stable
        rows += sorted(inst_rows, key=lambda row: row.direction == DOWNLINK)
    status = EXIT_OK if all(r.passed for r in rows) else EXIT_CHECK_FAILED
    return rows, status


def render_rows(rows: list[ResultRow], out_format: str) -> str:
    if out_format == "json":
        return json.dumps([r.as_record() for r in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow(r.as_record())
    return buf.getvalue()


def _parse_grid(text: str) -> tuple[float, ...]:
    """Budget grids: 'a:b:steps' inclusive linspace, or comma-separated values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"grid must be a:b:steps, got {text!r}")
        try:
            a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InvalidInputError(f"bad grid {text!r}: {exc}") from exc
        if not (np.isfinite(a) and np.isfinite(b)):
            raise InvalidInputError(f"grid endpoints must be finite, got {text!r}")
        check_count(steps, "grid steps", 1)
        return tuple(float(x) for x in np.linspace(a, b, steps))
    try:
        values = tuple(float(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise InvalidInputError(f"bad grid {text!r}: {exc}") from exc
    if not values:
        raise InvalidInputError("grid is empty")
    return values


def _parse_random(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidInputError(f"--random must be n_r,n_u,count, got {text!r}")
    try:
        n_r, n_u, count = (int(x) for x in parts)
    except ValueError as exc:
        raise InvalidInputError(f"bad --random {text!r}: {exc}") from exc
    return n_r, n_u, count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cranopt",
        description="Optimal fronthaul-compressed rate designs: solve, sweep, "
        "and certify single-RRH uplink/downlink instances.",
    )
    parser.add_argument(
        "--mode",
        required=True,
        choices=tuple(_MODE_RUNNERS),
        help="experiment type",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--instances", metavar="PATH", help="JSON instance file")
    source.add_argument(
        "--random",
        metavar="NR,NU,COUNT",
        help="generate COUNT random NRxNU instances instead of reading a file",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--P-grid", dest="p_grid", metavar="A:B:STEPS", help="power budgets of every mode"
    )
    parser.add_argument(
        "--C-grid", dest="c_grid", metavar="A:B:STEPS", help="fronthaul budgets of every mode"
    )
    parser.add_argument(
        "--trials", type=int, default=1000, help="perturbation trials in certify mode"
    )
    parser.add_argument(
        "--tol", type=float, default=1e-5, help="pass/fail tolerance in bits"
    )
    parser.add_argument("--out", metavar="PATH", help="write results here (default stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other codes too
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        config = ExperimentConfig(
            mode=args.mode,
            instances_path=args.instances,
            random_spec=_parse_random(args.random) if args.random else None,
            seed=args.seed,
            p_grid=_parse_grid(args.p_grid) if args.p_grid else (),
            c_grid=_parse_grid(args.c_grid) if args.c_grid else (),
            trials=args.trials,
            tol=args.tol,
            out_path=args.out,
            out_format=args.format,
        )
        rows, status = run(config)
        text = render_rows(rows, config.out_format)
        if config.out_path:
            with open(config.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return status
    except (InstanceFormatError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
