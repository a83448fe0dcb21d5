"""Command line harness: instance files, modes, output formats, exits."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cranopt import (
    ChannelInstance,
    DomainError,
    InconsistencyError,
    InstanceFormatError,
    InvalidInputError,
    SubchannelAllocation,
    random_channel,
)
from cranopt.cli import (
    CSV_COLUMNS,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    _parse_grid,
    _parse_random,
    build_parser,
    instance_from_record,
    load_instances,
    main,
    render_rows,
    run,
)


@pytest.fixture
def identity_file(tmp_path):
    rec = {
        "n_r": 2,
        "n_u": 2,
        "H": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "P": 2.0,
        "C": 2.0,
        "sigma2": 1.0,
    }
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(rec))
    return str(path)


def test_parse_identity_fixture(identity_file):
    ((inst, _),) = load_instances(identity_file)
    assert np.allclose(inst.H, np.eye(2))
    assert (inst.P, inst.C, inst.sigma2) == (2.0, 2.0, 1.0)


def test_round_trip_bit_identical(tmp_path):
    H = random_channel(3, 2, 77)
    inst = ChannelInstance(H=H, P=1.25, C=3.5, sigma2=0.75)
    rec = {
        "n_r": 3,
        "n_u": 2,
        "H": [[[float(v.real), float(v.imag)] for v in row] for row in H],
        "P": inst.P,
        "C": inst.C,
        "sigma2": inst.sigma2,
    }
    path = tmp_path / "rt.json"
    path.write_text(json.dumps(rec))
    ((back, _),) = load_instances(str(path))
    assert np.array_equal(back.H, inst.H)
    assert (back.P, back.C, back.sigma2) == (inst.P, inst.C, inst.sigma2)


def test_missing_field_names_the_field(tmp_path):
    rec = {"n_r": 1, "n_u": 1, "H": [[[1.0, 0.0]]], "P": 1.0, "sigma2": 1.0}
    path = tmp_path / "noc.json"
    path.write_text(json.dumps(rec))
    with pytest.raises(InstanceFormatError, match="'C'"):
        load_instances(str(path))


def test_ragged_rows_rejected():
    rec = {
        "n_r": 2,
        "n_u": 2,
        "H": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
        "P": 1.0,
        "C": 1.0,
        "sigma2": 1.0,
    }
    with pytest.raises(InstanceFormatError, match=r"H\[1\]"):
        instance_from_record(rec)


def test_bad_element_names_the_index():
    rec = {
        "n_r": 1,
        "n_u": 2,
        "H": [[[1.0, 0.0], "x"]],
        "P": 1.0,
        "C": 1.0,
        "sigma2": 1.0,
    }
    with pytest.raises(InstanceFormatError, match=r"H\[0\]\[1\]"):
        instance_from_record(rec)


_REC = {"n_r": 1, "n_u": 1, "H": [[[1.0, 0.0]]], "P": 1.0, "C": 1.0, "sigma2": 1.0}


def _instance_file(directory, text):
    path = directory / "instances.json"
    path.write_text(text)
    return str(path)


# (case, call given a temporary directory, error, key phrase of the message)
_FORMAT_ERRORS = [
    (
        "config-mode",
        lambda d: ExperimentConfig(mode="fly", random_spec=(1, 1, 1)),
        InvalidInputError,
        "mode must be one of",
    ),
    (
        "config-both-sources",
        lambda d: ExperimentConfig(mode="solve", instances_path="x.json", random_spec=(1, 1, 1)),
        InvalidInputError,
        "exactly one instance source",
    ),
    (
        "config-no-source",
        lambda d: ExperimentConfig(mode="solve"),
        InvalidInputError,
        "exactly one instance source",
    ),
    (
        "config-sweep-without-grids",
        lambda d: ExperimentConfig(mode="sweep", random_spec=(1, 1, 1), p_grid=(1.0,)),
        InvalidInputError,
        "sweep mode needs nonempty --P-grid and --C-grid",
    ),
    (
        "config-format",
        lambda d: ExperimentConfig(mode="solve", random_spec=(1, 1, 1), out_format="xml"),
        InvalidInputError,
        "format must be csv or json",
    ),
    (
        "record-not-an-object",
        lambda d: instance_from_record([_REC]),
        InstanceFormatError,
        "instance must be a JSON object, got list",
    ),
    (
        "record-unknown-fields",
        lambda d: instance_from_record({**_REC, "gain": 2.0}),
        InstanceFormatError,
        "unknown fields ['gain']",
    ),
    (
        "record-H-rows",
        lambda d: instance_from_record({**_REC, "n_r": 2}),
        InstanceFormatError,
        "H must be a list of 2 rows",
    ),
    (
        "record-empty-id",
        lambda d: instance_from_record({**_REC, "id": ""}),
        InstanceFormatError,
        "id must be a nonempty string",
    ),
    (
        "load-invalid-json",
        lambda d: load_instances(_instance_file(d, "{")),
        InstanceFormatError,
        "is not valid JSON",
    ),
    (
        "load-empty-list",
        lambda d: load_instances(_instance_file(d, "[]")),
        InstanceFormatError,
        "holds no instances",
    ),
    (
        "load-duplicate-ids",
        lambda d: load_instances(_instance_file(d, json.dumps([{**_REC, "id": "a"}] * 2))),
        InstanceFormatError,
        "duplicate instance ids",
    ),
    (
        "grid-not-numeric",
        lambda d: _parse_grid("a:b:3"),
        InvalidInputError,
        "bad grid 'a:b:3'",
    ),
    (
        "random-fields",
        lambda d: _parse_random("1,1"),
        InvalidInputError,
        "--random must be n_r,n_u,count",
    ),
    (
        "random-not-integers",
        lambda d: _parse_random("1,x,2"),
        InvalidInputError,
        "bad --random '1,x,2'",
    ),
]


@pytest.mark.parametrize(
    "call, error, phrase",
    [pytest.param(*case[1:], id=case[0]) for case in _FORMAT_ERRORS],
)
def test_format_errors_name_the_fault(tmp_path, call, error, phrase):
    with pytest.raises(error, match=re.escape(phrase)) as info:
        call(tmp_path)
    assert type(info.value) is error


def test_solve_mode_emits_both_directions(identity_file):
    cfg = ExperimentConfig(mode="solve", instances_path=identity_file)
    rows, status = run(cfg)
    assert status == EXIT_OK
    assert [r.direction for r in rows] == ["uplink", "downlink"]
    for r in rows:
        assert r.rate_bits >= 0
        assert (r.P, r.C) == (2.0, 2.0)


def test_sweep_mode_zero_fronthaul_rates(tmp_path):
    rec = {"n_r": 1, "n_u": 1, "H": [[[1.0, 0.0]]], "P": 2.0, "C": 2.0, "sigma2": 1.0}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(rec))
    cfg = ExperimentConfig(mode="sweep", instances_path=str(path), p_grid=(2.0,), c_grid=(0.0,))
    rows, status = run(cfg)
    assert status == EXIT_OK
    assert len(rows) > 0
    assert all(r.rate_bits == 0.0 for r in rows if r.C == 0.0)


def test_duality_mode_one_row_per_instance():
    cfg = ExperimentConfig(mode="duality", random_spec=(2, 2, 10), seed=5)
    rows, status = run(cfg)
    assert status == EXIT_OK
    assert len(rows) == 10
    for r in rows:
        assert r.direction == "duality"
        assert r.margin_bits is not None
        assert abs(r.margin_bits) <= 1e-5


def test_certify_mode_passes_on_solver_output():
    cfg = ExperimentConfig(mode="certify", random_spec=(2, 2, 2), seed=3, trials=40)
    rows, status = run(cfg)
    assert status == EXIT_OK
    assert len(rows) == 4  # two instances, both directions
    for r in rows:
        assert r.margin_bits >= -1e-6


def test_certify_mode_fails_on_planted_base(monkeypatch, identity_file):
    import cranopt.cli as cli_mod

    real = cli_mod.solve_instance

    def planted(inst, direction, allocation=None):
        design, report, alloc = real(inst, direction, allocation)
        half = type(design)(S=0.5 * design.S, Q=design.Q, active_basis=design.active_basis)
        return half, report, alloc

    monkeypatch.setattr(cli_mod, "solve_instance", planted)
    cfg = ExperimentConfig(mode="certify", instances_path=identity_file, trials=80, seed=1)
    rows, status = run(cfg)
    assert status == EXIT_CHECK_FAILED
    assert any(r.margin_bits < -0.01 for r in rows)


def test_certify_mode_fails_an_infeasible_design_without_searching(
    monkeypatch, identity_file, tmp_path
):
    import cranopt.cli as cli_mod
    from cranopt import check_downlink_feasible, check_uplink_feasible

    real = cli_mod.solve_instance

    def doubled(inst, direction, allocation=None):
        design, _, alloc = real(inst, direction, allocation)
        loud = type(design)(S=2.0 * design.S, Q=design.Q, active_basis=design.active_basis)
        check = check_uplink_feasible if direction == "uplink" else check_downlink_feasible
        return loud, check(inst, loud), alloc

    def no_search(*args, **kwargs):
        raise AssertionError("an infeasible design was searched")

    monkeypatch.setattr(cli_mod, "solve_instance", doubled)
    monkeypatch.setattr(cli_mod, "perturbation_search", no_search)
    out = tmp_path / "rows.csv"
    code = main(["--mode", "certify", "--instances", identity_file, "--trials", "20",
                 "--out", str(out)])
    assert code == EXIT_CHECK_FAILED
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header, then both directions
    margin = CSV_COLUMNS.index("margin_bits")
    assert [line.split(",")[margin] for line in lines[1:]] == ["", ""]


def test_oracle_mode_agrees(identity_file):
    cfg = ExperimentConfig(mode="oracle", instances_path=identity_file)
    rows, status = run(cfg)
    assert status == EXIT_OK
    for r in rows:
        assert r.margin_bits >= -1e-3


def test_oracle_mode_certifies_four_subchannels(capsys):
    code = main(["--mode", "oracle", "--random", "4,4,2", "--seed", "11"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # header, then two instances in both directions
    margin = CSV_COLUMNS.index("margin_bits")
    assert all(abs(float(line.split(",")[margin])) <= 1e-6 for line in lines[1:])


def test_oracle_mode_fails_a_suboptimal_solve(monkeypatch, capsys):
    import cranopt.cli as cli_mod

    real = cli_mod.duality_gap

    def half_power(inst):
        out = real(inst)
        a = out["allocation"]
        out["allocation"] = SubchannelAllocation(a.power / 2, a.share)
        return out

    monkeypatch.setattr(cli_mod, "duality_gap", half_power)
    code = main(["--mode", "oracle", "--random", "2,2,2", "--seed", "11"])
    assert code == EXIT_CHECK_FAILED
    margin = CSV_COLUMNS.index("margin_bits")
    lines = capsys.readouterr().out.splitlines()
    assert all(float(line.split(",")[margin]) < -1e-5 for line in lines[1:])


def test_oracle_rows_time_the_solve_and_the_bound(monkeypatch):
    # both rows of an instance carry the time of its solve and its bound
    import cranopt.cli as cli_mod

    real = cli_mod.certified_gap_bits

    def slowed(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(cli_mod, "certified_gap_bits", slowed)
    rows, status = run(ExperimentConfig(mode="oracle", random_spec=(2, 2, 2), seed=11))
    assert status == EXIT_OK and len(rows) == 4
    assert all(row.wall_ms >= 50.0 for row in rows)
    assert rows[0].wall_ms == rows[1].wall_ms and rows[2].wall_ms == rows[3].wall_ms


def _strip_wall_ms(text):
    return re.sub(r"[^,\n]*$", "", text, flags=re.M)


def test_csv_rendering_and_determinism():
    cfg = ExperimentConfig(mode="duality", random_spec=(2, 2, 3), seed=11)
    rows1, _ = run(cfg)
    rows2, _ = run(cfg)
    csv1, csv2 = render_rows(rows1, "csv"), render_rows(rows2, "csv")
    assert _strip_wall_ms(csv1) == _strip_wall_ms(csv2)
    header = csv1.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert len(csv1.splitlines()) == 4


# the --random spec (n_r, n_u, count) and the options of each mode's golden
# file, all at seed 11; sweep's C = 0 points assemble designs with an empty
# forwarded subspace, certify holds the perturbation search's margins, and
# oracle the solver's rate minus the certified bound
_GOLDEN = {
    "duality": ((2, 2, 3), {}),
    "solve": ((2, 2, 3), {}),
    "sweep": ((2, 2, 3), {"p_grid": (0.5, 2.0), "c_grid": (0.0, 2.0)}),
    "certify": ((3, 3, 3), {"trials": 300}),
    "oracle": ((2, 2, 3), {}),
}


@pytest.mark.parametrize("mode", list(_GOLDEN))
def test_csv_matches_golden_file(mode):
    # the golden files hold the CSV of an earlier release with wall_ms
    # stripped; every other byte must stay stable
    spec, options = _GOLDEN[mode]
    name = f"{mode}_random_{'_'.join(map(str, spec))}_seed11.csv"
    golden = Path(__file__).parent / "golden" / name
    rows, status = run(ExperimentConfig(mode=mode, random_spec=spec, seed=11, **options))
    assert status == EXIT_OK
    assert _strip_wall_ms(render_rows(rows, "csv")) == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "mode, per_point", [("solve", 1), ("sweep", 1), ("oracle", 1), ("duality", 1), ("certify", 1)]
)
def test_one_scalar_solve_per_budget_point(monkeypatch, mode, per_point):
    # both directions realize one allocation, so a budget point needs one
    # solve; certify hands the uplink's allocation to the downlink's
    # cli.solve_instance
    import cranopt.solver as solver_mod

    real = solver_mod.solve_scalar_allocation
    calls = Counter()

    def counted(gains, P, C, *args, **kwargs):
        calls[tuple(gains), P, C] += 1
        return real(gains, P, C, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_scalar_allocation", counted)
    grids = {"p_grid": (0.5, 2.0), "c_grid": (0.0, 2.0)}
    run(ExperimentConfig(mode=mode, random_spec=(2, 2, 2), seed=3, trials=5, **grids))
    assert len(calls) == 2 * 4  # two instances, four points each
    assert set(calls.values()) == {per_point}


@pytest.mark.parametrize("mode", ["solve", "sweep", "oracle", "duality", "certify"])
def test_one_svd_per_budget_point(monkeypatch, mode):
    # each instance's spectrum is taken once and serves its solve, both
    # assemblies, the downlink rates and, in certify, both searches, at
    # every budget point: each point's instance shares its channel's
    # spectrum
    calls = []
    lapack_svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return lapack_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    grids = {"p_grid": (0.5, 2.0), "c_grid": (0.0, 2.0)}
    run(ExperimentConfig(mode=mode, random_spec=(2, 2, 2), seed=3, trials=5, **grids))
    assert len(calls) == 2  # two instances


@pytest.mark.parametrize("mode", ["solve", "sweep", "oracle", "duality", "certify"])
def test_no_row_times_the_channels_svd(monkeypatch, mode):
    # the SVD is taken once per instance, before any row is timed
    lapack_svd = np.linalg.svd

    def slowed(*args, **kwargs):
        time.sleep(0.05)
        return lapack_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", slowed)
    grids = {"p_grid": (1.0, 4.0), "c_grid": (2.0,)}
    rows, status = run(ExperimentConfig(mode=mode, random_spec=(2, 2, 1), trials=20, **grids))
    assert status == EXIT_OK and rows
    assert all(row.wall_ms < 50.0 for row in rows)


def _main_rows(capsys, *argv):
    code = main(list(argv))
    return code, [
        (row["direction"], row["P"], row["C"])
        for row in csv.DictReader(io.StringIO(capsys.readouterr().out))
    ]


def test_certify_runs_every_budget_point_direction_first(capsys):
    # C = 0 stays out: its uplink search evaluates no candidate and fails
    code, rows = _main_rows(capsys, "--mode", "certify", "--random", "2,2,1", "--trials", "50",
                            "--P-grid", "1,4", "--C-grid", "2")
    assert code == EXIT_OK
    assert rows == [("uplink", "1", "2"), ("uplink", "4", "2"),
                    ("downlink", "1", "2"), ("downlink", "4", "2")]


@pytest.mark.parametrize("mode, directions", [
    ("oracle", ["uplink", "downlink"]),
    ("duality", ["duality"]),
])
def test_grids_are_the_budget_points_of_every_mode(capsys, mode, directions):
    code, rows = _main_rows(capsys, "--mode", mode, "--random", "2,2,1",
                            "--P-grid", "1,4", "--C-grid", "2,8")
    assert code == EXIT_OK
    points = [(P, C) for P in ("1", "4") for C in ("2", "8")]
    assert rows == [(d, P, C) for d in directions for P, C in points]


def test_grids_replace_an_instance_files_budgets(capsys, identity_file):
    # the file says P = 2, C = 2; a grid that is not given keeps its budget
    code, rows = _main_rows(capsys, "--mode", "duality", "--instances", identity_file,
                            "--P-grid", "3", "--C-grid", "1")
    assert code == EXIT_OK and rows == [("duality", "3", "1")]
    code, rows = _main_rows(capsys, "--mode", "duality", "--instances", identity_file,
                            "--P-grid", "3")
    assert code == EXIT_OK and rows == [("duality", "3", "2")]


def test_json_rendering():
    cfg = ExperimentConfig(mode="solve", random_spec=(1, 1, 1), seed=2)
    rows, _ = run(cfg)
    doc = json.loads(render_rows(rows, "json"))
    assert isinstance(doc, list)
    assert set(doc[0]) == set(CSV_COLUMNS)


def test_main_solve_to_file(tmp_path, identity_file, capsys):
    out = tmp_path / "rows.csv"
    code = main(["--mode", "solve", "--instances", identity_file, "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 3


def test_main_random_duality(capsys):
    code = main(["--mode", "duality", "--random", "2,2,4", "--seed", "9"])
    assert code == EXIT_OK
    outerr = capsys.readouterr()
    assert len(outerr.out.splitlines()) == 5


def test_main_missing_file_is_usage_error(capsys):
    code = main(["--mode", "solve", "--instances", "/nonexistent/x.json"])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "mode, target, error",
    [
        ("duality", "duality_gap", DomainError("B or B + M is not positive definite")),
        ("solve", "duality_gap", InconsistencyError("water level unresolved")),
        ("certify", "solve_instance", DomainError("quantization covariance is singular")),
        ("sweep", "duality_gap", InconsistencyError("water level unresolved")),
        ("oracle", "duality_gap", DomainError("B or B + M is not positive definite")),
    ],
)
def test_main_reports_numerical_errors_in_one_line(monkeypatch, capsys, mode, target, error):
    import cranopt.cli as cli_mod

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, target, fail)
    grids = ["--P-grid", "1,2", "--C-grid", "0,2"] if mode == "sweep" else []
    code = main(["--mode", mode, "--random", "2,2,3", "--trials", "5", *grids])
    assert code == EXIT_CHECK_FAILED
    outerr = capsys.readouterr()
    assert outerr.out == ""
    assert outerr.err == f"error: instance rand-000: {error}\n"


def test_main_rejects_double_source(identity_file, capsys):
    code = main(["--mode", "solve", "--instances", identity_file, "--random", "2,2,1"])
    assert code == EXIT_USAGE


def test_parser_grid_syntax():
    ns = build_parser().parse_args(
        ["--mode", "sweep", "--random", "1,1,1", "--P-grid", "1:4:4", "--C-grid", "0:2:3"]
    )
    assert ns.p_grid == "1:4:4"
    assert ns.c_grid == "0:2:3"


def _assert_one_error_line(capsys):
    outerr = capsys.readouterr()
    assert outerr.out == ""
    lines = outerr.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_main_parses_budget_grids(capsys):
    code = main(
        ["--mode", "sweep", "--random", "1,1,1", "--P-grid", "1:4:4", "--C-grid", "0,2"]
    )
    assert code == EXIT_OK
    # header + 2 directions x 4 powers x 2 fronthaul budgets
    assert len(capsys.readouterr().out.splitlines()) == 17


@pytest.mark.parametrize("grid", ["1:4", "1:4:0", "a,b", ",", "1:inf:3", "nan:1:2"])
def test_main_rejects_malformed_grids(capsys, grid):
    code = main(["--mode", "sweep", "--random", "1,1,1", "--P-grid", grid, "--C-grid", "0,2"])
    assert code == EXIT_USAGE
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("option", ["--tol=nan", "--tol=inf", "--seed=-1"])
def test_main_rejects_non_finite_tol_and_negative_seed(capsys, option):
    # a NaN tol failed every row, an infinite one passed every check, and a
    # negative seed ended in a numpy traceback
    code = main(["--mode", "duality", "--random", "2,2,2", option])
    assert code == EXIT_USAGE
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("mode", ["solve", "duality", "sweep", "certify", "oracle"])
def test_main_rejects_zero_trials_in_every_mode(capsys, mode):
    # a zero-trial certify run used to print margin 0 on every row and pass
    grids = ["--P-grid", "1,2", "--C-grid", "0,2"] if mode == "sweep" else []
    code = main(["--mode", mode, "--random", "2,2,2", "--trials", "0", *grids])
    assert code == EXIT_USAGE
    _assert_one_error_line(capsys)


def _cli_process(*args):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "cranopt.cli", *args], cwd=root, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_writes_rows_to_out(tmp_path):
    out = tmp_path / "rows.csv"
    proc = _cli_process("--mode", "sweep", "--random", "2,2,1", "--P-grid", "1,2",
                        "--C-grid", "0,2", "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == ""
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 9  # 2 directions x 2 powers x 2 fronthaul budgets


def test_module_entry_point_exits_2_on_a_malformed_grid():
    proc = _cli_process("--mode", "sweep", "--random", "2,2,1", "--P-grid", "1:4",
                        "--C-grid", "0,2")
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
