"""Tests for the grid CSV format and the JSON-report command line."""

import contextlib
import dataclasses
import io
import json
import pathlib
import shlex
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slgeo
from slgeo import calabi, cli, evolution, families, fibrations, gridio, u1
from slgeo.core import real_coords


def _run_cli(args, timeout=300):
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from slgeo.cli import main; "
                           "sys.exit(main(sys.argv[1:]))"] + list(args),
                          capture_output=True, text=True, timeout=timeout)
    return proc


def test_grid_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((33, 33))
    mask = rng.random((33, 33)) > 0.3
    vals[~mask] = np.nan
    fld = gridio.GridField(vals, -1.0, -1.0, 1 / 16, 1 / 16, mask=mask)
    path = tmp_path / "field.csv"
    gridio.write_grid(path, fld)
    back = gridio.read_grid(path)
    assert np.array_equal(fld.values[mask], back.values[back.mask])
    assert np.array_equal(mask, back.mask)
    assert back.hx == fld.hx and back.x0 == fld.x0


def test_grid_mask_interior_count(tmp_path):
    vals = np.arange(25, dtype=float).reshape(5, 5)
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 1:4] = True
    vals[~mask] = np.nan
    fld = gridio.GridField(vals, 0.0, 0.0, 0.5, 0.5, mask=mask)
    path = tmp_path / "small.csv"
    gridio.write_grid(path, fld)
    back = gridio.read_grid(path)
    assert int(back.mask.sum()) == 9


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# not-a-grid-header\n1,2\n")
    with pytest.raises(gridio.GridFormatError):
        gridio.read_grid(path)


_HEADER = "# slgeo-grid v1, 2, 2, 0, 0, 0.5, 0.5, 0\n"


def test_blank_payload_lines_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text(_HEADER + "1, 2\n\n3, 4\n\n")
    assert np.array_equal(gridio.read_grid(path).values, [[1, 2], [3, 4]])


@pytest.mark.parametrize("text, error, message", [
    ("# slgeo-grid v1, 2, 2, 0, 0, 0.5, 0.5\n1, 2\n3, 4\n",
     gridio.GridFormatError, "header must carry"),
    (_HEADER + "1, 2\n", gridio.GridFormatError, "does not match header"),
    (_HEADER + "1, 2, 3\n4, 5, 6\n", gridio.GridFormatError,
     "does not match header"),
    ("# slgeo-grid v1, 2, 2, 0, 0, nan, 0.5, 0\n1, 2\n3, 4\n", ValueError,
     "spacing must be positive and finite"),
    (_HEADER + "\n", gridio.GridFormatError, "does not match header"),
    ("# slgeo-grid v1, 0, 1, 0, 0, 0.5, 0.5, 0\n", gridio.GridFormatError,
     "does not match header"),
], ids=["short-header", "missing-row", "extra-column", "nan-spacing",
        "empty-payload", "empty-payload-empty-header"])
def test_read_grid_guards(tmp_path, text, error, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(error, match=message):
        gridio.read_grid(path)


@pytest.mark.parametrize("call, message", [
    (lambda: gridio.GridField(np.zeros(4), 0.0, 0.0, 0.5, 0.5), "must be 2D"),
    (lambda: gridio.GridField(np.zeros((2, 2)), 0.0, 0.0, 0.5, 0.5,
                              mask=np.ones((2, 3))), "mask shape mismatch"),
] + [(lambda h=h: gridio.GridField(np.zeros((2, 2)), 0.0, 0.0, 0.5, h),
      "spacing must be positive and finite")
     for h in (0.0, -0.5, np.nan, np.inf)])
def test_grid_field_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_cli_reports_are_deterministic():
    args = ["--no-timing", "verify", "--example", "hl-cone",
            "--samples", "200", "--seed", "4"]
    p1 = _run_cli(args)
    p2 = _run_cli(args)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout
    report = json.loads(p1.stdout)
    assert report["status"] == "pass"
    assert "timing" not in report


def test_cli_shared_flags_after_subcommand(tmp_path):
    out = tmp_path / "report.json"
    p = _run_cli(["moduli-dim", "--vars", "5", "--degrees", "5",
                  "--no-timing", "--out", str(out)])
    assert p.returncode == 0
    report = json.loads(out.read_text())
    assert report["dimension"] == 101


def test_cli_solve_calabi_reports_newton_trace():
    args = ["--no-timing", "solve-calabi", "--m", "2", "--grid", "8",
            "--t-steps", "2"]
    p1 = _run_cli(args)
    p2 = _run_cli(args)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout
    report = json.loads(p1.stdout)
    assert len(report["newton_iters"]) == report["t_steps_taken"] == 2
    assert all(it > 0 for it in report["newton_iters"])
    assert report["halvings"] == []
    # one trace entry per Newton solve
    assert report["levels"] == [0.5, 1.0]
    assert report["stops"] == ["converged"] * 2
    assert [len(r) - 1 for r in report["residuals"]] == report["newton_iters"]
    # the level t = 0.5 stops halfway to tol on a log scale, t = 1 at tol
    half, full = report["residuals"]
    assert half[-1] <= max(1e-10, np.sqrt(1e-10 * half[0]))
    assert full[-1] <= 1e-10


def test_solve_calabi_report_independent_of_cpus(capsys):
    # the FFT and the stencil threads follow calabi._cpus; the report must
    # not depend on how many there are
    from slgeo import calabi
    reports = []
    for cpus in (1, 2):
        with mock.patch.object(calabi, "_cpus", lambda: cpus):
            assert cli.main(["--no-timing", "solve-calabi", "--m", "2",
                             "--grid", "8"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["stops"] == ["converged"] * 10


def test_cli_evolve_reports_step_trace():
    args = ["--no-timing", "evolve", "--nodes", "162", "--dt", "0.03",
            "--t-end", "0.1"]
    p1 = _run_cli(args)
    p2 = _run_cli(args)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout
    report = json.loads(p1.stdout)
    # three steps of 0.03, then the last step is cut to reach t = 0.1
    assert report["steps"] == 4
    assert "final_dt" not in report and "halvings" not in report


def test_cli_runs_as_module_without_runpy_warning():
    # runpy warns when slgeo.cli is already imported (by the package)
    # before ``python -m slgeo.cli`` executes it
    p = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                        "slgeo.cli", "--no-timing", "moduli-dim", "--vars",
                        "5", "--degrees", "5"],
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr


def _scipy_modules(code, prefix="scipy"):
    # the scipy modules, or those under prefix, that a fresh interpreter
    # holds after running code
    p = subprocess.run([sys.executable, "-c", code + "\nimport json, sys\n"
                        "print(json.dumps(sorted(m for m in sys.modules "
                        "if m.startswith(%r))))" % (prefix,)],
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def test_import_slgeo_loads_no_scipy():
    # a submodule still loads as an attribute on first use
    assert _scipy_modules("import slgeo\n"
                          "assert slgeo.core.standard_cy_package(3).m == 3") == []


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "hl-lt", "--samples", "100"],
    ["index", "--gram", "cone", "--m", "3"],
    ["moduli-dim", "--vars", "5", "--degrees", "5"],
    ["fibration", "--a", "0.5", "--b", "0.3+0.0j"],
    ["fibration", "--a", "0.5", "--b", "0.3+0.0j", "--scan"],
    ["evolve", "--nodes", "162", "--t-end", "0.01"]], ids=lambda a: a[0])
def test_numpy_only_commands_load_no_scipy(argv):
    code = f"from slgeo.cli import main\nassert main({argv!r}) == 0"
    assert _scipy_modules(code) == []


@pytest.mark.parametrize("module", ["core", "graphs", "gridio", "families",
                                    "fibrations", "evolution"])
def test_numpy_only_modules_load_no_scipy(module):
    # README's pure-numpy modules; the surface flow's stencil, in
    # evolution, is a numpy table, not a sparse matrix
    assert _scipy_modules("import slgeo." + module) == []


@pytest.mark.parametrize("code", [
    "import slgeo.fibrations",
    "from slgeo.cli import main\nassert main(['fibration', '--scan']) == 0"],
    ids=["import", "scan"])
def test_fibrations_load_neither_u1_nor_scipy(code):
    # the Dirichlet families, which solve, live in u1
    assert _scipy_modules(code, ("scipy", "slgeo.u1")) == []


def test_solve_calabi_loads_no_sparse():
    # the Newton record comes from core, not from the sparse U(1) solver
    code = ("from slgeo.cli import main\n"
            "assert main(['solve-calabi', '--grid', '8']) == 0")
    assert not [m for m in _scipy_modules(code)
                if m.startswith("scipy.sparse")]


def test_unknown_package_attribute_raises():
    import slgeo
    with pytest.raises(AttributeError):
        slgeo.nope


def _cli_error(args, capsys):
    # in process: an exit other than argparse's SystemExit fails the test
    with pytest.raises(SystemExit) as info:
        cli.main(args)
    return info.value.code, capsys.readouterr().err


def test_cli_exit_codes(capsys, tmp_path, monkeypatch):
    # usage error -> 2
    assert _cli_error(["verify"], capsys)[0] == 2
    # unknown names, unsupported node counts and numbers the library
    # rejects -> 2 with a message
    for args in (["verify", "--example", "nope"],
                 ["solve-u1", "--boundary", "quadratic"],
                 ["evolve", "--nodes", "100"],
                 ["solve-u1", "--grid-n", "5"],
                 ["solve-u1", "--tol", "0"],
                 ["index", "--gram", "l0"],
                 ["index", "--cutoff", "20"],
                 ["solve-u1", "--boundary", "zero"],
                 ["moduli-dim", "--vars", "5", "--degrees", "x"],
                 ["evolve", "--dt", "0"],
                 ["solve-calabi", "--grid", "0"],
                 ["solve-calabi", "--t-steps", "0"],
                 ["solve-calabi", "--t-steps", "-1"],
                 ["solve-calabi", "--tol", "0"],
                 ["index", "--gram", "identity", "--m", "0"],
                 ["index", "--gram", "cone", "--m", "4"],
                 ["solve-u1", "--out-grid", "sol.npz"]):
        code, err = _cli_error(args, capsys)
        assert code == 2
        assert err.strip() and "Traceback" not in err
    # NaN and infinite numbers -> 2 with the guard's message
    for args, message in (
            (["solve-u1", "--a", "nan", "--grid-n", "17"], "a must be finite"),
            (["solve-u1", "--a", "inf"], "a must be finite"),
            (["solve-u1", "--a", "1e300", "--grid-n", "17"],
             "a must be finite"),
            (["solve-u1", "--tol", "nan"], "tol must be positive and finite"),
            (["solve-calabi", "--tol", "nan", "--grid", "8"],
             "tol must be positive and finite"),
            (["verify", "--example", "hl-lt", "--t", "nan"],
             "t must be positive and finite"),
            (["verify", "--example", "so3", "--t", "1e300", "--samples", "10"],
             "t must be positive and finite"),
            (["verify", "--example", "hl-lt", "--t", "1e200"],
             "t must be positive and finite"),
            (["verify", "--example", "hl-cone", "--tol", "nan",
              "--samples", "10"], "tol must be positive and finite"),
            (["evolve", "--dt", "inf"], "dt must be positive and finite"),
            (["fibration", "--a", "nan"], "a and b must be finite"),
            (["fibration", "--b", "nan+0j", "--scan"],
             "a and b must be finite"),
            (["verify", "--example", "hl-cone", "--samples", "0"],
             "n_samples must be at least 1"),
            (["verify", "--example", "hl-cone", "--samples", "-5"],
             "n_samples must be at least 1"),
            (["solve-u1", "--boundary", "affine", "--c", "inf",
              "--grid-n", "17"], "b and c must be finite"),
            (["solve-u1", "--boundary", "x2", "--b", "nan",
              "--grid-n", "17"], "b and c must be finite"),
            (["solve-u1", "--boundary", "x2", "--c", "-1e308",
              "--grid-n", "17"],
             "b and c must be finite with |b|, |c| <= 1e+100"),
            (["solve-u1", "--grid-n", "100000"],
             "grid_n must be at most 513"),
            (["solve-calabi", "--grid", "100000"],
             "grid must be at most 2048 for m = 1"),
            (["solve-calabi", "--m", "2", "--grid", "49"],
             "grid must be at most 48 for m = 2"),
            (["index", "--gram", "cone", "--m", "1"],
             "index: m must be 3 for the T^2 cone in C^3"),
            (["index", "--gram", "identity", "--m", "10000000"],
             "eigenvalues up to 2e+07 need a frequency box wider than 2000"),
            (["verify", "--example", "hl-cone", "--samples", "100000000"],
             "samples must be at most 1000000"),
            (["moduli-dim", "--vars", "8000", "--degrees", "8000"],
             "vars and degrees must be at most 5000"),
            (["moduli-dim", "--vars", "5", "--degrees", "5,5001"],
             "vars and degrees must be at most 5000"),
            (["moduli-dim", "--vars", "0", "--degrees", "5"],
             "num_vars must be at least 2"),
            (["moduli-dim", "--vars", "1", "--degrees", "5"],
             "num_vars must be at least 2"),
            # an output path in a missing directory
            (["--out", "/nonexistent/r.json", "index"],
             "index: [Errno 2] No such file or directory"),
            (["verify", "--example", "hl-cone", "--samples", "10",
              "--out-csv", "/nonexistent/c.csv"],
             "verify: [Errno 2] No such file or directory"),
            (["solve-u1", "--grid-n", "17",
              "--out-grid", "/nonexistent/g.csv"],
             "solve-u1: [Errno 2] No such file or directory"),
            # an output path that is itself a directory
            (["--out", str(tmp_path), "index"],
             "index: [Errno 21] Is a directory"),
            (["verify", "--example", "hl-cone", "--samples", "10",
              "--out-csv", str(tmp_path) + "/"],
             "verify: [Errno 21] Is a directory")):
        code, err = _cli_error(args, capsys)
        assert code == 2
        assert message in err and "Traceback" not in err
    # an unwritable output and a step count over the bound are found
    # before the run starts, and no output is written
    with monkeypatch.context() as m:
        # undone before the child runs below, whose PYTHONPATH may be relative
        m.chdir(tmp_path)
        for args, message in (
                (["solve-u1", "--boundary", "x2", "--grid-n", "513", "--tol",
                  "1e-8", "--out-grid", "/nonexistent/g.csv"],
                 "solve-u1: [Errno 2] No such file or directory"),
                (["verify", "--example", "hl-cone", "--samples", "10",
                  "--out-csv", "x.csv", "--out", "/nonexistent/r.json"],
                 "verify: [Errno 2] No such file or directory"),
                (["--out", ".", "solve-u1", "--boundary", "x2", "--grid-n",
                  "513", "--tol", "1e-8"],
                 "solve-u1: [Errno 21] Is a directory"),
                (["evolve", "--nodes", "2562", "--dt", "1e-7", "--t-end",
                  "0.3"], "t_end / dt must be at most 10000")):
            t0 = time.monotonic()
            code, err = _cli_error(args, capsys)
            assert time.monotonic() - t0 < 0.5
            assert code == 2
            assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    # a step toward t_end = inf would not end, nor would the runs past the
    # step bound, so these run in a child whose timeout bounds the run
    for args, message in (
            (["evolve", "--t-end", "nan"], "t_end must be finite"),
            (["evolve", "--t-end", "inf"], "t_end must be finite"),
            (["evolve", "--nodes", "162", "--dt", "1e-320", "--t-end",
              "0.01"], "t_end / dt must be at most 10000"),
            (["evolve", "--dt", "1e-7", "--t-end", "0.3"],
             "t_end / dt must be at most 10000"),
            (["solve-calabi", "--grid", "8", "--t-steps", "100000"],
             "t_steps must be at most 10000")):
        p = _run_cli(args, timeout=60)
        assert p.returncode == 2
        assert message in p.stderr
        assert "Traceback" not in p.stderr


# the input scan: small base configurations, each with one numeric flag
# set to one of the scan values in --flag=value form (a later flag wins)
_SCAN_BASES = {
    "verify": ["verify", "--example", "hl-lt", "--samples", "10"],
    "solve-u1": ["solve-u1", "--boundary", "x2", "--grid-n", "17"],
    "fibration": ["fibration"],
    "solve-calabi": ["solve-calabi", "--grid", "8", "--t-steps", "2"],
    "evolve": ["evolve", "--nodes", "162", "--dt", "0.05", "--t-end", "0.1"],
    "index": ["index", "--gram", "identity"],
    "moduli-dim": ["moduli-dim", "--vars", "5", "--degrees", "2"]}
_SCAN_FLAGS = [(command, flag) for command, flags in (
    ("verify", ("samples", "seed", "tol", "t")),
    ("solve-u1", ("a", "b", "c", "grid-n", "tol")),
    ("fibration", ("a", "b")),
    ("solve-calabi", ("m", "grid", "t-steps", "tol")),
    ("evolve", ("nodes", "dt", "t-end")),
    ("index", ("m",)),
    ("moduli-dim", ("vars", "degrees"))) for flag in flags]
_SCAN_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e400", "1e-320",
                "-1e-3", "-0.0", "0", "-1", "2", "3", "1e6", "100000", "abc")


# every (flag, value) pair: the budget exceeds their count and Hypothesis
# stops once they are exhausted; the examples are the four cases that
# ended outside the contract before the size and step bounds, an index
# --m whose frequency box is wider than the library's bound, and four
# that ended in a traceback before unwritable output paths and moduli-dim
# sizes exited 2 (a value may carry a further flag after a space)
@settings(max_examples=2 * len(_SCAN_FLAGS) * len(_SCAN_VALUES),
          deadline=None)
@given(st.sampled_from(_SCAN_FLAGS), st.sampled_from(_SCAN_VALUES))
@example(("solve-u1", "grid-n"), "100000")
@example(("solve-calabi", "grid"), "100000")
@example(("index", "m"), "10000000")
@example(("solve-calabi", "tol"), "1e-320")
@example(("solve-calabi", "t-steps"), "100000")
@example(("index", "out"), "/nonexistent/r.json")
@example(("verify", "out-csv"), "/nonexistent/c.csv")
@example(("solve-u1", "out-grid"), "/nonexistent/g.csv")
@example(("moduli-dim", "vars"), "8000 --degrees=8000")
def test_cli_input_scan(flag, value):
    # exit 0, 1 or 2, with no exception, RuntimeWarning included
    command, name = flag
    argv = (["--no-timing"] + _SCAN_BASES[command]
            + shlex.split("--%s=%s" % (name, value)))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


@pytest.mark.parametrize("tol, stop", [(["--tol", "1e-9"], "converged"),
                                       ([], "round-off floor")],
                         ids=["tol-1e-9", "default-tol"])
def test_cli_fine_grid_solves_at_a_tol_above_round_off(tol, stop, capsys):
    # at n = 257 the round-off of P is above the default tol 1e-10, so a
    # default-tol solve stops at its round-off floor, which passes 10 tol
    assert cli.main(["--no-timing", "solve-u1", "--boundary", "x2",
                     "--grid-n", "257"] + tol) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass" and report["factorizations"] == 1
    assert report["stops"] == [stop]


def test_cli_linalg_error_propagates():
    # a numerical failure, though LinAlgError subclasses ValueError, is
    # raised rather than reported as bad input with exit 2
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    with mock.patch.object(u1, "solve_dirichlet", singular):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            cli.main(["solve-u1", "--grid-n", "17"])


@pytest.mark.parametrize("a", ["1e6", "1e12", "-1e12"])
def test_cli_fibration_far_level_passes(a, capsys):
    # F rounds at the scale of |z1|^2 ~ |a|, so the round trip is checked
    # relative to max(1, |a|, |b|)
    assert cli.main(["--no-timing", "fibration", "--a=" + a,
                     "--b", "0.3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["pass"] for c in report["checks"]] == [True, True]


@pytest.mark.parametrize("argv", [
    ["fibration", "--a", "-1e12", "--b", "0.3"],
    ["solve-u1", "--a", "-1e-3", "--grid-n", "17"]])
def test_cli_takes_negative_levels_in_exponent_form(argv, capsys):
    # argparse alone reads -1e12 as an unknown option and exits 2
    assert cli.main(["--no-timing"] + argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["a"] == float(argv[2])


def _strict_json(text):
    """text parsed as JSON that holds no NaN or infinity."""
    def reject(name):
        raise ValueError("non-finite number %s in the report" % name)
    return json.loads(text, parse_constant=reject)


def test_cli_solver_failure_is_a_report(capsys):
    # tol 1e-100 lies below the round-off floor, so the path stalls: exit
    # 1 with the reason and the partial trace, the same bytes on each run
    argv = ["--no-timing", "solve-calabi", "--grid", "8", "--t-steps", "2",
            "--tol", "1e-100"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = _strict_json(outs[0])
    assert report["status"] == "fail" and report["checks"] == []
    assert report["reason"].startswith("continuity path stalled at t = ")
    assert report["reason"].endswith("damping underflow at residual 2.220e-16")
    assert report["stops"][-1] == report["halvings"][-1][2] == \
        "damping underflow"
    assert len(report["levels"]) == len(report["residuals"]) == \
        len(report["stops"])


_REAL_SOLVE_CALABI = calabi.solve_calabi


def _scaled_calabi(f, **kwargs):
    # 1e6 f overflows e^{t f} at every level the halved path tries
    return _REAL_SOLVE_CALABI(calabi.TorusField(f.m, 1e6 * f.values), **kwargs)


# (argv, module, name, replacement, reason prefix): each solver gives up
_GIVE_UPS = [
    (["solve-calabi", "--grid", "8", "--t-steps", "1"], calabi,
     "solve_calabi", _scaled_calabi, "continuity path stalled"),
    (["solve-u1", "--boundary", "x2", "--grid-n", "17"], u1, "MAX_NEWTON", 1,
     "max iterations at residual"),
]


@pytest.mark.parametrize("argv, module, name, replacement, reason", _GIVE_UPS,
                         ids=[case[0][0] for case in _GIVE_UPS])
def test_cli_reports_each_solver_failure(argv, module, name, replacement,
                                         reason, capsys):
    with mock.patch.object(module, name, replacement):
        assert cli.main(["--no-timing"] + argv) == 1
    out = capsys.readouterr().out
    report = _strict_json(out)
    assert report["status"] == "fail" and report["checks"] == []
    assert report["reason"].startswith(reason)
    if argv[0] == "solve-calabi":
        # the failed records' NaN residuals are written as null
        assert None in report["residuals"][0] and "NaN" not in out
    if argv[0] == "solve-u1":
        assert report["stops"] == ["max iterations"]
        assert len(report["residuals"][0]) == 2


@pytest.mark.parametrize("argv, reason", [
    (["evolve", "--nodes", "162", "--t-end", "2"], "left the finite range"),
    (["evolve", "--nodes", "642", "--t-end", "1.2"],
     "left the family parameter range")], ids=["blow-up", "off-family"])
def test_cli_evolve_gives_up_with_a_report(argv, reason, monkeypatch):
    # w0 = e^{i pi/6} reaches infinity at T* ~ 1.214: past it the flow
    # leaves the finite range, and before it the mesh leaves the family's
    # range of theta; a child with a timeout, so that a run that crawls
    # toward T* fails the test rather than hanging it
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    p = _run_cli(["--no-timing"] + argv, timeout=60)
    assert p.returncode == 1, p.stderr
    report = _strict_json(p.stdout)
    assert report["status"] == "fail" and report["checks"] == []
    assert reason in report["reason"]
    assert "Traceback" not in p.stderr


def test_cli_fibration_rejects_overflowing_level(capsys):
    # 2a overflows: exit 2 with the guard's message, not NaN points
    code, err = _cli_error(["fibration", "--a", "1e308", "--b", "0.3"],
                           capsys)
    assert code == 2
    assert "a and b must be finite with |a| <=" in err
    assert "Traceback" not in err


def _readme_commands():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line)[1:]
            for line in block.split("```", 1)[0].splitlines()]


def _readme_ids(commands):
    # the subcommand name, numbered from its second command on
    names = [argv[0] for argv in commands]
    seen = [names[:k].count(name) for k, name in enumerate(names)]
    return [name + ("-%d" % (k + 1) if k else "")
            for name, k in zip(names, seen)]


@pytest.mark.parametrize("argv", _readme_commands(),
                         ids=_readme_ids(_readme_commands()))
def test_readme_commands_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--no-timing"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # the blocks run in order in one namespace: the second uses the first's np
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_cli_index_report():
    p = _run_cli(["--no-timing", "index", "--gram", "cone"])
    assert p.returncode == 0
    report = json.loads(p.stdout)
    assert report["index"] == 6


def test_cli_point_cloud_artifact(tmp_path, capsys):
    # every command that writes a point cloud, each on a small input
    for argv in (["fibration", "--a", "0.5", "--b", "0.2"],
                 ["verify", "--example", "hl-lt", "--samples", "100"],
                 ["evolve", "--nodes", "162", "--t-end", "0.01"]):
        csv = tmp_path / (argv[0] + ".csv")
        assert cli.main(["--no-timing"] + argv + ["--out-csv", str(csv)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "pass"
        assert report["artifacts"] == [str(csv)]
        header = csv.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,x5,x6"
        rows = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert rows.shape[1] == 6 and np.all(np.isfinite(rows))
    rows = np.loadtxt(tmp_path / "fibration.csv", delimiter=",", skiprows=1)
    assert np.array_equal(
        rows, real_coords(fibrations.explicit_F_fiber(0.5, 0.2).points))


@pytest.mark.parametrize("argv", [
    ["index", "--gram", "identity"],
    ["solve-u1", "--boundary", "affine", "--b", "0.2", "--c", "0.1",
     "--grid-n", "33"],
    ["solve-calabi", "--m", "2", "--grid", "8", "--source", "zero"]],
    ids=lambda a: a[0])
def test_cli_choices_run_and_pass(argv, capsys):
    assert cli.main(["--no-timing"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_cli_verify_config_records_t(capsys):
    configs = []
    for t in ("1", "2"):
        cli.main(["--no-timing", "verify", "--example", "hl-lt",
                  "--samples", "100", "--t", t])
        configs.append(json.loads(capsys.readouterr().out)["config"])
    assert configs[0] != configs[1]
    assert [c["t"] for c in configs] == [1.0, 2.0]
    # an example that does not read --t does not report it
    cli.main(["--no-timing", "verify", "--example", "hl-cone",
              "--samples", "100"])
    assert "t" not in json.loads(capsys.readouterr().out)["config"]


@pytest.mark.parametrize("t", ["1e14", "1e20", "1e60"])
def test_verify_large_t_is_not_degenerate(t, capsys):
    # hl_Lt's first tangent row grows like t while the others stay O(1):
    # a badly scaled basis, not a degenerate one
    assert cli.main(["--no-timing", "verify", "--example", "hl-lt",
                     "--t", t, "--samples", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["checks"][0]["value"] <= 1e-14


def test_cli_solve_u1_reports_continuation_level(capsys):
    # a = 0 is reached by continuation, which may stop at a small a > 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cli.main(["--no-timing", "solve-u1", "--a", "0", "--boundary", "x2",
                  "--grid-n", "33"])
        sol = u1.solve_dirichlet(cli._boundary_from_name("x2", 0.0, 0.0), 0.0,
                                 u1.ConvexDomain("disc", rx=1.0, n=33))
    report = json.loads(capsys.readouterr().out)
    assert report["continuation_a"] > 0
    assert report["continuation_a"] == sol.continuation_a


def test_cli_solve_u1_reports_newton_trace():
    args = ["--no-timing", "solve-u1", "--a", "0", "--boundary", "x2",
            "--grid-n", "33"]
    p1 = _run_cli(args)
    p2 = _run_cli(args)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout
    report = json.loads(p1.stdout)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = u1.solve_dirichlet(cli._boundary_from_name("x2", 0.0, 0.0), 0.0,
                                 u1.ConvexDomain("disc", rx=1.0, n=33))
    assert report["newton_iters"] == sol.newton_iters > 0
    assert report["factorizations"] == sol.factorizations > 0
    assert report["levels"] == [rec.level for rec in sol.trace]
    assert report["levels"][0] == 1.0
    assert report["stops"] == [rec.stop for rec in sol.trace]
    assert report["residuals"] == [rec.residuals for rec in sol.trace]


def _spy_traces(module, name, traces):
    # module.name, appending the trace of each solve it runs, failed or not
    solve = getattr(module, name)

    def spy(*args, **kwargs):
        try:
            result = solve(*args, **kwargs)
        except calabi.PathFailureError as exc:
            traces.append(exc.path.trace)
            raise
        traces.append(result.trace)
        return result
    return spy


@pytest.mark.parametrize("argv, module, name, code", [
    (["solve-u1", "--a", "0", "--boundary", "x2", "--grid-n", "33"], u1,
     "solve_dirichlet", 0),
    (["solve-calabi", "--m", "2", "--grid", "8", "--t-steps", "2"], calabi,
     "solve_calabi", 0),
    (["solve-calabi", "--grid", "8", "--t-steps", "2", "--tol", "1e-100"],
     calabi, "solve_calabi", 1)], ids=["solve-u1", "solve-calabi", "failure"])
def test_cli_trace_carries_step_lengths(argv, module, name, code, capsys):
    traces = []
    with mock.patch.object(module, name, _spy_traces(module, name, traces)):
        assert cli.main(["--no-timing"] + argv) == code
    report = json.loads(capsys.readouterr().out)
    assert len(traces) == 1
    assert report["step_lengths"] == [rec.step_lengths for rec in traces[0]]
    assert all(report["step_lengths"])


def test_report_envelope_failure_lists_checks():
    rep = cli.Report("demo", {})
    rep.check("good", 0.0, 1.0)
    rep.check("bad", 2.0, 1.0)
    rep.check("nan", np.nan, 1.0)
    code = rep.finish(no_timing=True)
    assert code == 1
    assert rep.envelope["status"] == "fail"
    assert rep.envelope["failing"] == ["bad", "nan"]
    assert rep.envelope["checks"][2]["value"] is None


def test_report_version_is_the_package_version():
    assert cli.Report("demo", {}).envelope["version"] == slgeo.__version__


def _shift_f(sol):
    sol.f.values[sol.domain.inside] += 1e-3
    return sol


def _bump_phi(path):
    bump = calabi.TorusField.from_function(
        path.phi.m, path.phi.n, lambda x1, *rest: 1e-3 * np.cos(x1))
    path.phi = calabi.TorusField(path.phi.m, path.phi.values + bump.values)
    return path


def _shift_point(rec):
    rec.points[0] += 1e-3
    return rec


_EVOLVE = ["evolve", "--nodes", "162", "--t-end", "0.01"]

# (argv, module, function, change to its result, the check that must fail)
_WRONG_ANSWERS = [
    (["verify", "--example", "hl-cone", "--samples", "100"], families,
     "sl_residual_sweep", lambda worst: 1.0, "sl_residual_max"),
    (["solve-u1", "--boundary", "x2", "--grid-n", "33"], u1,
     "solve_dirichlet", _shift_f, "residual_P"),
    (["solve-calabi", "--m", "2", "--grid", "8", "--t-steps", "2"], calabi,
     "solve_calabi", _bump_phi, "ma_residual"),
    (["fibration"], fibrations, "explicit_F_fiber", _shift_point,
     "roundtrip_max_error"),
    (["fibration"], fibrations, "explicit_F_fiber",
     lambda rec: dataclasses.replace(rec, sl_residual_max=1.0),
     "sl_residual_max"),
    (["fibration", "--scan"], fibrations, "discriminant_scan",
     lambda sing: [], "discriminant_is_a_eq_0"),
    (_EVOLVE, evolution, "symplectic_drift", lambda drift: 1.0,
     "symplectic_drift"),
    (_EVOLVE, evolution, "compare_so3", lambda dev: 1.0,
     "so3_family_deviation"),
    (["index", "--gram", "cone"], families, "legendrian_index_flat_torus",
     lambda count: 5, "l_index"),
]


def test_every_cli_check_can_fail(capsys):
    # each command, handed a wrong answer, fails the check on that answer
    # alone; the cases reach every check the commands report
    failed, reported = set(), set()
    for argv, module, name, change, check in _WRONG_ANSWERS:
        real = getattr(module, name)
        with mock.patch.object(module, name, lambda *a, real=real,
                               change=change, **k: change(real(*a, **k))):
            assert cli.main(["--no-timing"] + argv) == 1, argv
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        assert report["failing"] == [check]
        failed.add((argv[0], check))
        reported.update((argv[0], c["name"]) for c in report["checks"])
    assert reported == failed
    # a command whose values cannot fail reports them with no checks
    for argv in (["index", "--gram", "identity"],
                 ["moduli-dim", "--vars", "5", "--degrees", "5"]):
        assert cli.main(["--no-timing"] + argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"] == [] and report["status"] == "pass"
