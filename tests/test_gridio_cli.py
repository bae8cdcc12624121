"""Tests for the grid CSV format and the JSON-report command line."""

import json
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from slgeo import cli, fibrations, gridio, u1
from slgeo.core import real_coords


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from slgeo.cli import main; "
                           "sys.exit(main(sys.argv[1:]))"] + list(args),
                          capture_output=True, text=True, timeout=300)
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
    assert abs(report["final_dt"] - 0.01) < 1e-12
    assert report["halvings"] == []


def test_cli_runs_as_module_without_runpy_warning():
    # runpy warns when slgeo.cli is already imported (by the package)
    # before ``python -m slgeo.cli`` executes it
    p = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                        "slgeo.cli", "--no-timing", "moduli-dim", "--vars",
                        "5", "--degrees", "5"],
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr


def _scipy_modules(code):
    # the scipy modules a fresh interpreter holds after running code
    p = subprocess.run([sys.executable, "-c", code + "\nimport json, sys\n"
                        "print(json.dumps(sorted(m for m in sys.modules "
                        "if m.startswith('scipy'))))"],
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def test_import_slgeo_loads_no_scipy():
    # a submodule still loads as an attribute on first use
    assert _scipy_modules("import slgeo\n"
                          "assert slgeo.core.standard_cy_package(3).m == 3") == []


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "hl-lt", "--samples", "100"],
    ["index", "--gram", "l0", "--m", "3"],
    ["moduli-dim", "--vars", "5", "--degrees", "5"],
    ["fibration", "--a", "0.5", "--b", "0.3+0.0j"],
    ["fibration", "--a", "0.5", "--b", "0.3+0.0j", "--scan"]], ids=lambda a: a[0])
def test_numpy_only_commands_load_no_scipy(argv):
    code = f"from slgeo.cli import main\nassert main({argv!r}) == 0"
    assert _scipy_modules(code) == []


def test_solve_calabi_loads_no_sparse():
    # the Newton record comes from core, not from the sparse U(1) solver
    code = ("from slgeo.cli import main\n"
            "assert main(['solve-calabi', '--grid', '8']) == 0")
    assert not [m for m in _scipy_modules(code)
                if m.startswith("scipy.sparse")]


def test_evolve_loads_no_dense_linalg_or_fft():
    code = ("from slgeo.cli import main\n"
            "assert main(['evolve', '--nodes', '162', '--t-end', '0.01']) == 0")
    assert not [m for m in _scipy_modules(code)
                if m.startswith(("scipy.linalg", "scipy.fft"))]


def test_unknown_package_attribute_raises():
    import slgeo
    with pytest.raises(AttributeError):
        slgeo.nope


def test_cli_exit_codes():
    # usage error -> 2
    p = _run_cli(["verify"])
    assert p.returncode == 2
    # unknown names, unsupported node counts and numbers the library
    # rejects -> 2 with a message
    for args in (["verify", "--example", "nope"],
                 ["solve-u1", "--boundary", "quadratic"],
                 ["evolve", "--nodes", "100"],
                 ["solve-u1", "--grid-n", "5"],
                 ["solve-u1", "--tol", "0"],
                 ["index", "--cutoff", "1"],
                 ["index", "--cutoff", "-20"],
                 ["moduli-dim", "--vars", "5", "--degrees", "x"],
                 ["evolve", "--dt", "0"],
                 ["solve-calabi", "--grid", "0"],
                 ["solve-calabi", "--t-steps", "0"],
                 ["solve-calabi", "--t-steps", "-1"],
                 ["solve-calabi", "--tol", "0"],
                 ["index", "--m", "0"],
                 ["solve-u1", "--out-grid", "sol.npz"]):
        p = _run_cli(args)
        assert p.returncode == 2
        assert p.stderr.strip()


def _readme_commands():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line)[1:]
            for line in block.split("```", 1)[0].splitlines()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
def test_readme_commands_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--no-timing"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_cli_index_report():
    p = _run_cli(["--no-timing", "index", "--gram", "l0"])
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


def test_report_envelope_failure_lists_checks():
    rep = cli.Report("demo", {})
    rep.check("good", 0.0, 1.0)
    rep.check("bad", 2.0, 1.0)
    code = rep.finish(no_timing=True)
    assert code == 1
    assert rep.envelope["status"] == "fail"
    assert rep.envelope["failing"] == ["bad"]
