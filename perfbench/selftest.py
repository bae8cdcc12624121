"""Self-test of the benchmark.

    python3 perfbench/selftest.py                 # one workload (calabi-m2)
    python3 perfbench/selftest.py --workload all  # every workload

1. The metric tables in run.py match BENCHMARK.json, and a short run of
   run.py with --trace 0 and with --trace 1 prints a result line with
   exactly the contract's keys, those metric names and units, no failed
   pass, at least MIN_WARM_PASSES warm passes of each kind and, with
   --trace 0, at least CLI_MIN_ROUNDS rounds of the CLI subcommands.
2. Deliberately wrong inputs make the pass checks fail, while the right
   inputs pass them:
     - a lift checked against another a than its solve fails the moment
       check;
     - a grid read back with one value changed fails the bitwise round trip;
     - a pass whose library call raises counts as failed.
3. In a directory that holds only BENCHMARK.json and perfbench/, run.py
   exits with a nonzero code and prints no result line.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wk  # noqa: E402

FAILURES: list[str] = []


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def check_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "end_to_end names and units match run.py")
    expect(layer == run.PER_LAYER, "per_layer names and units match run.py")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES),
           "workload names match run.py")
    return e2e, layer


def check_run(workload, trace, expected):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=400)
    what = "%s --trace %d" % (workload, trace)
    expect(proc.returncode == 0, what + ": exit code 0")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, what + ": last line is a JSON result")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           what + ": result keys")
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    expect(printed == expected, what + ": metric names and units")
    expect(result["correct"] and result["failed"] == 0,
           what + ": every operation passed")
    # a cold pass and MIN_WARM_PASSES warm passes of each kind, and with
    # --trace 0 CLI_MIN_ROUNDS rounds of the CLI, even with --seconds 1
    cli = 0 if trace else run.CLI_MIN_ROUNDS * len(
        wk.WORKLOADS[workload].cli(str(run.OUT)))
    expect(result["attempted"] >= 1 + run.MIN_WARM_PASSES * (1 + trace) + cli,
           what + ": at least %d warm passes of each kind%s"
           % (run.MIN_WARM_PASSES, "" if trace else
              " and %d CLI rounds" % run.CLI_MIN_ROUNDS))


def check_wrong_inputs():
    import numpy as np

    from slgeo import gridio, u1
    from spans import Tracer

    sol = u1.solve_dirichlet(wk.u1_data(0, wk.U1_LIFT_BC), 1.0,
                             u1.ConvexDomain("disc", n=33))
    cloud = u1.lift_to_sl3(sol)
    right, wrong = wk.Checks(), wk.Checks()
    wk.check_lift(right, cloud, 1.0)
    wk.check_lift(wrong, cloud, 0.7)
    moment = lambda ck: [c for c in ck.items if c[0] == "lift_moment_error"][0]
    expect(moment(right)[3], "lift at the solve's a passes the moment check")
    expect(not moment(wrong)[3], "lift at another a fails the moment check")

    path = run.OUT / "selftest-grid.csv"
    run.OUT.mkdir(exist_ok=True)
    gridio.write_grid(path, sol.f)
    back = gridio.read_grid(path)
    path.unlink()
    right, wrong = wk.Checks(), wk.Checks()
    wk.check_grid_round_trip(right, sol.f, back)
    i, j = np.argwhere(np.isfinite(back.values))[0]
    back.values[i, j] = np.nextafter(back.values[i, j], np.inf)
    wk.check_grid_round_trip(wrong, sol.f, back)
    expect(not right.failures(), "unchanged grid passes the round trip")
    expect(bool(wrong.failures()),
           "grid changed in one ulp fails the round trip")

    bad = wk.U1Inputs(sol.domain, 1.0, u1.BoundaryData(
        lambda x, y: np.full_like(x, np.nan)), str(path))
    rec = run.run_pass(wk.WORKLOADS["u1-lift"], bad, Tracer(False), 0, False)
    expect(not rec.ok and rec.error is not None,
           "a pass whose library call raises counts as failed")


def check_bare_directory():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calabi-m2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and not last.startswith("{"),
           "without src/slgeo the benchmark exits nonzero with no result")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", default="calabi-m2",
                   choices=run.WORKLOAD_NAMES + ("all",))
    args = p.parse_args()
    e2e, layer = check_tables()
    check_wrong_inputs()
    check_bare_directory()
    names = run.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for w in names:
        check_run(w, 0, e2e)
        check_run(w, 1, layer)
    print("selftest: %s" % ("%d failed" % len(FAILURES) if FAILURES else "ok"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
