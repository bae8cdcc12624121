"""Benchmark runner for slgeo: one seeded workload in one process.

    python3 perfbench/run.py --workload u1-lift --seed 1 --seconds 12 --trace 0

Run from anywhere inside a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy, and the run
fails with exit code 2 when that source is missing.

A run times ``import slgeo`` in SETUP_REPEATS child processes, imports
slgeo itself, builds the workload's inputs (SETUP_REPEATS times) and runs
one cold pass, which warms caches and is reported but is not a metric.
With --trace 0 it then runs warm passes with a round of the workload's CLI
subcommands (child processes) between each two, so that both kinds of
sample spread over the whole run, until --seconds have passed, at least
MIN_WARM_PASSES passes and CLI_MIN_ROUNDS rounds are done, and reports
the end-to-end metrics.
With --trace 1 warm passes alternate between traced and untraced, at least
MIN_WARM_PASSES of each, and it reports the per-layer metrics and the
tracing overhead.  Every pass runs its correctness checks; a pass with a
failed check counts as failed.  The report is printed line by line and
saved under perfbench/out/, together with the spans of a traced run.  The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 3
MIN_WARM_PASSES = 3      # of each kind (traced, untraced) a run makes
CLI_MIN_ROUNDS = 2       # a round runs between two warm passes
CLI_TIMEOUT_S = 100
MAX_PASS_WINDOW_S = 90   # stop starting passes after this, whatever --seconds
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
              "cli_s": "s"}

LAYERS = ("bench", "core", "u1", "gridio", "calabi", "evolution", "families",
          "fibrations")

PER_LAYER = {
    "core.sl_defect_us": "us", "core.calibration_defect_us": "us",
    "u1.domain_s": "s", "u1.solve_s": "s", "u1.assembly_s": "s",
    "u1.newton_iters": "count", "u1.continuation_a": "1",
    "u1.stalled": "count", "u1.residual_P": "1",
    "u1.cr_s": "s", "u1.singular_s": "s",
    "u1.lift_s": "s", "u1.lift_points": "count",
    "u1.lift_points_per_s": "1/s", "u1.lift_defect_max": "1",
    "gridio.write_s": "s", "gridio.read_s": "s", "gridio.bytes": "B",
    "calabi.solve_s": "s", "calabi.newton_iters": "count",
    "calabi.t_steps_taken": "count", "calabi.ma_op_s": "s",
    "calabi.ricci_s": "s", "calabi.residual": "1",
    "evolution.surface_s": "s", "evolution.run_s": "s",
    "evolution.steps": "count", "evolution.drift_s": "s",
    "evolution.so3_s": "s", "evolution.swept_s": "s",
    "families.sweep_s": "s", "families.planes_per_s": "1/s",
    "fibrations.explicit_fiber_s": "s", "fibrations.hl_fiber_s": "s",
    **{"%s.self_s" % layer: "s" for layer in LAYERS},
    "trace.pass_s": "s", "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s", "trace.span_estimate_s": "s",
}

WORKLOAD_NAMES = ("u1-lift", "u1-degenerate", "calabi-m2", "closed-form")


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# host facts


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _llc():
    """Size of the highest-level CPU cache, read from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return "L%d %s" % best if best else None


def host_facts(args):
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        blas_name = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas": blas_name, "blas_threads": _blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "llc": _llc()}


# ---------------------------------------------------------------------------
# passes, CLI rounds and metrics


@dataclass
class PassRecord:
    index: int
    traced: bool
    seconds: float
    failures: list          # failed checks: (name, value, limit, ok)
    values: dict            # per-pass counts and quality records
    error: str | None       # traceback of an exception the pass raised

    @property
    def ok(self):
        return not self.failures and self.error is None


def run_pass(wl, inputs, tracer, index, traced):
    gc.collect()  # start each pass without the previous pass's garbage
    tracer.enabled = traced
    tracer.pass_id = index
    failures, values, error = [], {}, None
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.pass"):
            checks, values = wl.run(inputs, tracer)
            failures = checks.failures()
    except Exception:  # a pass that raises is a failed pass, not a crash
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    tracer.enabled = False
    return PassRecord(index, traced, seconds, failures, values, error)


IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import slgeo; "
                "print(time.perf_counter() - t0)")


def time_import(env):
    """Seconds ``import slgeo`` takes in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, check=True)
    return float(proc.stdout)


def run_cli_round(wl, env):
    """One round of the workload's CLI subcommands; (seconds, failures)."""
    total, failures = 0.0, []
    for argv in wl.cli(str(OUT)):
        cmd = [sys.executable, "-m", "slgeo.cli", "--no-timing"] + argv
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append("%s: timeout" % argv[0])
            total += time.perf_counter() - t0
            continue
        total += time.perf_counter() - t0
        try:
            status = json.loads(proc.stdout).get("status")
        except json.JSONDecodeError:
            status = None
        if proc.returncode != 0 or status != "pass":
            failures.append("%s: exit %d, status %s, %s" % (
                argv[0], proc.returncode, status, proc.stderr.strip()[-300:]))
    return total, failures


def layer_metrics(tracer, record):
    """Per-layer metrics of one traced pass."""
    d = tracer.durations(record.index)
    v = record.values
    out = {}
    for name, seconds in d.items():
        if name + "_s" in PER_LAYER:
            out[name + "_s"] = seconds
    for name, value in v.items():
        if name in PER_LAYER:
            out[name] = value
    for key in ("core.sl_defect", "core.calibration_defect"):
        if key in d:
            out[key + "_us"] = 1e6 * d[key] / v["core.planes"]
    if "u1.lift" in d:
        out["u1.lift_points_per_s"] = v["u1.lift_points"] / d["u1.lift"]
    if "families.sweep" in d:
        out["families.planes_per_s"] = (v["families.planes"]
                                        / d["families.sweep"])
    for layer, seconds in tracer.self_times(record.index).items():
        out[layer + ".self_s"] = seconds
    return out


def span_cost(n=20000):
    """Seconds one recorded empty span costs, measured on a scratch tracer."""
    from spans import Tracer
    probe = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with probe.span("bench.probe"):
            pass
    return (time.perf_counter() - t0) / n


def median_metrics(rows):
    keys = {k for row in rows for k in row}
    return {k: statistics.median(row.get(k, 0.0) for row in rows)
            for k in keys}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not (SRC / "slgeo" / "__init__.py").is_file():
        print("perfbench: no slgeo source at %s" % SRC, file=sys.stderr)
        return 2
    # One BLAS thread: the run then uses one core of the shared host and
    # no thread waits on another.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ)
    paths = [str(SRC), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    import_times = [time_import(env) for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    import slgeo
    if Path(slgeo.__file__).resolve().parent != (SRC / "slgeo").resolve():
        print("perfbench: imported slgeo from %s, not %s"
              % (slgeo.__file__, SRC), file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    traced_run = args.trace == 1
    tracer = Tracer(traced_run)

    setup_times = []
    for rep in range(SETUP_REPEATS):
        tracer.pass_id = "setup%d" % rep
        t = time.perf_counter()
        inputs = wl.setup(args.seed, tracer, str(OUT))
        setup_times.append(time.perf_counter() - t)
    tracer.enabled = False

    # The cold pass warms caches; the metrics come from the warm passes and
    # CLI rounds after it, interleaved so that a slow spell of the host
    # falls on both alike.
    passes = [run_pass(wl, inputs, tracer, 0, False)]
    cli_times, cli_failures = [], []
    window0 = time.perf_counter()
    kinds = (False, True) if traced_run else (False,)
    while True:
        elapsed = time.perf_counter() - window0
        fewest = min(sum(r.traced == k for r in passes[1:]) for k in kinds)
        enough = fewest >= MIN_WARM_PASSES and (
            traced_run or len(cli_times) >= CLI_MIN_ROUNDS)
        if elapsed >= MAX_PASS_WINDOW_S or (elapsed >= args.seconds
                                            and enough):
            break
        if not traced_run and len(passes) > 1:
            seconds, failures = run_cli_round(wl, env)
            cli_times.append(seconds)
            cli_failures += failures
        traced = traced_run and (len(passes) % 2 == 1)
        passes.append(run_pass(wl, inputs, tracer, len(passes), traced))
    warm = passes[1:]
    untraced_warm = [r.seconds for r in warm if not r.traced]
    cli_ops = len(cli_times) * len(wl.cli(str(OUT)))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not r.ok for r in passes) + len(cli_failures)
    attempted = len(passes) + cli_ops
    import_s = statistics.median(import_times)

    if traced_run:
        setup_rows = [{k + "_s": v
                       for k, v in tracer.durations("setup%d" % i).items()
                       if k + "_s" in PER_LAYER}
                      for i in range(SETUP_REPEATS)]
        layer = median_metrics([layer_metrics(tracer, r)
                                for r in warm if r.traced])
        layer.update(median_metrics(setup_rows))
        # Warm passes alternate traced, untraced; the overhead is the median
        # difference within those pairs, so drift between pairs cancels.
        pairs = [(a.seconds, b.seconds) for a, b in zip(warm[::2], warm[1::2])]
        spans_per_pass = statistics.median(
            sum(s["pass"] == r.index for s in tracer.spans)
            for r in warm if r.traced)
        layer.update({
            "trace.pass_s": statistics.median(r.seconds
                                              for r in warm if r.traced),
            "trace.untraced_pass_s": statistics.median(untraced_warm),
            "trace.overhead_s": statistics.median(t - u for t, u in pairs),
            "trace.span_estimate_s": spans_per_pass * span_cost()})
        unknown = set(layer) - set(PER_LAYER)
        if unknown:
            raise KeyError("not in PER_LAYER: %s" % sorted(unknown))
        metrics = {k: {"value": float(layer.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": import_s + statistics.median(setup_times),
                  "pass_s": statistics.median(untraced_warm),
                  "peak_rss_mb": peak_rss_mb,
                  "cli_s": statistics.median(cli_times)}
        metrics = {k: {"value": float(values[k]), "unit": u}
                   for k, u in END_TO_END.items()}

    q1, q3 = _quartiles(untraced_warm)
    report = {
        "host": host_facts(args),
        "import_times_s": import_times, "setup_times_s": setup_times,
        "first_pass_s": passes[0].seconds,
        "passes": [{"index": r.index, "traced": r.traced, "seconds": r.seconds,
                    "ok": r.ok, "failures": r.failures, "error": r.error,
                    "values": r.values} for r in passes],
        "warm_untraced": {"samples": len(untraced_warm),
                          "median": statistics.median(untraced_warm),
                          "q1": q1, "q3": q3},
        "cli": {"commands": wl.cli(str(OUT)), "round_seconds": cli_times,
                "failures": cli_failures},
        "metrics": metrics,
    }
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT / ("report-%s.json" % stem), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if traced_run:
        tracer.write(OUT / ("spans-%s.json" % stem))
    for path in OUT.glob("*grid-%d.csv" % os.getpid()):
        path.unlink()

    print("host " + json.dumps(report["host"], sort_keys=True))
    print("import %s s, setup builds %s s" % (
        " ".join("%.4f" % s for s in import_times),
        " ".join("%.4f" % s for s in setup_times)))
    print("first (cold) pass %.4f s" % passes[0].seconds)
    print("warm untraced passes: %d, median %.4f s, q1 %.4f s, q3 %.4f s" % (
        len(untraced_warm), statistics.median(untraced_warm), q1, q3))
    for r in passes:
        status = "ok" if r.ok else "FAILED"
        print("pass %d %s %.4f s %s" % (r.index, "traced" if r.traced
                                         else "untraced", r.seconds, status))
        for name, value, limit, _ in r.failures:
            print("  check %s = %.3e, limit %.3e" % (name, value, limit))
        if r.error:
            print("  " + r.error.strip().replace("\n", "\n  "))
    for f in cli_failures:
        print("cli FAILED " + f)
    if cli_times:
        print("cli rounds %s s" % " ".join("%.4f" % s for s in cli_times))
    for name, m in metrics.items():
        print("metric %-30s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
