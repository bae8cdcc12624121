"""Command-line interface emitting machine-readable JSON reports.

Every subcommand runs one library operation and writes a report envelope
to stdout (or --out): plain fields, and checks that pass when |value| <=
tolerance.  Exit status is 0 when every check passes, 1 when any fails
or a solver gives up (the report then gives its reason and what it
recorded), 2 on usage errors.  With --no-timing the report is
byte-identical across runs with the same configuration and seed.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__

# verify --example name -> closed-form family name
EXAMPLES = {"hl-cone": "hl_cone_L0", "hl-lt": "hl_Lt", "so3": "so3_Lt",
            "quadric": "quadric_L", "branched": "branched_leading"}
# evolve --nodes -> icosphere subdivision level
ICOSPHERE_LEVELS = {162: 2, 642: 3, 2562: 4}
# the largest size flags; a run at each bound peaks near 300-500 MB
GRID_N_MAX = 513  # solve-u1 --grid-n
BC_MAX = 1e100  # solve-u1 |--b|, |--c|: f_x^2 + a^2 stays finite at any a
CALABI_GRID_MAX = {1: 2048, 2: 48}  # solve-calabi --grid, per --m
MODULI_MAX = 5000  # moduli-dim --vars, each --degrees: C(n+d-1, d) < 2^9999
SAMPLES_MAX = 10 ** 6  # verify --samples
# the most time steps: evolve's t_end / dt (it keeps every state, 1.2 GB
# at 2,562 nodes) and solve-calabi's --t-steps
STEPS_MAX = 10_000


class Report:
    def __init__(self, subcommand, config):
        self.envelope = {
            "tool": "slgeo",
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "checks": [],
            "artifacts": [],
        }
        self._t0 = time.time()

    def check(self, name, value, tolerance):
        self.envelope["checks"].append({
            "name": name,
            "value": float(value) if np.isfinite(value) else None,
            "tolerance": tolerance,
            "pass": bool(abs(value) <= tolerance),
        })

    def fail(self, exc):
        """Marks the report of a solver that gave up with its reason."""
        self.envelope["reason"] = str(exc)
        return self

    def artifact(self, path):
        self.envelope["artifacts"].append(str(path))

    def finish(self, no_timing):
        if not no_timing:
            self.envelope["timing"] = {"seconds": round(time.time() - self._t0, 3)}
        ok = "reason" not in self.envelope and all(
            c["pass"] for c in self.envelope["checks"])
        self.envelope["status"] = "pass" if ok else "fail"
        if not ok:
            self.envelope["failing"] = [c["name"] for c in
                                        self.envelope["checks"] if not c["pass"]]
        return 0 if ok else 1


def _finite(obj):
    """obj with each non-finite float, as a NaN residual, made None."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, (list, tuple)):
        return [_finite(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    return obj


def _emit(report, args):
    text = json.dumps(_finite(report.envelope), sort_keys=True, indent=2,
                      allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _write_cloud_csv(path, points):
    """Point cloud as CSV columns x1..x6 (real coordinates of C^3)."""
    from .core import real_coords
    np.savetxt(path, real_coords(points), fmt="%.17g", delimiter=",",
               header="x1,x2,x3,x4,x5,x6", comments="")


def _report_trace(rep, trace):
    """One entry per Newton solve of a list of core.NewtonRecords, failed
    ones included: its level, stop word, residuals and line-search steps."""
    rep.envelope["levels"] = [rec.level for rec in trace]
    rep.envelope["stops"] = [rec.stop for rec in trace]
    rep.envelope["residuals"] = [rec.residuals for rec in trace]
    rep.envelope["step_lengths"] = [rec.step_lengths for rec in trace]


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_verify(args):
    from . import families
    if not 0 < args.tol < np.inf:
        raise ValueError("tol must be positive and finite, got %r" % args.tol)
    if args.samples > SAMPLES_MAX:
        raise ValueError("samples must be at most %d" % SAMPLES_MAX)
    params = {"hl-lt": {"t": args.t}, "so3": {"t": args.t},
              "quadric": {"a1": 1, "a2": 2, "c": 1.0}}.get(args.example, {})
    fam = families.ModelFamily(EXAMPLES[args.example], params)
    rep = Report("verify", {"example": args.example, "samples": args.samples,
                            "seed": args.seed, "tol": args.tol,
                            **({"t": args.t} if "t" in params else {})})
    worst = families.sl_residual_sweep(fam, args.samples, args.seed)
    rep.check("sl_residual_max", worst, args.tol)
    if args.out_csv:
        rng = np.random.default_rng(args.seed)
        params = fam.sample_params(rng, min(args.samples, 2000))
        _write_cloud_csv(args.out_csv, families.family_point(fam, params)[0])
        rep.artifact(args.out_csv)
    return rep


def _boundary_from_name(name, b, c):
    from .u1 import BoundaryData
    if not (abs(b) <= BC_MAX and abs(c) <= BC_MAX):
        raise ValueError("b and c must be finite with |b|, |c| <= %g, got %r "
                         "and %r" % (BC_MAX, b, c))
    if name == "affine":
        return BoundaryData(lambda x, y: b * np.asarray(x) + c * np.asarray(y))
    return BoundaryData(lambda x, y: np.asarray(x) ** 2
                        + b * np.asarray(x) + c * np.asarray(y))


def _cmd_solve_u1(args):
    from . import gridio, u1
    if args.out_grid and not args.out_grid.endswith(".csv"):
        raise ValueError(f"--out-grid must name a .csv file: {args.out_grid}")
    if args.grid_n > GRID_N_MAX:
        raise ValueError("grid_n must be at most %d" % GRID_N_MAX)
    dom = u1.ConvexDomain("disc", rx=1.0, n=args.grid_n)
    phi = _boundary_from_name(args.boundary, args.b, args.c)
    rep = Report("solve-u1", {"a": args.a, "boundary": args.boundary,
                              "b": args.b, "c": args.c, "grid_n": dom.n,
                              "tol": args.tol})
    try:
        sol = u1.solve_dirichlet(phi, args.a, dom, tol=args.tol)
    except u1.NewtonDivergenceError as exc:
        _report_trace(rep, [exc.record])
        return rep.fail(exc)
    # the returned f, evaluated again at its level (continuation_a if a = 0)
    P = u1.p_operator(sol.f, args.a or sol.continuation_a, dom, phi)
    rep.check("residual_P", np.max(np.abs(P.values[P.mask])), 10.0 * args.tol)
    rep.envelope["residual_CR"] = u1.cr_residual(sol)
    rep.envelope["newton_iters"] = sol.newton_iters
    rep.envelope["factorizations"] = sol.factorizations
    _report_trace(rep, sol.trace)   # levels are a values
    sing = u1.singular_points(sol)
    rep.envelope["singular_points"] = [[x, z.real, z.imag] for x, z in sing]
    if args.a == 0.0:
        # the continuation to a = 0 may stop at a small positive level
        rep.envelope["continuation_a"] = sol.continuation_a
    if args.out_grid:
        gridio.write_grid(args.out_grid, sol.f)
        rep.artifact(args.out_grid)
    return rep


def _cmd_fibration(args):
    from . import fibrations
    b = complex(args.b)
    rep = Report("fibration", {"a": args.a, "b": [b.real, b.imag],
                               "scan": args.scan})
    if args.scan:
        avals = np.linspace(-1.0, 1.0, 21)
        sing = fibrations.discriminant_scan(avals, b=args.b)
        rep.envelope["discriminant"] = sing
        # levels where "has singular points" and "a = 0" disagree
        rep.check("discriminant_is_a_eq_0",
                  sum((a in sing) != (a == 0.0) for a in avals), 0)
        return rep
    rec = fibrations.explicit_F_fiber(args.a, args.b)
    errors = [(abs(fa - args.a), abs(fb - b))
              for fa, fb in map(fibrations.explicit_F, rec.points)]
    # F rounds at the scale of |z1|^2 ~ |a| and of |z3| ~ |b|
    rep.check("roundtrip_max_error",
              np.max(errors) / max(1.0, abs(args.a), abs(b)), 1e-10)
    rep.check("sl_residual_max", rec.sl_residual_max, 1e-10)
    rep.envelope["topology"] = rec.topology
    if args.out_csv:
        _write_cloud_csv(args.out_csv, rec.points)
        rep.artifact(args.out_csv)
    return rep


def _cmd_solve_calabi(args):
    from . import calabi
    if args.grid > CALABI_GRID_MAX[args.m]:
        raise ValueError("grid must be at most %d for m = %d"
                         % (CALABI_GRID_MAX[args.m], args.m))
    if args.t_steps > STEPS_MAX:
        raise ValueError("t_steps must be at most %d" % STEPS_MAX)
    rep = Report("solve-calabi", {"m": args.m, "grid": args.grid,
                                  "source": args.source,
                                  "t_steps": args.t_steps, "tol": args.tol})
    if args.source == "zero":
        f = calabi.TorusField(args.m, np.zeros((args.grid,) * (2 * args.m)))
    elif args.m == 1:
        f = calabi.TorusField.from_function(
            1, args.grid, lambda x, y: 0.1 * np.cos(x) * np.cos(y))
    else:
        f = calabi.TorusField.from_function(
            2, args.grid,
            lambda x1, y1, x2, y2: 0.05 * (np.cos(x1) + np.cos(y2)))
    f = calabi.normalize_source(f)
    try:
        path = calabi.solve_calabi(f, tol=args.tol, t_steps=args.t_steps)
    except calabi.PathFailureError as exc:
        rep.envelope["halvings"] = exc.path.halvings
        _report_trace(rep, exc.path.trace)
        return rep.fail(exc)
    # the returned phi, evaluated again: det(I + H) - e^{f + c} at t = 1
    ratio = calabi.ma_operator(path.phi).values
    ratio -= np.exp(f.values + path.c_values[-1])
    rep.check("ma_residual", np.max(np.abs(ratio)), 10.0 * args.tol)
    rep.envelope["phi_mean"] = path.phi.mean()
    rep.envelope["t_steps_taken"] = len(path.steps)
    rep.envelope["newton_iters"] = path.newton_iters
    rep.envelope["halvings"] = path.halvings   # [t, dt, reason] per halving
    _report_trace(rep, path.trace)  # levels are t values
    return rep


def _cmd_evolve(args):
    # a dt or t_end that is not positive and finite gets the library's message
    if 0 < STEPS_MAX * args.dt < args.t_end < np.inf:
        raise ValueError("t_end / dt must be at most %d" % STEPS_MAX)
    from . import evolution
    rep = Report("evolve", {"surface": args.surface, "nodes": args.nodes,
                            "dt": args.dt, "t_end": args.t_end})
    surf = evolution.EvolvingSurface.sphere(
        ICOSPHERE_LEVELS[args.nodes], scale=np.exp(1j * np.pi / 6), dt=args.dt)
    try:
        evolution.evolve_run(surf, args.t_end)
        dev = evolution.compare_so3(surf)
    except (evolution.StepRejectedError, evolution.NoMatchError) as exc:
        return rep.fail(exc)
    rep.check("symplectic_drift", evolution.symplectic_drift(surf), 1e-6)
    rep.check("so3_family_deviation", dev, 1e-3)
    rep.envelope["steps"] = len(surf.states) - 1
    if args.out_csv:
        _write_cloud_csv(args.out_csv, surf.states[-1])
        rep.artifact(args.out_csv)
    return rep


def _cmd_index(args):
    from . import families
    if args.gram == "cone" and args.m != 3:
        # the checked index 6 is that of the T^2 cone in C^3
        raise ValueError("m must be 3 for the T^2 cone in C^3")
    rep = Report("index", {"gram": args.gram, "m": args.m})
    G = families.l0_link_gram() if args.gram == "cone" else np.eye(2)
    count = families.legendrian_index_flat_torus(G, args.m)
    rep.envelope["index"] = count
    if args.gram == "cone":
        rep.check("l_index", count - 6, 0)
    return rep


def _cmd_moduli_dim(args):
    from . import families
    degrees = [int(d) for d in args.degrees.split(",")]
    if max([args.vars] + degrees) > MODULI_MAX:
        raise ValueError("vars and degrees must be at most %d" % MODULI_MAX)
    rep = Report("moduli-dim", {"vars": args.vars, "degrees": degrees})
    dim = families.ci_moduli_dimension(args.vars, degrees)
    rep.envelope["dimension"] = dim
    return rep


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="slgeo")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock timing for byte-identical reports")
    p.add_argument("--out", default=None, help="write the JSON report here")
    # the shared flags are also accepted after the subcommand name
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-timing", action="store_true",
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="subcommand", required=True)

    v = sub.add_parser("verify", parents=[common])
    v.add_argument("--example", required=True, choices=tuple(EXAMPLES))
    v.add_argument("--samples", type=int, default=10000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-12)
    v.add_argument("--t", type=float, default=1.0)
    v.add_argument("--out-csv", default=None)
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("solve-u1", parents=[common])
    s.add_argument("--a", type=float, default=1.0)
    s.add_argument("--boundary", default="affine", choices=("affine", "x2"))
    s.add_argument("--b", type=float, default=0.0)
    s.add_argument("--c", type=float, default=0.0)
    s.add_argument("--grid-n", type=int, default=65)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--out-grid", default=None)
    s.set_defaults(func=_cmd_solve_u1)

    fb = sub.add_parser("fibration", parents=[common])
    fb.add_argument("--a", type=float, default=0.5)
    fb.add_argument("--b", type=complex, default=0.0)
    fb.add_argument("--scan", action="store_true")
    fb.add_argument("--out-csv", default=None)
    fb.set_defaults(func=_cmd_fibration)

    c = sub.add_parser("solve-calabi", parents=[common])
    c.add_argument("--m", type=int, default=1, choices=(1, 2))
    c.add_argument("--grid", type=int, default=32)
    c.add_argument("--source", default="cos", choices=("zero", "cos"))
    c.add_argument("--t-steps", type=int, default=10)
    c.add_argument("--tol", type=float, default=1e-10)
    c.set_defaults(func=_cmd_solve_calabi)

    e = sub.add_parser("evolve", parents=[common])
    e.add_argument("--surface", default="sphere", choices=("sphere",))
    e.add_argument("--nodes", type=int, default=642,
                   choices=tuple(ICOSPHERE_LEVELS))
    e.add_argument("--dt", type=float, default=0.005)
    e.add_argument("--t-end", type=float, default=0.3)
    e.add_argument("--out-csv", default=None)
    e.set_defaults(func=_cmd_evolve)

    ix = sub.add_parser("index", parents=[common])
    ix.add_argument("--gram", default="cone", choices=("cone", "identity"))
    ix.add_argument("--m", type=int, default=3)
    ix.set_defaults(func=_cmd_index)

    md = sub.add_parser("moduli-dim", parents=[common])
    md.add_argument("--vars", type=int, required=True)
    md.add_argument("--degrees", required=True,
                    help="comma-separated hypersurface degrees")
    md.set_defaults(func=_cmd_moduli_dim)
    return p


def _check_outputs(args):
    """Raise the OSError that opening an output path would raise if it is a
    directory or its directory is missing or unwritable; none is made."""
    for path in filter(None, (args.out, getattr(args, "out_csv", None),
                              getattr(args, "out_grid", None))):
        parent = os.path.dirname(path) or "."
        code = (errno.EISDIR if os.path.isdir(path) else errno.ENOENT
                if not os.path.exists(parent) else errno.ENOTDIR
                if not os.path.isdir(parent) else errno.EACCES
                if not os.access(parent, os.W_OK) else 0)
        if code:
            raise OSError(code, os.strerror(code), path)


def _joined_negative_values(argv):
    """argv with each "--flag -1e12" written "--flag=-1e12": argparse takes
    only -N and -N.N for negative numbers and reads -1e12 as an option."""
    out = []
    for tok in argv:
        if (re.match(r"-\.?\d", tok) and out and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_joined_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        _check_outputs(args)
        report = args.func(args)
        code = report.finish(args.no_timing)
        _emit(report, args)
    except np.linalg.LinAlgError:
        raise  # a numerical failure, though it subclasses ValueError
    except (ValueError, OSError) as exc:
        # library input checks raise ValueError, unwritable outputs OSError
        parser.error("%s: %s" % (args.subcommand, exc))
    return code


if __name__ == "__main__":
    sys.exit(main())
