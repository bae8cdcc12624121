"""Command-line interface emitting machine-readable JSON reports.

Every subcommand runs one library operation, evaluates named checks with
explicit tolerances, and writes a report envelope to stdout (or --out).
Exit status is 0 when all checks pass, 1 when any fails, 2 on usage
errors.  With --no-timing the report is byte-identical across runs with
the same configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

VERSION = "0.1.0"

# verify --example name -> closed-form family name
EXAMPLES = {"hl-cone": "hl_cone_L0", "hl-lt": "hl_Lt", "so3": "so3_Lt",
            "quadric": "quadric_L", "branched": "branched_leading"}
# evolve --nodes -> icosphere subdivision level
ICOSPHERE_LEVELS = {162: 2, 642: 3, 2562: 4}


class Report:
    def __init__(self, subcommand, config):
        self.envelope = {
            "tool": "slgeo",
            "version": VERSION,
            "subcommand": subcommand,
            "config": config,
            "checks": [],
            "artifacts": [],
        }
        self._t0 = time.time()

    def check(self, name, value, tolerance, passed=None):
        if passed is None:
            passed = bool(abs(value) <= tolerance)
        self.envelope["checks"].append({
            "name": name,
            "value": float(value) if np.isfinite(value) else None,
            "tolerance": tolerance,
            "pass": bool(passed),
        })

    def artifact(self, path):
        self.envelope["artifacts"].append(str(path))

    def finish(self, no_timing):
        if not no_timing:
            self.envelope["timing"] = {"seconds": round(time.time() - self._t0, 3)}
        ok = all(c["pass"] for c in self.envelope["checks"])
        self.envelope["status"] = "pass" if ok else "fail"
        if not ok:
            self.envelope["failing"] = [c["name"] for c in
                                        self.envelope["checks"] if not c["pass"]]
        return 0 if ok else 1


def _emit(report, args):
    text = json.dumps(report.envelope, sort_keys=True, indent=2)
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


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_verify(args):
    from . import families
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
    if name == "zero":
        return BoundaryData(lambda x, y: np.zeros_like(np.asarray(x)))
    if name == "affine":
        return BoundaryData(lambda x, y: b * np.asarray(x) + c * np.asarray(y))
    return BoundaryData(lambda x, y: np.asarray(x) ** 2
                        + b * np.asarray(x) + c * np.asarray(y))


def _cmd_solve_u1(args):
    from . import gridio, u1
    if args.out_grid and not args.out_grid.endswith(".csv"):
        raise ValueError(f"--out-grid must name a .csv file: {args.out_grid}")
    dom = u1.ConvexDomain("disc", rx=1.0, n=args.grid_n)
    phi = _boundary_from_name(args.boundary, args.b, args.c)
    rep = Report("solve-u1", {"a": args.a, "boundary": args.boundary,
                              "b": args.b, "c": args.c, "grid_n": dom.n,
                              "tol": args.tol})
    sol = u1.solve_dirichlet(phi, args.a, dom, tol=args.tol)
    rep.check("residual_P", sol.residual_P, 10.0 * args.tol)
    rep.check("residual_CR", sol.residual_CR, max(1.0, sol.residual_CR),
              passed=np.isfinite(sol.residual_CR))
    rep.envelope["newton_iters"] = sol.newton_iters
    rep.envelope["factorizations"] = sol.factorizations
    rep.envelope["levels"] = [rec.level for rec in sol.trace]  # a per solve
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
        ok = all(abs(a) < 1e-12 for a in sing) and any(a == 0.0 for a in avals)
        rep.check("discriminant_is_a_eq_0", 0.0 if ok else 1.0, 0.5)
        return rep
    rec = fibrations.explicit_F_fiber(args.a, args.b)
    worst = 0.0
    for p in rec.points:
        fa, fb = fibrations.explicit_F(p)
        worst = max(worst, abs(fa - args.a), abs(fb - complex(args.b)))
    rep.check("roundtrip_max_error", worst, 1e-10)
    rep.check("sl_residual_max", rec.sl_residual_max, 1e-10)
    rep.envelope["topology"] = rec.topology
    if args.out_csv:
        _write_cloud_csv(args.out_csv, rec.points)
        rep.artifact(args.out_csv)
    return rep


def _cmd_solve_calabi(args):
    from . import calabi
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
    path = calabi.solve_calabi(f, tol=args.tol, t_steps=args.t_steps)
    rep.check("ma_residual", path.residual, 10.0 * args.tol)
    rep.check("phi_mean", path.phi.mean(), 1e-12)
    rep.envelope["t_steps_taken"] = len(path.steps)
    rep.envelope["newton_iters"] = path.newton_iters
    rep.envelope["halvings"] = path.halvings   # [t, dt, reason] per halving
    return rep


def _cmd_evolve(args):
    from . import evolution
    rep = Report("evolve", {"surface": args.surface, "nodes": args.nodes,
                            "dt": args.dt, "t_end": args.t_end})
    surf = evolution.EvolvingSurface.sphere(
        ICOSPHERE_LEVELS[args.nodes], scale=np.exp(1j * np.pi / 6), dt=args.dt)
    evolution.evolve_run(surf, args.t_end)
    drift = evolution.symplectic_drift(surf)
    rep.check("symplectic_drift", drift, 1e-6)
    dev = evolution.compare_so3(surf)
    rep.check("so3_family_deviation", dev, 1e-3)
    rep.envelope["steps"] = len(surf.states) - 1
    rep.envelope["final_dt"] = surf.dt
    rep.envelope["halvings"] = surf.halvings   # [t, dt, drift] per halving
    if args.out_csv:
        _write_cloud_csv(args.out_csv, surf.states[-1])
        rep.artifact(args.out_csv)
    return rep


def _cmd_index(args):
    from . import families
    rep = Report("index", {"gram": args.gram, "m": args.m,
                           "cutoff": args.cutoff})
    if args.gram == "l0":
        G = families.l0_link_gram()
        expected = 6
    else:
        G = np.eye(2)
        expected = None
    count = families.legendrian_index_flat_torus(G, args.m, args.cutoff)
    rep.envelope["index"] = count
    if expected is not None:
        rep.check("l_index", count - expected, 0.0,
                  passed=(count == expected))
    else:
        rep.check("l_index_nonnegative", 0.0, 1.0, passed=(count >= 0))
    return rep


def _cmd_moduli_dim(args):
    from . import families
    degrees = [int(d) for d in args.degrees.split(",")]
    rep = Report("moduli-dim", {"vars": args.vars, "degrees": degrees})
    dim = families.ci_moduli_dimension(args.vars, degrees)
    rep.envelope["dimension"] = dim
    rep.check("dimension_nonnegative", 0.0, 1.0, passed=(dim >= 0))
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
    s.add_argument("--boundary", default="zero",
                   choices=("zero", "affine", "x2"))
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
    ix.add_argument("--gram", default="l0", choices=("l0", "identity"))
    ix.add_argument("--m", type=int, default=3)
    ix.add_argument("--cutoff", type=int, default=20)
    ix.set_defaults(func=_cmd_index)

    md = sub.add_parser("moduli-dim", parents=[common])
    md.add_argument("--vars", type=int, required=True)
    md.add_argument("--degrees", required=True,
                    help="comma-separated hypersurface degrees")
    md.set_defaults(func=_cmd_moduli_dim)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except np.linalg.LinAlgError:
        raise  # a numerical failure, though it subclasses ValueError
    except ValueError as exc:
        # every library input check raises a ValueError subclass
        parser.error("%s: %s" % (args.subcommand, exc))
    code = report.finish(args.no_timing)
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
