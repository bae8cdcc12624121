"""The four seeded workloads: input generation, one pass each, and checks.

Each workload has
  setup(seed, tracer, workdir) -> inputs   builds everything a pass reads;
  run(inputs, tracer) -> (Checks, values)  one pass: library calls wrapped
                                           in spans, then the checks;
  cli(workdir) -> [argv, ...]              the slgeo.cli subcommands that
                                           make one end-to-end CLI round.
The seed only generates inputs; the library receives those inputs.
Tolerances are those of tests/test_acceptance.py and the module tests.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from slgeo import calabi, core, evolution, families, fibrations, gridio, u1

U1_N = 129
U1_TOL = 1e-10
# The ranges of b and c in the data.  How an a = 0 solve goes depends on
# |b| (the sign does not matter: x -> -x maps b to -b on the disc).  At
# n = 129 the continuation stalls near a = 1e-3 for |b| <= 0.06 and runs on
# to a ~ 1e-6 for |b| >= 0.07, whatever c is (measured at c = -0.2, 0,
# 0.2).  u1-degenerate draws its data well inside the stalling range, so
# the stall shows on every seed.  The work of a stalled solve is chaotic in
# the data: the sparse solves it makes vary by about 14% (quartile distance
# over median) from seed to seed even for (b, c) within 0.01 of zero; a
# wider range of b and c varies more.
U1_LIFT_BC = ((-0.2, 0.2), (-0.2, 0.2))
U1_DEGENERATE_BC = ((-0.02, 0.02), (-0.02, 0.02))

CALABI_N = 32
CALABI_TOL = 1e-10
CALABI_T_STEPS = 3
CALABI_MODES = 4
CALABI_AMPLITUDE = 0.05

SWEEP_SAMPLES = 5000
PLANES = 2000
EVOLVE_SUBDIVISIONS = 4      # 2,562 nodes
EVOLVE_DT = 0.005
EVOLVE_T_END = 0.5


class Checks:
    """Named correctness checks of one pass: (name, value, limit, ok)."""

    def __init__(self):
        self.items: list[tuple[str, float, float, bool]] = []

    def add(self, name, value, limit, ok=None, strict=False):
        value = float(value)
        if ok is None:
            ok = value < limit if strict else value <= limit
        self.items.append((name, value, float(limit), bool(ok)))

    def failures(self):
        return [c for c in self.items if not c[3]]


# ---------------------------------------------------------------------------
# checks shared with the self-test


def check_lift(ck: Checks, cloud, a: float) -> None:
    """Criterion 4: moment map level 2a and a small finite SL defect."""
    finite = cloud.sl_defects[np.isfinite(cloud.sl_defects)]
    ck.add("lift_points", len(cloud.points), 10 ** 4,
           ok=len(cloud.points) >= 10 ** 4)
    ck.add("lift_moment_error",
           np.max(np.abs(cloud.moment_values - 2.0 * a)), 1e-12, strict=True)
    ck.add("lift_defect_max", np.max(finite) if finite.size else np.nan,
           1e-5, strict=True)


def check_grid_round_trip(ck: Checks, written, read) -> None:
    """Bitwise equality of values, mask and grid geometry."""
    same = (written.values.shape == read.values.shape
            and written.values.tobytes() == read.values.tobytes()
            and (written.x0, written.y0, written.hx, written.hy)
            == (read.x0, read.y0, read.hx, read.hy)
            and np.array_equal(written.mask, read.mask))
    ck.add("grid_round_trip_bitwise", 0.0 if same else 1.0, 0.0, ok=same)


# ---------------------------------------------------------------------------
# U(1): u1-lift and u1-degenerate


@dataclass
class U1Inputs:
    domain: u1.ConvexDomain
    a: float
    phi: u1.BoundaryData
    grid_path: str = ""


def u1_data(seed: int, bc_ranges) -> u1.BoundaryData:
    """phi = 0.2 x^2 + b x + c y, with b and c uniform in their ranges."""
    rng = np.random.default_rng(seed)
    b, c = (float(rng.uniform(lo, hi)) for lo, hi in bc_ranges)
    return u1.BoundaryData(lambda x, y: 0.2 * x * x + b * x + c * y)


def _setup_u1(seed, tracer, workdir, a, bc_ranges):
    with tracer.span("u1.domain"):
        dom = u1.ConvexDomain("disc", n=U1_N)
    return U1Inputs(dom, a, u1_data(seed, bc_ranges),
                    os.path.join(workdir, "grid-%d.csv" % os.getpid()))


def setup_u1_lift(seed, tracer, workdir):
    return _setup_u1(seed, tracer, workdir, 1.0, U1_LIFT_BC)


def setup_u1_degenerate(seed, tracer, workdir):
    return _setup_u1(seed, tracer, workdir, 0.0, U1_DEGENERATE_BC)


def _solve_checked(ck, inp, tracer):
    """Solve, then check residual_P and its reassembled value.  Returns the
    solution and whether the a = 0 continuation stalled."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", u1.ContinuationStalledWarning)
        with tracer.span("u1.solve"):
            sol = u1.solve_dirichlet(inp.phi, inp.a, inp.domain, tol=U1_TOL)
    stalled = any(issubclass(w.category, u1.ContinuationStalledWarning)
                  for w in caught)
    level = sol.continuation_a if inp.a == 0.0 else inp.a
    ck.add("residual_P", sol.residual_P, 10 * U1_TOL)
    with tracer.span("u1.assembly"):
        P = u1.p_operator(sol.f, level, inp.domain, inp.phi)
    ck.add("p_operator_residual", np.nanmax(np.abs(P.values)), 10 * U1_TOL)
    with tracer.span("u1.cr"):
        cr = u1.cr_residual(sol)
    ck.add("residual_CR_finite", cr, np.inf, ok=np.isfinite(cr))
    return sol, level, stalled


def run_u1_lift(inp: U1Inputs, tracer):
    ck = Checks()
    sol, level, stalled = _solve_checked(ck, inp, tracer)
    with tracer.span("u1.singular"):
        sing = u1.singular_points(sol)
    ck.add("singular_points_at_a_nonzero", len(sing), 0)
    with tracer.span("u1.lift"):
        cloud = u1.lift_to_sl3(sol, samples_per_node=4)
    check_lift(ck, cloud, inp.a)
    with tracer.span("gridio.write"):
        gridio.write_grid(inp.grid_path, sol.f)
    with tracer.span("gridio.read"):
        back = gridio.read_grid(inp.grid_path)
    check_grid_round_trip(ck, sol.f, back)
    finite = cloud.sl_defects[np.isfinite(cloud.sl_defects)]
    values = {"u1.newton_iters": sol.newton_iters,
              "u1.continuation_a": level, "u1.stalled": int(stalled),
              "u1.residual_P": sol.residual_P,
              "u1.lift_points": len(cloud.points),
              "u1.lift_defect_max": float(np.max(finite)),
              "gridio.bytes": os.path.getsize(inp.grid_path)}
    return ck, values


def run_u1_degenerate(inp: U1Inputs, tracer):
    ck = Checks()
    sol, level, stalled = _solve_checked(ck, inp, tracer)
    with tracer.span("u1.singular"):
        u1.singular_points(sol)
    values = {"u1.newton_iters": sol.newton_iters,
              "u1.continuation_a": level, "u1.stalled": int(stalled),
              "u1.residual_P": sol.residual_P}
    return ck, values


# ---------------------------------------------------------------------------
# Calabi: calabi-m2


def calabi_source(seed: int) -> calabi.TorusField:
    """Normalised sum of CALABI_MODES seeded plane waves on T^4 with
    wavevectors in {-1, 0, 1}^4, scaled to max |f| = CALABI_AMPLITUDE."""
    rng = np.random.default_rng(seed)
    modes = []
    while len(modes) < CALABI_MODES:
        k = rng.integers(-1, 2, 4)
        if k.any():
            modes.append((k, rng.standard_normal(), rng.uniform(0, 2 * np.pi)))

    def waves(*xs):
        out = sum(w * np.cos(sum(ki * x for ki, x in zip(k, xs)) + ph)
                  for k, w, ph in modes)
        return CALABI_AMPLITUDE / np.max(np.abs(out)) * out

    return calabi.normalize_source(
        calabi.TorusField.from_function(2, CALABI_N, waves))


def setup_calabi(seed, tracer, workdir):
    return calabi_source(seed)


def run_calabi(f, tracer):
    ck = Checks()
    with tracer.span("calabi.solve"):
        path = calabi.solve_calabi(f, tol=CALABI_TOL, t_steps=CALABI_T_STEPS)
    ck.add("ma_residual", path.residual, 10 * CALABI_TOL)
    ck.add("phi_mean", abs(path.phi.mean()), 1e-12)
    with tracer.span("calabi.ma_op"):
        ratio = calabi.ma_operator(path.phi)
    ck.add("ma_positive", np.min(ratio.values), 0.0,
           ok=np.min(ratio.values) > 0.0)
    with tracer.span("calabi.ricci"):
        rho, _ = calabi.ricci_form(ratio)
    ck.add("ricci_finite", 0.0, 0.0, ok=bool(np.all(np.isfinite(rho))))
    values = {"calabi.newton_iters": sum(path.newton_iters),
              "calabi.t_steps_taken": len(path.steps),
              "calabi.residual": path.residual}
    return ck, values


# ---------------------------------------------------------------------------
# closed-form: families, fibrations, core and evolution


@dataclass
class ClosedFormInputs:
    families: list                # [(ModelFamily, sweep seed)]
    explicit: list                # [(a, b)] for explicit_F_fiber
    hl: list                      # [(a, b, c)] for classify_fiber_hl
    planes: list                  # random TangentPlanes
    pkg: core.CYPackage
    surface: evolution.EvolvingSurface


def setup_closed_form(seed, tracer, workdir):
    rng = np.random.default_rng(seed)
    a1, a2 = ((1, 2), (1, 3), (2, 3))[rng.integers(3)]
    fams = [families.ModelFamily("hl_cone_L0"),
            families.ModelFamily("hl_Lt", {"t": rng.uniform(0.5, 2.0)}),
            families.ModelFamily("so3_Lt", {"t": rng.uniform(0.5, 2.0)}),
            families.ModelFamily("quadric_L", {"a1": a1, "a2": a2,
                                               "c": rng.uniform(0.5, 2.0)})]
    seeds = [int(s) for s in rng.integers(0, 2 ** 31, len(fams))]
    bs = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
    explicit = [(float(a), complex(b))
                for a in (-rng.uniform(0.1, 0.6), 0.0, rng.uniform(0.1, 0.6))
                for b in bs]
    # a, b > 0: at a level where -a or -b is the largest, classify_fiber_hl
    # takes the square root of a radius that rounds below zero and fails
    hl = [(float(a), float(b), float(rng.uniform(-0.1, 0.1)))
          for a in rng.uniform(0.1, 0.6, 2) for b in rng.uniform(0.1, 0.6, 2)]
    planes = [core.random_plane(3, rng) for _ in range(PLANES)]
    theta = rng.uniform(np.pi / 8, np.pi / 5)
    with tracer.span("evolution.surface"):
        surf = evolution.EvolvingSurface.sphere(
            EVOLVE_SUBDIVISIONS, scale=np.exp(1j * theta), dt=EVOLVE_DT)
    return ClosedFormInputs(list(zip(fams, seeds)), explicit, hl, planes,
                            core.standard_cy_package(3), surf)


def run_closed_form(inp: ClosedFormInputs, tracer):
    ck = Checks()
    with tracer.span("families.sweep"):
        worst = [families.sl_residual_sweep(fam, SWEEP_SAMPLES, s)
                 for fam, s in inp.families]
    for (fam, _), w in zip(inp.families, worst):
        ck.add("sweep_defect[%s]" % fam.name, w, 1e-12, strict=True)

    with tracer.span("fibrations.explicit_fiber"):
        recs = [fibrations.explicit_F_fiber(a, b) for a, b in inp.explicit]
    roundtrip, defect = 0.0, 0.0
    for (a, b), rec in zip(inp.explicit, recs):
        for p in rec.points:
            fa, fb = fibrations.explicit_F(p)
            roundtrip = max(roundtrip, abs(fa - a), abs(fb - b))
        defect = max(defect, rec.sl_residual_max)
    with tracer.span("fibrations.hl_fiber"):
        hls = [fibrations.classify_fiber_hl(a, b, c) for a, b, c in inp.hl]
    for level, rec in zip(inp.hl, hls):
        for p in rec.points:
            roundtrip = max(roundtrip, float(np.max(np.abs(
                np.subtract(fibrations.harvey_lawson_F(p), level)))))
        defect = max(defect, rec.sl_residual_max)
    ck.add("fiber_round_trip", roundtrip, 1e-10, strict=True)
    ck.add("fiber_defect", defect, 1e-10, strict=True)

    with tracer.span("core.sl_defect"):
        sl = [core.sl_defect(p, inp.pkg) for p in inp.planes]
    with tracer.span("core.calibration_defect"):
        slack = [core.calibration_defect(p, inp.pkg) for p in inp.planes]
    ck.add("calibration_slack_min", -min(slack), 1e-12, strict=True)
    ck.add("sl_defect_finite", 0.0, 0.0,
           ok=bool(np.all(np.isfinite(sl)) and min(sl) >= 0.0))

    base = inp.surface
    surf = evolution.EvolvingSurface(base.verts, base.faces, base.D1, base.D2,
                                     states=[base.states[0]], times=[0.0],
                                     dt=EVOLVE_DT)
    with tracer.span("evolution.run"):
        evolution.evolve_run(surf, EVOLVE_T_END)
    with tracer.span("evolution.drift"):
        drift = evolution.symplectic_drift(surf)
    with tracer.span("evolution.so3"):
        dev = evolution.compare_so3(surf)
    with tracer.span("evolution.swept"):
        swept = evolution.swept_sl_defect(surf)
    ck.add("symplectic_drift", drift, 1e-6, strict=True)
    ck.add("so3_family_deviation", dev, 1e-3, strict=True)
    ck.add("swept_sl_defect", swept, 1e-10, strict=True)
    values = {"evolution.steps": len(surf.states) - 1,
              "families.planes": SWEEP_SAMPLES * len(inp.families),
              "core.planes": len(inp.planes)}
    return ck, values


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    cli: Callable


def _solve_u1_cli(a):
    return ["solve-u1", "--a", a, "--boundary", "x2", "--grid-n", str(U1_N)]


def _cli_u1_lift(workdir):
    grid = os.path.join(workdir, "cli-grid-%d.csv" % os.getpid())
    return [_solve_u1_cli("1") + ["--out-grid", grid]]


def _cli_calabi(workdir):
    return [["solve-calabi", "--m", "2", "--grid", str(CALABI_N),
             "--source", "cos", "--t-steps", str(CALABI_T_STEPS)]]


def _cli_closed_form(workdir):
    return [["verify", "--example", "hl-lt", "--samples", "10000"],
            ["evolve", "--nodes", "2562", "--dt", str(EVOLVE_DT),
             "--t-end", str(EVOLVE_T_END)]]


WORKLOADS = {
    "u1-lift": Workload(setup_u1_lift, run_u1_lift, _cli_u1_lift),
    "u1-degenerate": Workload(setup_u1_degenerate, run_u1_degenerate,
                              lambda workdir: [_solve_u1_cli("0")]),
    "calabi-m2": Workload(setup_calabi, run_calabi, _cli_calabi),
    "closed-form": Workload(setup_closed_form, run_closed_form,
                            _cli_closed_form),
}
