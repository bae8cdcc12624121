"""Re-measure the stage baselines of ROADMAP item 1 with the harness spans.

    python3 perfbench/baseline.py

Each stage runs at the configuration its ROADMAP row names (quadratic
data phi = 0.2 x^2 on the unit disc, as in the acceptance suite), inside a
span, REPEATS times.  Prints one line per stage with the median, the
ROADMAP figure and their ratio, and writes perfbench/out/baseline.json.
Recorded results live in perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import OUT, THREAD_VARS  # noqa: E402

REPEATS = 3

# (stage name as in ROADMAP item 1, ROADMAP seconds)
ROADMAP = {
    "U(1) n=129, total solve": 0.54,
    "U(1) n=129, operator assembly": 0.14,
    "U(1) n=129, lift_to_sl3": 6.2,
    "U(1) a=0 continuation, n=129": 4.2,
    "evolve, 642 nodes, t=0.5": 0.10,
}


def main():
    for var in THREAD_VARS:
        os.environ[var] = "1"  # as run.py sets it
    import warnings

    import numpy as np

    from slgeo import evolution, u1
    from spans import Tracer

    tr = Tracer(True)
    phi = u1.BoundaryData(lambda x, y: 0.2 * x * x)
    dom = u1.ConvexDomain("disc", n=129)
    names = list(ROADMAP)
    for rep in range(REPEATS):
        tr.pass_id = rep
        with tr.span(names[0]):
            sol = u1.solve_dirichlet(phi, 1.0, dom, tol=1e-10)
        with tr.span(names[1]):
            u1.p_operator(sol.f, 1.0, dom, phi)
        with tr.span(names[2]):
            u1.lift_to_sl3(sol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", u1.ContinuationStalledWarning)
            with tr.span(names[3]):
                u1.solve_dirichlet(phi, 0.0, dom, tol=1e-10)
        surf = evolution.EvolvingSurface.sphere(
            3, scale=np.exp(1j * np.pi / 6), dt=0.005)
        with tr.span(names[4]):
            evolution.evolve_run(surf, 0.5)
    rows = []
    for name in names:
        median = statistics.median(tr.durations(r)[name]
                                   for r in range(REPEATS))
        rows.append({"stage": name, "seconds": median,
                     "roadmap_seconds": ROADMAP[name],
                     "ratio": median / ROADMAP[name]})
        print("%-32s %8.3f s  roadmap %6.2f s  ratio %.2f"
              % (name, median, ROADMAP[name], median / ROADMAP[name]))
    OUT.mkdir(exist_ok=True)
    with open(OUT / "baseline.json", "w") as fh:
        json.dump({"repeats": REPEATS, "stages": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
