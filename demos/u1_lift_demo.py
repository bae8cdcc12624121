"""Solve the U(1)-invariant potential equation on a disc and lift the
solution to a special Lagrangian 3-fold of C^3.

The moment-map level of the lifted cloud equals 2a exactly, and the SL
defect of the finite-difference tangent planes shrinks at second order.
"""

import numpy as np

from slgeo import u1


def main():
    phi = u1.BoundaryData(lambda x, y: 0.2 * np.asarray(x) ** 2)
    for n in (33, 65):
        dom = u1.ConvexDomain("disc", n=n)
        sol = u1.solve_dirichlet(phi, 1.0, dom, tol=1e-10)
        cloud = u1.lift_to_sl3(sol)
        print("grid %3d^2: |P(f)| = %.2e, CR residual = %.2e"
              % (n, sol.residual_P, u1.cr_residual(sol)))
        print("           lifted %5d points, SL defect %.2e, "
              "moment error %.1e"
              % (len(cloud.points), np.nanmax(cloud.sl_defects),
                 np.max(np.abs(cloud.moment_values - 2.0))))


if __name__ == "__main__":
    main()
