"""Calibration inequality and SL planes in C^m.

Samples random oriented m-planes, reports the worst calibration slack
vol_V - Re Omega|_V (always nonnegative), and checks that SU(m) orbits
of the real plane R^m are special Lagrangian.
"""

import numpy as np

from slgeo import core


def main():
    rng = np.random.default_rng(0)
    for m in (2, 3, 4):
        pkg = core.standard_cy_package(m)
        # 2000 Gaussian bases in one stack: the draws of 2000 random_plane calls
        slack = core.plane_defects(rng.standard_normal((2000, m, 2 * m)))[1].min()
        gamma = core.random_su_matrix(m, rng)
        plane = core.su_rotated_real_plane(m, gamma)
        print("m = %d: min calibration slack %.3e, SU(m)-orbit plane SL: %s"
              % (m, slack, core.is_sl_plane(plane, pkg)))
        print("        normalization residual %.2e"
              % core.normalization_residual(pkg))


if __name__ == "__main__":
    main()
