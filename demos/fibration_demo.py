"""The explicit piecewise-smooth SL fibration of C^3.

Generates fibers on both sides of the discriminant, round-trips them
through the fibration map, and scans for singular fibers (exactly the
a = 0 slice).
"""

import numpy as np

from slgeo import fibrations


def main():
    for a in (-0.5, 0.0, 0.5):
        rec = fibrations.explicit_F_fiber(a, 0.3)
        worst = max(abs(fa - a) + abs(fb - 0.3)
                    for fa, fb in map(fibrations.explicit_F, rec.points))
        print("a = %+.1f: topology %-8s round-trip %.1e, SL residual %.1e"
              % (a, rec.topology, worst, rec.sl_residual_max))
    sing = fibrations.discriminant_scan(np.linspace(-1.0, 1.0, 21))
    print("discriminant over [-1, 1]:", sing)
    jump = fibrations.explicit_F_smoothness_jump(0.0, 0.3)
    print("one-sided derivative jump across |z1| = |z2|: %.3f" % jump)


if __name__ == "__main__":
    main()
