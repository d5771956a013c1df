## Force on a mirror plate as the cavity warms up. Below the thermal
## wavelength the zero-point integral dominates and temperature barely
## matters; past it the attraction grows linearly with T (classical
## regime). The crossover shows up as the d * T product approaches
## hbar c / k_B ~ 2.3 mm K.
import argparse

import numpy as np

from planarcasimir.constants import Boltzmann as k, c, hbar
from planarcasimir.engine import plate_force
from planarcasimir.layers import CavityConfig, PerfectMirrorPlate, Wall
from planarcasimir.materials import VACUUM


def main():
    ap = argparse.ArgumentParser(description="mirror-cavity force vs T")
    ap.add_argument("--d1", type=float, default=5e-6, help="near gap, m")
    ap.add_argument("--ratio", type=float, default=3.0, help="d3 / d1")
    ap.add_argument("--tmax", type=float, default=1200.0, help="K")
    ap.add_argument("--points", type=int, default=7)
    args = ap.parse_args()

    cavity = CavityConfig(
        left_wall=Wall.perfect_mirror(),
        medium=VACUUM,
        d1=args.d1,
        plate=PerfectMirrorPlate(),
        d3=args.ratio * args.d1,
        right_wall=Wall.perfect_mirror(),
    )
    cold = plate_force(cavity)
    print(f"# d1 = {args.d1:.2e} m, d3 = {args.ratio * args.d1:.2e} m,"
          f" F(0) = {cold.force_per_area:.6e} N/m^2")
    print(f"{'T (K)':>8}  {'F (N/m^2)':>14}  {'F/F(0)':>9}  {'2 pi kT d1/hbar c':>18}")
    for t in np.geomspace(args.tmax / 100.0, args.tmax, args.points):
        hot = plate_force(cavity, temperature=float(t),
                          zero_term_policy="half-weight")
        tau = 2.0 * np.pi * k * t * args.d1 / (hbar * c)
        flag = "" if hot.converged else "  (not converged)"
        print(f"{t:8.1f}  {hot.force_per_area:14.6e}  "
              f"{hot.force_per_area / cold.force_per_area:9.5f}  {tau:18.3f}"
              f"{flag}")


if __name__ == "__main__":
    main()
