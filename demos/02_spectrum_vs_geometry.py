"""Two independent pair-correlation pipelines agreeing within rigor bounds.

A random grid set's radial spectrum is computed from exact cell Fourier
coefficients; the pair correlation synthesized from it is then compared to
the direct geometric oracle (the exact circle average of the intersection
areas, integrated in closed form).  Also demonstrates the sup-norm
curiosity: checkerboards at even and odd scale have sup-norm-distance-1 pair
density 1/2 and 0 while looking identical in the weak limit.

Run:  python demos/02_spectrum_vs_geometry.py
"""

import numpy as np

from udsets.torus import (
    checkerboard,
    linf_unit_pair_density,
    pair_correlation,
    pair_correlation_direct,
    random_gridset,
    spectrum_auto,
)


def main():
    A = random_gridset(N=8, K=6, p=0.42, seed=7)
    spec = spectrum_auto(A, r_min=0.25, tail_target=1e-4)
    print(f"random set: density {A.density:.6f}, spectrum cutoff m <= {spec.cutoff_m}, "
          f"tail mass {spec.tail_mass:.2e}")
    kappa0 = spec.entries[0]
    print(f"kappa(0) = {kappa0:.9f} vs density^2 = {A.density**2:.9f}")
    total = float(spec.kappas.sum()) + spec.tail_mass + spec.omitted_mass
    print(f"sum kappa + tail + omitted ({spec.omitted_mass:.1e}) = {total:.12f} "
          f"vs density = {A.density:.12f}")

    print("\n   r     spectral f(r)   rigor       direct oracle   |diff|")
    for r in (0.25, 0.5, 1.0, 1.96, 2.0):
        ev = pair_correlation(spec, r)
        direct = pair_correlation_direct(A, r)
        print(f"  {r:4.2f}   {ev.value:12.8f}   {ev.rigor_bound:.1e}   "
              f"{direct:12.8f}   {abs(ev.value - direct):.2e}")

    print("\nsup-norm unit-distance pair density of checkerboards (normalized):")
    for N in (4, 5, 8, 9):
        val = linf_unit_pair_density(checkerboard(N, 4))
        print(f"  scale 1/{N}: {val:.12f}   ({'even' if N % 2 == 0 else 'odd'} N)")
    print("(the weak limit is the same 1/4-density blur either way: the "
          "distance-1 pair functional is not weakly continuous in sup-norm)")


if __name__ == "__main__":
    main()
