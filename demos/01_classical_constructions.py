"""The two classical distance-1-avoiding block constructions.

Builds the hexagonal disk packing and the disk-cap-hexagon ("tortoise")
pattern, optimizes the tortoise height, embeds both on a torus with a
certified 1-avoidance margin, and measures how much density survives
rasterization.  Ends by writing a pair-correlation CSV for the disk raster.

Run:  python demos/01_classical_constructions.py
"""

import math
from pathlib import Path

from udsets.constructions import (
    croft_tortoise,
    hex_disk_packing,
    optimize_croft,
    rasterize_report,
)
from udsets.gridio import write_paircorr_csv
from udsets.torus import pair_correlation, spectrum

OUT = Path(__file__).resolve().parent / (Path(__file__).stem + "_out")


def main():
    disk = hex_disk_packing()
    print(f"hexagonal disk packing: density = {disk.density:.9f} "
          f"(= pi/(8 sqrt 3) = {math.pi / (8 * math.sqrt(3)):.9f})")
    print(f"nearest boundary gap between blocks: {disk.boundary_gap}")

    x_star, best = optimize_croft()
    print(f"\ntortoise height optimization: x* = {x_star:.6f}, density = {best:.6f}")
    print(f"(improves on the disk packing by {best - disk.density:.6f})")

    croft = croft_tortoise(x_star)
    for name, pattern in (("disk", disk), ("tortoise", croft)):
        rep = rasterize_report(pattern, N=128, K=8, beta=0.01)
        e = rep.embedding
        print(f"\n{name} on the 8-torus: {e.n_centers} blocks "
              f"({e.cols} cols x {e.rows} rows, staggered={e.staggered}), "
              f"certified min gap {e.min_gap:.4f}")
        print(f"  ideal density    {rep.ideal_density:.6f}")
        print(f"  embedded density {rep.embedded_density:.6f} "
              f"(torus perturbation {rep.embedded_density - rep.ideal_density:+.6f})")
        print(f"  raster density   {rep.raster_density:.6f} at N = 128, beta = 0.01")

    # a faithful embedding needs a torus the hexagonal rows nearly divide:
    rep = rasterize_report(disk, N=128, K=38, beta=0.006)
    print(f"\ndisk on the 38-torus: {rep.embedding.n_centers} blocks, "
          f"embedded density {rep.embedded_density:.6f} (near-ideal)")
    spec = spectrum(rep.grid, 60_000)
    rows = []
    for i in range(0, 401):
        ev = pair_correlation(spec, i * 0.01)
        rows.append((ev.r, ev.value, ev.rigor_bound))
    out = Path(OUT)
    out.mkdir(exist_ok=True)
    csv = out / "disk_paircorr.csv"
    write_paircorr_csv(csv, rows, spec.density)
    f1 = pair_correlation(spec, 1.0)
    f2 = pair_correlation(spec, 2.0)
    print(f"pair correlation: f(1) = {f1.value:.2e} (rigor {f1.rigor_bound:.1e}), "
          f"f(2) = {f2.value:.4f}, s(2) = {f2.value / spec.density**2:.3f}")
    print(f"wrote {csv}")


if __name__ == "__main__":
    main()
