#!/usr/bin/env python
"""Strong vs weak scaling: how petaflops machines actually get used.

Amdahl's law says a fixed problem stops speeding up; Gustafson's answer —
scale the problem with the machine — is how trans-petaflops systems earn
their keep.  This example *measures* both regimes on the simulated
cluster (2D stencil over InfiniBand), fits the serial fraction, and shows
the isoefficiency prescription for how fast the problem must grow.

Usage: ``python examples/scaled_speedup_study.py``
"""

import numpy as np

from repro.analysis import Table
from repro.analysis.scaling import (
    fit_serial_fraction,
    gustafson_speedup,
    isoefficiency_problem_size,
    karp_flatt,
)
from repro.apps import ComputeCharge, run_stencil

RANKS = [1, 2, 4, 8, 16, 32]
BASE_N = 1024
ITERATIONS = 3


def charge():
    return ComputeCharge(effective_flops=3e9)


def strong_scaling():
    print(f"== strong scaling: fixed {BASE_N}x{BASE_N} grid ==")
    times = {p: run_stencil(p, n=BASE_N, iterations=ITERATIONS,
                            charge=charge(),
                            technology="infiniband_4x").elapsed
             for p in RANKS}
    speedups = [times[1] / times[p] for p in RANKS]
    fraction, rms = fit_serial_fraction(RANKS, speedups)
    table = Table(["ranks", "time (ms)", "speedup", "efficiency",
                   "Karp-Flatt f"],
                  formats={"time (ms)": "{:.2f}", "speedup": "{:.1f}",
                           "efficiency": "{:.2f}",
                           "Karp-Flatt f": lambda v: ("-" if v is None
                                                      else f"{v:.4f}")})
    for p, s in zip(RANKS, speedups):
        table.add_row([p, times[p] * 1e3, s, s / p,
                       None if p == 1 else karp_flatt(s, p)])
    print(table.render())
    print(f"\nAmdahl fit: serial fraction f = {fraction:.4f} "
          f"(rms {rms:.2f}); the rising Karp-Flatt column shows the "
          "'serial fraction' is really growing communication overhead.\n")
    return fraction


def weak_scaling():
    print("== weak scaling: grid grows with the machine "
          f"(~{BASE_N}x{BASE_N} per 4 ranks) ==")
    table = Table(["ranks", "grid", "time (ms)", "scaled speedup",
                   "Gustafson ideal"],
                  formats={"time (ms)": "{:.2f}",
                           "scaled speedup": "{:.1f}",
                           "Gustafson ideal": "{:.1f}"})
    base_time = None
    for p in RANKS:
        # 2D problem, 1D decomposition: rows scale with p so per-rank
        # work is constant.
        n = int(BASE_N * np.sqrt(p) / np.sqrt(RANKS[0]) / 2) * 2
        result = run_stencil(p, n=n, iterations=ITERATIONS,
                             charge=charge(), technology="infiniband_4x")
        if base_time is None:
            base_time = result.elapsed
        # Scaled speedup: work grew ~p while time should stay ~flat.
        work_ratio = (n * n) / (BASE_N * BASE_N)
        scaled = work_ratio * base_time / result.elapsed
        table.add_row([p, f"{n}x{n}", result.elapsed * 1e3, scaled,
                       gustafson_speedup(0.02, p)])
    print(table.render())
    print("\nScaled speedup tracks Gustafson's near-linear ideal: the "
          "machine is used by growing the science, not by shrinking the "
          "wall clock of a fixed problem.\n")


def isoefficiency(fraction):
    print("== isoefficiency: how fast must the problem grow? ==")
    table = Table(["ranks", "required work (x base)"],
                  formats={"required work (x base)": "{:.0f}"})
    for p in (32, 256, 2048, 16384):
        grown = isoefficiency_problem_size(1.0, 32, p,
                                           overhead_exponent=1.5)
        table.add_row([p, grown])
    print(table.render())
    print("\n(1D-decomposed 2D stencil: overhead exponent ~1.5 — work "
          "must grow as p^1.5 to hold efficiency, i.e. the grid side "
          "grows as p^0.75. Memory per node stays bounded, which is why "
          "weak scaling was always the petaflops plan.)")


def main():
    fraction = strong_scaling()
    weak_scaling()
    isoefficiency(fraction)


if __name__ == "__main__":
    main()
