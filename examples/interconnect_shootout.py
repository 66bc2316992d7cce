#!/usr/bin/env python
"""Interconnect shootout: pick the right 2005 fabric for your workload.

A 32-node cluster buyer in 2005 could pick Gigabit Ethernet ($150/port),
Myrinet ($1200/port), or InfiniBand 4x ($1000/port).  The right answer
depends entirely on the workload — so we run the workloads.  Each fabric
carries the three kernels whose communication patterns span the space
(nearest-neighbour stencil, allreduce-bound CG, alltoall-bound FFT) and
the example reports time-to-solution per dollar.

Usage: ``python examples/interconnect_shootout.py``
"""

from repro import get_interconnect
from repro.analysis import Table
from repro.apps import ComputeCharge, run_cg, run_fft2d, run_stencil

RANKS = 32
FABRICS = ["gigabit_ethernet", "myrinet_2000", "infiniband_4x"]
#: 2005 dual-socket node street price, for the $/port context.
NODE_COST = 3000.0


def measure(technology):
    charge = ComputeCharge(effective_flops=3e9)
    stencil = run_stencil(RANKS, n=2048, iterations=5, charge=charge,
                          technology=technology).elapsed
    cg = run_cg(RANKS, n=262144, max_iterations=50, tolerance=0.0,
                charge=charge, technology=technology).elapsed
    fft = run_fft2d(RANKS, n=1024, charge=charge,
                    technology=technology).elapsed
    return {"stencil": stencil, "cg": cg, "fft": fft}


def main():
    results = {fabric: measure(fabric) for fabric in FABRICS}

    table = Table(["fabric", "$/port", "stencil ms", "cg ms", "fft ms",
                   "cluster $ premium"],
                  formats={"stencil ms": "{:.2f}", "cg ms": "{:.2f}",
                           "fft ms": "{:.2f}",
                           "cluster $ premium": "{:+.1%}"})
    base_cost = RANKS * (NODE_COST
                         + get_interconnect(FABRICS[0]).cost_per_port)
    for fabric in FABRICS:
        port = get_interconnect(fabric).cost_per_port
        cluster_cost = RANKS * (NODE_COST + port)
        times = results[fabric]
        table.add_row([fabric, f"${port:.0f}",
                       times["stencil"] * 1e3, times["cg"] * 1e3,
                       times["fft"] * 1e3,
                       cluster_cost / base_cost - 1.0])
    print(f"{RANKS}-node cluster, 2005 parts, virtual time to solution:\n")
    print(table.render())

    print("\nReading the table:")
    gige, ib = results["gigabit_ethernet"], results["infiniband_4x"]
    for kernel, blurb in [
        ("stencil", "nearest-neighbour halo: cheap networks suffice"),
        ("cg", "latency-bound dot products: fast fabrics pay off"),
        ("fft", "alltoall transposes: bandwidth is everything"),
    ]:
        gain = gige[kernel] / ib[kernel]
        print(f"  {kernel:8s} IB is {gain:4.1f}x faster than GigE  ({blurb})")
    premium = (RANKS * (NODE_COST + 1000.0)) / base_cost - 1.0
    print(f"\nIB adds {premium:.0%} to the cluster price; if your codes "
          "look like FFT or CG it repays itself, if they look like the "
          "stencil (or a parameter sweep) keep the ethernet and buy more "
          "nodes — the 2005 conventional wisdom, reproduced.")


if __name__ == "__main__":
    main()
