"""Application kernels: the workloads that exercise everything below.

Each kernel is an SPMD generator program over the simulated messaging
layer.  *Communication* costs come from the fabric (LogGP + topology +
contention); *computation* is performed for real with numpy — so results
are verifiable against serial references — while its *cost in virtual
time* is charged from a node's roofline model.  This split is what lets a
Python reproduction make credible statements about petaflops machines: the
numerics are exact and the time accounting is the model's, not CPython's.

Kernels
-------
:func:`repro.apps.stencil.run_stencil` — 2D Jacobi with halo exchange
    (nearest-neighbour bound).
:func:`repro.apps.stencil2d.run_stencil2d` — the same Jacobi on a 2D
    block decomposition (surface-to-volume).
:func:`repro.apps.cg.run_cg` — conjugate gradient on a 1D Laplacian
    (allreduce/latency bound).
:func:`repro.apps.fft.run_fft2d` — row-decomposed 2D FFT
    (alltoall/bisection bound).
:func:`repro.apps.summa.run_summa` — SUMMA matrix multiply
    (row/column broadcast bound).
:mod:`repro.apps.hpl` — HPL/LINPACK analytic performance model for
    Top500-style projections.
"""

from repro.apps.campaigns import stencil2d_kernel, summa_kernel
from repro.apps.compute import ComputeCharge
from repro.apps.stencil import StencilResult, run_stencil, serial_stencil_reference
from repro.apps.stencil2d import Stencil2DResult, process_grid, run_stencil2d
from repro.apps.cg import CgResult, run_cg
from repro.apps.fft import FftResult, run_fft2d
from repro.apps.summa import SummaResult, run_summa
from repro.apps.hpl import HplModel, HplEstimate

__all__ = [
    "CgResult",
    "ComputeCharge",
    "FftResult",
    "HplEstimate",
    "HplModel",
    "Stencil2DResult",
    "StencilResult",
    "SummaResult",
    "run_cg",
    "run_fft2d",
    "process_grid",
    "run_stencil",
    "run_stencil2d",
    "run_summa",
    "serial_stencil_reference",
    "stencil2d_kernel",
    "summa_kernel",
]
