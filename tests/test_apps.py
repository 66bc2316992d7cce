"""Application kernels: numerical correctness against serial references,
plus the virtual-time charging model."""

import numpy as np
import pytest

from repro import RandomStreams
from repro.apps import (
    ComputeCharge,
    run_cg,
    run_fft2d,
    run_stencil,
    serial_stencil_reference,
)
from repro.nodes import make_node


class TestComputeCharge:
    def test_flat_rate(self):
        charge = ComputeCharge(effective_flops=2e9)
        assert charge.seconds(4e9) == pytest.approx(2.0)
        assert charge.seconds(0.0) == 0.0

    def test_node_roofline_used(self, nominal):
        node = make_node("conventional", nominal, 2005)
        charge = ComputeCharge(node=node)
        # Memory-bound phase: time set by bandwidth, not peak.
        memory_bound = charge.seconds(flops=1e6, bytes_moved=1e9)
        assert memory_bound == pytest.approx(1e9 / node.memory_bandwidth,
                                             rel=0.01)
        # Compute-bound phase: time set by peak.
        compute_bound = charge.seconds(flops=1e12, bytes_moved=1e6)
        assert compute_bound == pytest.approx(1e12 / node.peak_flops, rel=0.01)

    def test_exclusive_arguments(self, nominal):
        node = make_node("conventional", nominal, 2005)
        with pytest.raises(ValueError):
            ComputeCharge(node=node, effective_flops=1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeCharge(effective_flops=-1.0)
        with pytest.raises(ValueError):
            ComputeCharge().seconds(-1.0)


class TestStencil:
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 7])
    def test_matches_serial_reference(self, ranks):
        result = run_stencil(ranks, n=24, iterations=8)
        assert np.allclose(result.grid, serial_stencil_reference(24, 8))

    def test_boundary_rows_fixed(self):
        result = run_stencil(2, n=16, iterations=5)
        assert np.all(result.grid[0, :] == 1.0)
        assert np.all(result.grid[-1, :] == 0.0)

    def test_more_ranks_faster_on_big_grids(self):
        """On a grid large enough for compute to dominate the halo cost,
        parallelism must pay (small grids legitimately do not scale)."""
        slow = run_stencil(1, n=256, iterations=4, technology="infiniband_4x")
        fast = run_stencil(8, n=256, iterations=4, technology="infiniband_4x")
        assert fast.elapsed < slow.elapsed

    def test_validation(self):
        with pytest.raises(ValueError):
            run_stencil(1, n=3, iterations=1)
        with pytest.raises(ValueError):
            run_stencil(20, n=16, iterations=1)
        with pytest.raises(ValueError):
            run_stencil(2, n=16, iterations=0)


class TestCg:
    @pytest.mark.parametrize("ranks", [1, 2, 4, 5])
    def test_solves_laplacian(self, ranks):
        result = run_cg(ranks, n=80)
        assert result.converged
        assert np.allclose(result.x, 1.0, atol=1e-5)
        assert result.residual < 1e-8

    def test_iterations_reasonable(self):
        """CG on the 1D Laplacian converges in <= n iterations."""
        result = run_cg(4, n=64)
        assert result.iterations <= 64

    def test_algorithms_agree_numerically(self):
        reference = run_cg(4, n=64, allreduce_algorithm="recursive_doubling")
        ring = run_cg(4, n=64, allreduce_algorithm="ring")
        assert reference.iterations == ring.iterations
        assert np.allclose(reference.x, ring.x)

    def test_latency_sensitivity(self):
        """CG is allreduce-bound: a high-latency network hurts it far
        more than its tiny bandwidth needs would suggest."""
        fast = run_cg(8, n=128, technology="quadrics_elan3")
        slow = run_cg(8, n=128, technology="fast_ethernet")
        assert slow.elapsed > 5 * fast.elapsed

    def test_validation(self):
        with pytest.raises(ValueError):
            run_cg(8, n=4)
        with pytest.raises(ValueError):
            run_cg(2, n=16, max_iterations=0)


class TestFft:
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_matches_numpy_fft2(self, ranks):
        result = run_fft2d(ranks, n=32, seed=7)
        reference = np.fft.fft2(
            RandomStreams(7).fresh("apps.fft.input").standard_normal((32, 32)))
        assert np.allclose(result.spectrum, reference)

    def test_uneven_partition(self):
        result = run_fft2d(3, n=32, seed=1)
        reference = np.fft.fft2(
            RandomStreams(1).fresh("apps.fft.input").standard_normal((32, 32)))
        assert np.allclose(result.spectrum, reference)

    def test_bisection_sensitivity(self):
        """FFT's alltoall rewards bandwidth: IB beats GigE by a large
        factor once communication dominates."""
        charge = ComputeCharge(effective_flops=3e9)
        fast = run_fft2d(8, n=512, charge=charge,
                         technology="infiniband_12x")
        slow = run_fft2d(8, n=512, charge=charge,
                         technology="gigabit_ethernet")
        assert slow.elapsed > 3 * fast.elapsed
