"""SUMMA: correctness against numpy, and its scaling shapes."""

import numpy as np
import pytest

from repro import RandomStreams
from repro.apps import ComputeCharge, run_summa


class TestSumma:
    @pytest.mark.parametrize("ranks", [1, 4, 9, 16])
    def test_matches_numpy_product(self, ranks):
        result = run_summa(ranks, 36, seed=11)
        rng = RandomStreams(11).fresh("apps.summa.input")
        a = rng.standard_normal((36, 36))
        b = rng.standard_normal((36, 36))
        assert np.allclose(result.product, a @ b)
        assert result.grid ** 2 == ranks

    def test_uneven_blocks(self):
        """n not divisible by the grid dimension still works."""
        result = run_summa(4, 35, seed=2)
        rng = RandomStreams(2).fresh("apps.summa.input")
        a = rng.standard_normal((35, 35))
        b = rng.standard_normal((35, 35))
        assert np.allclose(result.product, a @ b)

    def test_compute_bound_at_scale(self):
        """Large blocks make SUMMA compute-dominated: interconnect choice
        moves it far less than its broadcast volume suggests."""
        charge = ComputeCharge(effective_flops=3e9)
        slow = run_summa(4, 512, charge=charge,
                         technology="gigabit_ethernet")
        fast = run_summa(4, 512, charge=charge,
                         technology="infiniband_4x")
        assert slow.elapsed < 2.0 * fast.elapsed

    def test_scales_with_ranks(self):
        charge = ComputeCharge(effective_flops=3e9)
        one = run_summa(1, 256, charge=charge, technology="infiniband_4x")
        sixteen = run_summa(16, 256, charge=charge,
                            technology="infiniband_4x")
        assert sixteen.elapsed < one.elapsed / 4

    def test_non_square_rank_count_rejected(self):
        with pytest.raises(ValueError, match="square"):
            run_summa(6, 32)

    def test_tiny_matrix_rejected(self):
        with pytest.raises(ValueError):
            run_summa(16, 2)
