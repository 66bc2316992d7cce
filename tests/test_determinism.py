"""Whole-stack determinism: every experiment path is exactly repeatable.

Reproducibility is a stated design property (DESIGN.md): same seeds and
parameters must give bit-identical results, because the benchmark suite's
assertions are only meaningful if reruns agree.
"""

import numpy as np

from repro import (
    ExponentialFailures,
    RandomStreams,
    SUM,
    WorkloadGenerator,
    WorkloadParams,
    get_policy,
    run_spmd,
)
from repro.apps import run_cg, run_fft2d, run_stencil2d, run_summa
from repro.fault import CheckpointParams, simulate_checkpoint_run
from repro.scheduler import BatchSimulator, FaultyBatchSimulator, evaluate_schedule


class TestVirtualTimeDeterminism:
    def test_collective_program_bitwise_repeatable(self):
        def body(comm):
            total = yield from comm.allreduce(
                np.arange(100.0) * comm.rank, SUM, algorithm="ring")
            yield from comm.barrier()
            return float(total.sum()), comm.sim.now

        runs = [run_spmd(8, body, technology="infiniband_4x")
                for _ in range(2)]
        assert runs[0].results == runs[1].results
        assert runs[0].elapsed == runs[1].elapsed
        assert runs[0].finish_times == runs[1].finish_times

    def test_application_kernels_repeatable(self):
        first = run_stencil2d(4, n=32, iterations=4)
        second = run_stencil2d(4, n=32, iterations=4)
        assert first.elapsed == second.elapsed
        assert np.array_equal(first.grid, second.grid)

        cg_a = run_cg(4, n=128)
        cg_b = run_cg(4, n=128)
        assert cg_a.elapsed == cg_b.elapsed
        assert cg_a.iterations == cg_b.iterations

        fft_a = run_fft2d(4, n=32, seed=3)
        fft_b = run_fft2d(4, n=32, seed=3)
        assert fft_a.elapsed == fft_b.elapsed
        assert np.array_equal(fft_a.spectrum, fft_b.spectrum)


class TestNamedStreamDerivation:
    """All app-kernel randomness routes through RandomStreams: the
    ``seed=`` and ``streams=`` spellings are equivalent, fresh() is
    stateless across calls, and seeds actually matter."""

    def test_fresh_is_deterministic_and_uncached(self):
        streams = RandomStreams(21)
        first = streams.fresh("apps.fft.input").standard_normal(16)
        second = streams.fresh("apps.fft.input").standard_normal(16)
        assert np.array_equal(first, second)
        # Caching would make the second call continue the first stream.
        cached = streams.get("apps.fft.input")
        assert np.array_equal(cached.standard_normal(16), first)

    def test_fresh_streams_are_independent(self):
        streams = RandomStreams(21)
        a = streams.fresh("apps.summa.input").standard_normal(16)
        b = streams.fresh("apps.fft.input").standard_normal(16)
        assert not np.array_equal(a, b)

    def test_seed_and_streams_arguments_equivalent(self):
        via_seed = run_fft2d(4, n=32, seed=17)
        via_streams = run_fft2d(4, n=32, streams=RandomStreams(17))
        assert np.array_equal(via_seed.spectrum, via_streams.spectrum)

        summa_seed = run_summa(4, 24, seed=17)
        summa_streams = run_summa(4, 24, streams=RandomStreams(17))
        assert np.array_equal(summa_seed.product, summa_streams.product)

    def test_summa_repeatable(self):
        summa_a = run_summa(4, 24, seed=5)
        summa_b = run_summa(4, 24, seed=5)
        assert summa_a.elapsed == summa_b.elapsed
        assert np.array_equal(summa_a.product, summa_b.product)

    def test_app_seeds_matter(self):
        assert not np.array_equal(run_fft2d(2, n=32, seed=1).spectrum,
                                  run_fft2d(2, n=32, seed=2).spectrum)
        assert not np.array_equal(run_summa(4, 24, seed=1).product,
                                  run_summa(4, 24, seed=2).product)

    def test_input_independent_of_rank_count(self):
        """SUMMA's matrices depend only on (n, seed), never on the rank
        count or the interleaving: every rank draws them from the same
        named stream."""
        four = run_summa(4, 24, seed=3)
        again = run_summa(4, 24, seed=3, technology="fast_ethernet")
        assert np.array_equal(four.product, again.product)
        nine = run_summa(9, 24, seed=3)
        assert np.allclose(four.product, nine.product)


class TestStochasticDeterminism:
    def test_workload_and_schedule_repeatable(self):
        def run():
            generator = WorkloadGenerator(
                WorkloadParams(max_nodes=64, offered_load=0.8),
                RandomStreams(seed=42))
            jobs = generator.generate(300)
            outcome = BatchSimulator(64, get_policy("easy")).run(jobs)
            return evaluate_schedule(outcome)

        first, second = run(), run()
        assert first.utilization == second.utilization
        assert first.mean_bounded_slowdown == second.mean_bounded_slowdown
        assert first.makespan == second.makespan

    def test_fault_injected_schedule_repeatable(self):
        def run():
            generator = WorkloadGenerator(
                WorkloadParams(max_nodes=32, offered_load=0.7),
                RandomStreams(seed=7))
            jobs = generator.generate(150)
            simulator = FaultyBatchSimulator(
                32, get_policy("easy"),
                node_mtbf_seconds=0.05 * 365.25 * 86400,
                checkpoint_interval=3600.0,
                streams=RandomStreams(seed=13))
            return simulator.run(jobs)

        first, second = run(), run()
        assert first.completions == second.completions
        assert first.failures == second.failures
        assert first.lost_node_seconds == second.lost_node_seconds

    def test_monte_carlo_checkpoint_repeatable(self):
        params = CheckpointParams(50.0, 100.0, 5_000.0)

        def run():
            return simulate_checkpoint_run(
                20_000.0, params, 500.0, ExponentialFailures(5_000.0),
                RandomStreams(5), replication=2)

        first, second = run(), run()
        assert first.makespan == second.makespan
        assert first.failures == second.failures

    def test_different_seeds_differ(self):
        params = CheckpointParams(50.0, 100.0, 5_000.0)
        runs = {
            seed: simulate_checkpoint_run(
                20_000.0, params, 500.0, ExponentialFailures(5_000.0),
                RandomStreams(seed))
            for seed in (1, 2)
        }
        assert runs[1].makespan != runs[2].makespan
