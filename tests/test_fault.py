"""Failure models, checkpoint economics, injection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fault import (
    CheckpointParams,
    ExponentialFailures,
    FaultInjector,
    WeibullFailures,
    daly_interval,
    efficiency,
    expected_runtime,
    simulate_checkpoint_run,
    system_mtbf,
    waste_fraction,
    young_interval,
)
from repro.sim import FailureCause, Interrupt, RandomStreams, Simulator

YEAR = 365.25 * 86400.0


class TestFailureModels:
    def test_system_mtbf_inverse_in_nodes(self):
        assert system_mtbf(1000.0, 10) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            system_mtbf(-1.0, 10)
        with pytest.raises(ValueError):
            system_mtbf(1.0, 0)

    def test_exponential_mean(self, streams):
        model = ExponentialFailures(mtbf_seconds=500.0)
        samples = model.sample_interarrivals(streams.get("t"), 200_000)
        assert samples.mean() == pytest.approx(500.0, rel=0.02)

    def test_exponential_for_system(self):
        model = ExponentialFailures(3 * YEAR).for_system(10_000)
        assert model.mtbf() == pytest.approx(3 * YEAR / 10_000)

    def test_weibull_mean_matches_formula(self, streams):
        model = WeibullFailures.from_mtbf(mtbf_seconds=1000.0, shape=0.7)
        assert model.mtbf() == pytest.approx(1000.0)
        samples = model.sample_interarrivals(streams.get("w"), 300_000)
        assert samples.mean() == pytest.approx(1000.0, rel=0.03)

    def test_weibull_infant_mortality_shape(self, streams):
        """Shape < 1: more short gaps than exponential (heavier head)."""
        exponential = ExponentialFailures(1000.0)
        weibull = WeibullFailures.from_mtbf(1000.0, shape=0.6)
        exp_samples = exponential.sample_interarrivals(streams.get("a"), 100_000)
        wei_samples = weibull.sample_interarrivals(streams.get("b"), 100_000)
        threshold = 100.0
        assert (np.mean(wei_samples < threshold)
                > np.mean(exp_samples < threshold))

    def test_weibull_system_scaling_preserves_mean_rate(self):
        model = WeibullFailures.from_mtbf(1000.0, shape=0.8)
        scaled = model.for_system(10)
        assert scaled.mtbf() == pytest.approx(100.0)

    def test_weibull_for_system_keeps_shape_and_validates(self):
        model = WeibullFailures.from_mtbf(1000.0, shape=0.7)
        scaled = model.for_system(25)
        assert scaled.shape == model.shape
        assert scaled.scale == pytest.approx(model.scale / 25)
        assert model.for_system(1) == model
        with pytest.raises(ValueError):
            model.for_system(0)
        with pytest.raises(ValueError):
            model.for_system(-3)

    def test_weibull_for_system_approximation_error_bound(self, streams):
        """The docstring's claim, checked: the same-shape scaled Weibull
        approximates the true superposition of n independent Weibull
        renewal processes.  By Palm-Khintchine the superposition's
        long-run rate is exactly n/mtbf, so the approximation's *mean*
        is exact; the Monte-Carlo bound below pins the long-run
        interarrival mean of the true superposition to the approximate
        model's MTBF within 5%."""
        nodes, shape, node_mtbf = 20, 0.7, 1000.0
        model = WeibullFailures.from_mtbf(node_mtbf, shape)
        approx = model.for_system(nodes)
        rng = streams.get("weibull.superposition")
        draws = 4000  # renewals per node
        arrivals = np.sort(np.concatenate([
            np.cumsum(model.sample_interarrivals(rng, draws))
            for _ in range(nodes)
        ]))
        # Trim to the window every node's process fully covers, so the
        # tail is not biased toward early-finishing nodes.
        horizon = min(
            draws * node_mtbf * 0.5,
            arrivals[-1])
        arrivals = arrivals[arrivals <= horizon]
        observed_mean_gap = horizon / len(arrivals)
        assert observed_mean_gap == pytest.approx(approx.mtbf(), rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialFailures(0.0)
        with pytest.raises(ValueError):
            WeibullFailures(shape=0.0, scale=1.0)

    def test_system_mtbf_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            system_mtbf(0.0, 10)
        with pytest.raises(ValueError):
            system_mtbf(1000.0, -1)


class TestCheckpointMath:
    def params(self, delta=300.0, restart=600.0, mtbf=10_000.0):
        return CheckpointParams(checkpoint_seconds=delta,
                                restart_seconds=restart,
                                system_mtbf_seconds=mtbf)

    def test_young_formula(self):
        params = self.params(delta=200.0, mtbf=10_000.0)
        assert young_interval(params) == pytest.approx(
            math.sqrt(2 * 200.0 * 10_000.0))

    def test_daly_close_to_young_when_failures_rare(self):
        params = self.params(delta=10.0, mtbf=1e7)
        assert daly_interval(params) == pytest.approx(
            young_interval(params), rel=0.01)

    def test_daly_caps_at_mtbf_when_hopeless(self):
        params = self.params(delta=1000.0, mtbf=400.0)  # delta > 2M
        assert daly_interval(params) == 400.0

    def test_daly_interval_is_near_optimal(self):
        """The analytic optimum must beat every nearby interval on the
        exact expected-runtime model."""
        params = self.params()
        best = daly_interval(params)
        best_time = expected_runtime(params, 1e6, best)
        for factor in (0.25, 0.5, 2.0, 4.0):
            other = expected_runtime(params, 1e6, best * factor)
            assert best_time <= other * (1 + 1e-9)

    def test_efficiency_decreases_with_scale(self):
        deltas = []
        for nodes in (100, 1_000, 10_000, 100_000):
            params = CheckpointParams(300.0, 600.0,
                                      system_mtbf(3 * YEAR, nodes))
            deltas.append(efficiency(params, daly_interval(params)))
        assert deltas == sorted(deltas, reverse=True)
        assert deltas[0] > 0.95      # 100 nodes: nearly no loss
        assert deltas[-1] < 0.5      # 100k nodes: fault-dominated

    def test_waste_approximates_exact_at_low_failure_rates(self):
        params = self.params(delta=30.0, mtbf=1e6)
        tau = daly_interval(params)
        assert 1 - efficiency(params, tau) == pytest.approx(
            waste_fraction(params, tau), rel=0.1)

    def test_expected_runtime_exceeds_work(self):
        params = self.params()
        assert expected_runtime(params, 1000.0, 500.0) > 1000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            expected_runtime(self.params(), -1.0, 10.0)
        with pytest.raises(ValueError):
            efficiency(self.params(), 0.0)

    @given(st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=1e3, max_value=1e8))
    @settings(max_examples=100, deadline=None)
    def test_daly_never_worse_than_young(self, delta, mtbf):
        params = CheckpointParams(delta, 0.0, mtbf)
        work = 1e6
        daly_time = expected_runtime(params, work, daly_interval(params))
        young_time = expected_runtime(params, work, young_interval(params))
        assert daly_time <= young_time * (1 + 1e-6)


class TestInjection:
    def test_injector_interrupts_until_victim_dies(self, sim, streams):
        hits = []

        def victim_body(sim):
            for _ in range(3):
                try:
                    yield sim.timeout(1e9)
                except Interrupt as interrupt:
                    hits.append(interrupt.cause)
            return "survived 3"

        victim = sim.process(victim_body(sim))
        injector = FaultInjector(sim, ExponentialFailures(100.0),
                                 streams.get("inj"))
        injector.attach(victim)
        sim.run()
        assert victim.value == "survived 3"
        assert len(hits) == 3
        assert all(cause[0] == "failure" for cause in hits)

    def test_interrupt_cause_tuple_contract(self, sim, streams):
        """Injected causes are FailureCause instances that compare equal
        to the legacy ("failure", index) tuples — both spellings must
        keep working."""
        causes = []

        def victim_body(sim):
            for _ in range(2):
                try:
                    yield sim.timeout(1e9)
                except Interrupt as interrupt:
                    causes.append(interrupt.cause)
            return "done"

        victim = sim.process(victim_body(sim))
        FaultInjector(sim, ExponentialFailures(50.0),
                      streams.get("inj")).attach(victim)
        sim.run()
        assert causes == [("failure", 0), ("failure", 1)]
        for index, cause in enumerate(causes):
            assert isinstance(cause, FailureCause)
            assert cause.kind == "failure"
            assert cause.index == index

    def test_same_instant_interrupt_is_noop(self):
        """An interrupt landing at the exact instant the victim's wait
        is due loses the tie: the victim "finished first" and resumes
        normally.  Regression for the timestamp-collision edge in
        FaultInjector teardown."""
        sim = Simulator()
        log = []

        def saboteur(victim_box):
            yield sim.timeout(5.0)
            victim_box[0].interrupt(FailureCause.numbered(0))

        def sleeper():
            try:
                yield sim.timeout(5.0)
                log.append("woke")
            except Interrupt:
                log.append("interrupted")

        box = []
        sim.process(saboteur(box))     # created first: acts first at t=5
        box.append(sim.process(sleeper()))
        sim.run()
        assert log == ["woke"]

    def test_future_wait_interrupt_still_lands(self):
        """The no-op rule applies only to exact ties: a victim waiting
        on a strictly-future event is interrupted as usual."""
        sim = Simulator()
        log = []

        def saboteur(victim_box):
            yield sim.timeout(5.0)
            victim_box[0].interrupt(FailureCause.numbered(0))

        def sleeper():
            try:
                yield sim.timeout(10.0)
                log.append("woke")
            except Interrupt as interrupt:
                log.append(interrupt.cause)

        box = []
        sim.process(saboteur(box))
        box.append(sim.process(sleeper()))
        sim.run()
        assert log == [("failure", 0)]

    def test_monte_carlo_matches_analytic(self):
        """The headline validation: simulated makespan within a few
        percent of Daly's expectation."""
        mtbf = system_mtbf(3 * YEAR, 5_000)
        params = CheckpointParams(300.0, 600.0, mtbf)
        tau = daly_interval(params)
        work = 50 * 3600.0
        analytic = expected_runtime(params, work, tau)
        runs = [
            simulate_checkpoint_run(work, params, tau,
                                    ExponentialFailures(mtbf),
                                    RandomStreams(17), replication)
            for replication in range(24)
        ]
        measured = np.mean([run.makespan for run in runs])
        assert measured == pytest.approx(analytic, rel=0.08)

    def test_no_failures_means_pure_overhead(self):
        """With an astronomically long MTBF the run is work + checkpoints."""
        params = CheckpointParams(10.0, 5.0, 1e15)
        stats = simulate_checkpoint_run(1000.0, params, 100.0,
                                        ExponentialFailures(1e15))
        assert stats.failures == 0
        assert stats.useful_seconds == pytest.approx(1000.0)
        # 10 intervals, checkpoint after all but the last.
        assert stats.makespan == pytest.approx(1000.0 + 9 * 10.0)

    def test_accounting_adds_up(self):
        mtbf = 5_000.0
        params = CheckpointParams(50.0, 100.0, mtbf)
        stats = simulate_checkpoint_run(20_000.0, params, 500.0,
                                        ExponentialFailures(mtbf),
                                        RandomStreams(5))
        total = (stats.useful_seconds + stats.checkpoint_seconds
                 + stats.lost_seconds + stats.restart_seconds)
        assert total == pytest.approx(stats.makespan, rel=1e-9)
        assert stats.useful_seconds == pytest.approx(20_000.0)
        assert 0 < stats.efficiency < 1

    def test_validation(self):
        params = CheckpointParams(1.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            simulate_checkpoint_run(0.0, params, 10.0,
                                    ExponentialFailures(100.0))
        with pytest.raises(ValueError):
            simulate_checkpoint_run(10.0, params, 0.0,
                                    ExponentialFailures(100.0))
