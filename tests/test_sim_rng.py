"""RandomStreams: reproducibility and independence."""

import numpy as np

from repro.sim import RandomStreams


class TestReproducibility:
    def test_same_seed_same_stream(self):
        a = RandomStreams(seed=7).get("x").random(100)
        b = RandomStreams(seed=7).get("x").random(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=7).get("x").random(100)
        b = RandomStreams(seed=8).get("x").random(100)
        assert not np.array_equal(a, b)

    def test_stream_independent_of_creation_order(self):
        forward = RandomStreams(seed=3)
        forward.get("a")
        sample_forward = forward.get("b").random(50)

        backward = RandomStreams(seed=3)
        sample_backward = backward.get("b").random(50)
        assert np.array_equal(sample_forward, sample_backward)

    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=1)
        assert streams.get("x") is streams.get("x")


class TestIndependence:
    def test_named_streams_uncorrelated(self):
        streams = RandomStreams(seed=42)
        a = streams.get("alpha").standard_normal(20_000)
        b = streams.get("beta").standard_normal(20_000)
        correlation = abs(np.corrcoef(a, b)[0, 1])
        assert correlation < 0.03

    def test_fork_gives_independent_universe(self):
        base = RandomStreams(seed=9)
        fork = base.fork(1)
        a = base.get("s").random(1000)
        b = fork.get("s").random(1000)
        assert not np.array_equal(a, b)

    def test_fork_reproducible(self):
        a = RandomStreams(seed=9).fork(5).get("s").random(100)
        b = RandomStreams(seed=9).fork(5).get("s").random(100)
        assert np.array_equal(a, b)

    def test_forks_differ_by_salt(self):
        base = RandomStreams(seed=9)
        a = base.fork(1).get("s").random(100)
        b = base.fork(2).get("s").random(100)
        assert not np.array_equal(a, b)


class TestBookkeeping:
    def test_names_sorted(self):
        streams = RandomStreams(seed=0)
        streams.get("zeta")
        streams.get("alpha")
        assert streams.names() == ["alpha", "zeta"]

    def test_distribution_sanity(self):
        """Uniformity check: KS-style bounds on a large sample."""
        sample = RandomStreams(seed=11).get("u").random(50_000)
        assert 0.49 < sample.mean() < 0.51
        assert sample.min() >= 0.0 and sample.max() <= 1.0
