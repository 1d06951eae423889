"""Host-speed samples taken beside the program's work are dropped."""

from bench import hostspeed


def test_drop_busy_keeps_only_idle_samples():
    sampler = hostspeed.Sampler()
    sampler.samples = [(0.0, 0.01), (1.0, 0.01), (2.0, 0.01), (3.0, 0.01)]
    # busy windows: one covering the second sample, one just after the
    # third sample's start (overlapping its kernel run)
    sampler.drop_busy([(0.9, 1.05), (2.005, 2.5)])
    assert sampler.samples == [(0.0, 0.01), (3.0, 0.01)]


def test_factor_uses_median_sample_near_the_window():
    sampler = hostspeed.Sampler()
    reference = hostspeed.REFERENCE_S
    sampler.samples = [(0.0, reference), (0.1, 2 * reference),
                       (0.2, 2 * reference), (5.0, 4 * reference)]
    assert sampler.factor(0.0, 0.2) == 0.5
    # no sample within PAD_S: the nearest one
    assert sampler.factor(9.0, 9.5) == 0.25
