"""Self-time arithmetic on nested spans, fork sharing and patch restore."""

import multiprocessing

import pytest

from bench import spans as spans_module
from bench.report import Frame, percentile, unattributed_share
from bench.spans import Tracer, instrumented


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans_module.time, "perf_counter", fake)
    return fake


@pytest.fixture
def tracer():
    made = Tracer(["outer", "inner", "leaf", "hits"])
    yield made
    made.close()


def test_self_time_subtracts_direct_children_only(clock, tracer):
    with tracer.span("outer"):          # 0 .. 10
        clock.now = 2.0
        with tracer.span("inner"):      # 2 .. 5
            clock.now = 3.0
            with tracer.span("leaf"):   # 3 .. 4
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 6.0
        with tracer.span("inner"):      # 6 .. 7
            clock.now = 7.0
        clock.now = 10.0
    totals = tracer.snapshot()
    assert totals["outer"].count == 1
    assert totals["outer"].total_s == pytest.approx(10.0)
    assert totals["outer"].self_s == pytest.approx(10.0 - 3.0 - 1.0)
    assert totals["inner"].count == 2
    assert totals["inner"].total_s == pytest.approx(4.0)
    assert totals["inner"].self_s == pytest.approx(4.0 - 1.0)
    assert totals["leaf"].self_s == pytest.approx(1.0)
    # Self times of a closed tree add up to the root's duration.
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)


def test_span_closes_on_exception(clock, tracer):
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            clock.now = 1.0
            with tracer.span("inner"):
                clock.now = 3.0
                raise ValueError("boom")
    totals = tracer.snapshot()
    assert totals["inner"].self_s == pytest.approx(2.0)
    assert totals["outer"].self_s == pytest.approx(1.0)


def test_wrap_iterator_times_each_step(clock, tracer):
    def produce():
        for item in range(3):
            clock.now += 2.0
            yield item

    wrapped = tracer.wrap_iterator(produce, "leaf")
    with tracer.span("outer"):
        assert list(wrapped()) == [0, 1, 2]
        clock.now += 1.0
    totals = tracer.snapshot()
    assert totals["leaf"].count == 4  # three items and the final stop
    assert totals["leaf"].total_s == pytest.approx(6.0)
    assert totals["outer"].self_s == pytest.approx(1.0)


def test_counters_and_reset(tracer):
    tracer.add("hits", 2)
    tracer.add("hits", 3)
    assert tracer.snapshot()["hits"].count == 5
    tracer.reset()
    assert tracer.snapshot()["hits"].count == 0


def _child(tracer):
    with tracer.span("leaf"):
        pass
    tracer.add("hits", 7)


def test_forked_children_record_into_the_parent_table(tracer):
    context = multiprocessing.get_context("fork")
    process = context.Process(target=_child, args=(tracer,))
    process.start()
    process.join(timeout=30)
    assert not process.is_alive() and process.exitcode == 0
    totals = tracer.snapshot()
    assert totals["leaf"].count == 1 and totals["hits"].count == 7


class Target:
    def work(self, value):
        return value * 2


def test_instrumented_restores_patched_attributes(tracer):
    original = Target.__dict__["work"]
    patch = [(Target, "work", lambda t, fn: t.wrap(fn, "inner"))]
    with instrumented(tracer, patch):
        assert Target().work(4) == 8
        assert Target.__dict__["work"] is not original
    assert Target.__dict__["work"] is original
    assert tracer.snapshot()["inner"].count == 1


def test_frame_closes_with_other_row():
    frame = Frame("lane", 10.0, [("a", 6.0), ("b", 3.0)])
    assert frame.other == pytest.approx(1.0)
    assert unattributed_share([frame, Frame("x", 10.0, [("c", 10.0)])]) == (
        pytest.approx(0.05))


def test_percentile_counts_failures_as_misses():
    values = [1.0] * 18 + [float("inf")] * 2
    assert percentile(values, 0.5) == 1.0
    assert percentile(values, 0.95) == float("inf")
