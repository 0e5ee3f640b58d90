import threading

import pytest

import spans
from spans import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        traced_leaf()
        clock.now += 1.0

    def outer():
        traced_mid()
        traced_leaf()
        clock.now += 3.0

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_mid = tracer.wrap("mid", mid)
    tracer.wrap("outer", outer)()

    totals = tracer.totals()
    assert totals["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0, "value": 0}
    assert totals["mid"]["total_s"] == 4.0 and totals["mid"]["self_s"] == 2.0
    assert totals["outer"]["total_s"] == 9.0 and totals["outer"]["self_s"] == 3.0
    assert sum(row["self_s"] for row in totals.values()) == totals["outer"]["total_s"]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise KeyError

    def outer():
        with pytest.raises(KeyError):
            traced_boom()
        clock.now += 1.0

    traced_boom = tracer.wrap("boom", boom)
    tracer.wrap("outer", outer)()
    totals = tracer.totals()
    assert totals["boom"]["calls"] == 1
    assert totals["outer"]["self_s"] == 1.0


def test_value_and_callable_names():
    tracer = Tracer()
    render = tracer.wrap(lambda kind: f"render.{kind}", lambda kind: "x" * 3, value=len)
    render("a")
    render("a")
    render("b")
    totals = tracer.totals()
    assert totals["render.a"]["calls"] == 2 and totals["render.a"]["value"] == 6
    assert totals["render.b"]["value"] == 3


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    barrier = threading.Barrier(4)

    def work():
        barrier.wait()

    traced = tracer.wrap("work", work)
    threads = [threading.Thread(target=traced) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    row = tracer.totals()["work"]
    assert row["calls"] == 4
    assert row["self_s"] == pytest.approx(row["total_s"])


def test_difference_keeps_only_what_accrued_between_snapshots():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def step():
        clock.now += 1.0

    warm, measured = tracer.wrap("warm", step), tracer.wrap("measured", step)
    warm()
    measured()
    before = tracer.totals()
    measured()
    measured()
    diff = spans.difference(tracer.totals(), before)
    assert diff == {"measured": {"calls": 2, "total_s": 2.0, "self_s": 2.0, "value": 0}}
