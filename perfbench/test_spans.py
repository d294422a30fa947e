"""Self-tests of the benchmark's span and self-time arithmetic.

Run from the repository root with ``python3 -m pytest -q perfbench``.
A fake clock makes every duration exact.
"""

from __future__ import annotations

import spans as tr


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _nested_run(tracer: tr.Tracer, clock: FakeClock) -> None:
    """root(1 + a(2 + c(4)) + b(8) + 16): root=31, a=6, c=4, b=8."""

    def c():
        clock.advance(4)

    def a():
        clock.advance(2)
        tracer.call("c", c, (), {})

    def b():
        clock.advance(8)

    def root():
        clock.advance(1)
        tracer.call("a", a, (), {})
        tracer.call("b", b, (), {})
        clock.advance(16)

    tracer.call("root", root, (), {})


def test_parents_durations_and_shared_run_id():
    clock = FakeClock()
    tracer = tr.Tracer(clock)
    run = tracer.new_run()
    _nested_run(tracer, clock)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["root"].parent_id is None
    assert by_name["a"].parent_id == by_name["root"].span_id
    assert by_name["b"].parent_id == by_name["root"].span_id
    assert by_name["c"].parent_id == by_name["a"].span_id
    assert {s.run_id for s in tracer.spans} == {run}
    assert [by_name[n].duration for n in ("root", "a", "b", "c")] == [31, 6, 8, 4]
    assert (by_name["c"].start, by_name["c"].end) == (3, 7)


def test_self_time_is_duration_minus_children_and_sums_to_root():
    clock = FakeClock()
    tracer = tr.Tracer(clock)
    tracer.new_run()
    _nested_run(tracer, clock)
    own = tr.self_times(tracer.spans)
    by_name = {s.name: own[s.span_id] for s in tracer.spans}
    assert by_name == {"root": 17, "a": 2, "b": 8, "c": 4}
    assert sum(own.values()) == 31


def test_span_is_closed_when_the_call_raises():
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def boom():
        clock.advance(3)
        raise ValueError("x")

    try:
        tracer.call("boom", boom, (), {})
    except ValueError:
        pass
    tracer.call("after", clock.advance, (1,), {})
    boom_span, after = tracer.spans
    assert boom_span.duration == 3
    assert after.parent_id is None


def test_nested_same_name_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def inner():
        clock.advance(5)

    def outer():
        clock.advance(1)
        tracer.call("f", inner, (), {})

    tracer.call("f", outer, (), {})
    row = tr.summarize(tracer.spans)["f"]
    assert row == {"calls": 2, "s": 6, "self_s": 6, "rows": 0}


def test_per_unit_adds_setup_to_the_mean_unit():
    clock = FakeClock()
    tracer = tr.Tracer(clock)
    setup = tracer.new_run()
    tracer.call("f", clock.advance, (1,), {}, {"rows": 10})
    units = []
    for dt in (2, 4):
        units.append(tracer.new_run())
        tracer.call("f", clock.advance, (dt,), {}, {"rows": 100})
    row = tr.per_unit(tracer.spans, setup, units)["f"]
    assert row == {"calls": 2, "s": 4, "self_s": 4, "rows": 110}


def test_grad_use_counts_the_discarded_alpha_one_gradient():
    clock = FakeClock()
    tracer = tr.Tracer(clock)

    def step():
        tracer.call("model.loss_and_grad", clock.advance, (1,), {})
        tracer.call("model.loss_and_grad", clock.advance, (1,), {})

    for alpha in (1.0, 1.0, 2.0):
        tracer.call("optim.training_step", step, (), {}, {"alpha": alpha})
    tracer.call("model.loss_and_grad", clock.advance, (1,), {})  # outside any step
    assert tr.grad_use(tracer.spans) == {1.0: (2, 4), 2.0: (2, 2)}


def test_install_wraps_every_module_that_holds_the_function_and_restores_it():
    import noise_forge.optim as optim
    from noise_forge import model

    original = model.loss_and_grad
    tracer = tr.Tracer()
    with tracer:
        assert optim.loss_and_grad is not original
        assert optim.loss_and_grad is model.loss_and_grad
        assert optim.loss_and_grad.__wrapped__ is original
    assert optim.loss_and_grad is original and model.loss_and_grad is original
