"""Tests for sim-time spans and the observability context (repro.obs)."""

import math

import pytest

from repro.obs import (
    ObsAggregate,
    ObsContext,
    SpanRecorder,
    SpanStats,
)
from repro.obs.spans import merge_span_stats
from repro.sim.kernel import Simulator


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpanRecorder:
    def test_live_span_across_callbacks(self):
        clock = _FakeClock()
        recorder = SpanRecorder(clock)
        span = recorder.start("phy.tx", device="obu")
        clock.now = 0.25
        event = span.end()
        assert event.duration == 0.25
        assert recorder.events("phy.tx", device="obu") == [event]

    def test_end_is_idempotent(self):
        recorder = SpanRecorder()
        span = recorder.start("x")
        assert span.end() is not None
        assert span.end() is None
        assert len(recorder) == 1

    def test_context_manager(self):
        clock = _FakeClock()
        recorder = SpanRecorder(clock)
        with recorder.start("stage"):
            clock.now = 1.0
        (event,) = recorder.events("stage")
        assert event.end == 1.0

    def test_record_after_the_fact(self):
        recorder = SpanRecorder()
        event = recorder.record("e2e.total", 1.0, 3.5, device="run")
        assert event.duration == 2.5
        assert recorder.stats()["e2e.total"].count == 1

    def test_depth_is_per_device(self):
        recorder = SpanRecorder()
        outer = recorder.start("outer", device="rsu")
        inner = recorder.start("inner", device="rsu")
        other = recorder.start("outer", device="obu")
        assert outer.depth == 0
        assert inner.depth == 1
        assert other.depth == 0
        inner.end()
        outer.end()
        other.end()
        again = recorder.start("again", device="rsu")
        assert again.depth == 0

    def test_stats_aggregation(self):
        recorder = SpanRecorder()
        recorder.record("s", 0.0, 1.0)
        recorder.record("s", 0.0, 3.0)
        stats = recorder.stats()["s"]
        assert stats.count == 2
        assert stats.total == 4.0
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.mean == 2.0


class TestSpanStats:
    def test_empty_mean_is_nan_and_dict_uses_none(self):
        stats = SpanStats()
        assert math.isnan(stats.mean)
        assert stats.to_dict()["min_s"] is None

    def test_merge(self):
        a, b = SpanStats(), SpanStats()
        a.add(1.0)
        b.add(5.0)
        a.merge(b)
        assert (a.count, a.total, a.minimum, a.maximum) == \
            (2, 6.0, 1.0, 5.0)

    @pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_duration_untouched(self, duration):
        stats = SpanStats()
        stats.add(0.25)
        before = stats.to_dict()
        with pytest.raises(ValueError, match="finite"):
            stats.add(duration)
        assert stats.to_dict() == before

    @pytest.mark.parametrize("total", [math.inf, math.nan])
    def test_from_dict_rejects_non_finite_total(self, total):
        data = {"count": 1, "total_s": total, "min_s": 0.5,
                "max_s": 0.5, "mean_s": 0.5}
        with pytest.raises(ValueError, match="^total_s: "):
            SpanStats.from_dict(data)

    def test_merge_span_stats_by_name(self):
        into = {"x": SpanStats()}
        into["x"].add(1.0)
        other = {"x": SpanStats(), "y": SpanStats()}
        other["x"].add(2.0)
        other["y"].add(3.0)
        merge_span_stats(into, other)
        assert into["x"].count == 2
        assert into["y"].count == 1


class TestObsContext:
    def test_bind_attaches_to_simulator(self):
        sim = Simulator()
        ctx = ObsContext()
        assert sim.obs is None
        ctx.bind(sim)
        assert sim.obs is ctx

    def test_spans_read_simulated_time(self):
        sim = Simulator()
        ctx = ObsContext().bind(sim)
        span = ctx.span("stage", device="dev")
        sim.schedule(2.0, span.end)
        sim.run_until(5.0)
        (event,) = ctx.spans.events("stage")
        assert event.start == 0.0
        assert event.end == 2.0

    def test_convenience_methods(self):
        ctx = ObsContext()
        ctx.count("c", device="obu")
        ctx.observe("h", 0.5)
        ctx.set_gauge("g", 3.0)
        ctx.record_span("s", 0.0, 1.0)
        data = ctx.to_dict()
        assert 'c{device="obu"}' in data["metrics"]
        assert data["spans"]["s"]["count"] == 1
        assert data["span_events"][0]["name"] == "s"

    def test_kernel_step_hook(self):
        ctx = ObsContext()
        ctx.kernel_step()
        ctx.kernel_step()
        assert ctx.metrics.counter("kernel.events").value == 2.0

    def test_prometheus_text_includes_span_summaries(self):
        ctx = ObsContext()
        ctx.count("c")
        ctx.record_span("phy.tx", 0.0, 0.5)
        text = ctx.to_prometheus_text()
        assert "repro_c 1.0" in text
        assert "repro_span_phy_tx_seconds_count 1" in text

    def test_instrumented_kernel_counts_events(self):
        sim = Simulator()
        ctx = ObsContext().bind(sim)
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(5.0)
        assert fired == [1, 2]
        assert ctx.metrics.counter("kernel.events").value == 2.0


class TestKernelHook:
    """``Simulator.step`` calls ``obs.kernel_step()`` once per event."""

    @staticmethod
    def events(ctx):
        return ctx.metrics.counter("kernel.events").value

    @pytest.mark.parametrize("count", [1, 7, 64])
    def test_counts_every_executed_event(self, count):
        sim = Simulator()
        ctx = ObsContext().bind(sim)
        for index in range(count):
            sim.schedule(0.5 * index, lambda: None)
        sim.run_until(100.0)
        assert self.events(ctx) == float(count)

    def test_idle_simulator_registers_no_counter(self):
        sim = Simulator()
        ctx = ObsContext().bind(sim)
        sim.run_until(5.0)
        assert ctx.to_dict()["metrics"] == {}

    def test_hook_runs_after_the_callback(self):
        sim = Simulator()
        ctx = ObsContext().bind(sim)
        seen = []
        sim.schedule(1.0, lambda: seen.append(self.events(ctx)))
        sim.schedule(2.0, lambda: seen.append(self.events(ctx)))
        sim.run_until(5.0)
        assert seen == [0.0, 1.0]
        assert self.events(ctx) == 2.0

    def test_events_scheduled_by_callbacks_are_counted(self):
        sim = Simulator()
        ctx = ObsContext().bind(sim)

        def chain(remaining):
            if remaining:
                sim.schedule(1.0, lambda: chain(remaining - 1))

        sim.schedule(0.0, lambda: chain(4))
        sim.run()
        assert self.events(ctx) == 5.0

    def test_hook_patched_by_name_sees_every_event(self, monkeypatch):
        # bench/layers.py wraps ObsContext.kernel_step by name; the
        # kernel must keep calling it through the instance.
        calls = []
        original = ObsContext.kernel_step

        def wrapped(ctx):
            calls.append(ctx)
            original(ctx)

        monkeypatch.setattr(ObsContext, "kernel_step", wrapped)
        sim = Simulator()
        ctx = ObsContext().bind(sim)
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        sim.run_until(5.0)
        assert calls == [ctx, ctx, ctx]
        assert self.events(ctx) == 3.0

    def test_attaching_mid_run_counts_only_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run_until(2.0)
        ctx = ObsContext().bind(sim)
        sim.run_until(5.0)
        assert fired == [1, 3]
        assert self.events(ctx) == 1.0


class TestObsAggregate:
    """Export shape and per-run wall times of the campaign fold."""

    @staticmethod
    def context():
        ctx = ObsContext()
        ctx.count("kernel.events", 4)
        ctx.observe("e2e.latency", 0.042)
        ctx.record_span("e2e.total", 0.0, 0.5, device="obu")
        return ctx

    def test_context_export_has_no_wall_key(self):
        assert set(self.context().to_dict()) == {
            "metrics", "spans", "span_events"}

    def test_context_ignores_wall_profile_of_earlier_bodies(self):
        data = self.context().to_dict()
        legacy = dict(data, wall={
            "kernel.step": {"count": 4, "total_s": 4e-05,
                            "min_s": 1e-05, "max_s": 1e-05,
                            "mean_s": 1e-05}})
        assert ObsContext.from_dict(legacy).to_dict() == data

    def test_aggregate_export_has_no_wall_key(self):
        agg = ObsAggregate()
        agg.add_run(self.context(), 0.25)
        assert set(agg.to_dict()) == {
            "runs", "cached_runs", "run_wall_seconds", "metrics",
            "spans"}

    def test_aggregate_ignores_wall_profile_of_earlier_exports(self):
        agg = ObsAggregate()
        agg.add_run(self.context(), 0.25)
        legacy = dict(agg.to_dict(), wall={})
        again = ObsAggregate.from_dict(legacy)
        assert again.to_dict() == agg.to_dict()
        assert again.sim_digest() == agg.sim_digest()

    def test_total_wall_seconds_sums_runs(self):
        agg = ObsAggregate()
        agg.add_run(self.context(), 0.25)
        agg.add_run(self.context(), 0.5)
        assert agg.run_wall_seconds == [0.25, 0.5]
        assert agg.total_wall_seconds == 0.75

    @pytest.mark.parametrize("walls, expected", [
        ([], math.nan),
        ([0.0], math.nan),
        ([0.5, 1.5], 1.0),
    ])
    def test_runs_per_second(self, walls, expected):
        agg = ObsAggregate()
        for wall in walls:
            agg.add_run(self.context(), wall)
        if math.isnan(expected):
            assert math.isnan(agg.runs_per_second)
        else:
            assert agg.runs_per_second == expected

    def test_run_without_wall_time_adds_none(self):
        agg = ObsAggregate()
        agg.add_run(self.context())
        assert agg.runs == 1
        assert agg.run_wall_seconds == []
        assert math.isnan(agg.runs_per_second)

    def test_sim_digest_ignores_wall_times(self):
        fast, slow = ObsAggregate(), ObsAggregate()
        fast.add_run(self.context(), 0.1)
        slow.add_run(self.context(), 9.0)
        assert fast.to_dict() != slow.to_dict()
        assert fast.sim_digest() == slow.sim_digest()

    def test_cached_runs_move_sim_digest(self):
        plain, cached = ObsAggregate(), ObsAggregate()
        plain.add_run(self.context(), 0.1)
        cached.add_run(self.context(), 0.1)
        cached.add_cached()
        assert plain.sim_digest() != cached.sim_digest()


def test_uninstrumented_simulator_has_no_obs():
    assert Simulator().obs is None
