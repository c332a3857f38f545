"""Bit-identity regressions for the fixes detlint forced.

The first ``detlint src/`` run surfaced real violations: float
accumulator state in mergeable metrics (DET004), unsorted mapping
iteration in canonical exporters (DET003) and ``to_dict`` classes
without a ``from_dict`` (then DET006, now FPR002).  Each fix here
gets a regression proving the repaired code is *behaviour-preserving
where it must be* (same exported values, same dict shapes) and
*stronger where it was weak* (merge order can no longer change a bit
of the output).
"""

from __future__ import annotations

import json
import math

from repro.faults.envelope import DependabilityVerdict, SafetyEnvelope
from repro.faults.matrix import FaultMatrixResult, FaultMatrixRow
from repro.faults.plan import (
    Fault,
    FaultPlan,
    NodeOutage,
    PacketLossBurst,
    fault_from_dict,
)
from repro.core.scenario import EmergencyBrakeScenario
from repro.obs.context import ObsAggregate, ObsContext
from repro.obs.metrics import Counter
from repro.obs.spans import SpanEvent, SpanStats


# ----------------------------------------------------------------------
# DET004: exact accumulators make merges order-independent
# ----------------------------------------------------------------------

class TestExactCounter:
    def test_float_value_unchanged_for_simple_increments(self):
        counter = Counter()
        for _ in range(3):
            counter.inc()
        counter.inc(2.5)
        assert counter.value == 5.5

    def test_merge_is_order_independent_bit_for_bit(self):
        # 0.1 is not representable in binary; a float accumulator
        # folds these differently depending on association order.
        amounts = [0.1] * 10 + [0.2] * 10 + [0.3] * 10
        shards = []
        for offset in range(3):
            shard = Counter()
            for amount in amounts[offset::3]:
                shard.inc(amount)
            shards.append(shard)

        forward = Counter()
        for shard in shards:
            forward.merge(shard)
        backward = Counter()
        for shard in reversed(shards):
            backward.merge(shard)
        assert forward.value == backward.value
        assert forward.to_dict() == backward.to_dict()

    def test_roundtrip_is_stable(self):
        counter = Counter()
        counter.inc(0.1)
        counter.inc(0.2)
        again = Counter.from_dict(counter.to_dict())
        assert again.to_dict() == counter.to_dict()


class TestExactSpanStats:
    def test_export_keys_and_values(self):
        stats = SpanStats()
        stats.add(1.0)
        stats.add(5.0)
        entry = stats.to_dict()
        assert set(entry) == {"count", "total_s", "min_s", "max_s",
                              "mean_s"}
        assert entry["count"] == 2
        assert entry["total_s"] == 6.0
        assert entry["mean_s"] == 3.0

    def test_merge_is_order_independent_bit_for_bit(self):
        durations = [0.1, 0.2, 0.3, 0.7, 1e-9, 123.456]
        shards = []
        for duration in durations:
            shard = SpanStats()
            shard.add(duration)
            shards.append(shard)

        forward = SpanStats()
        for shard in shards:
            forward.merge(shard)
        backward = SpanStats()
        for shard in reversed(shards):
            backward.merge(shard)
        assert forward.to_dict() == backward.to_dict()

    def test_roundtrip_is_stable(self):
        stats = SpanStats()
        stats.add(0.1)
        stats.add(2.5)
        again = SpanStats.from_dict(stats.to_dict())
        assert again.to_dict() == stats.to_dict()

    def test_empty_roundtrip(self):
        stats = SpanStats()
        again = SpanStats.from_dict(stats.to_dict())
        assert again.count == 0
        assert again.to_dict() == stats.to_dict()


# ----------------------------------------------------------------------
# FPR002 (was DET006): every to_dict has a from_dict that round-trips
# ----------------------------------------------------------------------

class TestObsRoundtrips:
    def test_span_event(self):
        event = SpanEvent(name="phy.tx", device="rsu", start=1.25,
                          end=2.5, depth=1)
        again = SpanEvent.from_dict(event.to_dict())
        assert again == event

    def test_obs_context(self):
        ctx = ObsContext()
        ctx.count("kernel.events", 3)
        ctx.observe("e2e.latency", 0.042)
        ctx.set_gauge("queue.depth", 7)
        ctx.record_span("phy.tx", 1.0, 1.5, device="rsu")
        ctx.record_span("phy.tx", 2.0, 2.25, device="obu")
        again = ObsContext.from_dict(ctx.to_dict())
        assert again.to_dict() == ctx.to_dict()
        assert again.to_prometheus_text() == ctx.to_prometheus_text()

    def test_obs_aggregate(self):
        agg = ObsAggregate()
        ctx = ObsContext()
        ctx.count("kernel.events", 5)
        ctx.record_span("e2e.total", 0.0, 0.9)
        agg.add_run(ctx, wall_seconds=0.125)
        agg.add_cached()
        again = ObsAggregate.from_dict(agg.to_dict())
        assert again.to_dict() == agg.to_dict()
        assert again.runs == 1
        assert again.cached_runs == 1

    def test_obs_context_dict_is_json_canonical(self):
        ctx = ObsContext()
        ctx.count("a", 1)
        ctx.record_span("s", 0.0, 0.5)
        blob = json.dumps(ctx.to_dict(), sort_keys=True)
        again = ObsContext.from_dict(json.loads(blob))
        assert json.dumps(again.to_dict(), sort_keys=True) == blob


class TestFaultRoundtrips:
    def test_fault_base_dispatches_on_kind(self):
        fault = NodeOutage(start=2.0, duration=3.0, target="edge")
        again = Fault.from_dict(fault.to_dict())
        assert isinstance(again, NodeOutage)
        assert again == fault

    def test_subclass_from_dict_rejects_other_kinds(self):
        fault = NodeOutage(start=2.0, duration=3.0)
        try:
            PacketLossBurst.from_dict(fault.to_dict())
        except ValueError as exc:
            assert "NodeOutage" in str(exc)
        else:  # pragma: no cover - defends the assertion
            raise AssertionError("expected ValueError")

    def test_infinite_duration_roundtrip(self):
        fault = NodeOutage(start=1.0)
        entry = fault.to_dict()
        assert entry["duration"] == "inf"
        again = Fault.from_dict(entry)
        assert math.isinf(again.duration)
        assert again == fault

    def test_from_dict_agrees_with_module_function(self):
        fault = PacketLossBurst(start=0.5, duration=2.0,
                                loss_probability=0.75, station="obu")
        entry = fault.to_dict()
        assert Fault.from_dict(entry) == fault_from_dict(entry)


class TestMatrixRoundtrips:
    @staticmethod
    def _verdict(margin: float) -> DependabilityVerdict:
        return DependabilityVerdict(
            verdict="SAFE_STOP", stop_margin=margin,
            distance_beyond_action_point=0.1, denm_delivered=True,
            detected=True, actuated=True, halted=True,
            total_delay_ms=142.0)

    def test_row_roundtrip(self):
        plan = FaultPlan(name="outage",
                         faults=(NodeOutage(start=1.0, duration=2.0),))
        row = FaultMatrixRow(plan=plan,
                             verdicts=[self._verdict(0.61),
                                       self._verdict(0.75)])
        again = FaultMatrixRow.from_dict(row.to_dict())
        assert again.to_dict() == row.to_dict()
        assert again.name == "outage"
        assert again.runs == 2

    def test_result_roundtrip(self):
        plan = FaultPlan.empty()
        row = FaultMatrixRow(plan=plan, verdicts=[self._verdict(0.6)])
        result = FaultMatrixResult(
            scenario=EmergencyBrakeScenario(),
            envelope=SafetyEnvelope(),
            base_seed=11,
            rows=[row])
        again = FaultMatrixResult.from_dict(result.to_dict())
        assert again.to_dict() == result.to_dict()
        assert again.base_seed == 11
        assert again.scenario == result.scenario
        assert again.envelope == result.envelope

    def test_result_dict_survives_json(self):
        result = FaultMatrixResult(
            scenario=EmergencyBrakeScenario(),
            envelope=SafetyEnvelope(),
            base_seed=3,
            rows=[])
        blob = json.dumps(result.to_dict(), sort_keys=True)
        again = FaultMatrixResult.from_dict(json.loads(blob))
        assert json.dumps(again.to_dict(), sort_keys=True) == blob
