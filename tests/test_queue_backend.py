"""Units for the artifact store, the work queue, and backend parity.

Three layers of :mod:`repro.core.queue` below the fault-recovery
battery (``test_queue_recovery.py``):

* :class:`~repro.core.artifacts.ArtifactStore` -- sharded layout,
  atomic round trips, integrity verification on read;
* :class:`~repro.core.queue.backend.WorkQueue` -- enqueue
  idempotency, lease accounting, status document shape, obs counters;
* ``backend="queue"`` parity -- campaigns, fault matrices, fleet
  campaigns and the obs aggregate all fold bit-identically to the
  pool path, and the ``queue`` CLI round-trips a whole campaign.
"""

import dataclasses
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core import EmergencyBrakeScenario, run_campaign_parallel
from repro.core.artifacts import ArtifactStore, CACHE_FORMAT, body_digest
from repro.core.campaign import BrakeJob, seeded_jobs
from repro.core.fleet.campaign import FleetJob
from repro.core.fleet import FleetScenario, run_fleet_campaign
from repro.core.queue import (
    QueueItem,
    WorkQueue,
    enqueue,
)
from repro.core.queue.backend import item_identity
from repro.obs import ObsAggregate, ObsContext

#: A short scenario so each test run stays fast.
FAST = EmergencyBrakeScenario(start_distance=4.0, timeout=15.0)

FLEET_FAST = FleetScenario(n_obus=2, duration=3.0)


def as_dicts(result):
    return [measurement.to_dict() for measurement in result.runs]


class TestArtifactStore:
    def test_round_trip_and_sharded_layout(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "ab" + "0" * 62
        body = {"kind": "brake", "measurement": {"x": 1.5}}
        path = store.put(key, body)
        assert path == os.path.join(
            str(tmp_path), "objects", "ab", f"{key}.json")
        assert store.get(key) == body
        assert store.has(key)
        assert store.keys() == [key]

    def test_missing_key_is_none(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.get("00" * 32) is None
        assert not store.has("00" * 32)

    def test_corrupt_body_fails_verification(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "cd" + "0" * 62
        store.put(key, {"value": 1})
        with open(store.path(key), "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["body"]["value"] = 2  # digest now stale
        with open(store.path(key), "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert store.get(key) is None

    def test_wrong_format_version_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "ef" + "0" * 62
        store.put(key, {"value": 1})
        with open(store.path(key), "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["format"] = CACHE_FORMAT + 1
        with open(store.path(key), "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert store.get(key) is None

    def test_truncated_entry_is_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "0a" + "0" * 62
        store.put(key, {"value": 1})
        with open(store.path(key), "w", encoding="utf-8") as handle:
            handle.write('{"format": 5, "sha')
        assert store.get(key) is None

    def test_overwrite_is_idempotent(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = "1b" + "0" * 62
        store.put(key, {"value": 1})
        store.put(key, {"value": 1})
        assert store.keys() == [key]
        assert store.get(key) == {"value": 1}

    def test_body_digest_is_canonical(self):
        assert body_digest({"b": 1, "a": 2}) == \
            body_digest({"a": 2, "b": 1})


class TestWorkQueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        queue = WorkQueue(str(tmp_path / "q.sqlite"))
        item = QueueItem(item_id=item_identity("brake", {"n": 1}),
                         kind="brake", payload={"n": 1})
        assert queue.enqueue([item]) == 1
        assert queue.enqueue([item]) == 0
        assert queue.counts()["pending"] == 1
        queue.close()

    def test_lease_consumes_attempt_and_orders_by_seq(self, tmp_path):
        queue = WorkQueue(str(tmp_path / "q.sqlite"))
        items = [QueueItem(item_id=item_identity("brake", {"n": n}),
                           kind="brake", payload={"n": n})
                 for n in range(3)]
        queue.enqueue(items)
        first = queue.lease("w1")
        assert first is not None
        assert first.payload == {"n": 0}
        assert first.attempts == 1
        second = queue.lease("w1")
        assert second is not None and second.payload == {"n": 1}
        queue.close()

    def test_heartbeat_extends_only_for_owner(self, tmp_path):
        state = {"t": 0.0}
        queue = WorkQueue(str(tmp_path / "q.sqlite"),
                          clock=lambda: state["t"])
        item = QueueItem(item_id=item_identity("brake", {}),
                         kind="brake", payload={})
        queue.enqueue([item])
        queue.lease("w1", lease_seconds=5.0)
        assert queue.heartbeat("w1", item.item_id, 5.0) is True
        assert queue.heartbeat("w2", item.item_id, 5.0) is False
        # The heartbeat moved the deadline: no expiry at t=7 after a
        # heartbeat at t=3.
        state["t"] = 3.0
        queue.heartbeat("w1", item.item_id, 5.0)
        state["t"] = 7.0
        assert queue.expire() == {"requeued": [], "dead": []}
        queue.close()

    def test_status_document_shape(self, tmp_path):
        queue = WorkQueue(str(tmp_path / "q.sqlite"))
        queue.enqueue([QueueItem(item_id=item_identity("brake", {}),
                                 kind="brake", payload={})])
        queue.lease("w1")
        status = queue.status()
        assert status["counts"] == {"pending": 0, "leased": 1,
                                    "done": 0, "dead": 0}
        assert status["depth"] == 0
        assert status["unfinished"] == 1
        assert status["attempts_total"] == 1
        assert status["retries_total"] == 0
        assert status["leases"][0]["lease_owner"] == "w1"
        assert status["dead_letter"] == []
        queue.close()

    def test_obs_counters(self, tmp_path):
        obs = ObsContext()
        state = {"t": 0.0}
        queue = WorkQueue(str(tmp_path / "q.sqlite"),
                          clock=lambda: state["t"], obs=obs)
        items = [QueueItem(item_id=item_identity("brake", {"n": n}),
                           kind="brake", payload={"n": n})
                 for n in range(2)]
        queue.enqueue(items, max_attempts=2)
        leased = queue.lease("w1", lease_seconds=5.0)
        queue.complete("w1", leased.item_id, "key")
        lost = queue.lease("w1", lease_seconds=5.0)
        state["t"] = 6.0
        queue.expire()
        queue.lease("w2", lease_seconds=5.0)
        queue.complete("w1", lost.item_id, "key")  # stale

        def value(name):
            return obs.metrics.counter(name).value

        assert value("queue.enqueued") == 2.0
        assert value("queue.leases") == 3.0
        assert value("queue.completed") == 1.0
        assert value("queue.stale_completions") == 1.0
        assert value("queue.requeued") == 1.0
        queue.close()

    def test_invalid_inputs(self, tmp_path):
        queue = WorkQueue(str(tmp_path / "q.sqlite"))
        with pytest.raises(ValueError, match="max_attempts"):
            queue.enqueue([], max_attempts=0)
        with pytest.raises(ValueError, match="unknown state"):
            queue.items(state="zombie")
        queue.close()


class TestBackendParity:
    """backend="queue" folds bit-identically to backend="pool"."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign_parallel(FAST, runs=1, backend="carrier-pigeon")
        with pytest.raises(ValueError, match="unknown backend"):
            run_fleet_campaign(FLEET_FAST, runs=1,
                               backend="carrier-pigeon")

    def test_campaign_digest_matches_pool(self, tmp_path):
        pool = run_campaign_parallel(FAST, runs=3, base_seed=4,
                                     workers=2)
        queued = run_campaign_parallel(
            FAST, runs=3, base_seed=4, workers=2, backend="queue",
            queue_dir=str(tmp_path / "q"))
        assert as_dicts(pool) == as_dicts(queued)
        assert pool.digest() == queued.digest()

    def test_queue_campaign_shares_run_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_campaign_parallel(FAST, runs=2, base_seed=4, workers=1,
                              cache_dir=cache)
        events = []
        queued = run_campaign_parallel(
            FAST, runs=2, base_seed=4, workers=1, backend="queue",
            cache_dir=cache, queue_dir=str(tmp_path / "q"),
            progress=lambda o, d, t: events.append(o.cached))
        assert events == [True, True]
        assert queued.digest() == run_campaign_parallel(
            FAST, runs=2, base_seed=4, workers=1).digest()

    def test_obs_sim_digest_matches_pool(self, tmp_path):
        pool_obs = ObsAggregate()
        queue_obs = ObsAggregate()
        run_campaign_parallel(FAST, runs=3, base_seed=4, workers=1,
                              obs=pool_obs)
        run_campaign_parallel(FAST, runs=3, base_seed=4, workers=2,
                              backend="queue", obs=queue_obs,
                              queue_dir=str(tmp_path / "q"))
        assert pool_obs.sim_digest() == queue_obs.sim_digest()

    def test_fault_matrix_backend_queue(self, tmp_path):
        from repro.faults.matrix import run_fault_matrix
        from repro.faults.plan import FaultPlan

        plans = [FaultPlan.empty("baseline")]
        pool = run_fault_matrix(FAST, plans=plans, runs=2,
                                base_seed=2, workers=1)
        queued = run_fault_matrix(FAST, plans=plans, runs=2,
                                  base_seed=2, workers=1,
                                  backend="queue",
                                  queue_dir=str(tmp_path / "q"))
        assert pool.to_dict() == queued.to_dict()

    def test_fleet_campaign_backend_queue(self, tmp_path):
        pool = run_fleet_campaign(FLEET_FAST, runs=2, workers=1)
        queued = run_fleet_campaign(FLEET_FAST, runs=2, workers=2,
                                    backend="queue",
                                    queue_dir=str(tmp_path / "q"))
        assert [r.to_dict() for r in pool.runs] == \
            [r.to_dict() for r in queued.runs]
        assert pool.digest() == queued.digest()


class TestWarmObsDigest:
    """A warm cache folds one obs digest, whatever the backend.

    The cache-hit rule is shared: a hit that stored its obs context
    folds it (``add_run``), a hit without one counts as cached, and
    nothing re-simulates to collect obs.
    """

    @pytest.mark.parametrize("observed_fill", [True, False],
                             ids=["observed-fill", "plain-fill"])
    @pytest.mark.parametrize("backend,workers",
                             [("pool", 1), ("pool", 2), ("queue", 2)],
                             ids=["serial", "pool", "queue"])
    def test_warm_sim_digest_is_backend_independent(
            self, tmp_path, backend, workers, observed_fill):
        cache = str(tmp_path / "cache")
        fill = ObsAggregate()
        run_campaign_parallel(FAST, runs=2, base_seed=4, workers=1,
                              cache_dir=cache,
                              obs=fill if observed_fill else None)
        if observed_fill:
            expected = fill
        else:
            expected = ObsAggregate()
            expected.add_cached()
            expected.add_cached()
        warm = ObsAggregate()
        run_campaign_parallel(FAST, runs=2, base_seed=4,
                              workers=workers, cache_dir=cache,
                              obs=warm, backend=backend,
                              queue_dir=str(tmp_path / "q"))
        assert warm.sim_digest() == expected.sim_digest()

    def test_pool_misses_store_their_obs(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_campaign_parallel(FAST, runs=2, base_seed=4, workers=2,
                              cache_dir=cache, obs=ObsAggregate())
        store = ArtifactStore(cache)
        bodies = [store.get(key) for key in store.keys()]
        assert len(bodies) == 2
        assert all(body["obs"] is not None and body["wall_s"] > 0
                   for body in bodies)


class TestPayloadPins:
    """Queue payloads and item ids are durable: existing queue dirs
    and caches must stay valid across refactors of the job code."""

    def _item(self, tmp_path, job):
        queue = WorkQueue(str(tmp_path / "q.sqlite"))
        enqueue(queue, [job])
        (item,) = queue.items()
        queue.close()
        return item

    def test_brake_payload_and_item_id(self, tmp_path):
        scenario = EmergencyBrakeScenario(seed=4)
        item = self._item(tmp_path, BrakeJob(scenario, run_id=1))
        key = ("e1d3f7a174ba3ee72ea50e57bb44e8aa"
               "1b237ecebe28aa7e1d3753d8795cfeb2")
        assert item["kind"] == "brake"
        assert item["item_id"] == ("d2928d20be256fa8b46e7e9878d27547"
                                   "f198db4aa1d09c78365699efb5412877")
        assert item["payload"] == {
            "scenario": json.loads(json.dumps(
                dataclasses.asdict(scenario))),
            "fault_plan": None,
            "run_id": 1,
            "plan_index": 0,
            "observe": False,
            "result_key": key,
        }

    def test_fleet_payload_and_item_id(self, tmp_path):
        item = self._item(tmp_path, FleetJob(
            FleetScenario(n_obus=2, duration=3.0, seed=4), run_id=1))
        assert item["kind"] == "fleet"
        assert item["item_id"] == ("b474192f9568a7075460fdea4e3cda24"
                                   "f077608c0b40361f19c1eea59b6747da")
        assert item["payload"] == {
            "observe": False,
            "plan_index": 0,
            "result_key": ("843de5a8ab779b871b77d79d7552c354"
                           "96fda8a8bfbed1b57811b74d7030e90b"),
            "run_id": 1,
            "scenario": {
                "brake_deceleration": 4.5, "cam_rate_hz": 10.0,
                "cbr_sample_period": 0.01, "convoy_members": 4,
                "convoy_spacing": 6.0, "cs_latency": 4e-06,
                "data_rate_bps": 3000000.0, "dcc_enabled": True,
                "dcc_thresholds": [0.03, 0.06, 0.1, 0.15],
                "denm_area_radius": 150.0,
                "denm_repetition_interval": 0.2, "desired_gap": 6.0,
                "duration": 3.0, "gbc_hop_limit": 3, "n_obus": 2,
                "n_rsus": 1, "path_loss_exponent": 2.8,
                "poll_interval": 0.02, "protagonist_start": 12.0,
                "road_length": 40.0, "seed": 4, "speed": 2.0,
                "tie_break": "fifo", "tx_power_dbm": 0.0,
                "warning_after": 2.0, "workload": "beacon",
            },
        }

    def test_payload_round_trips_to_the_same_job(self, tmp_path):
        for job in (BrakeJob(FAST, run_id=3, plan_index=2,
                             salt="spec:point"),
                    FleetJob(FLEET_FAST, run_id=2)):
            restored = type(job).from_dict(
                self._item(tmp_path / job.kind, job)["payload"])
            assert restored.to_dict() == job.to_dict()
            assert restored.key == job.key


class TestQueueCli:
    """enqueue -> work -> status -> fold, through the real CLI."""

    def test_full_round_trip(self, tmp_path, capsys):
        qdir = str(tmp_path / "q")
        assert cli_main(["queue", "enqueue", "--dir", qdir,
                         "--runs", "2", "--seed", "4"]) == 0
        assert cli_main(["queue", "work", "--dir", qdir,
                         "--worker-id", "w1"]) == 0
        status_file = str(tmp_path / "status.json")
        assert cli_main(["queue", "status", "--dir", qdir,
                         "--json", status_file]) == 0
        with open(status_file, "r", encoding="utf-8") as handle:
            status = json.load(handle)
        assert status["counts"]["done"] == 2
        assert status["dead_letter"] == []
        capsys.readouterr()
        assert cli_main(["queue", "fold", "--dir", qdir]) == 0
        summary = json.loads(capsys.readouterr().out)
        expected = run_campaign_parallel(
            EmergencyBrakeScenario(), runs=2, base_seed=4, workers=1)
        assert summary == {"family": "brake", "runs": 2,
                           "digest": expected.digest()}

    def test_fold_before_drain_fails(self, tmp_path, capsys):
        qdir = str(tmp_path / "q")
        assert cli_main(["queue", "enqueue", "--dir", qdir,
                         "--runs", "1"]) == 0
        assert cli_main(["queue", "fold", "--dir", qdir]) == 1
        assert "pending or leased" in capsys.readouterr().err

    def test_drain_reports_dead_letters(self, tmp_path, capsys):
        qdir = str(tmp_path / "q")
        from repro.core.queue.campaign import queue_paths

        paths = queue_paths(qdir)
        queue = WorkQueue(paths["queue"])
        enqueue(queue, seeded_jobs(BrakeJob, FAST, 1, 4))
        poison = QueueItem(item_id=item_identity("bogus", {}),
                           kind="bogus", payload={"result_key": "x"})
        queue.enqueue([poison], max_attempts=1)
        queue.close()
        assert cli_main(["queue", "drain", "--dir", qdir,
                         "--workers", "1"]) == 1
        assert "dead-lettered" in capsys.readouterr().err
