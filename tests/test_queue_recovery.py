"""Fault-recovery battery for the durable work-queue backend.

The acceptance property of :mod:`repro.core.queue`: a campaign whose
workers crash mid-lease (SIGKILL included) folds to the *byte
identical* result of the serial and process-pool paths -- worker
loss changes when and where items run, never what they compute.

Covered here:

* SIGKILL a real worker subprocess mid-lease: the item requeues
  after lease expiry, a rescue worker finishes it, and the folded
  digest equals the no-crash serial and ``workers=4`` pool digests;
* double-lease prevention: a worker that stalls past its lease
  cannot complete an item that was re-leased to someone else;
* bounded retries: an item that keeps failing dead-letters after
  ``max_attempts`` leases, surfaces in the ``dead_letter`` status
  section, and makes the fold raise (never a truncated population);
* resume after a full queue restart: every connection closed, new
  processes pick up exactly the remaining items;
* crash between artifact store and completion: the retry finds the
  verified artifact and completes without recomputing;
* a poison item cannot take a worker down with it.

Every case that needs no real kill runs over both job families
(emergency brake and a tiny fleet job).

The multi-process end-to-end drain with a mid-campaign kill runs
under the ``slow`` marker (the tier-1 gate keeps the single-kill
subprocess test).
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core import EmergencyBrakeScenario, run_campaign_parallel
from repro.core.artifacts import ArtifactStore
from repro.core.campaign import BrakeJob, seeded_jobs, simulate
from repro.core.fleet import FleetScenario, run_fleet_campaign
from repro.core.fleet.campaign import FleetJob
from repro.core.queue import (
    DeadLetterError,
    QueueItem,
    WorkQueue,
    enqueue,
    fold,
)
from repro.core.queue.backend import item_identity
from repro.core.queue.campaign import queue_paths
from repro.core.queue.worker import WorkerConfig, work_loop
from repro.obs import ObsAggregate

#: A short scenario so each test run stays fast.
FAST = EmergencyBrakeScenario(start_distance=4.0, timeout=15.0)

#: A tiny fleet scenario for the same reason.
FLEET_FAST = FleetScenario(n_obus=2, duration=3.0)

#: Family -> (job class, short scenario, campaign entry point).
FAMILIES = {
    "brake": (BrakeJob, FAST, run_campaign_parallel),
    "fleet": (FleetJob, FLEET_FAST, run_fleet_campaign),
}


def family_jobs(family, runs, base_seed):
    """The jobs of one *family* campaign, as its entry point builds them."""
    job_type, scenario, _ = FAMILIES[family]
    return seeded_jobs(job_type, scenario, runs, base_seed)


def serial_campaign(family, runs, base_seed, obs=None):
    """The undisturbed ``workers=1`` campaign of one *family*."""
    _, scenario, entry_point = FAMILIES[family]
    return entry_point(scenario, runs=runs, base_seed=base_seed,
                       workers=1, obs=obs)

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def worker_argv(paths, worker_id, lease="0.8", extra=()):
    """Command line for one real worker subprocess."""
    return [sys.executable, "-m", "repro.core.queue.worker",
            "--queue", paths["queue"], "--store", paths["store"],
            "--worker-id", worker_id, "--lease", lease, *extra]


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def rescue(paths, worker_id="rescue", lease_seconds=30.0):
    """Finish the queue in-process with a fresh worker."""
    return work_loop(WorkerConfig(
        queue_path=paths["queue"], store_root=paths["store"],
        worker_id=worker_id, lease_seconds=lease_seconds))


class TestSigkillRecovery:
    """The acceptance scenario: kill a worker, fold bit-identically."""

    def test_sigkill_mid_lease_requeues_and_folds_identically(
            self, tmp_path):
        serial = run_campaign_parallel(FAST, runs=4, base_seed=11,
                                       workers=1)
        pool = run_campaign_parallel(FAST, runs=4, base_seed=11,
                                     workers=4)
        assert serial.digest() == pool.digest()

        paths = queue_paths(str(tmp_path / "q"))
        queue = WorkQueue(paths["queue"])
        enqueue(queue, seeded_jobs(BrakeJob, FAST, 4, 11))

        # A real worker that stalls on its first lease, giving us a
        # deterministic window to SIGKILL it mid-lease.
        victim = subprocess.Popen(
            worker_argv(paths, "victim", lease="0.8",
                        extra=("--stall-after-lease", "1")),
            env=worker_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            assert wait_for(
                lambda: queue.counts()["leased"] == 1), \
                "victim never leased an item"
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=10)

        # The kill left one item leased by a dead process.  After the
        # lease horizon passes, expire() requeues exactly that item.
        assert queue.counts() == {"pending": 3, "leased": 1,
                                  "done": 0, "dead": 0}
        time.sleep(0.9)
        moved = queue.expire()
        assert len(moved["requeued"]) == 1
        assert moved["dead"] == []
        assert queue.counts()["pending"] == 4

        completed = rescue(paths)
        assert completed == 4
        result = fold(queue, ArtifactStore(paths["store"]))
        queue.close()
        assert result.digest() == serial.digest()
        assert [run.run_id for run in result.runs] == [1, 2, 3, 4]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_crash_between_store_and_complete_resumes_cached(
            self, family, tmp_path):
        # A worker that stored its artifact but died before
        # complete(): the retry must find the verified artifact and
        # complete without recomputing (cached=True).
        serial = serial_campaign(family, runs=2, base_seed=5)
        paths = queue_paths(str(tmp_path / "q"))
        queue = WorkQueue(paths["queue"])
        jobs = family_jobs(family, runs=2, base_seed=5)
        enqueue(queue, jobs)

        store = ArtifactStore(paths["store"])
        key = jobs[0].key
        store.put(key, jobs[0].execute(None))

        rescue(paths)
        done = queue.items(state="done")
        by_key = {item["result_key"]: item for item in done}
        assert by_key[key]["cached"] is True
        others = [item for item in done if item["result_key"] != key]
        assert all(item["cached"] is False for item in others)
        result = fold(queue, store)
        queue.close()
        assert result.digest() == serial.digest()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_observed_crash_between_store_and_complete_folds_cold_obs(
            self, family, tmp_path):
        # The stored body carries the run's obs context: the fold
        # replays it, so the aggregate equals a cold observed run's.
        cold = ObsAggregate()
        serial_campaign(family, runs=2, base_seed=5, obs=cold)
        paths = queue_paths(str(tmp_path / "q"))
        queue = WorkQueue(paths["queue"])
        jobs = family_jobs(family, runs=2, base_seed=5)
        enqueue(queue, jobs, observe=True)
        store = ArtifactStore(paths["store"])
        store.put(jobs[0].key, simulate(jobs[0], observe=True))

        rescue(paths)
        cached = {item["result_key"]: item["cached"]
                  for item in queue.items(state="done")}
        assert cached == {jobs[0].key: True, jobs[1].key: False}
        folded = ObsAggregate()
        fold(queue, store, obs=folded)
        queue.close()
        assert (folded.runs, folded.cached_runs) == (2, 0)
        assert folded.sim_digest() == cold.sim_digest()


class TestDoubleLeasePrevention:
    """A stalled worker cannot complete a re-leased item."""

    def test_expired_owner_cannot_complete(self, tmp_path):
        state = {"t": 0.0}
        queue = WorkQueue(str(tmp_path / "q.sqlite"),
                          clock=lambda: state["t"])
        item = QueueItem(
            item_id=item_identity("brake", {"x": 1}),
            kind="brake", payload={"x": 1})
        queue.enqueue([item])

        leased = queue.lease("w1", lease_seconds=10.0)
        assert leased is not None
        # No second lease while w1 holds the only item.
        assert queue.lease("w2", lease_seconds=10.0) is None

        # w1 stalls past its deadline; the item requeues and w2
        # claims it.
        state["t"] = 11.0
        moved = queue.expire()
        assert moved["requeued"] == [item.item_id]
        released = queue.lease("w2", lease_seconds=10.0)
        assert released is not None
        assert released.attempts == 2

        # w1 comes back from the dead: everything it tries bounces.
        assert queue.heartbeat("w1", item.item_id) is False
        assert queue.complete("w1", item.item_id, "key-a") is False
        assert queue.fail("w1", item.item_id, "late failure") is None
        # The item still belongs to w2, which completes normally.
        assert queue.complete("w2", item.item_id, "key-b") is True
        done = queue.items(state="done")[0]
        assert done["completed_by"] == "w2"
        assert done["result_key"] == "key-b"
        queue.close()


class TestRetryBudget:
    """Bounded retries end in the dead-letter state, loudly."""

    def test_exhausted_item_dead_letters_and_fold_raises(
            self, tmp_path):
        state = {"t": 0.0}
        paths = queue_paths(str(tmp_path / "q"))
        queue = WorkQueue(paths["queue"], clock=lambda: state["t"])
        item = QueueItem(
            item_id=item_identity("brake", {"doomed": True}),
            kind="brake", payload={"doomed": True})
        queue.enqueue([item], max_attempts=2)

        # Attempt 1 and 2 both stall out; the second expiry
        # dead-letters because the retry budget is spent.
        for expected_attempts in (1, 2):
            leased = queue.lease(f"w{expected_attempts}",
                                 lease_seconds=5.0)
            assert leased is not None
            assert leased.attempts == expected_attempts
            state["t"] += 6.0
            moved = queue.expire()
            if expected_attempts < 2:
                assert moved["requeued"] == [item.item_id]
            else:
                assert moved["dead"] == [item.item_id]

        assert queue.lease("w3") is None
        status = queue.status()
        assert status["counts"]["dead"] == 1
        assert len(status["dead_letter"]) == 1
        entry = status["dead_letter"][0]
        assert entry["item_id"] == item.item_id
        assert entry["attempts"] == 2
        assert "lease expired" in entry["last_error"]

        with pytest.raises(DeadLetterError) as excinfo:
            fold(queue, ArtifactStore(paths["store"]))
        assert excinfo.value.dead[0]["item_id"] == item.item_id
        queue.close()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_poison_item_dead_letters_without_killing_worker(
            self, family, tmp_path):
        paths = queue_paths(str(tmp_path / "q"))
        queue = WorkQueue(paths["queue"])
        enqueue(queue, family_jobs(family, runs=2, base_seed=7),
                max_attempts=2)
        poison = QueueItem(
            item_id=item_identity("no-such-kind", {}),
            kind="no-such-kind", payload={"result_key": "x"})
        queue.enqueue([poison], max_attempts=2)

        # One worker survives the poison item (fail -> requeue ->
        # fail -> dead) and still completes the two good runs.
        completed = rescue(paths)
        assert completed == 2
        assert queue.counts() == {"pending": 0, "leased": 0,
                                  "done": 2, "dead": 1}
        entry = queue.dead_letter()[0]
        assert entry["item_id"] == poison.item_id
        assert "no-such-kind" in entry["last_error"]
        with pytest.raises(DeadLetterError):
            fold(queue, ArtifactStore(paths["store"]))
        queue.close()


class TestRestartResume:
    """Durable state survives closing every connection."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_resume_after_full_queue_restart(self, family, tmp_path):
        serial = serial_campaign(family, runs=4, base_seed=3)
        paths = queue_paths(str(tmp_path / "q"))

        queue = WorkQueue(paths["queue"])
        enqueue(queue, family_jobs(family, runs=4, base_seed=3))
        # First life: complete two items, then shut everything down.
        completed = work_loop(WorkerConfig(
            queue_path=paths["queue"], store_root=paths["store"],
            worker_id="first-life", max_items=2))
        assert completed == 2
        queue.close()
        del queue

        # Second life: a brand-new connection sees exactly the
        # remaining work, and enqueueing again is a no-op.
        reopened = WorkQueue(paths["queue"])
        assert reopened.counts()["done"] == 2
        assert reopened.unfinished() == 2
        assert enqueue(reopened, family_jobs(family, runs=4,
                                             base_seed=3)) == 0
        completed = rescue(paths, worker_id="second-life")
        assert completed == 2
        result = fold(reopened, ArtifactStore(paths["store"]))
        reopened.close()
        assert result.digest() == serial.digest()


@pytest.mark.slow
class TestMultiWorkerKillEndToEnd:
    """The CI smoke scenario: 3 real workers, one killed mid-run."""

    def test_three_workers_one_killed_digest_identical(self, tmp_path):
        runs = 8
        pool = run_campaign_parallel(FAST, runs=runs, base_seed=21,
                                     workers=4)
        paths = queue_paths(str(tmp_path / "q"))
        queue = WorkQueue(paths["queue"])
        enqueue(queue, seeded_jobs(BrakeJob, FAST, runs, 21))

        victim = subprocess.Popen(
            worker_argv(paths, "victim", lease="0.8",
                        extra=("--stall-after-lease", "2")),
            env=worker_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        survivors = [
            subprocess.Popen(worker_argv(paths, f"w{index}",
                                         lease="5.0",
                                         extra=("--daemon",)),
                             env=worker_env(),
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
            for index in (1, 2)
        ]
        try:
            assert wait_for(lambda: any(
                item["lease_owner"] == "victim"
                for item in queue.items(state="leased")), timeout=60)
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)

            def finished():
                queue.expire()
                return queue.unfinished() == 0

            assert wait_for(finished, timeout=120), \
                f"queue stuck: {queue.status()}"
        finally:
            for process in [victim, *survivors]:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)

        assert queue.counts()["done"] == runs
        assert queue.dead_letter() == []
        result = fold(queue, ArtifactStore(paths["store"]))
        queue.close()
        assert result.digest() == pool.digest()
