"""Property tests: queue folds are invariant to interleavings.

Hypothesis drives the work queue through arbitrary schedules --
shuffled enqueue orders, interleaved lease/complete/fail/expire
sequences from several competing workers, lease losses and retries --
and the folded campaign must come out byte-identical every time.
This is the fold's core claim (ARCHITECTURE.md §14) exercised at the
state-machine level: the simulation runs once per job family (to mint
the reference artifacts); everything Hypothesis permutes is pure queue
mechanics.  Every property runs over both families' jobs.
"""

import functools
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EmergencyBrakeScenario
from repro.core.artifacts import ArtifactStore
from repro.core.campaign import BrakeJob, execute_jobs, seeded_jobs
from repro.core.fingerprint import canonical_json
from repro.core.fleet import FleetScenario
from repro.core.fleet.campaign import FleetJob
from repro.core.queue import (
    QueueItem,
    WorkQueue,
    enqueue,
    fold,
)
from repro.core.queue.campaign import queue_paths

#: A short scenario so the one-time reference campaign stays fast.
FAST = EmergencyBrakeScenario(start_distance=4.0, timeout=15.0)

#: Family -> (job class, short scenario): a brake and a tiny fleet job.
FAMILIES = {
    "brake": (BrakeJob, FAST),
    "fleet": (FleetJob, FleetScenario(n_obus=2, duration=3.0)),
}

RUNS = 3
BASE_SEED = 9
LEASE = 10.0
WORKERS = ("w0", "w1", "w2")


@functools.lru_cache(maxsize=None)
def reference(family):
    """One-time ground truth per family: digest, item payloads, artifacts.

    The campaign is simulated exactly once; every Hypothesis example
    then replays pure queue mechanics against these fixed artifacts.
    """
    job_type, scenario = FAMILIES[family]
    jobs = seeded_jobs(job_type, scenario, RUNS, BASE_SEED)
    cache = tempfile.mkdtemp(prefix="queue-prop-cache-")
    serial = job_type.campaign_type(
        scenario=scenario, runs=execute_jobs(jobs, cache_dir=cache))
    store = ArtifactStore(cache)
    scratch = tempfile.mkdtemp(prefix="queue-prop-ref-")
    paths = queue_paths(scratch)
    queue = WorkQueue(paths["queue"])
    enqueue(queue, jobs)
    items = queue.items()
    queue.close()
    bodies = {}
    for item, run in zip(items, serial.runs):
        assert int(item["payload"]["run_id"]) == run.run_id
        key = str(item["payload"]["result_key"])
        bodies[key] = store.get(key)
    serial_bytes = canonical_json(
        [run.to_dict() for run in serial.runs])
    return serial.digest(), serial_bytes, items, bodies


def fresh_queue(family, order, clock):
    """A new queue holding the reference items enqueued in *order*."""
    _, _, items, _ = reference(family)
    paths = queue_paths(tempfile.mkdtemp(prefix="queue-prop-"))
    queue = WorkQueue(paths["queue"], clock=clock)
    queue.enqueue(
        [QueueItem(item_id=items[index]["item_id"],
                   kind=items[index]["kind"],
                   payload=items[index]["payload"])
         for index in order],
        max_attempts=10_000)  # never dead-letter inside a property
    return queue, ArtifactStore(paths["store"])


def fold_bytes(queue, store):
    """The canonical bytes of the folded campaign."""
    result = fold(queue, store)
    return canonical_json([run.to_dict() for run in result.runs])


#: One schedule step: which worker acts, and how.
STEP = st.tuples(
    st.sampled_from(("lease", "complete", "fail", "expire")),
    st.integers(min_value=0, max_value=len(WORKERS) - 1))


def run_schedule(family, queue, store, steps):
    """Drive the queue through *steps*, then drain what remains.

    Workers "execute" an item by writing its reference artifact --
    exactly what a real worker computes, minus the simulation -- so
    completions are indistinguishable from the real thing.
    """
    _, _, _, bodies = reference(family)
    held = {worker: [] for worker in WORKERS}
    clock = {"t": 0.0}

    def do_lease(worker):
        leased = queue.lease(worker, LEASE, now=clock["t"])
        if leased is not None:
            held[worker].append(leased)

    def do_complete(worker):
        if not held[worker]:
            return
        leased = held[worker].pop(0)
        key = str(leased.payload["result_key"])
        store.put(key, bodies[key])
        queue.complete(worker, leased.item_id, key,
                       now=clock["t"])

    def do_fail(worker):
        if not held[worker]:
            return
        leased = held[worker].pop(0)
        queue.fail(worker, leased.item_id, "injected failure",
                   now=clock["t"])

    def do_expire(_worker):
        # Everyone's lease lapses; stale holders keep their handles
        # and later bounce off the owner guard.
        clock["t"] += LEASE + 1.0
        queue.expire(now=clock["t"])

    actions = {"lease": do_lease, "complete": do_complete,
               "fail": do_fail, "expire": do_expire}
    for kind, worker_index in steps:
        actions[kind](WORKERS[worker_index])

    # Drain deterministically so every example reaches a full fold.
    while queue.unfinished() > 0:
        leased = queue.lease("drain", LEASE, now=clock["t"])
        if leased is None:
            clock["t"] += LEASE + 1.0
            queue.expire(now=clock["t"])
            continue
        key = str(leased.payload["result_key"])
        store.put(key, bodies[key])
        queue.complete("drain", leased.item_id, key, now=clock["t"])


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestFoldInvariance:
    """Same items, any schedule, same bytes."""

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(list(range(RUNS))),
           steps=st.lists(STEP, max_size=30))
    def test_any_interleaving_folds_to_identical_bytes(
            self, family, order, steps):
        digest, serial_bytes, _, _ = reference(family)
        clock = {"t": 0.0}
        queue, store = fresh_queue(family, order,
                                   clock=lambda: clock["t"])
        run_schedule(family, queue, store, steps)
        payload = fold_bytes(queue, store)
        result = fold(queue, store)
        queue.close()
        assert result.digest() == digest
        # And the canonical bytes themselves, not just the digest.
        assert payload == serial_bytes

    @settings(max_examples=10, deadline=None)
    @given(order=st.permutations(list(range(RUNS))))
    def test_enqueue_order_never_changes_fold(self, family, order):
        digest, _, _, _ = reference(family)
        clock = {"t": 0.0}
        queue, store = fresh_queue(family, order,
                                   clock=lambda: clock["t"])
        run_schedule(family, queue, store, [])
        result = fold(queue, store)
        queue.close()
        assert result.digest() == digest
        assert [run.run_id for run in result.runs] == \
            list(range(1, RUNS + 1))
