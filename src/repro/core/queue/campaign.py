"""Queue-backed campaigns: enqueue jobs, drive workers, fold results.

The glue between the durable queue and the campaign engine's run
jobs (:class:`~repro.core.campaign.RunJob`).  Three layers:

* **Enqueue** -- :func:`enqueue` turns jobs into
  :class:`~repro.core.queue.backend.QueueItem` rows whose payload is
  the job's canonical dict and whose ``result_key`` is the run's
  content fingerprint (the very key the pool path caches under).
* **Drive** -- :func:`drive_queue` runs N worker processes, monitors
  the queue (expiring lost leases, streaming completions, respawning
  dead workers while retry budget remains) until every item is done
  or dead; :func:`execute_on_queue` is the executor's queue strategy
  built on the two.
* **Fold** -- :func:`fold` rebuilds the campaign a queue holds from
  the store *in (plan_index, run_id) order*, with the
  :class:`~repro.obs.ObsAggregate` the serial and pool paths produce.

**The bit-identity argument.**  Every item describes a run that is a
pure function of its payload (deterministic DES per seed); its
artifact is stored under the content fingerprint of that payload, so
a crashed-and-retried item recomputes the byte-identical entry; the
fold consumes items in a total order fixed at enqueue time -- so
completion order, lease interleaving, worker count, placement and
crash history are all invisible to the folded bytes.  Dead-lettered
items are *not* silently dropped: folding an incomplete campaign
raises :class:`DeadLetterError` naming them.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
)

from repro.core.artifacts import ArtifactStore
from repro.core.campaign import fold_obs
from repro.core.queue.backend import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    QueueItem,
    WorkQueue,
    item_identity,
)
from repro.core.queue.worker import (
    DEFAULT_POLL_SECONDS,
    JOB_KINDS,
    WorkerConfig,
    work_loop,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.campaign import RunJob
    from repro.obs import ObsAggregate


class QueueCampaignError(RuntimeError):
    """A queue campaign could not run to completion."""


class DeadLetterError(QueueCampaignError):
    """Folding was refused because items dead-lettered.

    Carries the dead-letter section so callers can surface *which*
    items were lost instead of a truncated population.
    """

    def __init__(self, dead: List[Dict[str, Any]]) -> None:
        self.dead = dead
        ids = ", ".join(entry["item_id"][:12] for entry in dead)
        super().__init__(
            f"{len(dead)} item(s) exceeded their retry budget and "
            f"dead-lettered: {ids}; see `queue status` for the "
            f"dead_letter section")


#: Filenames inside a queue directory.
QUEUE_DB = "queue.sqlite"
STORE_DIR = "store"


def queue_paths(queue_dir: str,
                cache_dir: Optional[str] = None) -> Dict[str, str]:
    """Resolve the queue DB and store root inside *queue_dir*.

    With a *cache_dir* the artifact store points there instead, so a
    queue campaign shares the pool path's run cache.
    """
    return {
        "queue": os.path.join(queue_dir, QUEUE_DB),
        "store": cache_dir if cache_dir is not None
        else os.path.join(queue_dir, STORE_DIR),
    }


# ---------------------------------------------------------------------------
# Enqueue
# ---------------------------------------------------------------------------


def _item(job: "RunJob", observe: bool) -> QueueItem:
    payload = {**job.to_dict(), "observe": observe}
    return QueueItem(item_id=item_identity(job.kind, payload),
                     kind=job.kind, payload=payload)


def enqueue(queue: WorkQueue, jobs: Sequence["RunJob"],
            observe: bool = False,
            max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> int:
    """Enqueue *jobs*; *observe* asks workers to store obs contexts.

    Returns how many items were newly inserted (re-enqueueing is
    idempotent: an item's id is the hash of its payload).
    """
    return queue.enqueue([_item(job, observe) for job in jobs],
                         max_attempts=max_attempts)


# ---------------------------------------------------------------------------
# Drive
# ---------------------------------------------------------------------------


def drive_queue(
    queue: WorkQueue,
    queue_path: str,
    store_root: str,
    workers: int,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    on_completed: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> None:
    """Run workers until every item is done or dead.

    ``workers == 1`` executes the loop in-process (fast, easy to
    debug); more workers spawn independent processes.  The monitor
    loop expires lost leases and respawns workers that died (SIGKILL
    included) while any item still has retry budget -- the queue's
    bounded ``attempts`` guarantees termination: every lease consumes
    an attempt, so items either complete or dead-letter.

    *on_completed* streams newly completed item rows (queue order
    within each poll) to the caller -- the progress seam.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    reported: Set[str] = set()

    def report_new() -> None:
        if on_completed is None:
            return
        for item in queue.items(state="done"):
            if item["item_id"] not in reported:
                reported.add(item["item_id"])
                on_completed(item)

    if workers == 1 or queue.unfinished() <= 1:
        work_loop(WorkerConfig(
            queue_path=queue_path, store_root=store_root,
            worker_id="w1", lease_seconds=lease_seconds,
            poll_seconds=poll_seconds))
        queue.expire()
        report_new()
        return

    import multiprocessing

    context = multiprocessing.get_context("spawn")

    def spawn(index: int) -> Any:
        config = WorkerConfig(
            queue_path=queue_path, store_root=store_root,
            worker_id=f"w{index}", lease_seconds=lease_seconds,
            poll_seconds=poll_seconds)
        process = context.Process(target=work_loop, args=(config,))
        process.start()
        return process

    procs = [spawn(index + 1) for index in range(workers)]
    respawned = 0
    # Bounded respawn budget: enough to re-cover every attempt the
    # queue itself allows, never an unbounded supervisor.
    max_respawns = workers * DEFAULT_MAX_ATTEMPTS
    try:
        while queue.unfinished() > 0:
            queue.expire()
            report_new()
            alive = [p for p in procs if p.is_alive()]
            if not alive and queue.unfinished() > 0:
                if respawned >= max_respawns:
                    raise QueueCampaignError(
                        f"all workers died and the respawn budget "
                        f"({max_respawns}) is exhausted with "
                        f"{queue.unfinished()} item(s) unfinished")
                respawned += 1
                procs.append(spawn(workers + respawned))
            time.sleep(poll_seconds)
        for process in procs:
            process.join(timeout=30.0)
    finally:
        for process in procs:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    queue.expire()
    report_new()


# ---------------------------------------------------------------------------
# Fold
# ---------------------------------------------------------------------------


def _body(store: ArtifactStore, item: Dict[str, Any]) -> Dict[str, Any]:
    """A done item's verified body (a lost result is an error)."""
    body = store.get(item["result_key"])
    if body is None:
        raise QueueCampaignError(
            f"artifact {item['result_key'][:12]} for item "
            f"{item['item_id'][:12]} is missing or failed "
            f"integrity verification")
    return body


def _check_finished(queue: WorkQueue) -> None:
    """Refuse to fold dead-lettered or still unfinished items."""
    dead = queue.dead_letter()
    if dead:
        raise DeadLetterError(dead)
    unfinished = queue.unfinished()
    if unfinished:
        raise QueueCampaignError(
            f"{unfinished} item(s) still pending or leased; drive "
            f"the queue (queue work/drain) before folding")


def fold(queue: WorkQueue, store: ArtifactStore,
         obs: Optional["ObsAggregate"] = None) -> Any:
    """Rebuild the campaign result a finished queue holds.

    Streams completed artifacts out of the store in ``(plan_index,
    run_id)`` order -- the job-list order every executor folds in --
    so the result (and, with *obs*, the folded aggregate) is
    byte-identical to ``workers=1``.  The campaign's scenario is its
    first run's.  Raises :class:`DeadLetterError` when items
    dead-lettered and :class:`QueueCampaignError` when items are
    unfinished, missing, or the queue is empty.
    """
    _check_finished(queue)
    items = queue.items(state="done")
    if not items:
        raise QueueCampaignError("queue holds no work items; run "
                                 "`queue enqueue` first")
    items.sort(key=lambda item: (int(item["payload"]["plan_index"]),
                                 int(item["payload"]["run_id"])))
    jobs = [JOB_KINDS[item["kind"]].from_dict(item["payload"])
            for item in items]
    results = []
    for job, item in zip(jobs, items):
        body = _body(store, item)
        fold_obs(obs, body)
        results.append(job.result(body))
    return jobs[0].campaign_type(scenario=jobs[0].scenario,
                                 runs=results, obs=obs)


# ---------------------------------------------------------------------------
# The executor's queue strategy
# ---------------------------------------------------------------------------


def execute_on_queue(
    jobs: Sequence["RunJob"],
    workers: int,
    cache_dir: Optional[str],
    queue_dir: Optional[str],
    observe: bool,
    finish: Callable[[int, Dict[str, Any], bool], None],
) -> None:
    """Run *jobs* on the durable queue; ``finish(index, body, cached)``.

    Enqueues into *queue_dir* (a fresh temporary directory when None)
    and drives *workers* worker processes to completion -- surviving
    worker loss via lease expiry and bounded retries.  With a
    *cache_dir* the artifact store doubles as the shared run cache,
    so warm entries complete without simulating.  Every completed
    job's body is handed to *finish* as it lands; a dead-lettered,
    unfinished or unreadable item raises instead.
    """
    paths = queue_paths(
        queue_dir or tempfile.mkdtemp(prefix="repro-queue-"), cache_dir)
    queue = WorkQueue(paths["queue"])
    try:
        items = [_item(job, observe) for job in jobs]
        queue.enqueue(items)
        index_of = {item.item_id: index
                    for index, item in enumerate(items)}
        store = ArtifactStore(paths["store"])

        def on_completed(item: Dict[str, Any]) -> None:
            index = index_of.get(item["item_id"])
            if index is not None:
                finish(index, _body(store, item), bool(item["cached"]))

        drive_queue(queue, paths["queue"], paths["store"],
                    workers=min(workers, len(jobs)),
                    on_completed=on_completed)
        _check_finished(queue)
    finally:
        queue.close()


__all__ = [
    "DeadLetterError",
    "JOB_KINDS",
    "QUEUE_DB",
    "QueueCampaignError",
    "STORE_DIR",
    "drive_queue",
    "enqueue",
    "execute_on_queue",
    "fold",
    "queue_paths",
]
