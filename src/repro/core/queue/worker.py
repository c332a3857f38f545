"""Queue workers: lease, execute deterministically, store, complete.

A worker is a plain loop over one :class:`~repro.core.queue.backend.
WorkQueue` and one :class:`~repro.core.artifacts.ArtifactStore`:
claim the oldest pending item, execute the deterministic run it
describes, write the result under its content key, mark the item
done.  Workers are interchangeable and crash-safe:

* the result key is the run's SHA-256 content fingerprint, so a
  retry after a crash recomputes the byte-identical artifact;
* a worker that dies mid-lease simply stops heartbeating -- the
  campaign driver's ``expire()`` requeues the item;
* a worker that comes back *after* its lease expired gets a False
  from ``complete()`` and abandons the item (double-lease guard);
* an item whose artifact already verifies in the store is completed
  without simulating (``cached``), which is both the warm-cache path
  and the crashed-between-store-and-complete recovery path.

``python -m repro.core.queue.worker`` (or ``repro-testbed queue
work``, which shares its flags) runs one worker process; the campaign
driver spawns them via ``multiprocessing``.  The *stall_after_lease*
hook exists for the crash/recovery test battery (CONTRIBUTING.md): it
makes the worker hold its Nth lease without completing it, giving
tests and the CI smoke job a deterministic window in which to SIGKILL
it.
"""

from __future__ import annotations

import argparse
import dataclasses
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.artifacts import ArtifactStore
from repro.core.campaign import BrakeJob, cached_body, simulate
from repro.core.fleet.campaign import FleetJob
from repro.core.queue.backend import (
    DEFAULT_LEASE_SECONDS,
    LeasedItem,
    WorkQueue,
)

#: How long an idle worker sleeps between polls (seconds).
DEFAULT_POLL_SECONDS = 0.05


@dataclasses.dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker process needs (picklable for spawn)."""

    queue_path: str
    store_root: str
    worker_id: str
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    poll_seconds: float = DEFAULT_POLL_SECONDS
    #: Stop after completing this many items (None = until empty).
    max_items: Optional[int] = None
    #: Keep polling even when the queue looks finished (a daemon
    #: worker); the default exits once nothing is pending or leased.
    exit_when_empty: bool = True
    #: Crash-test hook: hold the Nth lease (1-based) for
    #: *stall_seconds* without completing it.  See CONTRIBUTING.md.
    stall_after_lease: Optional[int] = None
    stall_seconds: float = 3600.0


#: Work-item kind -> the job class that executes and folds it.  A new
#: scenario family is one job class and one entry here.
JOB_KINDS: Dict[str, Any] = {job.kind: job for job in (BrakeJob, FleetJob)}


def execute_item(kind: str, payload: Dict[str, Any],
                 store: ArtifactStore) -> Tuple[str, bool]:
    """Run one work item; returns ``(result_key, cached)``.

    The result key comes from the payload (it is the run's content
    fingerprint, minted at enqueue time).  A body that satisfies the
    job under the executor's cache-hit rule
    (:func:`~repro.core.campaign.cached_body`) short-circuits the
    simulation.
    """
    if kind not in JOB_KINDS:
        raise ValueError(f"unknown work item kind {kind!r}")
    job = JOB_KINDS[kind].from_dict(payload)
    if cached_body(store, job) is not None:
        return job.key, True
    store.put(job.key, simulate(job, bool(payload["observe"])))
    return job.key, False


def _stall(seconds: float) -> None:
    """Hold the current lease without progress (crash-test hook)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        time.sleep(min(0.5, seconds))


def work_loop(config: WorkerConfig) -> int:
    """One worker's whole life; returns how many items it completed.

    Exits when the queue has nothing pending or leased (unless
    configured as a daemon) or after *max_items* completions.  An
    execution error is reported through ``fail()`` -- the queue
    requeues or dead-letters the item -- and the loop continues, so
    one poison item cannot take the worker down with it.
    """
    queue = WorkQueue(config.queue_path)
    store = ArtifactStore(config.store_root)
    completed = 0
    leases_taken = 0
    try:
        while True:
            queue.expire()
            leased: Optional[LeasedItem] = queue.lease(
                config.worker_id, config.lease_seconds)
            if leased is None:
                if config.exit_when_empty and queue.unfinished() == 0:
                    return completed
                time.sleep(config.poll_seconds)
                continue
            leases_taken += 1
            if (config.stall_after_lease is not None
                    and leases_taken >= config.stall_after_lease):
                _stall(config.stall_seconds)
                # The lease almost certainly expired during the
                # stall; complete() below then refuses (the
                # double-lease guard) and the loop moves on.
            try:
                key, cached = execute_item(leased.kind, leased.payload,
                                           store)
            except Exception as error:
                queue.fail(config.worker_id, leased.item_id,
                           f"{type(error).__name__}: {error}")
                continue
            queue.heartbeat(config.worker_id, leased.item_id,
                            config.lease_seconds)
            if queue.complete(config.worker_id, leased.item_id, key,
                              cached=cached):
                completed += 1
            if (config.max_items is not None
                    and completed >= config.max_items):
                return completed
    finally:
        queue.close()


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker flags, shared by ``queue work`` and :func:`main`."""
    parser.add_argument("--worker-id", required=True,
                        help="unique id for lease ownership")
    parser.add_argument("--lease", type=float,
                        default=DEFAULT_LEASE_SECONDS,
                        help="lease/heartbeat horizon (s)")
    parser.add_argument("--poll", type=float,
                        default=DEFAULT_POLL_SECONDS,
                        help="idle poll interval (s)")
    parser.add_argument("--max-items", type=int, default=None,
                        help="stop after N completions")
    parser.add_argument("--daemon", action="store_true",
                        help="keep polling after the queue empties")
    parser.add_argument("--stall-after-lease", type=int, default=None,
                        metavar="N",
                        help="crash-test hook: hold the Nth lease "
                             "without completing it")
    parser.add_argument("--stall-seconds", type=float, default=3600.0,
                        help="how long the stall hook holds")


def worker_config(args: argparse.Namespace, queue_path: str,
                  store_root: str) -> WorkerConfig:
    """The :class:`WorkerConfig` the worker flags in *args* describe."""
    return WorkerConfig(
        queue_path=queue_path, store_root=store_root,
        worker_id=args.worker_id, lease_seconds=args.lease,
        poll_seconds=args.poll, max_items=args.max_items,
        exit_when_empty=not args.daemon,
        stall_after_lease=args.stall_after_lease,
        stall_seconds=args.stall_seconds)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.core.queue.worker``: one worker process."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.queue.worker",
        description="one work-queue worker process")
    parser.add_argument("--queue", required=True,
                        help="queue SQLite file")
    parser.add_argument("--store", required=True,
                        help="artifact store root")
    add_worker_arguments(parser)
    args = parser.parse_args(argv)
    completed = work_loop(worker_config(args, args.queue, args.store))
    print(f"worker {args.worker_id}: completed {completed} items")
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    import sys

    sys.exit(main())
