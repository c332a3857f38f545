"""The ``repro-testbed queue`` subcommand.

Operational surface of the durable work-queue backend
(:mod:`repro.core.queue`).  A queue directory holds one campaign's
whole durable state -- ``queue.sqlite`` plus the content-addressed
``store/`` -- so every action takes ``--dir``:

* ``enqueue`` -- populate the queue with one campaign's work items
  (idempotent: re-running after a crash never duplicates work);
* ``work`` -- run one worker process against the queue (the unit the
  crash tests SIGKILL);
* ``drain`` -- drive N workers until every item is done or dead;
* ``status`` -- print the canonical queue-status JSON (state counts,
  live leases, retries, and the ``dead_letter`` section);
* ``fold`` -- rebuild the campaign result from the store and print
  its digest (bit-identical to the serial and pool paths).

Example -- a crash-tolerant campaign in three terminals::

    repro-testbed queue enqueue --dir /tmp/q --runs 50 --seed 1
    repro-testbed queue drain --dir /tmp/q --workers 4
    repro-testbed queue fold --dir /tmp/q
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional

from repro.core.artifacts import ArtifactStore
from repro.core.campaign import seeded_jobs
from repro.core.queue.backend import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    WorkQueue,
)
from repro.core.queue.campaign import (
    QueueCampaignError,
    drive_queue,
    enqueue,
    fold,
    queue_paths,
)
from repro.core.queue.worker import (
    JOB_KINDS,
    add_worker_arguments,
    work_loop,
    worker_config,
)


def _open_queue(args: argparse.Namespace) -> tuple:
    paths = queue_paths(args.dir)
    return WorkQueue(paths["queue"]), paths


def _dump(document: Dict[str, Any], path: Optional[str]) -> None:
    text = json.dumps(document, indent=2, sort_keys=True,
                      default=repr)
    if path:
        # A report for humans, not durable store state: a truncated
        # dump is harmless because the command is re-runnable.
        with open(path, "w",  # detlint: ignore[EFF001] -- report output, re-runnable, not store state
                  encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        print(text)


def cmd_enqueue(args: argparse.Namespace) -> int:
    job_type = JOB_KINDS[args.family]
    jobs = seeded_jobs(job_type, job_type.scenario_type(),
                       args.runs, args.seed)
    queue, _ = _open_queue(args)
    try:
        inserted = enqueue(queue, jobs, observe=args.observe,
                           max_attempts=args.max_attempts)
        counts = queue.counts()
    finally:
        queue.close()
    print(f"enqueued {inserted} new item(s) "
          f"({args.runs} requested) into {args.dir}; "
          f"queue now: {counts}")
    return 0


def cmd_work(args: argparse.Namespace) -> int:
    paths = queue_paths(args.dir)
    completed = work_loop(worker_config(args, paths["queue"],
                                        paths["store"]))
    print(f"worker {args.worker_id}: completed {completed} item(s)")
    return 0


def cmd_drain(args: argparse.Namespace) -> int:
    queue, paths = _open_queue(args)
    try:
        drive_queue(queue, paths["queue"], paths["store"],
                    workers=args.workers, lease_seconds=args.lease)
        counts = queue.counts()
        dead = queue.dead_letter()
    finally:
        queue.close()
    print(f"drained {args.dir}: {counts}")
    if dead:
        print(f"WARNING: {len(dead)} item(s) dead-lettered "
              f"(see `queue status`)", file=sys.stderr)
        return 1
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    queue, _ = _open_queue(args)
    try:
        document = queue.status()
    finally:
        queue.close()
    _dump(document, args.json)
    return 0


def cmd_fold(args: argparse.Namespace) -> int:
    queue, paths = _open_queue(args)
    try:
        result = fold(queue, ArtifactStore(paths["store"]))
        family = queue.items(state="done")[0]["kind"]
    except QueueCampaignError as error:
        print(f"repro-testbed: error: {error}", file=sys.stderr)
        return 1
    finally:
        queue.close()
    _dump({"family": family, "runs": len(result.runs),
           "digest": result.digest()}, args.json)
    return 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``queue`` action sub-parsers to *parser*."""
    actions = parser.add_subparsers(dest="queue_command",
                                    required=True)

    def add_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dir", required=True, metavar="QUEUE_DIR",
                         help="queue directory (queue.sqlite + store/)")

    enqueue_parser = actions.add_parser(
        "enqueue", help="populate the queue with campaign items "
                        "(idempotent)")
    add_dir(enqueue_parser)
    enqueue_parser.add_argument("--family",
                                choices=sorted(JOB_KINDS),
                                default="brake",
                                help="campaign family")
    enqueue_parser.add_argument("--runs", type=int, default=5,
                                help="number of (scenario, seed) items")
    enqueue_parser.add_argument("--seed", type=int, default=1,
                                help="base seed (item i gets seed+i)")
    enqueue_parser.add_argument("--observe", action="store_true",
                                help="instrument every run "
                                     "(obs context stored per item)")
    enqueue_parser.add_argument("--max-attempts", type=int,
                                default=DEFAULT_MAX_ATTEMPTS,
                                help="leases before an item "
                                     "dead-letters")
    enqueue_parser.set_defaults(func=cmd_enqueue)

    work_parser = actions.add_parser(
        "work", help="run one worker process against the queue")
    add_dir(work_parser)
    add_worker_arguments(work_parser)
    work_parser.set_defaults(func=cmd_work)

    drain_parser = actions.add_parser(
        "drain", help="drive N workers until done or dead "
                      "(exit 1 on dead letters)")
    add_dir(drain_parser)
    drain_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes to run")
    drain_parser.add_argument("--lease", type=float,
                              default=DEFAULT_LEASE_SECONDS,
                              help="lease/heartbeat horizon (s)")
    drain_parser.set_defaults(func=cmd_drain)

    status_parser = actions.add_parser(
        "status", help="print the canonical queue-status JSON")
    add_dir(status_parser)
    status_parser.add_argument("--json", default=None, metavar="FILE",
                               help="write the document to FILE "
                                    "instead of stdout")
    status_parser.set_defaults(func=cmd_status)

    fold_parser = actions.add_parser(
        "fold", help="fold the completed items into the campaign "
                     "result and print its digest")
    add_dir(fold_parser)
    fold_parser.add_argument("--json", default=None, metavar="FILE",
                             help="write the summary to FILE "
                                  "instead of stdout")
    fold_parser.set_defaults(func=cmd_fold)


__all__ = [
    "add_arguments",
    "cmd_drain",
    "cmd_enqueue",
    "cmd_fold",
    "cmd_status",
    "cmd_work",
]
