"""The durable SQLite work queue: leases, retries, dead letters.

One :class:`WorkQueue` is one campaign's durable state, a single
SQLite file shared by every worker process (WAL journal, immediate
transactions, busy timeout).  The item life cycle is a small state
machine::

                enqueue
                   |
                   v            lease (atomic claim)
               [pending] ----------------------------> [leased]
                   ^                                      |  |
                   |   expire / fail, attempts < max      |  |
                   +--------------------------------------+  | complete
                   |                                         | (owner only)
                   |   expire / fail, attempts >= max        v
                   +----------------------------------->  [done]
                   |
                   v
                [dead]   (the dead-letter state: surfaced by
                          ``status()``, never silently dropped)

Leases carry a heartbeat deadline in *real* time (leases schedule
work; they never feed a simulation, whose clocks are all
``sim.now``).  ``expire()`` requeues items whose deadline passed --
the worker holding them is presumed lost -- and moves items out of
retries into ``dead``.  ``complete()`` and ``fail()`` only honour the
*current* lease owner, so a worker that stalled past its lease and
came back cannot double-complete an item that was re-leased to
someone else.

Determinism: nothing in this module touches simulation state.  Item
payloads describe deterministic runs, results are content-addressed,
and the fold (:mod:`repro.core.queue.campaign`) orders by run id --
so crash history, lease interleaving and worker placement can change
*when* and *where* an item runs, never what it computes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, TYPE_CHECKING

from repro.core.fingerprint import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import ObsContext

#: How long a lease lives without a heartbeat before ``expire()``
#: presumes the worker lost and requeues the item (seconds).
DEFAULT_LEASE_SECONDS = 30.0

#: How many leases an item may consume before it dead-letters.
DEFAULT_MAX_ATTEMPTS = 3

#: Item states (see the module docstring's state machine).
STATES = ("pending", "leased", "done", "dead")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS items (
    item_id        TEXT PRIMARY KEY,
    seq            INTEGER NOT NULL,
    kind           TEXT NOT NULL,
    payload        TEXT NOT NULL,
    state          TEXT NOT NULL DEFAULT 'pending',
    attempts       INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL,
    lease_owner    TEXT,
    lease_deadline REAL,
    completed_by   TEXT,
    cached         INTEGER,
    result_key     TEXT,
    last_error     TEXT
);
CREATE INDEX IF NOT EXISTS idx_items_state_seq ON items (state, seq);
"""


@dataclasses.dataclass(frozen=True)
class QueueItem:
    """One unit of work to enqueue: a deterministic run description."""

    #: Stable identity: SHA-256 over (kind, payload); enqueueing the
    #: same item twice is a no-op.
    item_id: str
    #: ``"brake"`` or ``"fleet"`` (what the worker will execute).
    kind: str
    #: Canonical JSON-serialisable run description (scenario dict,
    #: run_id, fold ordering, result_key, ...).
    payload: Dict[str, Any]


@dataclasses.dataclass(frozen=True)
class LeasedItem:
    """One claimed item: what to run and under which lease."""

    item_id: str
    kind: str
    payload: Dict[str, Any]
    attempts: int
    lease_deadline: float


def item_identity(kind: str, payload: Dict[str, Any]) -> str:
    """The stable item id: SHA-256 over the canonical (kind, payload)."""
    import hashlib

    text = canonical_json({"kind": kind, "payload": payload})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class WorkQueue:
    """One campaign's durable queue state (a single SQLite file).

    Every worker process opens its own :class:`WorkQueue` on the same
    path; SQLite's locking makes claims atomic across processes.  A
    *clock* may be injected for tests (it must agree across the
    processes sharing the queue); the default is the host's epoch
    clock, which only ever schedules leases -- simulated results are
    functions of the item payload alone.
    """

    def __init__(self, path: str,
                 clock: Optional[Callable[[], float]] = None,
                 obs: Optional["ObsContext"] = None) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # Lease bookkeeping is real-time infrastructure, never
        # simulation input; time.time stays out of simulated paths.
        self._clock: Callable[[], float] = (
            clock if clock is not None else time.time)
        self.obs = obs
        self._db = sqlite3.connect(path, timeout=30.0)
        self._db.isolation_level = None  # explicit transactions only
        self._db.execute("PRAGMA busy_timeout = 30000")
        self._db.execute("PRAGMA journal_mode = WAL")
        self._db.execute("PRAGMA synchronous = NORMAL")
        self._db.executescript(_SCHEMA)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (the file stays durable)."""
        self._db.close()

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else now

    def _count(self, name: str, amount: int = 1) -> None:
        if self.obs is not None:
            self.obs.count(name, float(amount))

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def enqueue(self, items: Iterable[QueueItem],
                max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> int:
        """Add *items* in order; already-known ids are skipped.

        Returns how many items were actually inserted.  Idempotent by
        item id, so re-running ``queue enqueue`` after a crash never
        duplicates work.
        """
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        inserted = 0
        self._db.execute("BEGIN IMMEDIATE")
        try:
            row = self._db.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM items").fetchone()
            seq = int(row[0])
            for item in items:
                seq += 1
                cursor = self._db.execute(
                    "INSERT OR IGNORE INTO items "
                    "(item_id, seq, kind, payload, state, max_attempts) "
                    "VALUES (?, ?, ?, ?, 'pending', ?)",
                    (item.item_id, seq, item.kind,
                     canonical_json(item.payload), max_attempts))
                inserted += cursor.rowcount
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        self._count("queue.enqueued", inserted)
        return inserted

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def lease(self, worker_id: str,
              lease_seconds: float = DEFAULT_LEASE_SECONDS,
              now: Optional[float] = None) -> Optional[LeasedItem]:
        """Atomically claim the oldest pending item, or None.

        The claim happens inside one immediate transaction, so two
        workers can never hold the same item: a second ``lease()``
        either sees the row already ``leased`` or claims the next
        one.  Claiming consumes one attempt.
        """
        timestamp = self._now(now)
        deadline = timestamp + lease_seconds
        self._db.execute("BEGIN IMMEDIATE")
        try:
            row = self._db.execute(
                "SELECT item_id, kind, payload, attempts FROM items "
                "WHERE state = 'pending' ORDER BY seq LIMIT 1"
            ).fetchone()
            if row is None:
                self._db.execute("COMMIT")
                return None
            item_id, kind, payload_text, attempts = row
            self._db.execute(
                "UPDATE items SET state = 'leased', lease_owner = ?, "
                "lease_deadline = ?, attempts = attempts + 1 "
                "WHERE item_id = ? AND state = 'pending'",
                (worker_id, deadline, item_id))
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        self._count("queue.leases")
        return LeasedItem(item_id=item_id, kind=kind,
                          payload=json.loads(payload_text),
                          attempts=int(attempts) + 1,
                          lease_deadline=deadline)

    def heartbeat(self, worker_id: str, item_id: str,
                  lease_seconds: float = DEFAULT_LEASE_SECONDS,
                  now: Optional[float] = None) -> bool:
        """Extend the lease on *item_id*; False if no longer held.

        A False return tells a slow worker its lease expired and the
        item now belongs to someone else (or was requeued): it must
        abandon the item, not complete it.
        """
        deadline = self._now(now) + lease_seconds
        cursor = self._db.execute(
            "UPDATE items SET lease_deadline = ? "
            "WHERE item_id = ? AND state = 'leased' "
            "AND lease_owner = ?",
            (deadline, item_id, worker_id))
        return cursor.rowcount == 1

    def complete(self, worker_id: str, item_id: str, result_key: str,
                 cached: bool = False,
                 now: Optional[float] = None) -> bool:
        """Mark *item_id* done with its artifact key; owner only.

        Returns False when the caller no longer holds the lease --
        the double-lease guard: an expired worker that finished late
        cannot overwrite the completion of the worker that the item
        was re-leased to (results are content-addressed and byte-
        identical anyway, but attempts/ownership accounting must not
        lie).
        """
        cursor = self._db.execute(
            "UPDATE items SET state = 'done', completed_by = ?, "
            "cached = ?, result_key = ?, lease_owner = NULL, "
            "lease_deadline = NULL "
            "WHERE item_id = ? AND state = 'leased' "
            "AND lease_owner = ?",
            (worker_id, 1 if cached else 0, result_key, item_id,
             worker_id))
        completed = cursor.rowcount == 1
        if completed:
            self._count("queue.completed")
        else:
            self._count("queue.stale_completions")
        return completed

    def fail(self, worker_id: str, item_id: str, error: str,
             now: Optional[float] = None) -> Optional[str]:
        """Report a failed execution attempt; owner only.

        The item requeues while attempts remain, otherwise it
        dead-letters with *error* recorded.  Returns the new state
        (``"pending"`` / ``"dead"``) or None when the caller no
        longer held the lease.
        """
        self._db.execute("BEGIN IMMEDIATE")
        try:
            row = self._db.execute(
                "SELECT attempts, max_attempts FROM items "
                "WHERE item_id = ? AND state = 'leased' "
                "AND lease_owner = ?",
                (item_id, worker_id)).fetchone()
            if row is None:
                self._db.execute("COMMIT")
                return None
            attempts, max_attempts = int(row[0]), int(row[1])
            state = "dead" if attempts >= max_attempts else "pending"
            self._db.execute(
                "UPDATE items SET state = ?, lease_owner = NULL, "
                "lease_deadline = NULL, last_error = ? "
                "WHERE item_id = ?",
                (state, error, item_id))
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        self._count("queue.failures")
        if state == "dead":
            self._count("queue.dead_letter")
        return state

    def expire(self, now: Optional[float] = None) -> Dict[str, List[str]]:
        """Requeue or dead-letter every item whose lease lapsed.

        The recovery path for lost workers: any ``leased`` item whose
        deadline is behind *now* goes back to ``pending`` (attempts
        permitting) or to ``dead``.  Safe to call from anyone, any
        number of times -- workers call it opportunistically before
        polling, the campaign driver calls it in its monitor loop.
        Returns ``{"requeued": [...], "dead": [...]}`` item ids in
        queue order.
        """
        timestamp = self._now(now)
        requeued: List[str] = []
        dead: List[str] = []
        self._db.execute("BEGIN IMMEDIATE")
        try:
            rows = self._db.execute(
                "SELECT item_id, attempts, max_attempts, lease_owner "
                "FROM items WHERE state = 'leased' "
                "AND lease_deadline < ? ORDER BY seq",
                (timestamp,)).fetchall()
            for item_id, attempts, max_attempts, owner in rows:
                if int(attempts) >= int(max_attempts):
                    dead.append(item_id)
                    self._db.execute(
                        "UPDATE items SET state = 'dead', "
                        "lease_owner = NULL, lease_deadline = NULL, "
                        "last_error = ? WHERE item_id = ?",
                        (f"lease expired (worker {owner!r} lost, "
                         f"attempt {attempts}/{max_attempts})",
                         item_id))
                else:
                    requeued.append(item_id)
                    self._db.execute(
                        "UPDATE items SET state = 'pending', "
                        "lease_owner = NULL, lease_deadline = NULL, "
                        "last_error = ? WHERE item_id = ?",
                        (f"lease expired (worker {owner!r} lost, "
                         f"attempt {attempts}/{max_attempts}); "
                         f"requeued", item_id))
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        self._count("queue.expired", len(requeued) + len(dead))
        self._count("queue.requeued", len(requeued))
        self._count("queue.dead_letter", len(dead))
        return {"requeued": requeued, "dead": dead}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """state -> item count, every state present."""
        rows = self._db.execute(
            "SELECT state, COUNT(*) FROM items GROUP BY state"
        ).fetchall()
        found = {state: int(count) for state, count in rows}
        return {state: found.get(state, 0) for state in STATES}

    def unfinished(self) -> int:
        """How many items still need work (pending + leased)."""
        counts = self.counts()
        return counts["pending"] + counts["leased"]

    def items(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        """Item rows (payload parsed), queue order, optionally filtered."""
        query = ("SELECT item_id, seq, kind, payload, state, attempts, "
                 "max_attempts, lease_owner, lease_deadline, "
                 "completed_by, cached, result_key, last_error "
                 "FROM items")
        args: tuple = ()
        if state is not None:
            if state not in STATES:
                raise ValueError(
                    f"unknown state {state!r}; choose from {STATES}")
            query += " WHERE state = ?"
            args = (state,)
        query += " ORDER BY seq"
        out: List[Dict[str, Any]] = []
        for row in self._db.execute(query, args).fetchall():
            out.append({
                "item_id": row[0],
                "seq": int(row[1]),
                "kind": row[2],
                "payload": json.loads(row[3]),
                "state": row[4],
                "attempts": int(row[5]),
                "max_attempts": int(row[6]),
                "lease_owner": row[7],
                "lease_deadline": row[8],
                "completed_by": row[9],
                "cached": None if row[10] is None else bool(row[10]),
                "result_key": row[11],
                "last_error": row[12],
            })
        return out

    def dead_letter(self) -> List[Dict[str, Any]]:
        """The dead-letter section: exhausted items, queue order."""
        return [
            {"item_id": item["item_id"],
             "kind": item["kind"],
             "attempts": item["attempts"],
             "max_attempts": item["max_attempts"],
             "last_error": item["last_error"]}
            for item in self.items(state="dead")
        ]

    def status(self) -> Dict[str, Any]:
        """The canonical queue-status document (``queue status``)."""
        counts = self.counts()
        attempts_total = self._db.execute(
            "SELECT COALESCE(SUM(attempts), 0) FROM items").fetchone()
        leased = [
            {"item_id": item["item_id"],
             "lease_owner": item["lease_owner"],
             "lease_deadline": item["lease_deadline"],
             "attempts": item["attempts"]}
            for item in self.items(state="leased")
        ]
        if self.obs is not None:
            self.obs.set_gauge("queue.depth", float(counts["pending"]))
        return {
            "counts": counts,
            "depth": counts["pending"],
            "unfinished": counts["pending"] + counts["leased"],
            "attempts_total": int(attempts_total[0]),
            "retries_total": max(
                0, int(attempts_total[0])
                - sum(1 for item in self.items()
                      if item["attempts"] > 0)),
            "leases": leased,
            "dead_letter": self.dead_letter(),
        }


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "LeasedItem",
    "QueueItem",
    "STATES",
    "WorkQueue",
    "item_identity",
]
