"""Durable work-queue campaign backend (``backend="queue"``).

The distributed half of the campaign engine: run jobs
(:class:`~repro.core.campaign.RunJob`) are enqueued as work items
into a SQLite-backed :class:`~repro.core.queue.backend.WorkQueue`,
leased by N independent worker processes with heartbeat-based lease
expiry, retried/requeued when a worker is lost mid-lease (bounded
retries, then a dead-letter state), and folded in job-list order into
the same results and :class:`~repro.obs.ObsAggregate` the serial and
process-pool paths produce -- byte-identical regardless of worker
count, placement, crash history or lease interleaving.

Results land in the content-addressed
:class:`~repro.core.artifacts.ArtifactStore` under the same SHA-256
content keys as the run cache, so a retried item recomputes into the
identical entry and pool and queue campaigns share one cache.

See ARCHITECTURE.md §14 for the lease state machine and the
bit-identity argument; ``repro-testbed queue --help`` for the CLI.
"""

from repro.core.queue.backend import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    LeasedItem,
    QueueItem,
    WorkQueue,
)
from repro.core.queue.campaign import (
    DeadLetterError,
    QueueCampaignError,
    enqueue,
    fold,
)
from repro.core.queue.worker import work_loop

__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "DeadLetterError",
    "LeasedItem",
    "QueueCampaignError",
    "QueueItem",
    "WorkQueue",
    "enqueue",
    "fold",
    "work_loop",
]
