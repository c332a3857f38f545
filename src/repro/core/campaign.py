"""The campaign engine: run jobs, one executor, one run cache.

The paper's populations (Table II latency, Table III braking, the
Figure 11 EDF) are built from repeated runs of the same scenario with
different seeds.  Each run is an independent, fully deterministic
discrete-event simulation described by one *run job* -- a
:class:`BrakeJob` here, a :class:`~repro.core.fleet.campaign.FleetJob`
for the fleet family -- which knows its queue payload, its cache key,
how to execute itself and how to rebuild its result from the stored
artifact body.  :func:`execute_jobs` is the one executor: it runs a
job list serially, on one ``ProcessPoolExecutor`` or on the durable
work queue (:mod:`repro.core.queue`), uses one
:class:`~repro.core.artifacts.ArtifactStore` as the run cache, and
folds results and observability data in job-list order.  The public
campaign entry points only build job lists.

Two guarantees hold by construction and are enforced by the test
suite (``tests/test_campaign_engine.py``):

* **Backend equivalence** -- the DES kernel is deterministic per
  seed, every run gets its own testbed, and results are folded in
  job-list order whatever order they completed in, so ``workers=N``
  and the queue produce *bit-identical* results to ``workers=1``.
* **Cache transparency** -- completed runs are cached on disk keyed by
  a SHA-256 fingerprint of the frozen scenario config (seed included),
  so repeated campaigns (e.g. ``cdf`` after ``campaign``) skip
  already-computed runs; a hit deserialises to the identical result,
  any change to the scenario or seed changes the key, and a corrupt
  cache entry silently falls back to recomputing.
"""

from __future__ import annotations

import dataclasses
import os
from time import perf_counter
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    TYPE_CHECKING,
)

from repro.core.artifacts import ArtifactStore, CACHE_FORMAT
from repro.core.fingerprint import spec_fingerprint
from repro.core.measurement import RunMeasurement
from repro.core.scenario import EmergencyBrakeScenario, scenario_from_dict
from repro.core.testbed import CampaignResult, ScaleTestbed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan
    from repro.obs import ObsAggregate, ObsContext

#: The campaign execution backends :func:`execute_jobs` (and every
#: campaign entry point riding it) can shard over: ``pool`` is the
#: in-process ``ProcessPoolExecutor``, ``queue`` the durable SQLite
#: work queue of :mod:`repro.core.queue` (leases, heartbeat expiry,
#: retry/requeue on worker loss, dead-letter after bounded retries).
#: Both fold to bit-identical results by construction.
BACKENDS = ("pool", "queue")


def scenario_fingerprint(scenario: EmergencyBrakeScenario,
                         fault_plan: Optional["FaultPlan"] = None,
                         salt: Optional[str] = None) -> str:
    """A stable SHA-256 key for one ``(scenario, plan, seed)`` item.

    The frozen scenario dataclass (nested configs included) is
    flattened to canonical JSON -- sorted keys, exact float reprs --
    and hashed together with :data:`CACHE_FORMAT`, the installed
    package version and the fault plan (if any).  Changing *any*
    scenario field (the seed included), any fault parameter or the
    package itself changes the key; an absent plan and an *empty*
    plan fingerprint identically, because they run identically.

    *salt* namespaces callers that derive scenarios from a wider
    context: the variation engine passes ``"<spec hash>:<point
    hash>"`` so varied runs cache under (spec, point, seed) and can
    never collide with a plain campaign over the same scenario.
    """
    plan_dict = None
    if fault_plan is not None and not fault_plan.is_empty:
        plan_dict = fault_plan.to_dict()
    return spec_fingerprint("scenario", CACHE_FORMAT, {
        # detlint: ignore[FPR004] -- tie_break is deliberately cache-separating: policies are proven bit-identical by the tie-audit, but cached entries must never mix policies (ARCHITECTURE.md §11)
        "scenario": dataclasses.asdict(scenario),
        "fault_plan": plan_dict,
        "salt": salt,
    })


# ---------------------------------------------------------------------------
# Run jobs
# ---------------------------------------------------------------------------


class RunJob(Protocol):
    """One deterministic run, as the executor and the queue see it.

    ``to_dict``/``from_dict`` are the canonical queue payload; ``key``
    is the content fingerprint the result is cached under;
    ``execute`` simulates and returns the artifact body
    (``{"kind", ...}``); ``result`` rebuilds the run result from a
    body -- fresh or cached -- and rebinds ``run_id``, because the key
    pins the scenario and seed, not the position in a campaign.
    ``scenario_type`` builds the family's default scenario and
    ``campaign_type`` wraps a population of results.
    """

    kind: ClassVar[str]
    scenario_type: ClassVar[Callable[..., Any]]
    campaign_type: ClassVar[Callable[..., Any]]
    scenario: Any
    run_id: int
    plan_index: int
    key: str

    def to_dict(self) -> Dict[str, Any]: ...

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunJob": ...

    def execute(self, obs_ctx: Optional["ObsContext"]) -> Dict[str, Any]:
        ...

    def result(self, body: Dict[str, Any]) -> Any: ...


@dataclasses.dataclass
class BrakeJob:
    """One emergency-brake run of *scenario* (seed included).

    The fault plan (an empty one runs as no plan) is installed on the
    run's fresh testbed.  *salt* only namespaces the cache key (see
    :func:`scenario_fingerprint`), so the payload carries the key
    rather than the salt.  *plan_index* orders the fault matrix's
    plans in the queue fold.
    """

    kind: ClassVar[str] = "brake"
    scenario_type: ClassVar[Callable[..., Any]] = EmergencyBrakeScenario
    campaign_type: ClassVar[Callable[..., Any]] = CampaignResult
    scenario: EmergencyBrakeScenario
    run_id: int
    fault_plan: Optional["FaultPlan"] = None
    salt: Optional[str] = None
    plan_index: int = 0
    key: str = ""

    def __post_init__(self) -> None:
        if self.fault_plan is not None and self.fault_plan.is_empty:
            self.fault_plan = None
        if not self.key:
            self.key = scenario_fingerprint(self.scenario,
                                            self.fault_plan,
                                            salt=self.salt)

    def to_dict(self) -> Dict[str, Any]:
        """The canonical queue payload (the observe flag aside)."""
        return {
            "scenario": dataclasses.asdict(self.scenario),
            "fault_plan": None if self.fault_plan is None
            else self.fault_plan.to_dict(),
            "run_id": self.run_id,
            "plan_index": self.plan_index,
            "result_key": self.key,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BrakeJob":
        """Rebuild a job from its queue payload."""
        from repro.faults.plan import FaultPlan

        plan = data["fault_plan"]
        return cls(scenario_from_dict(data["scenario"]),
                   int(data["run_id"]),
                   None if plan is None else FaultPlan.from_dict(plan),
                   plan_index=int(data["plan_index"]),
                   key=str(data["result_key"]))

    def execute(self, obs_ctx: Optional["ObsContext"] = None,
                ) -> Dict[str, Any]:
        """One fresh testbed, one run; the artifact body."""
        testbed = ScaleTestbed(self.scenario, run_id=self.run_id,
                               obs=obs_ctx)
        if self.fault_plan is not None:
            from repro.faults.injector import install_faults

            install_faults(testbed, self.fault_plan)
        return {"kind": self.kind,
                "measurement": testbed.run().to_dict()}

    def result(self, body: Dict[str, Any]) -> RunMeasurement:
        """The measurement stored in *body*, as this job's run."""
        measurement = RunMeasurement.from_dict(body["measurement"])
        measurement.run_id = self.run_id
        return measurement


def seeded_jobs(job_type: Callable[..., RunJob], scenario: Any,
                runs: int, base_seed: int,
                **fields: Any) -> List[RunJob]:
    """*runs* jobs: job ``i`` runs ``scenario.with_seed(base_seed + i)``
    as ``run_id = i + 1``; *fields* go to every job."""
    if runs < 0:
        raise ValueError(f"runs must be >= 0, got {runs}")
    return [job_type(scenario.with_seed(base_seed + index), index + 1,
                     **fields)
            for index in range(runs)]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RunOutcome:
    """One streamed completion: which run finished, and from where."""

    run_id: int
    seed: int
    cached: bool
    result: Any


#: Called after each run completes: ``progress(outcome, done, total)``.
ProgressCallback = Callable[[RunOutcome, int, int], None]


def cached_body(store: ArtifactStore, job: RunJob,
                ) -> Optional[Dict[str, Any]]:
    """The cache-hit rule: the verified body stored for *job*, if any.

    Both the in-process executor and the queue worker decide hits
    here: a body the store verified, of the job's kind, satisfies the
    job.  A hit never re-simulates to collect observability data:
    :func:`fold_obs` counts a body without it as a cached run.
    """
    body = store.get(job.key)
    if body is None or body.get("kind") != job.kind:
        return None
    return body


def simulate(job: RunJob, observe: bool) -> Dict[str, Any]:
    """Execute *job*; an observed run ships its context in the body.

    Module-level so it pickles into pool workers.  The observability
    context travels as its canonical dict (the round trip is
    byte-exact), with the measured wall time of the run.
    """
    if not observe:
        return job.execute(None)
    from repro.obs import ObsContext

    obs_ctx = ObsContext()
    started = perf_counter()
    body = job.execute(obs_ctx)
    body["wall_s"] = perf_counter() - started
    body["obs"] = obs_ctx.to_dict()
    return body


def fold_obs(obs: Optional["ObsAggregate"],
             body: Dict[str, Any]) -> None:
    """Fold one body into *obs*: its context if stored, else cached."""
    if obs is None:
        return
    if body.get("obs") is not None:
        from repro.obs import ObsContext

        obs.add_run(ObsContext.from_dict(body["obs"]), body.get("wall_s"))
    else:
        obs.add_cached()


def execute_jobs(
    jobs: Sequence[RunJob],
    workers: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    obs: Optional["ObsAggregate"] = None,
    backend: str = "pool",
    queue_dir: Optional[str] = None,
) -> List[Any]:
    """Run *jobs* and return their results in job-list order.

    ``workers=0`` auto-sizes to the machine (``os.cpu_count()``).
    With a *cache_dir*, jobs whose verified body is already stored
    (:func:`cached_body`) are served from it, and every simulated body
    is stored.  The ``pool`` backend simulates the misses in-process
    (``workers=1``) or across one ``ProcessPoolExecutor``; the
    ``queue`` backend runs every job on the durable work queue under
    *queue_dir* (a temporary directory when None), surviving worker
    loss via lease expiry and bounded retries.  Completions stream
    through *progress* in completion order; results and the *obs*
    aggregate are folded in job-list order, so neither backend,
    worker count nor cache state changes a byte of either (wall-clock
    profile stats aside, which are real measured times).
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), "
                         f"got {workers}")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    if workers == 0:
        workers = os.cpu_count() or 1
    observe = obs is not None
    bodies: Dict[int, Dict[str, Any]] = {}
    results: Dict[int, Any] = {}

    def finish(index: int, body: Dict[str, Any], cached: bool) -> None:
        job = jobs[index]
        bodies[index] = body
        results[index] = job.result(body)
        if progress is not None:
            progress(RunOutcome(run_id=job.run_id, seed=job.scenario.seed,
                                cached=cached, result=results[index]),
                     len(results), len(jobs))

    if backend == "queue" and jobs:
        from repro.core.queue.campaign import execute_on_queue

        execute_on_queue(jobs, workers, cache_dir, queue_dir, observe,
                         finish)
    else:
        store = ArtifactStore(cache_dir) if cache_dir else None
        pending = []
        for index, job in enumerate(jobs):
            hit = cached_body(store, job) if store is not None else None
            if hit is not None:
                finish(index, hit, True)
            else:
                pending.append(index)

        def complete(index: int, body: Dict[str, Any]) -> None:
            if store is not None:
                store.put(jobs[index].key, body)
            finish(index, body, False)

        if workers > 1 and len(pending) > 1:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(workers, len(pending))) as pool:
                futures = {pool.submit(simulate, jobs[index], observe):
                           index for index in pending}
                for future in concurrent.futures.as_completed(futures):
                    complete(futures[future], future.result())
        else:
            for index in pending:
                complete(index, simulate(jobs[index], observe))

    for index in range(len(jobs)):
        fold_obs(obs, bodies[index])
    return [results[index] for index in range(len(jobs))]


def run_campaign_parallel(
    scenario: Optional[EmergencyBrakeScenario] = None,
    runs: int = 5,
    base_seed: int = 1,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    fault_plan: Optional["FaultPlan"] = None,
    obs: Optional["ObsAggregate"] = None,
    cache_salt: Optional[str] = None,
    backend: str = "pool",
    queue_dir: Optional[str] = None,
) -> CampaignResult:
    """Run *runs* repetitions of *scenario*, sharded over *workers*.

    Work item ``i`` runs ``scenario.with_seed(base_seed + i)`` as
    ``run_id = i + 1`` -- exactly what the serial
    :func:`~repro.core.testbed.run_campaign` does.  A *fault_plan* is
    installed on every run's fresh testbed (and folded into the cache
    fingerprint); an empty or absent plan reproduces the fault-free
    campaign bit for bit.  *cache_salt* is folded into every run's
    cache fingerprint (see :func:`scenario_fingerprint`); it never
    changes what is simulated, only under which key the result is
    cached.

    With an *obs* aggregate, every simulated run is instrumented with
    a fresh :class:`~repro.obs.ObsContext` folded into the aggregate;
    cache hits fold their stored context, or count via
    ``add_cached`` when none was stored.  Instrumentation never
    touches RNG draws or event scheduling, so measurements stay
    bit-identical to an unobserved campaign.

    *workers*, *cache_dir*, *progress*, *backend* and *queue_dir* are
    those of :func:`execute_jobs`.
    """
    scenario = scenario or EmergencyBrakeScenario()
    jobs = seeded_jobs(BrakeJob, scenario, runs, base_seed,
                       fault_plan=fault_plan, salt=cache_salt)
    return CampaignResult(
        scenario=scenario,
        runs=execute_jobs(jobs, workers=workers, cache_dir=cache_dir,
                          progress=progress, obs=obs, backend=backend,
                          queue_dir=queue_dir),
        obs=obs)
