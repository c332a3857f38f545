"""Fleet campaigns: many runs, many seeds, one executor.

Run *i* gets ``base_seed + i``; every run is one :class:`FleetJob`
handed to the campaign engine's executor
(:func:`repro.core.campaign.execute_jobs`), which runs it inline,
across a process pool or on the durable work queue and caches it
under :func:`~repro.core.fleet.scenario.fleet_fingerprint`.  Results
are canonical (see :mod:`repro.core.fleet.result`), so the campaign
digest is bit-identical across worker counts and backends -- they
only change *where* runs execute, never what they compute.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, ClassVar, Dict, Optional, Sequence

from repro.core.campaign import ProgressCallback, execute_jobs, seeded_jobs
from repro.core.fleet.result import FleetCampaignResult, FleetRunResult
from repro.core.fleet.scenario import FleetScenario, fleet_fingerprint
from repro.core.fleet.testbed import FleetTestbed


@dataclasses.dataclass
class FleetJob:
    """One fleet run of *scenario* (seed included) as *run_id*."""

    kind: ClassVar[str] = "fleet"
    scenario_type: ClassVar[Callable[..., Any]] = FleetScenario
    campaign_type: ClassVar[Callable[..., Any]] = FleetCampaignResult
    scenario: FleetScenario
    run_id: int
    plan_index: int = 0
    key: str = ""

    def __post_init__(self) -> None:
        if not self.key:
            self.key = fleet_fingerprint(self.scenario)

    def to_dict(self) -> Dict[str, Any]:
        """The canonical queue payload (the observe flag aside)."""
        return {
            # to_dict (not asdict): emits the threshold tuple as a
            # list, so the payload is a JSON fixed point and hashes
            # identically before and after a queue round trip.
            "scenario": self.scenario.to_dict(),
            "run_id": self.run_id,
            "plan_index": self.plan_index,
            "result_key": self.key,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetJob":
        """Rebuild a job from its queue payload."""
        return cls(FleetScenario.from_dict(data["scenario"]),
                   int(data["run_id"]),
                   plan_index=int(data["plan_index"]),
                   key=str(data["result_key"]))

    def execute(self, obs_ctx: Any = None) -> Dict[str, Any]:
        """One fresh fleet testbed, one run; the artifact body."""
        run = FleetTestbed(self.scenario, run_id=self.run_id,
                           obs=obs_ctx).run()
        return {"kind": self.kind, "run": run.to_dict()}

    def result(self, body: Dict[str, Any]) -> FleetRunResult:
        """The run stored in *body*, as this job's run."""
        run = FleetRunResult.from_dict(body["run"])
        run.run_id = self.run_id
        return run


def run_fleet_campaign(
    scenario: Optional[FleetScenario] = None,
    runs: int = 3,
    base_seed: Optional[int] = None,
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    obs=None,
    backend: str = "pool",
    queue_dir: Optional[str] = None,
) -> FleetCampaignResult:
    """Run *runs* fleet experiments, seeds ``base_seed .. base_seed+runs-1``.

    *base_seed* defaults to the scenario's own seed.  Pass an
    :class:`~repro.obs.ObsAggregate` as *obs* to collect per-run
    observability.  *workers* (0 = one per core), *progress*,
    *backend* and *queue_dir* are those of
    :func:`~repro.core.campaign.execute_jobs`; the returned campaign
    is bit-identical whichever way it ran.
    """
    base = scenario or FleetScenario()
    jobs = seeded_jobs(FleetJob, base, runs,
                       base.seed if base_seed is None else base_seed)
    return FleetCampaignResult(
        scenario=base,
        runs=execute_jobs(jobs, workers=workers, progress=progress,
                          obs=obs, backend=backend,
                          queue_dir=queue_dir),
        obs=obs)


def run_fleet_sweep(
    sizes: Sequence[int],
    scenario: Optional[FleetScenario] = None,
    runs: int = 3,
    base_seed: Optional[int] = None,
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> Dict[int, FleetCampaignResult]:
    """One campaign per fleet size in *sizes* (same seeds throughout)."""
    base = scenario or FleetScenario()
    return {n_obus: run_fleet_campaign(
                dataclasses.replace(base, n_obus=n_obus), runs=runs,
                base_seed=base_seed, workers=workers, progress=progress)
            for n_obus in sizes}


__all__ = [
    "FleetJob",
    "run_fleet_campaign",
    "run_fleet_sweep",
]
