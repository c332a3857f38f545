"""The benchmark's workloads: their inputs, timed unit and output checks.

Every workload is closed loop: the worker starts a unit when the
previous one returns.  Unit *i* of a run with seed ``S`` gets seed
``S + i`` and run id ``i + 1`` -- the same numbering as
``run_campaign`` / ``run_fleet_campaign`` with ``base_seed=S`` -- so a
workload's digest over its first units equals the campaign digest the
``repro`` API computes for the same seeds.  *Repeat* workloads run
seed ``S`` every time instead, and every repeat must produce the same
output.

Why these four (see README.md for the numbers):

* ``brake_grid`` -- the paper's experiment; vision-bound.
* ``fleet_corner64`` -- a congested 65-receiver channel; medium and
  codec work, no vision.
* ``fleet_observed`` -- the only workload that switches ``repro.obs``
  on: a serial two-run campaign whose per-run observations are
  serialised and folded.
* ``detlint_src`` -- the analyzer over ``src/``; no simulation at all.

Building a workload imports its entry modules and builds its inputs:
that is what the ``setup_s`` probe times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from typing import Any, Callable, Dict, List, Optional

from hostspeed import Reading

#: Run-id offset of the untimed warm-up unit (its seed is ``S + 1000``).
WARMUP_INDEX = 1000

#: Runs a script under a speed probe (see :func:`hostspeed.main`).
HOSTSPEED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "hostspeed.py")


@dataclasses.dataclass
class Outcome:
    """What one unit produced."""

    #: Whether the workload's outcome check passed.
    ok: bool
    #: The result object the workload's digest is computed over.
    output: Any
    #: Simulated seconds the unit covered (0 for the analyzer).
    sim_s: float
    #: Work counts read off the result objects, for the traced pass.
    counters: Dict[str, float]
    #: The speed probe's reading from the child process that did the
    #: unit's work (``None`` when the unit ran in the calling process).
    probe: Optional[Reading] = None


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: The layer of the ``repro`` entry point a unit calls; the traced
    #: pass charges the unit's own frame to it.
    layer: str
    #: ``(seed, run_id) -> Outcome``.
    run: Callable[[int, int], Outcome]
    #: Digest over the outputs of a list of units.
    digest: Callable[[List[Any]], str]
    #: Units a timed run completes even past ``--seconds`` (its budget
    #: permitting); the digest covers exactly these.
    min_units: int
    #: Every unit runs seed ``S`` (and must reproduce the first output).
    repeat: bool
    #: The timed pass runs one untimed unit (seed ``S + 1000``) first.
    warmup: bool
    #: Seeds the traced pass runs (unit seeds of indices ``0..n-1``).
    trace_seeds: int
    #: Untraced/traced pairs the traced pass runs per seed.
    trace_pairs: int

    def seed(self, base: int, index: int) -> int:
        """The seed of unit *index* in a run with seed *base*."""
        return base if self.repeat else base + index


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _medium_counters(stats: Dict[str, int]) -> Dict[str, float]:
    """Frames sent, reception attempts and deliveries of one medium."""
    attempts = (stats["delivered"] + stats["lost_noise"]
                + stats["lost_collision"] + stats["below_sensitivity"]
                + stats["lost_fault"])
    return {"net.frames_sent": stats["sent"],
            "net.rx_attempts": attempts,
            "net.delivered": stats["delivered"]}


def _fleet_counters(runs: List[Any]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for run in runs:
        counters = _medium_counters(run.medium)
        counters["facilities.cams_sent"] = run.cams_sent
        counters["facilities.cams_received"] = run.cams_received
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def brake_grid(root: str, traced: bool = False,
               scenario: Optional[Any] = None) -> Workload:
    """The default emergency-brake run over a grid of seeds.

    Check: every run completes the six-step chain.
    """
    from repro.core.scenario import EmergencyBrakeScenario
    from repro.core.testbed import CampaignResult, ScaleTestbed

    base = scenario or EmergencyBrakeScenario()

    def run(seed: int, run_id: int) -> Outcome:
        testbed = ScaleTestbed(base.with_seed(seed), run_id=run_id)
        measurement = testbed.run()
        counters = _medium_counters(testbed.medium.stats())
        units = (testbed.obu, testbed.rsu)
        counters["facilities.cams_sent"] = sum(
            unit.station.ca.cams_sent for unit in units)
        counters["facilities.cams_received"] = sum(
            unit.station.ca.cams_received for unit in units)
        counters["roadside.frames_processed"] = (
            testbed.edge.detector.frames_processed)
        return Outcome(ok=measurement.completed, output=measurement,
                       sim_s=testbed.sim.now, counters=counters)

    def digest(outputs: List[Any]) -> str:
        return CampaignResult(scenario=base, runs=list(outputs)).digest()

    return Workload(name="brake_grid", layer="core", run=run,
                    digest=digest, min_units=10, repeat=False,
                    warmup=True, trace_seeds=10, trace_pairs=1)


def fleet_corner64(root: str, traced: bool = False,
                   scenario: Optional[Any] = None) -> Workload:
    """A 64-OBU, 2-RSU blind corner: one congested channel, no vision.

    Check: the verdict is SAFE and the DENM reaches every OBU.  Four
    simulated seconds (the warning goes out at 2 s) keep a unit near
    3 s, so a run times enough units for a stable median.
    """
    from repro.core.fleet.result import fleet_runs_digest
    from repro.core.fleet.scenario import FleetScenario
    from repro.core.fleet.testbed import FleetTestbed

    base = scenario or FleetScenario(workload="blind_corner", n_obus=64,
                                     n_rsus=2, duration=4.0)

    def run(seed: int, run_id: int) -> Outcome:
        result = FleetTestbed(base.with_seed(seed), run_id=run_id).run()
        return Outcome(
            ok=(result.verdict == "SAFE"
                and result.denm_delivered == base.n_obus),
            output=result, sim_s=base.duration,
            counters=_fleet_counters([result]))

    return Workload(name="fleet_corner64", layer="core", run=run,
                    digest=fleet_runs_digest, min_units=2, repeat=False,
                    warmup=True, trace_seeds=1, trace_pairs=2)


def fleet_observed(root: str, traced: bool = False,
                   scenario: Optional[Any] = None) -> Workload:
    """A 32-OBU convoy campaign with ``repro.obs`` on.

    The timed pass runs two runs serially in this process
    (``workers=1``); each run's ``ObsContext`` still goes through
    ``to_dict``/``from_dict`` and is folded by ``ObsAggregate.add_run``.
    A spawn pool would put two processes on the two vCPUs, whose speeds
    vary independently, and the probe of :mod:`hostspeed` could not see
    them.  The traced pass runs one of the two runs.  Three simulated
    seconds (the warning goes out at 2 s) keep a unit short enough that
    a run times several.  Check: every verdict is SAFE; repeats must
    agree on both the campaign digest and ``ObsAggregate.sim_digest()``.
    """
    from repro.core.fleet.campaign import run_fleet_campaign
    from repro.core.fleet.scenario import FleetScenario
    from repro.obs import ObsAggregate

    base = scenario or FleetScenario(workload="convoy", n_obus=32,
                                     n_rsus=2, duration=3.0)
    runs = 1 if traced else 2

    def run(seed: int, run_id: int) -> Outcome:
        aggregate = ObsAggregate()
        campaign = run_fleet_campaign(base, runs=runs, base_seed=seed,
                                      workers=1, obs=aggregate)
        return Outcome(
            ok=all(r.verdict == "SAFE" for r in campaign.runs),
            output=f"{campaign.digest()}:{aggregate.sim_digest()}",
            sim_s=runs * base.duration,
            counters=_fleet_counters(campaign.runs))

    def digest(outputs: List[Any]) -> str:
        return _sha256("\n".join(outputs))

    return Workload(name="fleet_observed", layer="core", run=run,
                    digest=digest, min_units=2, repeat=True,
                    warmup=True, trace_seeds=1, trace_pairs=3)


def detlint_src(root: str, traced: bool = False) -> Workload:
    """``python tools/detlint src/`` on the checkout, a fresh process per unit.

    The process runs under ``bench/hostspeed.py``, whose probe samples
    the speed of the CPU it runs on; its reading comes back on the last
    line of standard error.  The seed does not enter: the input is the
    source tree.  The traced pass calls ``lint_paths`` in-process
    instead.  Check: exit 0 (a clean tree).
    """
    from repro.analysis.engine import discover_files, lint_paths

    src = os.path.join(root, "src")
    discover_files([src])

    def run_cli(seed: int, run_id: int) -> Outcome:
        proc = subprocess.run(
            [sys.executable, HOSTSPEED, os.path.join("tools", "detlint"),
             "src/"],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, check=False)
        last = (proc.stderr.splitlines() or ["{}"])[-1]
        probe = Reading.from_dict(json.loads(last)["probe"])
        return Outcome(ok=proc.returncode == 0, output=proc.stdout,
                       sim_s=0.0, counters={}, probe=probe)

    def run_in_process(seed: int, run_id: int) -> Outcome:
        result = lint_paths([src])
        output = repr((result.files_checked,
                       [f.to_dict() for f in result.findings],
                       [f.to_dict() for f in result.unused_suppressions]))
        return Outcome(ok=result.exit_code == 0, output=output, sim_s=0.0,
                       counters={"analysis.files": result.files_checked})

    def digest(outputs: List[Any]) -> str:
        return _sha256("\n".join(outputs))

    return Workload(name="detlint_src", layer="analysis",
                    run=run_in_process if traced else run_cli,
                    digest=digest, min_units=1, repeat=True,
                    warmup=False, trace_seeds=1, trace_pairs=1)


#: Workload factories by name, in the order ``run.py`` runs them.
FACTORIES: Dict[str, Callable[..., Workload]] = {
    "brake_grid": brake_grid,
    "fleet_corner64": fleet_corner64,
    "fleet_observed": fleet_observed,
    "detlint_src": detlint_src,
}
