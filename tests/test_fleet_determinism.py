"""Fleet bit-identity: workers, tie-break policies, golden fixture.

The acceptance bar for the fleet layer: a 32-OBU / 2-RSU campaign over
three seeds must produce byte-identical canonical results across
``workers=1`` vs ``workers=4`` and across all three kernel tie-break
policies, with the congestion actually visible (non-zero ``net.cbr``
samples and DCC state transitions in the observability export).
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.core.fleet import (
    FleetScenario,
    FleetTestbed,
    canonical_json,
    fleet_runs_digest,
    golden_scenario,
    run_fleet,
    run_fleet_campaign,
    run_fleet_sweep,
)
from repro.obs import ObsAggregate

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fleet_16obu_seed1.json")

ACCEPTANCE = FleetScenario(n_obus=32, n_rsus=2, duration=5.0)


class TestWorkerBitIdentity:
    def test_32_obu_campaign_identical_across_workers_and_obs(self):
        obs_serial = ObsAggregate()
        serial = run_fleet_campaign(ACCEPTANCE, runs=3, workers=1,
                                    obs=obs_serial)
        obs_pool = ObsAggregate()
        pooled = run_fleet_campaign(ACCEPTANCE, runs=3, workers=4,
                                    obs=obs_pool)
        assert serial.digest() == pooled.digest()
        assert (canonical_json(serial.to_dict())
                == canonical_json(pooled.to_dict()))
        # The instrumented aggregates merge exactly: identical metric
        # and span content whichever pool executed the runs.
        serial_dict, pool_dict = obs_serial.to_dict(), obs_pool.to_dict()
        for key in ("metrics", "spans", "runs", "cached_runs"):
            assert serial_dict[key] == pool_dict[key], key
        # The congestion is real: CBR was sampled and DCC moved.
        metrics = serial_dict["metrics"]
        cbr_keys = [k for k in metrics if k.startswith("net.cbr")]
        transition_keys = [k for k in metrics
                           if k.startswith("dcc.state_transitions")]
        assert cbr_keys
        assert transition_keys
        assert all(run.total_dcc_transitions > 0 for run in serial.runs)
        assert all(run.mean_cbr > 0.0 for run in serial.runs)

    def test_sweep_shares_seeds_across_sizes(self):
        sweep = run_fleet_sweep(
            [2, 4], FleetScenario(n_obus=2, duration=4.0), runs=2)
        assert sorted(sweep) == [2, 4]
        for n_obus, campaign in sweep.items():
            assert [r.seed for r in campaign.runs] == [1, 2]
            assert all(r.n_obus == n_obus for r in campaign.runs)


class TestTieBreakInvariance:
    @pytest.mark.parametrize("policy", ["lifo", "seeded"])
    def test_policy_matches_fifo(self, policy):
        fifo = run_fleet(ACCEPTANCE)
        other = run_fleet(
            dataclasses.replace(ACCEPTANCE, tie_break=policy))
        assert (canonical_json(fifo.to_dict())
                == canonical_json(other.to_dict()))

    def test_three_seed_campaign_identical_across_policies(self):
        digests = set()
        for policy in ("fifo", "lifo", "seeded"):
            scenario = dataclasses.replace(
                FleetScenario(n_obus=12, n_rsus=2, duration=4.0),
                tie_break=policy)
            digests.add(run_fleet_campaign(scenario, runs=3).digest())
        assert len(digests) == 1

    def test_convoy_workload_tie_invariant(self):
        base = FleetScenario(n_obus=8, workload="convoy",
                             convoy_members=3, duration=6.0)
        results = {
            policy: canonical_json(run_fleet(
                dataclasses.replace(base, tie_break=policy)).to_dict())
            for policy in ("fifo", "lifo", "seeded")
        }
        assert len(set(results.values())) == 1


class TestGoldenFixture:
    def test_golden_16_obu_scenario_reproduces_fixture(self):
        campaign = run_fleet_campaign(golden_scenario(), runs=1)
        produced = canonical_json(campaign.to_dict()) + "\n"
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            pinned = handle.read()
        assert produced == pinned, (
            "the 16-OBU golden fleet run changed; if intentional, "
            "regenerate with `repro-testbed fleet --update-golden`")

    def test_golden_fixture_is_canonical_json(self):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            text = handle.read()
        payload = json.loads(text)
        assert canonical_json(payload) + "\n" == text
        assert payload["scenario"]["n_obus"] == 16
        assert payload["scenario"]["n_rsus"] == 2
        assert payload["runs"][0]["verdict"] == "SAFE"
        assert payload["runs"][0]["denm_delivered"] == 16


#: A pooled fleet campaign, run by a script that ``python -`` reads
#: from stdin: the spawned workers cannot re-import a ``__main__``
#: that has no file.
STDIN_CAMPAIGN = """
from repro.core.fleet import FleetScenario, run_fleet_campaign
scenario = FleetScenario(workload="convoy", n_obus=4, n_rsus=1, duration=2.5)
print("digest", run_fleet_campaign(scenario, runs=2, workers=2).digest())
"""


class TestStdinSpawnPool:
    def test_pooled_campaign_from_stdin_script_finishes(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-"], input=STDIN_CAMPAIGN,
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        serial = run_fleet_campaign(FleetScenario(
            workload="convoy", n_obus=4, n_rsus=1, duration=2.5), runs=2)
        assert done.stdout == f"digest {serial.digest()}\n"


#: The 64-OBU / 2-RSU blind corner, four simulated seconds.
CORNER64 = FleetScenario(workload="blind_corner", n_obus=64, n_rsus=2,
                         duration=4.0)


class TestCorner64:
    def test_digest_pinned(self):
        # Seeds 1 and 2 with run ids 1 and 2, pinned byte for byte: a
        # speed-up of the medium, GeoNet or codec path must leave it.
        runs = [FleetTestbed(CORNER64.with_seed(seed), run_id=seed).run()
                for seed in (1, 2)]
        assert fleet_runs_digest(runs) == (
            "aa3c2c2cde306e1ce680f80287de46786d884c30c973ac57fc4425ad4ce4c78b")

    def test_airtime_log_stays_bounded(self):
        # The medium's airtime log (half-duplex bookkeeping) never
        # holds more entries than there are stations, whatever the run
        # length, and is empty whenever the channel falls idle.
        testbed = FleetTestbed(CORNER64.with_seed(1), run_id=1)
        medium = testbed.medium
        stations = CORNER64.n_obus + CORNER64.n_rsus
        peaks = []
        idle_sizes = []
        transmit, complete = medium.transmit, medium._complete

        def counted_transmit(sender, frame, done=None):
            duration = transmit(sender, frame, done)
            peaks.append(len(medium._airtime))
            return duration

        def counted_complete(tx):
            complete(tx)
            if medium.active_count == 0:
                idle_sizes.append(len(medium._airtime))

        medium.transmit = counted_transmit
        medium._complete = counted_complete
        testbed.run()
        assert len(peaks) == medium.frames_sent > 1000
        assert max(peaks) <= stations
        assert idle_sizes and set(idle_sizes) == {0}


@pytest.mark.slow
class TestLargeFleetBitIdentity:
    def test_64_obu_identical_across_policies(self):
        base = FleetScenario(n_obus=64, n_rsus=4, duration=4.0)
        digests = {
            policy: canonical_json(run_fleet(
                dataclasses.replace(base, tie_break=policy)).to_dict())
            for policy in ("fifo", "lifo", "seeded")
        }
        assert len(set(digests.values())) == 1
