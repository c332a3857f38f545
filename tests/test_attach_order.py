"""Reception outcomes do not depend on the order stations attach in.

Every random value of the medium -- packet-error draws, fading and
shadowing -- is keyed by the medium's seed and the stations' names, so
re-attaching the same stations in another order (new slots, a new
layout order) changes no outcome:

* the brake, blind-corner and platoon testbeds under the ``jamming``
  plan give the same result, verdict and medium counters with their
  stations re-attached in reverse before the run starts.  The platoon
  is jammed at -85 dBm instead of the plan's -30 dBm: its links are
  longer, and at that level some of its receptions have mid-range
  packet-error rates, so a draw that followed the attach order would
  change its outcome;
* random channels with shadowing and fading on give the same
  deliveries and loss reasons under a permuted attach order and under
  fifo, lifo and seeded tie-breaking.  Those channels use a positive
  carrier-sense latency, as the fleet does, so that stations whose MAC
  timers expire at the same instant do not see each other in the
  order the kernel pops them; and no station relays or is handed two
  frames at one instant (the two sends would tie, and the kernel's
  order would pick which frame goes first).  A station may queue
  frames behind its own transmission: the medium ends the MAC's
  transmission in the frame's own completion event, so the MAC never
  sees its own frame still on the air.
"""

import dataclasses
from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blind_corner import BlindCornerScenario, BlindCornerTestbed
from repro.core.platoon import PlatoonScenario, PlatoonTestbed
from repro.core.scenario import EmergencyBrakeScenario
from repro.core.testbed import ScaleTestbed
from repro.faults import evaluate, install_faults
from repro.faults.catalogue import plans_by_name
from tests.test_medium_reference import channels, run_channel

JAMMING = plans_by_name()["jamming"]
PLATOON_JAMMING = dataclasses.replace(JAMMING, faults=tuple(
    dataclasses.replace(fault, interference_dbm=-85.0)
    for fault in JAMMING.faults))


def reattach_reversed(medium: Any) -> List[str]:
    """Detach every station and attach them again in reverse order;
    returns the new attach order."""
    nics = [station.nic for station in medium._stations.values()]
    for nic in nics:
        medium.detach(nic)
    for nic in reversed(nics):
        medium.attach(nic)
    return [station.name for station in medium._stations.values()]


def run_brake(seed: int, permuted: bool) -> Dict[str, Any]:
    testbed = ScaleTestbed(EmergencyBrakeScenario(
        seed=seed, start_distance=4.0, timeout=15.0))
    install_faults(testbed, JAMMING)
    if permuted:
        assert reattach_reversed(testbed.medium) == ["rsu", "obu"]
    measurement = testbed.run()
    return {"measurement": measurement.to_dict(),
            "verdict": evaluate(measurement).to_dict(),
            "medium": testbed.medium.stats()}


def run_blind_corner(seed: int, permuted: bool) -> Dict[str, Any]:
    testbed = BlindCornerTestbed(BlindCornerScenario(seed=seed))
    install_faults(testbed, JAMMING)
    if permuted:
        reattach_reversed(testbed.medium)
    return {"result": testbed.run().to_dict(),
            "medium": testbed.medium.stats()}


def run_platoon(seed: int, permuted: bool) -> Dict[str, Any]:
    testbed = PlatoonTestbed(PlatoonScenario(seed=seed))
    install_faults(testbed, PLATOON_JAMMING)
    if permuted:
        reattach_reversed(testbed.medium)
    return {"result": dataclasses.asdict(testbed.run()),
            "medium": testbed.medium.stats()}


class TestTestbedsUnderJamming:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("run", [run_brake, run_blind_corner,
                                     run_platoon],
                             ids=["brake", "blind_corner", "platoon"])
    def test_reattached_in_reverse(self, run, seed):
        baseline = run(seed, permuted=False)
        assert baseline["medium"]["sent"] > 0
        assert run(seed, permuted=True) == baseline


def order_free(spec: Dict[str, Any]) -> Dict[str, Any]:
    """*spec* with shadowing and fading on, a positive carrier-sense
    latency, no relays and at most one send per station and instant."""
    sends: Dict[Any, Any] = {}
    for send in spec["sends"]:
        sends.setdefault(send[:2], send)
    return dict(
        spec, shadowing_db=4.0, fading=True, cs_latency=4e-6,
        stations=[dict(station, relays=False)
                  for station in spec["stations"]],
        sends=list(sends.values()))


def outcomes(run: Dict[str, Any]) -> Dict[str, Any]:
    """Counters, and every station's deliveries and losses as sorted
    lists: same-instant completions may deliver in either order."""
    return {"stats": run["stats"],
            "delivered": {name: sorted(got, key=repr)
                          for name, got in run["delivered"].items()},
            "lost": {name: sorted(got, key=repr)
                     for name, got in run["lost"].items()}}


class TestRandomChannels:
    @given(spec=channels().map(order_free), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_attach_order_and_tie_break_change_nothing(self, spec, data):
        n = len(spec["stations"])
        baseline = outcomes(run_channel(spec, reference=False))
        order = data.draw(st.permutations(range(n)))
        tie_break = data.draw(st.sampled_from(["fifo", "lifo", "seeded"]))
        assert outcomes(run_channel(spec, reference=False,
                                    attach_order=order,
                                    tie_break=tie_break)) == baseline
