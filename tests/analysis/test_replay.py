"""Replay: real bugs detlint caught, re-planted in their pre-fix shape.

Each input under ``replay/`` reproduces one bug from the project's
history, or moves a fixture's bug into a closure.  The rule that
caught it must report it exactly once.  The inputs live outside
``fixtures/`` so the fixture golden report does not move.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.engine import lint_paths

REPLAY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "replay")

CASES = [
    # Mapping-view iteration in the obs exporter (ObsContext.to_dict).
    ("det003_obs_exporter.py", "DET003", "inside canonical function"),
    # Float += accumulator in mergeable obs state (Counter.merge).
    ("det004_obs_counter.py", "DET004", "Counter.value"),
    # ArtifactStore.put renaming into place without os.fsync.
    ("eff002_artifact_put.py", "EFF002", "ArtifactStore.put renames"),
    # StepTimeline.from_dict reading "records" behind a default.
    ("fpr002_step_timeline.py", "FPR002", "defaults key 'records'"),
    # eff001_bad.py's plain durable write, inside a closure.
    ("eff001_closure.py", "EFF001", "save_entry.<locals>.write writes"),
    # sch003_bad.py's wall-clock helper, as a closure of the scheduler.
    ("sch003_closure.py", "SCH003", "Beacon.__init__.<locals>.jitter"),
]


@pytest.mark.parametrize("name,rule,needle", CASES,
                         ids=[case[0][:-3] for case in CASES])
def test_replayed_bug_is_reported_exactly_once(name, rule, needle):
    result = lint_paths([os.path.join(REPLAY, name)], select=[rule])
    assert [f.rule for f in result.findings] == [rule]
    assert needle in result.findings[0].message
