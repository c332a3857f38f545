"""Regressions for the EFF002 fix: fsync before every publish.

The analyzer found a durable-store writer renaming data into place
with no fsync (:class:`repro.core.artifacts.ArtifactStore`): the
rename publishes the *name* atomically, but without an fsync the
bytes may still sit in the page cache when power is cut, leaving a
zero-length file under a valid path.  These tests pin the ordering -- data synced to disk
strictly before the rename -- and that the fix changed no stored
bytes.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.artifacts import ArtifactStore


def _order_probe(monkeypatch):
    """Record the relative order of fsync and replace calls."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def probe_fsync(fd):
        events.append("fsync")
        return real_fsync(fd)

    def probe_replace(src, dst):
        events.append("replace")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", probe_fsync)
    monkeypatch.setattr(os, "replace", probe_replace)
    return events


class TestArtifactStoreDurability:
    def test_put_fsyncs_before_rename(self, tmp_path, monkeypatch):
        events = _order_probe(monkeypatch)
        store = ArtifactStore(str(tmp_path / "store"))
        store.put("run-1", {"value": 3})
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace")

    def test_put_round_trips_after_fix(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        body = {"digest": "abc", "metrics": {"gap": 1.25}}
        store.put("run-2", body)
        assert store.get("run-2") == body

    def test_stored_bytes_unchanged_by_fsync(self, tmp_path):
        # The fix is pure durability: the envelope on disk must be
        # byte-identical to what a fsync-less writer produced.
        store = ArtifactStore(str(tmp_path / "store"))
        body = {"value": 7}
        path = store.put("run-3", body)
        with open(path, "r", encoding="utf-8") as handle:
            on_disk = handle.read()
        envelope = json.loads(on_disk)
        assert on_disk == json.dumps(envelope)
        assert envelope["body"] == body

    def test_failed_put_leaves_no_temp_file(self, tmp_path,
                                            monkeypatch):
        store = ArtifactStore(str(tmp_path / "store"))

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            store.put("run-4", {"value": 1})
        leftovers = [name for _root, _dirs, files
                     in os.walk(tmp_path) for name in files
                     if name.endswith(".tmp")]
        assert leftovers == []
