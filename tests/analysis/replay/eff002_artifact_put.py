"""Replay of an EFF002 catch: the artifact store renamed without fsync.

Before the fix, ``ArtifactStore.put`` wrote the envelope to a temp
file and ``os.replace``-d it into place without ``os.fsync``: a power
cut could publish an empty entry under a valid name.
"""

import json
import os
import tempfile


class ArtifactStore:
    def __init__(self, root):
        self.root = root

    def put(self, key, body):
        target = os.path.join(self.root, "objects", f"{key}.json")
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(body, handle)
            os.replace(tmp_path, target)
        except BaseException:
            os.unlink(tmp_path)
            raise
        return target
