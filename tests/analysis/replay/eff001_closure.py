"""EFF001 inside a closure: the plain durable write of eff001_bad.py,
moved into a nested def that its parent calls."""

import os


def save_entry(root, key, text):
    path = os.path.join(root, key + ".entry")

    def write():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    write()
    return path
