"""Compare two benchmark results: ``python bench/compare.py A.json B.json``.

*A* is the base (the parent commit), *B* the change; both are
``--out`` files of ``bench/run.py``.  For every workload and every
end-to-end metric of ``BENCHMARK.json`` it prints the relative change
of *B* against *A* and the metric's bound.  Exit status 1 when any
metric is worse than its bound, when *B*'s error rate is higher than
*A*'s, or when a workload or metric is missing or not positive on
either side; 2 when the two results were taken with different seeds
or run lengths, which makes them incomparable; 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def mismatch(base: Any, change: Any) -> List[str]:
    """The run settings (seed, run length) on which A and B differ."""
    return [key for key in ("seed", "seconds")
            if base.get(key) != change.get(key)]


def compare(base: Any, change: Any, catalogue: List[dict]) -> List[str]:
    """Report rows; a row starting with ``FAIL`` is a regression."""
    rows = []
    names = sorted(set(base["workloads"]) | set(change["workloads"]))
    for name in names:
        a = base["workloads"].get(name, {}).get("timed")
        b = change["workloads"].get(name, {}).get("timed")
        if a is None or b is None:
            rows.append(f"FAIL {name}: untimed pass missing from "
                        f"{'A' if a is None else 'B'}")
            continue
        if b["error_rate"] > a["error_rate"]:
            rows.append(f"FAIL {name} error_rate rose "
                        f"{a['error_rate']!r} -> {b['error_rate']!r}")
        for metric in catalogue:
            key = metric["name"]
            va: Optional[float] = a["metrics"].get(key, {}).get("value")
            vb: Optional[float] = b["metrics"].get(key, {}).get("value")
            if va is None or vb is None or va <= 0 or vb <= 0:
                # Every metric is positive when measured; anything else
                # is a broken run, not a change to compare.
                rows.append(f"FAIL {name} {key} missing or not positive "
                            f"{va!r} -> {vb!r}")
                continue
            change_share = (vb - va) / va
            worse = change_share if metric["better"] == "lower" \
                else -change_share
            status = "FAIL" if worse > metric["bound"] else "ok"
            rows.append(f"{status} {name} {key} {va!r} -> {vb!r} "
                        f"{metric['unit']} ({change_share:+.2%}, "
                        f"bound {metric['bound']:.0%} {metric['better']} "
                        f"is better)")
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = load(args[0]), load(args[1])
    differ = mismatch(base, change)
    if differ:
        print("compare: A and B differ in "
              + ", ".join(f"{key} ({base.get(key)!r} vs "
                          f"{change.get(key)!r})" for key in differ)
              + "; rerun one side with the other's settings",
              file=sys.stderr)
        return 2
    catalogue = load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
    rows = compare(base, change, catalogue)
    for row in rows:
        print(row)
    return 1 if any(row.startswith("FAIL") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
