"""Outside-in benchmark of the testbed: end-to-end timing, per-layer self time.

Usage (from the repository root)::

    python bench/run.py --seed 1 --out /tmp/bench-a.json
    python bench/run.py --workload brake_grid --seed 3 --trace 0

Every workload runs in fresh processes (``bench/worker.py``), each in
its own process group with a hard timeout:

* the untraced pass (``--trace 0``): ``setup_s`` from three fresh
  set-up interpreters, then one process that warms up and runs timed
  units for ``run_seconds`` of ``BENCHMARK.json``.  Its times are
  reference seconds: wall seconds rescaled to a fixed host speed by
  the speed probe of ``bench/hostspeed.py``, which samples the CPU the
  work runs on while it runs;
* the traced pass (``--trace 1``): one process that runs the
  workload's trace seeds untraced and traced and reports self time per
  ``repro`` layer.

Without ``--workload`` all workloads run; without ``--trace`` both
passes run, the traced ones after all untraced ones.  Each metric is
printed as ``workload metric value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--out`` writes the full result, which
``bench/compare.py`` compares.  Metric names, units, bounds and the run
length come from ``BENCHMARK.json`` at the repository root; the
standard benchmark command line passes the run length as
``--seconds``, and any other value is refused, so every result times
the same length of run.

Exit status: 0 on a result (failed units are part of it), 1 when a
traced-pass self-check fails, 2 when no result can be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import Reading
from workloads import FACTORIES

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: Everything one pass of one workload does must end within this
#: budget; past it the pass is killed and its unit in flight fails.
PASS_BUDGET_S = 29.0
#: A worker starts no unit or traced pair that would end later than
#: this before the budget: room for one slower than the one before it.
STOP_MARGIN_S = 3.0
#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 3
#: Traced-pass checks that must all hold.
TRACE_CHECKS = ("digests_equal", "self_time_sums_to_wall",
                "originals_restored", "frames_closed")


class BenchError(RuntimeError):
    """No result can be produced (a process crashed or never reported)."""


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: List[float], pct: int) -> float:
    """The *pct*-th percentile, linear between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _stop_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(args: List[str], timeout: float,
           ) -> Tuple[List[Dict[str, Any]], int, bool, str]:
    """Run the worker with *args* in a new process group.

    Returns ``(protocol lines, exit code, timed out, stderr)``.  On
    timeout the whole group -- spawn-pool children included -- is
    killed, and the lines written so far are kept.
    """
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        timed_out = True
        _stop_group(proc.pid)
        out, err = proc.communicate()
    finally:
        _stop_group(proc.pid)
    lines = []
    for line in out.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            lines.append(record)
    return lines, proc.returncode, timed_out, err


def _done(lines: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    return next((line for line in lines if line.get("done")), None)


def setup_probes(name: str, seed: int,
                 deadline: float) -> List[Tuple[float, float]]:
    """``(wall, reference seconds)`` of fresh set-up interpreters.

    They run one after another; each reports its speed probe's reading.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        lines, code, timed_out, err = launch(
            ["setup", "--workload", name, "--seed", str(seed)],
            deadline - time.perf_counter())
        wall = time.perf_counter() - start
        probe = next((line["probe"] for line in lines if "probe" in line),
                     None)
        if code != 0 or timed_out or probe is None:
            raise BenchError(f"{name}: set-up failed\n{err}")
        times.append((wall, Reading.from_dict(probe).scaled(wall)))
    return times


def timed_pass(name: str, seed: int, seconds: float,
               deadline: float) -> Dict[str, Any]:
    """The untraced pass of one workload, as a result record."""
    setup = setup_probes(name, seed, deadline)
    left = deadline - time.perf_counter()
    lines, code, timed_out, err = launch(
        ["timed", "--workload", name, "--seed", str(seed),
         "--seconds", repr(seconds), "--budget", repr(left - STOP_MARGIN_S)],
        left)
    done = _done(lines)
    units = [line for line in lines if "unit" in line]
    refs = [unit["ref_s"] for unit in units if unit["ref_s"] is not None]
    if not refs or (not timed_out and (code != 0 or done is None)):
        raise BenchError(f"{name}: timed pass produced no result\n{err}")
    walls = [unit["wall_s"] for unit in units]
    attempted = len(units) + timed_out
    failed = sum(not unit["ok"] for unit in units) + timed_out
    errors = [unit["error"] for unit in units if unit["error"]]
    info = {
        "units": len(units),
        "warmup_s": next((line["warmup_s"] for line in lines
                          if "warmup_s" in line), 0.0),
        "setup_wall_s": [wall for wall, _ in setup],
        "setup_ref_s": [ref for _, ref in setup],
        "unit_wall_s_p50": statistics.median(walls),
        "unit_s_p80": percentile(refs, 80),
        "host_speed_p50": statistics.median(
            unit["speed"] for unit in units if unit["speed"] is not None),
        "sim_s_per_host_s": sum(unit["sim_s"] for unit in units) / sum(walls),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(ref for _, ref in setup),
            "unit_s_p50": statistics.median(refs),
            "peak_rss_mb": units[-1]["peak_rss_mb"],
        },
        "info": info,
        "digest": done["digest"] if done else None,
        "errors": errors[:3] + (["worker timed out"] if timed_out else []),
    }


def traced_pass(name: str, seed: int, deadline: float) -> Dict[str, Any]:
    """The traced pass of one workload, as a result record."""
    left = deadline - time.perf_counter()
    lines, _code, _timed_out, err = launch(
        ["traced", "--workload", name, "--seed", str(seed),
         "--budget", repr(left - STOP_MARGIN_S)], left)
    done = _done(lines)
    if done is None:
        raise BenchError(f"{name}: traced pass produced no result\n{err}")
    return {
        "attempted": done["attempted"],
        "failed": done["failed"],
        "metrics": done["metrics"],
        "checks": done["checks"],
        "digest": done["digest"],
        "errors": [line["error"] for line in lines
                   if line.get("error")][:3],
    }


def _with_units(values: Dict[str, float], catalogue: List[Dict[str, str]],
                name: str) -> Dict[str, Dict[str, Any]]:
    """Attach units; the metric set must be exactly the catalogue's."""
    units = {entry["name"]: entry["unit"] for entry in catalogue}
    if set(values) != set(units):
        raise BenchError(
            f"{name}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}")
    return {metric: {"value": values[metric], "unit": units[metric]}
            for metric in units}


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(FACTORIES),
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only, 1: traced pass only "
                             "(default: both)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result as JSON")
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be {spec['run_seconds']}, the "
                     f"run_seconds of BENCHMARK.json")

    names = [args.workload] if args.workload else list(FACTORIES)
    passes = [args.trace] if args.trace is not None else [0, 1]
    expected = load_json(os.path.join(BENCH_DIR, "expected_digests.json"))
    results: Dict[str, Dict[str, Any]] = {name: {} for name in names}
    try:
        for traced in passes:
            for name in names:
                deadline = time.perf_counter() + PASS_BUDGET_S
                if traced:
                    record = traced_pass(name, args.seed, deadline)
                    record["metrics"] = _with_units(
                        record["metrics"], spec["per_layer"], name)
                    results[name]["traced"] = record
                else:
                    record = timed_pass(name, args.seed, args.seconds,
                                        deadline)
                    record["metrics"] = _with_units(
                        record["metrics"], spec["end_to_end"], name)
                    results[name]["timed"] = record
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2

    checks_ok = True
    summary: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                               "metrics": {}}
    for name, passes_done in results.items():
        timed = passes_done.get("timed")
        if timed is not None and timed["digest"] is None:
            print(f"{name} DIGEST UNCHECKED: the budget ended the run "
                  f"before its minimum units")
        elif timed is not None and args.seed == expected["seed"] \
                and timed["digest"] != expected["digests"][name]:
            print(f"{name} DIGEST CHANGED {timed['digest']}")
        traced = passes_done.get("traced")
        if traced is not None:
            bad = [check for check in TRACE_CHECKS
                   if not traced["checks"][check]]
            if bad:
                checks_ok = False
                print(f"{name} TRACE SELF-CHECK FAILED {' '.join(bad)} "
                      f"{traced['checks']}", file=sys.stderr)
        for record in passes_done.values():
            record["error_rate"] = record["failed"] / record["attempted"]
            for error in record["errors"]:
                print(f"{name} unit error: {error}", file=sys.stderr)
            summary["attempted"] += record["attempted"]
            summary["failed"] += record["failed"]
            for metric, entry in record["metrics"].items():
                print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                summary["metrics"][key] = entry
            for metric, value in record.get("info", {}).items():
                print(f"{name} info.{metric} {value!r}")
    summary["correct"] = summary["failed"] == 0 and checks_ok

    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "workloads": results}, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
    print(json.dumps(summary, sort_keys=True))
    return 0 if checks_ok else 1


if __name__ == "__main__":
    sys.exit(main())
