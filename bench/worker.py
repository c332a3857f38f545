"""One workload in one fresh process: ``python bench/worker.py MODE ...``.

``run.py`` starts this file in its own process group and reads one
JSON object per line from its standard output:

* ``setup`` -- build the workload (import its entry modules, build its
  inputs) under a speed probe, report the probe's reading and exit;
  ``run.py`` times the whole interpreter.
* ``timed`` -- the untraced pass, under a speed probe: an untimed
  warm-up unit, then units until ``--seconds`` have passed and at
  least ``min_units`` ran, as far as ``--budget`` allows.  One line
  per unit (wall and reference seconds, the peak RSS so far), then a
  ``done`` line with the digest.  Units share the process's memos, as
  the units of a campaign do.
* ``traced`` -- the traced pass: the workload's trace seeds, each run
  in untraced/traced pairs (alternating which goes first, as far as
  ``--budget`` allows) with every memo emptied before each run, then a
  ``done`` line with the per-layer metrics and the self-checks.

A unit that raises, fails its outcome check or runs past
:data:`UNIT_TIMEOUT_S` counts as failed; the run carries on.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402
from tracer import Tracer, patched, unrestored  # noqa: E402
from workloads import FACTORIES, WARMUP_INDEX, Outcome, Workload  # noqa: E402

#: A unit running longer than this is abandoned and counted as failed.
UNIT_TIMEOUT_S = 120

#: Traced self times must sum to the traced wall time within this share.
SUM_TOLERANCE = 0.01


class UnitTimeout(Exception):
    """A unit ran past :data:`UNIT_TIMEOUT_S`."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise UnitTimeout(f"unit ran past {UNIT_TIMEOUT_S} s")


def emit(**record: Any) -> None:
    """One protocol line on standard output."""
    print(json.dumps(record, sort_keys=True), flush=True)


def clear_caches() -> None:
    """Empty every ``functools`` cache of a loaded ``repro`` module.

    The traced pass runs each seed more than once; emptied memos (the
    CAM and DENM decode caches) keep a run from reusing what its twin
    decoded, so both sides of a pair do the same work.
    """
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                cache_clear = getattr(value, "cache_clear", None)
                if callable(cache_clear):
                    cache_clear()


def run_unit(run: Any, seed: int, run_id: int,
             ) -> Tuple[float, Optional[Outcome], Optional[str]]:
    """``(wall seconds, outcome or None, error or None)`` of one unit."""
    signal.setitimer(signal.ITIMER_REAL, UNIT_TIMEOUT_S)
    start = time.perf_counter()
    try:
        outcome = run(seed, run_id)
    except Exception:  # noqa: BLE001 - a failed unit is data, not a crash
        return time.perf_counter() - start, None, traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, outcome, None


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def warm_up(workload: Workload, seed: int) -> float:
    """Run the untimed warm-up unit (seed ``S + 1000``); its wall time.

    A warm-up that raises aborts the pass: nothing after it would
    measure a working program.
    """
    wall, _, error = run_unit(workload.run, seed + WARMUP_INDEX,
                              WARMUP_INDEX + 1)
    if error is not None:
        raise RuntimeError(f"warm-up unit failed:\n{error}")
    return wall


def timed_pass(workload: Workload, seed: int, seconds: float,
               stop_by: float = math.inf) -> None:
    """The untraced pass (see module doc).

    Each unit reports its wall time and its reference seconds (see
    :mod:`hostspeed`), from the reading of the probe in this process
    or, for a unit whose work ran in a child, the child's.  No unit
    starts that would, by the last unit's wall time, end past the
    ``perf_counter`` time *stop_by*: on a host slowed down the run
    times fewer units instead of overrunning its budget.
    """
    with SpeedProbe() as probe:
        if workload.warmup:
            emit(warmup_s=warm_up(workload, seed))
        _timed_units(workload, seed, seconds, stop_by, probe)


def _timed_units(workload: Workload, seed: int, seconds: float,
                 stop_by: float, probe: SpeedProbe) -> None:
    outputs: List[Any] = []
    first: Optional[str] = None
    index = 0
    wall = 0.0
    start = time.perf_counter()
    while (index < workload.min_units
           or time.perf_counter() - start < seconds):
        if time.perf_counter() + wall > stop_by:
            break
        unit_seed = workload.seed(seed, index)
        # Start every unit from a collected heap: free, untimed, the
        # cyclic garbage earlier units left.  Otherwise a unit's peak
        # memory and time depend on whether the collector's full pass
        # happened to run before it (10 MB of peak RSS on the corner).
        gc.collect()
        before = probe.reading()
        wall, outcome, error = run_unit(workload.run, unit_seed, index + 1)
        reading = probe.reading() - before
        if outcome is not None and outcome.probe is not None:
            reading = outcome.probe
        ok = outcome is not None and outcome.ok
        if outcome is not None:
            outputs.append(outcome.output)
            if workload.repeat:
                unit_digest = workload.digest([outcome.output])
                first = first or unit_digest
                if unit_digest != first:
                    ok = False
                    error = "repeat produced a different output digest"
        emit(unit=index, seed=unit_seed, wall_s=wall,
             ref_s=reading.scaled(wall) if reading.samples else None,
             speed=reading.speed() if reading.samples else None, ok=ok,
             sim_s=outcome.sim_s if outcome else 0.0, error=error,
             peak_rss_mb=peak_rss_mb())
        index += 1
    digest = None
    if len(outputs) >= workload.min_units:
        digest = workload.digest(outputs[:workload.min_units])
    emit(done=True, digest=digest)


def traced_pass(workload: Workload, seed: int,
                stop_by: float = math.inf) -> None:
    """The traced pass (see module doc).

    ``trace.overhead`` is the median over the pairs of traced over
    untraced wall time; the two runs of a pair are adjacent, so a slow
    spell of the host mostly hits both.  There is no warm-up unit: the
    first pair runs its untraced side first, so a cold start is never
    charged to the tracer, and every traced run is warm.  No pair
    starts that would, by the last pair's wall time, end past the
    ``perf_counter`` time *stop_by*; the per-layer metrics are per
    traced unit, so they do not depend on how many pairs ran.
    """
    import repro

    tracer = Tracer(os.path.dirname(os.path.abspath(repro.__file__)))
    table = layers.patches(tracer)
    root_frame = tracer.frame(f"{workload.layer}.unit", workload.run)
    traced_wall = 0.0
    ratios: List[float] = []
    outputs: Dict[bool, List[Any]] = {False: [], True: []}
    counters: Dict[str, float] = {}
    left_over: List[str] = []
    failed = 0
    pairs = [index for index in range(workload.trace_seeds)
             for _ in range(workload.trace_pairs)]
    pair: Dict[bool, float] = {}
    for pair_index, index in enumerate(pairs):
        if pair and time.perf_counter() + sum(pair.values()) > stop_by:
            break
        unit_seed = workload.seed(seed, index)
        pair = {}
        for traced in (False, True) if pair_index % 2 == 0 else (True, False):
            clear_caches()
            gc.collect()
            if traced:
                with patched(table) as saved:
                    wall, outcome, error = run_unit(root_frame, unit_seed,
                                                    index + 1)
                left_over += unrestored(saved)
            else:
                wall, outcome, error = run_unit(workload.run, unit_seed,
                                                index + 1)
            pair[traced] = wall
            ok = outcome is not None and outcome.ok
            failed += not ok
            if outcome is not None:
                outputs[traced].append(outcome.output)
                if traced:
                    for key, value in outcome.counters.items():
                        counters[key] = counters.get(key, 0) + value
            emit(unit=index, seed=unit_seed, traced=traced, wall_s=wall,
                 ok=ok, error=error)
        traced_wall += pair[True]
        ratios.append(pair[True] / pair[False])
    metrics = layers.layer_metrics(
        tracer.self_s(), tracer.calls(), counters,
        tracer.kept.get("obs.to_dict", []), ratios)
    digests = {traced: workload.digest(outputs[traced])
               for traced in (False, True)}
    sum_error = abs(sum(tracer.self_s().values()) - traced_wall) / traced_wall
    checks = {
        "digests_equal": digests[False] == digests[True],
        "self_time_sum_error": sum_error,
        "self_time_sums_to_wall": sum_error <= SUM_TOLERANCE,
        "unrestored": left_over,
        "originals_restored": not left_over,
        "frames_closed": tracer.depth == 0,
    }
    emit(done=True, metrics=metrics, digest=digests[False],
         attempted=2 * len(ratios), failed=failed, checks=checks)


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True, choices=list(FACTORIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="timed: run units for this long")
    parser.add_argument("--budget", type=float, default=math.inf,
                        help="start no unit (timed) or pair (traced) that "
                             "would end later than this many seconds "
                             "after start-up")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        with SpeedProbe() as probe:
            FACTORIES[args.workload](ROOT)
        emit(probe=probe.reading().to_dict())
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = FACTORIES[args.workload](ROOT, traced=args.mode == "traced")
    stop_by = started + args.budget
    if args.mode == "timed":
        timed_pass(workload, args.seed, args.seconds, stop_by)
    elif args.mode == "traced":
        traced_pass(workload, args.seed, stop_by)
    return 0


if __name__ == "__main__":
    sys.exit(main())
