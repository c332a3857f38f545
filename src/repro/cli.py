"""Command-line interface: ``repro-testbed``.

Subcommands:

* ``run`` -- one emergency-braking run, printing the step timeline;
* ``campaign`` -- N runs, printing Table II / Table III / Figure 11;
* ``blind-corner`` -- the intersection use-case, aided vs onboard;
* ``platoon`` -- the platooning extension;
* ``cdf`` -- a latency campaign with distribution fitting;
* ``faults`` -- the fault-injection matrix (plans x seeds) with
  SAFE/LATE/NO/SPURIOUS-stop verdicts;
* ``fleet`` -- fleet-scale congestion campaigns: N OBUs and M RSUs
  sharing one channel, sweepable over fleet sizes;
* ``bench`` -- the fixed perf grid, writing ``BENCH_<rev>.json``
  (``--fleet-sizes`` adds a fleet-size axis);
* ``bench-gate`` -- compare a fresh bench artefact against a
  committed baseline with warn/fail tolerance bands;
* ``vary`` -- the scenario-space variation engine: sample a declared
  spec (grid / LHS / adaptive boundary refinement), run every point,
  and emit a canonical coverage report;
* ``queue`` -- the durable work-queue campaign backend: ``enqueue``
  items, run ``work``ers (crash-safe: lost leases requeue, exhausted
  items dead-letter), ``drain`` to completion, inspect ``status``,
  ``fold`` the bit-identical result;
* ``trace`` -- one traced run as canonical JSONL + step timeline
  (``--update-golden`` refreshes the golden-trace fixtures);
* ``lint`` -- the detlint determinism linter (rules DET001..DET008
  over ``src/``; same engine as ``tools/detlint``).

Examples::

    repro-testbed run --seed 7
    repro-testbed campaign --runs 10 --secured
    repro-testbed campaign --runs 50 --workers 4 --cache-dir .runs
    repro-testbed platoon --interface 5g_leader --members 5
    repro-testbed bench --runs 5
    repro-testbed bench-gate --fresh BENCH_abc.json \
        --baseline BENCH_192981b.json
    repro-testbed vary run --spec blind-corner-demo \
        --sampler adaptive --points 8 --report coverage.json
    repro-testbed vary sample --spec brake-demo --sampler lhs \
        --points 12
    repro-testbed queue enqueue --dir /tmp/q --runs 50
    repro-testbed queue drain --dir /tmp/q --workers 4
    repro-testbed queue fold --dir /tmp/q
    repro-testbed trace --update-golden

``campaign``, ``cdf``, ``faults`` and ``report`` accept
``--workers N`` (shard runs over a process pool; bit-identical to
serial; ``0`` = auto, one worker per CPU core) and ``--cache-dir
DIR`` (skip already-computed runs); per-run progress streams to
stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import (
    EmergencyBrakeScenario,
    ScaleTestbed,
    Steps,
    analyse_braking,
    empirical_distribution,
    fit_distributions,
    run_campaign_parallel,
    summarize,
)


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1,
                        help="base random seed")
    parser.add_argument("--radio", choices=("its_g5", "5g"),
                        default="its_g5",
                        help="warning delivery technology")
    parser.add_argument("--secured", action="store_true",
                        help="sign/verify messages (TS 103 097)")
    parser.add_argument("--hazard-mode",
                        choices=("threshold", "ldm", "predictive"),
                        default="threshold",
                        help="hazard trigger rule")
    parser.add_argument("--poll-interval", type=float, default=0.05,
                        help="OBU HTTP poll period (s)")
    parser.add_argument("--start-distance", type=float, default=6.0,
                        help="vehicle start distance from camera (m)")
    parser.add_argument("--scenario", default=None, metavar="FILE.json",
                        help="load the full scenario from a JSON file "
                             "(other scenario flags are ignored except "
                             "--seed)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workers_count(text: str) -> int:
    """``--workers`` value: >= 1, or 0 = auto (one per CPU core)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = auto, one worker per CPU core), "
            f"got {value}")
    return value


def _check_cache_dir(cache_dir) -> None:
    """Fail with a clean CLI error if the cache dir is unusable."""
    if cache_dir is None:
        return
    import os

    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as error:
        raise SystemExit(
            f"repro-testbed: error: --cache-dir {cache_dir!r} is not "
            f"a usable directory ({error})") from error


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_workers_count, default=1,
                        metavar="N",
                        help="run the campaign across N worker "
                             "processes; 0 = auto, one worker per "
                             "CPU core "
                             "(results are bit-identical for any N)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache completed runs on disk so "
                             "repeated campaigns skip them")
    parser.add_argument("--backend", choices=("pool", "queue"),
                        default="pool",
                        help="execution backend: in-process pool or "
                             "the durable work queue (bit-identical "
                             "results either way)")
    parser.add_argument("--queue-dir", default=None, metavar="DIR",
                        help="queue state directory for "
                             "--backend queue (default: temporary)")


def _print_progress(outcome, done: int, total: int) -> None:
    source = "cached" if outcome.cached else "simulated"
    print(f"  [{done}/{total}] run {outcome.run_id} "
          f"(seed {outcome.seed}) {source}", file=sys.stderr)


def _run_engine(args: argparse.Namespace, scenario=None):
    _check_cache_dir(args.cache_dir)
    return run_campaign_parallel(
        scenario if scenario is not None else _scenario_from(args),
        runs=args.runs, base_seed=args.seed,
        workers=args.workers, cache_dir=args.cache_dir,
        progress=_print_progress,
        backend=getattr(args, "backend", "pool"),
        queue_dir=getattr(args, "queue_dir", None))


def _scenario_from(args: argparse.Namespace) -> EmergencyBrakeScenario:
    if args.scenario:
        from repro.core.scenario import scenario_from_json

        scenario = scenario_from_json(args.scenario)
        return scenario.with_seed(args.seed)
    return EmergencyBrakeScenario(
        seed=args.seed,
        radio=args.radio,
        secured=args.secured,
        hazard_mode=args.hazard_mode,
        obu_poll_interval=args.poll_interval,
        start_distance=args.start_distance,
    )


def cmd_run(args: argparse.Namespace) -> int:
    testbed = ScaleTestbed(_scenario_from(args))
    measurement = testbed.run()
    print("Step timeline (simulated ground truth):")
    for step in Steps.ORDER:
        record = testbed.timeline.get(step)
        if record is None:
            print(f"  {step:<24} (not reached)")
        else:
            print(f"  {step:<24} t={record.sim_time:9.4f} s")
    intervals = measurement.intervals_ms()
    print()
    print("Intervals (device clocks, ms):")
    for name, value in intervals.items():
        print(f"  {name:<24} {value:8.2f}")
    print()
    print(f"braking distance: {measurement.braking_distance:.3f} m, "
          f"final camera distance: "
          f"{measurement.final_distance_to_camera:.3f} m")
    # Predictive triggering legitimately stops the vehicle before the
    # Action Point (step 1 never happens); success = the car halted.
    return 0 if testbed.timeline.has(Steps.HALTED) else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    result = _run_engine(args)
    table = result.table2()
    print(f"Table II analogue over {args.runs} runs (ms):")
    for name, data in table.items():
        runs = " ".join(f"{v:5.1f}" for v in data["runs"])
        print(f"  {name:<22} avg={data['avg']:6.2f}  [{runs}]")
    braking = analyse_braking(result.braking_distances())
    print()
    print(f"Table III analogue: mean={braking.mean:.3f} m "
          f"var={braking.variance:.4f} "
          f"within vehicle length: {braking.within_vehicle_length}")
    totals = result.total_delays_ms()
    xs, fractions = empirical_distribution(totals)
    print()
    print("Figure 11 analogue (EDF):")
    for x, fraction in zip(xs, fractions):
        print(f"  {x:6.1f} ms -> {fraction:4.2f}")
    halted = sum(1 for run in result.runs
                 if run.timeline.has(Steps.HALTED))
    return 0 if halted == args.runs else 1


def cmd_blind_corner(args: argparse.Namespace) -> int:
    from repro.core.blind_corner import compare_configurations

    aided, onboard = compare_configurations(seed=args.seed)
    for label, result in (("network-aided", aided),
                          ("onboard-only", onboard)):
        outcome = "COLLISION" if result.collision else "avoided"
        print(f"{label:<14} {outcome:<10} "
              f"min-separation={result.min_separation:5.2f} m "
              f"denm={'yes' if result.denm_received else 'no'}")
    return 0 if (not aided.collision) and onboard.collision else 1


def cmd_platoon(args: argparse.Namespace) -> int:
    from repro.core.platoon import PlatoonScenario, run_platoon

    result = run_platoon(PlatoonScenario(
        leader_interface=args.interface,
        members=args.members,
        seed=args.seed,
    ))
    for member, delay in zip(result.members, result.member_delays_ms()):
        text = f"{delay:6.1f} ms" if delay is not None else "   -"
        print(f"  member {member.index}: actuated after {text}")
    print(f"whole platoon: {result.platoon_delay_ms:.1f} ms, "
          f"min gap {result.min_gap:.2f} m, "
          f"collisions {result.collisions}")
    return 0 if result.all_stopped and result.collisions == 0 else 1


def cmd_cdf(args: argparse.Namespace) -> int:
    result = _run_engine(args)
    totals = result.total_delays_ms()
    summary = summarize(totals)
    print(f"n={summary.count} mean={summary.mean:.1f} ms "
          f"p50={summary.p50:.1f} p90={summary.p90:.1f} "
          f"max={summary.maximum:.1f}")
    for fit in fit_distributions(totals):
        print(f"  {fit.name:<10} AIC={fit.aic:8.1f} "
              f"KS p={fit.ks_pvalue:.3f}")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.catalogue import builtin_plans, plans_by_name
    from repro.faults.envelope import SafetyEnvelope
    from repro.faults.matrix import run_fault_matrix
    from repro.faults.plan import FaultPlan
    from repro.faults.report import render_matrix

    catalogue = plans_by_name()
    if args.list_plans:
        for plan in builtin_plans():
            kinds = ", ".join(f.KIND for f in plan.faults) or "(none)"
            print(f"  {plan.name:<22} {kinds}")
        return 0
    if args.plan:
        plans = []
        for name in args.plan:
            if name not in catalogue:
                raise SystemExit(
                    f"repro-testbed: error: unknown fault plan "
                    f"{name!r}; see --list-plans")
            plans.append(catalogue[name])
    else:
        plans = builtin_plans()
    if args.plan_file:
        import json

        with open(args.plan_file, "r", encoding="utf-8") as handle:
            plans.append(FaultPlan.from_dict(json.load(handle)))
    _check_cache_dir(args.cache_dir)

    def plan_progress(name: str, done: int, total: int) -> None:
        print(f"  [{done}/{total}] plan {name}", file=sys.stderr)

    result = run_fault_matrix(
        _scenario_from(args),
        plans=plans,
        runs=args.runs,
        base_seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        envelope=SafetyEnvelope(safe_stop_margin=args.safe_margin),
        progress=plan_progress,
    )
    print(f"Fault matrix: {len(plans)} plans x {args.runs} seeds "
          f"(base seed {args.seed})")
    print()
    print(render_matrix(result))
    baseline_ok = all(
        row.availability == 1.0
        for row in result.rows if row.plan.is_empty)
    return 0 if baseline_ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import ReportConfig, write_report

    _check_cache_dir(args.cache_dir)
    config = ReportConfig(base_seed=args.seed, workers=args.workers,
                          cache_dir=args.cache_dir,
                          observe=args.observe)
    if args.quick:
        config = ReportConfig(
            table2_runs=3, table3_runs=3,
            include_blind_corner=False, include_platoon=False,
            base_seed=args.seed, workers=args.workers,
            cache_dir=args.cache_dir, observe=args.observe)
    markdown = write_report(args.output, config)
    print(markdown)
    print(f"(written to {args.output})")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        default_output_path,
        run_bench,
        write_bench,
    )

    fleet_sizes = ([int(n) for n in args.fleet_sizes.split(",")]
                   if args.fleet_sizes else None)
    payload = run_bench(runs=args.runs, base_seed=args.seed,
                        fleet_sizes=fleet_sizes,
                        progress=_print_progress)
    path = args.output or default_output_path(payload["revision"])
    write_bench(payload, path)
    wall = payload["wall"]
    print(f"bench: {payload['grid']['runs']} runs in "
          f"{wall['total_s']:.2f} s "
          f"({wall['runs_per_sec']:.2f} runs/s, "
          f"{payload['kernel']['events_per_sec']:,.0f} kernel "
          f"events/s)")
    for name, stats in sorted(payload["spans"].items()):
        print(f"  span {name:<28} n={stats['count']:<6} "
              f"mean={stats['mean_s'] * 1000:8.3f} ms")
    for name, stats in sorted(payload["wall_sites"].items()):
        print(f"  wall {name:<28} n={stats['count']:<6} "
              f"mean={stats['mean_s'] * 1000:8.3f} ms")
    for entry in payload.get("fleet", []):
        print(f"  fleet N={entry['n_obus']:<4} "
              f"wall={entry['wall_s']:7.2f} s "
              f"{entry['events_per_sec']:,.0f} kernel events/s "
              f"cbr={entry['cbr_mean']:.3f}")
    print(f"(written to {path})")
    return 0


def _load_bench_artefact(label: str, path: str):
    import json

    from repro.obs.bench import validate_bench

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise SystemExit(
            f"repro-testbed: error: cannot read --{label} "
            f"{path!r} ({error})") from error
    try:
        validate_bench(payload)
    except ValueError as error:
        raise SystemExit(
            f"repro-testbed: error: --{label} {path!r} is not a "
            f"valid bench artefact ({error})") from error
    return payload


def cmd_bench_gate(args: argparse.Namespace) -> int:
    import glob
    import json

    from repro.obs.benchgate import compare_bench, render_gate

    fresh = _load_bench_artefact("fresh", args.fresh)
    matches = sorted(glob.glob(args.baseline))
    if not matches:
        # A repository that has never committed a BENCH_*.json has
        # nothing to gate against; that is a clean pass, not an
        # error, so fresh clones stay green until a baseline lands.
        revision = str(fresh.get("revision", "unknown"))
        print(f"bench gate: no committed baseline matches "
              f"{args.baseline!r}")
        print(f"verdict: NO-BASELINE  (fresh {revision} accepted "
              f"ungated)")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump({"status": "no-baseline",
                           "baseline_pattern": args.baseline,
                           "fresh_revision": revision},
                          handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json}")
        return 0
    if len(matches) > 1:
        listing = ", ".join(matches)
        raise SystemExit(
            f"repro-testbed: error: --baseline {args.baseline!r} "
            f"matches {len(matches)} artefacts ({listing}); pass "
            f"one explicitly")
    baseline = _load_bench_artefact("baseline", matches[0])
    result = compare_bench(baseline, fresh,
                           warn_ratio=args.warn,
                           fail_ratio=args.fail)
    print(render_gate(result), end="")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 1 if result.failed else 0


def _fleet_progress(outcome, done: int, total: int) -> None:
    result = outcome.result
    print(f"  [{done}/{total}] run {outcome.run_id} "
          f"(seed {outcome.seed}): "
          f"{result.denm_delivered}/{result.n_obus} warned, "
          f"verdict {result.verdict}", file=sys.stderr)


def cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.core.fleet import (
        FleetScenario,
        golden_scenario,
        run_fleet_campaign,
        run_fleet_sweep,
    )

    if args.update_golden:
        import os

        from repro.core.fleet import canonical_json

        campaign = run_fleet_campaign(golden_scenario(), runs=1)
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        path = os.path.join(GOLDEN_DIR, "fleet_16obu_seed1.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(campaign.to_dict()) + "\n")
        print(f"wrote {path} (digest {campaign.digest()[:16]})")
        return 0

    scenario = FleetScenario(
        n_obus=args.obus, n_rsus=args.rsus, workload=args.workload,
        duration=args.duration, seed=args.seed,
        tie_break=args.tie_break)
    sizes = ([int(n) for n in args.sweep.split(",")]
             if args.sweep else [args.obus])
    campaigns = run_fleet_sweep(
        sizes, scenario, runs=args.runs, base_seed=args.seed,
        workers=args.workers, progress=_fleet_progress)

    print(f"Fleet {scenario.workload} campaigns "
          f"({args.runs} seeds from {args.seed}):")
    print(f"  {'N':>4} {'warned':>8} {'latency':>10} "
          f"{'cbr':>6} {'dcc':>5}  digest")
    for n_obus in sorted(campaigns):
        campaign = campaigns[n_obus]
        latency = campaign.mean_latency_ms()
        latency_text = "-" if latency is None else f"{latency:7.1f} ms"
        mean_cbr = (sum(r.mean_cbr for r in campaign.runs)
                    / len(campaign.runs))
        transitions = sum(r.total_dcc_transitions
                          for r in campaign.runs)
        print(f"  {n_obus:>4} "
              f"{campaign.delivered_fraction() * 100:7.1f}% "
              f"{latency_text:>10} {mean_cbr:6.3f} {transitions:>5}"
              f"  {campaign.digest()[:16]}")
    if args.json:
        payload = {str(n): campaigns[n].to_dict()
                   for n in sorted(campaigns)}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    all_delivered = all(campaigns[n].delivered_fraction() > 0.0
                        for n in sorted(campaigns))
    return 0 if all_delivered else 1


#: Where ``trace --update-golden`` writes, relative to the repo root.
GOLDEN_DIR = "tests/golden"


def build_trace_artifacts(seed: int = 1) -> "tuple":
    """One traced run of *seed*: (trace JSONL text, timeline JSON text).

    Runs the default scenario with the tracer enabled and every
    device's measurement hooks teed into it (per-source categories),
    then renders both artefacts canonically -- sorted keys, exact
    float reprs -- so the same seed always produces the same bytes.
    The golden-trace regression test pins these bytes;
    ``repro-testbed trace --update-golden`` regenerates the fixtures.
    """
    import json

    testbed = ScaleTestbed(EmergencyBrakeScenario(seed=seed), trace=True)
    tracer = testbed.tracer
    assert tracer is not None

    def tee(category):
        def hook(event, record):
            tracer.log(category, event, **record)
        return hook

    testbed.edge.on_event(tee("edge"))
    testbed.rsu.on_event(tee("rsu"))
    testbed.obu.on_event(tee("obu"))
    testbed.vehicle.on_event(tee("vehicle"))
    testbed.handler.on_event(tee("handler"))
    testbed.run()
    trace_text = tracer.to_canonical_jsonl_text()
    timeline_text = json.dumps(testbed.timeline.to_dict(),
                               sort_keys=True, indent=2,
                               default=str) + "\n"
    return trace_text, timeline_text


def cmd_trace(args: argparse.Namespace) -> int:
    import os

    trace_text, timeline_text = build_trace_artifacts(args.seed)
    out_dir = GOLDEN_DIR if args.update_golden else args.out
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace_seed{args.seed}.jsonl")
    timeline_path = os.path.join(out_dir,
                                 f"timeline_seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        handle.write(trace_text)
    with open(timeline_path, "w", encoding="utf-8") as handle:
        handle.write(timeline_text)
    print(f"wrote {trace_path} "
          f"({len(trace_text.splitlines())} records)")
    print(f"wrote {timeline_path}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run as run_lint

    return run_lint(args)


def cmd_tie_audit(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.core.blind_corner import BlindCornerScenario
    from repro.core.tieaudit import run_tie_audit

    scenario = BlindCornerScenario(seed=args.seed)
    report = run_tie_audit(scenario)
    for run in report.runs:
        print(f"{run.policy:<8} digest={run.digest[:16]} "
              f"ties={run.audit.ties} "
              f"pairs={run.audit.distinct_pairs}")
    verdict = "bit-identical" if report.identical else "DIVERGED"
    print(f"verdict: {verdict} across "
          f"{', '.join(run.policy for run in report.runs)}")
    if args.pairs:
        for site_a, site_b, count in report.top_pairs(args.pairs):
            print(f"  {count:6d}x  {site_a}  <->  {site_b}")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_dict(), handle, indent=2,
                             sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if report.identical else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-testbed",
        description="ETSI ITS robotic scale testbed (simulated)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="one emergency-braking run")
    _add_scenario_arguments(run_parser)
    run_parser.set_defaults(func=cmd_run)

    campaign_parser = sub.add_parser("campaign",
                                     help="N-run measurement campaign")
    _add_scenario_arguments(campaign_parser)
    _add_engine_arguments(campaign_parser)
    campaign_parser.add_argument("--runs", type=int, default=5)
    campaign_parser.set_defaults(func=cmd_campaign)

    corner_parser = sub.add_parser("blind-corner",
                                   help="intersection use-case")
    corner_parser.add_argument("--seed", type=int, default=1)
    corner_parser.set_defaults(func=cmd_blind_corner)

    platoon_parser = sub.add_parser("platoon",
                                    help="platooning extension")
    platoon_parser.add_argument("--seed", type=int, default=1)
    platoon_parser.add_argument("--members", type=int, default=4)
    platoon_parser.add_argument("--interface",
                                choices=("its_g5", "5g_leader"),
                                default="its_g5")
    platoon_parser.set_defaults(func=cmd_platoon)

    cdf_parser = sub.add_parser("cdf", help="latency CDF + model fit")
    _add_scenario_arguments(cdf_parser)
    _add_engine_arguments(cdf_parser)
    cdf_parser.add_argument("--runs", type=int, default=20)
    cdf_parser.set_defaults(func=cmd_cdf)

    faults_parser = sub.add_parser(
        "faults", help="fault-injection matrix with verdicts")
    _add_scenario_arguments(faults_parser)
    _add_engine_arguments(faults_parser)
    faults_parser.add_argument("--runs", type=int, default=5,
                               help="seeds per fault plan")
    faults_parser.add_argument("--plan", action="append", default=[],
                               metavar="NAME",
                               help="run only this built-in plan "
                                    "(repeatable; default: all)")
    faults_parser.add_argument("--plan-file", default=None,
                               metavar="FILE.json",
                               help="also run a plan loaded from a "
                                    "JSON file")
    faults_parser.add_argument("--list-plans", action="store_true",
                               help="list the built-in fault plans")
    faults_parser.add_argument("--safe-margin", type=float,
                               default=0.53, metavar="METRES",
                               help="SAFE_STOP threshold distance")
    faults_parser.set_defaults(func=cmd_faults)

    report_parser = sub.add_parser(
        "report", help="full paper-vs-measured markdown report")
    report_parser.add_argument("--output", default="report.md",
                               help="where to write the markdown")
    report_parser.add_argument("--seed", type=int, default=1)
    report_parser.add_argument("--quick", action="store_true",
                               help="fewer runs, skip extensions")
    report_parser.add_argument("--observe", action="store_true",
                               help="instrument the Table II campaign "
                                    "and append an observability "
                                    "section (forces serial runs)")
    _add_engine_arguments(report_parser)
    report_parser.set_defaults(func=cmd_report)

    bench_parser = sub.add_parser(
        "bench", help="perf benchmark grid -> BENCH_<rev>.json")
    bench_parser.add_argument("--runs", type=_positive_int, default=5,
                              help="grid size (consecutive seeds)")
    bench_parser.add_argument("--seed", type=int, default=1,
                              help="base random seed of the grid")
    bench_parser.add_argument("--output", default=None, metavar="FILE",
                              help="artefact path (default: "
                                   "BENCH_<rev>.json)")
    bench_parser.add_argument("--fleet-sizes", default=None,
                              metavar="N,N,...",
                              help="also bench fleet scenarios at "
                                   "these OBU counts (e.g. 1,8,32)")
    bench_parser.set_defaults(func=cmd_bench)

    gate_parser = sub.add_parser(
        "bench-gate", help="compare a fresh bench artefact against a "
                           "committed baseline (warn/fail bands)")
    gate_parser.add_argument("--fresh", required=True, metavar="FILE",
                             help="the just-measured BENCH_*.json")
    gate_parser.add_argument("--baseline", default="BENCH_*.json",
                             metavar="FILE",
                             help="the committed reference "
                                  "BENCH_*.json -- a path or glob; "
                                  "no match is a clean no-baseline "
                                  "pass (default: BENCH_*.json)")
    gate_parser.add_argument("--warn", type=float, default=0.25,
                             metavar="RATIO",
                             help="warn when a metric is this "
                                  "fraction worse (default 0.25)")
    gate_parser.add_argument("--fail", type=float, default=3.0,
                             metavar="RATIO",
                             help="fail when a metric is this "
                                  "fraction worse (default 3.0)")
    gate_parser.add_argument("--json", default=None, metavar="FILE",
                             help="write the per-metric verdicts as "
                                  "JSON")
    gate_parser.set_defaults(func=cmd_bench_gate)

    vary_parser = sub.add_parser(
        "vary", help="scenario-space variation engine "
                     "(sample / run / coverage-report)")
    from repro.vary.cli import add_arguments as add_vary_arguments

    add_vary_arguments(vary_parser)

    fleet_parser = sub.add_parser(
        "fleet", help="fleet-scale congestion campaign "
                      "(N OBUs, M RSUs, one channel)")
    fleet_parser.add_argument("--obus", type=_positive_int, default=16,
                              help="fleet size (OBU count)")
    fleet_parser.add_argument("--rsus", type=_positive_int, default=2,
                              help="roadside unit count")
    fleet_parser.add_argument("--workload",
                              choices=("beacon", "convoy",
                                       "blind_corner"),
                              default="beacon",
                              help="what the participant vehicles do")
    fleet_parser.add_argument("--runs", type=_positive_int, default=3,
                              help="seeds per fleet size")
    fleet_parser.add_argument("--seed", type=int, default=1,
                              help="base random seed")
    fleet_parser.add_argument("--duration", type=float, default=8.0,
                              help="simulated seconds per run")
    fleet_parser.add_argument("--tie-break",
                              choices=("fifo", "lifo", "seeded"),
                              default="fifo",
                              help="kernel tie-break policy (results "
                                   "are bit-identical across all "
                                   "three)")
    fleet_parser.add_argument("--workers", type=_workers_count,
                              default=1, metavar="N",
                              help="shard runs over N processes "
                                   "(bit-identical to serial)")
    fleet_parser.add_argument("--sweep", default=None,
                              metavar="N,N,...",
                              help="sweep fleet size over these OBU "
                                   "counts instead of --obus")
    fleet_parser.add_argument("--json", default=None, metavar="FILE",
                              help="write campaign results as JSON")
    fleet_parser.add_argument("--update-golden", action="store_true",
                              help="regenerate the 16-OBU golden "
                                   "fleet fixture and exit")
    fleet_parser.set_defaults(func=cmd_fleet)

    trace_parser = sub.add_parser(
        "trace", help="one traced run -> canonical JSONL + timeline")
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--out", default=".", metavar="DIR",
                              help="output directory")
    trace_parser.add_argument("--update-golden", action="store_true",
                              help=f"write the fixtures under "
                                   f"{GOLDEN_DIR} (golden-trace "
                                   f"regression test)")
    trace_parser.set_defaults(func=cmd_trace)

    lint_parser = sub.add_parser(
        "lint", help="detlint determinism linter (DET001..DET008, "
                     "SCH001..SCH003)")
    from repro.analysis.cli import add_arguments as add_lint_arguments

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=cmd_lint)

    tie_parser = sub.add_parser(
        "tie-audit", help="re-run blind-corner under every tie-break "
                          "policy and demand bit-identical results")
    tie_parser.add_argument("--seed", type=int, default=1)
    tie_parser.add_argument("--pairs", type=int, default=10,
                            metavar="N",
                            help="show the N most frequent tied "
                                 "site pairs (0 to hide)")
    tie_parser.add_argument("--output", default=None, metavar="FILE",
                            help="write the full report as JSON")
    tie_parser.set_defaults(func=cmd_tie_audit)

    queue_parser = sub.add_parser(
        "queue", help="durable work-queue campaigns: enqueue / work "
                      "/ drain / status / fold")
    from repro.core.queue.cli import add_arguments as add_queue_arguments

    add_queue_arguments(queue_parser)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
