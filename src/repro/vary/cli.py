"""The ``repro-testbed vary`` subcommand.

Four actions over a variation spec (a built-in demo name or a JSON
file produced by ``VariationSpec.to_dict``):

* ``list-specs`` -- the built-in demo specs and their fingerprints;
* ``sample`` -- print the deterministic point list a campaign would
  evaluate, without running anything;
* ``run`` -- sample the space, run every point through the parallel
  engines, and emit the canonical coverage report (``--dry-run``
  stops after sampling and prints the plan);
* ``coverage-report`` -- validate and render a previously written
  report JSON (exit 1 if it fails the schema).

Reports are canonical JSON: for a fixed spec + seed the bytes (and
the SHA-256 digest the commands print) are identical for any
``--workers`` value and any ``--tie-break`` policy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict

from repro.vary.campaign import (
    PointResult,
    demo_specs,
    run_variation_campaign,
    sample_only,
)
from repro.vary.coverage import (
    render_report,
    report_digest,
    report_json,
    validate_report,
)
from repro.vary.samplers import SAMPLERS
from repro.vary.space import VariationSpec, canonical_point, point_key


def _load_spec(ref: str) -> VariationSpec:
    """Resolve ``--spec``: a demo-spec name or a JSON file path."""
    specs = demo_specs()
    if ref in specs:
        return specs[ref]
    if os.path.exists(ref):
        with open(ref, "r", encoding="utf-8") as handle:
            return VariationSpec.from_dict(json.load(handle))
    raise SystemExit(
        f"repro-testbed: error: --spec {ref!r} is neither a built-in "
        f"spec ({', '.join(sorted(specs))}) nor a JSON file")


def _vary_progress(done: int, point: PointResult) -> None:
    values = json.dumps(canonical_point(point.values),
                        sort_keys=True, default=repr)
    print(f"  [{done}] {point.origin:<6} {point.worst:<12} {values}",
          file=sys.stderr)


def cmd_list_specs(args: argparse.Namespace) -> int:
    for name, spec in sorted(demo_specs().items()):
        axes = ", ".join(f"{axis.name}({axis.KIND})"
                         for axis in spec.axes)
        print(f"  {name:<20} {spec.family:<16} "
              f"{spec.fingerprint()[:16]}  {axes}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    points = sample_only(spec, sampler=args.sampler,
                         points=args.points, levels=args.levels,
                         sample_seed=args.sample_seed)
    print(f"{len(points)} points ({args.sampler}) of spec "
          f"{spec.name} [{spec.fingerprint()[:16]}]:")
    for values in points:
        print(f"  {point_key(values)[:12]}  "
              f"{json.dumps(values, sort_keys=True, default=repr)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"spec": spec.to_dict(), "points": points},
                      handle, indent=2, sort_keys=True, default=repr)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.cli import _check_cache_dir

    spec = _load_spec(args.spec)
    if args.dry_run:
        points = sample_only(spec, sampler=args.sampler,
                             points=args.points, levels=args.levels,
                             sample_seed=args.sample_seed
                             if args.sample_seed is not None
                             else args.seed)
        extra = (" + adaptive refinement"
                 if args.sampler == "adaptive"
                 or args.refine_rounds > 0 else "")
        print(f"dry run: would evaluate {len(points)} "
              f"{args.sampler} points{extra}, "
              f"{args.runs_per_point} run(s) each, of spec "
              f"{spec.name} [{spec.fingerprint()[:16]}]")
        for values in points:
            print(f"  {point_key(values)[:12]}  "
                  f"{json.dumps(values, sort_keys=True, default=repr)}")
        return 0
    _check_cache_dir(args.cache_dir)
    result = run_variation_campaign(
        spec,
        sampler=args.sampler,
        points=args.points,
        levels=args.levels,
        refine_rounds=args.refine_rounds,
        refine_budget=args.refine_budget,
        runs_per_point=args.runs_per_point,
        base_seed=args.seed,
        sample_seed=args.sample_seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        tie_break=args.tie_break,
        progress=_vary_progress,
    )
    report = result.report()
    print(render_report(report))
    digest = report_digest(report)
    print(f"report digest: {digest}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report_json(report))
        print(f"wrote {args.report}")
    failing = [entry for entry in report["regions"]
               if entry["classification"] == "failing"]
    if args.fail_on_failing and failing:
        return 1
    return 0


def cmd_coverage_report(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        report: Dict[str, Any] = json.load(handle)
    try:
        validate_report(report)
    except ValueError as error:
        print(f"INVALID: {error}", file=sys.stderr)
        return 1
    print(render_report(report))
    print(f"report digest: {report_digest(report)}")
    return 0


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``vary`` action sub-parsers to *parser*."""
    actions = parser.add_subparsers(dest="vary_command", required=True)

    list_parser = actions.add_parser(
        "list-specs", help="list the built-in demo specs")
    list_parser.set_defaults(func=cmd_list_specs)

    def add_sampling(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--spec", required=True,
                         metavar="NAME|FILE.json",
                         help="built-in spec name or a spec JSON file")
        sub.add_argument("--sampler", choices=SAMPLERS,
                         default="grid",
                         help="sampling strategy")
        sub.add_argument("--points", type=int, default=16,
                         metavar="N",
                         help="LHS / adaptive sample count")
        sub.add_argument("--levels", type=int, default=3, metavar="N",
                         help="grid levels per range axis")

    sample_parser = actions.add_parser(
        "sample", help="print the deterministic point list")
    add_sampling(sample_parser)
    sample_parser.add_argument("--sample-seed", type=int, default=1,
                               help="seed of the vary.* substreams")
    sample_parser.add_argument("--json", default=None, metavar="FILE",
                               help="also write spec + points as JSON")
    sample_parser.set_defaults(func=cmd_sample)

    run_parser = actions.add_parser(
        "run", help="run a variation campaign -> coverage report")
    add_sampling(run_parser)
    run_parser.add_argument("--seed", type=int, default=1,
                            help="base seed for the per-point runs")
    run_parser.add_argument("--sample-seed", type=int, default=None,
                            help="seed of the vary.* substreams "
                                 "(default: --seed)")
    run_parser.add_argument("--runs-per-point", type=int, default=1,
                            metavar="N",
                            help="seeds evaluated per point")
    run_parser.add_argument("--refine-rounds", type=int, default=0,
                            metavar="N",
                            help="boundary-refinement rounds "
                                 "(adaptive forces >= 1)")
    run_parser.add_argument("--refine-budget", type=int, default=4,
                            metavar="N",
                            help="new midpoints per refinement round")
    run_parser.add_argument("--workers", type=int, default=1,
                            metavar="N",
                            help="shard each point's runs over N "
                                 "processes (reports are "
                                 "byte-identical for any N)")
    run_parser.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="run cache (both families)")
    run_parser.add_argument("--tie-break",
                            choices=("fifo", "lifo", "seeded"),
                            default=None,
                            help="kernel tie-break override (cannot "
                                 "change the report bytes)")
    run_parser.add_argument("--report", default=None, metavar="FILE",
                            help="write the canonical report JSON")
    run_parser.add_argument("--dry-run", action="store_true",
                            help="print the sampling plan and exit")
    run_parser.add_argument("--fail-on-failing", action="store_true",
                            help="exit 1 if any region is classified "
                                 "failing")
    run_parser.set_defaults(func=cmd_run)

    report_parser = actions.add_parser(
        "coverage-report",
        help="validate + render an existing report JSON")
    report_parser.add_argument("--input", required=True,
                               metavar="FILE",
                               help="report JSON written by "
                                    "'vary run --report'")
    report_parser.set_defaults(func=cmd_coverage_report)


def run(args: argparse.Namespace) -> int:
    """Dispatch an already-parsed ``vary`` invocation."""
    handler = getattr(args, "func", None)
    if handler is None:
        raise SystemExit("repro-testbed vary: no action selected")
    return int(handler(args))
