"""Coverage over a sampled scenario space, exactly mergeable.

The coverage model answers *which regions of the space were explored,
and what happened there*: per-axis bin occupancy, per-region verdict
counts, a latency-bucket histogram and fault-class counts.  All state
lives in a :class:`~repro.obs.metrics.MetricsRegistry` -- integer
bucket counts plus exact integer sums -- so
merging two models is associative and commutative **bit for bit**,
exactly like campaign observability folds: shard a campaign over any
worker count, fold the per-shard coverage in any order, and the final
report is byte-identical.

A *region* is the cartesian bin cell a point falls into, rendered as
a stable label (``"protagonist_start:2|warning_after:0"``, axes in
sorted order).  The report classifies each observed region as
``safe`` / ``failing`` / ``boundary`` (both observed) and names the
axis bins that no sample ever reached.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Mapping, Sequence, Set, Tuple

from repro.core.fingerprint import canonical_json
from repro.obs.metrics import MetricsRegistry
from repro.vary.samplers import NEUTRAL_VERDICTS, is_safe_verdict
from repro.vary.space import AxisValue, VariationSpec

#: Latency buckets (ms) for the coverage histogram: the paper's
#: end-to-end delays live in the tens-of-ms decade.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

#: Report schema version (independent of the spec's VARY_FORMAT).
REPORT_SCHEMA_VERSION = 1


def region_label(spec: VariationSpec,
                 values: Mapping[str, AxisValue]) -> str:
    """The stable bin-cell label of one point."""
    parts: List[str] = []
    for axis in sorted(spec.axes, key=lambda axis: axis.name):
        bin_index = axis.bin_of(values[axis.name], spec.coverage_bins)
        parts.append(f"{axis.name}:{bin_index}")
    return "|".join(parts)


class CoverageModel:
    """Exactly-mergeable coverage state for one spec's campaign.

    All counts live in an internal metrics registry; the point-key
    set (which merges by union) tracks distinct evaluated points.
    Two models merge only if they describe the same spec
    (fingerprints must match).
    """

    def __init__(self, spec: VariationSpec):
        self.spec = spec
        self.registry = MetricsRegistry()
        self._point_keys: Set[str] = set()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe_point(self, key: str,
                      values: Mapping[str, AxisValue],
                      verdicts: Sequence[str],
                      latencies_ms: Sequence[float],
                      fault_kinds: Sequence[str] = (),
                      ) -> None:
        """Fold one evaluated point into the model."""
        self._point_keys.add(key)
        spec = self.spec
        for axis in spec.axes:
            bin_index = axis.bin_of(values[axis.name],
                                    spec.coverage_bins)
            self.registry.counter("vary.axis_bin", axis=axis.name,
                                  bin=bin_index).inc()
        region = region_label(spec, values)
        for verdict in sorted(verdicts):
            self.registry.counter("vary.verdict",
                                  verdict=verdict).inc()
            self.registry.counter("vary.region_verdict",
                                  region=region,
                                  verdict=verdict).inc()
        for latency in sorted(latencies_ms):
            self.registry.histogram(
                "vary.latency_ms",
                buckets=LATENCY_BUCKETS_MS).observe(latency)
        for kind in sorted(fault_kinds):
            self.registry.counter("vary.fault_kind", kind=kind).inc()

    # ------------------------------------------------------------------
    # Merge / serialisation
    # ------------------------------------------------------------------

    def merge(self, other: "CoverageModel") -> None:
        """Fold *other* into this model (exact, order-independent)."""
        if other.spec.fingerprint() != self.spec.fingerprint():
            raise ValueError(
                "cannot merge coverage of different specs: "
                f"{self.spec.name!r} vs {other.spec.name!r}")
        self.registry.merge(other.registry)
        self._point_keys |= other._point_keys

    @property
    def distinct_points(self) -> int:
        """How many distinct point keys were observed."""
        return len(self._point_keys)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form."""
        return {
            "spec": self.spec.to_dict(),
            "point_keys": sorted(self._point_keys),
            "metrics": self.registry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CoverageModel":
        """Rebuild a model serialised by :meth:`to_dict`."""
        model = cls(VariationSpec.from_dict(data["spec"]))
        model._point_keys = set(data["point_keys"])
        model.registry = MetricsRegistry.from_dict(data["metrics"])
        return model

    # ------------------------------------------------------------------
    # Queries (report building blocks)
    # ------------------------------------------------------------------

    def axis_occupancy(self) -> Dict[str, List[int]]:
        """Per axis: how many samples landed in each bin.

        Read-only: unexplored bins come back as 0 without creating
        metric entries (queries must never perturb the mergeable
        state).
        """
        observed: Dict[Tuple[str, int], int] = {}
        for full_name, payload in sorted(
                self.registry.to_dict().items()):
            if not full_name.startswith("vary.axis_bin{"):
                continue
            labels = _parse_labels(full_name)
            observed[(labels["axis"], int(labels["bin"]))] = \
                int(payload["value"])
        out: Dict[str, List[int]] = {}
        for axis in sorted(self.spec.axes,
                           key=lambda axis: axis.name):
            bins = axis.bins(self.spec.coverage_bins)
            out[axis.name] = [observed.get((axis.name, bin_index), 0)
                              for bin_index in range(bins)]
        return out

    def region_verdicts(self) -> Dict[str, Dict[str, int]]:
        """Observed region -> verdict -> count."""
        out: Dict[str, Dict[str, int]] = {}
        for full_name, payload in sorted(
                self.registry.to_dict().items()):
            if not full_name.startswith("vary.region_verdict{"):
                continue
            labels = _parse_labels(full_name)
            region = labels["region"]
            verdict = labels["verdict"]
            out.setdefault(region, {})[verdict] = int(payload["value"])
        return out

    def verdict_totals(self) -> Dict[str, int]:
        """Verdict -> total run count."""
        out: Dict[str, int] = {}
        for full_name, payload in sorted(
                self.registry.to_dict().items()):
            if not full_name.startswith("vary.verdict{"):
                continue
            labels = _parse_labels(full_name)
            out[labels["verdict"]] = int(payload["value"])
        return out

    def fault_kind_totals(self) -> Dict[str, int]:
        """Injected fault kind -> run count that carried it."""
        out: Dict[str, int] = {}
        for full_name, payload in sorted(
                self.registry.to_dict().items()):
            if not full_name.startswith("vary.fault_kind{"):
                continue
            labels = _parse_labels(full_name)
            out[labels["kind"]] = int(payload["value"])
        return out

    def latency_buckets(self) -> Dict[str, Any]:
        """The latency histogram's canonical dict (may be empty)."""
        for full_name, payload in sorted(
                self.registry.to_dict().items()):
            if full_name.startswith("vary.latency_ms"):
                return dict(payload)
        return {}


def _parse_labels(full_name: str) -> Dict[str, str]:
    """Invert ``name{k="v",...}`` to its label dict."""
    _, _, rest = full_name.partition("{")
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        labels[key] = value.strip('"')
    return labels


# ---------------------------------------------------------------------------
# The coverage report
# ---------------------------------------------------------------------------

#: JSON Schema (draft-07) for the coverage report artefact.
REPORT_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro vary coverage report",
    "type": "object",
    "required": ["schema_version", "spec", "spec_fingerprint",
                 "sampler", "points", "coverage", "regions",
                 "unexplored", "refinements", "verdict_totals"],
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "spec": {"type": "object"},
        "spec_fingerprint": {"type": "string", "minLength": 64},
        "sampler": {
            "type": "object",
            "required": ["strategy", "base_seed", "runs_per_point"],
            "properties": {
                "strategy": {"enum": ["grid", "lhs", "adaptive"]},
                "base_seed": {"type": "integer"},
                "runs_per_point": {"type": "integer", "minimum": 1},
            },
        },
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["key", "values", "origin", "verdicts",
                             "worst"],
                "properties": {
                    "key": {"type": "string", "minLength": 64},
                    "values": {"type": "object"},
                    "origin": {"enum": ["grid", "lhs", "refine"]},
                    "verdicts": {"type": "array",
                                 "items": {"type": "string"}},
                    "worst": {"type": "string"},
                    "latencies_ms": {"type": "array",
                                     "items": {"type": "number"}},
                },
            },
        },
        "coverage": {"type": "object"},
        "regions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["region", "classification", "verdicts"],
                "properties": {
                    "region": {"type": "string"},
                    "classification": {
                        "enum": ["safe", "failing", "boundary",
                                 "neutral"]},
                    "verdicts": {"type": "object"},
                },
            },
        },
        "unexplored": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["axis", "bin"],
                "properties": {
                    "axis": {"type": "string"},
                    "bin": {"type": "integer", "minimum": 0},
                },
            },
        },
        "refinements": {"type": "array"},
        "verdict_totals": {"type": "object"},
    },
}


def classify_region(verdicts: Mapping[str, int]) -> str:
    """``safe`` / ``failing`` / ``boundary`` / ``neutral`` for one
    region's verdict counts."""
    informative = {verdict: count
                   for verdict, count in sorted(verdicts.items())
                   if verdict not in NEUTRAL_VERDICTS and count > 0}
    if not informative:
        return "neutral"
    any_safe = any(is_safe_verdict(verdict) for verdict in informative)
    any_unsafe = any(not is_safe_verdict(verdict)
                     for verdict in informative)
    if any_safe and any_unsafe:
        return "boundary"
    return "safe" if any_safe else "failing"


def build_report(coverage: CoverageModel,
                 sampler_meta: Mapping[str, Any],
                 points: Sequence[Mapping[str, Any]],
                 refinements: Sequence[Mapping[str, Any]] = (),
                 ) -> Dict[str, Any]:
    """Assemble the canonical coverage-report dict.

    *points* and *refinements* are already-canonical dicts (the
    campaign layer builds them from its
    :class:`~repro.vary.campaign.PointResult` records); everything
    here is pure bookkeeping over deterministic inputs, so the report
    is byte-stable for a fixed (spec, seed) campaign regardless of
    worker count or tie-break policy.
    """
    spec = coverage.spec
    regions: List[Dict[str, Any]] = []
    for region, verdicts in sorted(coverage.region_verdicts().items()):
        regions.append({
            "region": region,
            "classification": classify_region(verdicts),
            "verdicts": {verdict: verdicts[verdict]
                         for verdict in sorted(verdicts)},
        })
    unexplored: List[Dict[str, Any]] = []
    for axis_name, counts in sorted(coverage.axis_occupancy().items()):
        for bin_index, count in enumerate(counts):
            if count == 0:
                unexplored.append({"axis": axis_name,
                                   "bin": bin_index})
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "spec_fingerprint": spec.fingerprint(),
        "sampler": {key: sampler_meta[key]
                    for key in sorted(sampler_meta)},
        "points": [dict(point) for point in points],
        "coverage": {
            "distinct_points": coverage.distinct_points,
            "axis_occupancy": coverage.axis_occupancy(),
            "latency_buckets": coverage.latency_buckets(),
            "fault_kinds": coverage.fault_kind_totals(),
        },
        "regions": regions,
        "unexplored": unexplored,
        "refinements": [dict(entry) for entry in refinements],
        "verdict_totals": coverage.verdict_totals(),
    }
    validate_report(report)
    return report


def report_json(report: Mapping[str, Any]) -> str:
    """The canonical JSON text of a report (digest input)."""
    return canonical_json(dict(report)) + "\n"


def report_digest(report: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical report JSON."""
    return hashlib.sha256(
        report_json(report).encode("utf-8")).hexdigest()


def validate_report(report: Mapping[str, Any]) -> None:
    """Structural validation of a report dict.

    Raises ``ValueError`` on any shape problem; uses ``jsonschema``
    additionally when importable (CI does).
    """
    for key in REPORT_SCHEMA["required"]:
        if key not in report:
            raise ValueError(f"coverage report missing key {key!r}")
    if report["schema_version"] != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"coverage report schema_version must be "
            f"{REPORT_SCHEMA_VERSION}")
    if not (isinstance(report["spec_fingerprint"], str)
            and len(report["spec_fingerprint"]) == 64):
        raise ValueError("spec_fingerprint must be a SHA-256 hex")
    for section in ("points", "regions", "unexplored", "refinements"):
        if not isinstance(report[section], list):
            raise ValueError(f"{section} must be an array")
    for index, point in enumerate(report["points"]):
        for key in ("key", "values", "origin", "verdicts", "worst"):
            if key not in point:
                raise ValueError(
                    f"points[{index}] missing key {key!r}")
    for index, region in enumerate(report["regions"]):
        if region.get("classification") not in (
                "safe", "failing", "boundary", "neutral"):
            raise ValueError(
                f"regions[{index}] has invalid classification "
                f"{region.get('classification')!r}")
    try:
        import jsonschema
    except ImportError:
        return
    try:
        jsonschema.validate(dict(report), REPORT_SCHEMA)
    except jsonschema.ValidationError as err:
        raise ValueError(
            f"coverage report fails schema: {err.message}") from err


def render_report(report: Mapping[str, Any],
                  top: int = 10) -> str:
    """A deterministic plain-text summary of one report."""
    lines: List[str] = []
    spec = report["spec"]
    lines.append(f"spec {spec['name']} ({spec['family']}), "
                 f"fingerprint {report['spec_fingerprint'][:16]}")
    sampler = report["sampler"]
    lines.append(f"sampler {sampler['strategy']} "
                 f"base_seed={sampler['base_seed']} "
                 f"runs/point={sampler['runs_per_point']}")
    lines.append(f"points evaluated: {len(report['points'])} "
                 f"({report['coverage']['distinct_points']} distinct)")
    totals = report["verdict_totals"]
    verdict_text = "  ".join(f"{verdict}={totals[verdict]}"
                             for verdict in sorted(totals))
    lines.append(f"verdicts: {verdict_text or '(none)'}")
    lines.append("")
    lines.append("axis occupancy (samples per bin):")
    occupancy = report["coverage"]["axis_occupancy"]
    for axis_name in sorted(occupancy):
        counts = occupancy[axis_name]
        rendered = " ".join(f"{count:4d}" for count in counts)
        lines.append(f"  {axis_name:<24} [{rendered} ]")
    unexplored = report["unexplored"]
    if unexplored:
        cells = ", ".join(f"{entry['axis']}#{entry['bin']}"
                          for entry in unexplored)
        lines.append(f"UNEXPLORED bins: {cells}")
    failing = [entry for entry in report["regions"]
               if entry["classification"] in ("failing", "boundary")]
    lines.append("")
    if failing:
        lines.append(f"failing / boundary regions "
                     f"({len(failing)} of {len(report['regions'])}):")
        for entry in failing[:top]:
            verdicts = entry["verdicts"]
            counts = "  ".join(f"{verdict}={verdicts[verdict]}"
                               for verdict in sorted(verdicts))
            lines.append(f"  [{entry['classification']:<8}] "
                         f"{entry['region']}  {counts}")
        if len(failing) > top:
            lines.append(f"  ... and {len(failing) - top} more")
    else:
        lines.append("no failing regions observed")
    refinements = report["refinements"]
    if refinements:
        lines.append("")
        lines.append(f"boundary refinements ({len(refinements)}):")
        for entry in refinements[:top]:
            lines.append(
                f"  {entry['verdict_safe']} <-> "
                f"{entry['verdict_unsafe']}  d="
                f"{entry['distance']:.3f}  "
                f"-> {canonical_json(entry['values'])}")
    return "\n".join(lines) + "\n"
