"""The fingerprint- and serialization-discipline family (FPR001..FPR008).

Every caching claim in the testbed -- bit-identical campaigns served
from the CACHE_FORMAT v5 artifact store, crash-invariant queue folds,
salted variation caches -- reduces to one convention: every
behavior-affecting field of a frozen config reaches its fingerprint
and survives ``to_dict``/``from_dict`` unchanged.  A field that leaks
out of that loop produces the worst failure mode a cached engine has:
a *stale hit*, where two configs that behave differently share a
cache key and one silently serves the other's results.  The FPR rules
check the convention statically on top of the serialization dataflow
layer (:mod:`repro.analysis.interproc.serialization`); the runtime
fingerprint-sensitivity battery (``tests/test_fingerprint_battery``)
is their dynamic cross-check.

========  ==========================================================
FPR001    frozen-config dataclass field missing from a handwritten
          ``to_dict``: serialization silently drops the field, so a
          round-tripped config is not the config that ran
FPR002    asymmetric round-trip: a ``to_dict`` with no
          ``from_dict`` (a one-way format), or a ``from_dict`` that
          drops or silently defaults a key ``to_dict`` always emits
          (a stale or truncated payload is accepted as current)
FPR003    field read on an execution path but absent from the
          fingerprint payload: two configs differing only in that
          field share a cache key (the stale-cache hazard)
FPR004    volatile, execution-irrelevant value (worker counts,
          output paths, ``tie_break``) folded into a fingerprint:
          cannot change results, so it only splits the cache
          (cache-busting churn)
FPR005    non-canonical serialization feeding a fingerprint:
          ``json.dumps`` without ``sort_keys=True`` or unsorted dict
          iteration makes equal payloads hash differently
FPR006    named-substream collision: two call sites can construct
          the same ``repro.sim.randomness`` substream name, so two
          "independent" streams draw identical values
FPR007    cache read path that parses a durable entry without
          verifying ``CACHE_FORMAT`` or the embedded digest: a stale
          or truncated entry is served as a hit
FPR008    enqueue/store key derived from anything other than the
          canonical fingerprint helper: ad-hoc keys break
          content-addressing and collide across configs
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.effect_rules import _module_in
from repro.analysis.findings import Finding
from repro.analysis.interproc.callgraph import Scope
from repro.analysis.interproc.effects import local_producer
from repro.analysis.interproc.project import ProjectContext
from repro.analysis.interproc.serialization import (
    COVERS_ALL,
    ClassSerialization,
    StreamSite,
)
from repro.analysis.interproc.symbols import FunctionSymbol, _dotted
from repro.analysis.schedule_rules import ProjectRule

#: Modules whose read paths face FPR007: the durable stores whose
#: entries carry a format tag and an embedded digest.
_DURABLE_MODULES = ("repro.core.artifacts", "repro.core.queue")

#: Field names that never change execution results: folding one into
#: a fingerprint splits the cache without protecting anything
#: (FPR004).  Exact-name matching -- ``path_loss_exponent`` is
#: physics, not a path.
VOLATILE_FIELDS = frozenset((
    "tie_break", "workers", "n_workers", "num_workers", "max_workers",
    "cache_dir", "queue_dir", "output_dir", "output", "out_path",
    "path", "root", "tmpdir", "tmp_dir", "verbose", "progress",
    "log_level",
))

#: Callables that mark a function as fingerprint-feeding (FPR005):
#: anything serialized inside one ends up hashed.
_HASH_SINKS = frozenset((
    "spec_fingerprint", "canonical_json", "sha256", "sha1", "md5",
    "blake2b", "blake2s",
))


def _classes(project: ProjectContext) -> Iterator[ClassSerialization]:
    serialization = project.serialization
    for qname in sorted(serialization.classes):
        yield serialization.classes[qname]


def _call_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class FingerprintRule(ProjectRule):
    """Base for the FPR family: anchors findings at dataflow sites."""

    def at(self, project: ProjectContext, symbol: FunctionSymbol,
           node: ast.AST, message: str) -> Finding:
        return self.finding(
            project, symbol.path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1, message)


class FieldMissingFromToDictRule(FingerprintRule):
    """FPR001: frozen-config field a handwritten to_dict drops."""

    rule_id = "FPR001"
    title = "frozen-config field missing from to_dict"
    rationale = (
        "A handwritten to_dict that skips a dataclass field makes "
        "serialization lossy: a config round-tripped through JSON is "
        "no longer the config that ran, and any consumer of the "
        "payload (queue meta, variation reports) sees a truncated "
        "spec.  Emit every field, or delegate to dataclasses.asdict "
        "so new fields cannot be forgotten.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for serial in _classes(project):
            if not (serial.is_dataclass and serial.frozen):
                continue
            if serial.to_dict is None or serial.to_dict_dynamic:
                continue
            emitted = serial.emitted
            for field in serial.fields:
                if field in emitted:
                    continue
                yield self.at(
                    project, serial.to_dict, serial.to_dict.node,
                    f"frozen config {serial.symbol.name} field "
                    f"'{field}' is missing from to_dict: the "
                    f"round-trip silently drops it -- emit every "
                    f"dataclass field or delegate to "
                    f"dataclasses.asdict")


class AsymmetricRoundTripRule(FingerprintRule):
    """FPR002: to_dict without from_dict, or a lossy from_dict."""

    rule_id = "FPR002"
    title = "to_dict without a from_dict that reads every key back"
    rationale = (
        "to_dict and from_dict are one contract: the run cache, the "
        "fault matrix and the golden traces all round-trip through "
        "it.  A type that can only serialise rots into a one-way "
        "format nobody can validate, so every to_dict pairs a "
        "from_dict.  Every key the writer always emits, the reader "
        "must require: a key read with a silent .get(key, default) "
        "accepts a payload from *before* the field existed as if it "
        "were current -- the exact shape of a stale-cache bug.  "
        "Read emitted keys strictly (data[key]) so absence is an "
        "error, and reject unknown keys so typos surface.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for serial in _classes(project):
            if serial.to_dict is None:
                continue
            if serial.from_dict is None:
                yield self.at(
                    project, serial.to_dict, serial.to_dict.node,
                    f"class {serial.symbol.name} defines to_dict but "
                    f"no from_dict; serialisable state must "
                    f"round-trip (or the export-only intent must "
                    f"be a written suppression)")
                continue
            if serial.to_dict_dynamic or serial.from_dict_dynamic:
                continue
            read_any = serial.reads_strict or serial.reads_defaulted
            if not read_any:
                # A fully delegating from_dict: nothing to judge.
                continue
            strict = set(serial.reads_strict)
            for key in serial.emits_always:
                if key in strict:
                    continue
                defaulted = serial.reads_defaulted.get(key)
                if defaulted is not None:
                    yield self.at(
                        project, serial.from_dict, defaulted,
                        f"{serial.symbol.name}.from_dict defaults "
                        f"key '{key}' that to_dict always emits: a "
                        f"payload missing it is silently accepted "
                        f"as current -- read it strictly "
                        f"(data[{key!r}]) so absence is an error")
                else:
                    yield self.at(
                        project, serial.from_dict,
                        serial.from_dict.node,
                        f"{serial.symbol.name}.from_dict never "
                        f"reads key '{key}' that to_dict emits: "
                        f"the round-trip silently drops it")


class FingerprintOmissionRule(FingerprintRule):
    """FPR003: a read field missing from the fingerprint payload."""

    rule_id = "FPR003"
    title = "field read on an execution path but not fingerprinted"
    rationale = (
        "A fingerprint must cover every field execution can observe: "
        "a field that is read but not hashed means two configs that "
        "behave differently share one cache key, and the second "
        "serves the first's results as a stale hit.  Cover the whole "
        "config (dataclasses.asdict / a complete to_dict), or "
        "document why the field cannot affect results.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        classes = project.serialization.classes
        for use in project.serialization.fingerprints:
            for qname in sorted(use.coverage):
                covered = use.coverage[qname]
                if covered == COVERS_ALL:
                    continue
                serial = classes.get(qname)
                if serial is None or not serial.is_dataclass:
                    continue
                assert isinstance(covered, frozenset)
                missing = set(serial.fields) - covered
                for field in sorted(missing & serial.reads):
                    yield self.at(
                        project, use.symbol, use.node,
                        f"field {serial.symbol.name}.{field} is "
                        f"read on an execution path but absent from "
                        f"this fingerprint payload: two configs "
                        f"differing only in '{field}' share a cache "
                        f"key (stale-cache hazard)")


class VolatileFingerprintInputRule(FingerprintRule):
    """FPR004: execution-irrelevant value folded into a fingerprint."""

    rule_id = "FPR004"
    title = "volatile value folded into a fingerprint"
    rationale = (
        "Worker counts, output paths and tie-break labels cannot "
        "change what a run computes (the tie-audit proves policies "
        "bit-identical), so hashing them only splits the cache: "
        "identical work re-runs because an irrelevant knob moved.  "
        "Exclude volatile fields from the payload -- or, where a "
        "field is deliberately cache-separating, suppress with the "
        "reason written down.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        classes = project.serialization.classes
        for use in project.serialization.fingerprints:
            for qname in sorted(use.coverage):
                serial = classes.get(qname)
                if serial is None or not serial.is_dataclass:
                    continue
                covered = use.coverage[qname]
                if covered == COVERS_ALL:
                    names = frozenset(serial.fields)
                else:
                    assert isinstance(covered, frozenset)
                    names = covered & frozenset(serial.fields)
                for field in sorted(names & VOLATILE_FIELDS):
                    yield self.at(
                        project, use.symbol, use.node,
                        f"volatile field {serial.symbol.name}."
                        f"{field} is folded into the fingerprint: "
                        f"it cannot change results, so hashing it "
                        f"only splits the cache -- exclude it from "
                        f"the payload or suppress with the reason "
                        f"written down")


class NonCanonicalSerializationRule(FingerprintRule):
    """FPR005: non-canonical serialization feeding a fingerprint."""

    rule_id = "FPR005"
    title = "non-canonical serialization feeds a fingerprint"
    rationale = (
        "Hashes are only stable over canonical bytes.  json.dumps "
        "without sort_keys=True serializes dicts in insertion order, "
        "and bare .items()/.keys()/.values() iteration feeding a "
        "digest does the same: two equal payloads built in different "
        "orders hash differently, so caches miss (or worse, a "
        "reordered payload is treated as new work).  Use "
        "canonical_json, or sort_keys=True and sorted() iteration.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        functions = project.symbols.functions
        for qname in sorted(functions):
            symbol = functions[qname]
            if not self._feeds_hash(symbol):
                continue
            for node, message in self._violations(symbol):
                yield self.at(project, symbol, node, message)

    @staticmethod
    def _feeds_hash(symbol: FunctionSymbol) -> bool:
        return any(isinstance(sub, ast.Call) and
                   _call_name(sub) in _HASH_SINKS for sub in symbol.nodes)

    def _violations(self, symbol: FunctionSymbol
                    ) -> Iterator[Tuple[ast.AST, str]]:
        iters: List[ast.expr] = []
        for sub in symbol.nodes:
            if isinstance(sub, (ast.For, ast.AsyncFor)):
                iters.append(sub.iter)
            elif isinstance(sub, (ast.ListComp, ast.SetComp,
                                  ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in sub.generators)
            elif isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted in ("json.dumps", "dumps") and \
                        not any(kw.arg == "sort_keys"
                                for kw in sub.keywords):
                    yield sub, (
                        "json.dumps without sort_keys=True feeds a "
                        "fingerprint: dicts serialize in insertion "
                        "order, so equal payloads can hash "
                        "differently -- use canonical_json or pass "
                        "sort_keys=True")
        for expr in iters:
            call = self._unsorted_view(expr)
            if call is not None:
                assert isinstance(call.func, ast.Attribute)
                yield call, (
                    f"unsorted .{call.func.attr}() iteration feeds "
                    f"a fingerprint: insertion order leaks into the "
                    f"digest -- wrap the iterable in sorted(...)")

    @staticmethod
    def _unsorted_view(expr: ast.expr) -> Optional[ast.Call]:
        """The bare dict-view call iterated, if not sorted()-wrapped."""
        target = expr
        if isinstance(target, ast.Call) and \
                isinstance(target.func, ast.Name) and \
                target.func.id in ("list", "tuple") and target.args:
            target = target.args[0]
        if isinstance(target, ast.Call) and \
                isinstance(target.func, ast.Attribute) and \
                target.func.attr in ("items", "keys", "values"):
            return target
        return None


class SubstreamCollisionRule(FingerprintRule):
    """FPR006: two call sites construct one substream name."""

    rule_id = "FPR006"
    title = "named-substream collision"
    rationale = (
        "RandomStreams.get(name) derives the stream seed from the "
        "name: two sites constructing the same name on the same "
        "streams object draw *identical* values, silently "
        "correlating what should be independent randomness.  Every "
        "substream name must be unique per consumer; scope shared "
        "prefixes with a per-consumer suffix.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        groups: Dict[Tuple[str, str, str, str],
                     List[StreamSite]] = {}
        for site in project.serialization.streams:
            key = (site.symbol.module, site.symbol.cls or "",
                   site.receiver, site.name)
            groups.setdefault(key, []).append(site)
        for key in sorted(groups):
            sites = groups[key]
            first = sites[0]
            if all(site.symbol.qname == first.symbol.qname
                   for site in sites):
                continue
            for site in sites:
                if site.symbol.qname == first.symbol.qname:
                    continue
                yield self.at(
                    project, site.symbol, site.node,
                    f"substream name '{site.name}' on "
                    f"{site.receiver} is also constructed in "
                    f"{first.symbol.qname} ({first.symbol.path}:"
                    f"{first.node.lineno}): two streams with one "
                    f"name draw identical values (correlated "
                    f"draws) -- make the name unique per consumer")


class UnverifiedCacheReadRule(FingerprintRule):
    """FPR007: cache read that skips format/digest verification."""

    rule_id = "FPR007"
    title = "cache read without CACHE_FORMAT/digest verification"
    rationale = (
        "Durable-store entries carry a format tag and an embedded "
        "sha256 precisely so readers can reject stale or truncated "
        "bytes.  A read path that parses an entry without comparing "
        "either serves garbage as a hit after a crash or a format "
        "bump.  Verify the format tag and the digest before "
        "trusting the body (ArtifactStore.get is the template).")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        functions = project.symbols.functions
        for qname in sorted(functions):
            symbol = functions[qname]
            if not _module_in(symbol.module, _DURABLE_MODULES):
                continue
            load = self._unverified_load(symbol)
            if load is not None:
                yield self.at(
                    project, symbol, load,
                    "cache read parses a durable entry without "
                    "verifying CACHE_FORMAT or the embedded "
                    "digest: a stale or truncated entry is served "
                    "as a hit -- compare the format tag and sha256 "
                    "before trusting the body")

    @staticmethod
    def _unverified_load(symbol: FunctionSymbol
                         ) -> Optional[ast.Call]:
        opens_for_read = False
        load: Optional[ast.Call] = None
        verified = False
        for sub in symbol.nodes:
            if isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted == "open":
                    mode = None
                    if len(sub.args) > 1 and \
                            isinstance(sub.args[1], ast.Constant):
                        mode = sub.args[1].value
                    for kw in sub.keywords:
                        if kw.arg == "mode" and \
                                isinstance(kw.value, ast.Constant):
                            mode = kw.value.value
                    if mode is None or (isinstance(mode, str)
                                        and "r" in mode
                                        and "+" not in mode):
                        opens_for_read = True
                elif dotted in ("json.load", "json.loads") and \
                        load is None:
                    load = sub
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.Constant) and \
                    isinstance(sub.value, str):
                name = sub.value
            else:
                continue
            if name.endswith("_FORMAT") or "digest" in name.lower() \
                    or name in ("format", "sha256"):
                verified = True
        if opens_for_read and load is not None and not verified:
            return load
        return None


class AdHocStoreKeyRule(FingerprintRule):
    """FPR008: store/enqueue key not from the fingerprint helper."""

    rule_id = "FPR008"
    title = "store key derived outside the canonical fingerprint"
    rationale = (
        "Content-addressing only holds when every store and queue "
        "key comes from the canonical fingerprint helpers "
        "(spec_fingerprint and its wrappers): an ad-hoc key -- an "
        "f-string, str(seed), a raw hexdigest -- collides across "
        "configs or misses on identical work, and the crash-fold "
        "equality proof no longer covers it.  Derive the key from "
        "the config's fingerprint.")

    #: Value shapes that are definitely not fingerprint-derived.
    _BAD_CALLS = frozenset(("repr", "hash", "format", "id"))

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        functions = project.symbols.functions
        for qname in sorted(functions):
            symbol = functions[qname]
            for node, value, what in self._key_sites(symbol):
                verdict = self._judge(project.scopes[qname], value)
                if verdict is not None:
                    yield self.at(
                        project, symbol, node,
                        f"{what} derived from {verdict} instead of "
                        f"the canonical fingerprint helper: ad-hoc "
                        f"keys break content-addressing -- derive "
                        f"it from spec_fingerprint (or a wrapper "
                        f"like scenario_fingerprint)")

    @staticmethod
    def _key_sites(symbol: FunctionSymbol
                   ) -> Iterator[Tuple[ast.AST, ast.expr, str]]:
        for sub in symbol.nodes:
            if isinstance(sub, ast.Dict):
                for key, value in zip(sub.keys, sub.values):
                    if isinstance(key, ast.Constant) and \
                            key.value == "result_key":
                        yield key, value, "enqueue result_key"
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Subscript) and \
                            isinstance(target.slice, ast.Constant) \
                            and target.slice.value == "result_key":
                        yield target, sub.value, "enqueue result_key"
            elif isinstance(sub, ast.Call):
                for kw in sub.keywords:
                    if kw.arg == "result_key":
                        yield kw.value, kw.value, "enqueue result_key"
                func = sub.func
                if isinstance(func, ast.Attribute) and \
                        func.attr == "put" and sub.args:
                    receiver = _dotted(func.value) or ""
                    lowered = receiver.lower()
                    if "store" in lowered or "cache" in lowered:
                        yield sub.args[0], sub.args[0], \
                            f"{receiver}.put key"

    def _judge(self, scope: Scope,
               value: ast.expr) -> Optional[str]:
        """A description of the ad-hoc shape, or None when fine."""
        if isinstance(value, ast.Name):
            produced = local_producer(scope, value.id)
            if produced is None:
                return None
            value = produced
        if isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Name) and \
                value.func.id == "str" and value.args:
            # str() is a coercion: judge what it wraps (a Constant
            # seed is still ad-hoc; a propagated key is still fine).
            inner = value.args[0]
            if isinstance(inner, ast.Constant):
                return "a literal"
            if not isinstance(inner, ast.Name):
                return self._judge(scope, inner)
            return None
        if isinstance(value, ast.Constant):
            return "a literal" if \
                isinstance(value.value, (str, int, float)) else None
        if isinstance(value, ast.JoinedStr):
            return "an f-string"
        if isinstance(value, ast.BinOp) and \
                isinstance(value.op, (ast.Add, ast.Mod)):
            for part in ast.walk(value):
                if isinstance(part, ast.Constant) and \
                        isinstance(part.value, str):
                    return "string concatenation"
            return None
        if isinstance(value, ast.Call):
            name = _call_name(value) or ""
            dotted = _dotted(value.func) or ""
            if "fingerprint" in name:
                return None
            if name in self._BAD_CALLS:
                return f"{name}(...)"
            if name == "hexdigest" or dotted.startswith("hashlib."):
                return "a raw hash digest"
            return None
        return None


_FINGERPRINT_RULES: Tuple[FingerprintRule, ...] = (
    FieldMissingFromToDictRule(),
    AsymmetricRoundTripRule(),
    FingerprintOmissionRule(),
    VolatileFingerprintInputRule(),
    NonCanonicalSerializationRule(),
    SubstreamCollisionRule(),
    UnverifiedCacheReadRule(),
    AdHocStoreKeyRule(),
)


def all_fingerprint_rules() -> Tuple[FingerprintRule, ...]:
    """Every FPR rule, sorted by rule id."""
    return tuple(sorted(_FINGERPRINT_RULES,
                        key=lambda rule: rule.rule_id))


def fingerprint_rule_ids() -> Tuple[str, ...]:
    """The registered FPR rule ids, sorted."""
    return tuple(rule.rule_id for rule in all_fingerprint_rules())


__all__ = [
    "VOLATILE_FIELDS",
    "AdHocStoreKeyRule",
    "AsymmetricRoundTripRule",
    "FieldMissingFromToDictRule",
    "FingerprintOmissionRule",
    "FingerprintRule",
    "NonCanonicalSerializationRule",
    "SubstreamCollisionRule",
    "UnverifiedCacheReadRule",
    "VolatileFingerprintInputRule",
    "all_fingerprint_rules",
    "fingerprint_rule_ids",
]
