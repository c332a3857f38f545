"""Serialization-discipline dataflow (the FPR family's ground layer).

Where the effect layer answers "what does calling this function do to
the durable world", this pass answers "does a frozen config's content
*survive* the world": which dataclass fields exist, which keys
``to_dict`` emits, which keys ``from_dict`` reads back (strictly, or
behind a silent default), which classes feed which fingerprint calls
and through what coverage (``dataclasses.asdict`` covers everything,
an explicit ``to_dict`` covers exactly its keys), and where named
randomness substreams are constructed.  The FPR rules
(:mod:`repro.analysis.fingerprint_rules`) are thin queries over this
map.

Everything here is static and deterministic: classes are matched by
annotation (parameter annotations, ``self`` in methods, local
constructor assignments), keys are only collected when they are
string literals, and anything unresolvable contributes *nothing* --
a rule must treat "unknown" as "cannot judge", never as a violation.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple, Union

from repro.analysis.interproc.callgraph import Scope
from repro.analysis.interproc.effects import is_stream_get, local_producer
from repro.analysis.interproc.symbols import (
    ClassSymbol,
    FunctionSymbol,
    SymbolTable,
    _dotted,
)

#: Coverage of a fingerprint payload over one class: every field
#: (``asdict``), or exactly the named keys (an explicit ``to_dict``
#: or field-by-field payload construction).
Coverage = Union[str, FrozenSet[str]]

COVERS_ALL = "all"

#: Typing names an annotation may wrap a class in; never classes.
_TYPING_NAMES = frozenset((
    "Optional", "Union", "List", "Dict", "Tuple", "Set", "Sequence",
    "Mapping", "Iterable", "Any", "ClassVar", "Final", "str", "int",
    "float", "bool", "bytes", "None", "object", "Callable", "Type",
))

#: Statements under which a ``to_dict`` key emission (or a dict-store)
#: only *may* happen -- such keys are optional by design and exempt
#: from the round-trip symmetry check.
_CONDITIONAL_STMTS = (ast.If, ast.For, ast.AsyncFor, ast.While,
                      ast.Try)


@dataclasses.dataclass
class ClassSerialization:
    """One class's serialization surface."""

    symbol: ClassSymbol
    #: Whether the class is a ``@dataclass``; fields are () otherwise.
    is_dataclass: bool
    frozen: bool
    #: Dataclass field names, in declaration order (ClassVars out).
    fields: Tuple[str, ...]
    to_dict: Optional[FunctionSymbol] = None
    #: Keys the top-level to_dict payload always emits.
    emits_always: Tuple[str, ...] = ()
    #: Keys only emitted on some path (inside if/for/try).
    emits_conditional: Tuple[str, ...] = ()
    #: to_dict delegates to asdict()/dataclasses.fields(): every
    #: field is emitted, whatever the literal keys say.
    to_dict_dynamic: bool = False
    from_dict: Optional[FunctionSymbol] = None
    #: Keys from_dict reads deliberately: ``data["k"]``, ``"k" in
    #: data`` or a bare ``data.get("k")`` probe (absence handled
    #: explicitly, not silently defaulted).
    reads_strict: Tuple[str, ...] = ()
    #: key -> the ``data.get("k", fallback)`` call that silently
    #: defaults it.
    reads_defaulted: Dict[str, ast.Call] = dataclasses.field(
        default_factory=dict)
    #: from_dict iterates dataclasses.fields()/items() or splats
    #: ``**data``: every key is read, whatever the literals say.
    from_dict_dynamic: bool = False
    #: Field names read as instance attributes anywhere in the
    #: project (``self.x`` in methods, ``cfg.x`` on annotated vars):
    #: the static proxy for "used on an execution path".
    reads: FrozenSet[str] = frozenset()

    @property
    def emitted(self) -> FrozenSet[str]:
        """Every key to_dict can emit (or all fields when dynamic)."""
        if self.to_dict_dynamic:
            return frozenset(self.fields) | \
                frozenset(self.emits_always) | \
                frozenset(self.emits_conditional)
        return frozenset(self.emits_always) | \
            frozenset(self.emits_conditional)


@dataclasses.dataclass
class FingerprintUse:
    """One ``spec_fingerprint(...)`` call and what flows into it."""

    symbol: FunctionSymbol
    node: ast.Call
    #: The literal kind argument, when known ("scenario", "vary"...).
    kind: Optional[str]
    #: class qname -> how much of the class the payload covers.
    coverage: Dict[str, Coverage]


@dataclasses.dataclass
class StreamSite:
    """One ``<streams>.get("<literal name>")`` construction site."""

    symbol: FunctionSymbol
    node: ast.Call
    #: The receiver expression's dotted text (``self.streams``).
    receiver: str
    #: The full literal substream name.
    name: str


@dataclasses.dataclass
class SerializationMap:
    """The assembled field -> fingerprint -> serialization view."""

    #: class qname -> its serialization surface.
    classes: Dict[str, ClassSerialization]
    #: Every fingerprint call, in (path, line) order.
    fingerprints: List[FingerprintUse]
    #: Every named-substream construction site, in (path, line) order.
    streams: List[StreamSite]


# ---------------------------------------------------------------------------
# Class surface extraction
# ---------------------------------------------------------------------------


def _dataclass_decoration(node: ast.ClassDef) -> Tuple[bool, bool]:
    """(is_dataclass, frozen) from the decorator list."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = _dotted(target)
        if dotted not in ("dataclass", "dataclasses.dataclass"):
            continue
        frozen = False
        if isinstance(deco, ast.Call):
            for keyword in deco.keywords:
                if keyword.arg == "frozen" and \
                        isinstance(keyword.value, ast.Constant):
                    frozen = bool(keyword.value.value)
        return True, frozen
    return False, False


def _is_classvar(annotation: ast.expr) -> bool:
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name) and sub.id == "ClassVar":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "ClassVar":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> Tuple[str, ...]:
    out: List[str] = []
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and \
                isinstance(item.target, ast.Name) and \
                not _is_classvar(item.annotation):
            out.append(item.target.id)
    return tuple(out)


def _literal_key(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _returned_dict_names(fn: FunctionSymbol) -> Set[str]:
    """Local names the function returns (``return data``)."""
    out: Set[str] = set()
    for sub in fn.nodes:
        if isinstance(sub, ast.Return) and \
                isinstance(sub.value, ast.Name):
            out.add(sub.value.id)
    return out


def _collect_emits(fn: FunctionSymbol
                   ) -> Tuple[Set[str], Set[str], bool]:
    """(always, conditional, dynamic) emitted keys of a to_dict.

    Only the *top-level* payload counts: keys of a returned dict
    literal, keys of a dict literal assigned to a returned local, and
    ``data["k"] = ...`` stores on that local.  Nested dict values
    never pollute the key set.
    """
    returned = _returned_dict_names(fn)
    always: Set[str] = set()
    conditional: Set[str] = set()
    dynamic = False

    def _keys_of(value: ast.expr) -> Set[str]:
        keys: Set[str] = set()
        if isinstance(value, ast.Dict):
            for key in value.keys:
                literal = _literal_key(key) if key is not None else None
                if literal is not None:
                    keys.add(literal)
        return keys

    def _visit(stmt: ast.stmt, in_conditional: bool) -> None:
        bucket = conditional if in_conditional else always
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # a nested def's returns are not the payload
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            bucket |= _keys_of(stmt.value)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            value = stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and \
                        target.id in returned and value is not None:
                    bucket |= _keys_of(value)
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id in returned:
                    literal = _literal_key(target.slice)
                    if literal is not None:
                        bucket.add(literal)
        for child_field in ("body", "orelse", "finalbody"):
            for child in getattr(stmt, child_field, []):
                if isinstance(child, ast.stmt):
                    _visit(child, in_conditional or isinstance(
                        stmt, _CONDITIONAL_STMTS))
        for handler in getattr(stmt, "handlers", []):
            for child in handler.body:
                _visit(child, True)

    for stmt in getattr(fn.node, "body", []):
        _visit(stmt, False)
    for sub in fn.nodes:
        if isinstance(sub, ast.Call):
            dotted = _dotted(sub.func)
            if dotted in ("asdict", "dataclasses.asdict",
                          "fields", "dataclasses.fields"):
                dynamic = True
    return always, conditional, dynamic


def _data_param(fn: ast.AST) -> Optional[str]:
    """The payload parameter of a from_dict (first after cls/self)."""
    args = [arg.arg for arg in getattr(fn, "args", ast.arguments(
        posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[],
        defaults=[])).args]
    if args and args[0] in ("cls", "self"):
        args = args[1:]
    return args[0] if args else None


#: Builtin coercions a from_dict may hand its payload to without
#: hiding key reads (``set(data) - known`` is an unknown-key check,
#: not a consumer of specific keys).
_PAYLOAD_COERCIONS = frozenset((
    "set", "dict", "list", "tuple", "frozenset", "sorted", "len",
    "bool", "repr", "str", "isinstance",
))


def _collect_reads(fn: FunctionSymbol
                   ) -> Tuple[Set[str], Dict[str, ast.Call], bool]:
    """(strict, defaulted, dynamic) keys a from_dict reads.

    The payload escaping into a user helper (``_check_keys(data)``)
    flips *dynamic*: the helper may read any key, so the rule must
    not claim one is unread.
    """
    param = _data_param(fn.node)
    strict: Set[str] = set()
    defaulted: Dict[str, ast.Call] = {}
    dynamic = False
    if param is None:
        return strict, defaulted, dynamic
    for sub in fn.nodes:
        if isinstance(sub, ast.Subscript) and \
                isinstance(sub.value, ast.Name) and \
                sub.value.id == param:
            literal = _literal_key(sub.slice)
            if literal is not None:
                strict.add(literal)
        elif isinstance(sub, ast.Compare) and \
                len(sub.ops) == 1 and \
                isinstance(sub.ops[0], (ast.In, ast.NotIn)) and \
                isinstance(sub.comparators[0], ast.Name) and \
                sub.comparators[0].id == param:
            literal = _literal_key(sub.left)
            if literal is not None:
                strict.add(literal)
        elif isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and \
                    func.attr == "get" and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == param and sub.args:
                literal = _literal_key(sub.args[0])
                if literal is None:
                    continue
                if len(sub.args) > 1 or sub.keywords:
                    defaulted.setdefault(literal, sub)
                else:
                    # A bare .get probe handles absence explicitly.
                    strict.add(literal)
            elif isinstance(func, ast.Attribute) and \
                    func.attr in ("items", "keys") and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == param:
                dynamic = True
            else:
                dotted = _dotted(func)
                if dotted in ("fields", "dataclasses.fields"):
                    dynamic = True
                escapes = dotted is None or \
                    dotted not in _PAYLOAD_COERCIONS
                for arg in sub.args:
                    if isinstance(arg, ast.Name) and \
                            arg.id == param and escapes:
                        dynamic = True
                for keyword in sub.keywords:
                    if isinstance(keyword.value, ast.Name) and \
                            keyword.value.id == param and \
                            (keyword.arg is None or escapes):
                        dynamic = True
    return strict, defaulted, dynamic


# ---------------------------------------------------------------------------
# Instance typing (annotation -> class) and attribute reads
# ---------------------------------------------------------------------------


def _annotation_class(table: SymbolTable, module: str,
                      annotation: ast.expr) -> Optional[ClassSymbol]:
    """The class an annotation names, unwrapping Optional/strings."""
    candidates: List[str] = []
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name):
            candidates.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            dotted = _dotted(sub)
            if dotted is not None:
                candidates.append(dotted)
        elif isinstance(sub, ast.Constant) and \
                isinstance(sub.value, str):
            candidates.append(sub.value.strip())
    for name in candidates:
        if name in _TYPING_NAMES:
            continue
        found = table.resolve_class(module, name)
        if found is not None:
            return found
    return None


def instance_vars(table: SymbolTable, symbol: FunctionSymbol,
                  enclosing: Optional[Mapping[str, str]] = None
                  ) -> Dict[str, str]:
    """Local/parameter name -> class qname, where statically known.

    A closure starts from *enclosing*, its enclosing def's map.
    """
    out: Dict[str, str] = dict(enclosing or {})
    if symbol.cls is not None:
        cls_qname = f"{symbol.module}.{symbol.cls}"
        if cls_qname in table.classes:
            out["self"] = cls_qname
    fn = symbol.node
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return out
    for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
        if arg.annotation is not None:
            found = _annotation_class(table, symbol.module,
                                      arg.annotation)
            if found is not None:
                out[arg.arg] = found.qname
    for sub in symbol.nodes:
        target: Optional[str] = None
        value: Optional[ast.expr] = None
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                and isinstance(sub.targets[0], ast.Name):
            target, value = sub.targets[0].id, sub.value
        elif isinstance(sub, ast.AnnAssign) and \
                isinstance(sub.target, ast.Name):
            target = sub.target.id
            found = _annotation_class(table, symbol.module,
                                     sub.annotation)
            if found is not None:
                out[target] = found.qname
                continue
            value = sub.value
        if target is None or value is None:
            continue
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func)
            if dotted is not None:
                found = table.resolve_class(symbol.module, dotted)
                if found is not None:
                    out[target] = found.qname
    return out


# ---------------------------------------------------------------------------
# Fingerprint coverage
# ---------------------------------------------------------------------------


def _is_fingerprint_call(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)
    return name == "spec_fingerprint"


def _payload_arg(call: ast.Call) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == "payload":
            return keyword.value
    if len(call.args) >= 3:
        return call.args[2]
    return None


def _merge_coverage(coverage: Dict[str, Coverage], qname: str,
                    update: Coverage) -> None:
    current = coverage.get(qname)
    if current == COVERS_ALL or update == COVERS_ALL:
        coverage[qname] = COVERS_ALL
    elif current is None:
        coverage[qname] = update
    else:
        assert isinstance(current, frozenset) and \
            isinstance(update, frozenset)
        coverage[qname] = current | update


def _payload_coverage(classes: Dict[str, ClassSerialization],
                      scope: Scope,
                      varmap: Dict[str, str],
                      payload: ast.expr) -> Dict[str, Coverage]:
    """What the payload expression covers, per contributing class."""
    coverage: Dict[str, Coverage] = {}
    seen_names: Set[str] = set()
    queue: List[ast.expr] = [payload]
    depth = 0
    while queue and depth < 64:
        depth += 1
        expr = queue.pop(0)
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and \
                    sub.id not in varmap and \
                    sub.id not in seen_names:
                # Fold a locally built payload (``payload = {...}``).
                seen_names.add(sub.id)
                produced = local_producer(scope, sub.id)
                if produced is not None:
                    queue.append(produced)
            elif isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted in ("asdict", "dataclasses.asdict") and \
                        sub.args and \
                        isinstance(sub.args[0], ast.Name):
                    qname = varmap.get(sub.args[0].id)
                    if qname is not None:
                        _merge_coverage(coverage, qname, COVERS_ALL)
                elif isinstance(sub.func, ast.Attribute) and \
                        sub.func.attr == "to_dict" and \
                        isinstance(sub.func.value, ast.Name):
                    qname = varmap.get(sub.func.value.id)
                    serial = classes.get(qname or "")
                    if serial is not None:
                        if serial.to_dict_dynamic:
                            _merge_coverage(coverage, serial.symbol.qname,
                                            COVERS_ALL)
                        else:
                            _merge_coverage(coverage, serial.symbol.qname,
                                            serial.emitted)
            elif isinstance(sub, ast.Attribute) and \
                    isinstance(sub.value, ast.Name):
                qname = varmap.get(sub.value.id)
                serial = classes.get(qname or "")
                if serial is not None and \
                        sub.attr in serial.fields:
                    _merge_coverage(coverage, serial.symbol.qname,
                                    frozenset((sub.attr,)))
    return coverage


# ---------------------------------------------------------------------------
# Stream construction sites
# ---------------------------------------------------------------------------


def full_literal(scope: Scope, expr: ast.expr) -> Optional[str]:
    """The *complete* literal value of a string expression.

    Unlike :func:`~repro.analysis.interproc.effects.leading_literal`
    (a prefix, enough for family checks), collision detection needs
    the whole name: anything partially dynamic returns None.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Name):
        produced = local_producer(scope, expr.id)
        if isinstance(produced, ast.Constant) and \
                isinstance(produced.value, str):
            return produced.value
    return None


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def build_serialization_map(table: SymbolTable,
                            scopes: Mapping[str, Scope]
                            ) -> SerializationMap:
    """Assemble the full serialization view over *table*."""
    classes: Dict[str, ClassSerialization] = {}
    for qname in sorted(table.classes):
        cls = table.classes[qname]
        is_dc, frozen = _dataclass_decoration(cls.node)
        serial = ClassSerialization(
            symbol=cls, is_dataclass=is_dc, frozen=frozen,
            fields=_dataclass_fields(cls.node) if is_dc else ())
        to_dict_q = cls.method("to_dict")
        if to_dict_q is not None:
            serial.to_dict = table.functions[to_dict_q]
            always, conditional, dynamic = _collect_emits(
                serial.to_dict)
            serial.emits_always = tuple(sorted(always))
            serial.emits_conditional = tuple(sorted(conditional))
            serial.to_dict_dynamic = dynamic
        from_dict_q = cls.method("from_dict")
        if from_dict_q is not None:
            serial.from_dict = table.functions[from_dict_q]
            strict, defaulted, dynamic = _collect_reads(
                serial.from_dict)
            serial.reads_strict = tuple(sorted(strict))
            serial.reads_defaulted = defaulted
            serial.from_dict_dynamic = dynamic
        classes[qname] = serial

    fingerprints: List[FingerprintUse] = []
    streams: List[StreamSite] = []
    reads: Dict[str, Set[str]] = {qname: set() for qname in classes}
    varmaps: Dict[str, Dict[str, str]] = {}
    for fq in sorted(table.functions):
        symbol = table.functions[fq]
        varmap = varmaps[fq] = instance_vars(table, symbol, varmaps.get(
            symbol.parent.qname) if symbol.parent else None)
        for sub in symbol.nodes:
            if not isinstance(sub, ast.Call):
                if isinstance(sub, ast.Attribute) and \
                        isinstance(sub.ctx, ast.Load) and \
                        isinstance(sub.value, ast.Name):
                    qname = varmap.get(sub.value.id)
                    serial = classes.get(qname or "")
                    if serial is not None and \
                            sub.attr in serial.fields:
                        reads[serial.symbol.qname].add(sub.attr)
                continue
            if _is_fingerprint_call(sub):
                payload = _payload_arg(sub)
                kind = None
                if sub.args and isinstance(sub.args[0], ast.Constant) \
                        and isinstance(sub.args[0].value, str):
                    kind = sub.args[0].value
                coverage: Dict[str, Coverage] = {}
                if payload is not None:
                    coverage = _payload_coverage(
                        classes, scopes[fq], varmap, payload)
                fingerprints.append(FingerprintUse(
                    symbol=symbol, node=sub, kind=kind,
                    coverage=coverage))
            elif is_stream_get(sub) and sub.args:
                name = full_literal(scopes[fq], sub.args[0])
                receiver = _dotted(sub.func.value)  # type: ignore[union-attr]
                if name is not None and receiver is not None:
                    streams.append(StreamSite(
                        symbol=symbol, node=sub,
                        receiver=receiver, name=name))
    for qname, serial in classes.items():
        serial.reads = frozenset(reads[qname])
    fingerprints.sort(key=lambda use: (use.symbol.path,
                                       use.node.lineno,
                                       use.node.col_offset))
    streams.sort(key=lambda site: (site.symbol.path,
                                   site.node.lineno,
                                   site.node.col_offset))
    return SerializationMap(classes=classes,
                            fingerprints=fingerprints,
                            streams=streams)


__all__ = [
    "COVERS_ALL",
    "ClassSerialization",
    "Coverage",
    "FingerprintUse",
    "SerializationMap",
    "StreamSite",
    "build_serialization_map",
    "full_literal",
    "instance_vars",
]
