"""Delay-expression dataflow and project-wide taint.

:func:`evaluate_delay` folds the delay argument of one schedule call
to a :class:`DelayValue`: a literal number, a named constant (module
constant, class constant or defaulted ``__init__`` parameter bound to
``self``), a *tainted* value (derived from wall clock or unseeded
randomness -- possibly through helper functions, which is where the
call graph comes in) or unknown.

:func:`tainted_functions` runs the interprocedural half: a fixpoint
over the call graph marking every function that transitively calls a
wall-clock or global-randomness API.  SCH003 uses it to flag schedule
delays computed from nondeterministic sources *anywhere* below the
call site -- the interprocedural strengthening of the per-file DET001
and DET002 pattern checks.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.analysis.interproc.symbols import SymbolTable, _dotted
from repro.analysis.rules import ModuleContext, resolve_target

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.interproc.callgraph import CallGraph, Scope

#: Wall-clock and global-randomness call targets that taint a value.
#: ``time.perf_counter`` is deliberately absent: the campaign executor
#: uses it for per-run host durations that never feed simulated
#: behaviour.
TAINT_SOURCES: Dict[str, str] = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "wall clock",
    "time.monotonic_ns": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "random.random": "unseeded randomness",
    "random.uniform": "unseeded randomness",
    "random.randint": "unseeded randomness",
    "random.randrange": "unseeded randomness",
    "random.expovariate": "unseeded randomness",
    "random.gauss": "unseeded randomness",
    "numpy.random.random": "unseeded randomness",
    "numpy.random.rand": "unseeded randomness",
    "numpy.random.uniform": "unseeded randomness",
}

#: Modules whose own use of these APIs is sanctioned (the substream
#: factory seeds from them deliberately).
TAINT_EXEMPT_MODULES = ("repro.sim.randomness",)


@dataclasses.dataclass(frozen=True)
class DelayValue:
    """What a schedule delay argument folds to."""

    #: ``literal`` | ``constant`` | ``tainted`` | ``unknown``.
    kind: str
    #: The folded numeric value (literal / constant kinds).
    value: Optional[float] = None
    #: The constant's qualified name (constant kind) or the taint
    #: reason (tainted kind).
    origin: str = ""

    @property
    def known(self) -> bool:
        """Whether the numeric value is statically known."""
        return self.kind in ("literal", "constant") \
            and self.value is not None


def direct_taint(ctx: ModuleContext,
                 nodes: Iterable[ast.AST]) -> Optional[str]:
    """The taint reason when *nodes* hold a banned call."""
    for sub in nodes:
        if not isinstance(sub, ast.Call):
            continue
        target = resolve_target(ctx, sub.func)
        if target is None:
            continue
        reason = TAINT_SOURCES.get(target)
        if reason is not None:
            return f"{reason} ({target})"
    return None


def tainted_functions(table: SymbolTable,
                      graph: "CallGraph") -> Dict[str, str]:
    """qname -> reason, for every transitively tainted function.

    Seeds with functions whose bodies call a :data:`TAINT_SOURCES`
    API directly (outside the exempt modules), then propagates
    backwards over call edges to fixpoint: a caller of a tainted
    function is tainted with a ``via ...`` chain, so the report can
    say *how* nondeterminism reaches a schedule site.
    """
    taints: Dict[str, str] = {}
    for qname in sorted(table.functions):
        symbol = table.functions[qname]
        if any(symbol.module == m or symbol.module.startswith(m + ".")
               for m in TAINT_EXEMPT_MODULES):
            continue
        ctx = table.modules.get(symbol.module)
        if ctx is None:
            continue
        reason = direct_taint(ctx, symbol.nodes)
        if reason is not None:
            taints[qname] = reason
    # Propagate caller <- callee to fixpoint (deterministic order).
    changed = True
    while changed:
        changed = False
        for caller in sorted(graph.edges):
            if caller in taints:
                continue
            for callee in graph.edges[caller]:
                if callee in taints:
                    taints[caller] = f"via {callee}: {taints[callee]}"
                    changed = True
                    break
    return taints


def evaluate_delay(resolver: Scope,
                   expr: Optional[ast.expr]) -> DelayValue:
    """Fold one delay expression in *resolver*'s scope."""
    if expr is None:
        return DelayValue(kind="unknown")
    reason = direct_taint(resolver.ctx, ast.walk(expr))
    if reason is not None:
        return DelayValue(kind="tainted", origin=reason)
    folded = _fold(resolver, expr)
    if folded is not None:
        kind, value, origin = folded
        return DelayValue(kind=kind, value=value, origin=origin)
    return DelayValue(kind="unknown")


def _fold(resolver: Scope, expr: ast.expr,
          seen: FrozenSet[str] = frozenset()
          ) -> Optional[Tuple[str, float, str]]:
    """(kind, value, origin) for foldable expressions, else None.

    *seen* holds the local names being folded further up, so a cycle
    of assignments (``a = b + 1`` ... ``b = a``) folds to None.
    """
    if isinstance(expr, ast.Constant) and \
            isinstance(expr.value, (int, float)) and \
            not isinstance(expr.value, bool):
        return ("literal", float(expr.value), "")
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        inner = _fold(resolver, expr.operand, seen)
        if inner is not None:
            kind, value, origin = inner
            return (kind, -value, origin)
        return None
    if isinstance(expr, ast.BinOp) and \
            isinstance(expr.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        left = _fold(resolver, expr.left, seen)
        right = _fold(resolver, expr.right, seen)
        if left is None or right is None:
            return None
        value = _apply(expr.op, left[1], right[1])
        if value is None:
            return None
        kind = "constant" if "constant" in (left[0], right[0]) \
            else "literal"
        origin = left[2] or right[2]
        return (kind, value, origin)
    if isinstance(expr, ast.Name):
        return _fold_name(resolver, expr.id, seen)
    if isinstance(expr, ast.Attribute):
        return _fold_attribute(resolver, expr)
    return None


def _apply(op: ast.operator, left: float,
           right: float) -> Optional[float]:
    if isinstance(op, ast.Add):
        return left + right
    if isinstance(op, ast.Sub):
        return left - right
    if isinstance(op, ast.Mult):
        return left * right
    if isinstance(op, ast.Div):
        return left / right if right != 0 else None
    return None


def _fold_name(resolver: Scope, name: str, seen: FrozenSet[str]
               ) -> Optional[Tuple[str, float, str]]:
    if name in seen:
        return None
    seen = seen | {name}
    table = resolver.table
    # Local assignment of a foldable value in this body or, for a
    # closure, in the defs enclosing it.
    for body in resolver.symbol.chain():
        for sub in body.nodes:
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name) and \
                    sub.targets[0].id == name:
                folded = _fold(resolver, sub.value, seen)
                if folded is not None:
                    return folded
    # Module-level constant, local or imported.
    qname = f"{resolver.ctx.module}.{name}"
    if qname in table.constants:
        return ("constant", table.constants[qname], qname)
    origin = resolver.ctx.imports.get(name)
    if origin is not None and origin in table.constants:
        return ("constant", table.constants[origin], origin)
    return None


def _fold_attribute(resolver: Scope, expr: ast.Attribute
                    ) -> Optional[Tuple[str, float, str]]:
    # self.dt / self.WATCH_PERIOD: class constants and defaulted
    # __init__ parameters of the enclosing class.
    if isinstance(expr.value, ast.Name) and expr.value.id == "self" \
            and resolver.cls is not None:
        value = resolver.cls.constant(expr.attr)
        if value is not None:
            return ("constant", value,
                    f"{resolver.cls.qname}.{expr.attr}")
        return None
    # ClassName.CONSTANT and module.CONSTANT through imports.
    dotted = _dotted(expr)
    if dotted is None:
        return None
    table = resolver.table
    root = dotted.split(".")[0]
    candidates = [f"{resolver.ctx.module}.{dotted}"]
    origin = resolver.ctx.imports.get(root)
    if origin is not None:
        candidates.append(origin + dotted[len(root):])
    for candidate in candidates:
        if candidate in table.constants:
            return ("constant", table.constants[candidate], candidate)
        # ClassName.CONST -> class-level constant table.
        cls_qname, _, attr = candidate.rpartition(".")
        cls = table.classes.get(cls_qname)
        if cls is not None:
            value = cls.constant(attr)
            if value is not None:
                return ("constant", value, candidate)
    return None
