"""Call graph over the project symbol table.

Edges are resolved statically, without importing the analysed code:

* direct calls (``helper(...)``) through the module's import table
  and its own definitions;
* ``self.method(...)`` through the enclosing class and its bases;
* ``obj.method(...)`` through the inferred type of ``obj`` --
  parameter annotations, ``self.attr`` constructor assignments
  (``self.edge = EdgeNode(...)``) and annotated attributes;
* bare callables passed as arguments (``schedule(dt, self._tick)``,
  ``publish=self._on_scan``) become *reference* edges: the callee is
  not called at that statement, but anything reachable can invoke it
  later, which is exactly what reachability must follow in an
  event-driven codebase.

Resolution is deliberately conservative: an unresolvable receiver
contributes no edge (never a guessed one), except for the
seam-naming convention ``sim`` / ``self.sim`` -> the DES kernel's
``Simulator``, which the whole testbed codebase follows.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.interproc.symbols import (
    ClassSymbol,
    FunctionSymbol,
    SymbolTable,
    _dotted,
)
from repro.analysis.rules import ModuleContext

#: The receiver-name convention for the DES kernel seam: a local or
#: attribute called ``sim`` is the Simulator in this codebase.
SIMULATOR_QNAME = "repro.sim.kernel.Simulator"

#: Direct callees that construct a Simulator: a caller of one of these
#: starts a run scope (``sim.build`` effect, run roots).
SIM_CONSTRUCTORS = (
    SIMULATOR_QNAME,
    f"{SIMULATOR_QNAME}.__init__",
    "repro.sim.kernel.build_simulator",
)


@dataclasses.dataclass
class CallGraph:
    """caller qname -> sorted callee qnames (calls and references)."""

    edges: Dict[str, Tuple[str, ...]]
    #: Functions referenced as callbacks anywhere (handed to a
    #: scheduler, a publish hook, a constructor...).
    callback_targets: Set[str]

    def callees(self, qname: str) -> Tuple[str, ...]:
        """Direct callees of *qname* (empty for unknown names)."""
        return self.edges.get(qname, ())

    def reachable(self, roots: List[str]) -> Set[str]:
        """Every qname reachable from *roots* along edges."""
        seen: Set[str] = set()
        stack = sorted(roots)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen


class Scope:
    """One body of the scope partition, resolved once per project.

    A scope resolves call and reference targets inside its body; the
    call graph, the schedule sites, the effect pass and the delay
    dataflow all read the same scope, so no pass builds a resolver or
    walks a body again.
    """

    def __init__(self, table: SymbolTable, ctx: ModuleContext,
                 symbol: FunctionSymbol,
                 class_attrs: Mapping[str, Dict[str, str]],
                 enclosing: Optional["Scope"] = None):
        self.table = table
        self.ctx = ctx
        #: The def (closures included), or the ``pkg.mod.<module>``
        #: pseudo-symbol whose node is the module tree.
        self.symbol = symbol
        self.cls: Optional[ClassSymbol] = None
        if symbol.cls is not None:
            self.cls = table.classes.get(f"{ctx.module}.{symbol.cls}")
        #: local name -> class qname (annotated params, local ctors);
        #: a closure starts from its enclosing def's free names.
        self.local_types: Dict[str, str] = dict(
            enclosing.local_types) if enclosing is not None else {}
        #: ``self.attr`` -> class qname, one map shared by every
        #: method of the class (see :func:`_class_attr_types`).
        self.attr_types: Dict[str, str] = (
            class_attrs[self.cls.qname] if self.cls is not None else {})
        self._seed_types()

    @property
    def nodes(self) -> List[ast.AST]:
        """The body's own nodes in source order, never a nested def's.

        The scope partition's list itself (see
        :class:`~repro.analysis.rules.Body`), not a copy.
        """
        return self.symbol.nodes

    def _seed_types(self) -> None:
        node = self.symbol.node
        module = self.ctx.module
        statements: List[ast.AST] = self.nodes
        if isinstance(node, ast.Module):
            # Top-level constructor assignments type module globals.
            statements = list(node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in node.args.args + node.args.kwonlyargs:
                cls = _annotation_class(self.table, module,
                                        arg.annotation)
                if cls is not None:
                    self.local_types[arg.arg] = cls.qname
        for sub in statements:
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name):
                cls = _constructed_class(self.table, module, sub.value)
                if cls is not None:
                    self.local_types[sub.targets[0].id] = cls.qname

    # -- receiver typing ----------------------------------------------

    def receiver_class(self, node: ast.expr) -> Optional[str]:
        """The class qname an expression evaluates to, if inferable."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return self.cls.qname
            known = self.local_types.get(node.id)
            if known is not None:
                return known
            if node.id == "sim":
                return SIMULATOR_QNAME
            return None
        if _is_self_attr(node):
            attr = node.attr  # type: ignore[union-attr]
            known = self.attr_types.get(attr)
            if known is not None:
                return known
            if attr == "sim":
                return SIMULATOR_QNAME
        return None

    # -- target resolution --------------------------------------------

    def resolve_callable(self, node: ast.expr) -> Optional[str]:
        """The qname a callable expression refers to, if resolvable."""
        if isinstance(node, ast.Name):
            nested = self.symbol.local_def(node.id, node.lineno)
            if nested is not None:
                return f"{self.ctx.module}.{nested.qualname}"
            local = f"{self.ctx.module}.{node.id}"
            if local in self.table.functions:
                return local
            if local in self.table.classes:
                init = self.table.method_in_hierarchy(
                    self.table.classes[local], "__init__")
                return init or local
            origin = self.ctx.imports.get(node.id)
            if origin is not None and origin in self.table.classes:
                init = self.table.method_in_hierarchy(
                    self.table.classes[origin], "__init__")
                return init or origin
            # An import whose definition lives outside the linted
            # tree (fixtures importing the kernel) still resolves to
            # its dotted origin.
            return origin
        if isinstance(node, ast.Attribute):
            receiver = self.receiver_class(node.value)
            if receiver is not None:
                cls = self.table.classes.get(receiver)
                if cls is not None:
                    resolved = self.table.method_in_hierarchy(
                        cls, node.attr)
                    if resolved is not None:
                        return resolved
                if receiver == SIMULATOR_QNAME:
                    # The kernel itself may sit outside the linted
                    # tree (fixtures); synthesise the seam qname so
                    # schedule-site detection still works.
                    return f"{SIMULATOR_QNAME}.{node.attr}"
                return None
            dotted = _dotted(node)
            if dotted is not None:
                root = dotted.split(".")[0]
                origin = self.ctx.imports.get(root)
                if origin is not None:
                    candidate = origin + dotted[len(root):]
                    if candidate in self.table.functions:
                        return candidate
            # Last resort: a method name defined by exactly one class
            # project-wide is unambiguous even without receiver type.
            owners = self.table.methods_by_name.get(node.attr, [])
            if len(owners) == 1:
                return owners[0]
        return None


def _is_self_attr(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _annotation_class(table: SymbolTable, module: str,
                      annotation: Optional[ast.expr]
                      ) -> Optional[ClassSymbol]:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        name = annotation.value
    else:
        name = _dotted(annotation) or ""
    # Unwrap Optional[X] / "X" spellings conservatively.
    if isinstance(annotation, ast.Subscript):
        head = _dotted(annotation.value) or ""
        if head.split(".")[-1] == "Optional":
            return _annotation_class(table, module, annotation.slice)
        return None
    if not name:
        return None
    return table.resolve_class(module, name)


def _constructed_class(table: SymbolTable, module: str,
                       value: ast.expr) -> Optional[ClassSymbol]:
    if not isinstance(value, ast.Call):
        return None
    name = _dotted(value.func)
    if name is None:
        return None
    return table.resolve_class(module, name)


def _class_attr_types(table: SymbolTable,
                      cls: ClassSymbol) -> Dict[str, str]:
    """``self.attr`` -> class qname over every method of *cls*.

    Methods and their closures count alike.  The first constructor
    assignment or annotation of an attribute wins, in source order.
    """
    out: Dict[str, str] = {}
    for body in table.modules[cls.module].bodies:
        if body.cls != cls.name:
            continue
        for sub in body.nodes:
            if isinstance(sub, ast.Assign) and \
                    len(sub.targets) == 1 and \
                    _is_self_attr(sub.targets[0]):
                attr = sub.targets[0].attr  # type: ignore[union-attr]
                found = _constructed_class(table, cls.module, sub.value)
                if found is not None:
                    out.setdefault(attr, found.qname)
            if isinstance(sub, ast.AnnAssign) and \
                    _is_self_attr(sub.target):
                attr = sub.target.attr  # type: ignore[union-attr]
                found = _annotation_class(table, cls.module,
                                          sub.annotation)
                if found is not None:
                    out.setdefault(attr, found.qname)
    return out


def build_scopes(table: SymbolTable) -> Dict[str, Scope]:
    """qname -> :class:`Scope`, functions then module bodies, sorted.

    Each class's ``self.attr`` types are computed once here and
    shared by the scopes of all its methods.  A closure's qname
    sorts after its enclosing def's, whose local types it inherits.
    """
    class_attrs = {qname: _class_attr_types(table, cls)
                   for qname, cls in table.classes.items()}
    symbols = [table.functions[qname] for qname in sorted(table.functions)]
    symbols += [table.modules[module].bodies[0]
                for module in sorted(table.modules)]
    scopes: Dict[str, Scope] = {}
    for symbol in symbols:
        parent = symbol.parent
        enclosing = scopes[parent.qname] \
            if parent is not None and parent.parent is not None else None
        scopes[symbol.qname] = Scope(table, table.modules[symbol.module],
                                     symbol, class_attrs, enclosing)
    return scopes


def build_call_graph(scopes: Mapping[str, Scope]) -> CallGraph:
    """Resolve every call and callback reference in *scopes*.

    Module-level code is the caller ``pkg.mod.<module>``.
    """
    edges: Dict[str, Tuple[str, ...]] = {}
    callback_targets: Set[str] = set()
    for qname in sorted(scopes):
        scope = scopes[qname]
        out: Set[str] = set()
        for node in scope.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = scope.resolve_callable(node.func)
            if target is not None:
                out.add(target)
            # Bare callables passed as arguments are references.
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    target = scope.resolve_callable(arg)
                    if target is not None:
                        out.add(target)
                        callback_targets.add(target)
        edges[qname] = tuple(sorted(out))
    return CallGraph(edges=edges, callback_targets=callback_targets)
