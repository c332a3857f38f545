"""Project-wide symbol table: functions, classes, constants by qname.

The table is the ground layer of the interprocedural analysis: it
answers "what does the dotted name ``repro.core.testbed.ScaleTestbed
._watch`` refer to" and "which classes define a method called
``_tick``" without importing any of the code under analysis.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.rules import Body, ModuleContext


#: A def's symbol is its body in the scope partition: qname, module,
#: path, class and node, plus its own nodes.
FunctionSymbol = Body


@dataclasses.dataclass(frozen=True, eq=False)
class ClassSymbol:
    """One class definition with its methods and literal constants."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    #: method name -> method symbol qname.
    methods: Tuple[Tuple[str, str], ...]
    #: Resolved base-class qnames (unresolvable bases are dropped).
    bases: Tuple[str, ...]
    #: Class-level numeric constants (``WATCH_PERIOD = 2e-3``) and
    #: numeric dataclass-field defaults, name -> value.
    constants: Tuple[Tuple[str, float], ...]

    def method(self, name: str) -> Optional[str]:
        """The qname of method *name*, if this class defines it."""
        for method_name, qname in self.methods:
            if method_name == name:
                return qname
        return None

    def constant(self, name: str) -> Optional[float]:
        """The literal value of class constant *name*, if known."""
        for const_name, value in self.constants:
            if const_name == name:
                return value
        return None


@dataclasses.dataclass
class SymbolTable:
    """Every definition in the linted tree, by qualified name."""

    #: module name -> its parsed context.
    modules: Dict[str, ModuleContext]
    functions: Dict[str, FunctionSymbol]
    classes: Dict[str, ClassSymbol]
    #: Module-level numeric constants, qname -> value.
    constants: Dict[str, float]
    #: bare method name -> qnames of every class method with it.
    methods_by_name: Dict[str, List[str]]

    def resolve_class(self, module: str, name: str) -> Optional[ClassSymbol]:
        """The class *name* refers to, seen from *module*.

        Tries the module's own definitions first, then its import
        table (``from x import Y`` / ``import x`` + ``x.Y``).
        """
        own = self.classes.get(f"{module}.{name}")
        if own is not None:
            return own
        ctx = self.modules.get(module)
        if ctx is not None:
            origin = ctx.imports.get(name.split(".")[0])
            if origin is not None:
                dotted = origin + name[len(name.split(".")[0]):]
                found = self.classes.get(dotted)
                if found is not None:
                    return found
        return self.classes.get(name)

    def method_in_hierarchy(self, cls: ClassSymbol,
                            name: str) -> Optional[str]:
        """Method *name* on *cls* or (breadth-first) its bases."""
        queue: List[ClassSymbol] = [cls]
        seen: List[str] = []
        while queue:
            current = queue.pop(0)
            if current.qname in seen:
                continue
            seen.append(current.qname)
            qname = current.method(name)
            if qname is not None:
                return qname
            for base in current.bases:
                base_cls = self.classes.get(base)
                if base_cls is not None:
                    queue.append(base_cls)
        return None


def _numeric_literal(node: ast.expr) -> Optional[float]:
    """The numeric value of a literal expression, if it is one."""
    if isinstance(node, ast.Constant) and \
            isinstance(node.value, (int, float)) and \
            not isinstance(node.value, bool):
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and \
            isinstance(node.op, ast.USub):
        inner = _numeric_literal(node.operand)
        if inner is not None:
            return -inner
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.Div, ast.Mult, ast.Add, ast.Sub)):
        left = _numeric_literal(node.left)
        right = _numeric_literal(node.right)
        if left is not None and right is not None:
            if isinstance(node.op, ast.Div):
                return left / right if right != 0 else None
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Add):
                return left + right
            return left - right
    return None


def _literal_bindings(statements: Sequence[ast.stmt]
                      ) -> List[Tuple[str, float]]:
    """``name = <numeric literal>`` (annotated or not), in order."""
    out: List[Tuple[str, float]] = []
    for item in statements:
        if isinstance(item, ast.Assign) and len(item.targets) == 1:
            target, value = item.targets[0], item.value
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            target, value = item.target, item.value
        else:
            continue
        literal = _numeric_literal(value)
        if isinstance(target, ast.Name) and literal is not None:
            out.append((target.id, literal))
    return out


def _class_constants(node: ast.ClassDef) -> List[Tuple[str, float]]:
    """Literal numeric class attributes and dataclass field defaults."""
    out = _literal_bindings(node.body)
    # __init__ keyword defaults (``dt: float = 2e-3``) double as
    # per-instance constants when never reassigned elsewhere; record
    # ``param`` defaults for the common self.param = param idiom.
    init = next((item for item in node.body
                 if isinstance(item, ast.FunctionDef)
                 and item.name == "__init__"), None)
    if init is not None:
        args = init.args
        defaults = list(args.defaults)
        bound = args.args[len(args.args) - len(defaults):]
        for arg, default in zip(bound, defaults):
            literal = _numeric_literal(default)
            if literal is not None and \
                    all(name != arg.arg for name, _ in out):
                out.append((arg.arg, literal))
    return sorted(out)


def build_symbol_table(contexts: Sequence[ModuleContext]) -> SymbolTable:
    """Index every definition in *contexts* (sorted, deterministic).

    Every def of the scope partition gets a symbol, closures
    included; classes and constants come from the module's top level.
    """
    table = SymbolTable(modules={}, functions={}, classes={},
                        constants={}, methods_by_name={})
    for ctx in sorted(contexts, key=lambda c: c.path):
        table.modules[ctx.module] = ctx
        methods: Dict[str, List[Tuple[str, str]]] = {}
        for body in ctx.bodies[1:]:
            table.functions[body.qname] = body
            if body.qualname == f"{body.cls}.{body.name}":
                methods.setdefault(body.cls or "", []).append(
                    (body.name, body.qname))
                table.methods_by_name.setdefault(body.name, []).append(
                    body.qname)
        for item in ctx.tree.body:
            if isinstance(item, ast.ClassDef):
                _index_class(table, ctx, item,
                             methods.get(item.name, []))
        for name, value in _literal_bindings(ctx.tree.body):
            table.constants[f"{ctx.module}.{name}"] = value
    return table


def _index_class(table: SymbolTable, ctx: ModuleContext,
                 node: ast.ClassDef,
                 methods: List[Tuple[str, str]]) -> None:
    cls_qname = f"{ctx.module}.{node.name}"
    bases: List[str] = []
    for base in node.bases:
        dotted = _dotted(base)
        if dotted is None:
            continue
        root = dotted.split(".")[0]
        origin = ctx.imports.get(root)
        if origin is not None:
            bases.append(origin + dotted[len(root):])
        else:
            bases.append(f"{ctx.module}.{dotted}")
    table.classes[cls_qname] = ClassSymbol(
        qname=cls_qname, module=ctx.module, name=node.name,
        node=node, path=ctx.path, methods=tuple(sorted(methods)),
        bases=tuple(bases), constants=tuple(_class_constants(node)))


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string, when the expression is that shape."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))
