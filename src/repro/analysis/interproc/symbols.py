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

from repro.analysis.rules import ModuleContext


@dataclasses.dataclass(frozen=True, eq=False)
class FunctionSymbol:
    """One function or method definition."""

    #: Fully qualified dotted name (``pkg.mod.Class.method``).
    qname: str
    #: Dotted module the definition lives in.
    module: str
    #: Bare function name.
    name: str
    #: Enclosing class name, or None for module-level functions.
    cls: Optional[str]
    #: The definition node (FunctionDef / AsyncFunctionDef).
    node: ast.AST
    #: Source path of the defining file.
    path: str


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


def _class_constants(node: ast.ClassDef) -> List[Tuple[str, float]]:
    """Literal numeric class attributes and dataclass field defaults."""
    out: List[Tuple[str, float]] = []
    for item in node.body:
        target: Optional[str] = None
        value: Optional[ast.expr] = None
        if isinstance(item, ast.Assign) and len(item.targets) == 1 \
                and isinstance(item.targets[0], ast.Name):
            target = item.targets[0].id
            value = item.value
        elif isinstance(item, ast.AnnAssign) and \
                isinstance(item.target, ast.Name) and \
                item.value is not None:
            target = item.target.id
            value = item.value
        if target is None or value is None:
            continue
        literal = _numeric_literal(value)
        if literal is not None:
            out.append((target, literal))
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
    """Index every definition in *contexts* (sorted, deterministic)."""
    table = SymbolTable(modules={}, functions={}, classes={},
                        constants={}, methods_by_name={})
    for ctx in sorted(contexts, key=lambda c: c.path):
        table.modules[ctx.module] = ctx
        for item in ctx.tree.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{ctx.module}.{item.name}"
                table.functions[qname] = FunctionSymbol(
                    qname=qname, module=ctx.module, name=item.name,
                    cls=None, node=item, path=ctx.path)
            elif isinstance(item, ast.ClassDef):
                _index_class(table, ctx, item)
            elif isinstance(item, ast.Assign) and \
                    len(item.targets) == 1 and \
                    isinstance(item.targets[0], ast.Name):
                literal = _numeric_literal(item.value)
                if literal is not None:
                    name = item.targets[0].id
                    table.constants[f"{ctx.module}.{name}"] = literal
            elif isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name) and \
                    item.value is not None:
                literal = _numeric_literal(item.value)
                if literal is not None:
                    name = item.target.id
                    table.constants[f"{ctx.module}.{name}"] = literal
    return table


def _index_class(table: SymbolTable, ctx: ModuleContext,
                 node: ast.ClassDef) -> None:
    cls_qname = f"{ctx.module}.{node.name}"
    methods: List[Tuple[str, str]] = []
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{cls_qname}.{item.name}"
            symbol = FunctionSymbol(
                qname=qname, module=ctx.module, name=item.name,
                cls=node.name, node=item, path=ctx.path)
            table.functions[qname] = symbol
            methods.append((item.name, qname))
            table.methods_by_name.setdefault(item.name, []).append(qname)
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
