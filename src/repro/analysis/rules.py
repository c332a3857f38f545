"""The determinism rule catalogue (DET001..DET008).

Every rule is a static, AST-level check for a code pattern that can
break the repo's central invariant: a run is a pure function of its
scenario and seed, so serial == parallel == instrumented, bit for
bit.  The rules are deliberately *pattern* checks, not whole-program
dataflow: they are precise enough to run clean over ``src/`` and
loose enough that a genuine exception is a one-line suppression with
a written reason (see ``repro.analysis.suppressions``).

The catalogue (rationale per rule in ARCHITECTURE.md §10):

========  ==========================================================
DET001    no module-level or unseeded ``random``/``numpy.random``
          outside the ``repro.sim.randomness`` substream factory
DET002    no wall-clock reads (``time.time``, ``time.monotonic``,
          ``datetime.now``/``today``); no module is exempt
DET003    no iteration over sets anywhere, nor over mapping views
          inside canonical exporters/mergers, without ``sorted(...)``
DET004    no float ``+=`` accumulators in exactly-mergeable state
          (classes with a ``merge``); use ``Fraction``/int counts
DET005    every ``obs``/fault seam use must be None-guarded
          (the no-op-when-unset pattern)
DET006    retired -- folded into FPR002
DET007    no locale-/environment-dependent formatting
          (``os.environ``, ``locale``, ``strftime``) in ``src/``
DET008    process-pool boundaries: only module-level callables are
          submitted, and boundary dataclasses are ``frozen=True``
========  ==========================================================
"""

from __future__ import annotations

import ast
import dataclasses
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding


@dataclasses.dataclass(eq=False)
class Body:
    """One part of a module's scope partition, and its symbol.

    Each module is walked once into its module body plus one body per
    ``def`` at any depth: functions, methods and closures alike.  A
    def's body holds every node below the def (decorators, defaults
    and annotations included) except the nested defs, which are
    bodies of their own; the nested ``FunctionDef`` node itself stays
    with its parent, where it binds a name.  Class bodies belong to
    the body the class statement sits in.  So every node but the
    ``Module`` itself sits in exactly one body.
    """

    #: The ``FunctionDef``/``AsyncFunctionDef``, or the ``Module``.
    node: ast.AST
    #: Dotted module and source path of the defining file.
    module: str
    path: str
    #: ``__qualname__`` spelling (``f``, ``Cls.meth``,
    #: ``Cls.meth.<locals>.inner``); ``""`` for the module body.  A
    #: later def reusing a qualname gets ``@<line>`` appended.
    qualname: str
    #: Qualname of the class whose method this is, kept by the
    #: method's closures; None outside classes.
    cls: Optional[str]
    #: The enclosing body; None for the module body.
    parent: Optional["Body"]
    #: The body's own nodes in source (line, column) order.
    nodes: List[ast.AST] = dataclasses.field(default_factory=list)
    #: The bodies of the defs nested directly in this one.
    children: List["Body"] = dataclasses.field(default_factory=list)

    @property
    def qname(self) -> str:
        """``pkg.mod.<qualname>``, or ``pkg.mod.<module>``."""
        return f"{self.module}.{self.qualname or '<module>'}"

    @property
    def name(self) -> str:
        """Bare def name (``<module>`` for the module body)."""
        return str(getattr(self.node, "name", "<module>"))

    def chain(self) -> Iterator["Body"]:
        """This body, then the defs enclosing it, innermost first.

        The bodies whose names a def sees, as Python resolves a free
        name; the module body only starts a chain of its own.
        """
        body = self
        yield body
        while body.parent is not None and body.parent.parent is not None:
            body = body.parent
            yield body

    def local_def(self, name: str, line: int) -> Optional["Body"]:
        """The def bound to *name* at *line*, along :meth:`chain`.

        Methods bind in their class, not in the body around it.  Of
        two defs with one name in one body, the latest above *line*
        wins.
        """
        for body in self.chain():
            found = [child for child in body.children
                     if child.name == name and child.cls == body.cls]
            if found:
                above = [child for child in found
                         if getattr(child.node, "lineno", 0) <= line]
                return (above or found)[-1]
        return None


def _partition(tree: ast.Module, module: str, path: str) -> List[Body]:
    """The module body, then every def body in source order."""
    top = Body(node=tree, module=module, path=path, qualname="",
               cls=None, parent=None)
    bodies = [top]
    seen: Set[str] = set()
    # (node, owning body, qualname prefix for defs, enclosing class)
    stack: List[Tuple[ast.AST, Body, str, Optional[str]]] = [
        (child, top, "", None)
        for child in reversed(list(ast.iter_child_nodes(tree)))]
    while stack:
        node, body, prefix, cls = stack.pop()
        body.nodes.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            if qualname in seen:
                qualname += f"@{node.lineno}"
            seen.add(qualname)
            inner = Body(node=node, module=module, path=path,
                         qualname=qualname, cls=cls, parent=body)
            body.children.append(inner)
            bodies.append(inner)
            body = inner
            prefix = qualname + ".<locals>."
        elif isinstance(node, ast.ClassDef):
            cls = prefix + node.name
            prefix = cls + "."
        for child in reversed(list(ast.iter_child_nodes(node))):
            stack.append((child, body, prefix, cls))
    for body in bodies:
        body.nodes.sort(key=lambda n: (getattr(n, "lineno", 0),
                                       getattr(n, "col_offset", 0)))
    return bodies


@dataclasses.dataclass
class ModuleContext:
    """One parsed source file, as seen by every rule."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: List[str]
    #: local name -> dotted origin (``np`` -> ``numpy``,
    #: ``perf_counter`` -> ``time.perf_counter``).
    imports: Dict[str, str]
    #: The scope partition, walked once per module: the module body
    #: first, then one :class:`Body` per def in source order.  Every
    #: rule family and the suppression spans read it.
    bodies: List[Body]

    @property
    def nodes(self) -> Iterator[ast.AST]:
        """Every node of *tree* but the Module, body by body."""
        for body in self.bodies:
            yield from body.nodes

    def body_of(self, node: ast.AST) -> Body:
        """The partition body of the def *node*."""
        return next(body for body in self.bodies if body.node is node)


def build_context(path: str, module: str, source: str,
                  tree: ast.Module) -> ModuleContext:
    """Assemble the :class:`ModuleContext` for one file."""
    ctx = ModuleContext(path=path, module=module, source=source,
                        tree=tree, lines=source.splitlines(), imports={},
                        bodies=_partition(tree, module, path))
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.asname and alias.name or \
                    alias.name.split(".")[0]
                ctx.imports[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                ctx.imports[local] = f"{node.module}.{alias.name}"
    return ctx


def resolve_target(ctx: ModuleContext,
                   node: ast.expr) -> Optional[str]:
    """The dotted import origin of an expression, if resolvable.

    ``np.random.default_rng`` resolves to
    ``numpy.random.default_rng`` when ``np`` was imported as numpy;
    expressions rooted in anything but an imported name resolve to
    None.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    origin = ctx.imports.get(current.id)
    if origin is None:
        return None
    parts.append(origin)
    return ".".join(reversed(parts))


def _snippet(ctx: ModuleContext, node: ast.AST) -> str:
    lineno = getattr(node, "lineno", 0)
    if 0 < lineno <= len(ctx.lines):
        return ctx.lines[lineno - 1].strip()
    return ""


class Rule:
    """Base class: one determinism invariant, machine-checked."""

    rule_id: str = "DET999"
    title: str = ""
    rationale: str = ""
    #: Module prefixes exempt from this rule (the sanctioned homes of
    #: the pattern, e.g. the substream factory for RNG calls).
    allowed_modules: Tuple[str, ...] = ()

    def exempt(self, ctx: ModuleContext) -> bool:
        """Whether *ctx*'s module is allowlisted for this rule."""
        return any(ctx.module == prefix
                   or ctx.module.startswith(prefix + ".")
                   for prefix in self.allowed_modules)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield every violation in *ctx*."""
        raise NotImplementedError  # pragma: no cover - interface

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        """A :class:`Finding` anchored at *node*."""
        return Finding(
            rule=self.rule_id, path=ctx.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message, snippet=_snippet(ctx, node))


# ---------------------------------------------------------------------------
# DET001 -- unseeded / module-level randomness
# ---------------------------------------------------------------------------


class UnseededRandomRule(Rule):
    """All randomness must come from named, seeded substreams."""

    rule_id = "DET001"
    title = "unseeded or module-level randomness"
    rationale = (
        "Global random state is shared across runs and workers; a "
        "single draw outside the seeded substream registry makes "
        "serial and parallel campaigns diverge.  Draw from a "
        "repro.sim.randomness substream instead.")
    allowed_modules = ("repro.sim.randomness",)

    #: numpy.random attributes that are constructors of *seedable*
    #: state, legal when given an explicit seed argument.
    _SEEDED_CONSTRUCTORS = {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.MT19937",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for body in ctx.bodies:
            at_module_level = body.parent is None
            for node in body.nodes:
                if not isinstance(node, ast.Call):
                    continue
                target = resolve_target(ctx, node.func)
                if target is None:
                    continue
                if target.startswith("random."):
                    if target == "random.Random" and \
                            (node.args or node.keywords):
                        if at_module_level:
                            yield self.finding(
                                ctx, node,
                                "module-level random.Random instance is "
                                "shared state across runs; create it "
                                "per run from the seed")
                        continue
                    yield self.finding(
                        ctx, node,
                        f"call to {target} uses the global (unseeded) "
                        f"random state; draw from a "
                        f"repro.sim.randomness substream")
                elif target.startswith("numpy.random."):
                    if target in self._SEEDED_CONSTRUCTORS:
                        if not node.args and not node.keywords:
                            yield self.finding(
                                ctx, node,
                                f"{target}() without a seed is "
                                f"entropy-seeded and unreproducible; "
                                f"pass an explicit seed")
                        elif at_module_level:
                            yield self.finding(
                                ctx, node,
                                f"module-level {target}(...) is RNG "
                                f"state shared across runs; create "
                                f"generators per run from the scenario "
                                f"seed")
                        continue
                    yield self.finding(
                        ctx, node,
                        f"call to {target} uses numpy's global random "
                        f"state; use a Generator from a "
                        f"repro.sim.randomness substream")


# ---------------------------------------------------------------------------
# DET002 -- wall-clock reads
# ---------------------------------------------------------------------------


class WallClockRule(Rule):
    """Simulated code must read ``sim.now``, never the host clock."""

    rule_id = "DET002"
    title = "wall-clock read in simulated code"
    rationale = (
        "Wall time differs between hosts, runs and workers; one "
        "time.time() in a simulated path breaks bit-identity.  "
        "Simulated code reads sim.now; a host-side duration is a "
        "time.perf_counter difference that never feeds a "
        "measurement.")

    _BANNED = {
        "time.time": "read sim.now instead",
        "time.time_ns": "read sim.now instead",
        "time.monotonic": "read sim.now instead",
        "time.monotonic_ns": "read sim.now instead",
        "time.localtime": "wall-clock and TZ-dependent",
        "time.gmtime": "wall-clock dependent",
        "time.ctime": "wall-clock and locale-dependent",
        "datetime.datetime.now": "read sim.now instead",
        "datetime.datetime.utcnow": "read sim.now instead",
        "datetime.datetime.today": "wall-clock dependent",
        "datetime.date.today": "wall-clock dependent",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = resolve_target(ctx, node.func)
            if target is None:
                continue
            why = self._BANNED.get(target)
            if why is not None:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call {target}() in simulated code "
                    f"({why}); no module is exempt")


# ---------------------------------------------------------------------------
# DET003 -- unsorted iteration feeding canonical output
# ---------------------------------------------------------------------------


#: Function names whose output is canonical (serialisation, hashing,
#: merging, aggregation): mapping-view iteration order matters there.
_CANONICAL_NAME_RE = re.compile(
    r"(^to_|_to_|fingerprint|canonical|merge|aggregat|render|export"
    r"|prometheus|jsonl|json\b|_json|csv|hash)")


class UnsortedIterationRule(Rule):
    """Iteration feeding canonical output must be ``sorted(...)``."""

    rule_id = "DET003"
    title = "unsorted set/mapping-view iteration in canonical paths"
    rationale = (
        "Set iteration order depends on PYTHONHASHSEED for str "
        "keys; mapping views iterate in insertion order, which is "
        "an accident of call history.  Anything feeding "
        "serialisation, hashing or campaign aggregation must "
        "iterate in sorted order to be byte-stable.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for body in ctx.bodies:
            for node in body.nodes:
                iters: List[ast.expr] = []
                if isinstance(node, ast.For):
                    iters = [node.iter]
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters = [gen.iter for gen in node.generators]
                for it in iters:
                    yield from self._check_iterable(ctx, it, body)

    def _check_iterable(self, ctx: ModuleContext, it: ast.expr,
                        body: Body) -> Iterator[Finding]:
        if self._is_order_blessed(it):
            return
        if self._is_set_expr(it):
            yield self.finding(
                ctx, it,
                "iteration over a set is hash-order dependent; "
                "wrap the iterable in sorted(...)")
            return
        view = self._mapping_view(it)
        if view is not None and body.parent is not None and \
                _CANONICAL_NAME_RE.search(body.name):
            yield self.finding(
                ctx, it,
                f"iteration over .{view}() inside canonical "
                f"function {body.name}() relies on insertion order; "
                f"wrap it in sorted(...) so the output is "
                f"byte-stable")

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    @staticmethod
    def _mapping_view(node: ast.expr) -> Optional[str]:
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("keys", "values", "items")
                and not node.args and not node.keywords):
            return node.func.attr
        return None

    @staticmethod
    def _is_order_blessed(node: ast.expr) -> bool:
        """Whether the iterable is already explicitly ordered."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Name) and \
                    sub.func.id in ("sorted", "reversed"):
                return True
            if isinstance(sub, ast.Name) and "sorted" in sub.id:
                return True
            if isinstance(sub, ast.Attribute) and \
                    "sorted" in sub.attr:
                return True
        return False


# ---------------------------------------------------------------------------
# DET004 -- float accumulators in exactly-mergeable state
# ---------------------------------------------------------------------------


class FloatAccumulatorRule(Rule):
    """Mergeable state must fold exactly (Fraction / int counts)."""

    rule_id = "DET004"
    title = "float += accumulator in exactly-mergeable state"
    rationale = (
        "Float addition is not associative, so a float accumulator "
        "that a merge() folds makes the result depend on merge "
        "order -- exactly what campaign aggregation must not do.  "
        "Keep counts as int and sums as fractions.Fraction (every "
        "float is an exact rational), converting to float only at "
        "the export edge.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: ModuleContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        merge = next((item for item in cls.body
                      if isinstance(item, ast.FunctionDef)
                      and item.name == "merge"), None)
        if merge is None:
            return
        float_attrs = self._float_initialised_attrs(ctx, cls)
        for node in ctx.body_of(merge).nodes:
            if not (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)):
                continue
            target = node.target
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if target.attr in float_attrs:
                yield self.finding(
                    ctx, node,
                    f"merge() accumulates float attribute "
                    f"{cls.name}.{target.attr} with +=; float sums "
                    f"are merge-order dependent -- store a "
                    f"fractions.Fraction (or integer count) and "
                    f"convert to float at export")

    @staticmethod
    def _float_initialised_attrs(ctx: ModuleContext,
                                 cls: ast.ClassDef) -> Set[str]:
        """Attributes whose initial value is a float literal."""
        attrs: Set[str] = set()
        for item in cls.body:
            # Dataclass-style: ``total: float = 0.0``.
            if isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                annotation = item.annotation
                if isinstance(annotation, ast.Name) and \
                        annotation.id == "float":
                    attrs.add(item.target.id)
            # __init__-style: ``self.total = 0.0``.
            if isinstance(item, ast.FunctionDef) and \
                    item.name == "__init__":
                for node in ctx.body_of(item).nodes:
                    if not isinstance(node, ast.Assign):
                        continue
                    if not (isinstance(node.value, ast.Constant)
                            and isinstance(node.value.value, float)):
                        continue
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Attribute) and \
                                isinstance(tgt.value, ast.Name) and \
                                tgt.value.id == "self":
                            attrs.add(tgt.attr)
        return attrs


# ---------------------------------------------------------------------------
# DET005 -- unguarded seam use
# ---------------------------------------------------------------------------


class SeamGuardRule(Rule):
    """Instrumentation/fault seams follow no-op-when-unset."""

    rule_id = "DET005"
    title = "seam used without a None guard"
    rationale = (
        "The obs, fault and tie-audit seams default to None so an "
        "unobserved, fault-free, unaudited run is bit-identical to "
        "pre-seam builds.  Every use site must bind-and-guard (obs "
        "= sim.obs; if obs is not None: ...); an unguarded use "
        "either crashes or silently forces the seam always-on.")

    #: Attribute names that are seams (None when unset, by contract).
    SEAM_ATTRS = ("obs", "impairment", "drop_filter", "tie_audit")

    #: The modules that *implement* the seams (the obs collectors
    #: themselves, the fault installer) rather than consume them.
    allowed_modules = ("repro.obs", "repro.faults.injector")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for body in ctx.bodies[1:]:
            yield from self._check_function(ctx, body)

    def _check_function(self, ctx: ModuleContext,
                        body: Body) -> Iterator[Finding]:
        guards: Set[str] = set()
        aliases: Set[str] = set()
        # Pass 1: collect None-comparisons and seam-bound locals of
        # this def's own body (nested defs are bodies of their own).
        for node in body.nodes:
            if isinstance(node, ast.Compare) and \
                    len(node.ops) == 1 and \
                    isinstance(node.ops[0], (ast.Is, ast.IsNot)) and \
                    isinstance(node.comparators[0], ast.Constant) and \
                    node.comparators[0].value is None:
                guards.add(ast.dump(node.left))
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Attribute) and \
                    node.value.attr in self.SEAM_ATTRS:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        aliases.add(tgt.id)
        # Pass 2: find seam uses and demand a guard in scope.
        for node in body.nodes:
            seam_expr, seam_name = self._seam_use(node, aliases)
            if seam_expr is None:
                continue
            if ast.dump(seam_expr) in guards:
                continue
            yield self.finding(
                ctx, node,
                f"use of seam '{seam_name}' without an 'is None' "
                f"guard in this function; bind it to a local and "
                f"follow the no-op-when-unset pattern "
                f"(x = ...{seam_name}; if x is not None: ...)")

    def _seam_use(self, node: ast.AST, aliases: Set[str]
                  ) -> Tuple[Optional[ast.expr], str]:
        """(guard-expression, seam-name) when *node* uses a seam."""
        # Chained attribute access: <expr>.obs.<anything>.
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Attribute) and \
                node.value.attr in self.SEAM_ATTRS and \
                isinstance(node.value.ctx, ast.Load):
            return node.value, node.value.attr
        if isinstance(node, ast.Call):
            func = node.func
            # Calling the seam itself: <expr>.drop_filter(frame).
            if isinstance(func, ast.Attribute) and \
                    func.attr in self.SEAM_ATTRS:
                return func, func.attr
            # Attribute on an alias: obs.record_span(...) is covered
            # by the Attribute case below via the alias name.
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in aliases and \
                isinstance(node.value.ctx, ast.Load):
            return node.value, node.value.id
        return None, ""


# ---------------------------------------------------------------------------
# DET007 -- locale/env-dependent formatting
# ---------------------------------------------------------------------------


class EnvFormattingRule(Rule):
    """Canonical output must not depend on the host environment."""

    rule_id = "DET007"
    title = "locale- or environment-dependent formatting"
    rationale = (
        "os.environ, locale and strftime make output depend on the "
        "host's environment variables, locale database or "
        "timezone; canonical exporters (JSON, JSONL, Prometheus "
        "text) must produce identical bytes on every machine.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = ""
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    module = node.module or ""
                    names = [module]
                if "locale" in names or module == "locale":
                    yield self.finding(
                        ctx, node,
                        "import of locale: locale-dependent "
                        "formatting has no place in deterministic "
                        "export paths")
                continue
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                target = resolve_target(ctx, node)
                if target in ("os.environ", "os.environb"):
                    yield self.finding(
                        ctx, node,
                        f"read of {target}: environment variables "
                        f"must not influence simulated behaviour "
                        f"or canonical output")
            if isinstance(node, ast.Call):
                target = resolve_target(ctx, node.func)
                if target == "os.getenv":
                    yield self.finding(
                        ctx, node,
                        "os.getenv: environment variables must not "
                        "influence simulated behaviour or "
                        "canonical output")
                if isinstance(node.func, ast.Attribute) and \
                        node.func.attr in ("strftime", "strptime"):
                    yield self.finding(
                        ctx, node,
                        f"{node.func.attr}() is locale- and "
                        f"timezone-dependent; canonical exporters "
                        f"format numbers and ISO strings "
                        f"explicitly")


# ---------------------------------------------------------------------------
# DET008 -- process-pool boundary hygiene
# ---------------------------------------------------------------------------


class PoolBoundaryRule(Rule):
    """What crosses the pool must pickle identically everywhere."""

    rule_id = "DET008"
    title = "unpicklable or unfrozen objects at the pool boundary"
    rationale = (
        "Work submitted to a ProcessPoolExecutor is pickled: "
        "lambdas and nested functions fail outright, and mutable "
        "scenario/plan objects invite divergence between the "
        "parent's copy and the workers' copies.  Submit "
        "module-level callables; keep boundary dataclasses "
        "frozen=True.")

    #: Modules whose dataclasses cross the pool boundary by design.
    BOUNDARY_MODULES = ("repro.core.scenario", "repro.faults.plan")

    #: Process-pool constructors (``concurrent.futures``,
    #: ``multiprocessing``): what their ``submit``/``map`` take is
    #: pickled.
    POOL_CONSTRUCTORS = ("ProcessPoolExecutor", "Pool")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_submissions(ctx)
        if any(ctx.module == prefix
               or ctx.module.startswith(prefix + ".")
               for prefix in self.BOUNDARY_MODULES):
            yield from self._check_frozen(ctx)

    def _check_submissions(self, ctx: ModuleContext
                           ) -> Iterator[Finding]:
        for body in ctx.bodies:
            for node in body.nodes:
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("submit", "map")
                        and node.args
                        and self._may_be_pool(body, node.func.value)):
                    continue
                callee = node.args[0]
                if isinstance(callee, ast.Lambda):
                    yield self.finding(
                        ctx, callee,
                        "lambda submitted to a process pool cannot "
                        "be pickled; use a module-level function")
                elif isinstance(callee, ast.Name) and \
                        self._is_local_def(body, callee):
                    yield self.finding(
                        ctx, callee,
                        f"locally-defined callable "
                        f"{callee.id!r} submitted to a process "
                        f"pool cannot be pickled; hoist it to "
                        f"module level")

    def _may_be_pool(self, body: Body, receiver: ast.expr) -> bool:
        """Whether *receiver* is, or may be, a process pool.

        A call is one when it calls a pool constructor.  A name stands
        for its binding (``with ... as`` or ``=``) in the innermost
        scope that binds it, the last one above the use.  A parameter,
        an attribute or any name the module does not bind may be a
        pool.  So a Hypothesis strategy -- a call such as
        ``st.floats(...)``, or a name bound to one -- is not a pool,
        and neither is a thread pool.
        """
        if isinstance(receiver, ast.Name):
            bound = self._binding(body, receiver.id, receiver.lineno)
            if bound is None:
                return True
            receiver = bound
        if not isinstance(receiver, ast.Call):
            return True
        func = receiver.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", ""))
        return name in self.POOL_CONSTRUCTORS

    @staticmethod
    def _binding(body: Body, name: str, line: int) -> Optional[ast.expr]:
        """The value *name* is bound to at *line*, as :meth:`_may_be_pool`
        reads it; None for a parameter or a name bound nowhere."""
        scope: Optional[Body] = body
        while scope is not None:
            node = scope.node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          args.vararg, args.kwarg]
                if any(arg is not None and arg.arg == name
                       for arg in params):
                    return None
            values: List[Tuple[int, ast.expr]] = []
            for stmt in scope.nodes:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    values += [
                        (stmt.lineno, item.context_expr)
                        for item in stmt.items
                        if isinstance(item.optional_vars, ast.Name)
                        and item.optional_vars.id == name]
                elif isinstance(stmt, ast.Assign) and any(
                        isinstance(target, ast.Name) and target.id == name
                        for target in stmt.targets):
                    values.append((stmt.lineno, stmt.value))
            if values:
                above = [value for at, value in values if at <= line]
                return (above or [value for _, value in values])[-1]
            scope = scope.parent
        return None

    @staticmethod
    def _is_local_def(body: Body, name: ast.Name) -> bool:
        """Whether *name* is a nested def or a lambda bound locally."""
        if body.parent is None:
            return False
        return body.local_def(name.id, name.lineno) is not None or any(
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Lambda)
            and any(isinstance(tgt, ast.Name) and tgt.id == name.id
                    for tgt in node.targets)
            for node in body.nodes)

    def _check_frozen(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if not self._is_dataclass_decorator(decorator):
                    continue
                if not self._is_frozen(decorator):
                    yield self.finding(
                        ctx, node,
                        f"dataclass {node.name} crosses the "
                        f"process-pool boundary but is not "
                        f"frozen=True; mutable boundary state "
                        f"invites parent/worker divergence")

    @staticmethod
    def _is_dataclass_decorator(node: ast.expr) -> bool:
        ref = node.func if isinstance(node, ast.Call) else node
        if isinstance(ref, ast.Name):
            return ref.id == "dataclass"
        if isinstance(ref, ast.Attribute):
            return ref.attr == "dataclass"
        return False

    @staticmethod
    def _is_frozen(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        for keyword in node.keywords:
            if keyword.arg == "frozen" and \
                    isinstance(keyword.value, ast.Constant):
                return bool(keyword.value.value)
        return False


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


_ALL_RULES: Tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    UnsortedIterationRule(),
    FloatAccumulatorRule(),
    SeamGuardRule(),
    EnvFormattingRule(),
    PoolBoundaryRule(),
)


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, in rule-id order."""
    return tuple(sorted(_ALL_RULES, key=lambda r: r.rule_id))


def rule_ids() -> Tuple[str, ...]:
    """The registered rule ids, sorted."""
    return tuple(rule.rule_id for rule in all_rules())

