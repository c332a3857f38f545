"""Shared interprocedural layer for project-wide rules.

Per-file rules (``repro.analysis.rules``) see one
:class:`~repro.analysis.rules.ModuleContext` at a time; anything that
depends on *who calls whom* -- reachability, taint that crosses
function boundaries, pairs of schedule sites owned by different
components -- needs a project-wide view.
:func:`~repro.analysis.interproc.project.build_project` assembles it
once per lint invocation, in this order:

``symbols``
    A project symbol table: every def of the scope partition, closures
    included (``pkg.mod.f.<locals>.inner``), every class (with methods
    and literal class-level constants) and module-level numeric
    constant, keyed by dotted qualified name.

scopes (``callgraph.build_scopes``)
    One :class:`~repro.analysis.interproc.callgraph.Scope` per body of
    the partition, module bodies (``pkg.mod.<module>``) included.  It
    types receivers through annotated parameters, local constructor
    assignments and ``self.attr`` constructor assignments (once per
    class); a closure keeps its class and its enclosing def's local
    types, and a bare name bound to a nested def resolves to it.  Its
    nodes are the partition's own list: no pass walks a body again.

``callgraph``
    A call graph over the scopes.  Direct calls resolve through the
    import table; method calls resolve through the typed receiver;
    callables passed as arguments (scheduler callbacks, ``publish=``
    hooks) become reference edges so reachability follows callbacks.

``sites``
    Every ``schedule``/``schedule_at`` call on the kernel seam, with
    its caller, callback, folded delay and periodicity.

``dataflow``
    A small forward dataflow over delay expressions: a
    ``schedule(delay, cb)`` argument folds to a literal, a named
    constant, a tainted value (wall clock / unseeded randomness,
    found transitively through the call graph) or unknown.

``effects``
    Per-function effect summaries (files, SQL, transactions, RNG
    draws, raised classes) folded to a fixpoint along strict call
    edges -- the EFF family's ground layer.

``serialization``
    Dataclass fields, ``to_dict``/``from_dict`` keys, fingerprint
    payloads and named-substream sites -- the FPR family's ground
    layer.

Everything is pure AST analysis -- no imports of the linted code --
and every container iterates in sorted order, so the same tree always
produces the same findings bytes (the repo-wide determinism bar the
linter itself is held to).
"""

from repro.analysis.interproc.callgraph import (
    CallGraph,
    Scope,
    build_call_graph,
    build_scopes,
)
from repro.analysis.interproc.dataflow import (
    DelayValue,
    evaluate_delay,
    tainted_functions,
)
from repro.analysis.interproc.project import ProjectContext, build_project
from repro.analysis.interproc.sites import ScheduleSite, collect_schedule_sites
from repro.analysis.interproc.symbols import (
    ClassSymbol,
    FunctionSymbol,
    SymbolTable,
    build_symbol_table,
)

__all__ = [
    "CallGraph",
    "ClassSymbol",
    "DelayValue",
    "FunctionSymbol",
    "ProjectContext",
    "ScheduleSite",
    "Scope",
    "SymbolTable",
    "build_call_graph",
    "build_project",
    "build_scopes",
    "build_symbol_table",
    "collect_schedule_sites",
    "evaluate_delay",
    "tainted_functions",
]
