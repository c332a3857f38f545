"""The assembled project view handed to every project rule."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Set

from repro.analysis.interproc.callgraph import (
    SIM_CONSTRUCTORS,
    CallGraph,
    Scope,
    build_call_graph,
    build_scopes,
)
from repro.analysis.interproc.dataflow import tainted_functions
from repro.analysis.interproc.effects import EffectMap, infer_effects
from repro.analysis.interproc.serialization import (
    SerializationMap,
    build_serialization_map,
)
from repro.analysis.interproc.sites import (
    ScheduleSite,
    collect_schedule_sites,
)
from repro.analysis.interproc.symbols import SymbolTable, build_symbol_table
from repro.analysis.rules import ModuleContext


@dataclasses.dataclass
class ProjectContext:
    """Everything the interprocedural layer knows about one tree."""

    contexts: List[ModuleContext]
    symbols: SymbolTable
    #: qname -> the scope (resolver plus body nodes) of every def
    #: and module body (``pkg.mod.<module>``), shared by the passes.
    scopes: Dict[str, Scope]
    callgraph: CallGraph
    sites: List[ScheduleSite]
    #: Transitively tainted functions (wall clock / global RNG).
    taints: Dict[str, str]
    #: Functions reachable from the roots (module-level code, public
    #: functions and methods, and every referenced callback).
    reachable: Set[str]
    #: caller qname -> run roots that reach it.  A *run root* is a
    #: function that constructs a Simulator itself (``Simulator()``
    #: or ``build_simulator(...)`` as a direct callee): the place a
    #: run scope begins.  Two schedule sites can only tie when they
    #: share one simulator, so the SCH rules pair sites only when
    #: their callers share a run root here -- the static proxy for
    #: "same run", which keeps scenarios that merely coexist in one
    #: process (a report runner executing both) from cross-pairing.
    caller_roots: Dict[str, Set[str]]
    #: Per-function effect summaries and their transitive closure
    #: (filesystem, SQL/transactions, RNG draws, raises) -- the
    #: ground layer of the EFF rule family.
    effects: EffectMap
    #: Dataclass fields -> to_dict/from_dict keys -> fingerprint
    #: inputs -> named-substream sites -- the ground layer of the
    #: FPR rule family.
    serialization: SerializationMap


def build_project(contexts: Sequence[ModuleContext]) -> ProjectContext:
    """Build the full interprocedural view over *contexts*."""
    ordered = sorted(contexts, key=lambda c: c.path)
    symbols = build_symbol_table(ordered)
    scopes = build_scopes(symbols)
    callgraph = build_call_graph(scopes)
    sites = collect_schedule_sites(scopes)
    taints = tainted_functions(symbols, callgraph)
    entry_roots: List[str] = []
    for module in sorted(symbols.modules):
        entry_roots.append(f"{module}.<module>")
    for qname in sorted(symbols.functions):
        symbol = symbols.functions[qname]
        if not symbol.name.startswith("_") or symbol.name == "__init__":
            entry_roots.append(qname)
    roots = entry_roots + sorted(callgraph.callback_targets)
    reachable = callgraph.reachable(roots)
    site_callers = sorted({site.caller for site in sites})
    caller_roots: Dict[str, Set[str]] = {c: set() for c in site_callers}
    # A run root constructs a Simulator itself (a direct callee).
    for root in scopes:
        if not any(callee in SIM_CONSTRUCTORS
                   for callee in callgraph.callees(root)):
            continue
        reach = callgraph.reachable([root])
        for caller in site_callers:
            if caller in reach:
                caller_roots[caller].add(root)
    return ProjectContext(
        contexts=list(ordered), symbols=symbols, scopes=scopes,
        callgraph=callgraph, sites=sites, taints=taints,
        reachable=reachable, caller_roots=caller_roots,
        effects=infer_effects(scopes),
        serialization=build_serialization_map(symbols, scopes))
