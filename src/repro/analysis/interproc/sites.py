"""Schedule-site extraction: every ``schedule``/``schedule_at`` call.

A *site* is one static call of the kernel's scheduling API.  Sites
carry everything the SCH rules reason about: where the call is, who
makes it, what delay expression it passes, what callback it arms and
whether the site is *periodic* (the callback re-arms the same site,
the dominant pattern for sensors, watchdogs and service timers).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import List, Mapping, Optional, Tuple

from repro.analysis.interproc.callgraph import SIMULATOR_QNAME, Scope
from repro.analysis.interproc.dataflow import DelayValue, evaluate_delay

#: Scheduling entry points on the kernel seam.
SCHEDULE_METHODS = ("schedule", "schedule_at")


@dataclasses.dataclass(frozen=True)
class ScheduleSite:
    """One static ``schedule()``/``schedule_at()`` call site."""

    #: ``path:line`` -- matches the runtime TieAudit site ids.
    site_id: str
    path: str
    line: int
    column: int
    module: str
    #: The function containing the call (``pkg.mod.Cls.meth`` or the
    #: module pseudo-symbol ``pkg.mod.<module>``).
    caller: str
    #: ``schedule`` or ``schedule_at``.
    method: str
    #: Resolved callback qname, when the callback argument is a
    #: resolvable function/method reference; None for lambdas and
    #: unresolvable expressions.
    callback: Optional[str]
    #: What the delay argument folds to.
    delay: DelayValue
    #: Resolved qnames of functions called inside the delay
    #: expression (the hook for interprocedural taint, SCH003).
    delay_calls: Tuple[str, ...]
    #: Whether the callback (or the caller, for re-arms inside the
    #: callback itself) schedules this site again: a periodic loop.
    periodic: bool

    def sort_key(self) -> Tuple[str, int, int]:
        """Deterministic report order."""
        return (self.path, self.line, self.column)


def collect_schedule_sites(scopes: Mapping[str, Scope]
                           ) -> List[ScheduleSite]:
    """Every schedule site in the project, in path/line order."""
    sites: List[ScheduleSite] = []
    for scope in scopes.values():
        for node in scope.nodes:
            if isinstance(node, ast.Call) and \
                    _is_schedule_target(scope, node) is not None:
                sites.append(_build_site(scope, node))
    return sorted(sites, key=ScheduleSite.sort_key)


def _is_schedule_target(resolver: Scope,
                        call: ast.Call) -> Optional[str]:
    """The schedule method name, when *call* targets the kernel."""
    func = call.func
    if not isinstance(func, ast.Attribute) or \
            func.attr not in SCHEDULE_METHODS:
        return None
    target = resolver.resolve_callable(func)
    if target is not None and \
            target.startswith(SIMULATOR_QNAME + "."):
        return func.attr
    # Convention fallback: an untyped receiver whose name mentions
    # ``sim`` still counts (the codebase-wide seam naming rule).
    receiver = func.value
    name = ""
    if isinstance(receiver, ast.Name):
        name = receiver.id
    elif isinstance(receiver, ast.Attribute):
        name = receiver.attr
    if "sim" in name:
        return func.attr
    return None


def _build_site(scope: Scope, call: ast.Call) -> ScheduleSite:
    symbol = scope.symbol
    method = call.func.attr if isinstance(call.func, ast.Attribute) \
        else "schedule"
    delay_expr = call.args[0] if call.args else None
    callback_expr = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg in ("delay", "when"):
            delay_expr = keyword.value
        elif keyword.arg == "callback":
            callback_expr = keyword.value
    callback: Optional[str] = None
    if callback_expr is not None and \
            isinstance(callback_expr, (ast.Name, ast.Attribute)):
        callback = scope.resolve_callable(callback_expr)
    delay = evaluate_delay(scope, delay_expr)
    delay_calls: List[str] = []
    if delay_expr is not None:
        for sub in ast.walk(delay_expr):
            if isinstance(sub, ast.Call):
                resolved = scope.resolve_callable(sub.func)
                if resolved is not None:
                    delay_calls.append(resolved)
    return ScheduleSite(
        site_id=f"{symbol.path}:{call.lineno}",
        path=symbol.path, line=call.lineno,
        column=call.col_offset + 1, module=symbol.module,
        caller=symbol.qname, method=method, callback=callback,
        delay=delay, delay_calls=tuple(sorted(set(delay_calls))),
        # The self-rescheduling callback is the periodic idiom.
        periodic=callback == symbol.qname)
