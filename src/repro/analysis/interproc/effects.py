"""Interprocedural effect inference (the EFF family's ground layer).

Where the taint fixpoint (:mod:`repro.analysis.interproc.dataflow`)
answers "can nondeterminism reach this value", the effect layer
answers "what does calling this function *do* to the durable world":
write a file, rename one into place, fsync, execute SQL, open or
close a transaction, draw from a random generator, build a simulator.
Each function gets a *direct* effect set from its own body, then a
fixpoint over the call graph folds callee effects into callers, so a
rule can ask ``"fs.rename" in effects.of(qname)`` and mean
"anywhere below this call".  Raised exception classes propagate the
same way, which is what lets EFF008 see a ``DeadLetterError`` thrown
three helpers deep under a bare ``except``.

Everything here is static and deterministic: SQL is only inspected
when it is a string literal at the call site, receivers are matched
by the codebase's naming conventions (``db``/``conn``/``cur`` for
connections, ``*stream*`` for the substream factory), and unknown
targets contribute nothing rather than a guess.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.interproc.callgraph import SIM_CONSTRUCTORS, Scope
from repro.analysis.interproc.symbols import FunctionSymbol
from repro.analysis.rules import resolve_target

# -- effect kinds -----------------------------------------------------------

FS_WRITE = "fs.write"      #: opens a file handle in a write mode
FS_MKSTEMP = "fs.mkstemp"  #: creates a temp file (the atomic pattern)
FS_RENAME = "fs.rename"    #: renames/replaces a file into place
FS_FSYNC = "fs.fsync"      #: forces written bytes to disk
DB_EXECUTE = "db.execute"  #: executes SQL on a connection/cursor
DB_BEGIN = "db.begin"      #: opens an explicit transaction
DB_COMMIT = "db.commit"    #: commits or rolls back one
RNG_DRAW = "rng.draw"      #: draws from a random generator
SIM_BUILD = "sim.build"    #: constructs a Simulator (a run begins)
WORK = "work"              #: executes campaign work (runs, artifacts)

#: Rename/replace targets (``Path.replace`` is matched structurally:
#: a one-argument ``.replace(...)`` call -- ``str.replace`` takes two).
_RENAME_TARGETS = ("os.replace", "os.rename", "os.renames",
                   "shutil.move")

#: Temp-file factories that start the atomic write pattern.
_MKSTEMP_TARGETS = ("tempfile.mkstemp", "tempfile.NamedTemporaryFile",
                    "tempfile.mkdtemp")

#: Ad-hoc generator constructors: a draw on one of these is not a
#: named substream, whatever seed it was given (the *name* is part of
#: the draw's identity; a seeded anonymous generator still drifts the
#: moment call order changes).
ADHOC_RNG_CONSTRUCTORS = ("numpy.random.default_rng",
                          "numpy.random.Generator",
                          "numpy.random.RandomState",
                          "random.Random")

#: Method names that consume randomness from a generator object.
DRAW_METHODS = frozenset((
    "random", "uniform", "normal", "standard_normal", "integers",
    "choice", "shuffle", "permutation", "exponential", "poisson",
    "gauss", "randint", "randrange", "sample", "betavariate",
))

#: Functions that *are* campaign work: executing one of these (or
#: anything that reaches them) inside an open DB transaction holds
#: the queue lock across a simulation (EFF005).
WORK_QNAMES = (
    "repro.core.queue.worker.execute_item",
    "repro.core.campaign.simulate",
    "repro.core.campaign.execute_jobs",
    "repro.core.campaign.BrakeJob.execute",
    "repro.core.fleet.campaign.FleetJob.execute",
    "repro.core.artifacts.ArtifactStore.put",
    "repro.core.artifacts.ArtifactStore.get",
)

#: Receiver-name fragments that mark a ``.execute(...)`` call as SQL.
_DB_RECEIVER_HINTS = ("db", "conn", "cur", "sqlite")

#: Receiver-name fragment for the substream factory convention
#: (``streams`` / ``self.streams`` / ``scoped_streams``).
_STREAM_RECEIVER_HINT = "stream"

_SQL_MUTATION_RE = re.compile(
    r"^\s*(?:INSERT|UPDATE|DELETE|REPLACE)\b", re.IGNORECASE)
_SQL_BEGIN_RE = re.compile(r"^\s*BEGIN\b", re.IGNORECASE)
_SQL_IMMEDIATE_RE = re.compile(
    r"^\s*BEGIN\s+(?:IMMEDIATE|EXCLUSIVE)\b", re.IGNORECASE)
_SQL_CLOSE_RE = re.compile(
    r"^\s*(?:COMMIT|ROLLBACK|END)\b", re.IGNORECASE)
_SQL_UPDATE_RE = re.compile(r"^\s*UPDATE\s+(\w+)\b", re.IGNORECASE)


def sql_mentions_table(sql: str, table: str) -> bool:
    """Whether *sql* references *table* as a whole word."""
    return re.search(rf"\b{re.escape(table)}\b", sql,
                     re.IGNORECASE) is not None


def sql_is_mutation(sql: str) -> bool:
    """Whether *sql* is an INSERT/UPDATE/DELETE/REPLACE statement."""
    return _SQL_MUTATION_RE.match(sql) is not None


def sql_updated_table(sql: str) -> Optional[str]:
    """The table an UPDATE statement targets, lowercased, or None."""
    match = _SQL_UPDATE_RE.match(sql)
    return match.group(1).lower() if match else None


@dataclasses.dataclass(frozen=True, eq=False)
class DbCall:
    """One SQL-ish call site inside a function body."""

    node: ast.Call
    #: ``execute`` | ``executemany`` | ``executescript`` | ``commit``
    #: | ``rollback``.
    method: str
    #: The SQL string when it is a literal at the call site.
    sql: Optional[str]

    @property
    def opens(self) -> bool:
        """Whether this call opens an explicit transaction."""
        return self.sql is not None and \
            _SQL_BEGIN_RE.match(self.sql) is not None

    @property
    def immediate(self) -> bool:
        """Whether an opened transaction is IMMEDIATE/EXCLUSIVE."""
        return self.sql is not None and \
            _SQL_IMMEDIATE_RE.match(self.sql) is not None

    @property
    def closes(self) -> bool:
        """Whether this call commits or rolls back a transaction."""
        if self.method in ("commit", "rollback"):
            return True
        return self.sql is not None and \
            _SQL_CLOSE_RE.match(self.sql) is not None


@dataclasses.dataclass(frozen=True)
class TransactionWindow:
    """One BEGIN..COMMIT span in a function's statement order."""

    start_line: int
    end_line: int
    immediate: bool

    def contains(self, line: int) -> bool:
        """Whether *line* sits strictly inside the window."""
        return self.start_line < line < self.end_line


@dataclasses.dataclass(eq=False)
class FunctionEffects:
    """Everything the effect pass extracted from one function body."""

    scope: Scope
    #: Direct effect kinds of this body alone.
    direct: Set[str]
    #: Bare class names this body raises directly.
    raises: Set[str]
    #: SQL-ish calls, in statement order.
    db_calls: List[DbCall]
    #: ``open(...)``/``os.fdopen(...)`` calls in a write mode.
    write_opens: List[ast.Call]
    #: rename/replace calls.
    renames: List[ast.Call]
    #: Every call with its strictly-resolved target (None when the
    #: receiver could not be typed; never a single-owner guess).
    calls: List[Tuple[ast.Call, Optional[str]]]

    @property
    def symbol(self) -> FunctionSymbol:
        """The function this summary describes."""
        return self.scope.symbol

    def windows(self) -> List[TransactionWindow]:
        """The function's BEGIN..COMMIT spans, in statement order.

        A BEGIN with no matching close extends to the end of the
        function (the window is still open when it returns); closes
        with no open window -- the ``except: ROLLBACK`` arm after a
        committed ``try`` body -- are ignored.
        """
        out: List[TransactionWindow] = []
        open_call: Optional[DbCall] = None
        for call in self.db_calls:
            if call.opens and open_call is None:
                open_call = call
            elif call.closes and open_call is not None:
                out.append(TransactionWindow(
                    start_line=open_call.node.lineno,
                    end_line=call.node.lineno,
                    immediate=open_call.immediate))
                open_call = None
        if open_call is not None:
            end = getattr(self.symbol.node, "end_lineno", None)
            out.append(TransactionWindow(
                start_line=open_call.node.lineno,
                end_line=end or open_call.node.lineno,
                immediate=open_call.immediate))
        return out


@dataclasses.dataclass
class EffectMap:
    """Per-function effect summaries plus their transitive closure."""

    per_function: Dict[str, FunctionEffects]
    #: qname -> transitive effect kinds (direct plus every callee's).
    effects: Dict[str, Set[str]]
    #: qname -> transitive raised class names.
    raised: Dict[str, Set[str]]

    def of(self, qname: Optional[str]) -> Set[str]:
        """The transitive effects of *qname* (empty when unknown)."""
        if qname is None:
            return set()
        return self.effects.get(qname, set())

    def raises_of(self, qname: Optional[str]) -> Set[str]:
        """The transitive raised classes of *qname*."""
        if qname is None:
            return set()
        return self.raised.get(qname, set())


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a Name/Attribute receiver expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _literal_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_arg(call: ast.Call, index: int,
              keyword: str) -> Optional[ast.expr]:
    """Positional arg *index* or keyword *keyword* of *call*."""
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _is_write_mode(mode: Optional[str]) -> bool:
    return mode is not None and any(c in mode for c in "wax+")


def resolve_strict(resolver: Scope,
                   node: ast.expr) -> Optional[str]:
    """Resolve a callable without the single-owner method fallback.

    The call graph's last-resort rule (a method name defined by
    exactly one class is unambiguous) is fine for reachability but
    too eager for effect attribution: ``handle.close()`` must not
    acquire the effects of the one class that happens to define
    ``close``.  Here an Attribute call only resolves through a typed
    receiver or a dotted import origin.
    """
    if isinstance(node, ast.Name):
        return resolver.resolve_callable(node)
    if isinstance(node, ast.Attribute):
        if resolver.receiver_class(node.value) is not None:
            return resolver.resolve_callable(node)
        dotted = resolve_target(resolver.ctx, node)
        if dotted is not None and dotted in resolver.table.functions:
            return dotted
    return None


def _extract_function(scope: Scope) -> FunctionEffects:
    """The direct effect summary of one function body."""
    ctx = scope.ctx
    fx = FunctionEffects(scope=scope, direct=set(), raises=set(),
                         db_calls=[], write_opens=[], renames=[],
                         calls=[])
    for node in scope.nodes:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            name = _terminal_name(exc)
            if name is not None:
                fx.raises.add(name)
            continue
        if not isinstance(node, ast.Call):
            continue
        target = resolve_target(ctx, node.func)
        qname = resolve_strict(scope, node.func)
        fx.calls.append((node, qname))
        if qname in WORK_QNAMES or target in WORK_QNAMES:
            fx.direct.add(WORK)
        if qname in SIM_CONSTRUCTORS:
            fx.direct.add(SIM_BUILD)
        if isinstance(node.func, ast.Name) and \
                node.func.id == "open" or target == "io.open":
            if _is_write_mode(_literal_str(
                    _call_arg(node, 1, "mode"))):
                fx.direct.add(FS_WRITE)
                fx.write_opens.append(node)
            continue
        if target == "os.fdopen":
            if _is_write_mode(_literal_str(
                    _call_arg(node, 1, "mode"))):
                fx.direct.add(FS_WRITE)
                fx.write_opens.append(node)
            continue
        if target in _MKSTEMP_TARGETS:
            fx.direct.add(FS_MKSTEMP)
            continue
        if target in _RENAME_TARGETS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "replace"
                and len(node.args) == 1 and not node.keywords):
            fx.direct.add(FS_RENAME)
            fx.renames.append(node)
            continue
        if target == "os.fsync":
            fx.direct.add(FS_FSYNC)
            continue
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver = _terminal_name(node.func.value)
            hinted = receiver is not None and any(
                hint in receiver.lower()
                for hint in _DB_RECEIVER_HINTS)
            if hinted and attr in ("execute", "executemany",
                                   "executescript"):
                call = DbCall(node=node, method=attr,
                              sql=_literal_str(_call_arg(node, 0, "sql")))
                fx.db_calls.append(call)
                fx.direct.add(DB_EXECUTE)
                if call.opens:
                    fx.direct.add(DB_BEGIN)
                if call.closes:
                    fx.direct.add(DB_COMMIT)
                continue
            if hinted and attr in ("commit", "rollback"):
                fx.db_calls.append(DbCall(node=node, method=attr,
                                          sql=None))
                fx.direct.add(DB_COMMIT)
                continue
            if attr in DRAW_METHODS and isinstance(
                    node.func.value, (ast.Name, ast.Attribute)):
                fx.direct.add(RNG_DRAW)
    return fx


def infer_effects(scopes: Mapping[str, Scope]) -> EffectMap:
    """Direct extraction per function, then the caller<-callee fixpoint.

    The fixpoint propagates along the *strict* edges recorded in
    each summary's ``calls`` -- not the call graph's permissive
    edges -- so the single-owner method fallback (fine for
    reachability, wrong for attribution) can never fold a stranger
    class's effects into a caller.
    """
    per_function = {qname: _extract_function(scope)
                    for qname, scope in scopes.items()
                    if not isinstance(scope.symbol.node, ast.Module)}
    edges: Dict[str, Set[str]] = {
        qname: {callee for _node, callee in fx.calls
                if callee is not None}
        for qname, fx in per_function.items()}
    effects = {q: set(fx.direct) for q, fx in per_function.items()}
    raised = {q: set(fx.raises) for q, fx in per_function.items()}
    changed = True
    while changed:
        changed = False
        for caller in sorted(edges):
            own_fx = effects.setdefault(caller, set())
            own_raises = raised.setdefault(caller, set())
            for callee in sorted(edges[caller]):
                for pool, own in ((effects, own_fx),
                                  (raised, own_raises)):
                    extra = pool.get(callee, set()) - own
                    if extra:
                        own |= extra
                        changed = True
    return EffectMap(per_function=per_function, effects=effects,
                     raised=raised)


def leading_literal(scope: Scope,
                    expr: ast.expr, depth: int = 0) -> Optional[str]:
    """The statically-known leading text of a string expression.

    Follows literals, f-strings (up to the first interpolation),
    ``+`` concatenation and single local assignments, so
    ``scope = f"vary.lhs.{spec.name}"; streams.get(scope)`` folds to
    ``"vary.lhs."`` -- enough to check a required prefix.  None means
    nothing is known (an opaque parameter), which rules must treat as
    "cannot judge", never as a violation.
    """
    if depth > 8:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        if not expr.values:
            return None
        head = expr.values[0]
        if isinstance(head, ast.Constant) and \
                isinstance(head.value, str):
            return head.value
        if isinstance(head, ast.FormattedValue):
            return leading_literal(scope, head.value, depth + 1)
        return None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return leading_literal(scope, expr.left, depth + 1)
    if isinstance(expr, ast.Name):
        produced = local_producer(scope, expr.id)
        if produced is not None:
            return leading_literal(scope, produced, depth + 1)
    return None


def local_producer(scope: Scope, name: str) -> Optional[ast.expr]:
    """The expression last assigned to local *name*, if any.

    A closure also sees the locals of the defs enclosing it.
    """
    for body in scope.symbol.chain():
        found: Optional[ast.expr] = None
        for node in body.nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id == name:
                found = node.value
        if found is not None:
            return found
    return None


def is_stream_get(call: ast.Call) -> bool:
    """Whether *call* is ``<something streamish>.get(name)``."""
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "get"):
        return False
    receiver = _terminal_name(call.func.value)
    return receiver is not None and \
        _STREAM_RECEIVER_HINT in receiver.lower()


__all__ = [
    "ADHOC_RNG_CONSTRUCTORS",
    "DB_BEGIN",
    "DB_COMMIT",
    "DB_EXECUTE",
    "DRAW_METHODS",
    "DbCall",
    "EffectMap",
    "FS_FSYNC",
    "FS_MKSTEMP",
    "FS_RENAME",
    "FS_WRITE",
    "FunctionEffects",
    "RNG_DRAW",
    "SIM_BUILD",
    "TransactionWindow",
    "WORK",
    "WORK_QNAMES",
    "infer_effects",
    "is_stream_get",
    "leading_literal",
    "local_producer",
    "resolve_strict",
    "sql_is_mutation",
    "sql_mentions_table",
    "sql_updated_table",
]
