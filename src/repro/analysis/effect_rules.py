"""The effect-discipline rule family (EFF001..EFF008).

The durable work-queue backend's crash-invariance guarantee
(ARCHITECTURE.md §14) rests on conventions nothing enforced until
now: every durable write goes through atomic temp+rename with an
fsync before the rename, every queue mutation happens under an
immediate transaction with a lease-owner comparison, no campaign
work runs while a transaction is open, every random draw flows from
a *named* substream, frozen specs stay frozen once fingerprinted,
and dead letters are never swallowed.  The EFF rules check those
conventions statically on top of the interprocedural effect layer
(:mod:`repro.analysis.interproc.effects`).

========  ==========================================================
EFF001    durable-store write that does not flow through the atomic
          temp+``os.replace`` pattern (a crash leaves a truncated
          entry where a reader expects a verified one)
EFF002    rename into place without a transitive fsync: the rename
          is atomic but the *data* may still be in the page cache,
          so a power cut can publish an empty file under a valid
          name
EFF003    read-then-write on queue tables outside one immediate
          transaction (or under a deferred BEGIN): two workers can
          interleave between the read and the write
EFF004    queue-state UPDATE touching the lease life cycle with no
          lease-owner comparison anywhere in the function's SQL: an
          expired worker can clobber the item it lost
EFF005    campaign work (a run, an artifact-store call) executed
          while a DB transaction is open: the queue lock is held
          across a simulation, starving every other worker
EFF006    a random draw whose generator is not interprocedurally
          traceable to a named substream (``fleet.*``, ``vary.*``,
          ``faults.*``, ``tie_break.*``): the substream *name* is
          part of the seeded draw's identity
EFF007    ``object.__setattr__`` on a frozen spec outside
          ``__init__``/``__post_init__``: mutation after
          fingerprinting silently decouples content from key
EFF008    a broad ``except`` that swallows ``DeadLetterError`` (or
          sqlite integrity errors) on a fold path without
          re-raising: dead letters must surface, never vanish
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.interproc.effects import (
    ADHOC_RNG_CONSTRUCTORS,
    DRAW_METHODS,
    FS_FSYNC,
    FS_RENAME,
    FS_WRITE,
    SIM_BUILD,
    WORK,
    WORK_QNAMES,
    FunctionEffects,
    is_stream_get,
    leading_literal,
    local_producer,
    sql_is_mutation,
    sql_mentions_table,
    sql_updated_table,
)
from repro.analysis.interproc.project import ProjectContext
from repro.analysis.rules import resolve_target
from repro.analysis.schedule_rules import ProjectRule

#: Modules holding durable-store state: writes here must be atomic
#: (EFF001) and synced before publication (EFF002).
_DURABLE_MODULES = ("repro.core.artifacts", "repro.core.queue")

#: Modules that own queue transactions (EFF003/EFF004/EFF005/EFF008).
_QUEUE_MODULES = ("repro.core.queue",)

#: The queue's SQLite tables.
_QUEUE_TABLES = ("items", "meta")

#: module prefix -> substream-name prefixes its draws must use.
_SUBSTREAM_SCOPES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.core.fleet", ("fleet.",)),
    ("repro.vary", ("vary.",)),
    ("repro.faults", ("faults.",)),
    ("repro.sim.kernel", ("tie_break.",)),
)

#: What fixtures (and any non-``repro`` tree) must use: any of the
#: named families.  Fixtures always face the strictest rule form.
_ALL_PREFIXES = ("fleet.", "vary.", "faults.", "tie_break.")

#: Exception classes EFF008 refuses to see swallowed.
_GUARDED_RAISES = ("DeadLetterError",)

#: Constructors whose presence in-scope means a frozen-spec module.
_LIFECYCLE_METHODS = ("__init__", "__post_init__", "__new__",
                      "__setstate__")


def _module_in(module: str, prefixes: Tuple[str, ...]) -> bool:
    """Scope test: fixtures are always in, repro by prefix."""
    if not (module == "repro" or module.startswith("repro.")):
        return True
    return any(module == p or module.startswith(p + ".")
               for p in prefixes)


def _scoped(project: ProjectContext, prefixes: Tuple[str, ...]
            ) -> Iterator[FunctionEffects]:
    """Per-function summaries of every in-scope function, sorted."""
    per_function = project.effects.per_function
    for qname in sorted(per_function):
        fx = per_function[qname]
        if _module_in(fx.symbol.module, prefixes):
            yield fx


class EffectRule(ProjectRule):
    """Base for the EFF family: anchors findings at effect sites."""

    def site(self, project: ProjectContext, fx: FunctionEffects,
             node: ast.AST, message: str) -> Finding:
        return self.finding(
            project, fx.symbol.path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1, message)


class DurableWriteRule(EffectRule):
    """Durable writes must be atomic (temp file + rename)."""

    rule_id = "EFF001"
    title = "durable-store write outside the atomic rename pattern"
    rationale = (
        "A plain write into durable-store state can be interrupted "
        "by a crash, leaving a truncated file under the name readers "
        "trust.  Every durable write must flow through the temp+"
        "os.replace helper pattern (ArtifactStore.put): write the "
        "temp file, fsync, rename into place.  Non-durable output "
        "(a report dumped for a human) is a one-line suppression "
        "with the reason written down.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for fx in _scoped(project, _DURABLE_MODULES):
            if not fx.write_opens:
                continue
            if FS_RENAME in project.effects.of(fx.symbol.qname):
                continue
            for node in fx.write_opens:
                yield self.site(
                    project, fx, node,
                    f"{fx.symbol.qname} writes durable-store state "
                    f"without the atomic temp+os.replace pattern; a "
                    f"crash mid-write leaves a truncated entry "
                    f"(write a temp file, fsync, os.replace -- see "
                    f"ArtifactStore.put)")


class FsyncBeforeRenameRule(EffectRule):
    """Published renames need their data on disk first."""

    rule_id = "EFF002"
    title = "rename into the store without a preceding fsync"
    rationale = (
        "os.replace makes the *name* change atomic, not the data: "
        "without an fsync on the temp file a power cut can publish "
        "a zero-length or partial file under a valid store path, "
        "which integrity checking then misreads as a plain miss "
        "forever.  Flush and os.fsync the handle before renaming.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for fx in _scoped(project, _DURABLE_MODULES):
            if not fx.renames:
                continue
            transitive = project.effects.of(fx.symbol.qname)
            if FS_WRITE not in transitive:
                continue  # a pure mover publishes nothing new
            if FS_FSYNC in transitive:
                continue
            for node in fx.renames:
                yield self.site(
                    project, fx, node,
                    f"{fx.symbol.qname} renames freshly written "
                    f"data into place without any fsync on the "
                    f"path; call handle.flush() + "
                    f"os.fsync(handle.fileno()) before the rename")


class TransactionDisciplineRule(EffectRule):
    """Queue-table read-then-write needs one immediate transaction."""

    rule_id = "EFF003"
    title = "queue-table access outside an immediate transaction"
    rationale = (
        "SQLite autocommit makes each statement atomic but not the "
        "sequence: a SELECT followed by an UPDATE outside one "
        "BEGIN IMMEDIATE window lets a second worker interleave "
        "between them (the double-lease bug).  A deferred BEGIN is "
        "no better -- it only takes the write lock at the first "
        "write, after the read raced.  Single-statement operations "
        "(heartbeat, complete) are fine as they stand.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for fx in _scoped(project, _QUEUE_MODULES):
            if not fx.db_calls:
                continue
            windows = fx.windows()
            queue_calls = [
                call for call in fx.db_calls
                if call.sql is not None and any(
                    sql_mentions_table(call.sql, table)
                    for table in _QUEUE_TABLES)]
            outside = [
                call for call in queue_calls
                if not any(w.start_line <= call.node.lineno
                           <= w.end_line for w in windows)]
            mutations = [call for call in outside
                         if sql_is_mutation(call.sql or "")]
            if mutations and len(outside) >= 2:
                yield self.site(
                    project, fx, mutations[0].node,
                    f"{fx.symbol.qname} reads and mutates queue "
                    f"tables in autocommit: wrap the sequence in "
                    f"one BEGIN IMMEDIATE .. COMMIT so no other "
                    f"worker can interleave")
            for window in windows:
                if window.immediate:
                    continue
                for call in queue_calls:
                    if window.start_line <= call.node.lineno \
                            <= window.end_line and \
                            sql_is_mutation(call.sql or ""):
                        yield self.site(
                            project, fx, call.node,
                            f"{fx.symbol.qname} mutates queue "
                            f"tables under a deferred BEGIN; use "
                            f"BEGIN IMMEDIATE so the write lock is "
                            f"taken before the reads")
                        break


class LeaseOwnerRule(EffectRule):
    """Lease-cycle updates must compare the lease owner."""

    rule_id = "EFF004"
    title = "lease-state UPDATE without a lease-owner comparison"
    rationale = (
        "complete/fail/heartbeat on a leased item must only honour "
        "the *current* owner: an UPDATE that matches on state alone "
        "lets a worker whose lease expired clobber the item after "
        "it was re-leased to someone else (the double-lease guard, "
        "backend.py).  Every leased-state UPDATE needs "
        "``lease_owner = ?`` in the function's SQL.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for fx in _scoped(project, _QUEUE_MODULES):
            sql_text = " ".join(
                call.sql for call in fx.db_calls
                if call.sql is not None).lower()
            if "lease_owner" in sql_text:
                continue
            for call in fx.db_calls:
                if call.sql is None:
                    continue
                if sql_updated_table(call.sql) == "items" and \
                        "'leased'" in call.sql.lower():
                    yield self.site(
                        project, fx, call.node,
                        f"{fx.symbol.qname} updates leased queue "
                        f"state without comparing lease_owner; an "
                        f"expired worker could clobber an item "
                        f"re-leased to someone else (add AND "
                        f"lease_owner = ? to the WHERE)")


class WorkInTransactionRule(EffectRule):
    """No campaign work while a DB transaction is open."""

    rule_id = "EFF005"
    title = "campaign work executed inside an open DB transaction"
    rationale = (
        "An immediate transaction holds the queue's write lock; "
        "running a simulation or an artifact-store operation inside "
        "one blocks every other worker's lease/heartbeat/complete "
        "for the duration of the run.  Commit first, then work -- "
        "the item life cycle (lease, execute, complete) is designed "
        "so no invariant needs them in one transaction.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for fx in _scoped(project, _QUEUE_MODULES):
            windows = fx.windows()
            if not windows:
                continue
            db_nodes = {id(call.node) for call in fx.db_calls}
            for call, qname in fx.calls:
                if qname is None or id(call) in db_nodes:
                    continue
                if not any(w.contains(call.lineno)
                           for w in windows):
                    continue
                transitive = project.effects.of(qname)
                if qname in WORK_QNAMES or transitive & {
                        WORK, SIM_BUILD, FS_WRITE}:
                    yield self.site(
                        project, fx, call,
                        f"{fx.symbol.qname} calls {qname} while a "
                        f"DB transaction is open: the queue lock "
                        f"is held across campaign work; COMMIT "
                        f"before executing the item")


class SubstreamDisciplineRule(EffectRule):
    """Every draw must trace to a named substream."""

    rule_id = "EFF006"
    title = "random draw not traceable to a named substream"
    rationale = (
        "Substream *names* are part of the seeded draw's identity "
        "(RandomStreams.get hashes the name into the seed): a draw "
        "from an ad-hoc generator -- or from a substream outside "
        "the module's family prefix (fleet.*, vary.*, faults.*, "
        "tie_break.*) -- is bit-stable only by accident of call "
        "order.  Name the stream, scoped to its family, and pass "
        "the generator down from there.")

    def _required(self, module: str) -> Optional[Tuple[str, ...]]:
        if not (module == "repro" or module.startswith("repro.")):
            return _ALL_PREFIXES
        for prefix, required in _SUBSTREAM_SCOPES:
            if module == prefix or module.startswith(prefix + "."):
                return required
        return None

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        per_function = project.effects.per_function
        #: (drawing fx, draw node, positional index, param name)
        param_draws: List[Tuple[FunctionEffects, ast.Call, int,
                                str]] = []
        for qname in sorted(per_function):
            fx = per_function[qname]
            required = self._required(fx.symbol.module)
            if required is None:
                continue
            ctx = project.symbols.modules.get(fx.symbol.module)
            if ctx is None:
                continue
            for call, _target in fx.calls:
                if is_stream_get(call) and call.args:
                    name = leading_literal(fx.scope, call.args[0])
                    if not name:
                        continue
                    if not any(name.startswith(p)
                               for p in required):
                        yield self.site(
                            project, fx, call,
                            f"substream name {name!r} in "
                            f"{fx.symbol.qname} is outside the "
                            f"module's family "
                            f"({', '.join(p + '*' for p in required)}"
                            f"): the name "
                            f"is part of the seeded draw identity, "
                            f"so scope it to its family")
                    continue
                if not (isinstance(call.func, ast.Attribute)
                        and call.func.attr in DRAW_METHODS
                        and isinstance(call.func.value, ast.Name)):
                    continue
                receiver = call.func.value.id
                producer = local_producer(fx.scope, receiver)
                if producer is None:
                    index = _param_index(fx.symbol, receiver)
                    if index is not None:
                        param_draws.append(
                            (fx, call, index, receiver))
                    continue
                if _is_adhoc(ctx, producer):
                    yield self.site(
                        project, fx, call,
                        f"{fx.symbol.qname} draws from an ad-hoc "
                        f"generator constructed in place of a "
                        f"named substream; use streams.get("
                        f"'<family>.<purpose>') so the draw's "
                        f"identity is pinned by name")
        # Interprocedural half: a caller handing an ad-hoc generator
        # into a function that draws from the parameter.
        for fx, draw, index, param in param_draws:
            for caller_q in sorted(per_function):
                caller = per_function[caller_q]
                ctx = project.symbols.modules.get(
                    caller.symbol.module)
                if ctx is None:
                    continue
                for call, target in caller.calls:
                    if target != fx.symbol.qname:
                        continue
                    arg = _argument_for(call, index, param)
                    if arg is None:
                        continue
                    if isinstance(arg, ast.Name):
                        arg = local_producer(
                            caller.scope, arg.id) or arg
                    if _is_adhoc(ctx, arg):
                        yield self.site(
                            project, caller, call,
                            f"{caller.symbol.qname} passes an "
                            f"ad-hoc generator into "
                            f"{fx.symbol.qname}, which draws from "
                            f"it (parameter {param!r}); hand it a "
                            f"named substream instead")


def _is_adhoc(ctx, expr: ast.expr) -> bool:
    """Whether *expr* constructs an anonymous generator."""
    return isinstance(expr, ast.Call) and \
        resolve_target(ctx, expr.func) in ADHOC_RNG_CONSTRUCTORS


def _param_index(symbol, name: str) -> Optional[int]:
    """Positional index of parameter *name*, self/cls excluded."""
    node = symbol.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    params = [arg.arg for arg in node.args.args]
    if symbol.cls is not None and params and \
            params[0] in ("self", "cls"):
        params = params[1:]
    try:
        return params.index(name)
    except ValueError:
        return None


def _argument_for(call: ast.Call, index: int,
                  param: str) -> Optional[ast.expr]:
    """The call argument bound to parameter (*index*, *param*)."""
    for keyword in call.keywords:
        if keyword.arg == param:
            return keyword.value
    if len(call.args) > index:
        return call.args[index]
    return None


class FrozenMutationRule(EffectRule):
    """Frozen specs stay frozen once constructed."""

    rule_id = "EFF007"
    title = "frozen dataclass mutated after construction"
    rationale = (
        "object.__setattr__ outside __init__/__post_init__ rewrites "
        "a frozen spec *after* its fingerprint may have been taken, "
        "silently decoupling cache keys, queue item ids and coverage "
        "reports from the content they were computed over.  Build a "
        "new instance (dataclasses.replace) instead.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for qname in sorted(project.effects.per_function):
            fx = project.effects.per_function[qname]
            if fx.symbol.name in _LIFECYCLE_METHODS:
                continue
            for call, _target in fx.calls:
                func = call.func
                if isinstance(func, ast.Attribute) and \
                        func.attr == "__setattr__" and \
                        isinstance(func.value, ast.Name) and \
                        func.value.id == "object":
                    yield self.site(
                        project, fx, call,
                        f"{fx.symbol.qname} mutates a frozen "
                        f"instance via object.__setattr__ outside "
                        f"construction; fingerprints taken earlier "
                        f"no longer describe it -- use "
                        f"dataclasses.replace to build a new spec")


class SwallowedDeadLetterRule(EffectRule):
    """Dead letters and integrity errors must surface."""

    rule_id = "EFF008"
    title = "broad except swallows dead-letter/integrity errors"
    rationale = (
        "DeadLetterError is the queue's way of saying the campaign "
        "result would be *wrong* (items exhausted their retries); "
        "sqlite integrity errors mean the durable state itself is "
        "suspect.  A bare/Exception handler on such a path that "
        "does not re-raise converts a loud, correct failure into a "
        "silently incomplete fold.  Catch the specific classes you "
        "can handle; let the rest propagate.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for fx in _scoped(project, _QUEUE_MODULES):
            call_targets = {id(call): target
                            for call, target in fx.calls}
            db_nodes = {id(call.node) for call in fx.db_calls}
            for node in fx.scope.nodes:
                if not isinstance(node, ast.Try):
                    continue
                reason = self._guarded_reason(
                    project, node, call_targets, db_nodes)
                if reason is None:
                    continue
                for handler in node.handlers:
                    if not _is_broad(handler):
                        continue
                    if any(isinstance(sub, ast.Raise)
                           for stmt in handler.body
                           for sub in ast.walk(stmt)):
                        continue
                    yield self.site(
                        project, fx, handler,
                        f"broad except in {fx.symbol.qname} "
                        f"swallows {reason} without re-raising; "
                        f"dead letters must surface, not fold "
                        f"into a silently incomplete result")

    def _guarded_reason(self, project: ProjectContext,
                        node: ast.Try,
                        call_targets: Dict[int, Optional[str]],
                        db_nodes: Set[int]) -> Optional[str]:
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise) and \
                        sub.exc is not None:
                    exc = sub.exc.func if \
                        isinstance(sub.exc, ast.Call) else sub.exc
                    name = exc.attr if \
                        isinstance(exc, ast.Attribute) else \
                        getattr(exc, "id", None)
                    if name in _GUARDED_RAISES:
                        return f"a direct {name}"
                if not isinstance(sub, ast.Call):
                    continue
                if id(sub) in db_nodes:
                    return ("sqlite integrity errors (the try "
                            "body executes SQL)")
                target = call_targets.get(id(sub))
                if target is None:
                    continue
                raised = project.effects.raises_of(target)
                for guarded in _GUARDED_RAISES:
                    if guarded in raised:
                        return f"{guarded} (raised below {target})"
        return None


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """Bare except, or one naming Exception/BaseException."""
    if handler.type is None:
        return True
    names: List[ast.expr] = [handler.type]
    if isinstance(handler.type, ast.Tuple):
        names = list(handler.type.elts)
    for expr in names:
        name = expr.attr if isinstance(expr, ast.Attribute) \
            else getattr(expr, "id", None)
        if name in ("Exception", "BaseException"):
            return True
    return False


_EFFECT_RULES: Tuple[ProjectRule, ...] = (
    DurableWriteRule(),
    FsyncBeforeRenameRule(),
    TransactionDisciplineRule(),
    LeaseOwnerRule(),
    WorkInTransactionRule(),
    SubstreamDisciplineRule(),
    FrozenMutationRule(),
    SwallowedDeadLetterRule(),
)


def all_effect_rules() -> Tuple[ProjectRule, ...]:
    """Every registered effect rule, in rule-id order."""
    return tuple(sorted(_EFFECT_RULES, key=lambda r: r.rule_id))


def effect_rule_ids() -> Tuple[str, ...]:
    """The registered effect rule ids, sorted."""
    return tuple(rule.rule_id for rule in all_effect_rules())


__all__ = [
    "DurableWriteRule",
    "EffectRule",
    "FrozenMutationRule",
    "FsyncBeforeRenameRule",
    "LeaseOwnerRule",
    "SubstreamDisciplineRule",
    "SwallowedDeadLetterRule",
    "TransactionDisciplineRule",
    "WorkInTransactionRule",
    "all_effect_rules",
    "effect_rule_ids",
]
