"""``lock-blocking`` — no blocking calls while holding a serving-tier lock.

The PR 4 eviction race class: :class:`~repro.serving.registry.\
SessionRegistry` once closed evicted sessions *inside* ``with
self._lock:`` — ``close()`` can block behind an in-flight expansion
and its ``on_evict`` callback re-enters the registry, so one eviction
stalled every tenant's lookup and invited deadlock.  PR 4 (and PR 6
for the snapshot store) fixed the pattern by hand: pop victims under
the lock, act on them after it is released; snapshot under the entry
lock, write the file outside it.

This rule mechanizes that discipline lexically: inside a ``with``
block whose context manager is a lock attribute (``self._lock``,
``entry.lock``, ``self._persist_lock``, ...) or a bounded-lock helper
(``entry.hold(...)``), any call whose target name is a known blocking
operation is flagged:

* pipe I/O — ``recv_bytes`` / ``send_bytes`` / ``poll``
* durability — ``fsync``, :meth:`SnapshotStore.save`,
  ``checkpoint_all``
* lifecycle — ``close`` / ``close_all`` / ``shutdown`` / ``terminate``
  / ``kill`` (session/process teardown blocks on in-flight work)
* thread/process — ``join``, ``sleep``, ``acquire`` (nested lock
  acquisition under a held lock is the textbook deadlock shape)
* work dispatch — ``run_tasks`` / ``submit``

``Condition.wait`` is deliberately *not* in the list: waiting on a
condition built over the held lock releases it, which is the correct
version of that pattern.  Function *definitions* nested under
a lock are skipped — a closure defined under a lock does not run
there.

Lexical analysis cannot see every alias (a lock bound to a plain
local, a blocking call hidden behind a helper), so this rule is a
tripwire for the common shape, not a proof — the chaos suite still
probes the dynamic schedules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleInfo, Rule, register_rule

__all__ = ["LockBlockingRule"]

#: Method/function names that block (see module docstring for why).
BLOCKING_CALLS = frozenset(
    {
        "recv_bytes",
        "send_bytes",
        "poll",
        "fsync",
        "save",
        "checkpoint_all",
        "close",
        "close_all",
        "shutdown",
        "terminate",
        "kill",
        "join",
        "sleep",
        "acquire",
        "run_tasks",
        "submit",
    }
)

SCOPE = ("repro/serving/",)


def _lock_like(expr: ast.expr) -> bool:
    """Is this with-item expression a lock (or bounded-lock helper)?"""
    if isinstance(expr, ast.Call):
        # ``with entry.hold(deadline, clock):`` — the deadline-bounded
        # acquire of the per-session entry lock.
        func = expr.func
        return isinstance(func, ast.Attribute) and func.attr == "hold"
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    else:
        return False
    return name == "lock" or name.endswith("_lock")


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "LockBlockingRule", module: ModuleInfo):
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []
        self._held: list[str] = []  # descriptions of locks currently held

    # -- lock scope tracking -----------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        held = [
            ast.unparse(item.context_expr)
            for item in node.items
            if _lock_like(item.context_expr)
        ]
        self._held.extend(held)
        self.generic_visit(node)
        if held:
            del self._held[-len(held):]

    # A function defined under a lock does not *run* under it; analyse
    # its body as lock-free (it gets its own visit from the top level
    # of whatever scope it is called in — lexically, that is all we
    # can know).
    def _visit_scope(self, node: ast.AST) -> None:
        saved, self._held = self._held, []
        self.generic_visit(node)
        self._held = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node)

    # -- the check ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self._held:
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name in BLOCKING_CALLS:
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        f"blocking call {ast.unparse(func)}() while holding "
                        f"{self._held[-1]} — pop state under the lock, do the "
                        "blocking work after releasing it (the PR 4 eviction "
                        "race class)",
                    )
                )
        self.generic_visit(node)


@register_rule
class LockBlockingRule(Rule):
    name = "lock-blocking"
    description = (
        "no blocking operations (pipe I/O, fsync/save, close, join, sleep, "
        "nested acquire) lexically inside a with-lock block"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(*SCOPE):
            return
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        yield from visitor.findings
