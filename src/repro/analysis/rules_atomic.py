"""``atomic-writes`` — serving-tier file writes go through ``atomic_write``.

The durability promise of the snapshot and sample-set files is "a
crash mid-write leaves the previous file intact, never a torn one
under the real name".  It holds because both are written by one
function, :func:`repro.serving.persistence.atomic_write`: write to a
unique temporary sibling, ``flush`` + ``os.fsync`` the data, publish
with ``os.replace``, and best-effort fsync the directory.  A direct
``open(path, "w")`` into a persisted location bypasses all of it —
power loss can publish an empty or half-written file under the real
name, and the corrupt-file-skipping loaders then silently drop the
session or sample set it held.

Lexical check: in ``repro/serving/``, any write-mode ``open(...)``
(or ``Path.write_text`` / ``Path.write_bytes``) whose *enclosing
function* does not itself call both ``os.fsync`` and ``os.replace``
is flagged.  ``atomic_write`` is shaped that way — the tmp-open, the
fsync and the replace live in one function so the ``except:
tmp.unlink()`` cleanup can see them all.  A write-open anywhere else
should call ``atomic_write`` instead, or document itself as a genuine
one-off with a pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleInfo, Rule, register_rule

__all__ = ["AtomicWritesRule"]

SCOPE = ("repro/serving/",)

#: ``open`` mode characters that make a call a *write*.
_WRITE_MODE_CHARS = set("wxa+")


def _is_write_open(node: ast.Call, module: ModuleInfo) -> bool:
    target = module.resolve(node.func)
    if target in ("open", "io.open", "os.fdopen"):
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return bool(_WRITE_MODE_CHARS & set(mode.value))
        return mode is not None and not isinstance(mode, ast.Constant)
    if isinstance(node.func, ast.Attribute) and node.func.attr in (
        "write_text",
        "write_bytes",
    ):
        return True
    return False


def _atomic_functions(tree: ast.Module) -> set:
    """ids of function nodes that call both os.fsync and os.replace."""
    atomic = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        has_fsync = has_replace = False
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
                if call.func.attr == "fsync":
                    has_fsync = True
                elif call.func.attr == "replace":
                    has_replace = True
        if has_fsync and has_replace:
            atomic.add(id(node))
    return atomic


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: "AtomicWritesRule", module: ModuleInfo):
        self.rule = rule
        self.module = module
        self.atomic = _atomic_functions(module.tree)
        self.findings: list[Finding] = []
        self._inside_atomic = 0

    def _visit_function(self, node: ast.AST) -> None:
        is_atomic = id(node) in self.atomic
        self._inside_atomic += is_atomic
        self.generic_visit(node)
        self._inside_atomic -= is_atomic

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._inside_atomic and _is_write_open(node, self.module):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    "direct file write outside atomic_write — a crash here "
                    "can publish a torn file (call "
                    "repro.serving.persistence.atomic_write)",
                )
            )
        self.generic_visit(node)


@register_rule
class AtomicWritesRule(Rule):
    name = "atomic-writes"
    description = (
        "serving-tier file writes go through atomic_write (tmp, fsync, "
        "os.replace)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_package(*SCOPE):
            return
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        yield from visitor.findings
