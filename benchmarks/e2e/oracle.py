"""Output oracle: every reply checked against a standalone session.

The tier's contract is that catalogs, context stores, schedulers,
routers and codecs only change *where bytes live and when work runs*,
never which rules win.  So each logged session is replayed literally on
a plain :class:`~repro.session.DrillDownSession` over the same table
version (no pool, no context store, no marginal cache) and every reply
— children with rules, counts, weights and estimate metadata, rendered
text, tree — must be equal after one JSON round trip.

Replays are memoised per (table version, op-path prefix).  One oracle
session per table version is reused across paths by collapsing its
root: retained search contexts make the re-expansions cheap, and a
context-reuse bug would itself surface as a mismatch against the tier's
fresh contexts.
"""

from __future__ import annotations

import json

from repro.core.rule import Rule
from repro.serving.catalog import WEIGHT_FUNCTIONS
from repro.serving.http import node_to_wire, rule_from_wire, rule_to_wire
from repro.serving.samples import build_sample_set, derive_seed
from repro.session.session import DrillDownSession
from repro.table.table import Table

from workloads import APPEND_ROWS, Workload, append_batch


def _wire(payload) -> object:
    """``payload`` as the client would read it off the socket."""
    return json.loads(json.dumps(payload, default=str))


class Oracle:
    """Replays logged sessions and counts replies that differ."""

    def __init__(self, workload: Workload, seed: int, bases: dict[str, Table]):
        self.workload = workload
        self.seed = seed
        self._versions: dict[tuple[str, int], Table] = {
            (name, 1): table for name, table in bases.items()
        }
        self._sessions: dict[tuple[str, int], DrillDownSession] = {}
        self._memo: dict[tuple, list] = {}
        self.checked = 0
        self.mismatches: list[str] = []

    def table_version(self, name: str, version: int) -> Table:
        """Version ``version`` of ``name``: base + append batches ``1..version-1``."""
        key = (name, version)
        if key not in self._versions:
            previous = self.table_version(name, version - 1)
            batch = append_batch(self._versions[(name, 1)], name, self.seed, version - 1)
            self._versions[key] = previous.append_rows(batch)
        return self._versions[key]

    def _session(self, name: str, version: int) -> DrillDownSession:
        key = (name, version)
        session = self._sessions.get(key)
        if session is None:
            table = self.table_version(name, version)
            knobs = self.workload.session
            budget = self.workload.tier["kwargs"].get("sample_budget")
            samples = None
            if budget is not None:
                # What TableCatalog.register builds (sample_seed default 0).
                samples = build_sample_set(table, budget=budget, seed=derive_seed(name, 0))
            session = DrillDownSession(
                table, wf=WEIGHT_FUNCTIONS[knobs["wf"]](table), k=knobs["k"],
                mw=knobs["mw"], samples=samples,
            )
            self._sessions[key] = session
        return session

    def _replay(self, name: str, version: int, ops: list[dict]) -> list:
        """Expected replies for ``ops`` on a fresh session (memoised by prefix)."""
        path = tuple(
            (op["op"], tuple(op.get("rule") or ()), op.get("column")) for op in ops
        )
        known = self._memo.get((name, version, path))
        if known is not None:
            return known
        session = self._session(name, version)
        if session.root.children:
            session.collapse(session.root.rule)
        extra = self.workload.expand_extra
        n_columns = len(session.column_names)
        expected = []
        for op in ops:
            kind = op["op"]
            if kind in ("expand", "expand_star"):
                rule = rule_from_wire(op["rule"], n_columns)
                if kind == "expand":
                    children = session.expand(rule, **extra)
                else:
                    children = session.expand_star(rule, op["column"], **extra)
                reply = {"children": [node_to_wire(c) for c in children]}
            elif kind == "collapse":
                rule = rule_from_wire(op["rule"], n_columns)
                session.collapse(rule)
                reply = {"collapsed": rule_to_wire(rule)}
            elif kind == "tree":
                reply = {"tree": node_to_wire(session.root, deep=True)}
            else:
                reply = {"text": session.to_text()}
            expected.append(_wire(reply))
        for length in range(1, len(path) + 1):
            self._memo.setdefault((name, version, path[:length]), expected[:length])
        return expected

    def check_session(self, log: dict) -> int:
        """Mismatching replies in one logged session (0 = all equal)."""
        name = log["table"]
        if "root" not in log:
            return 0  # create itself failed; already counted as a failed request
        base_rows = self._versions[(name, 1)].n_rows
        extra_rows = int(log["root"]["count"]) - base_rows
        bad = 0
        if extra_rows % APPEND_ROWS or log["root"]["rule"] != rule_to_wire(
            Rule.trivial(len(log["root"]["rule"]))
        ):
            self.mismatches.append(f"{name}: unexpected session root {log['root']}")
            return 1
        version = 1 + extra_rows // APPEND_ROWS
        expected = self._replay(name, version, log["ops"])
        for op, want in zip(log["ops"], expected):
            self.checked += 1
            if op["reply"] != want:
                bad += 1
                self.mismatches.append(
                    f"{name} v{version} {op['op']} {op.get('rule')}: "
                    f"got {op['reply']} want {want}"
                )
        return bad

    def check_append(self, log: dict) -> int:
        """An append reply must name the next version with 200 more rows."""
        self.checked += 1
        base_rows = self._versions[(log["table"], 1)].n_rows
        reply = log["reply"]
        want = {"version": log["batch_no"] + 1, "appended": APPEND_ROWS,
                "rows": base_rows + APPEND_ROWS * log["batch_no"]}
        if any(reply.get(key) != value for key, value in want.items()):
            self.mismatches.append(f"append to {log['table']}: got {reply} want {want}")
            return 1
        return 0

    def close(self) -> None:
        for session in self._sessions.values():
            session.close()
