"""Names kept only because the frozen end-to-end benchmark uses them.

``benchmarks/e2e`` is never edited, so every name it imports, wraps or
reads must keep existing even where nothing served calls it any more.
This test imports each one, and keeps the reference search off the
served path: no serving, session or engine module may call
``find_best_marginal_rule``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.marginal import find_best_marginal_rule
from repro.core.parallel import CountingBackend, CountingPool, count_extensions_kernel
from repro.core.rule import STAR
from repro.serving.catalog import TableCatalog
from repro.serving.http import node_to_wire, rule_from_wire, rule_to_wire
from repro.serving.scheduler import FairScheduler
from repro.serving.shard import decode_node, encode_node
from repro.session import DrillDownSession

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SERVED = [
    *sorted((SRC / "serving").rglob("*.py")),
    *sorted((SRC / "session").rglob("*.py")),
    SRC / "core" / "brs.py",
    SRC / "core" / "drilldown.py",
    SRC / "core" / "search_cache.py",
]


def test_benchmark_names_exist(tiny_table):
    assert callable(find_best_marginal_rule)
    assert callable(FairScheduler.dispatch_turn)
    with CountingPool(2) as pool:
        backend = pool.backend_for(tiny_table)
    assert isinstance(backend, CountingBackend)
    codes = tiny_table.categorical_code_arrays()[0]
    ones = np.ones(tiny_table.n_rows)
    supported, counts, _marginals = count_extensions_kernel(
        codes, ones, np.zeros(tiny_table.n_rows), None, 2, 1.0
    )
    assert counts.sum() == tiny_table.n_rows and supported.size == 2
    catalog = TableCatalog()
    try:
        assert catalog.version_stats()["exports_grown"] == 0
    finally:
        catalog.close()


def test_benchmark_codecs_round_trip(tiny_table):
    session = DrillDownSession(tiny_table, k=2, mw=1.0)
    session.expand(session.root.rule)
    root = decode_node(encode_node(session.root))
    assert node_to_wire(root, deep=True) == node_to_wire(session.root, deep=True)
    rule = session.root.children[0].rule
    assert STAR in tuple(rule)
    assert rule_from_wire(rule_to_wire(rule), tiny_table.n_columns) == rule


def test_reference_search_is_off_the_served_path():
    assert len(SERVED) > 5
    for path in SERVED:
        assert "find_best_marginal_rule" not in path.read_text(encoding="utf-8"), path
