"""What a process imports, checked by module name in a fresh interpreter.

``scipy.stats`` and ``scipy.optimize`` once rode on ``import repro`` for
one ``norm.ppf`` and one ``linprog`` call: ~1 s and ~60 MiB paid by the
launcher, every ``spawn``-ed recovery shard, every CLI and every test
subprocess.  The rule (``docs/ARCHITECTURE.md``): heavy third-party
imports live in the function that needs them, and a tier configured for
approximate serving pre-loads ``scipy.special`` at catalog construction
so that no analyst's click pays for it.  The same check keeps a
worker pool's shared memory and process executor off the serving path.
Module names only — never seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import sys

def scipy_modules():
    return {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}

def heavy():
    return sorted(m for m in scipy_modules()
                  if m.startswith(("scipy.stats", "scipy.optimize")))

import repro
import repro.serving.http, repro.serving.router, repro.serving.shard
assert heavy() == [], heavy()
assert "scipy.special" not in sys.modules  # exact-only tiers never load it
"""


def run_fresh(body: str, prelude: str = PRELUDE) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", prelude + body],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_serving_tier_imports_no_scipy_stats_or_optimize():
    run_fresh("""
from repro.serving.catalog import TableCatalog
TableCatalog().close()
assert "scipy.special" not in sys.modules
TableCatalog(sample_budget=100).close()
assert "scipy.special" in sys.modules
assert heavy() == [], heavy()

# The deferred imports still resolve from this same interpreter.
import numpy as np
from repro.core import Rule
from repro.datasets import generate_zipf_table
from repro.sampling import (
    GroupSpec, LeafSpec, Sample, estimate_count, problem_from_groups, solve_lp,
)
table = generate_zipf_table(400, [4], skew=0.8, seed=1)
idx = np.arange(0, 400, 4, dtype=np.int64)
sample = Sample(Rule.trivial(1), 4.0, table.take(idx), idx, table.n_rows)
est = estimate_count(sample, Rule(["c0_v0"]))
assert est.low < est.estimate < est.high
assert [m for m in heavy() if m.startswith("scipy.stats")] == []
group = GroupSpec("p", (LeafSpec("a", 0.6, 0.5), LeafSpec("b", 0.4, 0.25)))
result = solve_lp(problem_from_groups([group], 100, 20))
assert 0.0 < result.objective <= 1.0 + 1e-9
assert "scipy.optimize" in sys.modules  # loaded by the call, not before it
""")


def test_serving_an_expand_loads_no_process_pool_or_shared_memory():
    """Counting runs in the request's own process: serving a table and
    an expand must not load the machinery of a worker pool."""
    run_fresh("""
from repro.core import Rule
from repro.datasets import generate_zipf_table
from repro.serving import DrillDownServer
table = generate_zipf_table(2000, [4, 5, 3], skew=0.9, seed=2)
server = DrillDownServer()
server.register_table("t", table)
sid = server.create_session("t")
assert server.expand(sid, Rule.trivial(3))
server.close()
pool_modules = {"multiprocessing.shared_memory", "concurrent.futures.process"}
assert not pool_modules & set(sys.modules), sorted(pool_modules & set(sys.modules))
""")


def test_first_approximate_expand_imports_nothing_from_scipy():
    run_fresh("""
from repro.core import Rule
from repro.datasets import generate_zipf_table
from repro.serving import DrillDownServer
table = generate_zipf_table(2000, [4, 5, 3], skew=0.9, seed=2)
with DrillDownServer(sample_budget=200, default_approx=True) as server:
    server.register_table("t", table)
    sid = server.create_session("t")
    before = scipy_modules()
    assert "scipy.special" in before
    children = server.expand(sid, Rule.trivial(3))
    assert children and all(c.estimate is not None for c in children)
    assert scipy_modules() == before, sorted(scipy_modules() - before)
assert heavy() == [], heavy()
""")


def test_session_layer_imports_nothing_from_serving():
    """The codec sits below the session layer: a session (and the
    internal JSON form it writes) needs no serving module."""
    run_fresh("""
import sys
import repro.session
serving = sorted(m for m in sys.modules if m.startswith("repro.serving"))
assert serving == [], serving
""", prelude="")
