"""Removed options are gone from every layer, with no shim.

Counting runs in one place, in the caller's process, so no entry point
takes a worker count, a pool, or a pool-scheduler tenant label any
more.  One engine serves every search, so nothing takes an ``engine``
selector.  The level-2 pair cache is gone, and with it every knob
that sized it; so is the level-1 first-pick cache, with the
``first_pick``/``marginals`` seams that threaded it into a search and
the ``marginal_cache``/``marginal_mw`` knobs that built it.
Settings that only ever took one value are module constants now
(``VIRTUAL_NODES``, ``PROBE_TIMEOUT``, ``RETRY_BACKOFF``,
``START_TIMEOUT``), and the router reads a pipe op's deadline class
from ``OPS`` instead of a ``use_default`` flag.  Each case asserts the
keyword is absent from the signature and
that the callable swallows no unknown keywords either, so passing one
is a ``TypeError`` rather than a silently ignored option.
``DrillDownSession`` keeps its own ``tenant``: that one is an opaque
label the session carries in its snapshot, not a pool label.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core import (
    SearchContext,
    brs,
    brs_iter,
    brs_time_limited,
    find_best_marginal_rule,
    rule_drilldown,
    star_drilldown,
)
from repro.core.first_pick import build_first_pick_cache, extend_first_pick_cache
from repro.serving import ContextStore, DrillDownServer, ShardRouter, TableCatalog
from repro.serving.http import main as http_main
from repro.serving.shard import ShardProcess
from repro.session import DrillDownSession

REMOVED = [
    (brs, "n_workers"),
    (brs, "pool"),
    (brs_iter, "n_workers"),
    (brs_iter, "pool"),
    (brs_time_limited, "n_workers"),
    (brs_time_limited, "pool"),
    (find_best_marginal_rule, "n_workers"),
    (find_best_marginal_rule, "pool"),
    (rule_drilldown, "n_workers"),
    (rule_drilldown, "pool"),
    (rule_drilldown, "tenant"),
    (star_drilldown, "n_workers"),
    (star_drilldown, "pool"),
    (star_drilldown, "tenant"),
    (SearchContext, "n_workers"),
    (SearchContext, "pool"),
    (SearchContext, "tenant"),
    (SearchContext.clone, "pool"),
    (SearchContext.clone, "tenant"),
    (DrillDownSession, "n_workers"),
    (DrillDownSession, "pool"),
    (TableCatalog, "n_workers"),
    (TableCatalog, "pool"),
    (DrillDownServer, "n_workers"),
    (DrillDownServer, "pool"),
    (ShardRouter, "n_workers"),
    (ContextStore.lease, "pool"),
    (ContextStore.lease, "tenant"),
    (brs, "engine"),
    (brs_iter, "engine"),
    (brs_time_limited, "engine"),
    (rule_drilldown, "engine"),
    (star_drilldown, "engine"),
    (find_best_marginal_rule, "first_pick"),
    (DrillDownServer, "marginal_pairs"),
    (ShardRouter, "marginal_pairs"),
    (TableCatalog, "marginal_pairs"),
    (TableCatalog, "marginal_pair_threshold"),
    (build_first_pick_cache, "pair_limit"),
    (build_first_pick_cache, "pair_threshold"),
    (extend_first_pick_cache, "pair_limit"),
    (extend_first_pick_cache, "pair_threshold"),
    (DrillDownServer, "marginal_weightings"),
    (ShardRouter, "marginal_weightings"),
    (TableCatalog, "marginal_weightings"),
    (SearchContext, "first_pick"),
    (brs, "first_pick"),
    (brs_iter, "first_pick"),
    (brs_time_limited, "first_pick"),
    (rule_drilldown, "first_pick"),
    (star_drilldown, "first_pick"),
    (DrillDownSession, "marginals"),
    (TableCatalog, "marginal_mw"),
    (DrillDownServer, "marginal_cache"),
    (DrillDownServer, "marginal_mw"),
    (ShardRouter, "marginal_cache"),
    (ShardRouter, "marginal_mw"),
    (ShardRouter, "virtual_nodes"),
    (ShardRouter, "retry_backoff"),
    (ShardRouter, "probe_timeout"),
    (ShardRouter, "start_timeout"),
    (ShardProcess, "start_timeout"),
    (ShardRouter._request, "use_default"),
]


@pytest.mark.parametrize(
    "target, keyword",
    REMOVED,
    ids=[f"{target.__qualname__}-{keyword}" for target, keyword in REMOVED],
)
def test_keyword_is_gone(target, keyword):
    parameters = inspect.signature(target).parameters
    assert keyword not in parameters
    assert all(p.kind is not inspect.Parameter.VAR_KEYWORD for p in parameters.values())


def test_session_keeps_its_own_tenant():
    assert "tenant" in inspect.signature(DrillDownSession).parameters


def test_http_cli_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        http_main(["--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--marginal-pairs", "8"], ["--no-marginal-cache"], ["--marginal-mw", "5"]]
)
def test_http_cli_has_no_marginal_cache_flags(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        http_main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
