"""Differential equivalence & invalidation suite for the first-pick cache.

The cache's contract is *bit-identity*: a search served cached level-1
marginals must return exactly — not approximately — the rule lists the
cold scan and the reference search return, across every weighting in
the fast family, near-tie tables, and mw edge values.  The lifecycle
half pins strict ``(table, weighting, mw)`` keying: a changed table
or a mismatched parameter must rebuild, never serve stale marginals.
The caches live in memory only; nothing here touches disk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BitsWeight,
    CallableWeight,
    Rule,
    STAR,
    SearchContext,
    SizeMinusOneWeight,
    SizeWeight,
    brs,
    find_best_marginal_rule,
    reference_brs,
    top_weights,
)
from repro.core.first_pick import FirstPickCache, build_first_pick_cache
from repro.serving.catalog import TableCatalog
from repro.session import DrillDownSession
from repro.table import Schema, Table
from tests.conftest import random_table

WEIGHTINGS = {
    "size": SizeWeight,
    "bits": None,  # built per-table below
    "size_minus_one": SizeMinusOneWeight,
}


def make_weight(name: str, table: Table):
    if name == "bits":
        return BitsWeight.for_table(table)
    return WEIGHTINGS[name]()


def picks_of(result):
    """The greedy selection as plain tuples for exact comparison."""
    return [(p.rule, p.weight, p.count, p.marginal) for p in result.picks]


def reference_picks(table, wf, k, mw):
    """:func:`picks_of` for the reference greedy."""
    return [(p.rule, p.weight, p.count, p.marginal) for p in reference_brs(table, wf, k, mw)]


def near_tie_table() -> Table:
    """Columns B and C are exact copies of A: every level-1 marginal
    ties exactly, so any tie-break drift between the cached heap-build
    and the cold scan shows up as a different rule list."""
    rows = [("a", "a", "a")] * 4 + [("b", "b", "b")] * 3 + [("c", "c", "c")] * 2
    return Table.from_rows(Schema.categorical(["A", "B", "C"]), rows)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighting", ["size", "bits", "size_minus_one"])
    @pytest.mark.parametrize("mw", [0.5, 3.0, 100.0])
    @pytest.mark.parametrize("oracle", ["incremental", "scratch"])
    def test_brs_bit_identical(self, seed, weighting, mw, oracle):
        """A cached run ≡ the engine's cold run (``incremental``) and ≡
        the reference greedy (``scratch``)."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_rows=40, n_columns=4, domain=4)
        wf = make_weight(weighting, table)
        cache = build_first_pick_cache(table, wf, mw)
        assert cache is not None
        warm = brs(table, wf, 3, mw, first_pick=cache)
        if oracle == "incremental":
            cold = brs(table, wf, 3, mw)
            assert picks_of(warm) == picks_of(cold)
            assert warm.rule_list.rules == cold.rule_list.rules
        else:
            assert picks_of(warm) == reference_picks(table, wf, 3, mw)
        assert cache.hits >= 1

    @pytest.mark.parametrize("oracle", ["incremental", "scratch"])
    def test_exact_ties_break_identically(self, oracle):
        table = near_tie_table()
        wf = SizeWeight()
        cache = build_first_pick_cache(table, wf, 3.0)
        warm = brs(table, wf, 4, 3.0, first_pick=cache)
        if oracle == "incremental":
            assert picks_of(warm) == picks_of(brs(table, wf, 4, 3.0))
        else:
            assert picks_of(warm) == reference_picks(table, wf, 4, 3.0)

    def test_first_pick_search_parity_and_hit(self, tiny_table):
        wf = SizeWeight()
        cache = build_first_pick_cache(tiny_table, wf, 3.0)
        top = np.zeros(tiny_table.n_rows)
        cold = find_best_marginal_rule(tiny_table, wf, top, 3.0)
        warm = SearchContext(tiny_table, wf, 3.0, first_pick=cache).find_best(top)
        assert (warm.rule, warm.weight, warm.count, warm.marginal) == (
            cold.rule, cold.weight, cold.count, cold.marginal
        )
        assert cache.hits == 1 and cache.misses == 0

    def test_nonzero_top_bypasses_cache(self, tiny_table):
        wf = SizeWeight()
        cache = build_first_pick_cache(tiny_table, wf, 3.0)
        top = top_weights([Rule(["a", "x", STAR])], tiny_table, wf)
        cold = find_best_marginal_rule(tiny_table, wf, top, 3.0)
        warm = SearchContext(tiny_table, wf, 3.0, first_pick=cache).find_best(top)
        assert (warm.rule, warm.marginal) == (cold.rule, cold.marginal)
        assert cache.hits == 0 and cache.misses >= 1

    def test_explicit_all_ones_measures_still_hit(self, tiny_table):
        # tuple_measures(table, None) materialises np.ones, so the
        # serving path always passes an explicit measures array; the
        # cache must accept it (identical kernel inputs) or it would
        # never fire in production.
        wf = SizeWeight()
        cache = build_first_pick_cache(tiny_table, wf, 3.0)
        ones = np.ones(tiny_table.n_rows)
        top = np.zeros(tiny_table.n_rows)
        warm = SearchContext(
            tiny_table, wf, 3.0, measures=ones, first_pick=cache
        ).find_best(top)
        cold = find_best_marginal_rule(tiny_table, wf, top, 3.0)
        assert (warm.rule, warm.marginal) == (cold.rule, cold.marginal)
        assert cache.hits == 1

    def test_real_measures_bypass_cache(self, measure_table):
        from repro.core import tuple_measures

        wf = SizeWeight()
        cache = build_first_pick_cache(measure_table, wf, 3.0)
        measures = tuple_measures(measure_table, "Sales")
        top = np.zeros(measure_table.n_rows)
        cold = find_best_marginal_rule(measure_table, wf, top, 3.0, measures=measures)
        warm = SearchContext(
            measure_table, wf, 3.0, measures=measures, first_pick=cache
        ).find_best(top)
        assert (warm.rule, warm.marginal) == (cold.rule, cold.marginal)
        assert cache.hits == 0 and cache.misses >= 1

    def test_mismatched_mw_bypasses_cache(self, tiny_table):
        wf = SizeWeight()
        cache = build_first_pick_cache(tiny_table, wf, 3.0)
        top = np.zeros(tiny_table.n_rows)
        warm = SearchContext(tiny_table, wf, 2.0, first_pick=cache).find_best(top)
        cold = find_best_marginal_rule(tiny_table, wf, top, 2.0)
        assert (warm.rule, warm.marginal) == (cold.rule, cold.marginal)
        assert cache.hits == 0 and cache.misses >= 1

    def test_foreign_wf_instance_bypasses_cache(self, tiny_table):
        cache = build_first_pick_cache(tiny_table, SizeWeight(), 3.0)
        assert not cache.matches(tiny_table, SizeWeight(), 3.0)

    def test_slow_path_weighting_builds_nothing(self, tiny_table):
        wf = CallableWeight(lambda rule: float(rule.size()))
        assert build_first_pick_cache(tiny_table, wf, 3.0) is None

    def test_no_categoricals_builds_nothing(self):
        table = Table.from_dict({"x": [1.0, 2.0, 3.0]})
        assert build_first_pick_cache(table, SizeWeight(), 3.0) is None


class TestSessionEquivalence:
    def transcript(self, table, wf, cache):
        out = []
        for op in ("expand", "star", "traditional"):
            session = DrillDownSession(table, wf=wf, k=3, mw=4.0, marginals=cache)
            try:
                root = session.root.rule
                if op == "expand":
                    children = [c.rule for c in session.expand(root)]
                    out.append(children)
                    if children:
                        # Drill one level deeper so a warmed (top != 0)
                        # search runs with the cache attached but not
                        # consumed.
                        out.append([c.rule for c in session.expand(children[0])])
                elif op == "star":
                    out.append([c.rule for c in session.expand_star(root, 0)])
                else:
                    out.append(
                        [c.rule for c in session.expand_traditional(root, 1)]
                    )
            finally:
                session.close()
        return out

    @pytest.mark.parametrize("seed", [0, 3])
    def test_expansions_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_rows=50, n_columns=4, domain=3)
        wf = SizeWeight()
        cache = build_first_pick_cache(table, wf, 4.0)
        assert self.transcript(table, wf, cache) == self.transcript(table, wf, None)
        assert cache.hits >= 1


class TestCatalogLifecycle:
    def make_table(self, seed=0):
        rng = np.random.default_rng(seed)
        return random_table(rng, n_rows=40, n_columns=3, domain=3)

    def test_register_builds_and_serves(self):
        table = self.make_table()
        catalog = TableCatalog(marginal_mw=3.0)
        try:
            registered = catalog.register("t", table)
            cache = catalog.marginals_for("t", "size", 3.0)
            assert cache is not None and cache.table is registered
            assert cache.wf is catalog.weight("size", registered)
            stats = catalog.marginal_stats()
            assert stats["built"] == 1
            assert "size" in stats["tables"]["t"]
        finally:
            catalog.close()

    def test_strict_keying(self):
        catalog = TableCatalog(marginal_mw=3.0)
        try:
            catalog.register("t", self.make_table())
            assert catalog.marginals_for("t", "size", 3.0) is not None
            assert catalog.marginals_for("t", "size", 2.0) is None
            assert catalog.marginals_for("t", "bits", 3.0) is None
            assert catalog.marginals_for("absent", "size", 3.0) is None
            # mw=None defers validation to the search's own matches().
            assert catalog.marginals_for("t", "size", None) is not None
        finally:
            catalog.close()

    def test_reregister_same_name_serves_new_table(self):
        catalog = TableCatalog(marginal_mw=3.0)
        try:
            catalog.register("t", self.make_table(seed=0))
            old = catalog.marginals_for("t", "size", 3.0)
            # Served tables are immutable under a name: replacing the
            # data goes through unregister + register.
            catalog.unregister("t")
            assert catalog.marginals_for("t", "size", 3.0) is None
            replacement = catalog.register("t", self.make_table(seed=5))
            fresh = catalog.marginals_for("t", "size", 3.0)
            assert fresh is not old and fresh.table is replacement
            # The old cache can no longer validate against the new table.
            wf = catalog.weight("size", replacement)
            assert not old.matches(replacement, wf, 3.0)
        finally:
            catalog.close()

    def test_tmp_litter_swept_at_construction(self, tmp_path):
        # Regression: SIGKILL mid-save leaves temp litter beside the
        # persisted files; one sweep clears it from the snapshot and the
        # sample directories, in both the old "<file>.tmp" and the
        # current "<file>.tmp-<pid>-<tid>" forms.
        from repro.serving import DrillDownServer

        sample_dir = tmp_path / "samples"
        sample_dir.mkdir()
        (sample_dir / "t.samples.json.tmp").write_text("partial")
        (sample_dir / "t.samples.json.tmp-7-7").write_text("partial")
        (tmp_path / "sess-000001.jsonl.tmp").write_text("partial")
        (tmp_path / "sess-000001.jsonl.tmp-7-7").write_text("partial")
        with DrillDownServer(
            persist_dir=tmp_path, marginal_mw=3.0, sample_budget=100
        ) as server:
            assert server.catalog.cleaned_tmp == 2
            assert server.store.cleaned_tmp == 2
            assert list(sample_dir.iterdir()) == []
            assert [p for p in tmp_path.iterdir() if p.is_file()] == []

    def test_unregister_drops_cache(self):
        catalog = TableCatalog(marginal_mw=3.0)
        try:
            catalog.register("t", self.make_table())
            assert catalog.marginals_for("t", "size", 3.0) is not None
            catalog.unregister("t")
            assert catalog.marginals_for("t", "size", 3.0) is None
        finally:
            catalog.close()

    def test_disabled_by_default(self):
        catalog = TableCatalog()
        try:
            catalog.register("t", self.make_table())
            assert catalog.marginals_for("t", "size", 3.0) is None
            assert catalog.marginal_stats()["mw"] is None
        finally:
            catalog.close()

    def test_memory_only_when_no_dir(self):
        catalog = TableCatalog(marginal_mw=3.0)
        try:
            catalog.register("t", self.make_table())
            assert catalog.marginals_for("t", "size", 3.0) is not None
            assert catalog.marginal_stats()["built"] == 1
        finally:
            catalog.close()


class TestServerIntegration:
    def test_first_expand_hits_and_stats(self, tmp_path):
        from repro.serving import DrillDownServer

        rng = np.random.default_rng(1)
        table = random_table(rng, n_rows=60, n_columns=4, domain=3)
        with DrillDownServer(marginal_mw=4.0) as server:
            server.register_table("t", table)
            sid = server.create_session("t", k=3, mw=4.0)
            server.expand(sid)
            stats = server.stats()["marginals"]
            assert stats["mw"] == 4.0
            counters = stats["tables"]["t"]["size"]
            assert counters["hits"] >= 1

    def test_cache_off_matches_cache_on(self):
        from repro.serving import DrillDownServer

        rng = np.random.default_rng(2)
        table = random_table(rng, n_rows=60, n_columns=4, domain=3)
        transcripts = []
        for enabled in (True, False):
            with DrillDownServer(marginal_cache=enabled, marginal_mw=4.0) as server:
                server.register_table("t", table)
                sid = server.create_session("t", k=3, mw=4.0)
                transcripts.append(server.render(sid))
        assert transcripts[0] == transcripts[1]
