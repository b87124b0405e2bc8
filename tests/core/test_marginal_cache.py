"""Differential equivalence & invalidation suite for the first-pick cache.

The cache's contract is *bit-identity*: a search served cached level-1
marginals must return exactly — not approximately — the rule lists the
cold scan and the reference search return, across every weighting in
the fast family, near-tie tables, and mw edge values.  The lifecycle
half pins strict ``(table fingerprint, weighting, mw)`` keying: a
changed table, a corrupt file, or a mismatched parameter must rebuild,
never serve stale marginals.
"""

from __future__ import annotations

import json

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
from repro.serving.marginals import (
    load_first_pick,
    save_first_pick,
    table_fingerprint,
)
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


class TestPersistenceRoundTrip:
    def test_save_load_bit_identical(self, tiny_table, tmp_path):
        wf = SizeWeight()
        built = build_first_pick_cache(tiny_table, wf, 3.0)
        fp = table_fingerprint(tiny_table)
        path = tmp_path / "t.size.marginals.json"
        save_first_pick(built, path, fingerprint=fp, weighting="size")
        loaded = load_first_pick(
            path, tiny_table, wf, 3.0, fingerprint=fp, weighting="size"
        )
        assert loaded is not None
        for a, b in zip(built.entries, loaded.entries):
            assert a[0] == b[0]
            for x, y in zip(a[1:], b[1:]):
                assert np.array_equal(x, y)
        cold = brs(tiny_table, wf, 3, 3.0)
        warm = brs(tiny_table, wf, 3, 3.0, first_pick=loaded)
        assert picks_of(warm) == picks_of(cold)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mw": 4.0},
            {"fingerprint": "not-the-fingerprint"},
            {"weighting": "bits"},
        ],
    )
    def test_mismatch_rejected(self, tiny_table, tmp_path, kwargs):
        wf = SizeWeight()
        built = build_first_pick_cache(tiny_table, wf, 3.0)
        fp = table_fingerprint(tiny_table)
        path = tmp_path / "t.size.marginals.json"
        save_first_pick(built, path, fingerprint=fp, weighting="size")
        load_kwargs = dict(fingerprint=fp, weighting="size")
        mw = kwargs.pop("mw", 3.0)
        load_kwargs.update(kwargs)
        assert load_first_pick(path, tiny_table, wf, mw, **load_kwargs) is None

    def test_corrupt_file_returns_none(self, tiny_table, tmp_path):
        path = tmp_path / "t.size.marginals.json"
        path.write_text("{not json", encoding="utf-8")
        assert (
            load_first_pick(
                path, tiny_table, SizeWeight(), 3.0,
                fingerprint=table_fingerprint(tiny_table), weighting="size",
            )
            is None
        )

    def test_out_of_range_codes_rejected(self, tiny_table, tmp_path):
        wf = SizeWeight()
        built = build_first_pick_cache(tiny_table, wf, 3.0)
        fp = table_fingerprint(tiny_table)
        path = tmp_path / "t.size.marginals.json"
        save_first_pick(built, path, fingerprint=fp, weighting="size")
        payload = json.loads(path.read_text())
        payload["entries"][0]["supported"] = [99] * len(
            payload["entries"][0]["supported"]
        )
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert (
            load_first_pick(path, tiny_table, wf, 3.0, fingerprint=fp, weighting="size")
            is None
        )

    def test_tampered_weight_rejected(self, tiny_table, tmp_path):
        """The fingerprint names the weighting but not its definition, so
        a file whose weight disagrees with the live weighting (tampered,
        or written under a changed definition) must not be served."""
        wf = SizeWeight()
        built = build_first_pick_cache(tiny_table, wf, 3.0)
        fp = table_fingerprint(tiny_table)
        path = tmp_path / "t.size.marginals.json"
        save_first_pick(built, path, fingerprint=fp, weighting="size")
        payload = json.loads(path.read_text())
        payload["entries"][1]["weight"] = 2.0
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert (
            load_first_pick(path, tiny_table, wf, 3.0, fingerprint=fp, weighting="size")
            is None
        )

    def test_missing_file_returns_none(self, tiny_table, tmp_path):
        assert (
            load_first_pick(
                tmp_path / "absent.json", tiny_table, SizeWeight(), 3.0,
                fingerprint="x", weighting="size",
            )
            is None
        )

    def test_interrupted_save_leaves_no_litter(self, tiny_table, tmp_path, monkeypatch):
        import os as os_module

        wf = SizeWeight()
        built = build_first_pick_cache(tiny_table, wf, 3.0)
        path = tmp_path / "t.size.marginals.json"

        def boom(*args, **kwargs):
            raise OSError("disk detached")

        monkeypatch.setattr(os_module, "replace", boom)
        with pytest.raises(OSError):
            save_first_pick(built, path, fingerprint="fp", weighting="size")
        # The failed publish removed its temp file and the final path
        # never appeared — readers can't observe a half-written cache.
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_fingerprint_tracks_content_not_name(self, tiny_table):
        rows = [("a", "x", "p")] * tiny_table.n_rows
        same_shape = Table.from_rows(Schema.categorical(["A", "B", "C"]), rows)
        assert table_fingerprint(tiny_table) != table_fingerprint(same_shape)
        clone = Table.from_rows(
            Schema.categorical(["A", "B", "C"]),
            [tuple(tiny_table.row(i)) for i in range(tiny_table.n_rows)],
        )
        assert table_fingerprint(tiny_table) == table_fingerprint(clone)


class TestCatalogLifecycle:
    def make_table(self, seed=0):
        rng = np.random.default_rng(seed)
        return random_table(rng, n_rows=40, n_columns=3, domain=3)

    def test_register_builds_and_serves(self, tmp_path):
        table = self.make_table()
        catalog = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
        try:
            registered = catalog.register("t", table)
            cache = catalog.marginals_for("t", "size", 3.0)
            assert cache is not None and cache.table is registered
            assert cache.wf is catalog.weight("size", registered)
            stats = catalog.marginal_stats()
            assert stats["built"] == 1 and stats["loaded"] == 0
            assert "size" in stats["tables"]["t"]
        finally:
            catalog.close()

    def test_strict_keying(self, tmp_path):
        catalog = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
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

    def test_warm_restart_loads_identical_arrays(self, tmp_path):
        table = self.make_table()
        first = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
        first.register("t", table)
        built = first.marginals_for("t", "size", 3.0)
        first.close()

        second = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
        try:
            registered = second.register("t", self.make_table())
            stats = second.marginal_stats()
            assert stats["loaded"] == 1 and stats["built"] == 0
            loaded = second.marginals_for("t", "size", 3.0)
            for a, b in zip(built.entries, loaded.entries):
                assert a[0] == b[0]
                for x, y in zip(a[1:], b[1:]):
                    assert np.array_equal(x, y)
            wf = second.weight("size", registered)
            cold = brs(registered, wf, 3, 3.0)
            warm = brs(registered, wf, 3, 3.0, first_pick=loaded)
            assert picks_of(warm) == picks_of(cold)
        finally:
            second.close()

    def test_changed_table_rejects_stale_file(self, tmp_path):
        first = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
        first.register("t", self.make_table(seed=0))
        first.close()

        changed = self.make_table(seed=99)
        second = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
        try:
            registered = second.register("t", changed)
            stats = second.marginal_stats()
            # The stale file's fingerprint disagrees: rejected, rebuilt.
            assert stats["rejected"] == 1 and stats["built"] == 1
            cache = second.marginals_for("t", "size", 3.0)
            assert cache is not None and cache.table is registered
        finally:
            second.close()

    def test_reregister_same_name_serves_new_table(self, tmp_path):
        catalog = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
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

    def test_corrupt_file_counted_and_rebuilt(self, tmp_path):
        first = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
        first.register("t", self.make_table())
        first.close()
        for path in tmp_path.glob("*.marginals.json"):
            path.write_text("garbage", encoding="utf-8")

        second = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
        try:
            second.register("t", self.make_table())
            stats = second.marginal_stats()
            assert stats["rejected"] == 1 and stats["built"] == 1
            assert second.marginals_for("t", "size", 3.0) is not None
        finally:
            second.close()

    def test_tampered_weight_counted_and_rebuilt(self, tmp_path):
        first = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
        first.register("t", self.make_table())
        first.close()
        for path in tmp_path.glob("*.marginals.json"):
            payload = json.loads(path.read_text())
            payload["entries"][0]["weight"] = 7.0
            path.write_text(json.dumps(payload), encoding="utf-8")

        second = TableCatalog(marginal_mw=3.0, marginal_dir=tmp_path)
        try:
            registered = second.register("t", self.make_table())
            stats = second.marginal_stats()
            assert stats["rejected"] == 1 and stats["built"] == 1
            served = second.marginals_for("t", "size", 3.0)
            rebuilt = build_first_pick_cache(registered, served.wf, 3.0)
            assert [e[0] for e in served.entries] == [1.0] * registered.n_columns
            for a, b in zip(served.entries, rebuilt.entries):
                assert a[0] == b[0]
                for x, y in zip(a[1:], b[1:]):
                    assert np.array_equal(x, y)
        finally:
            second.close()

    def test_tmp_litter_swept_at_construction(self, tmp_path):
        # Regression: SIGKILL mid-save leaves "<file>.tmp" in the
        # marginals directory; before the sweep covered it, the litter
        # accumulated forever.
        marginal_dir = tmp_path / "marginals"
        sample_dir = tmp_path / "samples"
        marginal_dir.mkdir()
        sample_dir.mkdir()
        (marginal_dir / "t.size.marginals.json.tmp").write_text("partial")
        (sample_dir / "t.samples.json.tmp").write_text("partial")
        catalog = TableCatalog(
            marginal_mw=3.0, marginal_dir=marginal_dir,
            sample_budget=100, sample_dir=sample_dir,
        )
        try:
            assert catalog.cleaned_tmp == 2
            assert list(marginal_dir.glob("*.tmp")) == []
            assert list(sample_dir.glob("*.tmp")) == []
        finally:
            catalog.close()

    def test_unregister_drops_cache(self, tmp_path):
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
