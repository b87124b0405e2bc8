"""Approximate drill-down through the serving tier (ISSUE 7 tentpole).

Covers the knobs and plumbing the statistical suites take for granted:
catalog-time sample building/persistence, server-level defaults and
validation, estimate metadata over snapshots and HTTP, and the
byte-identity guarantee that exact responses carry no ``estimate`` key
anywhere — wire, snapshot, or JSON.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.rule import STAR, Rule, cover_mask
from repro.errors import ServingError, SessionError
from repro.serving import DrillDownServer, TableCatalog, build_sample_set, derive_seed
from repro.serving.http import serve
from repro.codec import decode_rule
from repro.serving.persistence import sweep_tmp
from repro.serving.samples import load_sample_set, table_fingerprint
from repro.session import DrillDownSession
from repro.table import Schema, Table
from tests.conftest import random_table

ESTIMATE_KEYS = {
    "estimate", "low", "high", "confidence", "sample_size", "scale", "escalated", "exact",
}


@pytest.fixture
def table():
    return random_table(np.random.default_rng(7), n_rows=300, n_columns=3, domain=4)


class TestCatalogSamples:
    def test_register_builds_samples_deterministically(self, table):
        with TableCatalog(sample_budget=90) as catalog:
            catalog.register("t", table)
            samples = catalog.samples_for("t")
            assert samples is not None
            assert samples.memory_tuples() <= 90
            expected = build_sample_set(table, budget=90, seed=derive_seed("t", 0))
            assert np.array_equal(samples.uniform.row_ids, expected.uniform.row_ids)
            stats = catalog.sample_stats()
            assert stats == {
                "budget": 90,
                "built": 1,
                "loaded": 0,
                "lazy_rebuilt": 0,
                "stale": [],
                "tables": {"t": samples.describe()},
            }

    def test_no_budget_means_no_samples(self, table):
        with TableCatalog() as catalog:
            catalog.register("t", table)
            assert catalog.samples_for("t") is None
            assert catalog.sample_stats()["budget"] is None

    def test_bad_budget_rejected(self):
        with pytest.raises(ServingError):
            TableCatalog(sample_budget=0)

    def test_persisted_samples_reload_without_rebuild(self, tmp_path, table):
        with TableCatalog(sample_budget=90, sample_dir=tmp_path) as catalog:
            catalog.register("t", table)
            first = catalog.samples_for("t")
            assert catalog.sample_stats()["built"] == 1
        assert list(tmp_path.glob("*.samples.json"))
        with TableCatalog(sample_budget=90, sample_dir=tmp_path) as revived:
            revived.register("t", table)
            stats = revived.sample_stats()
            assert (stats["built"], stats["loaded"]) == (0, 1)
            second = revived.samples_for("t")
            assert np.array_equal(first.uniform.row_ids, second.uniform.row_ids)
            for filt, stratum in first.strata.items():
                assert np.array_equal(stratum.row_ids, second.strata[filt].row_ids)

    def test_changed_budget_triggers_rebuild(self, tmp_path, table):
        with TableCatalog(sample_budget=90, sample_dir=tmp_path) as catalog:
            catalog.register("t", table)
        with TableCatalog(sample_budget=91, sample_dir=tmp_path) as revived:
            revived.register("t", table)
            stats = revived.sample_stats()
            assert (stats["built"], stats["loaded"]) == (1, 0)

    def test_same_shape_reregister_rebuilds_strata(self, tmp_path):
        """A different table of the same shape under the same name must
        not be served the first table's persisted strata."""
        first = random_table(np.random.default_rng(1), n_rows=300, n_columns=3, domain=4)
        second = random_table(np.random.default_rng(2), n_rows=300, n_columns=3, domain=4)
        with TableCatalog(sample_budget=90, sample_dir=tmp_path) as catalog:
            catalog.register("t", first)
        with TableCatalog(sample_budget=90, sample_dir=tmp_path) as revived:
            revived.register("t", second)
            stats = revived.sample_stats()
            assert (stats["built"], stats["loaded"]) == (1, 0)
            samples = revived.samples_for("t")
            assert samples.strata
            for filt, stratum in samples.strata.items():
                assert cover_mask(filt, second)[stratum.row_ids].all()

    def test_fingerprint_tracks_content_not_name(self, tiny_table):
        rows = [("a", "x", "p")] * tiny_table.n_rows
        same_shape = Table.from_rows(Schema.categorical(["A", "B", "C"]), rows)
        assert table_fingerprint(tiny_table) != table_fingerprint(same_shape)
        clone = Table.from_rows(
            Schema.categorical(["A", "B", "C"]),
            [tuple(tiny_table.row(i)) for i in range(tiny_table.n_rows)],
        )
        assert table_fingerprint(tiny_table) == table_fingerprint(clone)

    def test_unregister_drops_samples(self, table):
        with TableCatalog(sample_budget=90) as catalog:
            catalog.register("t", table)
            catalog.unregister("t")
            assert catalog.samples_for("t") is None


def _saved_samples(table, path, *, budget=90, seed=3):
    built = build_sample_set(table, budget=budget, seed=seed)
    built.save(path)
    return built


def _rewrite(path, edit):
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestSampleFileRoundTrip:
    """``TableSampleSet.save`` / ``load_sample_set``: a file is served
    only when every recorded fact still holds for the live table."""

    def test_save_load_bit_identical(self, tmp_path, table):
        path = tmp_path / "t.samples.json"
        built = _saved_samples(table, path)
        loaded = load_sample_set(path, table, budget=90, seed=3)
        assert loaded is not None
        assert loaded.describe() == built.describe()
        assert np.array_equal(loaded.uniform.row_ids, built.uniform.row_ids)
        assert loaded.strata.keys() == built.strata.keys()
        for filt, stratum in built.strata.items():
            assert np.array_equal(loaded.strata[filt].row_ids, stratum.row_ids)
            assert loaded.strata[filt].population == stratum.population

    @pytest.mark.parametrize(
        "knobs, edit",
        [
            ({"budget": 91}, None),
            ({"seed": 4}, None),
            ({}, lambda p: p.update(version=1)),
            ({}, lambda p: p.update(fingerprint="0" * 40)),
        ],
        ids=["budget", "seed", "version", "fingerprint"],
    )
    def test_mismatch_rejected(self, tmp_path, table, knobs, edit):
        path = tmp_path / "t.samples.json"
        _saved_samples(table, path)
        if edit is not None:
            _rewrite(path, edit)
        load_knobs = {"budget": 90, "seed": 3, **knobs}
        assert load_sample_set(path, table, **load_knobs) is None

    def test_corrupt_file_returns_none(self, tmp_path, table):
        path = tmp_path / "t.samples.json"
        path.write_text("{not json", encoding="utf-8")
        assert load_sample_set(path, table, budget=90, seed=3) is None

    def test_missing_file_returns_none(self, tmp_path, table):
        assert load_sample_set(tmp_path / "absent.json", table, budget=90, seed=3) is None

    @pytest.mark.parametrize("bad_row", [-1, 300], ids=["negative", "past-end"])
    def test_out_of_range_row_ids_rejected(self, tmp_path, table, bad_row):
        path = tmp_path / "t.samples.json"
        _saved_samples(table, path)
        _rewrite(path, lambda p: p["samples"][0]["row_ids"].__setitem__(0, bad_row))
        assert load_sample_set(path, table, budget=90, seed=3) is None

    def test_population_below_sample_size_rejected(self, tmp_path, table):
        path = tmp_path / "t.samples.json"
        _saved_samples(table, path)

        def shrink(payload):
            record = payload["samples"][0]
            record["population"] = len(record["row_ids"]) - 1

        _rewrite(path, shrink)
        assert load_sample_set(path, table, budget=90, seed=3) is None

    def test_file_without_uniform_sample_rejected(self, tmp_path, table):
        path = tmp_path / "t.samples.json"
        _saved_samples(table, path)

        def drop_uniform(payload):
            payload["samples"] = [
                r for r in payload["samples"] if not decode_rule(r["filter"]).is_trivial
            ]
            assert payload["samples"]

        _rewrite(path, drop_uniform)
        assert load_sample_set(path, table, budget=90, seed=3) is None

    def test_corrupt_file_rebuilt_and_rewritten_by_catalog(self, tmp_path, table):
        with TableCatalog(sample_budget=90, sample_dir=tmp_path) as catalog:
            catalog.register("t", table)
        (path,) = tmp_path.glob("*.samples.json")
        path.write_text("{not json", encoding="utf-8")
        with TableCatalog(sample_budget=90, sample_dir=tmp_path) as revived:
            revived.register("t", table)
            stats = revived.sample_stats()
            assert (stats["built"], stats["loaded"]) == (1, 0)
        with TableCatalog(sample_budget=90, sample_dir=tmp_path) as third:
            third.register("t", table)
            stats = third.sample_stats()
            assert (stats["built"], stats["loaded"]) == (0, 1)

    def test_sweep_tmp_removes_only_unpublished_litter(self, tmp_path, table):
        path = tmp_path / "t.samples.json"
        _saved_samples(table, path)
        (tmp_path / "t.samples.json.tmp").write_text("x", encoding="utf-8")
        (tmp_path / "t.samples.json.tmp-12-34").write_text("x", encoding="utf-8")
        assert sweep_tmp(tmp_path) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.samples.json"]
        assert load_sample_set(path, table, budget=90, seed=3) is not None

    def test_sweep_tmp_without_directory_is_a_no_op(self, tmp_path):
        assert sweep_tmp(None) == 0
        assert sweep_tmp(tmp_path / "absent") == 0

    def test_tmp_litter_swept_at_construction(self, tmp_path):
        # Regression: SIGKILL mid-save leaves temp litter beside the
        # persisted files; one sweep clears it from the snapshot and the
        # sample directories, in both the old "<file>.tmp" and the
        # current "<file>.tmp-<pid>-<tid>" forms.
        sample_dir = tmp_path / "samples"
        sample_dir.mkdir()
        (sample_dir / "t.samples.json.tmp").write_text("partial")
        (sample_dir / "t.samples.json.tmp-7-7").write_text("partial")
        (tmp_path / "sess-000001.jsonl.tmp").write_text("partial")
        (tmp_path / "sess-000001.jsonl.tmp-7-7").write_text("partial")
        with DrillDownServer(persist_dir=tmp_path, sample_budget=100) as server:
            assert server.catalog.cleaned_tmp == 2
            assert server.store.cleaned_tmp == 2
            assert list(sample_dir.iterdir()) == []
            assert [p for p in tmp_path.iterdir() if p.is_file()] == []


class TestServerKnobs:
    def test_default_approx_requires_budget(self):
        with pytest.raises(ServingError):
            DrillDownServer(default_approx=True)

    def test_bad_error_target_rejected(self):
        with pytest.raises(ServingError):
            DrillDownServer(default_error_target=0.0)

    def test_approx_without_samples_is_a_session_error(self, table):
        with DrillDownServer() as server:
            server.register_table("t", table)
            sid = server.create_session("t")
            with pytest.raises(SessionError):
                server.expand(sid, Rule.trivial(3), approx=True)

    def test_default_approx_mines_samples_and_opt_out_is_exact(self, table):
        with DrillDownServer(sample_budget=90, default_approx=True) as server:
            server.register_table("t", table)
            sid = server.create_session("t")
            children = server.expand(sid, Rule.trivial(3))  # default: approx
            assert children and all(
                c.estimate is not None and set(c.estimate) == ESTIMATE_KEYS
                for c in children
            )
            sid2 = server.create_session("t")
            exact = server.expand(sid2, Rule.trivial(3), approx=False)
            assert all(c.estimate is None for c in exact)
            stats = server.stats()
            assert stats["default_approx"] is True
            assert stats["samples"]["budget"] == 90

    def test_per_request_error_target_validated(self, table):
        with DrillDownServer(sample_budget=90) as server:
            server.register_table("t", table)
            sid = server.create_session("t")
            with pytest.raises(SessionError):
                server.expand(sid, Rule.trivial(3), approx=True, error_target=-1.0)


class TestEstimatePersistence:
    def test_estimates_survive_snapshot_restore(self, tmp_path, table):
        with DrillDownServer(sample_budget=90, persist_dir=tmp_path) as server:
            server.register_table("t", table)
            sid = server.create_session("t")
            before = server.expand(sid, Rule.trivial(3), approx=True, error_target=0.9)
        revived = DrillDownServer(sample_budget=90, persist_dir=tmp_path)
        try:
            revived.register_table("t", table)
            tree = revived.tree(sid)
            restored = {tuple(c.rule): c.estimate for c in tree.children}
            assert restored == {tuple(c.rule): c.estimate for c in before}
        finally:
            revived.close()

    def test_exact_snapshots_carry_no_estimate_key(self, tmp_path, table):
        with DrillDownServer(sample_budget=90, persist_dir=tmp_path) as server:
            server.register_table("t", table)
            sid = server.create_session("t")
            server.expand(sid, Rule.trivial(3))
        text = (tmp_path / f"{sid}.jsonl").read_text()
        assert '"estimate"' not in text

    def test_restored_session_can_keep_mining_approx(self, tmp_path, table):
        """Warm restore re-threads the catalog's samples into the
        revived session: the next approximate expansion must work and
        match a never-interrupted session's estimates exactly."""
        with DrillDownServer(sample_budget=90, persist_dir=tmp_path) as server:
            server.register_table("t", table)
            sid = server.create_session("t")
            first = server.expand(sid, Rule.trivial(3), approx=True, error_target=0.9)
        revived = DrillDownServer(sample_budget=90, persist_dir=tmp_path)
        try:
            revived.register_table("t", table)
            target = next(
                c for c in revived.tree(sid).children if c.rule.star_indexes
            )
            resumed = revived.expand(
                sid, target.rule, approx=True, error_target=0.9
            )
        finally:
            revived.close()
        control = DrillDownSession(
            table, samples=build_sample_set(table, budget=90, seed=derive_seed("t", 0))
        )
        control.expand(Rule.trivial(3), approx=True, error_target=0.9)
        expected = control.expand(target.rule, approx=True, error_target=0.9)
        assert [(tuple(c.rule), c.count, c.estimate) for c in resumed] == [
            (tuple(c.rule), c.count, c.estimate) for c in expected
        ]
        assert [(tuple(c.rule), c.estimate) for c in first] == [
            (tuple(c.rule), c.estimate)
            for c in control.node(Rule.trivial(3)).children
        ]


class TestApproxOverHTTP:
    @pytest.fixture
    def http_tier(self, table):
        tier = DrillDownServer(sample_budget=90)
        tier.register_table("t", table)
        httpd = serve(tier, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        yield f"http://{host}:{port}"
        httpd.shutdown()
        tier.close()

    def _call(self, base, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_approx_body_field_returns_metadata(self, http_tier):
        status, created = self._call(http_tier, "POST", "/sessions", {"table": "t"})
        assert status == 201
        sid = created["session_id"]
        status, out = self._call(
            http_tier, "POST", f"/sessions/{sid}/expand",
            {"rule": [None, None, None], "approx": True, "error_target": 0.9},
        )
        assert status == 200 and out["children"]
        for child in out["children"]:
            assert set(child["estimate"]) == ESTIMATE_KEYS
        # The tree echoes the same metadata back on GET.
        status, tree = self._call(http_tier, "GET", f"/sessions/{sid}")
        assert status == 200
        assert [c["estimate"] for c in tree["tree"]["children"]] == [
            c["estimate"] for c in out["children"]
        ]

    def test_exact_response_has_no_estimate_key(self, http_tier):
        _, created = self._call(http_tier, "POST", "/sessions", {"table": "t"})
        sid = created["session_id"]
        status, out = self._call(
            http_tier, "POST", f"/sessions/{sid}/expand", {"rule": [None, None, None]}
        )
        assert status == 200
        assert all("estimate" not in child for child in out["children"])

    def test_non_boolean_approx_is_400(self, http_tier):
        _, created = self._call(http_tier, "POST", "/sessions", {"table": "t"})
        sid = created["session_id"]
        status, out = self._call(
            http_tier, "POST", f"/sessions/{sid}/expand",
            {"rule": [None, None, None], "approx": "yes"},
        )
        assert status == 400 and "approx" in out["message"]

    def test_bad_error_target_is_400(self, http_tier):
        _, created = self._call(http_tier, "POST", "/sessions", {"table": "t"})
        sid = created["session_id"]
        status, _ = self._call(
            http_tier, "POST", f"/sessions/{sid}/expand",
            {"rule": [None, None, None], "approx": True, "error_target": 0},
        )
        assert status == 400


class TestEscalationThroughServer:
    def test_tight_target_returns_exact_list_with_escalated_metadata(self, table):
        with DrillDownServer(sample_budget=90) as server:
            server.register_table("t", table)
            exact_sid = server.create_session("t")
            exact = server.expand(exact_sid, Rule.trivial(3))
            approx_sid = server.create_session("t")
            approx = server.expand(
                approx_sid, Rule.trivial(3), approx=True, error_target=1e-9
            )
            assert [(tuple(c.rule), c.count) for c in approx] == [
                (tuple(c.rule), c.count) for c in exact
            ]
            assert all(
                c.estimate["escalated"] and c.estimate["exact"] for c in approx
            )
