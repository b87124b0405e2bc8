"""The stdlib HTTP front end, driven exactly like the SERVING.md walkthrough."""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.serving import DrillDownServer
from repro.serving.http import rule_from_wire, rule_to_wire, serve
from repro.core.rule import STAR, Rule
from repro.errors import ReproError


@pytest.fixture
def http_tier(retail):
    """A live threaded HTTP server on an ephemeral port."""
    tier = DrillDownServer(tenant_budget=20_000)
    tier.register_table("retail", retail)
    httpd = serve(tier, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}", tier
    httpd.shutdown()
    tier.close()


def call(base: str, method: str, path: str, body: dict | None = None):
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


class TestWireFormat:
    def test_rule_roundtrip(self):
        rule = Rule(["Walmart", STAR, "CA-1"])
        assert rule_to_wire(rule) == ["Walmart", None, "CA-1"]
        assert rule_from_wire(["Walmart", None, "CA-1"], 3) == rule

    def test_bad_wire_rule(self):
        with pytest.raises(ReproError):
            rule_from_wire(["Walmart"], 3)
        with pytest.raises(ReproError):
            rule_from_wire("Walmart", 1)


class TestEndpoints:
    def test_health_stats_tables(self, http_tier):
        base, _ = http_tier
        assert call(base, "GET", "/healthz") == (200, {"ok": True})
        status, stats = call(base, "GET", "/stats")
        assert status == 200 and stats["tables"] == ["retail"]
        assert call(base, "GET", "/tables")[1] == {"tables": ["retail"]}

    def test_register_inline_table(self, http_tier):
        base, _ = http_tier
        status, body = call(base, "POST", "/tables", {
            "name": "mini",
            "columns": ["A", "B"],
            "rows": [["a", "x"], ["a", "y"], ["b", "x"]],
        })
        assert status == 201 and body == {"name": "mini", "rows": 3, "columns": ["A", "B"]}

    def test_register_needs_name_and_payload(self, http_tier):
        base, _ = http_tier
        assert call(base, "POST", "/tables", {"dataset": "retail"})[0] == 400
        assert call(base, "POST", "/tables", {"name": "x"})[0] == 400
        assert call(base, "POST", "/tables", {"name": "x", "dataset": "nope"})[0] == 400

    def test_walkthrough(self, http_tier):
        """The SERVING.md curl sequence, end to end."""
        base, tier = http_tier
        status, created = call(base, "POST", "/sessions",
                               {"table": "retail", "tenant": "alice", "k": 3, "mw": 3.0})
        assert status == 201
        sid = created["session_id"]
        assert created["columns"] == ["Store", "Product", "Region", "Sales"]
        assert created["root"]["count"] == 6000

        status, expanded = call(base, "POST", f"/sessions/{sid}/expand",
                                {"rule": [None, None, None, None]})
        assert status == 200
        rules = [c["rule"] for c in expanded["children"]]
        assert ["Walmart", None, None, None] in rules  # the paper's Table 2

        status, level2 = call(base, "POST", f"/sessions/{sid}/expand",
                              {"rule": ["Walmart", None, None, None]})
        assert status == 200
        assert ["Walmart", "cookies", None, None] in [
            c["rule"] for c in level2["children"]
        ]  # Table 3

        status, tree = call(base, "GET", f"/sessions/{sid}")
        assert status == 200 and len(tree["tree"]["children"]) == 3

        status, rendered = call(base, "GET", f"/sessions/{sid}/render")
        assert status == 200 and "Walmart" in rendered["text"]

        status, collapsed = call(base, "POST", f"/sessions/{sid}/collapse",
                                 {"rule": ["Walmart", None, None, None]})
        assert status == 200

        assert call(base, "DELETE", f"/sessions/{sid}") == (200, {"closed": True})
        assert call(base, "POST", f"/sessions/{sid}/expand",
                    {"rule": [None, None, None, None]})[0] == 404

    def test_star_expansion(self, http_tier):
        base, _ = http_tier
        sid = call(base, "POST", "/sessions", {"table": "retail", "mw": 3.0})[1]["session_id"]
        status, body = call(base, "POST", f"/sessions/{sid}/expand_star",
                            {"rule": [None, None, None, None], "column": "Region"})
        assert status == 200
        assert all(c["rule"][2] is not None for c in body["children"])

    def test_budget_throttles_with_429(self, http_tier):
        base, _ = http_tier
        sid = call(base, "POST", "/sessions",
                   {"table": "retail", "tenant": "greedy"})[1]["session_id"]
        statuses = []
        for _ in range(4):  # 4 x 6000 rows > the 20k budget
            status, body = call(base, "POST", f"/sessions/{sid}/expand",
                                {"rule": [None, None, None, None]})
            statuses.append(status)
            if status == 200:
                call(base, "POST", f"/sessions/{sid}/collapse",
                     {"rule": [None, None, None, None]})
        assert statuses.count(200) == 3
        assert statuses[-1] == 429
        status, error = call(base, "POST", f"/sessions/{sid}/expand",
                             {"rule": [None, None, None, None]})
        assert status == 429 and error["error"] == "TenantBudgetError"

    def test_error_mapping(self, http_tier):
        base, _ = http_tier
        # Unknown session -> 404.
        assert call(base, "GET", "/sessions/sess-424242")[0] == 404
        # Unknown table -> 404.
        assert call(base, "POST", "/sessions", {"table": "nope"})[0] == 404
        # Malformed rule -> 400.
        sid = call(base, "POST", "/sessions", {"table": "retail"})[1]["session_id"]
        assert call(base, "POST", f"/sessions/{sid}/expand", {"rule": ["x"]})[0] == 400
        # Unknown path -> 404; non-JSON body -> 400.
        assert call(base, "GET", "/nope")[0] == 404
        request = urllib.request.Request(
            base + "/sessions", data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400


class TestErrorMappingRegressions:
    """Paths that used to 500 (or silently misbehave) must be clean
    client errors.  Each test failed before its fix in serving/http.py."""

    def test_out_of_range_star_column_is_400_not_500(self, http_tier):
        """IndexError from a bad column index used to escape as 500."""
        base, _ = http_tier
        sid = call(base, "POST", "/sessions", {"table": "retail"})[1]["session_id"]
        for column in (99, -7):
            status, body = call(
                base, "POST", f"/sessions/{sid}/expand_star",
                {"rule": [None, None, None, None], "column": column},
            )
            assert status == 400, f"column {column}: expected 400, got {status}"
            assert body["error"] == "IndexError"

    def test_engine_and_parameter_errors_are_typed_400s(
        self, http_tier, monkeypatch
    ):
        """core validation errors travel the wire under their own names.

        ``brs_iter``/``params`` used to raise bare ``ValueError``: the
        mapper answered 400, but the body said ``"ValueError"`` — the
        client could not tell a bad engine knob from any other bad
        input, and ``except ReproError`` boundaries missed it.  Now
        they raise :class:`EngineError` / :class:`ParameterError`
        (``ReproError`` subclasses) and the wire carries the type.
        These assertions failed before that change.
        """
        from repro.errors import EngineError, ParameterError

        base, tier = http_tier
        sid = call(base, "POST", "/sessions", {"table": "retail"})[1]["session_id"]
        root = {"rule": [None, None, None, None]}

        def bad_engine(*args, **kwargs):
            raise EngineError("time_limit_seconds must be positive")

        monkeypatch.setattr(tier, "expand", bad_engine)
        status, body = call(base, "POST", f"/sessions/{sid}/expand", root)
        assert status == 400
        assert body["error"] == "EngineError"
        assert "time_limit_seconds" in body["message"]

        def bad_params(*args, **kwargs):
            raise ParameterError("target_fraction must be in [0, 1]")

        monkeypatch.setattr(tier, "expand", bad_params)
        status, body = call(base, "POST", f"/sessions/{sid}/expand", root)
        assert status == 400
        assert body["error"] == "ParameterError"

    def test_core_validation_raises_typed_and_legacy_catchable(self):
        """The dual inheritance contract: new typed classes are still
        ValueErrors, so pre-existing except-clauses keep working."""
        from repro.core.brs import brs_time_limited
        from repro.core.params import exponent_for_target_fraction, kkt_analysis
        from repro.errors import EngineError, ParameterError, ReproError

        with pytest.raises(EngineError):
            brs_time_limited(None, None, 3.0, 0.0)
        with pytest.raises(ReproError):  # and via the typed base
            brs_time_limited(None, None, 3.0, -1.0)
        with pytest.raises(ValueError):  # and via the legacy base
            brs_time_limited(None, None, 3.0, 0.0)
        with pytest.raises(ParameterError):
            exponent_for_target_fraction([0.5], 1.5)
        with pytest.raises(ParameterError):
            kkt_analysis([0.5], [1.0, 2.0], 1.0)
        assert issubclass(EngineError, ValueError)
        assert issubclass(ParameterError, ValueError)

    def test_wrong_content_type_is_400(self, http_tier):
        """A declared non-JSON body used to be parsed as JSON anyway."""
        base, _ = http_tier
        request = urllib.request.Request(
            base + "/sessions",
            data=json.dumps({"table": "retail"}).encode(),
            method="POST",
            headers={"Content-Type": "text/plain"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400
        body = json.loads(info.value.read())
        assert "Content-Type" in body["message"]

    def test_curl_default_content_type_still_accepted(self, http_tier):
        """The docs walkthrough posts with curl -d, which labels JSON
        bodies application/x-www-form-urlencoded; that stays working."""
        base, _ = http_tier
        request = urllib.request.Request(
            base + "/sessions",
            data=json.dumps({"table": "retail"}).encode(),
            method="POST",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 201

    def test_absent_content_type_still_accepted(self, http_tier):
        base, _ = http_tier
        request = urllib.request.Request(
            base + "/sessions",
            data=json.dumps({"table": "retail"}).encode(),
            method="POST",
        )
        request.remove_header("Content-type")  # urllib adds a default
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 201

    def test_unsupported_method_answers_json(self, http_tier):
        """PUT/PATCH used to get the stdlib's HTML error page."""
        base, _ = http_tier
        for method in ("PUT", "PATCH"):
            request = urllib.request.Request(
                base + "/tables", data=b"{}", method=method,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=30)
            assert info.value.code == 501
            body = json.loads(info.value.read())  # JSON, not HTML
            assert body["error"] == "HTTPError" and method in body["message"]

    def test_non_array_rows_and_columns_are_400(self, http_tier):
        """A string for "rows" used to be iterated character by
        character into a one-column table."""
        base, _ = http_tier
        assert call(base, "POST", "/tables",
                    {"name": "x", "columns": ["A"], "rows": "oops"})[0] == 400
        assert call(base, "POST", "/tables",
                    {"name": "x", "columns": "A", "rows": [["a"]]})[0] == 400

    def test_malformed_json_and_unknown_route_stay_clean(self, http_tier):
        """Regression guard for the already-correct paths the issue names."""
        base, _ = http_tier
        request = urllib.request.Request(
            base + "/sessions", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400
        assert json.loads(info.value.read())["error"] == "ReproError"
        status, body = call(base, "GET", "/definitely/not/a/route")
        assert status == 404 and body["error"] == "NotFound"


@pytest.fixture
def sharded_tier(retail):
    """A live HTTP front end over a 2-shard router."""
    from repro.serving import ShardRouter

    tier = ShardRouter(2)
    tier.register_table("retail", retail)
    httpd = serve(tier, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}", tier
    httpd.shutdown()
    tier.close()


class TestShardedFrontEnd:
    """`--shards N` serves the same wire responses through worker
    processes; /stats gains the per-shard breakdown; a dead shard is a
    typed 503."""

    def test_sharded_walkthrough_matches_single_process(self, http_tier, sharded_tier):
        plain_base, _ = http_tier
        shard_base, router = sharded_tier
        plain_sid = call(plain_base, "POST", "/sessions",
                         {"table": "retail", "tenant": "alice", "k": 3, "mw": 3.0})[1]["session_id"]
        shard_sid = call(shard_base, "POST", "/sessions",
                         {"table": "retail", "tenant": "alice", "k": 3, "mw": 3.0})[1]["session_id"]
        assert shard_sid.startswith(f"s{router.shard_of_table('retail')}-")
        for path, body in (
            ("expand", {"rule": [None, None, None, None]}),
            ("expand", {"rule": ["Walmart", None, None, None]}),
        ):
            plain = call(plain_base, "POST", f"/sessions/{plain_sid}/{path}", body)
            shard = call(shard_base, "POST", f"/sessions/{shard_sid}/{path}", body)
            assert plain == shard  # status and every response byte
        plain_render = call(plain_base, "GET", f"/sessions/{plain_sid}/render")
        shard_render = call(shard_base, "GET", f"/sessions/{shard_sid}/render")
        assert plain_render == shard_render
        assert call(plain_base, "GET", f"/sessions/{plain_sid}")[1] == \
            call(shard_base, "GET", f"/sessions/{shard_sid}")[1]

    def test_stats_carries_per_shard_breakdown(self, sharded_tier):
        base, router = sharded_tier
        sid = call(base, "POST", "/sessions", {"table": "retail", "mw": 3.0})[1]["session_id"]
        call(base, "POST", f"/sessions/{sid}/expand", {"rule": [None, None, None, None]})
        status, stats = call(base, "GET", "/stats")
        assert status == 200
        assert stats["tables"] == ["retail"]
        assert stats["router"]["n_shards"] == 2
        assert {entry["shard"] for entry in stats["shards"]} == {0, 1}
        owner = router.shard_of_table("retail")
        by_shard = {entry["shard"]: entry for entry in stats["shards"]}
        assert by_shard[owner]["server"]["registry"]["sessions"] == 1
        assert by_shard[owner]["server"]["registry"]["expansions"] == 1

    def test_dead_shard_maps_to_503_then_recovers(self, sharded_tier):
        base, router = sharded_tier
        sid = call(base, "POST", "/sessions", {"table": "retail", "mw": 3.0})[1]["session_id"]
        router._shards[router.shard_of_table("retail")].process.kill()
        status, body = call(base, "GET", f"/sessions/{sid}/render")
        assert status == 503 and body["error"] == "ShardDownError"
        # The tier self-healed: the table is re-registered on the
        # restarted shard and new sessions serve immediately.
        status, created = call(base, "POST", "/sessions", {"table": "retail", "mw": 3.0})
        assert status == 201
        status, _ = call(base, "POST",
                         f"/sessions/{created['session_id']}/expand",
                         {"rule": [None, None, None, None]})
        assert status == 200


class TestFaultToleranceWire:
    """Deadline, Retry-After, and shard-degradation contracts (ISSUE 6)."""

    def _post_expand(self, base: str, sid: str, headers: dict):
        request = urllib.request.Request(
            base + f"/sessions/{sid}/expand",
            data=json.dumps({"rule": [None, None, None, None]}).encode(),
            method="POST",
            headers={"Content-Type": "application/json", **headers},
        )
        return urllib.request.urlopen(request, timeout=30)

    def test_429_carries_retry_after_computed_from_refill_rate(self, retail):
        tier = DrillDownServer(tenant_budget=6000.0, refill_per_second=100.0)
        tier.register_table("retail", retail)
        httpd = serve(tier, port=0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        host, port = httpd.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            sid = call(base, "POST", "/sessions",
                       {"table": "retail", "tenant": "t"})[1]["session_id"]
            assert call(base, "POST", f"/sessions/{sid}/expand",
                        {"rule": [None, None, None, None]})[0] == 200
            with pytest.raises(urllib.error.HTTPError) as info:
                self._post_expand(base, sid, {})
            assert info.value.code == 429
            # ~6000 tokens short at 100 tokens/s: the header tells the
            # client *when* retrying will actually work.
            retry_after = info.value.headers.get("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1
            assert json.loads(info.value.read())["retry_after"] > 0
        finally:
            httpd.shutdown()
            tier.close()

    def test_expired_deadline_is_503_with_retry_after(self, http_tier):
        base, tier = http_tier
        sid = call(base, "POST", "/sessions", {"table": "retail"})[1]["session_id"]
        entry = tier.registry.entry(sid)
        with entry.lock:  # another request holds the session past the deadline
            with pytest.raises(urllib.error.HTTPError) as info:
                self._post_expand(base, sid, {"X-Deadline": "0.2"})
        assert info.value.code == 503
        assert info.value.headers.get("Retry-After") is not None
        assert json.loads(info.value.read())["error"] == "DeadlineExceededError"
        # Lock free again: the identical request succeeds — and the
        # aborted one burned none of the tenant's budget.
        assert call(base, "POST", f"/sessions/{sid}/expand",
                    {"rule": [None, None, None, None]})[0] == 200

    def test_malformed_or_non_positive_x_deadline_is_400(self, http_tier):
        base, _ = http_tier
        sid = call(base, "POST", "/sessions", {"table": "retail"})[1]["session_id"]
        for bad in ("soon", "0", "-3"):
            with pytest.raises(urllib.error.HTTPError) as info:
                self._post_expand(base, sid, {"X-Deadline": bad})
            assert info.value.code == 400

    def test_dead_shard_503_carries_retry_after(self, sharded_tier):
        base, router = sharded_tier
        sid = call(base, "POST", "/sessions",
                   {"table": "retail", "mw": 3.0})[1]["session_id"]
        router._shards[router.shard_of_table("retail")].process.kill()
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(base + f"/sessions/{sid}/render", timeout=30)
        assert info.value.code == 503
        assert info.value.headers.get("Retry-After") is not None


class TestRequestTimeouts:
    """The slowloris fix: socket reads are bounded (serving/http.py
    ``request_timeout``), so a stalled client cannot park a handler
    thread forever.  Failed before the fix: both drills hung."""

    @pytest.fixture
    def impatient_tier(self, retail):
        tier = DrillDownServer()
        tier.register_table("retail", retail)
        httpd = serve(tier, port=0, request_timeout=0.5)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        yield host, port
        httpd.shutdown()
        tier.close()

    def test_stalled_body_gets_408_and_the_connection_is_closed(self, impatient_tier):
        host, port = impatient_tier
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /sessions HTTP/1.1\r\n"
                b"Host: t\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 100\r\n"
                b"\r\n"
                b'{"table"'  # ...and never send the rest of the body
            )
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        response = b"".join(chunks)
        assert response.startswith(b"HTTP/1.1 408")
        assert b"TimeoutError" in response
        # Reading to EOF above proves the server dropped the connection
        # rather than keeping the half-fed request alive.

    def test_connection_that_never_sends_is_dropped(self, impatient_tier):
        host, port = impatient_tier
        with socket.create_connection((host, port), timeout=30) as sock:
            # No bytes at all: nothing to answer — the server just hangs up.
            assert sock.recv(65536) == b""

    def test_fast_requests_are_unaffected(self, impatient_tier):
        host, port = impatient_tier
        base = f"http://{host}:{port}"
        assert call(base, "GET", "/healthz") == (200, {"ok": True})
        sid = call(base, "POST", "/sessions",
                   {"table": "retail", "mw": 3.0})[1]["session_id"]
        assert call(base, "POST", f"/sessions/{sid}/expand",
                    {"rule": [None, None, None, None]})[0] == 200


class TestVersionedTables:
    """The ISSUE 10 HTTP surface: append rows, typed 409 conflicts."""

    @pytest.mark.versioning
    def test_append_rows_endpoint(self, http_tier):
        base, _ = http_tier
        status, body = call(base, "POST", "/tables", {
            "name": "mini",
            "columns": ["A", "B"],
            "rows": [["a", "x"], ["a", "y"], ["b", "x"]],
        })
        assert status == 201
        status, body = call(base, "POST", "/tables/mini/rows",
                            {"rows": [["c", "x"], ["a", "z"]]})
        assert status == 200
        assert body["name"] == "mini" and body["version"] == 2
        assert body["rows"] == 5 and body["appended"] == 2
        # Fresh sessions see the appended rows.
        created = call(base, "POST", "/sessions", {"table": "mini"})[1]
        assert created["root"]["count"] == 5
        # Version counters surface through /stats.
        stats = call(base, "GET", "/stats")[1]
        assert stats["versions"]["tables"]["mini"]["latest"] == 2

    @pytest.mark.versioning
    def test_append_validation(self, http_tier):
        base, _ = http_tier
        assert call(base, "POST", "/tables/retail/rows", {})[0] == 400
        assert call(base, "POST", "/tables/retail/rows", {"rows": []})[0] == 400
        status, body = call(base, "POST", "/tables/nope/rows",
                            {"rows": [["x"]]})
        assert status == 404 and body["error"] == "UnknownTableError"

    @pytest.mark.versioning
    def test_conflicting_registration_is_409(self, http_tier):
        """Satellite regression: re-registering a live name with
        different data used to be an untyped 400; it is now a
        ``TableConflictError`` mapped to 409 Conflict, and the message
        names both remedies."""
        base, _ = http_tier
        status, body = call(base, "POST", "/tables", {
            "name": "retail",
            "columns": ["A"],
            "rows": [["a"]],
        })
        assert status == 409
        assert body["error"] == "TableConflictError"
        assert "append_rows" in body["message"]
        assert "replace_table" in body["message"]
