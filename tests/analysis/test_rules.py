"""Unit tests for each shipped rule over in-memory fixture snippets.

Every rule gets at least one *bad* snippet (must flag, at the right
line) and one *good* snippet (must stay silent) shaped like the real
code the rule patrols.  The pragma and baseline round-trips are pinned
here too, plus the regression fixture for the PR 4 eviction race shape
(``close()`` under ``with self._lock:``) that motivated the
``lock-blocking`` rule.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    analyze_source,
    default_rules,
    load_baseline,
    rule_names,
    write_baseline,
)
from repro.analysis.runner import BAD_PRAGMA_RULE, PARSE_ERROR_RULE, analyze_paths


def lint(source, relpath="repro/serving/fixture.py", rules=None):
    """analyze_source over a dedented snippet; findings list."""
    return analyze_source(textwrap.dedent(source), relpath, rules=rules)


def names(findings, *, include_suppressed=False):
    return [
        f.rule
        for f in findings
        if include_suppressed or not f.suppressed
    ]


def test_all_five_rules_registered():
    assert rule_names() == (
        "atomic-writes",
        "clock-discipline",
        "determinism",
        "lock-blocking",
        "typed-errors",
    )


def test_unknown_rule_name_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        default_rules(["no-such-rule"])


# -- clock-discipline --------------------------------------------------------------


def test_clock_naked_time_time_flagged():
    findings = lint(
        """
        import time

        class Server:
            def __init__(self):
                self.started_at = time.time()
        """
    )
    assert names(findings) == ["clock-discipline"]
    assert findings[0].line == 6


def test_clock_from_import_alias_seen_through():
    findings = lint(
        """
        from time import monotonic

        def deadline(timeout):
            return monotonic() + timeout
        """
    )
    assert names(findings) == ["clock-discipline"]


def test_clock_injectable_seam_not_flagged():
    # The seam *declaration* passes the function as a value — that is
    # the sanctioned shape, not a call.
    findings = lint(
        """
        import time

        class Registry:
            def __init__(self, clock=time.monotonic):
                self._clock = clock

            def now(self):
                return self._clock()
        """
    )
    assert findings == []


def test_clock_rule_scoped_to_serving_only():
    source = """
    import time

    def elapsed(start):
        return time.perf_counter() - start
    """
    assert names(lint(source, relpath="repro/core/brs.py")) == []
    assert names(lint(source, relpath="repro/serving/x.py")) == [
        "clock-discipline"
    ]


# -- lock-blocking -----------------------------------------------------------------


def test_lock_blocking_pr4_eviction_race_shape_flagged():
    # Regression pin: the exact shape PR 4 fixed by hand — closing an
    # evicted session while still holding the registry lock.  The rule
    # must keep flagging it forever.
    findings = lint(
        """
        class SessionRegistry:
            def evict(self, session_id):
                with self._lock:
                    entry = self._sessions.pop(session_id)
                    entry.session.close()
        """
    )
    assert names(findings) == ["lock-blocking"]
    assert "close" in findings[0].message
    assert "self._lock" in findings[0].message


def test_lock_blocking_fixed_shape_passes():
    # The corrected idiom: pop under the lock, close after releasing.
    findings = lint(
        """
        class SessionRegistry:
            def evict(self, session_id):
                with self._lock:
                    entry = self._sessions.pop(session_id)
                entry.session.close()
        """
    )
    assert findings == []


def test_lock_blocking_pipe_io_and_save_under_entry_lock():
    findings = lint(
        """
        class Handle:
            def request(self, frame):
                with entry.lock:
                    self.conn.send_bytes(frame)
                    raw = self.conn.recv_bytes()
                with self._lock:
                    self.store.save(snapshot)
                return raw
        """
    )
    assert names(findings) == ["lock-blocking"] * 3


def test_lock_blocking_hold_helper_counts_as_lock():
    findings = lint(
        """
        class Server:
            def expand(self, entry, deadline_at):
                with entry.hold(deadline_at, self._clock):
                    self.store.save(entry.snapshot())
        """
    )
    assert names(findings) == ["lock-blocking"]


def test_lock_blocking_condition_wait_not_flagged():
    # FairScheduler's dispatch gate: Condition.wait releases the lock,
    # so waiting under the condition is the *correct* pattern.
    findings = lint(
        """
        class FairScheduler:
            def dispatch_turn(self, tenant):
                with self._cond:
                    while not self._my_turn(tenant):
                        self._cond.wait()
        """
    )
    assert findings == []


def test_lock_blocking_nested_function_resets_lock_scope():
    # A closure *defined* under a lock does not run there.
    findings = lint(
        """
        class Server:
            def plan(self):
                with self._lock:
                    def later():
                        self.store.save(None)
                    self._deferred.append(later)
        """
    )
    assert findings == []


def test_lock_blocking_scoped_to_serving():
    source = """
    def f(self):
        with self._lock:
            self.pool.close()
    """
    assert names(lint(source, relpath="repro/core/parallel.py")) == []


# -- typed-errors ------------------------------------------------------------------


def test_typed_errors_bare_valueerror_flagged_in_core_and_serving():
    source = """
    def brs_iter(engine):
        if engine not in ("incremental", "scratch"):
            raise ValueError(f"unknown search engine {engine!r}")
    """
    for relpath in ("repro/core/brs.py", "repro/serving/server.py"):
        findings = lint(source, relpath=relpath)
        assert names(findings) == ["typed-errors"], relpath
    # ...but not outside the request path.
    assert lint(source, relpath="repro/table/table.py") == []


def test_typed_errors_reproerror_subclass_passes():
    findings = lint(
        """
        from repro.errors import EngineError

        def brs_iter(engine):
            if engine not in ("incremental", "scratch"):
                raise EngineError(f"unknown search engine {engine!r}")
        """,
        relpath="repro/core/brs.py",
    )
    assert findings == []


def test_typed_errors_pipe_protocol_builtins_allowed():
    findings = lint(
        """
        def request(self):
            if self.condemned:
                raise BrokenPipeError("condemned")
            raise EOFError("pipe closed")
        """,
        relpath="repro/serving/shard.py",
    )
    assert findings == []


def test_typed_errors_bare_reraise_allowed():
    findings = lint(
        """
        def f(self):
            try:
                g()
            except Exception:
                self.errors += 1
                raise
        """,
        relpath="repro/serving/server.py",
    )
    assert findings == []


def test_typed_errors_mapper_completeness_clean_on_real_mapper():
    # The real mapper catches ReproError, so every subclass resolves.
    import pathlib

    http_py = (
        pathlib.Path(__file__).resolve().parents[2]
        / "src"
        / "repro"
        / "serving"
        / "http.py"
    )
    findings = analyze_source(
        http_py.read_text(encoding="utf-8"),
        "repro/serving/http.py",
        rules=default_rules(["typed-errors"]),
    )
    assert [f for f in findings if not f.suppressed] == []


def test_typed_errors_mapper_missing_fail_function_flagged():
    findings = lint(
        """
        class Handler:
            def do_GET(self):
                pass
        """,
        relpath="repro/serving/http.py",
        rules=default_rules(["typed-errors"]),
    )
    assert names(findings) == ["typed-errors"]
    assert "_fail" in findings[0].message


def test_typed_errors_incomplete_mapper_flags_unmapped_hierarchy():
    # A mapper that only knows UnknownTableError: every other concrete
    # ReproError subclass (SchemaError, ShardError, ...) would fall to
    # the 500 fallback and must be flagged.
    findings = lint(
        """
        from repro.errors import UnknownTableError

        def _fail(self, exc):
            if isinstance(exc, UnknownTableError):
                return 404
            return 500
        """,
        relpath="repro/serving/http.py",
        rules=default_rules(["typed-errors"]),
    )
    assert len(findings) > 5
    assert all(f.rule == "typed-errors" for f in findings)
    assert any("SchemaError" in f.message for f in findings)


def test_typed_errors_stale_mapping_flagged():
    findings = lint(
        """
        from repro.errors import ReproError

        def _fail(self, exc):
            if isinstance(exc, GhostOfRemovedError):
                return 410
            if isinstance(exc, ReproError):
                return 400
            return 500
        """,
        relpath="repro/serving/http.py",
        rules=default_rules(["typed-errors"]),
    )
    assert names(findings) == ["typed-errors"]
    assert "GhostOfRemovedError" in findings[0].message


# -- atomic-writes -----------------------------------------------------------------


def test_atomic_writes_direct_open_w_flagged():
    findings = lint(
        """
        import json

        def save(self, path, payload):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        """
    )
    assert names(findings) == ["atomic-writes"]


def test_atomic_writes_tmp_fsync_replace_idiom_passes():
    # The SnapshotStore.save shape: tmp sibling, fsync, os.replace.
    findings = lint(
        """
        import json
        import os

        def save(self, path, payload):
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        """
    )
    assert findings == []


def test_atomic_writes_open_beside_atomic_write_flagged():
    # A module that has atomic_write but writes around it: only the
    # bypass is flagged, not the sanctioned writer's own tmp-open.
    findings = lint(
        """
        import os

        def atomic_write(path, text):
            tmp = path + ".tmp-1-1"
            with open(tmp, "wb") as handle:
                handle.write(text.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)

        def save(self, path, text):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        """,
        relpath="repro/serving/samples.py",
    )
    assert names(findings) == ["atomic-writes"]
    assert findings[0].line == 13
    assert "atomic_write" in findings[0].message


def test_atomic_writes_read_open_not_flagged():
    findings = lint(
        """
        def load(self, path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        """
    )
    assert findings == []


def test_atomic_writes_write_text_flagged():
    findings = lint(
        """
        def save(self, path, text):
            path.write_text(text)
        """
    )
    assert names(findings) == ["atomic-writes"]


# -- determinism -------------------------------------------------------------------


def test_determinism_unseeded_default_rng_flagged():
    findings = lint(
        """
        import numpy as np

        def draw():
            return np.random.default_rng().random()
        """,
        relpath="repro/sampling/reservoir.py",
    )
    # The unseeded constructor, plus nothing else: the .random() draw
    # on the returned generator is not resolvable to numpy.random.*.
    assert names(findings) == ["determinism"]
    assert "without a seed" in findings[0].message


def test_determinism_seeded_default_rng_passes():
    findings = lint(
        """
        import numpy as np
        from repro.core.seeding import derive_seed

        def draw(base_seed):
            return np.random.default_rng(derive_seed("draw", base_seed))
        """,
        relpath="repro/sampling/reservoir.py",
    )
    assert findings == []


def test_determinism_legacy_global_numpy_api_flagged():
    findings = lint(
        """
        import numpy as np

        def shuffle(rows):
            np.random.seed(0)
            np.random.shuffle(rows)
        """,
        relpath="repro/sampling/reservoir.py",
    )
    assert names(findings) == ["determinism", "determinism"]


def test_determinism_stdlib_global_random_flagged_seeded_instance_ok():
    findings = lint(
        """
        import random

        def pick(items, seed):
            rng = random.Random(seed)
            good = rng.choice(items)
            bad = random.choice(items)
            return good, bad
        """,
        relpath="repro/sampling/reservoir.py",
    )
    assert names(findings) == ["determinism"]
    assert "random.choice" in findings[0].message


def test_determinism_unseeded_random_instance_flagged():
    findings = lint(
        """
        import random

        def make_rng():
            return random.Random()
        """,
        relpath="repro/sampling/reservoir.py",
    )
    assert names(findings) == ["determinism"]


def test_determinism_applies_to_benchmarks_too():
    findings = lint(
        """
        import numpy as np

        rng = np.random.default_rng()
        """,
        relpath="benchmarks/bench_demo.py",
    )
    assert names(findings) == ["determinism"]


# -- pragmas -----------------------------------------------------------------------


def test_pragma_trailing_suppresses_with_reason():
    findings = lint(
        """
        import time

        def f():
            return time.time()  # repro-lint: allow[clock-discipline] reason=wall time by design
        """
    )
    assert len(findings) == 1
    assert findings[0].suppressed
    assert findings[0].reason == "wall time by design"


def test_pragma_standalone_applies_to_next_code_line():
    findings = lint(
        """
        import time

        def f():
            # repro-lint: allow[clock-discipline] reason=real sleep cadence
            return time.monotonic()
        """
    )
    assert len(findings) == 1
    assert findings[0].suppressed


def test_pragma_wrong_rule_does_not_suppress():
    findings = lint(
        """
        import time

        def f():
            return time.time()  # repro-lint: allow[determinism] reason=misdirected
        """
    )
    assert len(findings) == 1
    assert not findings[0].suppressed


def test_pragma_without_reason_is_bad_pragma_and_suppresses_nothing():
    findings = lint(
        """
        import time

        def f():
            return time.time()  # repro-lint: allow[clock-discipline]
        """
    )
    rules = sorted(f.rule for f in findings)
    assert rules == [BAD_PRAGMA_RULE, "clock-discipline"]
    clock = next(f for f in findings if f.rule == "clock-discipline")
    assert not clock.suppressed


def test_pragma_in_docstring_is_inert():
    findings = lint(
        '''
        def f():
            """# repro-lint: allow[clock-discipline] reason=not a comment"""
            return 1
        '''
    )
    assert findings == []


def test_parse_error_is_a_finding_not_a_crash():
    findings = lint("def broken(:\n")
    assert names(findings) == [PARSE_ERROR_RULE]


# -- baseline ----------------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    findings = [
        Finding(rule="clock-discipline", path="repro/serving/x.py", line=7, message="m"),
        Finding(rule="typed-errors", path="repro/core/y.py", line=3, message="n"),
    ]
    path = tmp_path / "lint-baseline.json"
    write_baseline(path, findings)
    baseline = load_baseline(path)
    assert len(baseline) == 2
    assert baseline.consume(findings[0])
    assert baseline.consume(findings[1])
    assert baseline.stale_entries() == []


def test_baseline_grandfathers_and_reports_stale(tmp_path):
    src = tmp_path / "repro" / "serving"
    src.mkdir(parents=True)
    (src / "fixture.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n", encoding="utf-8"
    )
    live = Finding(
        rule="clock-discipline", path="repro/serving/fixture.py", line=4, message="m"
    )
    fixed = Finding(
        rule="clock-discipline", path="repro/serving/gone.py", line=9, message="m"
    )
    path = tmp_path / "lint-baseline.json"
    write_baseline(path, [live, fixed])

    report = analyze_paths([str(tmp_path / "repro")], baseline=load_baseline(path))
    # The live finding is grandfathered...
    assert report.enforced == []
    assert [f.key for f in report.baselined] == [live.key]
    # ...but the entry whose code was fixed is stale and fails the gate.
    assert report.stale_baseline == [fixed.key]
    assert report.exit_code == 1


def test_baseline_missing_file_is_empty():
    baseline = load_baseline("/nonexistent/lint-baseline.json")
    assert len(baseline) == 0


def test_baseline_malformed_file_rejected(tmp_path):
    path = tmp_path / "lint-baseline.json"
    path.write_text('{"version": 99}', encoding="utf-8")
    with pytest.raises(ValueError, match="version"):
        load_baseline(path)


# -- report classification ---------------------------------------------------------


def test_report_only_paths_are_advisory(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (bench / "bench_demo.py").write_text(
        "import numpy as np\nrng = np.random.default_rng()\n", encoding="utf-8"
    )
    report = analyze_paths([str(bench)], report_only_paths=["benchmarks"])
    assert report.enforced == []
    assert [f.rule for f in report.report_only] == ["determinism"]
    assert report.exit_code == 0
    # The JSON payload logs the advisory findings.
    payload = report.to_dict()
    assert payload["report_only"][0]["rule"] == "determinism"
    assert payload["exit_code"] == 0
