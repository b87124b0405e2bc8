"""repro.analysis — AST-based invariant linting for the serving tier.

Eight PRs of growth turned this reproduction into a concurrent,
sharded, crash-recovering serving tier whose correctness rests on
hand-enforced invariants: injectable clocks, the lock-vs-blocking-call
discipline (the PR 4 eviction race class), typed
:class:`~repro.errors.ReproError` raising with complete HTTP mappings,
tmp+fsync+``os.replace`` persistence, and ``derive_seed``-style
determinism that the bit-identity replay harness depends on.  The
chaos and replay suites can only probe those invariants *dynamically*
— one schedule, one seed at a time.  This package mechanizes them as a
static-analysis pass over the source itself, so every future PR is
checked against the rules on every file it touches.

The pass is pure stdlib-``ast`` (no third-party linter, no imports of
the code under analysis except the one rule that introspects the
exception hierarchy) and ships five repo-specific analyzers:

``clock-discipline``
    No naked ``time.time()`` / ``time.monotonic()`` /
    ``datetime.now()`` reads in ``repro/serving/`` outside declared
    clock seams — serving components take injectable ``clock=`` /
    ``wall_clock=`` callables (:mod:`repro.serving.registry`,
    :mod:`repro.serving.faults`, :mod:`repro.serving.server`).
``lock-blocking``
    No blocking operations (pipe ``recv_bytes``/``poll``, ``fsync``,
    snapshot ``save``, ``close()``, ``join()``, ...) lexically inside
    ``with self._lock:`` / ``with entry.lock:`` blocks — the exact
    race class PR 4 and PR 6 fixed by hand in the registry's eviction
    path.
``typed-errors``
    Request-path code (``repro/serving/`` + ``repro/core/``) raises
    :class:`~repro.errors.ReproError` subclasses, never bare builtins;
    and every concrete ``ReproError`` subclass resolves to an HTTP
    status in :mod:`repro.serving.http`'s mapper (completeness checked
    by importing the hierarchy and diffing it against the mapper's
    AST).
``atomic-writes``
    File writes in ``repro/serving/`` go through
    :func:`repro.serving.persistence.atomic_write` (tmp, fsync,
    ``os.replace``) — a direct ``open(..., "w")`` anywhere else can
    publish a torn file under the real name on power loss.
``determinism``
    No unseeded randomness anywhere linted (including the
    ``benchmarks/`` and ``examples/`` trees, swept advisory-only) —
    ``np.random.default_rng()`` without a seed, the legacy global
    ``np.random.*`` API, and the stdlib ``random`` module-level
    functions all break the bit-identity replay harness.

Findings can be suppressed per line with a pragma carrying a reason::

    deadline = time.monotonic() + timeout  # repro-lint: allow[clock-discipline] reason=real pipe wait

or grandfathered in a checked-in baseline file (see
:mod:`repro.analysis.baseline`); the tier-1 gate
(``tests/analysis/test_repo_clean.py``) fails on any non-baselined
finding *and* on stale baseline entries, so the baseline can only
shrink.

Run it::

    PYTHONPATH=src python -m repro.analysis src/repro
    PYTHONPATH=src python -m repro.analysis --json src/repro

See ``docs/ANALYSIS.md`` for the operator's guide and how to add a
rule.
"""

from repro.analysis.baseline import Baseline, load_baseline, write_baseline
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, default_rules, register_rule, rule_names
from repro.analysis.runner import AnalysisReport, analyze_paths, analyze_source

__all__ = [
    "AnalysisReport",
    "Baseline",
    "Finding",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "default_rules",
    "load_baseline",
    "register_rule",
    "rule_names",
    "write_baseline",
]
