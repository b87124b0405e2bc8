"""Pre-built per-table serving samples: uniform + per-column stratified.

The paper's Section 4 mines drill-downs on bounded samples instead of
the full table; this module is the serving tier's *offline* half of
that machinery (the verdict-style "sample definitions built at
registration" architecture).  For every registered table the catalog
builds one :class:`TableSampleSet`:

* a **uniform** sample of the whole table (filter = the trivial rule),
  the fallback every expansion can legally use, and
* **stratified** samples, one per frequent value of each categorical
  column (filter = the single-value rule), sized by the paper's §4.1
  knapsack DP (:func:`~repro.sampling.allocation.allocate_dp`) under a
  shared ``sample_budget`` expressed in tuples.

Everything here is *deterministic* given ``(table data, budget, seed)``:
strata are enumerated in (column, code) order, allocation is a
deterministic DP, and every draw comes from one ``numpy`` generator
consumed in that fixed order.  Shard workers decode a wire-shipped
table into bit-identical code arrays, so rebuilding with the same seed
reproduces the parent's samples exactly — the replay fuzz harness pins
this.  :func:`derive_seed` gives each table a stable per-name seed so
samples survive process boundaries and restarts without coordination.

Sample sets persist as one JSON file of row ids (:meth:`TableSampleSet.save`
/ :func:`load_sample_set`), written by
:func:`~repro.serving.persistence.atomic_write`, so warm restarts don't
re-scan the table.  The file carries the table's content hash
(:func:`table_fingerprint`) plus the budget, seed and format version;
any mismatch makes the loader return ``None`` and the catalog rebuild,
so a different table registered under the same name never gets
another table's strata.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.codec import decode_rule, encode_rule
from repro.core.rule import Rule, cover_mask
from repro.errors import ReproError, ServingError
from repro.sampling.allocation import GroupSpec, LeafSpec, allocate_dp
from repro.sampling.sample import Sample
from repro.serving.persistence import atomic_write
from repro.table.table import Table

__all__ = [
    "TableSampleSet",
    "build_sample_set",
    "derive_seed",
    "load_sample_set",
    "table_fingerprint",
]

#: Version 2 replaced the shape check with :func:`table_fingerprint`.
SAMPLES_VERSION = 2
UNIFORM = "::uniform"
# Strata per categorical column.  Bounds the §4.1 group enumeration at
# 3^4 = 81 local options per group, keeping registration cheap even on
# wide-domain columns; rarer values fall through to the uniform sample.
MAX_STRATA_PER_COLUMN = 4


def table_fingerprint(table: Table) -> str:
    """Content hash of everything a sample set's row ids depend on.

    Deterministic across processes and restarts: sha1 over the row
    count, each column's name and kind, and — for categoricals — the
    dictionary (in code order) plus the raw code bytes.  Strata and
    their draws read only categorical codes, so numeric columns are
    outside the hash; a table with different categorical data under
    the same name and shape hashes differently.
    """
    h = hashlib.sha1()
    h.update(f"rows={table.n_rows};cols={table.n_columns};".encode("utf-8"))
    for idx, column in enumerate(table.schema):
        h.update(f"col={idx}:{column.name!r}:{column.kind};".encode("utf-8"))
    for idx in table.schema.categorical_indexes:
        col = table.categorical(idx)
        h.update(repr(col.values).encode("utf-8"))
        h.update(np.ascontiguousarray(col.codes).tobytes())
    return h.hexdigest()


def derive_seed(name: str, base_seed: int) -> int:
    """Stable per-table sampling seed: same ``(name, base_seed)`` on any
    host/process yields the same draws (unlike ``hash()``, which is
    salted per process)."""
    digest = hashlib.sha1(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class TableSampleSet:
    """The pre-built samples served for one table.

    ``uniform`` covers the whole table; ``strata`` maps single-value
    filter rules to their samples.  :meth:`sample_for` picks the most
    specific stored sample whose filter covers a given expansion
    parent — the §4.3 rule that a sample is only usable for rules its
    filter is a sub-rule of.
    """

    def __init__(
        self,
        table: Table,
        uniform: Sample,
        strata: dict[Rule, Sample],
        *,
        budget: int,
        seed: int,
    ):
        self.table = table
        self.uniform = uniform
        self.strata = dict(strata)
        self.budget = int(budget)
        self.seed = int(seed)

    @property
    def samples(self) -> tuple[Sample, ...]:
        """Every stored sample, uniform first, strata in build order."""
        return (self.uniform, *self.strata.values())

    def sample_for(self, rule: Rule) -> Sample:
        """The most specific stored sample valid for expanding ``rule``.

        A stored sample with filter ``f`` is valid when ``f`` is a
        sub-rule of ``rule`` (its population contains ``rule``'s whole
        cover).  Among valid strata the most instantiated filter wins,
        then the smallest scale (densest sample); the uniform sample is
        always valid and is the fallback.
        """
        best = self.uniform
        best_key = (-1, 0.0)
        for filt, sample in self.strata.items():
            if not filt.is_subrule_of(rule):
                continue
            key = (filt.size, -sample.scale)
            if key > best_key:
                best, best_key = sample, key
        return best

    def memory_tuples(self) -> int:
        return sum(s.memory_tuples() for s in self.samples)

    def describe(self) -> dict:
        """JSON-friendly summary for ``/stats``."""
        return {
            "budget": self.budget,
            "seed": self.seed,
            "tuples": self.memory_tuples(),
            "samples": [
                {
                    "filter": str(s.filter_rule),
                    "size": s.size,
                    "population": s.population,
                    "scale": round(s.scale, 6),
                }
                for s in self.samples
            ],
        }

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Persist row ids with :func:`~repro.serving.persistence.atomic_write`,
        stamped with the table's :func:`table_fingerprint`."""
        path = Path(path)
        payload = {
            "version": SAMPLES_VERSION,
            "fingerprint": table_fingerprint(self.table),
            "budget": self.budget,
            "seed": self.seed,
            "samples": [
                {
                    "filter": encode_rule(s.filter_rule),
                    "population": s.population,
                    "row_ids": s.row_ids.tolist(),
                }
                for s in self.samples
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, json.dumps(payload, separators=(",", ":")))

    def __repr__(self) -> str:
        return (
            f"TableSampleSet(budget={self.budget}, strata={len(self.strata)}, "
            f"tuples={self.memory_tuples()})"
        )


def _draw(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    """``size`` distinct positions from ``pool``, ascending.  Consumes
    the generator exactly once per partial draw (order-stable)."""
    if size >= len(pool):
        return pool.copy()
    pick = rng.choice(len(pool), size=size, replace=False)
    pick.sort()
    return pool[pick]


def _make_sample(table: Table, filt: Rule, row_ids: np.ndarray, population: int) -> Sample:
    return Sample(
        filter_rule=filt,
        scale=population / len(row_ids),
        table=table.take(row_ids),
        row_ids=row_ids,
        population=population,
    )


def build_sample_set(
    table: Table,
    *,
    budget: int,
    seed: int,
    max_strata_per_column: int = MAX_STRATA_PER_COLUMN,
) -> TableSampleSet:
    """Build the uniform + stratified samples for one table (§4.1).

    Strata candidates are the ``max_strata_per_column`` most frequent
    values of each categorical column; :func:`allocate_dp` splits
    ``budget`` tuples between the shared uniform (parent) sample and
    per-stratum top-ups, with ``minSS = budget // 4`` as the
    effective-size target.  Unspent budget flows into the uniform
    sample.  Deterministic given ``(table data, budget, seed)``.
    """
    n = table.n_rows
    if budget <= 0:
        raise ServingError("sample_budget must be a positive tuple count")
    if n == 0:
        raise ServingError("cannot sample an empty table")
    trivial = Rule.trivial(table.n_columns)
    cat_indexes = table.schema.categorical_indexes

    # Strata candidates, in deterministic (column, code) order.
    groups: list[GroupSpec] = []
    leaf_rules: dict[str, tuple[Rule, int]] = {}
    n_cat = max(len(cat_indexes), 1)
    for col_i in cat_indexes:
        col = table.categorical(col_i)
        counts = col.counts()
        order = np.argsort(-counts, kind="stable")[:max_strata_per_column]
        leaves = []
        for code in order:
            population = int(counts[int(code)])
            if population <= 0:
                continue
            fraction = min(population / n, 1.0)
            name = f"{col_i}:{int(code)}"
            leaf_rules[name] = (trivial.with_value(col_i, col.decode(int(code))), population)
            leaves.append(
                LeafSpec(name=name, probability=fraction / n_cat, selectivity=fraction)
            )
        if leaves:
            groups.append(GroupSpec(parent=UNIFORM, leaves=tuple(leaves)))

    # The uniform sample serves every expansion the strata cannot
    # (root expansions above all), so it gets a guaranteed floor of
    # half the budget; the DP splits the rest between per-stratum
    # top-ups and extra parent (= uniform) tuples.
    uniform_floor = min(n, max(1, budget // 2))
    strat_budget = budget - uniform_floor
    min_ss = max(1, min(n, budget // 4))
    sizes: dict[str, int] = {}
    if groups and strat_budget > 0:
        sizes = dict(allocate_dp(groups, strat_budget, min_ss).sizes)

    # Resolve per-stratum sizes (clamped to their populations), then let
    # the uniform sample absorb every unspent tuple of the budget
    # (including the DP's own parent allocation).
    stratum_sizes: dict[str, int] = {}
    spent = 0
    for name in sorted(leaf_rules):
        _, population = leaf_rules[name]
        size = min(int(sizes.get(name, 0)), population)
        if size > 0:
            stratum_sizes[name] = size
            spent += size
    uniform_size = min(n, uniform_floor + max(0, strat_budget - spent))

    # One generator, consumed in fixed order: uniform first, then strata
    # sorted by (column, code) — the order above.
    rng = np.random.default_rng(seed)
    all_rows = np.arange(n, dtype=np.int64)
    uniform = _make_sample(table, trivial, _draw(rng, all_rows, uniform_size), n)
    strata: dict[Rule, Sample] = {}
    for name in sorted(stratum_sizes):
        filt, population = leaf_rules[name]
        pool = np.nonzero(cover_mask(filt, table))[0].astype(np.int64)
        strata[filt] = _make_sample(
            table, filt, _draw(rng, pool, stratum_sizes[name]), population
        )
    return TableSampleSet(table, uniform, strata, budget=budget, seed=seed)


def load_sample_set(
    path: str | os.PathLike, table: Table, *, budget: int, seed: int
) -> TableSampleSet | None:
    """Rebuild a persisted sample set against ``table``.

    Returns ``None`` (never raises) whenever the file is missing,
    unreadable, or its format version, budget, seed or
    :func:`table_fingerprint` disagrees with the live table and knobs —
    the caller rebuilds and re-persists.  Row ids are bounds-checked so
    a corrupt file cannot index out of the table.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if (
            payload.get("version") != SAMPLES_VERSION
            or payload.get("budget") != int(budget)
            or payload.get("seed") != int(seed)
            or payload.get("fingerprint") != table_fingerprint(table)
        ):
            return None
        records = payload["samples"]
        if not records:
            return None
        uniform: Sample | None = None
        strata: dict[Rule, Sample] = {}
        for record in records:
            filt = decode_rule(record["filter"])
            row_ids = np.asarray(record["row_ids"], dtype=np.int64)
            population = int(record["population"])
            if row_ids.ndim != 1 or len(row_ids) == 0:
                return None
            if row_ids.min() < 0 or row_ids.max() >= table.n_rows:
                return None
            if not population >= len(row_ids):
                return None
            sample = _make_sample(table, filt, row_ids, population)
            if filt.is_trivial:
                uniform = sample
            else:
                strata[filt] = sample
        if uniform is None:
            return None
        return TableSampleSet(table, uniform, strata, budget=int(budget), seed=int(seed))
    except (OSError, ValueError, KeyError, TypeError, ReproError):
        return None
