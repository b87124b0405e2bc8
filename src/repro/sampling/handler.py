"""The SampleHandler — paper Section 4.3.

Maintains a set of :class:`~repro.sampling.sample.Sample` objects in a
tuple-budget ``M`` and serves every drill-down's need for a uniform
sample of the clicked rule's cover, preferring cheap mechanisms:

* **Find** — an existing sample with exactly this filter rule and
  ≥ ``minSS`` tuples;
* **Combine** — tuples covered by the rule, pooled from all samples
  whose filter is a sub-rule (each such sample restricted to the rule's
  cover is uniform over it); pooled rows are de-duplicated by global
  row id and the pool's scale is estimated from the contributors;
* **Create** — one metered streaming pass over the
  :class:`~repro.storage.DiskTable`, reservoir-sampling *every*
  requested rule simultaneously (the paper's "create a sample of size
  n_r for each displayed r in a single pass") and recording exact
  cover counts as scale factors.

Allocation of the Create pass's sizes delegates to the Section 4.1 DP
(:func:`repro.sampling.allocation.allocate_dp`) or the Section 4.2
convex relaxation, per the ``allocator`` argument.  ``prefetch`` runs
the same machinery ahead of the user's next click (§4.3 Pre-fetching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

import numpy as np

from repro.core.rule import Rule, cover_mask
from repro.errors import SamplingError
from repro.sampling.allocation import GroupSpec, LeafSpec, allocate_dp
from repro.sampling.convex import problem_from_groups, solve_lp
from repro.sampling.reservoir import MultiReservoir
from repro.sampling.sample import Sample
from repro.storage.disk import DiskTable

__all__ = ["AccessEvent", "SampleHandler"]

Method = Literal["find", "combine", "create"]


@dataclass(frozen=True)
class AccessEvent:
    """Log entry for one ``get_sample`` call (drives the experiments)."""

    rule: Rule
    method: Method
    sample_size: int
    simulated_seconds: float
    prefetched: bool = False


class SampleHandler:
    """Creates, maintains, retrieves and evicts samples (§4.3).

    Parameters
    ----------
    source:
        The disk-resident table.
    memory_capacity:
        ``M`` — total tuples across all retained samples.
    min_sample_size:
        ``minSS`` — the smallest sample BRS may run on.
    allocator:
        ``"dp"`` (Section 4.1) or ``"convex"`` (Section 4.2 LP) for
        Create-pass size allocation.
    oversample:
        Create passes draw the clicked rule's sample at
        ``oversample × minSS`` (capped by the budget).  Samples sized
        at exactly ``minSS`` could never serve a *strict* sub-drill via
        Combine — restricting them always loses tuples — so headroom is
        what makes the paper's Find/Combine fast path reachable
        (its defaults leave ``M = 10 × minSS`` of room).
    budget_unit:
        ``"tuples"`` (the paper's headline accounting) or ``"cells"``
        (the §4.2 storage optimisation: columns fixed by a sample's
        filter rule cost nothing, so deeper samples are cheaper and
        more of them fit in the same budget).
    rng:
        Seeded generator; all sampling randomness flows through it.
    """

    def __init__(
        self,
        source: DiskTable,
        *,
        memory_capacity: int = 50_000,
        min_sample_size: int = 5_000,
        allocator: Literal["dp", "convex"] = "dp",
        oversample: float = 3.0,
        budget_unit: Literal["tuples", "cells"] = "tuples",
        rng: np.random.Generator | None = None,
    ):
        if min_sample_size < 1:
            raise SamplingError("min_sample_size must be >= 1")
        if memory_capacity < min_sample_size:
            raise SamplingError("memory_capacity must be >= min_sample_size")
        if oversample < 1.0:
            raise SamplingError("oversample must be >= 1")
        if budget_unit not in ("tuples", "cells"):
            raise SamplingError("budget_unit must be 'tuples' or 'cells'")
        self._source = source
        self.memory_capacity = memory_capacity
        self.min_sample_size = min_sample_size
        self.allocator = allocator
        self.oversample = oversample
        self.budget_unit = budget_unit
        self._rng = rng or np.random.default_rng(0)
        self._samples: dict[Rule, Sample] = {}
        self._access_order: list[Rule] = []  # LRU, most recent last
        self.events: list[AccessEvent] = []

    # -- introspection --------------------------------------------------------

    @property
    def source(self) -> DiskTable:
        return self._source

    @property
    def samples(self) -> Mapping[Rule, Sample]:
        return dict(self._samples)

    def memory_used(self) -> int:
        """Current budget usage, in :attr:`budget_unit` units."""
        if self.budget_unit == "cells":
            return sum(s.memory_cells() for s in self._samples.values())
        return sum(s.memory_tuples() for s in self._samples.values())

    # -- internal bookkeeping ---------------------------------------------------

    def _touch(self, rule: Rule) -> None:
        if rule in self._access_order:
            self._access_order.remove(rule)
        self._access_order.append(rule)

    def _store(self, sample: Sample, *, protected: Sequence[Rule] = ()) -> None:
        self._samples[sample.filter_rule] = sample
        self._touch(sample.filter_rule)
        self._evict(protected=protected)

    def _evict(self, *, protected: Sequence[Rule] = ()) -> None:
        """Drop least-recently-used samples until within the budget."""
        protected_set = set(protected)
        while self.memory_used() > self.memory_capacity:
            victim = next(
                (r for r in self._access_order if r not in protected_set),
                None,
            )
            if victim is None:
                # Everything is protected; shrink the largest protected
                # sample rather than exceed the budget.
                largest = max(self._samples.values(), key=lambda s: s.size)
                self._shrink(largest)
                continue
            self._access_order.remove(victim)
            del self._samples[victim]

    def _shrink(self, sample: Sample) -> None:
        overshoot = self.memory_used() - self.memory_capacity
        if self.budget_unit == "cells":
            # The overshoot is in cells; drop the fewest tuples that free it.
            per_tuple = max(sample.memory_cells() // sample.size, 1)
            overshoot = -(-overshoot // per_tuple)
        keep = max(sample.size - overshoot, self.min_sample_size)
        if keep >= sample.size:
            raise SamplingError("memory budget too small for the protected samples")
        idx = np.sort(self._rng.choice(sample.size, size=keep, replace=False))
        shrunk = Sample(
            filter_rule=sample.filter_rule,
            scale=sample.population / keep if keep else sample.scale,
            table=sample.table.take(idx),
            row_ids=sample.row_ids[idx],
            population=sample.population,
        )
        self._samples[sample.filter_rule] = shrunk

    def _create_size(self) -> int:
        """Sample size for a directly requested Create (with headroom)."""
        return max(
            self.min_sample_size,
            min(int(self.min_sample_size * self.oversample), self.memory_capacity),
        )

    # -- the three mechanisms -----------------------------------------------------

    def _find(self, rule: Rule) -> Sample | None:
        """Find: an existing sample with this exact filter and ≥ minSS rows."""
        sample = self._samples.get(rule)
        if sample is not None and sample.size >= self.min_sample_size:
            self._touch(rule)
            return sample
        return None

    def _combine(self, rule: Rule) -> Sample | None:
        """Combine: pool covered tuples from sub-rule-filtered samples.

        Every sample whose filter is a sub-rule of ``rule`` covers a
        superset of ``rule``'s tuples, so its restriction to the cover
        is a uniform sample of it.  Pooled rows are de-duplicated by
        row id; the pooled scale is ``(estimated cover count) / (pool
        size)``, with the cover count estimated from the largest
        contributor (lowest-variance single estimate).
        """
        contributors = [
            s for s in self._samples.values() if s.filter_rule.is_subrule_of(rule)
        ]
        if not contributors:
            return None
        # Deduplicate by row id, preferring the first occurrence; take the
        # cover-count estimate from the largest contributor.
        seen: set[int] = set()
        pooled_ids: list[int] = []
        pooled_tables = []
        best_estimate = 0.0
        best_size = -1
        for sample in contributors:
            ids, covered_table = sample.restrict(rule)
            if sample.size > best_size:
                best_size = sample.size
                best_estimate = ids.size * sample.scale
            fresh_positions = [i for i, rid in enumerate(ids) if int(rid) not in seen]
            if fresh_positions:
                seen.update(int(ids[i]) for i in fresh_positions)
                pooled_ids.extend(int(ids[i]) for i in fresh_positions)
                pooled_tables.append(
                    covered_table.take(np.asarray(fresh_positions, dtype=np.int64))
                )
        total = len(pooled_ids)
        if total < self.min_sample_size:
            return None
        pooled = pooled_tables[0]
        for extra in pooled_tables[1:]:
            pooled = pooled.concat(extra)
        population = max(int(round(best_estimate)), total)
        combined = Sample(
            filter_rule=rule,
            scale=population / total,
            table=pooled,
            row_ids=np.asarray(pooled_ids, dtype=np.int64),
            population=population,
        )
        self._store(combined)
        return combined

    def _create(
        self,
        rules: Mapping[Rule, int],
        *,
        protected: Sequence[Rule] = (),
    ) -> dict[Rule, Sample]:
        """Create: one metered pass building a sample per requested rule."""
        capacities = {rule: max(size, 1) for rule, size in rules.items()}
        reservoir = MultiReservoir(capacities, self._rng)
        scan = self._source.scan()
        for row_ids, chunk in scan:
            reservoir.offer_chunk(row_ids, chunk)
        counts = reservoir.counts()
        created: dict[Rule, Sample] = {}
        for rule, ids in reservoir.results().items():
            population = counts[rule]
            if ids.size == 0:
                continue
            table = self._source.fetch_buffered(ids)
            sample = Sample(
                filter_rule=rule,
                scale=population / ids.size,
                table=table,
                row_ids=ids,
                population=population,
            )
            self._store(sample, protected=list(protected) + list(rules))
            created[rule] = sample
        return created

    # -- public API ------------------------------------------------------------------

    def get_sample(
        self,
        rule: Rule,
        *,
        co_create: Mapping[Rule, int] | None = None,
        prefetched: bool = False,
    ) -> tuple[Sample, Method]:
        """Return a ≥ ``minSS`` uniform sample of ``rule``'s cover.

        Tries Find, then Combine, then a metered Create pass.  When the
        pass happens anyway, ``co_create`` rules are sampled in the
        same pass at the given sizes (the §4.3 batching optimisation).
        """
        before = self._source.io_stats.simulated_seconds
        sample = self._find(rule)
        method: Method = "find"
        if sample is None:
            sample = self._combine(rule)
            method = "combine"
        if sample is None:
            method = "create"
            requests: dict[Rule, int] = {rule: self._create_size()}
            for extra, size in (co_create or {}).items():
                if extra != rule and size > 0:
                    requests[extra] = size
            created = self._create(requests)
            sample = created.get(rule)
            if sample is None or sample.size == 0:
                raise SamplingError(f"rule {rule} covers no tuples; cannot sample")
        elapsed = self._source.io_stats.simulated_seconds - before
        self.events.append(
            AccessEvent(
                rule=rule,
                method=method,
                sample_size=sample.size,
                simulated_seconds=elapsed,
                prefetched=prefetched,
            )
        )
        return sample, method

    def exact_counts(self, rules: Sequence[Rule]) -> dict[Rule, int]:
        """Exact cover counts for ``rules`` in one metered pass (§4.3).

        The paper piggy-backs this on background Create passes: "while
        we are making the pass in the background, we can find the exact
        counts for currently displayed rules … and update them when our
        pass is complete".  Zero-capacity reservoirs reuse the
        MultiReservoir counting path without storing any tuples.
        """
        if not rules:
            return {}
        reservoir = MultiReservoir({rule: 0 for rule in rules}, self._rng)
        for row_ids, chunk in self._source.scan():
            reservoir.offer_chunk(row_ids, chunk)
        return reservoir.counts()

    def effective_sample_size(self, rule: Rule) -> int:
        """``ess(rule)``: tuples available for ``rule`` without disk I/O."""
        seen: set[int] = set()
        for sample in self._samples.values():
            if sample.filter_rule.is_subrule_of(rule):
                ids, _ = sample.restrict(rule)
                seen.update(int(i) for i in ids)
        return len(seen)

    def plan_allocation(
        self,
        groups: Sequence[GroupSpec],
        *,
        min_sample_size: int | None = None,
    ) -> dict[str, int]:
        """Allocate Create-pass sizes for a displayed tree (§4.1/§4.2)."""
        if not groups:
            return {}
        target = min_sample_size or self.min_sample_size
        if self.allocator == "convex":
            problem = problem_from_groups(groups, self.memory_capacity, target)
            return solve_lp(problem).rounded_sizes()
        result = allocate_dp(groups, self.memory_capacity, target)
        return result.sizes

    def prefetch(
        self,
        parent: Rule,
        leaves: Sequence[Rule],
        *,
        probabilities: Sequence[float] | None = None,
        safety: float = 1.2,
    ) -> dict[Rule, Sample]:
        """Pre-fetch samples for likely next drill-downs (§4.3).

        Estimates selectivities from the parent's sample, allocates
        sizes with the configured allocator, and runs one Create pass
        for the leaves that cannot already be served from memory.
        Returns the newly created samples.

        ``safety`` inflates the planning target above ``minSS``: the
        allocation model counts *expected* parent-sample contributions
        (``S·n_parent``), but the realised contribution is binomial, so
        planning at exactly ``minSS`` misses it about half the time.
        """
        probs = (
            list(probabilities)
            if probabilities is not None
            else [1.0 / len(leaves)] * len(leaves)
        )
        if len(probs) != len(leaves):
            raise SamplingError("probabilities must align with leaves")
        if safety < 1.0:
            raise SamplingError("safety factor must be >= 1")
        needy = [
            leaf for leaf in leaves if self.effective_sample_size(leaf) < self.min_sample_size
        ]
        if not needy:
            return {}
        prob_of = dict(zip(leaves, probs))
        parent_sample = self._samples.get(parent)
        leaf_specs = []
        for leaf in needy:
            if parent_sample is not None and parent_sample.size:
                covered = float(cover_mask(leaf, parent_sample.table).sum())
                selectivity = max(covered / parent_sample.size, 1e-6)
            else:
                selectivity = 0.1
            leaf_specs.append(
                LeafSpec(
                    name=repr(leaf),
                    probability=prob_of.get(leaf, 0.0),
                    selectivity=min(selectivity, 1.0),
                )
            )
        group = GroupSpec(parent=repr(parent), leaves=tuple(leaf_specs))
        sizes = self.plan_allocation(
            [group], min_sample_size=int(np.ceil(self.min_sample_size * safety))
        )
        requests = {
            leaf: sizes.get(repr(leaf), 0)
            for leaf in needy
            if sizes.get(repr(leaf), 0) > 0
        }
        # The allocator may satisfy a leaf through the *parent's* sample
        # (category 1); grow the parent sample when the plan sizes it
        # beyond what is currently held.
        parent_target = sizes.get(repr(parent), 0)
        current_parent = self._samples.get(parent)
        if parent_target > (current_parent.size if current_parent else 0):
            requests[parent] = parent_target
        if not requests:
            return {}
        before = self._source.io_stats.simulated_seconds
        created = self._create(requests)
        elapsed = self._source.io_stats.simulated_seconds - before
        for rule, sample in created.items():
            self.events.append(
                AccessEvent(
                    rule=rule,
                    method="create",
                    sample_size=sample.size,
                    simulated_seconds=elapsed / max(len(created), 1),
                    prefetched=True,
                )
            )
        return created
