"""Frozen workload definitions, table generation and seeded transcripts.

The tables are part of the frozen workload (fixed generator seeds: a
deployment's data does not change with who clicks); what ``--seed``
varies is the traffic — session scripts and append batches.  The
launcher and the benchmark process both call :func:`build_table`, so
the oracle mines exactly the rows the tier serves without any table
crossing a pipe.

A session script is *index based*: a step says "expand the leaf 37 %
of the way down what is displayed now" or "expand child #2 of the
root", never a concrete rule, so the replies decide the path.  Script
choices are drawn from shuffled decks (:class:`Stratified`, the rounds
of the ``siblings`` script), not independently: every seed plays nearly
the same multiset of clicks in a different order, so a ten-second window
measures the system and not the luck of the draw.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.datasets import generate_census, generate_marketing, generate_retail
from repro.experiments import MARKETING_7_COLUMNS
from repro.table.table import Table

CPU_COUNT = os.cpu_count() or 1
#: Closed-loop analysts; never more threads/connections than cores.
MAX_CLIENTS = min(2, CPU_COUNT)

APPEND_ROWS = 200
#: Appends land before every Nth session of a client.
APPEND_EVERY = 5


@dataclass(frozen=True)
class Workload:
    """One frozen traffic mix.  ``why`` is the line BENCHMARK.json carries."""

    name: str
    why: str
    #: ``{"kind": "server" | "router", "kwargs": {...}}`` for the launcher.
    tier: dict
    clients: int
    #: Table specs for :func:`build_table` (``seed`` is filled per run).
    tables: tuple
    #: ``POST /sessions`` knobs shared by every session.
    session: dict
    #: ``clicks`` = expand root + 2 seeded expands of any leaf + render;
    #: ``siblings`` = expand root + 2 of its children + render, dealt so
    #: that every ``k`` sessions expand each child exactly twice;
    #: ``mix`` = expand root + 5 mixed expand/star/collapse/render/tree.
    script: str
    #: Share of non-root expands sent as ``expand_star``.
    star_share: float = 0.0
    #: Extra body fields on every expand (approximate serving).
    expand_extra: dict = field(default_factory=dict)
    #: Tables that receive appends.  Where sessions must not see new
    #: versions the target is a side table no session opens, so
    #: ``append_p50_ms`` exists on every workload without changing what
    #: the workload stresses.
    append_tables: tuple = ()

    @property
    def session_tables(self) -> list[str]:
        """Tables sessions open: every table but the append-only side table."""
        return [t["name"] for t in self.tables if t is not _SIDE]


def _census(name: str, rows: int, columns: int) -> dict:
    return {"name": name, "dataset": "census", "rows": rows, "columns": columns}


_SIDE = _census("side", 20_000, 6)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="shared_clicks",
            why="Many short sessions with identical knobs on small tables: contexts hit and "
                "mining is ~free, so HTTP, facade, registry, clone and encoding do the "
                "work; a kernel or search change must show nothing.",
            tier={"kind": "server", "kwargs": {}},
            clients=MAX_CLIENTS,
            tables=({"name": "retail", "dataset": "retail"},
                    {"name": "marketing", "dataset": "marketing7"}, _SIDE),
            session={"wf": "size", "k": 3, "mw": 5.0},
            script="clicks",
            star_share=0.5,
            append_tables=("side",),
        ),
        Workload(
            name="cold_mining",
            why="One analyst, a big table, nothing shared (share_contexts=False): search "
                "and count_extensions_kernel dominate expand latency and HTTP is noise; "
                "a serving-overhead change must show almost nothing here.",
            tier={"kind": "server", "kwargs": {"share_contexts": False}},
            clients=1,
            tables=(_census("census_a", 200_000, 8), _SIDE),
            session={"wf": "size", "k": 5, "mw": 5.0},
            # Not "clicks": with nothing shared a node's cost is its cover
            # (64-290 ms here), a 15 s window holds ~30 expands, and a free
            # draw gave every seed another mix of cost classes (expand
            # median 122 ms on one seed, 228 on the next).  A balanced deal
            # gives every seed the same multiset.
            script="siblings",
            append_tables=("side",),
        ),
        Workload(
            name="sharded_mix",
            why="Same engine behind router, pipe codec and shard hop, with appends "
                "minting table versions beside mixed-tenant reads; a change that speeds "
                "reads by making appends or version pins dearer shows here.",
            tier={"kind": "router", "kwargs": {"n_shards": MAX_CLIENTS}},
            clients=MAX_CLIENTS,
            tables=tuple(_census(f"census_{i}", 50_000, 6) for i in range(4)),
            session={"wf": "size", "k": 3, "mw": 5.0},
            script="mix",
            star_share=0.3,
            append_tables=tuple(f"census_{i}" for i in range(4)),
        ),
        Workload(
            name="approx_large",
            why="Paper section 4: every expand is approximate on 4k-tuple samples of a "
                "500k-row table; sampling, estimation and escalation-to-exact do the "
                "work and escalations set the tail.",
            # Nothing shared and one analyst, or the workload is not
            # stationary: shared contexts turn every node's second visit
            # into a clone, and a second analyst queues on the GIL behind
            # each escalation.
            tier={"kind": "server",
                  "kwargs": {"sample_budget": 4000, "share_contexts": False}},
            clients=1,
            tables=(_census("census_big", 500_000, 8), _SIDE),
            session={"wf": "size", "k": 3, "mw": 5.0},
            script="clicks",
            # 0.4, not the 0.3 first proposed: at 0.3 some 29 % of expands
            # escalate and the median sits on the edge between the two
            # clusters (68-114 ms across seeds); at 0.4 some 10 % do, the
            # median is inside the sample-mining cluster and escalations
            # still set the tail.
            expand_extra={"approx": True, "error_target": 0.4},
            append_tables=("side",),
        ),
    )
}

#: ``--smoke`` divides census row counts by this.
SMOKE_SHRINK = 20


def table_specs(workload: Workload, *, smoke: bool = False) -> list[dict]:
    """The workload's table specs with their fixed generator seeds."""
    specs = []
    for index, spec in enumerate(workload.tables):
        spec = dict(spec, seed=1990 + index)
        if smoke and "rows" in spec:
            spec["rows"] = max(2_000, spec["rows"] // SMOKE_SHRINK)
        specs.append(spec)
    return specs


def build_table(spec: dict) -> Table:
    """Generate one table from its spec (launcher and oracle share this)."""
    dataset = spec["dataset"]
    if dataset == "retail":
        return generate_retail(seed=spec["seed"])
    if dataset == "marketing7":  # the paper's 7-column display subset (section 5.1)
        return generate_marketing(seed=spec["seed"]).select(list(MARKETING_7_COLUMNS))
    if dataset == "census":
        return generate_census(spec["rows"], n_columns=spec["columns"], seed=spec["seed"])
    raise ValueError(f"unknown dataset {dataset!r}")


def append_batch(base: Table, table_name: str, seed: int, batch_no: int) -> list[list]:
    """Batch ``batch_no`` (1-based) of rows appended to ``table_name``.

    Rows are re-draws of the base table's own rows, so dictionaries do
    not grow and the catalog's delta-fold path (not the cold rebuild)
    is what an append exercises.  Keyed by table and batch number only:
    version ``v`` of a table is always base + batches ``1..v-1``,
    whichever client sent them.
    """
    rng = random.Random(f"{seed}/{table_name}/{batch_no}")
    return [list(base.row(rng.randrange(base.n_rows))) for _ in range(APPEND_ROWS)]


class Stratified:
    """Uniform draws on [0, 1) dealt from a shuffled deck of midpoints.

    ``DECK`` consecutive draws cover the unit interval evenly whatever
    the seed; only their order is random.  The deck is small so that
    even the slowest workload (a dozen sessions per window) deals most
    of one.
    """

    DECK = 12

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._deck: list[float] = []

    def next(self) -> float:
        if not self._deck:
            self._deck = [(i + 0.5) / self.DECK for i in range(self.DECK)]
            self._rng.shuffle(self._deck)
        return self._deck.pop()


_MIX_OPS = ("expand", "collapse", "render", "tree")
_MIX_CUTS = (0.60, 0.75, 0.90, 1.0)  # cumulative shares of _MIX_OPS


class ScriptSource:
    """One client's endless stream of session scripts."""

    def __init__(self, rng: random.Random, workload: Workload):
        self.workload = workload
        self._rng = rng
        # One deck per decision, so no two decisions are correlated.
        self._table, self._op, self._star, self._pick, self._column = (
            Stratified(rng) for _ in range(5)
        )
        self._pairs: list[tuple[int, int]] = []

    def start_round(self) -> None:
        """Drop what is left of the ``siblings`` round being dealt, so a
        measured window opens on a round boundary whatever the warm-up
        consumed."""
        self._pairs.clear()

    def _sibling_steps(self) -> list[tuple]:
        """Two distinct children of the root, by index.

        A round is ``k`` sessions: a shuffled ``i`` with ``(i + d) % k``
        for one ``d`` per round, so each child is expanded exactly once
        first and once second.  Every seed plays the same multiset of
        clicks per round; order and pairing are what it varies.
        """
        if not self._pairs:
            k = self.workload.session["k"]
            firsts = list(range(k))
            self._rng.shuffle(firsts)
            d = self._rng.randrange(1, k)
            self._pairs = [(i, (i + d) % k) for i in firsts]
        first, second = self._pairs.pop()
        return [("child", first), ("child", second), ("render",)]

    def _expand_step(self) -> tuple:
        if self._star.next() < self.workload.star_share:
            return ("star", self._pick.next(), self._column.next())
        return ("expand", self._pick.next())

    def next(self) -> dict:
        """One session: table choice plus steps with fractional picks.

        Every session is create → expand root → steps → delete; a pick
        ``u`` means item ``int(u * n)`` of the ``n`` displayed candidates,
        a ``child`` step names one of the root's children by index.
        """
        tables = self.workload.session_tables
        table = tables[int(self._table.next() * len(tables))]
        if self.workload.script == "clicks":
            steps = [self._expand_step(), self._expand_step(), ("render",)]
        elif self.workload.script == "siblings":
            steps = self._sibling_steps()
        else:
            steps = []
            for _ in range(5):
                u = self._op.next()
                op = next(o for o, cut in zip(_MIX_OPS, _MIX_CUTS) if u < cut)
                if op == "expand":
                    steps.append(self._expand_step())
                elif op == "collapse":
                    steps.append(("collapse", self._pick.next()))
                else:
                    steps.append((op,))
        return {"table": table, "steps": steps}
