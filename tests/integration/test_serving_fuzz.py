"""Multi-tenant workload replay: three serving stacks, one transcript.

Extends the randomised session-fuzz approach (``test_session_fuzz.py``)
up the serving stack: generate randomised multi-tenant op sequences —
create / expand / star-expand / traditional-expand / collapse / render
/ close, interleaved across tenants and tables — and replay the same
transcript against

(a) standalone :class:`~repro.session.DrillDownSession` objects,
(b) a one-process :class:`~repro.serving.DrillDownServer`, and
(c) an N-shard :class:`~repro.serving.ShardRouter` (N ∈ {1, 2, 4}),

asserting after every step that all three agree *exactly*: the same
children (rules, counts, weights, estimate metadata) for every
expansion, the same typed error class for every rejected op, and
byte-identical renders — the ISSUE 5 acceptance criterion that
sharding changes where work runs, never what any tenant sees.

The op generator deliberately does not avoid invalid operations
(re-expanding an expanded rule, collapsing a leaf): error *parity* is
part of the contract the serving layers must preserve.

The approx dimension (ISSUE 7): with ``sample_budget`` set the serving
tiers pre-build samples at registration while the standalone replica
builds the same set by hand (same table bytes, same derived seed), so

* ``approx=False`` transcripts must stay identical to a run with no
  sampling at all — registration-time sampling is invisible to exact
  expansions, and
* seeded ``approx=True`` transcripts must produce the *same estimates
  and confidence metadata* on every backend, including the shard
  workers that rebuild samples from wire-decoded tables.

The append/version dimension (ISSUE 10): with ``append_prob`` set the
generator interleaves ``append_rows`` ops — each creates a new table
version on both serving tiers while the standalone side mirrors the
append with the same deterministic :meth:`Table.append_rows`.
Sessions opened *before* an append stay pinned to their version
(their renders must not move by a byte); sessions opened *after* see
the appended table and must match a standalone session built directly
over it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.serving import DrillDownServer, ShardRouter, build_sample_set, derive_seed
from repro.session import DrillDownSession
from tests.conftest import random_table

pytestmark = [pytest.mark.serving, pytest.mark.slow]

N_TABLES = 3
MAX_LIVE_SESSIONS = 5
TENANTS = ("alice", "bob", "carol")


def _make_tables(seed: int) -> dict:
    rng = np.random.default_rng(1000 + seed)
    tables = {}
    for i in range(N_TABLES):
        tables[f"table-{i}"] = random_table(
            rng,
            n_rows=int(rng.integers(40, 90)),
            n_columns=3,
            domain=int(rng.integers(3, 5)),
        )
    return tables


class _Replica:
    """One client session replicated across the three backends."""

    def __init__(self, table_name, standalone, server_sid, router_sid):
        self.table_name = table_name
        self.standalone = standalone
        self.server_sid = server_sid
        self.router_sid = router_sid


def _estimate_key(estimate: dict | None):
    """An estimate dict as a hashable, order-independent tuple."""
    if estimate is None:
        return None
    return tuple(sorted(estimate.items()))


def _outcome(fn):
    """Run one backend's op; normalise to comparable plain data."""
    try:
        result = fn()
    except ReproError as exc:
        return ("error", type(exc).__name__)
    if result is None:
        return ("ok", None)
    if isinstance(result, str):
        return ("ok", result)
    return (
        "ok",
        tuple(
            (tuple(c.rule), c.count, c.weight, c.depth, _estimate_key(c.estimate))
            for c in result
        ),
    )


def _assert_same(step: int, op: str, outcomes: dict) -> None:
    values = list(outcomes.values())
    assert values[0] == values[1] == values[2], (
        f"step {step}: backends diverged on {op!r}:\n"
        + "\n".join(f"  {name}: {out!r}" for name, out in outcomes.items())
    )


def _renders(replica, server, router) -> dict:
    return {
        "standalone": _outcome(replica.standalone.to_text),
        "server": _outcome(lambda: server.render(replica.server_sid)),
        "router": _outcome(lambda: router.render(replica.router_sid)),
    }


def run_replay(
    seed: int,
    n_shards: int,
    steps: int = 25,
    *,
    default_deadline: float | None = None,
    sample_budget: int | None = None,
    approx: bool = False,
    append_prob: float = 0.0,
    share_contexts: bool = True,
) -> int:
    rng = np.random.default_rng(seed)
    tables = _make_tables(seed)
    performed = 0
    # The standalone replica mirrors the catalog's registration-time
    # sampling by hand: same table bytes, same per-name derived seed.
    standalone_samples: dict[str, object] = {}
    if approx:
        assert sample_budget is not None, "approx replay needs a sample_budget"
        for name, table in tables.items():
            standalone_samples[name] = build_sample_set(
                table, budget=sample_budget, seed=derive_seed(name, 0)
            )
    with DrillDownServer(
        default_deadline=default_deadline, sample_budget=sample_budget,
        share_contexts=share_contexts,
    ) as server, ShardRouter(
        n_shards, default_deadline=default_deadline, sample_budget=sample_budget,
        share_contexts=share_contexts,
    ) as router:
        for name, table in tables.items():
            server.register_table(name, table)
            router.register_table(name, table)
        live: list[_Replica] = []
        closed_ids: set[str] = set()

        def create() -> None:
            name = f"table-{rng.integers(N_TABLES)}"
            tenant = TENANTS[int(rng.integers(len(TENANTS)))]
            k = int(rng.integers(2, 4))
            mw = float(rng.choice([3.0, 5.0]))
            table = tables[name]
            replica = _Replica(
                name,
                DrillDownSession(
                    table, k=k, mw=mw, samples=standalone_samples.get(name)
                ),
                server.create_session(name, tenant=tenant, k=k, mw=mw),
                router.create_session(name, tenant=tenant, k=k, mw=mw),
            )
            assert router.shard_of_session(replica.router_sid) == router.shard_of_table(name)
            live.append(replica)

        for step in range(steps):
            if append_prob and rng.random() < append_prob:
                # Append to a random table on both serving tiers and
                # mirror it standalone with the same deterministic
                # Table.append_rows.  Live replicas keep their pinned
                # pre-append sessions; replicas created after this step
                # open over the appended table on every backend.
                name = f"table-{rng.integers(N_TABLES)}"
                new_rows = [
                    tuple(f"v{rng.integers(7)}" for _ in range(3))
                    for _ in range(int(rng.integers(1, 4)))
                ]
                server_record = server.append_rows(name, new_rows)
                router_record = router.append_rows(name, new_rows)
                assert server_record["version"] == router_record["version"], (
                    f"step {step}: version skew after append on {name!r}"
                )
                tables[name] = tables[name].append_rows(new_rows)
                assert server_record["rows"] == tables[name].n_rows
                performed += 1
                continue
            if not live or (len(live) < MAX_LIVE_SESSIONS and rng.random() < 0.25):
                create()
                performed += 1
                continue
            replica = live[int(rng.integers(len(live)))]
            nodes = replica.standalone.displayed()
            node = nodes[int(rng.integers(len(nodes)))]
            rule = node.rule
            action = str(
                rng.choice(["expand", "star", "traditional", "collapse", "render", "close"],
                           p=[0.3, 0.2, 0.1, 0.15, 0.15, 0.1])
            )
            if action in ("star", "traditional"):
                stars = rule.star_indexes
                if not stars:
                    continue  # fully instantiated rule: no ? cell to click
                column = int(rng.choice(stars))
            if action == "close":
                outcomes = {
                    "standalone": _outcome(lambda: live.remove(replica) or replica.standalone.close()),
                    "server": ("ok", None if server.close_session(replica.server_sid) else "gone"),
                    "router": ("ok", None if router.close_session(replica.router_sid) else "gone"),
                }
                _assert_same(step, action, outcomes)
                closed_ids.add(replica.router_sid)
                performed += 1
                continue
            if action == "render":
                _assert_same(step, action, _renders(replica, server, router))
                performed += 1
                continue
            # Approx runs mix error targets, including one tight enough
            # to force the escalate-to-exact path through every backend.
            ap = True if approx else None
            et = float(rng.choice([0.5, 0.25, 1e-9])) if approx else None
            if action == "expand":
                k = None if rng.random() < 0.5 else int(rng.integers(2, 4))
                outcomes = {
                    "standalone": _outcome(
                        lambda: replica.standalone.expand(rule, k=k, approx=ap, error_target=et)
                    ),
                    "server": _outcome(
                        lambda: server.expand(
                            replica.server_sid, rule, k=k, approx=ap, error_target=et
                        )
                    ),
                    "router": _outcome(
                        lambda: router.expand(
                            replica.router_sid, rule, k=k, approx=ap, error_target=et
                        )
                    ),
                }
            elif action == "star":
                outcomes = {
                    "standalone": _outcome(
                        lambda: replica.standalone.expand_star(
                            rule, column, approx=ap, error_target=et
                        )
                    ),
                    "server": _outcome(
                        lambda: server.expand_star(
                            replica.server_sid, rule, column, approx=ap, error_target=et
                        )
                    ),
                    "router": _outcome(
                        lambda: router.expand_star(
                            replica.router_sid, rule, column, approx=ap, error_target=et
                        )
                    ),
                }
            elif action == "traditional":
                outcomes = {
                    "standalone": _outcome(
                        lambda: replica.standalone.expand_traditional(
                            rule, column, k=3, approx=ap, error_target=et
                        )
                    ),
                    "server": _outcome(
                        lambda: server.expand_traditional(
                            replica.server_sid, rule, column, k=3, approx=ap, error_target=et
                        )
                    ),
                    "router": _outcome(
                        lambda: router.expand_traditional(
                            replica.router_sid, rule, column, k=3, approx=ap, error_target=et
                        )
                    ),
                }
            else:  # collapse
                outcomes = {
                    "standalone": _outcome(lambda: replica.standalone.collapse(rule)),
                    "server": _outcome(lambda: server.collapse(replica.server_sid, rule)),
                    "router": _outcome(lambda: router.collapse(replica.router_sid, rule)),
                }
            _assert_same(step, action, outcomes)
            # After every mutating step the acting session must render
            # identically everywhere — the tightest possible invariant.
            _assert_same(step, f"render-after-{action}", _renders(replica, server, router))
            performed += 1

        # Endgame: every still-live session agrees in full, and every
        # closed id is equally dead on both serving stacks.
        for replica in live:
            _assert_same(steps, "final-render", _renders(replica, server, router))
        for sid in closed_ids:
            assert router.close_session(sid) is False
    return performed


class TestMultiTenantReplayParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_replay_is_bit_identical_across_backends(self, seed, n_shards):
        performed = run_replay(seed, n_shards)
        assert performed >= 15  # the transcript really exercised the tiers

    def test_replay_touches_every_op_kind(self):
        """One long deterministic run covering all actions (sanity that
        the generator's distribution does not silently degenerate)."""
        performed = run_replay(7, 2, steps=60)
        assert performed >= 40

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_replay_unchanged_by_registration_time_sampling(self, seed, n_shards):
        """Registering tables under a ``sample_budget`` must not perturb
        exact serving: the standalone replica has *no* samples at all,
        yet every exact expansion/render still matches the sampled
        tiers byte for byte — sampling is pay-only-when-asked."""
        performed = run_replay(seed, n_shards, sample_budget=32)
        assert performed >= 15

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_approx_replay_is_bit_identical_across_backends(self, seed, n_shards):
        """Seeded approximate transcripts — estimates, confidence
        metadata, and escalations included in every outcome tuple —
        agree exactly across standalone/one-process/N-shard backends.
        The shard workers rebuild samples from wire-decoded tables, so
        this pins that decode produces bit-identical draws."""
        performed = run_replay(seed, n_shards, sample_budget=32, approx=True)
        assert performed >= 15

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_replay_parity_with_private_contexts(self, seed, n_shards):
        """The context-sharing dimension: with ``share_contexts=False``
        every serving session builds its own lattices, so equality with
        the standalone replica here, next to the shared-store runs
        above, is a byte-level proof that leasing a shared context
        changes latency, never transcripts."""
        performed = run_replay(seed, n_shards, share_contexts=False)
        assert performed >= 15

    @pytest.mark.versioning
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replay_with_interleaved_appends(self, seed, n_shards):
        """The append/version dimension: randomly interleaved
        ``append_rows`` ops must leave every pre-append (pinned)
        session's transcript untouched and every post-append session
        byte-equal to a standalone session over the appended table —
        across the one-process server and 1/2/4-shard routers and the
        shard wire protocol's append op."""
        performed = run_replay(seed, n_shards, steps=40, append_prob=0.15)
        assert performed >= 25

    @pytest.mark.versioning
    def test_append_replay_unchanged_by_registration_time_sampling(self):
        """Appends under a ``sample_budget``: the serving tiers lazily
        rebuild each table's sample set after an append, and exact
        transcripts must still match a standalone replica that has no
        samples at all."""
        performed = run_replay(2, 2, steps=40, append_prob=0.15, sample_budget=32)
        assert performed >= 25

    @pytest.mark.versioning
    def test_append_replay_parity_at_a_higher_append_rate(self):
        performed = run_replay(6, 2, steps=40, append_prob=0.2)
        assert performed >= 25

    def test_replay_with_deadlines_enabled_is_still_bit_identical(self):
        """The deadline machinery must be pure overhead on the happy
        path: with a generous ``default_deadline`` threaded through
        every op on both serving stacks (lock-acquire bounds, pipe
        poll, scheduler queue entry), no request times out and every
        response stays byte-equal to the standalone session."""
        performed = run_replay(3, 2, steps=40, default_deadline=30.0)
        assert performed >= 25
