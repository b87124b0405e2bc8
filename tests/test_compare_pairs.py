"""``benchmarks/compare_pairs.py``'s table, on synthetic run dicts.

The table is what a performance claim records, so its arithmetic is
pinned here: which side a pair counts for, what the ratio is taken
against, and when a row is marked over its bound.  Nothing runs the
benchmark: no subprocess is started.
"""

from __future__ import annotations

from benchmarks.compare_pairs import main, table

LOWER = {"name": "expand_mean_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
LAYER = {"name": "tier.cpu_ms_per_op", "better": "lower"}


def _runs(name: str, values: list[float]) -> list[dict]:
    return [{name: v} for v in values]


def _row(metric: dict, parent: list[float], change: list[float]) -> list[str]:
    rows = table([metric], _runs(metric["name"], parent), _runs(metric["name"], change))
    assert rows[:2] == [
        "| metric | parent | change | ratio | pairs won | bound |",
        "|---|---|---|---|---|---|",
    ]
    assert len(rows) == 3
    return [cell.strip() for cell in rows[2].strip("|").split("|")]


def test_lower_is_better_wins_and_ratio_against_the_parent():
    cells = _row(LOWER, [10.0, 10.0, 10.0], [8.0, 9.0, 11.0])
    assert cells[0] == "`expand_mean_ms`"
    assert cells[3] == "0.900"  # change median / parent median
    assert cells[4] == "2 / 3"
    assert cells[5] == "0.25"


def test_higher_is_better_counts_the_other_way():
    cells = _row(HIGHER, [100.0, 100.0, 100.0], [90.0, 110.0, 120.0])
    assert cells[3] == "1.100"
    assert cells[4] == "2 / 3"


def test_ties_count_for_neither_side():
    cells = _row(LOWER, [5.0, 5.0, 5.0, 5.0], [5.0, 5.0, 4.0, 6.0])
    assert cells[4] == "1 / 4"
    assert cells[3] == "1.000"


def test_over_bound_mark_in_both_directions():
    assert _row(LOWER, [10.0] * 3, [12.4] * 3)[5] == "0.25"
    assert _row(LOWER, [10.0] * 3, [12.6] * 3)[5] == "**over** 0.25"
    assert _row(HIGHER, [100.0] * 3, [76.0] * 3)[5] == "0.25"
    assert _row(HIGHER, [100.0] * 3, [74.0] * 3)[5] == "**over** 0.25"
    # Better by any margin is never over.
    assert _row(LOWER, [10.0] * 3, [1.0] * 3)[5] == "0.25"


def test_per_layer_metrics_have_no_bound():
    assert _row(LAYER, [2.0, 3.0], [9.0, 9.0])[5] == "—"


def test_zero_parent_median_has_no_ratio_and_missing_metrics_are_skipped():
    assert _row(LOWER, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])[3] == "n/a"
    parent = [{"expand_mean_ms": 1.0}, {"expand_mean_ms": None}]
    change = [{"expand_mean_ms": 2.0}, {"expand_mean_ms": 1.0}]
    assert table([LOWER, HIGHER], parent, change)[2].endswith("| 0 / 1 | **over** 0.25 |")
    assert len(table([LOWER, HIGHER], parent, change)) == 3  # ops_per_s: no pairs


def test_several_workloads_run_pairs_and_print_one_table_each(monkeypatch, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}], "per_layer": []}'
    )
    calls = []

    def fake_run_once(checkout, workload, seed, trace=0):
        calls.append((checkout.name, workload, seed))
        return {"m": 1.0}

    monkeypatch.setattr("benchmarks.compare_pairs.run_once", fake_run_once)
    parent, change = tmp_path, tmp_path / "change"
    change.mkdir()
    assert main([str(parent), str(change), "--workload", "a", "b", "--seeds", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("| metric | parent | change |") == 2
    assert "`a` end-to-end, 2 alternating pairs" in out and "`b` end-to-end" in out
    # Alternating order within each workload.
    assert [c[0] for c in calls[:4]] == [parent.name, "change", "change", parent.name]
    assert [c[1] for c in calls] == ["a"] * 4 + ["b"] * 4
