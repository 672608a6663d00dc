"""Tests of the benchmark's own arithmetic and input generators.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import spec  # noqa: E402
from benchstats import (  # noqa: E402
    highest_supported_percentile,
    percentile,
    self_time,
    union_length,
)
from spantree import Span, SpanTree  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Generators: the same seed gives the same inputs
# ----------------------------------------------------------------------
def test_warm_replay_inputs_repeat_per_seed():
    first, again, other = (inputs.warm_replay(seed, 2.0) for seed in (7, 7, 8))
    assert first.popular == again.popular
    assert first.timed.schedule == again.timed.schedule
    assert first.timed.bodies == again.timed.bodies
    assert first.warmup.bodies == again.warmup.bodies
    assert first.timed.bodies != other.timed.bodies


def test_warm_replay_traffic_stays_in_the_certified_region():
    stream = inputs.warm_replay(3, 5.0).timed
    region = spec.SURFACE_REGION
    shares = {kind: stream.kinds.count(kind) / len(stream) for kind in spec.WARM_SHARES}
    for kind, share in spec.WARM_SHARES.items():
        assert abs(shares[kind] - share) < 0.06
    for kind, record in zip(stream.kinds, stream.records):
        if kind == "surface":
            assert record["scenario"] in spec.SURFACE_PRESETS
            assert region["load_lo"] < record["load"] < region["load_hi"]


def test_cold_batch_stream_repeats_per_seed_and_never_repeats_a_point():
    first, again = inputs.ColdBatchStream(5), inputs.ColdBatchStream(5)
    batches = [first.next_batch() for _ in range(3)]
    assert batches == [again.next_batch() for _ in range(3)]
    points = [
        (r["scenario"], r["load"], r["probability"], r["method"])
        for records, _ in batches
        for r in records
    ]
    assert len(set(points)) == len(points) == 3 * spec.BATCH_SIZE
    assert inputs.ColdBatchStream(6).next_batch() != batches[0]


def test_admit_edge_inputs_repeat_per_seed():
    first, again = inputs.admit_edge(11, 3.0), inputs.admit_edge(11, 3.0)
    assert first.schedule == again.schedule and first.bodies == again.bodies
    assert set(first.kinds) <= {"admit", "rtt"}
    for kind, record in zip(first.kinds, first.records):
        if kind == "rtt":
            assert record["gamers"] >= 1


def test_poisson_schedule_has_the_offered_rate():
    schedule = inputs.poisson_schedule(np.random.default_rng(1), 200.0, 50.0)
    assert schedule == sorted(schedule) and 0.0 <= schedule[0] and schedule[-1] < 50.0
    assert len(schedule) == 10_000
    gaps = np.diff(schedule)
    assert np.mean(gaps) == pytest.approx(1 / 200.0, rel=0.02)
    assert np.std(gaps) == pytest.approx(1 / 200.0, rel=0.05)  # exponential gaps


def test_stratified_draws_take_exact_shares():
    rng = np.random.default_rng(3)
    picks = inputs.stratified_choice(rng, 64, [0.8, 0.2])
    assert np.bincount(picks).tolist() == [51, 13]
    picks = inputs.stratified_choice(rng, 10, np.ones(3))
    assert sorted(np.bincount(picks).tolist()) == [3, 3, 4]
    u = inputs.stratified_uniform(rng, 50)
    assert sorted(np.floor(u * 50).astype(int).tolist()) == list(range(50))


def test_preset_rank_covers_the_registry():
    from repro.scenarios.registry import available_scenarios

    assert sorted(spec.PRESET_RANK) == sorted(available_scenarios())


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, level",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
     (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (5, 50.0)],
)
def test_highest_percentile_with_ten_samples_beyond(count, level):
    assert highest_supported_percentile(count) == level


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(2).exponential(size=101))
    for q in (0.0, 50.0, 90.0, 99.0, 100.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


# ----------------------------------------------------------------------
# Self-time arithmetic and nesting
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_the_covered_part_only():
    assert self_time(0.0, 10.0, []) == 10.0
    # Overlapping children count once; the part outside the parent not at all.
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0


def _tree(rows, windows=None):
    return SpanTree([Span(*row) for row in rows], windows or {})


def test_self_time_plus_children_adds_up_to_the_parent():
    tree = _tree(
        [
            (1, None, "rtt.execute", "w1", 0.0, 10.0, 4),
            (2, 1, "rtt.group_indices", "w1", 0.5, 2.5, None),
            (3, 2, "downstream.solve_root", "w1", 1.0, 1.5, None),
            (4, 1, "inversion.search", "w1", 3.0, 9.0, 4),
            (5, 4, "rtt.stacked_eval", "w1", 4.0, 5.0, 4),
            (6, 4, "rtt.stacked_eval", "w1", 6.0, 8.0, 3),
        ]
    )
    assert tree.nesting_violations() == []
    for span in tree.spans.values():
        children = tree.children.get(span.id, [])
        assert tree.self_time(span) + sum(c.duration for c in children) == pytest.approx(
            span.duration
        )
    assert tree.total_self("inversion.search") == 3.0
    assert tree.descendants(tree.spans[1], "rtt.stacked_eval") == 2


def test_nesting_violations_are_reported():
    tree = _tree(
        [
            (1, None, "rtt.execute", None, 0.0, 10.0, None),
            (2, 1, "rtt.build_models", None, 5.0, 11.0, None),
            (3, 1, "inversion.search", None, 6.0, 9.0, None),
        ]
    )
    problems = tree.nesting_violations()
    assert any("outside" in p for p in problems)
    assert any("overlaps" in p for p in problems)


def test_load_keeps_whole_subtrees_inside_the_window(tmp_path):
    rows = [
        [1, None, "fleet.serve_async", "w1", 0.0, 2.0, None],
        [2, 1, "rtt.execute", "w1", 1.0, 1.5, 1],
        [3, None, "fleet.serve_async", "w3", 5.0, 6.0, None],
        [4, 3, "rtt.execute", "w3", 5.1, 5.9, 2],
    ]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": rows, "windows": {"1": ["a"], "3": ["b"]}}))
    tree = SpanTree.load(path, 0.5, 10.0)
    assert sorted(tree.spans) == [3, 4]
    assert tree.windows == {3: ["b"]}


# ----------------------------------------------------------------------
# BENCHMARK.json and this package agree
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_documented_metrics_and_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(spec.LAYER_METRICS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
