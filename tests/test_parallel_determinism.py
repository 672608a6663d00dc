"""Determinism of the serving path across executors and worker counts.

The acceptance contract of the plan/execute/assemble split: serial,
1-worker and N-worker serving return **bit-identical** floats — across
every preset and every quantile method — and the per-worker counters
folded into :class:`FleetStats` are consistent wherever the plans ran.
The exhaustive sweeps are marked ``slow`` (they spawn process pools for
every preset/method combination) and excluded from the default tier-1
run; CI runs them alongside the benchmark gates with ``-m slow``.
"""

import os

import pytest

import repro.core.rtt as rtt
from repro.core.rtt import QUANTILE_METHODS
from repro.executors import ParallelExecutor
from repro.fleet import Fleet, FleetStats, Request
from repro.scenarios import available_scenarios

#: Two operating points that are stable — downlink and uplink — for
#: every registered preset (verified by the sweep below).
LOADS = (0.55, 0.72)

#: Stats fields that must agree between executors; ``remote_plans`` is
#: the one field that legitimately differs (it counts worker-pool runs).
_FOLDED_FIELDS = (
    "requests",
    "batches",
    "cache_hits",
    "cache_misses",
    "evictions",
    "evaluations",
    "stacked_mgf_calls",
    "plans_executed",
    "warm_loaded",
)


def _serve(requests, workers=None):
    """Serve a fresh fleet serially (workers=None) or on a pool."""
    fleet = Fleet()
    if workers is None:
        answers = fleet.serve(requests)
    else:
        with ParallelExecutor(workers=workers) as executor:
            answers = fleet.serve(requests, executor=executor)
    return fleet, answers


def _assert_folded_stats_match(serial: FleetStats, other: FleetStats) -> None:
    for name in _FOLDED_FIELDS:
        assert getattr(other, name) == getattr(serial, name), name


class TestQuickDeterminism:
    """Small smoke matrix that stays in the default tier-1 run."""

    REQUESTS = [
        Request(preset, downlink_load=load)
        # multi-game-dsl exercises the MixPingTimeModel plan path: mix
        # plans must be bit-identical across executors too (ISSUE 5).
        for preset in ("paper-dsl", "ftth", "cloud-gaming", "multi-game-dsl")
        for load in LOADS
    ]

    def test_two_workers_are_bit_identical_to_serial(self):
        serial_fleet, serial = _serve(self.REQUESTS)
        parallel_fleet, parallel = _serve(self.REQUESTS, workers=2)
        assert [a.rtt_quantile_s for a in parallel] == [
            a.rtt_quantile_s for a in serial
        ]
        _assert_folded_stats_match(serial_fleet.stats, parallel_fleet.stats)
        assert serial_fleet.stats.remote_plans == 0
        assert parallel_fleet.stats.remote_plans > 0

    def test_single_model_plans_are_bit_identical(self, monkeypatch):
        _, reference = _serve(self.REQUESTS)
        monkeypatch.setattr(rtt, "DEFAULT_PLAN_CHUNK", 1)
        fleet, answers = _serve(self.REQUESTS)
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]
        assert fleet.stats.plans_executed == len(self.REQUESTS)

    def test_worker_fold_arithmetic_is_consistent(self):
        fleet, answers = _serve(self.REQUESTS, workers=2)
        stats = fleet.stats
        # Every answer in this cold batch was evaluated, none cached.
        assert stats.evaluations == stats.cache_misses == len(answers)
        assert stats.cache_hits == 0
        assert stats.plans_executed >= stats.remote_plans > 0
        # A warm repeat adds hits but no plans, evaluations or calls.
        before = stats.as_dict()
        warm = fleet.serve(self.REQUESTS)
        assert all(a.cached for a in warm)
        after = fleet.stats.as_dict()
        assert after["evaluations"] == before["evaluations"]
        assert after["stacked_mgf_calls"] == before["stacked_mgf_calls"]
        assert after["plans_executed"] == before["plans_executed"]
        assert after["cache_hits"] == before["cache_hits"] + len(self.REQUESTS)


@pytest.mark.slow
class TestFullDeterminism:
    """Exhaustive executor sweep: all presets x all quantile methods."""

    def _requests(self, method):
        return [
            Request(preset, downlink_load=load, method=method)
            for preset in available_scenarios()
            for load in LOADS
        ]

    @pytest.mark.parametrize("method", QUANTILE_METHODS)
    def test_all_presets_bit_identical_across_worker_counts(self, method):
        requests = self._requests(method)
        serial_fleet, serial = _serve(requests)
        reference = [a.rtt_quantile_s for a in serial]
        for workers in (1, 3):
            fleet, answers = _serve(requests, workers=workers)
            assert [a.rtt_quantile_s for a in answers] == reference, (
                f"method={method}, workers={workers}"
            )
            _assert_folded_stats_match(serial_fleet.stats, fleet.stats)
            assert fleet.stats.remote_plans > 0

    @pytest.mark.parametrize("method", QUANTILE_METHODS)
    def test_all_presets_bit_identical_under_small_plan_chunks(
        self, method, monkeypatch
    ):
        # Same sweep, cut into two-model plans: chunking never changes
        # an answer, serially or on a pool.
        requests = self._requests(method)
        serial_fleet, serial = _serve(requests)
        reference = [a.rtt_quantile_s for a in serial]
        monkeypatch.setattr(rtt, "DEFAULT_PLAN_CHUNK", 2)
        for workers in (None, 3):
            fleet, answers = _serve(requests, workers=workers)
            assert [a.rtt_quantile_s for a in answers] == reference, (
                f"method={method}, workers={workers}"
            )
            assert fleet.stats.plans_executed > serial_fleet.stats.plans_executed

    def test_mixed_method_stream_is_deterministic(self):
        requests = [
            Request(preset, downlink_load=load, method=method)
            for preset in available_scenarios()
            for load in LOADS
            for method in QUANTILE_METHODS
        ]
        serial_fleet, serial = _serve(requests)
        fleet, answers = _serve(requests, workers=3)
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in serial
        ]
        _assert_folded_stats_match(serial_fleet.stats, fleet.stats)
        # One plan group per (probability, method) at least; the fold
        # accounted for every executed plan.
        assert fleet.stats.plans_executed == serial_fleet.stats.plans_executed
        assert fleet.stats.evaluations == len(
            {(a.scenario_key, a.num_gamers, a.probability, a.method) for a in answers}
        )
