"""Tests for plans that span quantile levels, and for the plan-wide root solve.

Plans group the misses of a batch by (method, factor signature) only:
each model carries its own quantile level, and each lockstep search runs
to its own level.  Searches are independent, so the floats are those of
serving every level alone.  A plan also solves the D/E_K/1 roots of all
its models with one root-kernel call per Erlang order.
"""

import numpy as np
import pytest

import repro.core.downstream as downstream
from repro.core.rtt import (
    QUANTILE_METHODS,
    QueueingMgfStack,
    compile_eval_plans,
    execute_plan,
    model_params,
)
from repro.errors import ParameterError
from repro.fleet import Fleet, Request
from repro.scenarios import available_scenarios, get_scenario

LEVELS = (0.999, 0.9999, 0.99999)


def scenario_loads(name, count=4):
    """``count`` loads spread over a preset's stable range."""
    top = min(0.9, get_scenario(name).stable_load_ceiling())
    return np.linspace(0.05, top, count)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Count root-kernel calls made through the ``downstream`` module global."""
    calls = []
    kernel = downstream.solve_root

    def counting(loads, order):
        calls.append((len(loads), order))
        return kernel(loads, order)

    monkeypatch.setattr(downstream, "solve_root", counting)
    return calls


class TestStackedEvalTrim:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_stacked_values_are_bitwise_per_model_queueing_mgf(self, name):
        scenario = get_scenario(name)
        models = [scenario.model_at_load(load) for load in scenario_loads(name)]
        stack = QueueingMgfStack(models)
        # Upstream and burst factors are simple poles: no power is taken.
        assert [orders is None for _, _, orders, _ in stack._factors][:2] == [True, True]
        s = np.array(
            [-50.0 + 300.0j, -3.0 + 0.5j, -1e3 - 2e4j, 2.0 + 0.0j, -0.01 + 0.0j]
        )
        rows = np.arange(len(models))
        stacked = stack(np.tile(s, (len(models), 1)), rows)
        for index, model in enumerate(models):
            assert stacked[index].tobytes() == model.queueing_mgf(s).tobytes()


class TestPerModelLevels:
    def test_plans_carry_one_level_per_model(self):
        models = [get_scenario("paper-dsl").model_at_load(load) for load in (0.2, 0.4, 0.6)]
        (plan,) = compile_eval_plans(models, LEVELS)
        assert plan.probabilities == LEVELS
        (single,) = compile_eval_plans(models, 0.999)
        assert single.probabilities == (0.999,) * 3

    def test_level_count_and_range_are_checked(self):
        models = [get_scenario("paper-dsl").model_at_load(0.4)] * 2
        with pytest.raises(ParameterError):
            compile_eval_plans(models, [0.999])
        with pytest.raises(ParameterError):
            compile_eval_plans(models, [0.999, 1.0])

    @pytest.mark.parametrize("method", QUANTILE_METHODS)
    def test_each_model_answers_at_its_own_level(self, method):
        scenario = get_scenario("cable")
        models = [scenario.model_at_load(load) for load in (0.2, 0.5, 0.8)]
        levels = [LEVELS[i % 3] for i in range(len(models))]
        (plan,) = compile_eval_plans(
            [model_params(m) for m in models], levels, method=method
        )
        result = execute_plan(plan)
        assert list(result.values) == [
            m.rtt_quantile(level, method=method) for m, level in zip(models, levels)
        ]


class TestPlanRootSolve:
    def test_one_kernel_call_per_erlang_order(self, kernel_calls):
        paper = get_scenario("paper-dsl")
        unreal = get_scenario("unreal-tournament")
        models = [paper.model_at_load(load) for load in (0.2, 0.4, 0.6, 0.8)]
        models += [unreal.model_at_load(load) for load in (0.3, 0.7)]
        params = [model_params(m) for m in models]
        for method in ("inversion", "erlang-sum"):
            kernel_calls.clear()
            results = [
                execute_plan(plan)
                for plan in compile_eval_plans(params, 0.9999, method=method)
            ]
            assert sorted(kernel_calls) == [(2, 15), (4, 9)]
            values = {i: v for r in results for i, v in zip(r.indices, r.values)}
            assert [values[i] for i in range(len(models))] == [
                m.rtt_quantile(0.9999, method=method) for m in models
            ]

    def test_live_models_already_solved_are_not_solved_again(self, kernel_calls):
        models = [get_scenario("paper-dsl").model_at_load(load) for load in (0.3, 0.5)]
        models[0].rtt_quantile(0.999)
        kernel_calls.clear()
        (plan,) = compile_eval_plans(models, 0.999)
        execute_plan(plan, models=models)
        assert kernel_calls == [(1, 9)]


class TestMixedBatch:
    PRESETS = ("paper-dsl", "counter-strike", "lte", "multi-game-dsl")

    def requests(self):
        return [
            Request(name, downlink_load=float(load), probability=level, method=method)
            for name in self.PRESETS
            for load in scenario_loads(name, 2)
            for level in LEVELS
            for method in QUANTILE_METHODS
        ]

    def test_mixed_levels_and_methods_equal_each_level_alone(self):
        requests = self.requests()
        mixed = Fleet().serve(requests)
        for level in LEVELS:
            alone = Fleet().serve([r for r in requests if r.probability == level])
            together = [a for a, r in zip(mixed, requests) if r.probability == level]
            assert [a.rtt_quantile_s for a in together] == [
                a.rtt_quantile_s for a in alone
            ]

    def test_levels_do_not_split_plans(self):
        requests = [r for r in self.requests() if r.method == "inversion"]
        fleet = Fleet()
        fleet.serve(requests)
        one_level = Fleet()
        one_level.serve([r for r in requests if r.probability == LEVELS[0]])
        # One K = 9 group and one mix group, whatever the levels.
        assert fleet.stats.plans_executed == one_level.stats.plans_executed == 2


def cold_body(seed, size=64):
    """A seeded body of distinct exact points over every preset and level.

    Presets and levels cycle; every fifth point asks for one of the four
    other methods in turn; the loads are drawn from the seed.
    """
    rng = np.random.default_rng(seed)
    names = available_scenarios()
    others = [m for m in QUANTILE_METHODS if m != "inversion"]
    requests = []
    for index in range(size):
        name = names[index % len(names)]
        high = min(0.9, get_scenario(name).stable_load_ceiling())
        method = others[(index // 5) % len(others)] if index % 5 == 4 else "inversion"
        requests.append(
            Request(
                name,
                downlink_load=float(rng.uniform(0.05, high)),
                probability=LEVELS[index % len(LEVELS)],
                method=method,
            )
        )
    return requests


class TestWorkCounts:
    """CPU-independent proxy for the cold exact path: exact work counts."""

    def test_seeded_body_counts(self, kernel_calls):
        requests = cold_body(seed=1)
        fleet = Fleet()
        fleet.serve(requests)
        stats = fleet.stats
        orders = {
            get_scenario(r.scenario).model_kwargs().get("erlang_order") for r in requests
        } - {None}
        assert (stats.evaluations, stats.plans_executed) == (64, PLANS)
        assert stats.stacked_mgf_calls == STACKED_CALLS
        assert len(kernel_calls) == KERNEL_CALLS
        assert len(kernel_calls) <= stats.plans_executed * len(orders)
        # Splitting the same misses by level as well would cost more plans.
        models = [get_scenario(r.scenario).model_at_load(r.downlink_load) for r in requests]
        by_level = sum(
            len(
                compile_eval_plans(
                    [
                        model
                        for model, r in zip(models, requests)
                        if (r.probability, r.method) == (level, method)
                    ],
                    level,
                    method=method,
                )
            )
            for level in LEVELS
            for method in QUANTILE_METHODS
        )
        assert stats.plans_executed < by_level


#: Pinned counts of the seed-1 body: inversion plans are one per chunk of
#: each signature group (K = 9 twice, K = 15, the mix), plus one plan per
#: other method; kernel calls are one per Erlang order per plan.
PLANS = 8
STACKED_CALLS = 68
KERNEL_CALLS = 7
