"""Tests for the static plan split and its invariance.

:func:`compile_eval_plans` cuts every signature group into chunks of
``chunk_size`` models (:data:`DEFAULT_PLAN_CHUNK` when not given).  The
contract: chunking only decides how work is shared between executors —
for every registry preset and every quantile method the answers are
bit-identical whatever the chunk size and whatever order the plans run
in.  The serving layers take no scheduling policy beyond that split.
"""

import numpy as np
import pytest

import repro.core.rtt as rtt
from repro.core.rtt import (
    DEFAULT_PLAN_CHUNK,
    QUANTILE_METHODS,
    compile_eval_plans,
    execute_plan,
    model_params,
)
from repro.engine import Engine
from repro.errors import ParameterError
from repro.executors import ParallelExecutor, SerialExecutor
from repro.fleet import Fleet, Request
from repro.scenarios import available_scenarios, get_scenario

PROBABILITY = 0.99999
LOAD = 0.55


def paper_models(count):
    """``count`` paper-dsl models at distinct downlink loads."""
    scenario = get_scenario("paper-dsl")
    return [scenario.model_at_load(load) for load in np.linspace(0.1, 0.7, count)]


def run_plans(plans):
    """Execute plans serially and scatter the floats into batch order."""
    out = [None] * sum(len(plan) for plan in plans)
    for result in SerialExecutor().run(plans):
        for index, value in zip(result.indices, result.values):
            out[index] = value
    return out


class TestStaticSplit:
    MODELS = paper_models(7)

    def test_default_split_is_thirty_two_models(self):
        assert DEFAULT_PLAN_CHUNK == 32
        params = model_params(self.MODELS[0])
        plans = compile_eval_plans([params] * 70, PROBABILITY)
        assert [len(plan) for plan in plans] == [32, 32, 6]

    def test_omitted_chunk_size_means_the_constant(self):
        assert compile_eval_plans(self.MODELS, PROBABILITY) == compile_eval_plans(
            self.MODELS, PROBABILITY, chunk_size=DEFAULT_PLAN_CHUNK
        )

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 4, 5, 7])
    def test_explicit_chunk_size_cuts_full_chunks_then_the_rest(self, chunk_size):
        plans = compile_eval_plans(self.MODELS, PROBABILITY, chunk_size=chunk_size)
        sizes = [len(plan) for plan in plans]
        full, rest = divmod(len(self.MODELS), chunk_size)
        assert sizes == [chunk_size] * full + ([rest] if rest else [])
        covered = [index for plan in plans for index in plan.indices]
        assert covered == list(range(len(self.MODELS)))

    def test_signature_groups_are_cut_separately(self):
        # paper-dsl (K=9) and unreal-tournament (K=15): never one stack.
        models = [
            get_scenario(preset).model_at_load(load)
            for load in (0.3, 0.4, 0.5)
            for preset in ("paper-dsl", "unreal-tournament")
        ]
        orders = [model.erlang_order for model in models]
        assert len(set(orders)) == 2
        plans = compile_eval_plans(models, PROBABILITY, chunk_size=2)
        assert [plan.indices for plan in plans] == [(0, 2), (4,), (1, 3), (5,)]
        for plan in plans:
            assert len({orders[i] for i in plan.indices}) == 1

    @pytest.mark.parametrize(
        "method", [m for m in QUANTILE_METHODS if m != "inversion"]
    )
    def test_non_inversion_methods_chunk_in_batch_order(self, method):
        models = [
            get_scenario(preset).model_at_load(0.4)
            for preset in ("paper-dsl", "halo", "paper-dsl", "halo", "paper-dsl")
        ]
        plans = compile_eval_plans(models, PROBABILITY, method=method, chunk_size=2)
        assert [plan.indices for plan in plans] == [(0, 1), (2, 3), (4,)]
        assert all(plan.method == method for plan in plans)

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_rejects_non_positive_chunk_size(self, chunk_size):
        with pytest.raises(ParameterError):
            compile_eval_plans(self.MODELS, PROBABILITY, chunk_size=chunk_size)

    def test_empty_batch_compiles_no_plans(self):
        assert compile_eval_plans([], PROBABILITY) == []


class TestChunkingInvariance:
    """Floats are bit-identical under any split and any plan order.

    Every registry preset, one quantile method per case: the batch is
    executed under the default split and under randomly drawn chunk
    sizes, and every answer must equal the per-model
    ``rtt_quantile`` bit-for-bit.
    """

    MODELS = [get_scenario(preset).model_at_load(LOAD) for preset in available_scenarios()]

    @pytest.mark.parametrize("method", QUANTILE_METHODS)
    def test_every_preset_bit_identical_under_random_chunk_sizes(self, method):
        reference = [m.rtt_quantile(PROBABILITY, method=method) for m in self.MODELS]
        assert run_plans(compile_eval_plans(self.MODELS, PROBABILITY, method)) == reference
        rng = np.random.default_rng(20260807)
        for chunk_size in rng.integers(1, 9, size=3):
            plans = compile_eval_plans(
                self.MODELS, PROBABILITY, method, chunk_size=int(chunk_size)
            )
            assert run_plans(plans) == reference, f"chunk_size={chunk_size}"

    def test_single_model_chunks_match_the_default_split(self):
        default = run_plans(compile_eval_plans(self.MODELS, PROBABILITY))
        singles = compile_eval_plans(self.MODELS, PROBABILITY, chunk_size=1)
        assert len(singles) == len(self.MODELS)
        assert run_plans(singles) == default

    def test_plan_order_never_changes_an_answer(self):
        plans = compile_eval_plans(self.MODELS, PROBABILITY, chunk_size=3)
        forward = run_plans(plans)
        backward = [None] * len(self.MODELS)
        for plan in reversed(plans):
            result = execute_plan(plan)
            for index, value in zip(result.indices, result.values):
                backward[index] = value
        assert backward == forward


class TestServingUsesTheSplit:
    """The serving layers cut their batches with the same static split."""

    REQUESTS = [Request("paper-dsl", downlink_load=load) for load in (0.3, 0.4, 0.5)]

    def test_fleet_executes_one_plan_per_default_chunk(self, monkeypatch):
        fleet = Fleet()
        reference = fleet.serve(self.REQUESTS)
        assert fleet.stats.plans_executed == 1
        monkeypatch.setattr(rtt, "DEFAULT_PLAN_CHUNK", 2)
        small = Fleet()
        answers = small.serve(self.REQUESTS)
        assert small.stats.plans_executed == 2
        assert [a.rtt_quantile_s for a in answers] == [
            a.rtt_quantile_s for a in reference
        ]

    def test_engine_executes_one_plan_per_default_chunk(self, monkeypatch):
        class RecordingExecutor(SerialExecutor):
            def __init__(self):
                super().__init__()
                self.plans = []

            def run(self, plans):
                plans = list(plans)
                self.plans.extend(plans)
                return super().run(plans)

        monkeypatch.setattr(rtt, "DEFAULT_PLAN_CHUNK", 1)
        executor = RecordingExecutor()
        scenario = get_scenario("paper-dsl")
        loads = (0.3, 0.4, 0.5)
        answers = Engine(scenario, executor=executor).rtt_quantiles(loads)
        assert [len(plan) for plan in executor.plans] == [1, 1, 1]
        assert answers == [
            scenario.model_at_load(load).rtt_quantile(PROBABILITY) for load in loads
        ]

    def test_pool_answers_single_model_plans_like_the_serial_kernel(self):
        plans = compile_eval_plans(
            TestChunkingInvariance.MODELS, PROBABILITY, chunk_size=1
        )
        with ParallelExecutor(workers=2) as pool:
            pooled = pool.run(plans)
        assert [r.indices for r in pooled] == [p.indices for p in plans]
        assert [r.values for r in pooled] == [
            execute_plan(plan).values for plan in plans
        ]
