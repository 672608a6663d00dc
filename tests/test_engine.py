"""Tests for the cached Engine facade.

The cache contract: hits must return *identical* floats to the uncached
paths (``Scenario.model_at_load(...).rtt_quantile(...)``,
``sweep_loads`` and ``max_tolerable_load``), while constructing strictly
fewer :class:`PingTimeModel` instances.
"""

import pytest

from repro.core.dimensioning import max_tolerable_load
from repro.core.rtt import model_build_count, reset_model_build_count
from repro.engine import Engine, EngineStats
from repro.errors import ParameterError
from repro.scenarios import PAPER_BASELINE, Scenario, sweep_loads

TICK40 = Scenario(tick_interval_s=0.040)


class TestConstruction:
    def test_accepts_scenario(self):
        assert Engine(PAPER_BASELINE).scenario is PAPER_BASELINE

    def test_accepts_parameter_mapping(self):
        engine = Engine({"erlang_order": 20})
        assert engine.scenario.erlang_order == 20

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            Engine(42)

    def test_rejects_bad_probability(self):
        with pytest.raises(ParameterError):
            Engine(PAPER_BASELINE, probability=1.5)

    def test_rejects_bad_method(self):
        with pytest.raises(ParameterError):
            Engine(PAPER_BASELINE, method="magic")


class TestCaching:
    def test_cache_hit_returns_identical_result(self):
        engine = Engine(TICK40)
        first = engine.rtt_quantile(0.40)
        second = engine.rtt_quantile(0.40)
        assert first == second  # bitwise identical, not approx
        assert engine.stats.quantile_cache_hits == 1
        assert engine.stats.model_builds == 1

    def test_cached_matches_uncached_path(self):
        engine = Engine(TICK40)
        for load in (0.2, 0.4, 0.6):
            uncached = TICK40.model_at_load(load).rtt_quantile(0.99999)
            assert engine.rtt_quantile(load) == uncached
            # Ask again: the hit must still agree with the uncached value.
            assert engine.rtt_quantile(load) == uncached

    def test_model_cache_shared_between_load_and_gamers(self):
        engine = Engine(TICK40)
        gamers = TICK40.gamers_at_load(0.40)
        model_a = engine.model_at_load(0.40)
        model_b = engine.model_for_gamers(gamers)
        assert model_a is model_b
        assert engine.stats.model_builds == 1

    def test_distinct_probabilities_are_distinct_entries(self):
        engine = Engine(TICK40)
        q99 = engine.rtt_quantile(0.40, probability=0.99)
        q99999 = engine.rtt_quantile(0.40, probability=0.99999)
        assert q99 < q99999
        assert engine.stats.model_builds == 1  # same model, two inversions

    def test_clear_cache_forces_rebuild(self):
        engine = Engine(TICK40)
        engine.rtt_quantile(0.40)
        engine.clear_cache()
        engine.rtt_quantile(0.40)
        assert engine.stats.model_builds == 2

    def test_stats_as_dict(self):
        stats = EngineStats(model_builds=2, quantile_cache_hits=1)
        assert stats.as_dict()["model_builds"] == 2

    def test_rejects_subunit_gamer_loads(self):
        with pytest.raises(ParameterError, match="fewer than one gamer"):
            Engine(TICK40).rtt_quantile(1e-4)


class TestSweep:
    def test_sweep_matches_sweep_loads(self):
        loads = [0.2, 0.4, 0.6]
        cached = Engine(TICK40).sweep(loads)
        uncached = sweep_loads(TICK40, loads)
        assert cached.rtt_ms() == uncached.rtt_ms()
        assert cached.loads() == uncached.loads()
        assert cached.label == uncached.label

    def test_sweep_builds_each_point_once(self):
        engine = Engine(TICK40)
        loads = [0.2, 0.4, 0.2, 0.4, 0.6]  # duplicates are cache hits
        series = engine.sweep(loads)
        assert len(series.points) == 5
        assert engine.stats.model_builds == 3
        assert engine.stats.quantile_evaluations == 3

    def test_repeated_sweeps_reuse_the_cache(self):
        engine = Engine(TICK40)
        engine.sweep([0.2, 0.4])
        engine.sweep([0.2, 0.4])
        assert engine.stats.model_builds == 2

    def test_sweep_default_grid(self):
        series = Engine(TICK40).sweep()
        assert len(series.points) == 18

    def test_batch_quantiles(self):
        engine = Engine(TICK40)
        values = engine.rtt_quantiles([0.2, 0.4])
        assert values == [engine.rtt_quantile(0.2), engine.rtt_quantile(0.4)]

    def test_sweep_batch_returns_the_exact_cached_floats(self):
        # The vectorized batch path must return the very same floats the
        # cache holds from earlier per-point evaluations: the batch is an
        # optimisation, not an approximation.
        loads = [0.2, 0.4, 0.6]
        warm = Engine(TICK40)
        per_point = [warm.rtt_quantile(load) for load in loads]
        series = warm.sweep(loads)
        assert [p.rtt_quantile_s for p in series.points] == per_point
        # The sweep after the per-point warm-up added no evaluations.
        assert warm.stats.quantile_evaluations == len(loads)
        assert warm.stats.quantile_cache_hits == len(loads)

        # A cold batch sweep also lands on the same floats.
        cold = Engine(TICK40)
        cold_series = cold.sweep(loads)
        assert [p.rtt_quantile_s for p in cold_series.points] == per_point
        assert cold.stats.quantile_evaluations == len(loads)

    def test_rtt_quantiles_deduplicates_within_the_batch(self):
        engine = Engine(TICK40)
        values = engine.rtt_quantiles([0.3, 0.3, 0.5])
        assert values[0] == values[1]
        assert engine.stats.quantile_evaluations == 2
        assert engine.stats.quantile_cache_hits == 1


class TestDimension:
    def test_matches_functional_form(self):
        engine_result = Engine(TICK40).dimension(0.050)
        functional = max_tolerable_load(0.050, scenario=TICK40)
        assert engine_result == functional

    def test_functional_form_takes_only_a_scenario(self):
        with pytest.raises(TypeError):
            max_tolerable_load(0.050, **TICK40.to_dict())

    def test_optimum_read_from_cache_not_rebuilt(self):
        # The seed evaluated _rtt_at_load(best_load) a second time after
        # brentq had already evaluated it; the engine must not: the
        # optimum is one of the search's own probes.
        engine = Engine(TICK40)
        result = engine.dimension(0.050)
        assert engine.stats.quantile_evaluations == engine.stats.model_builds
        builds = engine.stats.model_builds
        assert engine.rtt_quantile(result.max_load) == result.rtt_at_max_load_s
        assert engine.stats.model_builds == builds
        assert result.rtt_at_max_load_s <= 0.050

    def test_dimension_then_sweep_share_models(self):
        engine = Engine(TICK40)
        engine.dimension(0.050)
        builds_after_dimension = engine.stats.model_builds
        # Re-dimensioning with a different bound reuses bisection points.
        engine.dimension(0.060)
        assert engine.stats.model_builds < 2 * builds_after_dimension

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ParameterError):
            Engine(TICK40).dimension(0.0)

    def test_unreachable_bound_raises(self):
        with pytest.raises(ParameterError, match="cannot be met"):
            Engine(TICK40).dimension(0.001)


class TestBuildCounter:
    def test_counter_counts_constructions(self):
        reset_model_build_count()
        TICK40.model_at_load(0.3)
        TICK40.model_at_load(0.3)
        assert model_build_count() == 2

    def test_engine_constructs_fewer_models_than_uncached(self):
        loads = [0.2, 0.4, 0.6]
        reset_model_build_count()
        engine = Engine(TICK40)
        for _ in range(3):
            engine.sweep(loads)
        cached_builds = reset_model_build_count()
        for _ in range(3):
            sweep_loads(TICK40, loads)
        uncached_builds = reset_model_build_count()
        assert cached_builds == len(loads)
        assert uncached_builds == 3 * len(loads)


class TestSimulation:
    def test_simulate_from_load(self):
        engine = Engine(TICK40)
        delays = engine.simulate(3.0, load=0.05, seed=7)
        assert delays.count("rtt") > 0

    def test_make_simulation_matches_scenario(self):
        engine = Engine(TICK40)
        simulation = engine.make_simulation(num_clients=8, seed=1)
        assert simulation.config.aggregation_rate_bps == TICK40.aggregation_rate_bps
        assert simulation.workload.tick_interval_s == TICK40.tick_interval_s

    def test_requires_exactly_one_sizing(self):
        engine = Engine(TICK40)
        with pytest.raises(ParameterError):
            engine.make_simulation()
        with pytest.raises(ParameterError):
            engine.make_simulation(num_clients=8, load=0.4)

    def test_rejects_unsimulatable_server_processing(self):
        # The simulator has no server-processing stage; silently
        # dropping it would bias the validation, so it must refuse.
        engine = Engine(TICK40.derive(server_processing_s=0.010))
        with pytest.raises(ParameterError, match="server_processing_s"):
            engine.make_simulation(num_clients=8)


class TestModelCacheBudget:
    def test_unbounded_by_default(self):
        engine = Engine(TICK40)
        for load in (0.2, 0.3, 0.4, 0.5, 0.6):
            engine.model_at_load(load)
        assert len(engine._models) == 5
        assert engine.stats.model_evictions == 0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ParameterError):
            Engine(TICK40, max_models=0)

    def test_lru_eviction_counts_and_budget_holds(self):
        engine = Engine(TICK40, max_models=2)
        engine.model_at_load(0.2)
        engine.model_at_load(0.3)
        engine.model_at_load(0.4)  # evicts the 0.2 model
        assert len(engine._models) == 2
        assert engine.stats.model_evictions == 1
        assert engine.stats.as_dict()["model_evictions"] == 1

    def test_hits_refresh_lru_order(self):
        engine = Engine(TICK40, max_models=2)
        engine.model_at_load(0.2)
        engine.model_at_load(0.3)
        engine.model_at_load(0.2)  # touch: 0.3 is now least recent
        engine.model_at_load(0.4)  # evicts 0.3, not 0.2
        kept = set(engine._models)
        assert Engine._gamers_key(TICK40.gamers_at_load(0.2)) in kept
        assert Engine._gamers_key(TICK40.gamers_at_load(0.3)) not in kept

    def test_evicted_model_recomputes_bit_identical(self):
        unbounded = Engine(TICK40)
        reference = unbounded.rtt_quantile(0.2)
        engine = Engine(TICK40, max_models=1)
        first = engine.rtt_quantile(0.2)
        engine.model_at_load(0.5)  # evicts the 0.2 model
        engine._quantiles.clear()  # force re-evaluation through a rebuilt model
        again = engine.rtt_quantile(0.2)
        assert first == reference
        assert again == reference
        assert engine.stats.model_evictions >= 1

    def test_quantile_cache_survives_model_eviction(self):
        engine = Engine(TICK40, max_models=1)
        value = engine.rtt_quantile(0.2)
        engine.model_at_load(0.5)  # evicts the model behind the answer
        assert engine.rtt_quantile(0.2) == value
        assert engine.stats.quantile_cache_hits >= 1

    def test_sweep_respects_budget(self):
        engine = Engine(TICK40, max_models=3)
        series = engine.sweep([0.2, 0.3, 0.4, 0.5, 0.6])
        assert len(series.points) == 5
        assert len(engine._models) == 3
        assert engine.stats.model_evictions == 2
        # The answers match the unbounded engine bit for bit.
        unbounded = Engine(TICK40).sweep([0.2, 0.3, 0.4, 0.5, 0.6])
        assert [p.rtt_quantile_s for p in series.points] == [
            p.rtt_quantile_s for p in unbounded.points
        ]
