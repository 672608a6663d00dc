"""Registry-wide properties of the capacity search (Section 4).

Every preset is asked for its capacity at budgets on a log grid from
4 to 400 ms, at two quantile levels with the default ``inversion``
method and at one level with ``chernoff``.  Each answer must be a
typed refusal or a capacity that is feasible under the exact model,
within ``LOAD_RESOLUTION`` of optimal, non-decreasing in the budget,
and identical to what :meth:`Engine.dimension` reports.  The one-gamer
floor, the feasible side of the search bracket and the low-load
eq. (27) weights are all exercised here.
"""

import numpy as np
import pytest

from repro.core.dimensioning import LOAD_RESOLUTION, max_load_within, one_gamer_load
from repro.core.downstream import DEKOneQueue
from repro.engine import Engine
from repro.errors import ParameterError, ReproError
from repro.fleet import Fleet, Request
from repro.scenarios import available_scenarios, get_scenario

BUDGETS_S = tuple(float(b) for b in np.geomspace(4e-3, 0.4, 7))

CASES = [
    (name, probability, "inversion")
    for name in available_scenarios()
    for probability in (0.999, 0.99999)
] + [(name, 0.999, "chernoff") for name in available_scenarios()]


@pytest.mark.parametrize("name,probability,method", CASES)
def test_capacity_is_feasible_tight_monotone_and_shared(name, probability, method):
    scenario = get_scenario(name)
    engine = Engine(scenario, probability=probability, method=method)
    ceiling = scenario.stable_load_ceiling()
    previous = 0.0
    for budget in BUDGETS_S:
        try:
            result = engine.admit(budget)
        except ReproError:
            continue  # a typed refusal is an allowed outcome
        assert result.source == "exact"
        assert result.max_load >= previous
        previous = result.max_load
        if not result.admitted:
            assert result.max_load == 0.0 and result.max_gamers == 0
            floor = one_gamer_load(scenario)
            assert result.rtt_at_max_load_s == engine.rtt_quantile(floor) > budget
            with pytest.raises(ParameterError, match="cannot be met"):
                engine.dimension(budget)
            continue
        exact = engine.rtt_quantile(result.max_load)
        assert result.rtt_at_max_load_s == exact <= budget
        assert result.max_gamers == int(scenario.gamers_at_load(result.max_load)) >= 1
        if result.max_load < ceiling:
            beyond = min(result.max_load + 1.001 * LOAD_RESOLUTION, ceiling)
            assert engine.rtt_quantile(beyond) > budget
        dimensioned = engine.dimension(budget)
        assert (
            dimensioned.max_load,
            dimensioned.max_gamers,
            dimensioned.rtt_at_max_load_s,
        ) == (result.max_load, result.max_gamers, result.rtt_at_max_load_s)


class TestMaxLoadWithin:
    @staticmethod
    def rtt(load):
        return 0.01 + 0.1 * load**2

    def test_unmeetable_budget_is_none(self):
        assert max_load_within(self.rtt, 0.005, 0.1, 0.9) is None

    def test_budget_met_at_hi_returns_hi(self):
        assert max_load_within(self.rtt, 1.0, 0.1, 0.9) == (0.9, self.rtt(0.9))

    def test_answer_is_a_feasible_probe_within_xtol(self):
        probes = []

        def rtt(load):
            probes.append(load)
            return self.rtt(load)

        budget = self.rtt(0.5)
        load, value = max_load_within(rtt, budget - 1e-12, 0.1, 0.9, xtol=1e-4)
        assert load in probes and value == self.rtt(load) <= budget - 1e-12
        assert 0.5 - 1.001e-4 < load < 0.5
        assert len(probes) == len(set(probes))  # nothing evaluated twice

    def test_empty_bracket_raises(self):
        with pytest.raises(ParameterError):
            max_load_within(self.rtt, 0.05, 0.5, 0.4)


class TestOneGamerLoad:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_round_trips_to_at_least_one_gamer(self, name):
        scenario = get_scenario(name)
        load = one_gamer_load(scenario)
        assert scenario.gamers_at_load(load) >= 1.0
        assert load - scenario.load_for_gamers(1.0) <= 4 * np.spacing(load)


class TestLowLoadWeights:
    @pytest.mark.parametrize("order", [2, 9, 20])
    @pytest.mark.parametrize("load", [1e-4, 2e-3, 5e-3, 1e-2])
    def test_weights_are_finite(self, order, load):
        queue = DEKOneQueue(order=order, mean_service_s=0.040 * load, interval_s=0.040)
        weights = np.asarray(queue.weights)
        assert np.isfinite(weights).all()
        assert 0.0 <= queue.idle_probability() <= 1.0

    def test_paper_dsl_rtt_strictly_increasing_at_low_load(self):
        engine = Engine(get_scenario("paper-dsl"))
        values = [engine.rtt_quantile(load) for load in (0.004, 0.005, 0.01, 0.02, 0.03)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_low_load_requests_answer(self):
        presets = ("ftth", "lte", "cable", "satellite-leo", "cloud-gaming")
        answers = Fleet().serve([Request(name, downlink_load=0.001) for name in presets])
        for name, answer in zip(presets, answers):
            engine = Engine(get_scenario(name))
            assert 0.0 < answer.rtt_quantile_s < engine.rtt_quantile(0.002)
