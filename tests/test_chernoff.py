"""The one-pass Chernoff quantile across the preset registry.

The quantile of the Chernoff bound (eq. (36)) is computed as
``inf_s (log|F(s)| - log(1 - p)) / s`` by one bounded minimisation.  The
tests check that the answer meets the bound at its own minimiser, that
it agrees with the former nested search (a ``brentq`` over a bound that
minimises once per probe), and the point-mass edge case.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from oracles import nested_chernoff_quantile, nested_term_sum_chernoff
from repro.core.mgf import ErlangTerm, ErlangTermSum
from repro.errors import ParameterError
from repro.scenarios.registry import available_scenarios, get_scenario

PROBABILITIES = (0.999, 0.99999)


def _registry_models(preset):
    scenario = get_scenario(preset)
    for load in np.linspace(0.05, scenario.stable_load_ceiling(), 8):
        yield float(load), scenario.model_at_load(float(load))


@pytest.mark.parametrize("preset", available_scenarios())
def test_chernoff_quantile_meets_the_bound_and_matches_the_nested_search(preset):
    for load, model in _registry_models(preset):
        poles = [
            t.rate.real
            for terms in (model._upstream_terms, model._burst_terms, model._position_terms)
            for t in terms.terms
        ]
        for probability in PROBABILITIES:
            x = model.queueing_quantile(probability, method="chernoff")
            log_target = math.log(1.0 - probability)

            def log_mgf(s):
                return math.log(abs(model.queueing_mgf(s)))

            minimiser = optimize.minimize_scalar(
                lambda s: (log_mgf(s) - log_target) / s,
                bounds=(1e-12, min(poles) * (1.0 - 1e-9)),
                method="bounded",
            ).x
            exponent = log_mgf(minimiser) - minimiser * x
            assert exponent <= log_target + 1e-12 * abs(log_target), (preset, load)
            expected = nested_chernoff_quantile(model, probability)
            assert x == pytest.approx(expected, rel=1e-9), (preset, load, probability)


def test_term_sum_chernoff_matches_the_nested_search():
    dist = ErlangTermSum(
        atom=0.2,
        terms=[ErlangTerm(0.5, 40.0 + 0j, 1), ErlangTerm(0.3, 90.0 + 0j, 3)],
    )
    for probability in PROBABILITIES:
        assert dist.quantile_chernoff(probability) == pytest.approx(
            nested_term_sum_chernoff(dist, probability), rel=1e-9
        )


def test_point_mass_at_zero_has_chernoff_quantile_zero():
    point_mass = ErlangTermSum.point_mass_at_zero()
    assert point_mass.quantile(0.999) == 0.0
    assert point_mass.quantile_chernoff(0.999) == 0.0


@pytest.mark.parametrize("probability", [0.0, 1.0, 1.5])
def test_chernoff_rejects_probabilities_outside_the_unit_interval(probability):
    with pytest.raises(ParameterError):
        ErlangTermSum.point_mass_at_zero().quantile_chernoff(probability)
