"""The generator Brent search is pinned to scipy's ``brentq``.

:func:`repro.core.inversion._brentq_steps` ports scipy's ``brentq.c`` so
the quantile search can be suspended at every probe.  The port must ask
for the same points in the same order and return the same float as
scipy for any bracket and tolerance, and the quantile search built on
it must reproduce the scipy-driven search across the preset registry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from oracles import scipy_quantile_from_mgf
from repro.core.inversion import _brentq_steps, quantile_from_mgf
from repro.scenarios.registry import get_scenario

#: Monotone test functions ``g(x; r, k)`` that cross zero at ``x = r``.
FUNCTIONS = {
    "linear": lambda x, r, k: k * (x - r),
    "cubic": lambda x, r, k: (x - r) ** 3 + 1e-3 * k * (x - r),
    "exp": lambda x, r, k: math.expm1(0.1 * k * (x - r)),
    "atan": lambda x, r, k: math.atan(1e3 * k * (x - r)),
    "decreasing-tail": lambda x, r, k: math.exp(-k * x) - math.exp(-k * r),
    "sqrt": lambda x, r, k: math.copysign(math.sqrt(abs(x - r)), x - r),
}


def _drive_port(g, a, b, xtol, target, maxiter):
    probes = []
    steps = _brentq_steps(a, b, xtol, target, maxiter=maxiter)
    value = None
    try:
        while True:
            x = steps.send(value)
            probes.append(x)
            value = g(x)
    except StopIteration as stop:
        return probes, stop.value
    except (ValueError, RuntimeError) as exc:
        return probes, (type(exc), str(exc))


def _drive_scipy(g, a, b, xtol, target, maxiter):
    probes = []

    def f(x):
        probes.append(x)
        return g(x) - target

    try:
        return probes, optimize.brentq(f, a, b, xtol=xtol, maxiter=maxiter)
    except (ValueError, RuntimeError) as exc:
        return probes, (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(FUNCTIONS)),
    lo=st.floats(-10.0, 10.0),
    width=st.floats(1e-6, 50.0),
    position=st.floats(-0.25, 1.25),
    k=st.floats(0.01, 20.0),
    target=st.sampled_from([0.0, 1e-5, -0.3]),
    log_xtol=st.floats(-14.0, -2.0),
    maxiter=st.sampled_from([3, 10, 100]),
)
def test_port_requests_the_same_probes_and_returns_the_same_root(
    name, lo, width, position, k, target, log_xtol, maxiter
):
    hi = lo + width
    root = lo + position * width
    function = FUNCTIONS[name]

    def g(x):
        return function(x, root, k) + target

    args = (g, lo, hi, 10.0**log_xtol, target, maxiter)
    assert _drive_port(*args) == _drive_scipy(*args)


def test_nan_value_raises_like_scipy():
    def g(x):
        return float("nan") if x > 0.5 else x - 0.75

    args = (g, 0.0, 1.0, 1e-12, 0.0, 100)
    probes, outcome = _drive_port(*args)
    assert (probes, outcome) == _drive_scipy(*args)
    assert outcome[0] is ValueError and "NaN" in outcome[1]


#: A registry slice: single-server DSL, game and access presets plus a
#: multi-server mix.
SWEEP_PRESETS = (
    "paper-dsl",
    "counter-strike",
    "unreal-tournament",
    "multi-game-dsl",
    "cable",
    "ftth",
    "lte",
    "satellite-leo",
)
SWEEP_PROBABILITIES = (0.999, 0.99999, 0.9999999)


@pytest.mark.parametrize("preset", SWEEP_PRESETS)
def test_quantile_search_matches_the_scipy_driven_oracle(preset):
    scenario = get_scenario(preset)
    loads = np.linspace(0.05, scenario.stable_load_ceiling(), 25)
    for load in loads:
        model = scenario.model_at_load(float(load))
        for probability in SWEEP_PROBABILITIES:
            args = (model.queueing_mgf, probability, model._inversion_scale_hint)
            got = quantile_from_mgf(*args, atom_at_zero=model.queueing_atom)
            expected = scipy_quantile_from_mgf(*args, atom_at_zero=model.queueing_atom)
            assert got == expected, (preset, float(load), probability)
