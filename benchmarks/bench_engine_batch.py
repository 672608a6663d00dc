"""Benchmark — cached Engine batch evaluation vs. per-point rebuilds.

The seed code rebuilt a :class:`PingTimeModel` at every sweep point of
every sweep call: evaluating the default 18-point Figure 3/4 load grid
at the paper's two headline quantile levels (99.9% and 99.999%) costs 36
model constructions.  The :class:`~repro.engine.Engine` memoizes models
per operating point, so the same workload builds each of the 18 grid
points exactly once — at least 2x fewer constructions, the acceptance
criterion of the scenario-first redesign.

The dimensioning search is measured separately: the seed evaluated the
RTT at the optimum a second time after ``brentq`` had already evaluated
it (one redundant model build per call); the engine reads it from the
cache.

Both paths must return *bitwise identical* numbers — the cache is an
optimisation, not an approximation.
"""

import time

import pytest

from repro.core.dimensioning import max_tolerable_load
from repro.core.rtt import reset_model_build_count
from repro.engine import Engine
from repro.scenarios import Scenario, default_load_grid, sweep_loads

from conftest import print_header

#: The paper's headline quantile levels (Section 4 reads both curves).
PROBABILITIES = (0.999, 0.99999)

SCENARIO = Scenario(tick_interval_s=0.040)


def _uncached_sweeps(grid):
    """The seed path: fresh models at every point of every pass."""
    return [
        tuple(
            p.rtt_quantile_s
            for p in sweep_loads(SCENARIO, grid, probability=probability).points
        )
        for probability in PROBABILITIES
    ]


def _cached_sweeps(engine, grid):
    """The same sweeps through one shared Engine cache."""
    return [
        tuple(p.rtt_quantile_s for p in engine.sweep(grid, probability=probability).points)
        for probability in PROBABILITIES
    ]


@pytest.mark.benchmark(group="engine-batch")
def test_engine_batch_vs_uncached(benchmark):
    grid = default_load_grid()  # the default 18-point 5%-90% grid

    # -- sweep workload ------------------------------------------------
    reset_model_build_count()
    start = time.perf_counter()
    uncached_results = _uncached_sweeps(grid)
    uncached_elapsed = time.perf_counter() - start
    uncached_builds = reset_model_build_count()

    engine = Engine(SCENARIO)
    start = time.perf_counter()
    cached_results = benchmark.pedantic(
        lambda: _cached_sweeps(engine, grid), rounds=1, iterations=1
    )
    cached_elapsed = time.perf_counter() - start
    cached_builds = reset_model_build_count()

    # -- dimensioning workload -----------------------------------------
    reset_model_build_count()
    uncached_dim = max_tolerable_load(
        0.050, scenario=SCENARIO, probability=PROBABILITIES[-1]
    )
    # The functional form runs on a fresh engine, so this counts the
    # cold dimensioning cost of the cached implementation; the seed path
    # performed the same search plus one redundant rebuild per call.
    uncached_dim_builds = reset_model_build_count()
    cold_engine = Engine(SCENARIO, probability=PROBABILITIES[-1])
    cold_dim = cold_engine.dimension(0.050)
    dim_builds_before = engine.stats.model_builds
    cached_dim = engine.dimension(0.050, probability=PROBABILITIES[-1])
    dim_extra_builds = engine.stats.model_builds - dim_builds_before

    print_header("Engine batch evaluation vs. seed-style per-point rebuilds")
    print(f"grid points                    : {len(grid)}")
    print(f"quantile levels                : {PROBABILITIES}")
    print(f"sweep builds, per-point path   : {uncached_builds}")
    print(f"sweep builds, cached engine    : {cached_builds}")
    print(f"construction ratio             : {uncached_builds / cached_builds:.1f}x")
    print(f"sweep wall time, per-point     : {uncached_elapsed * 1e3:.1f} ms")
    print(f"sweep wall time, cached        : {cached_elapsed * 1e3:.1f} ms")
    print(f"dimension builds, cold         : {uncached_dim_builds}")
    print(f"dimension builds, warm engine  : {dim_extra_builds}")
    print(f"engine cache stats             : {engine.stats.as_dict()}")

    # Identical numbers: the cache must not change a single bit.
    assert cached_results == uncached_results
    assert cached_dim.max_load == uncached_dim.max_load
    assert cached_dim.max_gamers == uncached_dim.max_gamers
    assert cached_dim.rtt_at_max_load_s == uncached_dim.rtt_at_max_load_s

    # The acceptance criterion: Engine.sweep over the default grid does
    # at least 2x fewer PingTimeModel constructions than the seed path.
    assert uncached_builds >= 2 * cached_builds

    # Each distinct operating point is built exactly once.
    assert cached_builds == len(grid)

    # The dimensioning search takes the RTT at the optimum from its own
    # probes instead of rebuilding it (the seed always paid one extra
    # model build at the optimum on top of the search), and a warm
    # engine never rebuilds what earlier queries already evaluated.
    assert cold_engine.stats.model_builds == cold_engine.stats.quantile_evaluations
    cold_builds = cold_engine.stats.model_builds
    assert cold_engine.rtt_quantile(cold_dim.max_load) == cold_dim.rtt_at_max_load_s
    assert cold_engine.stats.model_builds == cold_builds
    assert dim_extra_builds <= uncached_dim_builds
