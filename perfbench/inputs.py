"""Seeded request generators for the three workloads.

Every input is a pure function of the workload seed: the same seed
gives the same schedule and the same request bodies.  The daemon only
ever sees the generated requests.  Each request carries a ``tag`` (its
request id), which the daemon echoes and the traced launcher records
on the spans the request causes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine import Engine
from repro.scenarios.registry import get_scenario

import spec

_STREAM_IDS = {"warm-replay": 1, "cold-batch": 2, "admit-edge": 3}


def make_rng(seed: int, workload: str, stream: int = 0) -> np.random.Generator:
    """The generator of one workload's input stream for ``seed``."""
    return np.random.default_rng([int(seed) % (1 << 63), _STREAM_IDS[workload], stream])


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> List[float]:
    """Arrival offsets (s) of a Poisson process of ``rate`` over ``seconds``,
    conditioned on its mean count: ``round(rate * seconds)`` uniform
    arrivals, sorted.  Fixing the count keeps runs of different seeds
    equally long."""
    count = round(rate * seconds)
    return [float(t) for t in np.sort(rng.uniform(0.0, seconds, size=count))]


def zipf_weights(count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=float)
    return weights / weights.sum()


def stratified_choice(rng: np.random.Generator, count: int, weights) -> np.ndarray:
    """``count`` category indices in shuffled order, each category taking
    its share of ``weights`` (largest remainder) instead of a random
    number of draws, so the mix does not vary from seed to seed."""
    weights = np.asarray(weights, dtype=float) / np.sum(weights)
    exact = weights * count
    counts = np.floor(exact).astype(int)
    for index in np.argsort(counts - exact, kind="stable")[: count - counts.sum()]:
        counts[index] += 1
    return rng.permutation(np.repeat(np.arange(len(weights)), counts))


def stratified_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform draws on [0, 1), one in each of ``count`` equal
    strata, in shuffled order."""
    return (rng.permutation(count) + rng.random(count)) / count


@dataclass
class OpenLoopInputs:
    """An open-loop request stream: due offsets, endpoints, bodies."""

    schedule: List[float]
    paths: List[str]
    records: List[Dict[str, object]]
    kinds: List[str]
    bodies: List[bytes] = field(init=False)

    def __post_init__(self) -> None:
        self.bodies = [json.dumps(record).encode("utf-8") for record in self.records]

    def __len__(self) -> int:
        return len(self.schedule)


# ----------------------------------------------------------------------
# warm-replay
# ----------------------------------------------------------------------
@dataclass
class WarmReplayInputs:
    popular: List[Tuple[str, float]]
    timed: OpenLoopInputs
    warmup: OpenLoopInputs


def popular_points(rng: np.random.Generator) -> List[Tuple[str, float]]:
    """A small set of (preset, load) points, presets Zipf over the rank."""
    presets = rng.choice(
        len(spec.PRESET_RANK),
        size=spec.WARM_POPULAR_POINTS,
        p=zipf_weights(len(spec.PRESET_RANK)),
    )
    loads = rng.integers(1, 10, size=spec.WARM_POPULAR_POINTS) / 10.0
    points: List[Tuple[str, float]] = []
    for preset, load in zip(presets, loads):
        point = (spec.PRESET_RANK[int(preset)], float(load))
        if point not in points:
            points.append(point)
    return points


def admit_budget_range_ms(preset: str) -> Tuple[float, float]:
    """Budgets whose capacity lies well inside the surface region."""
    engine = Engine(get_scenario(preset))
    return (
        1e3 * engine.rtt_quantile(0.25),
        1e3 * engine.rtt_quantile(0.75),
    )


def _warm_stream(
    rng: np.random.Generator,
    seconds: float,
    popular: Sequence[Tuple[str, float]],
    budgets: Dict[str, Tuple[float, float]],
    tag_prefix: str,
) -> OpenLoopInputs:
    schedule = poisson_schedule(rng, spec.WARM_RATE, seconds)
    classes = list(spec.WARM_SHARES)
    shares = list(spec.WARM_SHARES.values())
    kinds = [classes[i] for i in stratified_choice(rng, len(schedule), shares)]
    counts = {kind: kinds.count(kind) for kind in classes}
    head = zipf_weights(len(spec.SURFACE_PRESETS))
    lo = spec.SURFACE_REGION["load_lo"] + 0.02
    hi = spec.SURFACE_REGION["load_hi"] - 0.02
    draws = {
        "lru": iter(stratified_choice(rng, counts["lru"], np.ones(len(popular)))),
        "surface": iter(
            zip(
                stratified_choice(rng, counts["surface"], head),
                lo + (hi - lo) * stratified_uniform(rng, counts["surface"]),
            )
        ),
        "admit": iter(
            zip(
                stratified_choice(rng, counts["admit"], head),
                stratified_uniform(rng, counts["admit"]),
            )
        ),
    }
    paths: List[str] = []
    records: List[Dict[str, object]] = []
    for index, kind in enumerate(kinds):
        tag = f"{tag_prefix}{index}"
        if kind == "lru":
            preset, load = popular[int(next(draws["lru"]))]
            records.append({"scenario": preset, "load": load, "tag": tag})
            paths.append("/v1/rtt")
        elif kind == "surface":
            preset_index, load = next(draws["surface"])
            preset = spec.SURFACE_PRESETS[int(preset_index)]
            records.append({"scenario": preset, "load": float(load), "tag": tag})
            paths.append("/v1/rtt")
        else:
            preset_index, u = next(draws["admit"])
            preset = spec.SURFACE_PRESETS[int(preset_index)]
            low, high = (math.log(b) for b in budgets[preset])
            budget = math.exp(low + (high - low) * float(u))
            records.append({"scenario": preset, "rtt_budget_ms": budget, "tag": tag})
            paths.append("/v1/admit")
    return OpenLoopInputs(schedule, paths, records, kinds)


def warm_replay(seed: int, seconds: float) -> WarmReplayInputs:
    rng = make_rng(seed, "warm-replay")
    popular = popular_points(rng)
    budgets = {preset: admit_budget_range_ms(preset) for preset in spec.SURFACE_PRESETS}
    timed = _warm_stream(rng, seconds, popular, budgets, "")
    warmup = _warm_stream(
        make_rng(seed, "warm-replay", 1), spec.WARM_UP_S, popular, budgets, "w"
    )
    return WarmReplayInputs(popular, timed, warmup)


# ----------------------------------------------------------------------
# cold-batch
# ----------------------------------------------------------------------
class ColdBatchStream:
    """Batches of distinct exact operating points, drawn in call order."""

    def __init__(self, seed: int) -> None:
        self._rng = make_rng(seed, "cold-batch")
        self._ceilings = [
            min(spec.COLD_LOAD_HI, get_scenario(p).stable_load_ceiling())
            for p in spec.PRESET_RANK
        ]
        self.calls = 0

    def next_batch(self) -> Tuple[List[Dict[str, object]], bytes]:
        """The next body's request records and its JSONL bytes.

        Each body holds every preset, quantile level and method in its
        share (see :func:`stratified_choice`), so bodies cost about the
        same whatever the seed."""
        rng = self._rng
        size = spec.BATCH_SIZE
        presets = stratified_choice(rng, size, np.ones(len(spec.PRESET_RANK)))
        loads = stratified_uniform(rng, size)
        levels = stratified_choice(rng, size, np.ones(len(spec.COLD_LEVELS)))
        share = spec.COLD_OTHER_SHARE
        other = stratified_choice(rng, size, [1.0 - share, share])
        others = iter(
            stratified_choice(rng, int(other.sum()), np.ones(len(spec.COLD_OTHER_METHODS)))
        )
        records: List[Dict[str, object]] = []
        for index in range(size):
            preset = int(presets[index])
            top = self._ceilings[preset]
            method = spec.COLD_OTHER_METHODS[int(next(others))] if other[index] else "inversion"
            records.append(
                {
                    "scenario": spec.PRESET_RANK[preset],
                    "load": spec.COLD_LOAD_LO + (top - spec.COLD_LOAD_LO) * float(loads[index]),
                    "probability": spec.COLD_LEVELS[int(levels[index])],
                    "method": method,
                    "tag": f"{self.calls}-{index}",
                }
            )
        self.calls += 1
        body = "".join(json.dumps(record) + "\n" for record in records)
        return records, body.encode("utf-8")


# ----------------------------------------------------------------------
# admit-edge
# ----------------------------------------------------------------------
def admit_edge(seed: int, seconds: float) -> OpenLoopInputs:
    """Exact admits and one-gamer-band rtt requests over every preset.

    Each (preset, kind) pair takes its exact share of the requests, and
    the budgets (gamer counts) of each pair are stratified over their
    range, so every seed asks each preset the same spread of questions.
    """
    rng = make_rng(seed, "admit-edge")
    schedule = poisson_schedule(rng, spec.ADMIT_RATE, seconds)
    kind_shares = {"admit": 1.0 - spec.ADMIT_RTT_SHARE, "rtt": spec.ADMIT_RTT_SHARE}
    pairs = [(preset, kind) for preset in spec.PRESET_RANK for kind in kind_shares]
    picks = stratified_choice(rng, len(schedule), [kind_shares[kind] for _, kind in pairs])
    draws = {
        pair: iter(stratified_uniform(rng, int(np.sum(picks == index))))
        for index, pair in enumerate(pairs)
    }
    budget_lo, budget_hi = (math.log(b) for b in spec.ADMIT_BUDGET_MS)
    paths: List[str] = []
    records: List[Dict[str, object]] = []
    kinds: List[str] = []
    for index, pick in enumerate(picks):
        preset, kind = pairs[int(pick)]
        u = float(next(draws[(preset, kind)]))
        if kind == "rtt":
            top = math.log(get_scenario(preset).gamers_at_load(spec.ADMIT_LOW_LOAD))
            gamers = max(1, round(math.exp(top * u)))
            records.append({"scenario": preset, "gamers": gamers, "tag": str(index)})
            paths.append("/v1/rtt")
        else:
            budget = math.exp(budget_lo + (budget_hi - budget_lo) * u)
            records.append({"scenario": preset, "rtt_budget_ms": budget, "tag": str(index)})
            paths.append("/v1/admit")
        kinds.append(kind)
    return OpenLoopInputs(schedule, paths, records, kinds)
