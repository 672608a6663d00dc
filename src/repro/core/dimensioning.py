"""Dimensioning rules (Section 4 of the paper).

Given the traffic parameters, the capacity dedicated to gaming on the
bottleneck link and an RTT budget, the paper derives the maximum
tolerable downlink load and, through eq. (37), the maximum number of
simultaneous gamers::

    N_max = rho_max * T * C / (8 * P_S)

The headline numbers of Section 4 (P_S = 125 byte, T = 40 ms, C = 5 Mbps,
RTT <= 50 ms) are roughly rho_max ~ 20% / 40% / 60% and N_max ~ 40 / 80 /
120 gamers for K = 2 / 9 / 20.

Every capacity question — :meth:`repro.engine.Engine.admit` and
:meth:`~repro.engine.Engine.dimension` on the exact model or on a
certified surface (:meth:`repro.surface.QuantileSurface.invert_load`),
and :meth:`repro.scenarios.sweep.SweepSeries.max_load_for_rtt_ms` —
is answered by the one load search below, :func:`max_load_within`.  It
returns the *feasible* end of its Brent bracket: a load whose RTT has
been evaluated and meets the budget.  :func:`max_tolerable_load` is
the one-shot functional form over an :class:`~repro.engine.Engine`
built on the fly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import ParameterError
from .inversion import _brentq_steps
from .rtt import DEFAULT_QUANTILE

__all__ = [
    "LOAD_RESOLUTION",
    "gamers_for_load",
    "load_for_gamers",
    "one_gamer_load",
    "max_load_within",
    "AdmissionResult",
    "DimensioningResult",
    "max_tolerable_load",
    "max_gamers",
]


def gamers_for_load(load: float, tick_interval_s: float, aggregation_rate_bps: float,
                    server_packet_bytes: float) -> float:
    """Invert eq. (37): the (possibly fractional) number of gamers at ``load``."""
    if not 0.0 < load < 1.0:
        raise ParameterError("load must lie in (0, 1)")
    return load * tick_interval_s * aggregation_rate_bps / (8.0 * server_packet_bytes)


def load_for_gamers(num_gamers: float, tick_interval_s: float, aggregation_rate_bps: float,
                    server_packet_bytes: float) -> float:
    """Eq. (37): the downlink load generated by ``num_gamers`` players."""
    if num_gamers <= 0.0:
        raise ParameterError("num_gamers must be positive")
    return 8.0 * num_gamers * server_packet_bytes / (tick_interval_s * aggregation_rate_bps)


#: Load resolution of the capacity searches: the returned load lies
#: within this distance below the true capacity.
LOAD_RESOLUTION = 1e-3


def one_gamer_load(scenario: Any) -> float:
    """Smallest load that ``scenario`` maps back to at least one gamer.

    Eq. (37)'s float round trip can lose the last bit —
    ``gamers_at_load(load_for_gamers(1.0))`` is ``0.99999...`` on some
    scenarios — so the one-gamer load is stepped up to the next float
    the one-gamer check accepts.
    """
    load = scenario.load_for_gamers(1.0)
    while scenario.gamers_at_load(load) < 1.0:
        load = math.nextafter(load, math.inf)
    return load


def max_load_within(
    rtt_at: Callable[[float], float],
    budget_s: float,
    lo: float,
    hi: float,
    xtol: float = LOAD_RESOLUTION,
) -> Optional[Tuple[float, float]]:
    """Largest load in ``[lo, hi]`` whose RTT meets ``budget_s``.

    ``rtt_at`` must be non-decreasing in the load.  Returns ``None``
    when even ``lo`` is over budget, ``(hi, rtt_at(hi))`` when ``hi``
    meets it, and otherwise runs Brent's method (the probe sequence of
    ``scipy.optimize.brentq``) on ``rtt_at(load) - budget_s`` and
    returns the largest probe within budget, with its RTT.  Brent stops
    once its bracket is narrower than ``xtol + 4 eps * load``, so
    ``rtt_at(load + 1.001 * xtol) > budget_s`` for loads below 1: the
    answer is feasible and at most ``xtol`` short of the capacity.
    Every returned RTT is a value ``rtt_at`` produced; no load is
    evaluated twice.
    """
    if lo > hi:
        raise ParameterError(f"empty load bracket [{lo}, {hi}]")
    rtt_lo = rtt_at(lo)
    if rtt_lo > budget_s:
        return None
    rtt_hi = rtt_at(hi)
    if rtt_hi <= budget_s:
        return hi, rtt_hi
    best = (lo, rtt_lo)
    search = _brentq_steps(lo, hi, xtol, budget_s)
    next(search)  # yields lo, already evaluated
    search.send(rtt_lo)  # yields hi, already evaluated
    value = rtt_hi
    try:
        while True:
            probe = search.send(value)
            value = rtt_at(probe)
            if value <= budget_s and probe > best[0]:
                best = (probe, value)
    except StopIteration:
        return best


@dataclass(frozen=True)
class DimensioningResult:
    """Outcome of a dimensioning computation."""

    rtt_bound_s: float
    probability: float
    max_load: float
    max_gamers: int
    rtt_at_max_load_s: float

    @property
    def rtt_bound_ms(self) -> float:
        return 1e3 * self.rtt_bound_s

    @property
    def rtt_at_max_load_ms(self) -> float:
        return 1e3 * self.rtt_at_max_load_s

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready dictionary view (seconds and derived milliseconds)."""
        return {
            "rtt_bound_s": self.rtt_bound_s,
            "rtt_bound_ms": self.rtt_bound_ms,
            "probability": self.probability,
            "max_load": self.max_load,
            "max_gamers": self.max_gamers,
            "rtt_at_max_load_s": self.rtt_at_max_load_s,
            "rtt_at_max_load_ms": self.rtt_at_max_load_ms,
        }


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of an admission-control question (serving-side Section 4).

    "Can this pipe take (more) gamers and keep the ``probability`` RTT
    quantile under ``rtt_budget_s``?" — answered by inverting the
    monotone load→quantile relation.  ``admitted`` is the verdict:
    the budget is meetable at some positive load and, when the request
    proposed an operating point (a load or gamer count), that point
    does not exceed the capacity.  An unmeetable budget is a *negative
    answer*, never an error — ``admitted=False`` with ``max_load=0``.

    ``source`` records which serving tier answered: ``"surface"`` when
    a certified quantile surface inverted the relation in O(1) with
    zero plans executed, ``"exact"`` for the stacked exact path (the
    bit-identical fallback).
    """

    rtt_budget_s: float
    probability: float
    admitted: bool
    max_load: float
    max_gamers: int
    rtt_at_max_load_s: float
    #: Proposed operating point (downlink load), if the request carried one.
    proposed_load: Optional[float] = None
    #: Which tier answered: "surface" (O(1) certified) or "exact".
    source: str = "exact"

    @property
    def rtt_budget_ms(self) -> float:
        return 1e3 * self.rtt_budget_s

    @property
    def rtt_at_max_load_ms(self) -> float:
        return 1e3 * self.rtt_at_max_load_s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dictionary view (seconds and derived milliseconds)."""
        out: Dict[str, Any] = {
            "rtt_budget_s": self.rtt_budget_s,
            "rtt_budget_ms": self.rtt_budget_ms,
            "probability": self.probability,
            "admitted": self.admitted,
            "max_load": self.max_load,
            "max_gamers": self.max_gamers,
            "rtt_at_max_load_s": self.rtt_at_max_load_s,
            "rtt_at_max_load_ms": self.rtt_at_max_load_ms,
            "source": self.source,
        }
        if self.proposed_load is not None:
            out["proposed_load"] = self.proposed_load
        return out


def max_tolerable_load(
    rtt_bound_s: float,
    *,
    scenario: Any,
    probability: float = DEFAULT_QUANTILE,
    method: str = "inversion",
) -> DimensioningResult:
    """Largest downlink load whose RTT quantile stays within ``rtt_bound_s``.

    One-shot form of :meth:`repro.engine.Engine.dimension` for
    ``scenario`` (a :class:`~repro.scenarios.base.Scenario` or a
    multi-server mix); raises :class:`~repro.errors.ParameterError`
    when the bound cannot be met even by a single gamer.
    """
    # Imported lazily: engine -> scenarios -> core would otherwise cycle.
    from ..engine import Engine

    return Engine(scenario, probability=probability, method=method).dimension(
        rtt_bound_s
    )


def max_gamers(rtt_bound_s: float, **kwargs) -> int:
    """Convenience wrapper returning only ``N_max``."""
    return max_tolerable_load(rtt_bound_s, **kwargs).max_gamers
