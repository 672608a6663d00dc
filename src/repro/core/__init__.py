"""The paper's queueing methodology (Section 3) and dimensioning (Section 4)."""

from .mgf import ErlangTerm, ErlangTermSum
from .upstream import MD1Queue, MultiClassMG1Queue, PeriodicSourcesQueue, TrafficClass
from .downstream import (
    DEKOneQueue,
    MultiServerBurstQueue,
    PacketPositionDelay,
    ServerFlow,
    solve_root,
)
from .bounds import DeterministicRttBound
from .rtt import (
    DEFAULT_QUANTILE,
    ComposedRttModel,
    MixFlow,
    MixPingTimeModel,
    PingTimeModel,
    RttBreakdown,
)
from .dimensioning import (
    AdmissionResult,
    DimensioningResult,
    gamers_for_load,
    load_for_gamers,
    max_gamers,
    max_tolerable_load,
)

__all__ = [
    "ErlangTerm",
    "ErlangTermSum",
    "MD1Queue",
    "MultiClassMG1Queue",
    "PeriodicSourcesQueue",
    "TrafficClass",
    "DEKOneQueue",
    "MultiServerBurstQueue",
    "PacketPositionDelay",
    "ServerFlow",
    "solve_root",
    "DeterministicRttBound",
    "DEFAULT_QUANTILE",
    "ComposedRttModel",
    "MixFlow",
    "MixPingTimeModel",
    "PingTimeModel",
    "RttBreakdown",
    "AdmissionResult",
    "DimensioningResult",
    "gamers_for_load",
    "load_for_gamers",
    "max_gamers",
    "max_tolerable_load",
]
