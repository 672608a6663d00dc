"""Remote executor: fan :class:`EvalPlan` units out over worker daemons.

:class:`RemoteExecutor` is the distributed leg of the executor seam.
It speaks the length-prefixed plan protocol of :mod:`repro.serve.wire`
to one or more worker daemons (``fps-ping serve --worker-mode``),
carrying each frame as a ``POST /v1/plan`` request over a per-host
keep-alive HTTP connection.  Because every plan is a self-contained,
picklable work unit and the evaluation kernels are stateless, the
answers are bit-identical to :class:`~repro.executors.SerialExecutor`
for any host count — *where* a plan runs cannot change a float.

Dispatch and failover
---------------------

Plans are spread over the healthy hosts round-robin: every host runs
one dispatch coroutine per connection that pulls the next pending plan,
ships it, and pulls again — equal-speed hosts alternate plans, a slow
host simply pulls less often, and the hosts overlap in time (dispatch
is sequential over each connection; across connections and hosts it is
concurrent).  ``connections_per_host`` opens several keep-alive
connections to each worker, which keeps a multi-process worker daemon
(``--worker-mode --workers N``) fully busy: the daemon executes the
concurrent plan requests on its own pool.

A host that dies mid-run — connection refused, reset, a timed-out
round trip, a garbled frame — is marked **down** and its in-flight plan
goes back to the front of the shared queue, where the surviving hosts
absorb it (the result records the extra hop in
:attr:`~repro.core.rtt.PlanResult.redispatches`).  Only when *no*
healthy host remains does the run raise
:class:`~repro.errors.ExecutorBrokenError`, carrying the last dead
host's identity and the stranded-plan count; a down host is retried
after ``recheck_down_s`` so a restarted worker rejoins without a
restart on this side.  A typed error raised *by a plan* (for example an
unstable operating point) arrives in an error frame and propagates to
the caller unchanged — a bad plan is the caller's bug, not a host
failure, and does not mark anything down.

Every returned result is stamped with the host that ran it and the
wire round-trip time, which :class:`repro.fleet.Fleet` folds into
per-host :class:`~repro.fleet.FleetStats`.

Example::

    from repro import Fleet, RemoteExecutor

    fleet = Fleet()
    with RemoteExecutor(["127.0.0.1:9101", "127.0.0.1:9102"]) as ex:
        answers = fleet.serve(requests, executor=ex)
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.rtt import EvalPlan, PlanResult
from ..errors import ExecutorBrokenError, ParameterError, WireFormatError
from ..serve.wire import decode_result, encode_plan
from .base import Executor

__all__ = ["RemoteExecutor"]

#: Errors that mean "this host (or the path to it) failed", as opposed
#: to a typed error the plan itself raised on a healthy worker.
_TRANSPORT_ERRORS = (OSError, EOFError, WireFormatError, asyncio.TimeoutError)


def _parse_host(spec: str) -> Tuple[str, int]:
    """Split a ``host:port`` spec, validating both halves."""
    spec = spec.strip()
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ParameterError(
            f"worker host {spec!r} is not of the form host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ParameterError(
            f"worker host {spec!r} has a non-numeric port"
        ) from None
    if not 0 < port < 65536:
        raise ParameterError(f"worker host {spec!r} has an out-of-range port")
    return host, port


class _HostState:
    """One worker host: address, health, cached connection, counters."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.name = f"{host}:{port}"
        self.down_since: Optional[float] = None
        #: slot -> (reader, writer, owning loop) keep-alive connections.
        self.conns: Dict[int, Tuple[asyncio.StreamReader, asyncio.StreamWriter, asyncio.AbstractEventLoop]] = {}
        self.plans = 0
        self.failures = 0
        self.wire_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        health = "down" if self.down_since is not None else "up"
        return f"_HostState({self.name}, {health}, plans={self.plans})"


class RemoteExecutor(Executor):
    """Executes plans on remote worker daemons with per-host failover.

    Parameters
    ----------
    hosts:
        Worker addresses — a sequence of ``"host:port"`` strings or one
        comma-separated string (the CLI's ``--remote`` form).
    timeout_s:
        Budget for one plan round trip (connect + send + execute +
        receive).  A host that overruns it is treated as dead for this
        run; ``None`` disables the bound.
    connect_timeout_s:
        Budget for establishing a fresh connection to a host.
    recheck_down_s:
        How long a dead host sits out before a later run offers it
        plans again (a restarted worker rejoins by itself).
    connections_per_host:
        Keep-alive connections (and so concurrent in-flight plans) per
        worker.  Match it to the worker daemons' ``--workers`` count so
        their process pools stay busy; the default of 1 preserves
        strictly sequential per-host dispatch.

    The sync :meth:`run` drives :meth:`run_async` via
    :func:`asyncio.run`, so it must not be called from a running event
    loop — asyncio callers (the serving daemon) use :meth:`run_async`,
    which also reuses the per-host keep-alive connections across calls.

    Dispatch is a plain pull: each connection takes the next plan when
    it finishes the last, until the queue is empty.  Placement never
    changes a served float.
    """

    def __init__(
        self,
        hosts: Union[str, Sequence[str]],
        *,
        timeout_s: Optional[float] = 60.0,
        connect_timeout_s: float = 5.0,
        recheck_down_s: float = 30.0,
        connections_per_host: int = 1,
    ) -> None:
        if isinstance(hosts, str):
            hosts = [part for part in hosts.split(",") if part.strip()]
        specs = [_parse_host(spec) for spec in hosts]
        if not specs:
            raise ParameterError("RemoteExecutor needs at least one worker host")
        if timeout_s is not None and float(timeout_s) <= 0.0:
            raise ParameterError("timeout_s must be positive (or None)")
        if float(connect_timeout_s) <= 0.0:
            raise ParameterError("connect_timeout_s must be positive")
        if float(recheck_down_s) < 0.0:
            raise ParameterError("recheck_down_s must not be negative")
        if int(connections_per_host) < 1:
            raise ParameterError("connections_per_host must be at least 1")
        seen: Dict[str, None] = {}
        self._hosts: List[_HostState] = []
        for host, port in specs:
            state = _HostState(host, port)
            if state.name in seen:
                raise ParameterError(f"worker host {state.name} listed twice")
            seen[state.name] = None
            self._hosts.append(state)
        self.timeout_s = None if timeout_s is None else float(timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.recheck_down_s = float(recheck_down_s)
        self.connections_per_host = int(connections_per_host)
        self.workers = len(self._hosts) * self.connections_per_host

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(state.name for state in self._hosts)
        return f"RemoteExecutor([{names}])"

    # -- health and statistics ------------------------------------------

    @property
    def hosts(self) -> List[str]:
        """The configured worker addresses, in dispatch order."""
        return [state.name for state in self._hosts]

    def host_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-host counters: plans run, failures, wire time, health."""
        return {
            state.name: {
                "plans": state.plans,
                "failures": state.failures,
                "wire_s": state.wire_s,
                "down": state.down_since is not None,
            }
            for state in self._hosts
        }

    def _eligible_hosts(self) -> List[_HostState]:
        """Hosts allowed to take plans this run.

        A down host rejoins once it has sat out ``recheck_down_s``.  If
        *every* host is inside its sit-out window the whole fleet is
        offered optimistically — the contract is that the run *after*
        an :class:`ExecutorBrokenError` retries, not that it waits out
        a cooldown while workers may already be back.
        """
        now = time.monotonic()
        eligible = [
            state
            for state in self._hosts
            if state.down_since is None
            or now - state.down_since >= self.recheck_down_s
        ]
        if not eligible:
            eligible = list(self._hosts)
        for state in eligible:
            state.down_since = None
        return eligible

    def _mark_down(self, state: _HostState, cause: BaseException) -> None:
        state.down_since = time.monotonic()
        state.failures += 1
        self._drop_conns(state)

    # -- connection management ------------------------------------------

    def _cached_conn(self, state: _HostState, slot: int):
        conn = state.conns.get(slot)
        if conn is None:
            return None
        _reader, writer, loop = conn
        if (
            loop is not asyncio.get_running_loop()
            or loop.is_closed()
            or writer.is_closing()
        ):
            state.conns.pop(slot, None)
            return None
        return conn

    def _drop_conn(self, state: _HostState, slot: int) -> None:
        conn = state.conns.pop(slot, None)
        if conn is not None:
            _reader, writer, _loop = conn
            try:
                writer.close()
            except Exception:  # pragma: no cover - already torn down
                pass

    def _drop_conns(self, state: _HostState) -> None:
        for slot in list(state.conns):
            self._drop_conn(state, slot)

    async def _connect(self, state: _HostState):
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(state.host, state.port),
            timeout=self.connect_timeout_s,
        )
        return reader, writer, asyncio.get_running_loop()

    # -- one plan round trip --------------------------------------------

    async def _roundtrip(
        self, state: _HostState, slot: int, conn, frame: bytes
    ) -> PlanResult:
        reader, writer, _loop = conn
        head = (
            f"POST /v1/plan HTTP/1.1\r\n"
            f"Host: {state.name}\r\n"
            f"Content-Type: application/octet-stream\r\n"
            f"Content-Length: {len(frame)}\r\n"
            f"\r\n"
        ).encode("ascii")
        writer.write(head + frame)
        await writer.drain()

        status_line = await reader.readline()
        if not status_line:
            raise WireFormatError(
                f"worker {state.name} closed the connection before responding"
            )
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise WireFormatError(
                f"worker {state.name} sent a malformed status line "
                f"{status_line!r}"
            )
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise WireFormatError(
                    f"worker {state.name} closed the connection mid-headers"
                )
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            raise WireFormatError(
                f"worker {state.name} sent no usable Content-Length"
            ) from None
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise WireFormatError(
                f"worker {state.name} closed the connection mid-body "
                f"({len(exc.partial)} of {length} bytes)"
            ) from exc

        if headers.get("connection", "").lower() == "close":
            self._drop_conn(state, slot)
        if headers.get("content-type", "") != "application/octet-stream":
            snippet = body[:120].decode("latin-1", "replace")
            raise WireFormatError(
                f"worker {state.name} responded {parts[1].decode()} without a "
                f"plan frame: {snippet!r}"
            )
        # decode_result re-raises the worker's typed error for an error
        # frame — that is a *plan* failure and propagates past the
        # transport handling in _dispatch.
        return decode_result(body)

    async def _dispatch(
        self, state: _HostState, slot: int, frame: bytes
    ) -> PlanResult:
        """Ship one frame to a host, retrying once over a stale socket.

        A keep-alive connection the worker quietly closed between runs
        fails on first use; that deserves one fresh-connection retry.
        A failure on a *fresh* connection — or a round-trip timeout —
        means the host is actually unhealthy and propagates.
        """
        for fresh in (False, True):
            conn = None if fresh else self._cached_conn(state, slot)
            reused = conn is not None
            if conn is None:
                conn = await self._connect(state)
                state.conns[slot] = conn
            try:
                if self.timeout_s is None:
                    return await self._roundtrip(state, slot, conn, frame)
                return await asyncio.wait_for(
                    self._roundtrip(state, slot, conn, frame),
                    timeout=self.timeout_s,
                )
            except asyncio.TimeoutError:
                self._drop_conn(state, slot)
                raise
            except (OSError, EOFError, WireFormatError):
                self._drop_conn(state, slot)
                if reused:
                    continue
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    # -- the run loop ----------------------------------------------------

    async def _drain(
        self,
        state: _HostState,
        slot: int,
        queue: Deque[Tuple[int, EvalPlan, int]],
        results: List[Optional[PlanResult]],
        failures: List[Tuple[_HostState, BaseException]],
    ) -> None:
        """One connection's dispatch loop: pull, ship, stamp, repeat.

        Returns normally when the queue runs dry and when the host
        fails (after putting its plan back for the survivors); a typed
        plan error propagates to the caller.
        """
        while queue:
            if state.down_since is not None:
                # A sibling connection to the same host already failed;
                # stop pulling rather than feed a dead worker.
                return
            index, plan, redispatches = queue.popleft()
            frame = encode_plan(plan)
            started = time.monotonic()
            try:
                result = await self._dispatch(state, slot, frame)
            except _TRANSPORT_ERRORS as exc:
                queue.appendleft((index, plan, redispatches + 1))
                self._mark_down(state, exc)
                failures.append((state, exc))
                return
            elapsed = time.monotonic() - started
            state.plans += 1
            state.wire_s += elapsed
            results[index] = replace(
                result, host=state.name, wire_s=elapsed, redispatches=redispatches
            )

    async def run_async(self, plans: Iterable[EvalPlan]) -> List[PlanResult]:
        plans = list(plans)
        if not plans:
            return []
        queue: Deque[Tuple[int, EvalPlan, int]] = deque(
            (index, plan, 0) for index, plan in enumerate(plans)
        )
        results: List[Optional[PlanResult]] = [None] * len(plans)
        failures: List[Tuple[_HostState, BaseException]] = []
        hosts = self._eligible_hosts()
        while True:
            # A host that finished its share may exit its drain loop
            # moments before another host fails and puts a plan back,
            # so stranded plans are re-offered to the survivors in a
            # fresh round rather than declared lost.
            alive = [state for state in hosts if state.down_since is None]
            if not alive:
                state, cause = failures[-1]
                raise ExecutorBrokenError(
                    f"every worker host is unreachable; {len(queue)} plan(s) "
                    f"stranded (last failure: {state.name}: {cause}); down "
                    f"hosts are retried after {self.recheck_down_s:g} s",
                    host=state.name,
                    plan_count=len(queue),
                    cause=cause,
                )
            outcomes = await asyncio.gather(
                *(
                    self._drain(state, slot, queue, results, failures)
                    for state in alive
                    for slot in range(self.connections_per_host)
                ),
                return_exceptions=True,
            )
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
            if not queue:
                return [result for result in results if result is not None]

    def run(self, plans: Iterable[EvalPlan]) -> List[PlanResult]:
        return asyncio.run(self.run_async(plans))

    def close(self) -> None:
        for state in self._hosts:
            self._drop_conns(state)
