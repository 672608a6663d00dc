"""A single-process asyncio load generator over keep-alive HTTP/1.1.

Two drivers:

* :func:`open_loop` releases each request at its due time whatever the
  daemon's state (independent users).  Released requests queue for one
  of at most ``connections`` keep-alive connections, so a stall delays
  every later request; latency is timed from the due time, and how late
  the generator itself released each request is recorded as its lag.
* :func:`batch_loop` is a closed loop on one connection: the next
  ``/v1/batch`` body is sent when the previous answer stream ends.

A connection the server closes (``Connection: close``, EOF) is reopened
for the next request and counted as a reconnect.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple


@dataclass
class Response:
    status: int
    body: bytes


@dataclass
class Record:
    """One open-loop request as the client saw it (loop-clock seconds)."""

    due: float
    released: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def round_trip_s(self) -> float:
        return self.done - self.sent

    @property
    def lag_s(self) -> float:
        return self.released - self.due


class Connection:
    """One keep-alive client connection; reopened after a server close."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.opens = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    @property
    def reconnects(self) -> int:
        return max(0, self.opens - 1)

    async def open(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=1 << 22
            )
            self.opens += 1

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def request(self, method: str, path: str, body: bytes = b"") -> Response:
        """Send one request and read its whole response.

        Raises ``ConnectionError`` / ``asyncio.IncompleteReadError`` when
        the connection breaks; the connection is closed then and
        reopened by the next request.
        """
        await self.open()
        assert self._reader is not None and self._writer is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        try:
            self._writer.write(head + body)
            status, headers = await self._read_head()
            if "chunked" in headers.get("transfer-encoding", ""):
                payload = await self._read_chunked()
            else:
                payload = await self._reader.readexactly(
                    int(headers.get("content-length", "0"))
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            await self.close()
            raise
        if headers.get("connection", "") == "close":
            await self.close()
        return Response(status, payload)

    async def _read_head(self) -> Tuple[int, dict]:
        assert self._reader is not None
        line = await self._reader.readline()
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        status = int(line.split()[1])
        headers = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return status, headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()

    async def _read_chunked(self) -> bytes:
        assert self._reader is not None
        pieces = []
        while True:
            size = int((await self._reader.readline()).split(b";")[0], 16)
            if size == 0:
                await self._reader.readline()
                return b"".join(pieces)
            pieces.append(await self._reader.readexactly(size))
            await self._reader.readexactly(2)


async def open_loop(
    host: str,
    port: int,
    schedule: Sequence[float],
    paths: Sequence[str],
    bodies: Sequence[bytes],
    connections: int,
) -> Tuple[List[Record], int]:
    """Replay ``bodies`` at ``schedule`` offsets; returns records and reconnects."""
    loop = asyncio.get_running_loop()
    pool = [Connection(host, port) for _ in range(connections)]
    for connection in pool:
        await connection.open()
    queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
    records: List[Optional[Record]] = [None] * len(schedule)
    start = loop.time() + 0.02

    async def release() -> None:
        for index, offset in enumerate(schedule):
            wait = start + offset - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            queue.put_nowait((index, loop.time()))
        for _ in pool:
            queue.put_nowait(None)

    async def send(connection: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, released = item
            sent = loop.time()
            try:
                response = await connection.request("POST", paths[index], bodies[index])
            except (ConnectionError, asyncio.IncompleteReadError) as exc:
                response = Response(0, repr(exc).encode("utf-8"))
            records[index] = Record(
                due=start + schedule[index],
                released=released,
                sent=sent,
                done=loop.time(),
                status=response.status,
                body=response.body,
            )

    await asyncio.gather(release(), *(send(connection) for connection in pool))
    for connection in pool:
        await connection.close()
    return records, sum(connection.reconnects for connection in pool)  # type: ignore[return-value]


@dataclass
class BatchCall:
    records: list
    started: float
    done: float
    status: int
    body: bytes


async def batch_loop(
    host: str,
    port: int,
    next_batch: Callable[[], Tuple[list, bytes]],
    *,
    seconds: Optional[float] = None,
    calls: Optional[int] = None,
) -> Tuple[List[BatchCall], int]:
    """Closed loop of ``/v1/batch`` calls for ``seconds`` or ``calls`` calls."""
    loop = asyncio.get_running_loop()
    connection = Connection(host, port)
    await connection.open()
    deadline = None if seconds is None else loop.time() + seconds
    made: List[BatchCall] = []
    while (calls is None or len(made) < calls) and (
        deadline is None or loop.time() < deadline
    ):
        records, body = next_batch()
        started = loop.time()
        try:
            response = await connection.request("POST", "/v1/batch", body)
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            response = Response(0, repr(exc).encode("utf-8"))
        made.append(BatchCall(records, started, loop.time(), response.status, response.body))
    await connection.close()
    return made, connection.reconnects
