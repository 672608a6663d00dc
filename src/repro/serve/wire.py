"""The length-prefixed plan protocol of the distributed execution tier.

A :class:`~repro.executors.RemoteExecutor` ships compiled
:class:`~repro.core.rtt.EvalPlan` units to worker daemons and receives
one :class:`~repro.core.rtt.PlanResult` (or a typed error) back.  Plans
were deliberately made picklable, self-contained messages by the
plan/execute split, so the transport is a framing problem: every
message on the wire is one **frame** —

::

    +-------+---------+------+-------+----------+-----------------+
    | magic | version | kind | flags | length   | payload         |
    | 4 B   | u16     | u8   | u8    | u32      | `length` bytes  |
    +-------+---------+------+-------+----------+-----------------+
    'FPSW'   big-endian                big-endian  pickled object

with three frame kinds: :data:`KIND_PLAN` carries an ``EvalPlan`` to a
worker, :data:`KIND_RESULT` a ``PlanResult`` back, and
:data:`KIND_ERROR` a pickled exception (the typed
:class:`~repro.errors.ReproError` a bad plan raised, exactly what an
in-process execution would have surfaced).  The explicit version field
makes a rolling upgrade fail loudly — a version-skewed frame raises
:class:`~repro.errors.WireFormatError`, never a silent mis-decode — and
the length prefix bounds every read: malformed, truncated or oversized
frames raise typed errors; nothing in this module can hang on corrupt
input.

The payload is a pickle, which makes the protocol **trusted-tier
only**: a worker daemon unpickles what the front-end sends (and vice
versa), so the plan port must never be exposed beyond the serving
cluster's trust boundary — exactly like any other pickle-over-IPC
(:class:`~repro.executors.ParallelExecutor` ships the same bytes to its
pool workers).  The frame layout is transport-agnostic: the daemon
carries frames as ``POST /v1/plan`` HTTP bodies, and the framing
discipline (explicit header, version, typed decode errors) follows the
classic event-driven reliable-transfer design where every message is
parsed from a self-describing header before a single payload byte is
trusted.

Example::

    frame = encode_plan(plan)                  # front-end -> worker
    kind, payload = decode_frame(frame)        # worker side
    result_frame = encode_result(execute_plan(payload))
    result = decode_result(result_frame)       # front-end side
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from typing import Any, Tuple

from ..core.rtt import EvalPlan, PlanResult
from ..errors import ReproError, WireFormatError

__all__ = [
    "PROTOCOL_VERSION",
    "HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "KIND_PLAN",
    "KIND_RESULT",
    "KIND_ERROR",
    "encode_frame",
    "encode_plan",
    "encode_result",
    "encode_error",
    "parse_header",
    "decode_frame",
    "decode_plan",
    "decode_result",
    "read_frame",
]

#: Protocol version; bumped on any frame-layout or payload change.
PROTOCOL_VERSION = 2

#: The frame magic ("FPS wire").
MAGIC = b"FPSW"

#: magic(4) + version(u16) + kind(u8) + flags(u8) + length(u32).
_HEADER = struct.Struct(">4sHBBI")
HEADER_SIZE = _HEADER.size

#: Upper bound on one frame's payload; a corrupt length prefix must not
#: make a reader allocate gigabytes.  A full-size 32-model plan pickles
#: to a few kilobytes, so 64 MiB is orders of magnitude of headroom.
MAX_FRAME_BYTES = 64 * 1024 * 1024

KIND_PLAN = 1
KIND_RESULT = 2
KIND_ERROR = 3

_KIND_NAMES = {KIND_PLAN: "plan", KIND_RESULT: "result", KIND_ERROR: "error"}

#: Payload type each frame kind must decode to.
_KIND_TYPES = {KIND_PLAN: EvalPlan, KIND_RESULT: PlanResult, KIND_ERROR: BaseException}


def encode_frame(kind: int, payload: Any) -> bytes:
    """Frame an object: header + pickled payload, ready for the wire."""
    if kind not in _KIND_NAMES:
        raise WireFormatError(f"unknown frame kind {kind!r}")
    expected = _KIND_TYPES[kind]
    if not isinstance(payload, expected):
        raise WireFormatError(
            f"a {_KIND_NAMES[kind]} frame must carry {expected.__name__}, "
            f"not {type(payload).__name__}",
            kind=_KIND_NAMES[kind],
        )
    body = pickle.dumps(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound",
            kind=_KIND_NAMES[kind],
        )
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, 0, len(body)) + body


def encode_plan(plan: EvalPlan) -> bytes:
    """Frame one :class:`~repro.core.rtt.EvalPlan` for a worker."""
    return encode_frame(KIND_PLAN, plan)


def encode_result(result: PlanResult) -> bytes:
    """Frame one :class:`~repro.core.rtt.PlanResult` for the front-end."""
    return encode_frame(KIND_RESULT, result)


def encode_error(exc: BaseException) -> bytes:
    """Frame an execution error (typed errors survive the round trip).

    An exception that does not pickle (some carry live handles) is
    downgraded to a :class:`~repro.errors.ReproError` holding its repr,
    so the front-end always gets *an* error frame, never a worker-side
    encoding crash.
    """
    try:
        return encode_frame(KIND_ERROR, exc)
    except Exception:
        fallback = ReproError(f"{type(exc).__name__}: {exc}")
        return encode_frame(KIND_ERROR, fallback)


def parse_header(header: bytes) -> Tuple[int, int]:
    """Validate a frame header; returns ``(kind, payload_length)``.

    Raises :class:`~repro.errors.WireFormatError` on short input, bad
    magic, a version mismatch, an unknown kind or an oversized length —
    each with a message naming exactly what is wrong, so a protocol
    skew between front-end and worker is a one-line diagnosis.
    """
    if len(header) < HEADER_SIZE:
        raise WireFormatError(
            f"truncated frame header: {len(header)} of {HEADER_SIZE} bytes"
        )
    magic, version, kind, _flags, length = _HEADER.unpack(header[:HEADER_SIZE])
    if magic != MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise WireFormatError(
            f"unsupported plan-protocol version {version} "
            f"(this build speaks {PROTOCOL_VERSION})"
        )
    if kind not in _KIND_NAMES:
        raise WireFormatError(f"unknown frame kind {kind}")
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound",
            kind=_KIND_NAMES[kind],
        )
    return kind, length


def decode_frame(data: bytes) -> Tuple[int, Any]:
    """Decode one complete frame; returns ``(kind, payload object)``.

    The buffer must hold exactly one frame (header + payload): a
    truncated or over-long buffer, a corrupt pickle, or a payload whose
    type does not match the frame kind all raise
    :class:`~repro.errors.WireFormatError`.
    """
    kind, length = parse_header(data)
    body = data[HEADER_SIZE:]
    if len(body) != length:
        raise WireFormatError(
            f"frame payload is {len(body)} bytes, header promised {length}",
            kind=_KIND_NAMES[kind],
        )
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise WireFormatError(
            f"frame payload does not unpickle: {exc!r}", kind=_KIND_NAMES[kind]
        ) from exc
    if not isinstance(payload, _KIND_TYPES[kind]):
        raise WireFormatError(
            f"a {_KIND_NAMES[kind]} frame decoded to {type(payload).__name__}",
            kind=_KIND_NAMES[kind],
        )
    return kind, payload


def decode_plan(data: bytes) -> EvalPlan:
    """Decode a frame that must carry an :class:`EvalPlan`."""
    kind, payload = decode_frame(data)
    if kind != KIND_PLAN:
        raise WireFormatError(
            f"expected a plan frame, got a {_KIND_NAMES[kind]} frame",
            kind=_KIND_NAMES[kind],
        )
    return payload


def decode_result(data: bytes) -> PlanResult:
    """Decode a worker's response frame.

    A result frame returns the :class:`PlanResult`; an error frame
    **re-raises the worker's exception** — the typed
    :class:`~repro.errors.ReproError` a bad plan produced propagates to
    the caller exactly as an in-process execution would have raised it.
    """
    kind, payload = decode_frame(data)
    if kind == KIND_ERROR:
        raise payload
    if kind != KIND_RESULT:
        raise WireFormatError(
            f"expected a result frame, got a {_KIND_NAMES[kind]} frame",
            kind=_KIND_NAMES[kind],
        )
    return payload


async def read_frame(reader: asyncio.StreamReader) -> Tuple[int, Any]:
    """Read one frame from a stream; returns ``(kind, payload object)``.

    The header is read first and validated before a single payload byte
    is trusted, so the reader never allocates more than the declared
    (and bounded) payload length.  A connection that closes mid-frame
    raises :class:`~repro.errors.WireFormatError` — a truncated frame
    is a protocol failure, not a hang.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise WireFormatError("connection closed before a frame header") from exc
        raise WireFormatError(
            f"connection closed inside a frame header "
            f"({len(exc.partial)} of {HEADER_SIZE} bytes)"
        ) from exc
    kind, length = parse_header(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireFormatError(
            f"connection closed inside a {_KIND_NAMES[kind]} frame "
            f"({len(exc.partial)} of {length} payload bytes)",
            kind=_KIND_NAMES[kind],
        ) from exc
    return decode_frame(header + body)
