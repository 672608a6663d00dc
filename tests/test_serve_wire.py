"""Property tests for the plan-protocol framing (:mod:`repro.serve.wire`).

The contract: a framed :class:`EvalPlan` / :class:`PlanResult` decodes
to an object equal to the original (and to a plain pickle round trip)
for every preset, including the multi-server mix; every malformed,
truncated or version-skewed frame raises the typed
:class:`~repro.errors.WireFormatError` — never a bare ``struct`` /
``pickle`` error, never a hang.
"""

import asyncio
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rtt import EvalPlan, execute_plan
from repro.errors import (
    ExecutorBrokenError,
    ReproError,
    StabilityError,
    WireFormatError,
)
from repro.fleet import Fleet, Request
from repro.serve import wire

#: One preset per access technology plus the multi-server mix — the
#: full spread of plan payload shapes (single-flow and "flows" params).
PRESETS = (
    "paper-dsl",
    "cable",
    "ftth",
    "lte",
    "satellite-leo",
    "dsl-mixed-background",
    "cloud-gaming",
    "multi-game-dsl",
)


def plan_for(preset, load=0.4):
    batch = Fleet()._plan_batch([Request(preset, downlink_load=load)])
    assert len(batch.eval_plans) == 1
    return batch.eval_plans[0]


@pytest.fixture(scope="module")
def preset_plans():
    return {preset: plan_for(preset) for preset in PRESETS}


class TestRoundTrip:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_plan_frame_round_trip_is_lossless(self, preset, preset_plans):
        plan = preset_plans[preset]
        kind, decoded = wire.decode_frame(wire.encode_plan(plan))
        assert kind == wire.KIND_PLAN
        assert decoded == plan
        assert decoded == pickle.loads(pickle.dumps(plan))
        # Lossless means executable: bit-identical floats on both sides.
        assert execute_plan(decoded).values == execute_plan(plan).values

    @pytest.mark.parametrize("preset", PRESETS)
    def test_result_frame_round_trip_is_lossless(self, preset, preset_plans):
        result = execute_plan(preset_plans[preset])
        decoded = wire.decode_result(wire.encode_result(result))
        assert decoded == result
        assert decoded == pickle.loads(pickle.dumps(result))
        assert decoded.values == result.values

    def test_decode_plan_requires_a_plan_frame(self, preset_plans):
        plan = preset_plans["paper-dsl"]
        assert wire.decode_plan(wire.encode_plan(plan)) == plan
        with pytest.raises(WireFormatError):
            wire.decode_plan(wire.encode_result(execute_plan(plan)))

    def test_decode_result_rejects_a_plan_frame(self, preset_plans):
        with pytest.raises(WireFormatError):
            wire.decode_result(wire.encode_plan(preset_plans["ftth"]))


class TestErrorFrames:
    def test_typed_errors_survive_the_round_trip(self):
        frame = wire.encode_error(StabilityError(1.25))
        with pytest.raises(StabilityError) as excinfo:
            wire.decode_result(frame)
        assert excinfo.value.load == 1.25

    def test_executor_error_keeps_its_structured_context(self):
        original = ExecutorBrokenError(
            "host died", host="10.0.0.7:9101", plan_count=3
        )
        with pytest.raises(ExecutorBrokenError) as excinfo:
            wire.decode_result(wire.encode_error(original))
        assert excinfo.value.host == "10.0.0.7:9101"
        assert excinfo.value.plan_count == 3

    def test_unpicklable_errors_degrade_to_a_repr_frame(self):
        class Handleful(RuntimeError):
            def __init__(self):
                super().__init__("boom")
                self.handle = lambda: None  # never pickles

        kind, payload = wire.decode_frame(wire.encode_error(Handleful()))
        assert kind == wire.KIND_ERROR
        assert isinstance(payload, ReproError)
        assert "Handleful" in str(payload)

    def test_encode_frame_checks_the_payload_type(self, preset_plans):
        plan = preset_plans["paper-dsl"]
        with pytest.raises(WireFormatError):
            wire.encode_frame(wire.KIND_RESULT, plan)
        with pytest.raises(WireFormatError):
            wire.encode_frame(wire.KIND_PLAN, "not a plan")
        with pytest.raises(WireFormatError):
            wire.encode_frame(99, plan)


def _header(version=wire.PROTOCOL_VERSION, kind=wire.KIND_PLAN, length=0,
            magic=wire.MAGIC):
    return struct.pack(">4sHBBI", magic, version, kind, 0, length)


class TestMalformedFrames:
    def test_short_and_empty_buffers(self):
        with pytest.raises(WireFormatError):
            wire.decode_frame(b"")
        with pytest.raises(WireFormatError):
            wire.decode_frame(b"FPSW\x00")

    def test_bad_magic(self):
        with pytest.raises(WireFormatError, match="magic"):
            wire.decode_frame(_header(magic=b"HTTP"))

    def test_version_mismatch_is_loud(self):
        with pytest.raises(WireFormatError, match="version"):
            wire.decode_frame(_header(version=wire.PROTOCOL_VERSION + 1))

    def test_version_1_plan_frame_is_rejected(self, preset_plans):
        # Version 1 plans carried one quantile level per plan, not one per
        # model; a worker must refuse them rather than run a mis-shaped plan.
        assert wire.PROTOCOL_VERSION == 2
        frame = wire.encode_plan(preset_plans["paper-dsl"])
        old = frame[:4] + struct.pack(">H", 1) + frame[6:]
        with pytest.raises(WireFormatError, match="version 1"):
            wire.decode_frame(old)

    def test_unknown_kind(self):
        with pytest.raises(WireFormatError, match="kind"):
            wire.decode_frame(_header(kind=42))

    def test_oversized_length_is_rejected_before_any_allocation(self):
        with pytest.raises(WireFormatError, match="bound"):
            wire.parse_header(_header(length=wire.MAX_FRAME_BYTES + 1))

    def test_truncated_and_padded_payloads(self, preset_plans):
        frame = wire.encode_plan(preset_plans["cable"])
        with pytest.raises(WireFormatError):
            wire.decode_frame(frame[:-3])
        with pytest.raises(WireFormatError):
            wire.decode_frame(frame + b"extra")

    def test_corrupt_pickle_payload(self):
        body = b"\x80\x04junk"
        with pytest.raises(WireFormatError, match="unpickle"):
            wire.decode_frame(_header(length=len(body)) + body)

    def test_kind_payload_type_mismatch(self):
        body = pickle.dumps({"not": "a plan"})
        with pytest.raises(WireFormatError, match="decoded to"):
            wire.decode_frame(_header(length=len(body)) + body)

    @given(data=st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_never_raise_untyped_errors(self, data):
        # The decoder's whole failure surface is WireFormatError; any
        # other exception on garbage input is a framing bug.
        try:
            wire.decode_frame(data)
        except WireFormatError:
            pass

    @given(cut=st.integers(min_value=0, max_value=400),
           flip=st.integers(min_value=0, max_value=400),
           value=st.integers(min_value=0, max_value=255))
    @settings(max_examples=200, deadline=None)
    def test_mutated_real_frames_decode_or_raise_typed(self, cut, flip, value):
        frame = bytearray(wire.encode_plan(_FUZZ_PLAN))
        if flip < len(frame):
            frame[flip] = value
        mutated = bytes(frame[: max(1, len(frame) - cut)])
        try:
            kind, payload = wire.decode_frame(mutated)
        except WireFormatError:
            return
        # A mutation the framing cannot detect must still decode to a
        # well-typed payload for its kind.
        assert isinstance(payload, wire._KIND_TYPES[kind])


#: Module-level plan for the hypothesis fuzzers (built once; hypothesis
#: re-runs the test body hundreds of times).
_FUZZ_PLAN = plan_for("paper-dsl")


class TestStreamReading:
    def run_read(self, *chunks, eof=True):
        async def main():
            reader = asyncio.StreamReader()
            for chunk in chunks:
                reader.feed_data(chunk)
            if eof:
                reader.feed_eof()
            # The no-hang guarantee, enforced: a truncated frame must
            # fail fast, not block the worker connection forever.
            return await asyncio.wait_for(wire.read_frame(reader), timeout=5.0)

        return asyncio.run(main())

    def test_reads_one_frame_from_a_stream(self, preset_plans):
        plan = preset_plans["multi-game-dsl"]
        kind, decoded = self.run_read(wire.encode_plan(plan))
        assert kind == wire.KIND_PLAN
        assert decoded == plan

    def test_reads_frames_split_across_chunks(self, preset_plans):
        frame = wire.encode_plan(preset_plans["lte"])
        kind, decoded = self.run_read(frame[:7], frame[7:20], frame[20:])
        assert decoded == preset_plans["lte"]

    def test_eof_before_any_header_bytes(self):
        with pytest.raises(WireFormatError, match="before a frame header"):
            self.run_read()

    def test_eof_inside_the_header(self):
        frame = wire.encode_plan(_FUZZ_PLAN)
        with pytest.raises(WireFormatError, match="inside a frame header"):
            self.run_read(frame[:5])

    def test_eof_inside_the_payload(self):
        frame = wire.encode_plan(_FUZZ_PLAN)
        with pytest.raises(WireFormatError, match="payload bytes"):
            self.run_read(frame[:-4])

    def test_version_skew_detected_at_the_header(self):
        with pytest.raises(WireFormatError, match="version"):
            self.run_read(_header(version=7) + b"xx", eof=False)
