import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_wire_config, random_wire_result
from gradfuzz.target_abi import (
    ConditionRecord,
    DecodeError,
    ExecutionConfig,
    ExecutionId,
    ExecutionResult,
    TerminationKind,
    TypeTag,
    context_hash,
    flip_bit,
    get_bit,
    set_bit,
    wire_decode,
    wire_encode,
)


class TestContextHash:
    def test_empty_is_offset_basis(self):
        assert context_hash([]) == 2166136261

    def test_depth_cap_ignores_younger_frames(self):
        a, b, c, d = 11, 22, 33, 44
        assert context_hash([a, b, c], depth_limit=2) == \
            context_hash([a, b, d], depth_limit=2)
        assert context_hash([a, b], depth_limit=2) == \
            context_hash([a, b, c, d], depth_limit=2)

    def test_order_sensitive(self):
        # distinguishes two call sites of the same function
        assert context_hash([1, 2]) != context_hash([2, 1])

    def test_pure_function_of_first_frames(self):
        rng = random.Random(7)
        for _ in range(50):
            depth = rng.randrange(1, 6)
            frames = [rng.randrange(2 ** 32) for _ in range(10)]
            other = frames[:depth] + [rng.randrange(2 ** 32)
                                      for _ in range(4)]
            assert context_hash(frames, depth) == context_hash(other, depth)


class TestRecords:
    def test_nan_branching_value_canonicalized(self):
        rec = ConditionRecord(ExecutionId(1, 2), True, math.nan, False, 0)
        assert rec.value == math.inf

    def test_result_rejects_mismatched_tags(self):
        with pytest.raises(ValueError):
            ExecutionResult(TerminationKind.NORMAL, b"ab",
                            (TypeTag.SINT8,), ())

    def test_result_rejects_nonmonotone_nbytes(self):
        records = (
            ConditionRecord(ExecutionId(1, 0), True, 1.0, False, 2),
            ConditionRecord(ExecutionId(2, 0), True, 1.0, False, 1),
        )
        with pytest.raises(ValueError):
            ExecutionResult(TerminationKind.NORMAL, b"ab",
                            (TypeTag.SINT16,), records)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(10, 10, 2, 0, b"abc")
        with pytest.raises(ValueError):
            ExecutionConfig(10, 10, 10, 7, b"")


class TestWireFormat:
    def test_config_round_trip_empty_input(self):
        config = ExecutionConfig(100, 10, 50, 0, b"")
        assert wire_decode(wire_encode(config)) == config

    def test_result_round_trip_with_infinite_value(self):
        records = tuple(
            ConditionRecord(ExecutionId(i, 7), i % 2 == 0,
                            value, False, 1)
            for i, value in enumerate((1.5, math.inf, -2.25)))
        result = ExecutionResult(TerminationKind.CRASH, b"x",
                                 (TypeTag.UINT8,), records)
        assert wire_decode(wire_encode(result)) == result

    def test_unknown_kind_byte(self):
        frame = bytes([0x07]) + b"\x00\x00\x00\x00"
        with pytest.raises(DecodeError):
            wire_decode(frame)

    def test_truncated_frame(self):
        frame = wire_encode(ExecutionConfig(1, 1, 1, 0, b""))
        with pytest.raises(DecodeError):
            wire_decode(frame[:-1])

    def test_trailing_garbage(self):
        frame = wire_encode(ExecutionConfig(1, 1, 1, 0, b""))
        with pytest.raises(DecodeError):
            wire_decode(frame + b"\x00")

    def test_round_trip_randomized(self):
        rng = random.Random(42)
        for _ in range(500):
            message = (random_wire_config(rng) if rng.random() < 0.5
                       else random_wire_result(rng))
            assert wire_decode(wire_encode(message)) == message

    @given(st.binary(max_size=16), st.sampled_from([0, 85]))
    @settings(max_examples=100)
    def test_config_round_trip_property(self, data, fill):
        config = ExecutionConfig(1000, 100, 4096, fill, data)
        assert wire_decode(wire_encode(config)) == config


class TestBitHelpers:
    def test_msb_first_convention(self):
        data = bytearray(b"\x00\x00")
        set_bit(data, 0, 1)
        assert bytes(data) == b"\x80\x00"
        set_bit(data, 15, 1)
        assert bytes(data) == b"\x80\x01"
        assert get_bit(bytes(data), 0) == 1
        assert get_bit(bytes(data), 1) == 0
        flip_bit(data, 0)
        assert bytes(data) == b"\x00\x01"
