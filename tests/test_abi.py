import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_wire_config, random_wire_result
from gradfuzz.target_abi import (
    FNV32_BASIS,
    ConditionRecord,
    DecodeError,
    ExecutionConfig,
    ExecutionId,
    ExecutionResult,
    TerminationKind,
    TypeTag,
    context_hash_push,
    flip_bit,
    get_bit,
    set_bit,
    wire_decode,
    wire_encode,
)


def fnv1a_32(data: bytes) -> int:
    h = 0x811C9DC5
    for b in data:
        h = ((h ^ b) * 0x01000193) & 0xFFFFFFFF
    return h


def push_all(uids):
    h = FNV32_BASIS
    for uid in uids:
        h = context_hash_push(h, uid)
    return h


def result_frame(payload: bytes) -> bytes:
    return b"\x02" + struct.pack(">I", len(payload)) + payload


class TestContextHash:
    def test_empty_is_offset_basis(self):
        assert push_all([]) == 2166136261

    def test_order_sensitive(self):
        # distinguishes two call sites of the same function
        assert push_all([1, 2]) != push_all([2, 1])

    def test_pure_function_of_first_frames(self):
        # each push extends FNV-1a over the little-endian call-site uids
        assert fnv1a_32(b"foobar") == 0xBF9CF968  # published test vector
        rng = random.Random(7)
        for _ in range(50):
            frames = [rng.randrange(2 ** 32) for _ in range(10)]
            for depth in range(len(frames) + 1):
                data = b"".join(uid.to_bytes(4, "little")
                                for uid in frames[:depth])
                assert push_all(frames[:depth]) == fnv1a_32(data)


class TestRecords:
    def test_nan_branching_value_canonicalized(self):
        rec = ConditionRecord(ExecutionId(1, 2), True, math.nan, False, 0)
        assert rec.value == math.inf
        # the namedtuple helpers build through the same constructor
        made = ConditionRecord._make((ExecutionId(1, 2), True, math.nan,
                                      False, 0))
        assert made.value == math.inf
        assert rec._replace(value=math.nan).value == math.inf

    def test_execution_id_hashes_as_pair(self):
        # set and dict orders that reach the manifest depend on this
        rng = random.Random(3)
        for _ in range(100):
            uid, ctx = rng.randrange(2 ** 32), rng.randrange(2 ** 32)
            assert hash(ExecutionId(uid, ctx)) == hash((uid, ctx))

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
            decoded = wire_decode(wire_encode(message))
            assert decoded == message
            # equality alone would accept bare tuples
            for rec in getattr(decoded, "trace", ()):
                assert type(rec) is ConditionRecord
                assert type(rec.id) is ExecutionId

    @pytest.mark.parametrize("tag", [len(TypeTag), 0xFF])
    def test_unknown_type_tag_byte(self, tag):
        payload = (struct.pack("<BI", 0, 1) + b"x"
                   + struct.pack("<I", 1) + bytes([tag])
                   + struct.pack("<I", 0))
        with pytest.raises(DecodeError):
            wire_decode(result_frame(payload))

    def test_record_block_shorter_than_count(self):
        payload = (struct.pack("<BIII", 0, 0, 0, 2)
                   + struct.pack("<IIBBdI", 1, 2, 1, 0, 1.5, 0))
        with pytest.raises(DecodeError):
            wire_decode(result_frame(payload))

    def test_nan_value_decodes_to_infinity(self):
        payload = (struct.pack("<BIII", 0, 0, 0, 1)
                   + struct.pack("<IIBBdI", 1, 2, 1, 0, math.nan, 0))
        (rec,) = wire_decode(result_frame(payload)).trace
        assert rec == ConditionRecord(ExecutionId(1, 2), True, math.inf,
                                      False, 0)

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
