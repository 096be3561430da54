import gc
import math
import random
import socket
import struct
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_interp
from helpers import (condition_record, flip_bit, random_wire_config,
                     random_wire_result)
from gradfuzz.executors import RemoteExecutor, TransportError
from gradfuzz.fuzz_loop import _render_value
from gradfuzz.generators.typed import _pack_value
from gradfuzz.minivm import VmLimits, execute, parse_program
from gradfuzz.target_abi import (
    CTX,
    DIRECTION,
    FNV32_BASIS,
    ID,
    NBYTES,
    UID,
    VALUE,
    XOR_FLAG,
    DecodeError,
    ExecutionConfig,
    ExecutionResult,
    TerminationKind,
    TypeTag,
    context_hash_push,
    differing_positions,
    get_bit,
    set_bit,
    wire_decode,
    wire_encode,
)
from test_robustness import gen_program


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


def tag_frame(raw_tags: bytes, n: int) -> bytes:
    """A result frame with ``n`` bytes read, the given tag bytes and an
    empty trace."""
    return result_frame(struct.pack("<BI", 0, n) + bytes(n)
                        + struct.pack("<I", len(raw_tags)) + raw_tags
                        + struct.pack("<III", 0, 0, 0))


def trace_payload(m, b, positions, rows) -> bytes:
    """A result payload with no bytes read and the trace part written out:
    m, b, the changed positions, then the rows (uid, ctx, direction, xor,
    value, nbytes)."""
    return (struct.pack("<BIIIII", 0, 0, 0, m, b, len(positions))
            + b"".join(struct.pack("<I", p) for p in positions)
            + b"".join(struct.pack("<IIBBdI", *row) for row in rows))


def assert_plain_records(trace):
    """Every record is an exact 5-tuple of an exact (uid, ctx) pair of
    ints, a bool direction, a float value, a bool xor flag and an int
    nbytes.  Equality alone would accept a tuple subclass, or ints for
    the flags."""
    for rec in trace:
        assert type(rec) is tuple and len(rec) == 5
        assert type(rec[ID]) is tuple and len(rec[ID]) == 2
        assert type(rec[ID][UID]) is int and type(rec[ID][CTX]) is int
        assert type(rec[DIRECTION]) is bool
        assert type(rec[VALUE]) is float
        assert type(rec[XOR_FLAG]) is bool
        assert type(rec[NBYTES]) is int


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
        rec = condition_record((1, 2), True, math.nan, False, 0)
        assert rec[VALUE] == math.inf
        assert rec == ((1, 2), True, math.inf, False, 0)
        assert type(rec) is tuple

    def test_execution_id_hashes_as_pair(self):
        # set and dict orders that reach the manifest depend on this: a
        # decoded id is the exact pair, so it hashes and compares as one
        rng = random.Random(3)
        for _ in range(100):
            uid, ctx = rng.randrange(2 ** 32), rng.randrange(2 ** 32)
            rec = condition_record((uid, ctx), True, 1.0, False, 0)
            result = ExecutionResult(TerminationKind.NORMAL, b"", (), (rec,))
            (got,) = wire_decode(wire_encode(result)).trace
            assert type(got[ID]) is tuple and got[ID] == (uid, ctx)
            assert hash(got[ID]) == hash((uid, ctx))

    # a result is checked where it crosses the wire, not where it is built
    def test_result_rejects_mismatched_tags(self):
        frame = wire_encode(ExecutionResult(TerminationKind.NORMAL, b"ab",
                                            (TypeTag.SINT8,), ()))
        with pytest.raises(DecodeError, match="type tags"):
            wire_decode(frame)

    def test_result_rejects_nonmonotone_nbytes(self):
        records = (
            condition_record((1, 0), True, 1.0, False, 2),
            condition_record((2, 0), True, 1.0, False, 1),
        )
        frame = wire_encode(ExecutionResult(TerminationKind.NORMAL, b"ab",
                                            (TypeTag.SINT16,), records))
        with pytest.raises(DecodeError, match="nbytes"):
            wire_decode(frame)

    def test_differing_positions_below_the_shorter_length(self):
        a = [condition_record((1, 0), True, 1.0, False, 0),
             condition_record((2, 0), True, 1.0, False, 0),
             condition_record((3, 0), True, 1.0, False, 1),
             condition_record((4, 0), True, 1.0, False, 1)]
        b = [a[0],
             condition_record((2, 0), False, 1.0, False, 0),
             condition_record((3, 0), True, 1.0, False, 1),
             condition_record((4, 0), True, 2.0, False, 1),
             a[3]]
        assert list(differing_positions(a, b)) == [1, 3]
        assert list(differing_positions(b[:2], a)) == [1]
        assert list(differing_positions((), a)) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(10, 10, 2, 1000, 0, b"abc")
        with pytest.raises(ValueError):
            ExecutionConfig(10, 10, 10, 1000, 7, b"")


class TestWireFormat:
    def test_config_round_trip_empty_input(self):
        config = ExecutionConfig(100, 10, 50, 1000, 0, b"")
        assert wire_decode(wire_encode(config)) == config

    def test_result_round_trip_with_infinite_value(self):
        records = tuple(
            condition_record((i, 7), i % 2 == 0,
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
        frame = wire_encode(ExecutionConfig(1, 1, 1, 1, 0, b""))
        with pytest.raises(DecodeError):
            wire_decode(frame[:-1])

    def test_trailing_garbage(self):
        frame = wire_encode(ExecutionConfig(1, 1, 1, 1, 0, b""))
        with pytest.raises(DecodeError):
            wire_decode(frame + b"\x00")

    def test_round_trip_randomized(self):
        rng = random.Random(42)
        for _ in range(500):
            message = (random_wire_config(rng) if rng.random() < 0.5
                       else random_wire_result(rng))
            decoded = wire_decode(wire_encode(message))
            assert decoded == message
            assert_plain_records(getattr(decoded, "trace", ()))

    @pytest.mark.parametrize("tag", [len(TypeTag), 0xFF])
    def test_unknown_type_tag_byte(self, tag):
        payload = (struct.pack("<BI", 0, 1) + b"x"
                   + struct.pack("<I", 1) + bytes([tag])
                   + struct.pack("<I", 0))
        with pytest.raises(DecodeError):
            wire_decode(result_frame(payload))

    def test_record_block_shorter_than_count(self):
        payload = trace_payload(2, 0, (), [(1, 2, 1, 0, 1.5, 0)])
        with pytest.raises(DecodeError):
            wire_decode(result_frame(payload))

    def test_nan_value_decodes_to_infinity(self):
        payload = trace_payload(1, 0, (), [(1, 2, 1, 0, math.nan, 0)])
        (rec,) = wire_decode(result_frame(payload)).trace
        assert rec == condition_record((1, 2), True, math.inf,
                                       False, 0)
        # a changed record is built by the same rule
        payload = trace_payload(1, 1, (0,), [(1, 2, 1, 0, math.nan, 0)])
        previous = (condition_record((1, 2), True, 1.5, False,
                                     0),)
        (rec,) = wire_decode(result_frame(payload), previous).trace
        assert rec[VALUE] == math.inf

    def test_nonzero_flag_bytes_decode_to_true(self):
        payload = trace_payload(2, 0, (), [(1, 2, 2, 255, 1.5, 0),
                                           (3, 4, 255, 2, 1.5, 0)])
        for rec in wire_decode(result_frame(payload)).trace:
            assert rec[DIRECTION] is True and rec[XOR_FLAG] is True

    def test_negative_zero_keeps_its_sign(self):
        result = ExecutionResult(
            TerminationKind.NORMAL, b"", (),
            (condition_record((1, 2), False, -0.0, False, 0),))
        (rec,) = wire_decode(wire_encode(result)).trace
        assert math.copysign(1.0, rec[VALUE]) == -1.0

    def test_config_carries_a_step_budget_beyond_32_bits(self):
        config = ExecutionConfig(1, 1, 1, 10 ** 12, 0, b"")
        assert wire_decode(wire_encode(config)).step_budget == 10 ** 12

    def test_config_caps_of_two_to_the_32_round_trip(self):
        config = VmLimits(max_trace_length=2 ** 32, max_stack_size=2 ** 32,
                          max_input_bytes=2 ** 32,
                          step_budget=2 ** 32).config(0, b"")
        assert wire_decode(wire_encode(config)) == config
        top = ExecutionConfig(2 ** 64 - 1, 1, 1, 1, 0, b"")
        assert wire_decode(wire_encode(top)) == top

    @pytest.mark.parametrize("field", ["max_trace_length", "max_stack_size",
                                       "max_input_bytes", "step_budget"])
    def test_a_cap_beyond_64_bits_is_named(self, field):
        caps = dict(max_trace_length=1, max_stack_size=1, max_input_bytes=1,
                    step_budget=1)
        caps[field] = 2 ** 64
        config = ExecutionConfig(**caps, fill_byte=0, input_bytes=b"")
        with pytest.raises(ValueError, match=field):
            wire_encode(config)

    def test_error_frame_round_trip(self):
        text = "config step_budget exceeds executor limit 1000 \u00b5"
        assert wire_decode(wire_encode(text)) == text

    @given(st.binary(max_size=16), st.sampled_from([0, 85]))
    @settings(max_examples=100)
    def test_config_round_trip_property(self, data, fill):
        config = ExecutionConfig(1000, 100, 4096, 10 ** 7, fill, data)
        assert wire_decode(wire_encode(config)) == config


def record(uid, value=1.5, nbytes=0, direction=True):
    return condition_record((uid, 7), direction, value, False,
                            nbytes)


def replaced(rec, direction=None, value=None):
    """``rec`` with its direction or value replaced."""
    rid, old_direction, old_value, xor, nbytes = rec
    return condition_record(
        rid, old_direction if direction is None else direction,
        old_value if value is None else value, xor, nbytes)


def mutate(rng, result):
    """A result like the fuzzing traffic: a small change of ``result``."""
    trace = list(result.trace)
    top = trace[-1][NBYTES] if trace else 0
    change = rng.choice(("same_length", "shorter", "longer", "empty",
                         "zero_sign", "infinity"))
    if change == "same_length" and trace:
        for _ in range(rng.randrange(1, 3)):
            i = rng.randrange(len(trace))
            trace[i] = replaced(
                trace[i], direction=not trace[i][DIRECTION],
                value=rng.choice((trace[i][VALUE], rng.uniform(-9, 9))))
    elif change == "shorter":
        del trace[rng.randrange(len(trace) + 1):]
    elif change == "longer":
        for _ in range(rng.randrange(1, 4)):
            trace.append(record(rng.randrange(2 ** 32),
                                rng.choice((0.0, -0.0, 2.5)), top))
    elif change == "empty":
        trace = []
    elif change == "zero_sign":
        trace = [replaced(rec, value=-rec[VALUE]) if rec[VALUE] == 0
                 else rec for rec in trace]
        if trace:
            i = rng.randrange(len(trace))
            trace[i] = replaced(trace[i], value=rng.choice((0.0, -0.0)))
    elif trace:
        i = rng.randrange(len(trace))
        trace[i] = replaced(trace[i], value=rng.choice((math.inf,
                                                        -math.inf)))
    return ExecutionResult(result.termination, result.bytes_read,
                           result.type_tags, tuple(trace))


class TestDeltaFrames:
    """A result frame carries only what changed since the previous trace
    on its connection."""

    def test_sequence_round_trip(self):
        rng = random.Random(9)
        for _ in range(40):
            sent = decoded = ()
            result = random_wire_result(rng)
            for _ in range(40):
                frame = wire_encode(result, sent)
                got = wire_decode(frame, decoded)
                assert wire_encode(got) == wire_encode(result)
                assert_plain_records(got.trace)
                sent, decoded = result.trace, got.trace
                result = (random_wire_result(rng) if rng.random() < 0.1
                          else mutate(rng, result))

    def test_unchanged_records_are_not_resent_and_zeros_are(self):
        previous = (record(1), record(2, 0.0), record(3), record(4, -0.0))
        result = ExecutionResult(TerminationKind.NORMAL, b"", (),
                                 previous + (record(5),))
        frame = wire_encode(result, previous)
        # positions 1 and 3 (the zeros), then the tail record
        assert frame.endswith(trace_payload(
            5, 4, (1, 3), [(2, 7, 1, 0, 0.0, 0), (4, 7, 1, 0, -0.0, 0),
                           (5, 7, 1, 0, 1.5, 0)]))
        got = wire_decode(frame, previous).trace
        assert got[0] is previous[0] and got[2] is previous[2]
        assert wire_encode(ExecutionResult(TerminationKind.NORMAL, b"", (),
                                           got)) == wire_encode(result)

    def test_a_connection_decodes_each_id_once(self):
        # a connection's ids come from its table, so the records of a
        # later frame hold the objects an earlier frame's did.  Its ids
        # and records leave the collector in one collection; a fresh id
        # per record kept the records tracked for a second one
        first = (record(1), record(2), record(3), record(2))
        second = (record(1, 2.5), record(2, 0.5), record(3), record(4),
                  record(1))
        ids = {}
        a = wire_decode(wire_encode(ExecutionResult(
            TerminationKind.NORMAL, b"", (), first)), (), ids).trace
        gc.collect()
        b = wire_decode(wire_encode(ExecutionResult(
            TerminationKind.NORMAL, b"", (), second), first), a, ids).trace
        assert b == second
        assert a[1][ID] is a[3][ID]
        assert all(x[ID] is y[ID] for x, y in zip(a[:3], b))
        assert b[4][ID] is a[0][ID]
        assert len(ids) == 4
        gc.collect()
        for trace in (a, b):
            assert not any(gc.is_tracked(rec) or gc.is_tracked(rec[ID])
                           for rec in trace)
        # a frame decoded on its own shares ids within itself only
        c = wire_decode(wire_encode(ExecutionResult(
            TerminationKind.NORMAL, b"", (), first))).trace
        assert c[1][ID] is c[3][ID] and c[0][ID] is not a[0][ID]

    PREVIOUS = (record(1), record(2), record(3))

    def test_well_formed_frame_patches_the_previous_trace(self):
        payload = trace_payload(4, 3, (1,), [(9, 7, 0, 0, 2.5, 0),
                                             (8, 7, 1, 0, 1.5, 0)])
        got = wire_decode(result_frame(payload), self.PREVIOUS).trace
        assert got == (record(1), record(9, 2.5, direction=False),
                       record(3), record(8))
        assert got[0] is self.PREVIOUS[0] and got[2] is self.PREVIOUS[2]

    @pytest.mark.parametrize("m, b, positions, rows", [
        # positions not strictly increasing
        (3, 3, (2, 1), 2),
        (3, 3, (1, 1), 2),
        # a position at or beyond min(m, b)
        (3, 3, (3,), 1),
        (2, 3, (2,), 1),
        (4, 3, (0, 3), 3),
        # b is not the length of the previous trace
        (3, 2, (), 1),
        (3, 4, (), 0),
        # record block one short and one long of c + max(0, m - b)
        (4, 3, (0,), 1),
        (4, 3, (0,), 3),
        (2, 3, (0,), 0),
        (2, 3, (0,), 2),
    ])
    def test_malformed_delta_frame(self, m, b, positions, rows):
        payload = trace_payload(m, b, positions,
                                [(9, 7, 1, 0, 2.5, 0)] * rows)
        with pytest.raises(DecodeError):
            wire_decode(result_frame(payload), self.PREVIOUS)

    @pytest.mark.parametrize("m, positions, nbytes, accepted", [
        # a changed record against its unchanged predecessor
        (3, (1,), 2, True),
        (3, (1,), 1, False),
        # a record past the end of the previous trace
        (4, (), 2, True),
        (4, (), 1, False),
    ])
    def test_decoded_nbytes_must_not_fall(self, m, positions, nbytes,
                                          accepted):
        previous = (record(1, nbytes=2), record(2, nbytes=2),
                    record(3, nbytes=2))
        payload = trace_payload(m, 3, positions,
                                [(9, 7, 1, 0, 2.5, nbytes)])
        if accepted:
            assert len(wire_decode(result_frame(payload), previous).trace) \
                == m
            return
        with pytest.raises(DecodeError, match="nbytes"):
            wire_decode(result_frame(payload), previous)

    @pytest.mark.parametrize("tags, accepted", [
        ((TypeTag.SINT16,), True),
        ((TypeTag.UINT8, TypeTag.BOOLEAN), True),
        ((TypeTag.SINT8,), False),
        ((TypeTag.SINT32,), False),
        ((), False),
    ])
    def test_tags_must_cover_the_bytes_read(self, tags, accepted):
        payload = (struct.pack("<BI", 0, 2) + b"ab"
                   + struct.pack("<I", len(tags)) + bytes(tags)
                   + struct.pack("<III", 0, 0, 0))
        if accepted:
            assert wire_decode(result_frame(payload)).type_tags == tags
            return
        with pytest.raises(DecodeError, match="type tags"):
            wire_decode(result_frame(payload))

    def test_delta_frame_against_no_previous_trace(self):
        result = ExecutionResult(TerminationKind.NORMAL, b"", (),
                                 self.PREVIOUS)
        frame = wire_encode(result, self.PREVIOUS)
        assert wire_decode(frame, self.PREVIOUS) == result
        with pytest.raises(DecodeError):
            wire_decode(frame)

    def test_bit_flips_of_a_scanner_input_send_few_records(self):
        source = (Path(__file__).parent.parent / "bench/targets/scanner.mc")
        program = parse_program(source.read_text())
        limits = VmLimits()
        base_input = random.Random(4).randbytes(82)
        base = execute(program, limits.config(0, base_input))
        assert len(base.trace) == 166
        for bit in range(8 * len(base_input)):
            data = bytearray(base_input)
            flip_bit(data, bit)
            flipped = execute(program, limits.config(0, bytes(data)))
            frame = wire_encode(flipped, base.trace)
            # m, b and c follow the frame head (5 bytes), the termination
            # and the 82 bytes read (5 + 82) and the 82 tags (4 + 82)
            m, b, c = struct.unpack_from("<III", frame, 5 + 87 + 86)
            assert c + max(0, m - b) <= 3
            got = wire_decode(frame, base.trace)
            assert wire_encode(got) == wire_encode(flipped)


# a previous trace whose nbytes rise by one per record
RISING = (record(1, nbytes=1), record(2, nbytes=2), record(3, nbytes=3))


def tagged_frame(data, tags):
    payload = (struct.pack("<BI", 0, len(data)) + data
               + struct.pack("<I", len(tags)) + bytes(tags)
               + struct.pack("<III", 0, 0, 0))
    return result_frame(payload)


# frames that would rebuild a result that is not well-formed, each with
# the previous trace it is coded against
BAD_FRAMES = {
    "changed record below its predecessor": (RISING, result_frame(
        trace_payload(3, 3, (1,), [(9, 7, 1, 0, 2.5, 0)]))),
    "changed record above its successor": (RISING, result_frame(
        trace_payload(3, 3, (1,), [(9, 7, 1, 0, 2.5, 4)]))),
    "tail record below the last shared record": (RISING, result_frame(
        trace_payload(4, 3, (), [(9, 7, 1, 0, 2.5, 2)]))),
    "tail record below a changed last shared record": (RISING, result_frame(
        trace_payload(4, 3, (2,), [(9, 7, 1, 0, 2.5, 5),
                                   (8, 7, 1, 0, 2.5, 4)]))),
    "tail records that fall": ((), result_frame(
        trace_payload(3, 0, (), [(9, 7, 1, 0, 2.5, 1),
                                 (8, 7, 1, 0, 2.5, 2),
                                 (7, 7, 1, 0, 2.5, 1)]))),
    "tags one byte short": ((), tagged_frame(b"abc", (TypeTag.UINT16,))),
    "tags one byte over": ((), tagged_frame(
        b"abc", (TypeTag.UINT16, TypeTag.UINT16))),
}


class TestWellFormedResults:
    """``wire_decode`` is the one place a result is checked: it rejects a
    frame whose result would not be well-formed, comparing only the
    records the frame carries against their neighbours."""

    @pytest.mark.parametrize("case", sorted(BAD_FRAMES))
    def test_bad_frame_is_rejected(self, case):
        previous, frame = BAD_FRAMES[case]
        with pytest.raises(DecodeError, match="nbytes|type tags"):
            wire_decode(frame, previous)

    @pytest.mark.parametrize("m, positions, rows, want", [
        # a changed record between equal neighbours
        (3, (1,), [(9, 7, 1, 0, 2.5, 1)], (1, 1, 3)),
        (3, (1,), [(9, 7, 1, 0, 2.5, 3)], (1, 3, 3)),
        # a shorter trace: the dropped successor does not bound the last
        # record
        (2, (1,), [(9, 7, 1, 0, 2.5, 5)], (1, 5)),
        (1, (), [], (1,)),
        # a tail that starts at the last shared record's nbytes
        (5, (), [(9, 7, 1, 0, 2.5, 3), (8, 7, 1, 0, 2.5, 3)],
         (1, 2, 3, 3, 3)),
    ])
    def test_well_formed_delta_frame_decodes(self, m, positions, rows, want):
        payload = trace_payload(m, 3, positions, rows)
        got = wire_decode(result_frame(payload), RISING).trace
        assert tuple(rec[NBYTES] for rec in got) == want

    @pytest.mark.parametrize("case", sorted(BAD_FRAMES))
    def test_remote_executor_reports_a_malformed_frame(self, case):
        previous, frame = BAD_FRAMES[case]
        # the fake server answers the first config with ``previous`` in
        # full, so both ends hold it, and the next with the bad frame
        answers = [frame]
        if previous:
            answers.insert(0, wire_encode(ExecutionResult(
                TerminationKind.NORMAL, b"", (), previous)))
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                for answer in answers:
                    conn.recv(4096)
                    conn.sendall(answer)
                while conn.recv(4096):
                    pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        config = ExecutionConfig(10, 10, 10, 10, 0, b"")
        try:
            with RemoteExecutor(listener.getsockname()[:2],
                                timeout=10) as remote:
                if previous:
                    assert remote(config).trace == previous
                with pytest.raises(TransportError, match="malformed frame"):
                    remote(config)
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            listener.close()


class TestRecordRepresentation:
    """A record is a plain tuple wherever it is built: by the compiled
    interpreter, by the reference interpreter and by the decoder, from
    full and from delta frames."""

    @staticmethod
    def sources():
        # between them, the generated targets read floats and call plain
        # and recursive functions
        yield from map(gen_program, range(30))
        root = Path(__file__).parent.parent
        for path in sorted((root / "benchmarks").glob("*.mc")):
            yield path.read_text()

    def test_every_builder_makes_plain_tuples(self):
        limits = VmLimits(max_trace_length=300, max_stack_size=32,
                          max_input_bytes=48, step_budget=50_000)
        rng = random.Random(11)
        records = 0
        for source in self.sources():
            program = parse_program(source)
            sent = decoded = ()
            for _ in range(8):
                config = limits.config(0, rng.randbytes(rng.randrange(48)))
                result = execute(program, config)
                assert_plain_records(result.trace)
                assert_plain_records(
                    reference_interp.execute(program, config).trace)
                assert_plain_records(wire_decode(wire_encode(result)).trace)
                decoded = wire_decode(wire_encode(result, sent),
                                      decoded).trace
                assert_plain_records(decoded)
                sent = result.trace
                records += len(sent)
        assert records > 1000


# written out independently of TypeTag: byte width, least and greatest
# value of every integer tag
INT_TAGS = {
    TypeTag.BOOLEAN: (1, 0, 1),
    TypeTag.UINT8: (1, 0, 2 ** 8 - 1),
    TypeTag.UINT16: (2, 0, 2 ** 16 - 1),
    TypeTag.UINT32: (4, 0, 2 ** 32 - 1),
    TypeTag.UINT64: (8, 0, 2 ** 64 - 1),
    TypeTag.SINT8: (1, -2 ** 7, 2 ** 7 - 1),
    TypeTag.SINT16: (2, -2 ** 15, 2 ** 15 - 1),
    TypeTag.SINT32: (4, -2 ** 31, 2 ** 31 - 1),
    TypeTag.SINT64: (8, -2 ** 63, 2 ** 63 - 1),
    TypeTag.UNTYPED8: (1, 0, 2 ** 8 - 1),
    TypeTag.UNTYPED16: (2, 0, 2 ** 16 - 1),
    TypeTag.UNTYPED32: (4, 0, 2 ** 32 - 1),
    TypeTag.UNTYPED64: (8, 0, 2 ** 64 - 1),
}
FLOAT_TAGS = {TypeTag.FLOAT32: "<f", TypeTag.FLOAT64: "<d"}


class TestTypeTagTable:
    def test_every_tag_is_integer_or_float(self):
        assert set(INT_TAGS) | set(FLOAT_TAGS) == set(TypeTag)

    def test_codec_and_domain(self):
        for tag in TypeTag:
            assert tag.codec.size == tag.byte_width
            assert tag.bit_width == 8 * tag.byte_width
        for tag, (width, lo, hi) in INT_TAGS.items():
            assert (tag.byte_width, tag.domain) == (width, (lo, hi))
            assert tag.is_signed == (lo < 0)
            assert not tag.is_float
        for tag, fmt in FLOAT_TAGS.items():
            assert tag.codec.format == fmt and tag.domain is None
            assert tag.is_float and not tag.is_signed

    def test_domain_ends_round_trip_through_pack(self):
        for tag, (width, lo, hi) in INT_TAGS.items():
            for value in (lo, hi):
                raw = _pack_value(tag, value)
                assert len(raw) == width
                assert int.from_bytes(raw, "little", signed=lo < 0) == value

    def test_values_outside_the_domain_clamp_to_its_ends(self):
        for tag, (_, lo, hi) in INT_TAGS.items():
            for outside in (lo - 1, lo - 10 ** 30, float(lo) - 2 ** 70):
                assert _pack_value(tag, outside) == _pack_value(tag, lo)
            for outside in (hi + 1, hi + 10 ** 30, float(hi) + 2 ** 70):
                assert _pack_value(tag, outside) == _pack_value(tag, hi)

    def test_floats_pack_exactly_or_saturate_to_infinity(self):
        for value in (-0.0, 1.5, -3.25, math.inf, -math.inf):
            for tag, fmt in FLOAT_TAGS.items():
                assert _pack_value(tag, value) == struct.pack(fmt, value)
        big = 1e300
        assert _pack_value(TypeTag.FLOAT32, big) == struct.pack("<f", math.inf)
        assert _pack_value(TypeTag.FLOAT32, -big) == \
            struct.pack("<f", -math.inf)
        assert _pack_value(TypeTag.FLOAT64, big) == struct.pack("<d", big)
        nan = _pack_value(TypeTag.FLOAT64, math.nan)
        assert math.isnan(struct.unpack("<d", nan)[0])

    @pytest.mark.parametrize("tag, raw, text", [
        (TypeTag.BOOLEAN, b"\x00", "0"),
        (TypeTag.BOOLEAN, b"\x01", "1"),
        (TypeTag.BOOLEAN, b"\x05", "1"),
        (TypeTag.UINT8, b"\xff", "255"),
        (TypeTag.SINT8, b"\xff", "-1"),
        (TypeTag.UINT16, b"\x01\x80", "32769"),
        (TypeTag.SINT16, b"\x01\x80", "-32767"),
        (TypeTag.UINT32, b"\xfe\xff\xff\xff", "4294967294"),
        (TypeTag.SINT32, b"\xfe\xff\xff\xff", "-2"),
        (TypeTag.UINT64, bytes(7) + b"\x80", "9223372036854775808"),
        (TypeTag.SINT64, bytes(7) + b"\x80", "-9223372036854775808"),
        (TypeTag.FLOAT32, struct.pack("<f", 1.5), "1.5"),
        (TypeTag.FLOAT32, struct.pack("<f", 0.1), "0.10000000149011612"),
        (TypeTag.FLOAT32, b"\x00\x00\x00\x80", "-0.0"),
        (TypeTag.FLOAT32, b"\x00\x00\xc0\x7f", "nan"),
        (TypeTag.FLOAT32, b"\x00\x00\x80\xff", "-inf"),
        (TypeTag.FLOAT64, struct.pack("<d", 0.1), "0.1"),
        (TypeTag.FLOAT64, struct.pack("<d", -0.0), "-0.0"),
        (TypeTag.FLOAT64, struct.pack("<d", math.nan), "nan"),
        (TypeTag.FLOAT64, struct.pack("<d", math.inf), "inf"),
        (TypeTag.UNTYPED8, b"\x80", "80"),
        (TypeTag.UNTYPED16, b"\x01\xf0", "01f0"),
        (TypeTag.UNTYPED32, b"\xde\xad\xbe\xef", "deadbeef"),
        (TypeTag.UNTYPED64, bytes(range(8)), "0001020304050607"),
    ])
    def test_render_value(self, tag, raw, text):
        assert _render_value(tag, raw) == text

    def test_decoded_tags_equal_a_fresh_build(self):
        # the decoder memoises a frame's tag tuple by its tag bytes; the
        # strings repeat, so most decodes below are memo hits
        rng = random.Random(17)
        pool = [bytes(rng.randrange(len(TypeTag))
                      for _ in range(rng.randrange(40)))
                for _ in range(12)]
        for _ in range(300):
            raw = rng.choice(pool)
            n = sum(TypeTag(t).byte_width for t in raw)
            got = wire_decode(tag_frame(raw, n)).type_tags
            assert got == tuple(TypeTag(t) for t in raw)
            assert all(type(tag) is TypeTag for tag in got)

    def test_bad_tags_are_rejected_after_good_ones_were_memoised(self):
        good = bytes([TypeTag.UINT8, TypeTag.SINT32])
        assert wire_decode(tag_frame(good, 5)).type_tags == (
            TypeTag.UINT8, TypeTag.SINT32)
        with pytest.raises(DecodeError, match="do not cover"):
            wire_decode(tag_frame(good, 4))
        with pytest.raises(DecodeError, match="unknown type tag 0x0f"):
            wire_decode(tag_frame(good + b"\x0f", 5))


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
