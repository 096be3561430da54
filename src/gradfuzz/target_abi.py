"""Data model and byte-exact wire encoding shared by the engine and executors.

Everything the engine exchanges with a target executor (the local
interpreter or a remote serving process) is defined here: typed-read tags,
termination flags, condition records, execution configs and results,
the FNV-1a calling-context hash, and the framed wire format.

``TypeTag`` holds the one table of typed values: how a typed read's bytes
pack and unpack, and the integers they can hold.  An execution config
carries all four caps of a run (trace length, stack size, input bytes and
the step budget), and an executor runs to them.  Only a serving process
checks them, against its own, since its configs come from outside.

A result is checked in one place too: ``wire_decode``, where it arrives
from another process.  An executor's contract is a well-formed result
(the tag widths sum to the number of bytes read, and ``nbytes`` never
decreases along the trace), and nothing re-checks the results of an
executor in the engine's own process: the interpreter meets the contract
by construction.

An execution id is the plain pair ``(uid, ctx)``, read at the named
positions ``UID`` and ``CTX``: one is hashed or compared on every trace
record the tree maps, and tuples do both in C.  It is an exact tuple,
not a named tuple, because CPython's cyclic collector stops tracking
only exact tuples whose items it need not track: so an id, the records
that hold it and the traces that hold those leave the collector within
their first few collections, where a named-tuple id kept them all
tracked for life.
A condition record is a plain 5-tuple ``(id, direction, value,
xor_flag, nbytes)``, read by unpacking or at the named positions ``ID``
... ``NBYTES``.  Its value is never NaN: every builder of a record
stores a NaN branching value as +infinity.  One is built for every
evaluated Boolean instruction and read again by every layer, and only
an exact tuple is built without a Python call and unpacked or indexed
on CPython's fast paths.

Wire format: one frame is

    kind byte (0x01 = config, 0x02 = result, 0x03 = error)
    payload length, 4 bytes big-endian
    payload

All payload integers are fixed-width little-endian; floats are IEEE-754
bit patterns (little-endian).  Config payload::

    u64 max_trace_length | u64 max_stack_size | u64 max_input_bytes
    | u64 step_budget | u8 fill_byte | u32 n | n bytes input

A cap beyond 64 bits cannot be sent: ``wire_encode`` raises a
``ValueError`` that names it.

Result payload::

    u8 termination | u32 n | n bytes read | u32 k | k tag bytes
    | u32 m (trace length) | u32 b (length of the previous trace) | u32 c
    | c x u32 positions, strictly increasing, each < min(m, b)
    | c + max(0, m - b) records, each (u32 uid, u32 ctx, u8 direction,
      u8 xor, f64 value, u32 nbytes): the c changed ones in position
      order, then the last m - b

A result frame is coded against the previous trace sent on the same
connection: it carries only the records that differ from the record at
the same position of that trace, and the records past its end.  A
record whose value is a zero is always resent, because -0.0 == 0.0 and
only a resent zero keeps its sign.  The decoder rebuilds the trace from
its own copy of the previous trace, reusing its record objects, and
rejects a frame whose ``b`` is not that trace's length, so two ends that
disagree about it fail loudly.  Against the empty trace (``b`` = 0, as
on a connection's first result) a frame carries every record.

The decoder rejects a result that is not well-formed: tags whose widths
do not sum to ``n``, or a rebuilt trace whose ``nbytes`` fall.  Since
the previous trace passed this check when it was decoded, only the pairs
of records that hold a sent record are compared.

Error payload: the UTF-8 text of why the server rejected a config.  It
is the last frame the server sends before it drops the connection.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import compress, count, islice
from operator import ne
from typing import Iterator, Sequence, Union

FNV32_BASIS = 0x811C9DC5
FNV32_PRIME = 0x01000193

# calls nested deeper than this leave the context hash unchanged, so deep
# recursion maps to one stable context
DEFAULT_CONTEXT_DEPTH = 32

KIND_CONFIG = 0x01
KIND_RESULT = 0x02
KIND_ERROR = 0x03

_MAX_PAYLOAD = 1 << 28

# the config payload before its input: the four caps, the fill byte and
# the input's length
_CONFIG_HEAD = "<QQQQBI"
_CAPS = ("max_trace_length", "max_stack_size", "max_input_bytes",
         "step_budget")

# the result payload's trace head: m, b and c
_DELTA_HEAD = "<III"
_POSITION = struct.Struct("<I")

# one result-payload record: u32 uid, u32 ctx, u8 direction, u8 xor,
# f64 value, u32 nbytes
_RECORD = struct.Struct("<IIBBdI")


class TypeTag(IntEnum):
    """Type assigned to a range of input bytes consumed by one read call.

    Each member's row is the one definition of its typed value: the
    little-endian ``struct`` code of its bytes, and whether the bytes are
    untyped.  Every attribute of a tag derives from its row:

    * ``codec``: the ``struct.Struct`` that packs and unpacks one value,
    * ``byte_width`` and ``bit_width``,
    * ``is_signed``, ``is_float`` and ``is_untyped``,
    * ``domain``: the least and greatest integer a value can hold, which
      is (0, 1) for BOOLEAN and None for the float tags.
    """

    BOOLEAN = 0, "?"
    UINT8 = 1, "B"
    UINT16 = 2, "H"
    UINT32 = 3, "I"
    UINT64 = 4, "Q"
    SINT8 = 5, "b"
    SINT16 = 6, "h"
    SINT32 = 7, "i"
    SINT64 = 8, "q"
    FLOAT32 = 9, "f"
    FLOAT64 = 10, "d"
    UNTYPED8 = 11, "B", True
    UNTYPED16 = 12, "H", True
    UNTYPED32 = 13, "I", True
    UNTYPED64 = 14, "Q", True

    def __new__(cls, value: int, code: str, untyped: bool = False):
        tag = int.__new__(cls, value)
        tag._value_ = value
        return tag

    def __init__(self, value: int, code: str, untyped: bool = False):
        self.codec = struct.Struct("<" + code)
        self.byte_width = self.codec.size
        self.bit_width = 8 * self.byte_width
        self.is_float = code in "fd"
        self.is_signed = code in "bhiq"
        self.is_untyped = untyped
        if self.is_float:
            self.domain = None
        elif code == "?":
            self.domain = (0, 1)
        elif self.is_signed:
            half = 1 << (self.bit_width - 1)
            self.domain = (-half, half - 1)
        else:
            self.domain = (0, (1 << self.bit_width) - 1)


# indexed by tag value
_TAGS = tuple(TypeTag)
# the byte width of each tag, indexed by the raw tag byte: a table for
# bytes.translate, which maps a frame's tag bytes to widths in C
_TAG_WIDTHS = bytes(tag.byte_width for tag in _TAGS).ljust(256, b"\0")


class TerminationKind(IntEnum):
    NORMAL = 0
    CRASH = 1
    TIMEOUT = 2
    BOUNDARY_CONDITION_VIOLATION = 3


# the static Boolean-instruction id plus the calling-context hash, a
# plain pair (see the module docstring)
ExecutionId = tuple[int, int]

# the positions of an id's fields
UID, CTX = 0, 1


# one evaluation of a Boolean-valued instruction along a trace; ``value``
# is the branching-function value, never NaN (see the module docstring)
ConditionRecord = tuple[ExecutionId, bool, float, bool, int]

# the positions of a record's fields
ID, DIRECTION, VALUE, XOR_FLAG, NBYTES = range(5)


def differing_positions(trace: Sequence[ConditionRecord],
                        base: Sequence[ConditionRecord],
                        start: int = 0) -> Iterator[int]:
    """The positions from ``start`` on, in increasing order and below the
    shorter length, where the records of ``trace`` and ``base`` differ.
    Records are compared as tuples in C, so a walk over two traces that
    share most records visits only the few that changed; the fields of
    two records that compare equal compare equal too."""
    if start:
        trace, base = islice(trace, start, None), islice(base, start, None)
    return compress(count(start), map(ne, trace, base))


@dataclass(frozen=True, slots=True)
class ExecutionConfig:
    max_trace_length: int
    max_stack_size: int
    max_input_bytes: int
    step_budget: int
    fill_byte: int
    input_bytes: bytes

    def __post_init__(self) -> None:
        if self.fill_byte not in (0, 85):
            raise ValueError("fill_byte must be 0 or 85")
        if len(self.input_bytes) > self.max_input_bytes:
            raise ValueError("input_bytes longer than max_input_bytes")


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """What one execution gives back; building one checks nothing.  A
    well-formed result has tag widths that sum to ``len(bytes_read)`` and
    ``nbytes`` that never decrease along the trace.  Executors return
    only well-formed results, and ``wire_decode``, the one place a result
    is checked, rejects a frame that would rebuild any other."""

    termination: TerminationKind
    bytes_read: bytes
    type_tags: tuple[TypeTag, ...]
    trace: tuple[ConditionRecord, ...]


# a str is the text of an error frame
WireMessage = Union[ExecutionConfig, ExecutionResult, str]


def context_hash_push(h: int, uid: int) -> int:
    """Extend a rolling 32-bit context hash by one call-site uid."""
    for b in (uid & 0xFFFFFFFF).to_bytes(4, "little"):
        h ^= b
        h = (h * FNV32_PRIME) & 0xFFFFFFFF
    return h


class DecodeError(ValueError):
    """Raised for truncated frames, unknown kinds, or malformed payloads."""


def wire_encode(message: WireMessage,
                previous: Sequence[ConditionRecord] = ()) -> bytes:
    """Encode one frame.  A result is coded against ``previous``, the
    trace of the result sent before it on the same connection; against
    the default empty trace the frame carries every record."""
    if isinstance(message, ExecutionConfig):
        kind = KIND_CONFIG
        try:
            head = struct.pack(
                _CONFIG_HEAD,
                message.max_trace_length,
                message.max_stack_size,
                message.max_input_bytes,
                message.step_budget,
                message.fill_byte,
                len(message.input_bytes),
            )
        except struct.error:
            for name in _CAPS:
                value = getattr(message, name)
                if not 0 <= value < 1 << 64:
                    raise ValueError(f"config {name} {value} does not fit "
                                     f"in the wire's 64 bits") from None
            raise
        payload = head + message.input_bytes
    elif isinstance(message, ExecutionResult):
        kind = KIND_RESULT
        trace = message.trace
        # a zero is resent even when unchanged: -0.0 == 0.0
        changed = [i for i, rec, old in zip(count(), trace, previous)
                   if not rec[VALUE] or rec != old]
        sent = [trace[i] for i in changed]
        sent += trace[len(previous):]
        pack = _RECORD.pack
        payload = b"".join([
            struct.pack("<BI", int(message.termination),
                        len(message.bytes_read)),
            message.bytes_read,
            struct.pack("<I", len(message.type_tags)),
            bytes(message.type_tags),
            struct.pack(_DELTA_HEAD, len(trace), len(previous), len(changed)),
            *map(_POSITION.pack, changed),
            *[pack(uid, ctx, direction, xor, value, nbytes)
              for (uid, ctx), direction, value, xor, nbytes in sent],
        ])
    elif isinstance(message, str):
        kind = KIND_ERROR
        payload = message.encode("utf-8")
    else:
        raise TypeError(f"cannot encode {type(message).__name__}")
    return bytes([kind]) + struct.pack(">I", len(payload)) + payload


@lru_cache(maxsize=32)
def _type_tags(raw_tags: bytes) -> tuple[TypeTag, ...]:
    """The tags of a frame's checked tag bytes.  An executor's results
    repeat a few tag strings, and a hit costs a fraction of a rebuild,
    which calls into ``_TAGS`` once per tag.  The memo is small because
    one entry can be as long as an input."""
    return tuple(map(_TAGS.__getitem__, raw_tags))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise DecodeError("truncated frame")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def wire_decode(frame: bytes, previous: Sequence[ConditionRecord] = (),
                ids: dict[ExecutionId, ExecutionId] | None = None
                ) -> WireMessage:
    """Decode exactly one complete frame; trailing bytes are an error.  A
    result is rebuilt on ``previous``, the trace decoded before it on the
    same connection, and is well-formed when ``previous`` is.  Its ids
    come from ``ids``, the connection's table, which keeps the first id
    object decoded for each (uid, ctx): so the connection's traces share
    id objects with each other, as the interpreter's traces do.  Without
    a table, only a frame's ids are shared."""
    r = _Reader(frame)
    (kind,) = r.unpack("<B")
    (length,) = struct.unpack(">I", r.take(4))
    if length > _MAX_PAYLOAD:
        raise DecodeError("payload length out of bounds")
    if len(frame) - r.pos != length:
        raise DecodeError("frame length mismatch")
    try:
        if kind == KIND_CONFIG:
            *caps, fill, n = r.unpack(_CONFIG_HEAD)
            msg: WireMessage = ExecutionConfig(*caps, fill, r.take(n))
        elif kind == KIND_RESULT:
            term, n = r.unpack("<BI")
            data = r.take(n)
            (k,) = r.unpack("<I")
            raw_tags = r.take(k)
            if raw_tags and max(raw_tags) >= len(_TAGS):
                raise DecodeError(f"unknown type tag 0x{max(raw_tags):02x}")
            if sum(raw_tags.translate(_TAG_WIDTHS)) != n:
                raise DecodeError("type tags do not cover the bytes read")
            tags = _type_tags(raw_tags)
            m, b, c = r.unpack(_DELTA_HEAD)
            if b != len(previous):
                raise DecodeError(f"result coded against a trace of {b} "
                                  f"records, the previous one has "
                                  f"{len(previous)}")
            shared = min(m, b)
            positions = [p for (p,) in _POSITION.iter_unpack(r.take(4 * c))]
            if positions and (positions[-1] >= shared or any(
                    p >= q for p, q in zip(positions, positions[1:]))):
                raise DecodeError("changed positions not strictly "
                                  f"increasing below {shared}")
            # setdefault is one C call whether or not the table holds the
            # id yet
            intern = ({} if ids is None else ids).setdefault
            # a call into Python code per record would be most of the
            # cost of a frame, so each record is a tuple display that
            # writes out the NaN rule (see the module docstring)
            sent = [
                (intern((uid, ctx), (uid, ctx)), direction != 0,
                 math.inf if value != value else value, xor != 0, nbytes)
                for uid, ctx, direction, xor, value, nbytes
                in _RECORD.iter_unpack(
                    r.take((c + max(0, m - b)) * _RECORD.size))]
            trace = list(previous[:shared])
            for p, rec in zip(positions, sent):
                trace[p] = rec
            # the previous trace was checked when it was decoded, so only
            # a pair with a sent record in it can put nbytes out of order:
            # each changed record against its two neighbours, then the
            # tail in one pass from the last shared record
            for p in positions:
                nbytes = trace[p][NBYTES]
                if ((p and trace[p - 1][NBYTES] > nbytes)
                        or (p + 1 < shared and nbytes > trace[p + 1][NBYTES])):
                    raise DecodeError("nbytes not monotone along trace")
            del sent[:c]
            last = trace[-1][NBYTES] if trace else 0
            for _, _, _, _, nbytes in sent:
                if nbytes < last:
                    raise DecodeError("nbytes not monotone along trace")
                last = nbytes
            trace += sent
            msg = ExecutionResult(TerminationKind(term), data, tags,
                                  tuple(trace))
        elif kind == KIND_ERROR:
            msg = r.take(length).decode("utf-8")
        else:
            raise DecodeError(f"unknown frame kind 0x{kind:02x}")
    except (ValueError, struct.error) as exc:
        if isinstance(exc, DecodeError):
            raise
        raise DecodeError(str(exc)) from exc
    if r.pos != len(frame):
        raise DecodeError("trailing bytes after payload")
    return msg


def get_bit(data: bytes, index: int) -> int:
    """Bit ``index`` of an input: byte index//8, MSB-first within the byte."""
    return (data[index // 8] >> (7 - index % 8)) & 1


def set_bit(data: bytearray, index: int, value: int) -> None:
    mask = 1 << (7 - index % 8)
    if value:
        data[index // 8] |= mask
    else:
        data[index // 8] &= ~mask
