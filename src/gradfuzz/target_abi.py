"""Data model and byte-exact wire encoding shared by the engine and executors.

Everything the engine exchanges with a target executor (the local
interpreter or a remote serving process) is defined here: typed-read tags,
termination flags, condition records, execution configs and results,
the FNV-1a calling-context hash, and the framed wire format.

Execution ids and condition records are named tuples: one is built for
every evaluated Boolean instruction and hashed or compared on every
trace record the tree maps, and tuples do both in C.

Wire format: one frame is

    kind byte (0x01 = config, 0x02 = result)
    payload length, 4 bytes big-endian
    payload

All payload integers are fixed-width little-endian; floats are IEEE-754
bit patterns (little-endian).  Config payload::

    u32 max_trace_length | u32 max_stack_size | u32 max_input_bytes
    | u8 fill_byte | u32 n | n bytes input

Result payload::

    u8 termination | u32 n | n bytes read | u32 k | k tag bytes
    | u32 m | m records, each (u32 uid, u32 ctx, u8 direction, u8 xor,
      f64 value, u32 nbytes)
"""
from __future__ import annotations

import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Union

FNV32_BASIS = 0x811C9DC5
FNV32_PRIME = 0x01000193

# calls nested deeper than this leave the context hash unchanged, so deep
# recursion maps to one stable context
DEFAULT_CONTEXT_DEPTH = 32

KIND_CONFIG = 0x01
KIND_RESULT = 0x02

_MAX_PAYLOAD = 1 << 28

# one result-payload record: u32 uid, u32 ctx, u8 direction, u8 xor,
# f64 value, u32 nbytes
_RECORD = struct.Struct("<IIBBdI")


class TypeTag(IntEnum):
    """Type assigned to a range of input bytes consumed by one read call."""

    BOOLEAN = 0
    UINT8 = 1
    UINT16 = 2
    UINT32 = 3
    UINT64 = 4
    SINT8 = 5
    SINT16 = 6
    SINT32 = 7
    SINT64 = 8
    FLOAT32 = 9
    FLOAT64 = 10
    UNTYPED8 = 11
    UNTYPED16 = 12
    UNTYPED32 = 13
    UNTYPED64 = 14

    @property
    def byte_width(self) -> int:
        return _TAG_WIDTH[self]

    @property
    def bit_width(self) -> int:
        return 8 * _TAG_WIDTH[self]

    @property
    def is_float(self) -> bool:
        return self in (TypeTag.FLOAT32, TypeTag.FLOAT64)

    @property
    def is_untyped(self) -> bool:
        return self in (TypeTag.UNTYPED8, TypeTag.UNTYPED16,
                        TypeTag.UNTYPED32, TypeTag.UNTYPED64)

    @property
    def is_integer(self) -> bool:
        return not self.is_float and not self.is_untyped

    @property
    def is_signed(self) -> bool:
        return self in (TypeTag.SINT8, TypeTag.SINT16,
                        TypeTag.SINT32, TypeTag.SINT64)


# indexed by tag value
_TAGS = tuple(TypeTag)
_TAG_WIDTH = (
    1,           # BOOLEAN
    1, 2, 4, 8,  # UINT8 .. UINT64
    1, 2, 4, 8,  # SINT8 .. SINT64
    4, 8,        # FLOAT32, FLOAT64
    1, 2, 4, 8,  # UNTYPED8 .. UNTYPED64
)


class TerminationKind(IntEnum):
    NORMAL = 0
    CRASH = 1
    TIMEOUT = 2
    BOUNDARY_CONDITION_VIOLATION = 3


class ExecutionId(NamedTuple):
    """Static Boolean-instruction id plus the calling-context hash.

    A tuple: it hashes as ``(uid, ctx)``, so set and dict orders keyed by
    ids are those of the plain pairs."""

    uid: int
    ctx: int


class ConditionRecord(namedtuple(
        "ConditionRecord", "id direction value xor_flag nbytes")):
    """One evaluation of a Boolean-valued instruction along a trace: the
    tuple ``(id, direction, value, xor_flag, nbytes)``.

    ``value`` is the branching-function value.  A NaN value is
    canonicalized to +infinity at construction time so stored traces never
    carry NaN; every way of building a record goes through ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, id: ExecutionId, direction: bool, value: float,
                xor_flag: bool, nbytes: int) -> "ConditionRecord":
        if value != value:
            value = math.inf
        return tuple.__new__(cls, (id, direction, value, xor_flag, nbytes))

    @classmethod
    def _make(cls, iterable) -> "ConditionRecord":
        return cls(*iterable)


@dataclass(frozen=True, slots=True)
class ExecutionConfig:
    max_trace_length: int
    max_stack_size: int
    max_input_bytes: int
    fill_byte: int
    input_bytes: bytes

    def __post_init__(self) -> None:
        if self.fill_byte not in (0, 85):
            raise ValueError("fill_byte must be 0 or 85")
        if len(self.input_bytes) > self.max_input_bytes:
            raise ValueError("input_bytes longer than max_input_bytes")


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    termination: TerminationKind
    bytes_read: bytes
    type_tags: tuple[TypeTag, ...]
    trace: tuple[ConditionRecord, ...]

    def __post_init__(self) -> None:
        if (sum(map(_TAG_WIDTH.__getitem__, self.type_tags))
                != len(self.bytes_read)):
            raise ValueError("type tags do not cover bytes_read")
        last = 0
        for rec in self.trace:
            if rec.nbytes < last:
                raise ValueError("nbytes not monotone along trace")
            last = rec.nbytes


WireMessage = Union[ExecutionConfig, ExecutionResult]


def context_hash_push(h: int, uid: int) -> int:
    """Extend a rolling 32-bit context hash by one call-site uid."""
    for b in (uid & 0xFFFFFFFF).to_bytes(4, "little"):
        h ^= b
        h = (h * FNV32_PRIME) & 0xFFFFFFFF
    return h


class DecodeError(ValueError):
    """Raised for truncated frames, unknown kinds, or malformed payloads."""


def wire_encode(message: WireMessage) -> bytes:
    if isinstance(message, ExecutionConfig):
        kind = KIND_CONFIG
        payload = struct.pack(
            "<IIIBI",
            message.max_trace_length,
            message.max_stack_size,
            message.max_input_bytes,
            message.fill_byte,
            len(message.input_bytes),
        ) + message.input_bytes
    elif isinstance(message, ExecutionResult):
        kind = KIND_RESULT
        parts = [
            struct.pack("<BI", int(message.termination), len(message.bytes_read)),
            message.bytes_read,
            struct.pack("<I", len(message.type_tags)),
            bytes(int(t) for t in message.type_tags),
            struct.pack("<I", len(message.trace)),
        ]
        pack = _RECORD.pack
        for (uid, ctx), direction, value, xor, nbytes in message.trace:
            parts.append(pack(uid, ctx, direction, xor, value, nbytes))
        payload = b"".join(parts)
    else:
        raise TypeError(f"cannot encode {type(message).__name__}")
    return bytes([kind]) + struct.pack(">I", len(payload)) + payload


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


def wire_decode(frame: bytes) -> WireMessage:
    """Decode exactly one complete frame; trailing bytes are an error."""
    r = _Reader(frame)
    (kind,) = r.unpack("<B")
    (length,) = struct.unpack(">I", r.take(4))
    if length > _MAX_PAYLOAD:
        raise DecodeError("payload length out of bounds")
    if len(frame) - r.pos != length:
        raise DecodeError("frame length mismatch")
    try:
        if kind == KIND_CONFIG:
            mtl, mss, mib, fill, n = r.unpack("<IIIBI")
            msg: WireMessage = ExecutionConfig(mtl, mss, mib, fill, r.take(n))
        elif kind == KIND_RESULT:
            term, n = r.unpack("<BI")
            data = r.take(n)
            (k,) = r.unpack("<I")
            raw_tags = r.take(k)
            if raw_tags and max(raw_tags) >= len(_TAGS):
                raise DecodeError(f"unknown type tag 0x{max(raw_tags):02x}")
            tags = tuple(map(_TAGS.__getitem__, raw_tags))
            (m,) = r.unpack("<I")
            records = tuple(
                ConditionRecord(ExecutionId(uid, ctx), bool(direction),
                                value, bool(xor), nbytes)
                for uid, ctx, direction, xor, value, nbytes
                in _RECORD.iter_unpack(r.take(m * _RECORD.size)))
            msg = ExecutionResult(TerminationKind(term), data, tags, records)
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


def flip_bit(data: bytearray, index: int) -> None:
    data[index // 8] ^= 1 << (7 - index % 8)
