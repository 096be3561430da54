"""Data model and byte-exact wire encoding shared by the engine and executors.

Everything the engine exchanges with a target executor (the local
interpreter or a remote serving process) is defined here: typed-read tags,
termination flags, condition records, execution configs and results,
the FNV-1a calling-context hash, and the framed wire format.

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
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence, Union

FNV32_BASIS = 0x811C9DC5
FNV32_PRIME = 0x01000193

DEFAULT_CONTEXT_DEPTH = 32

KIND_CONFIG = 0x01
KIND_RESULT = 0x02

_MAX_PAYLOAD = 1 << 28


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


_TAG_WIDTH = {
    TypeTag.BOOLEAN: 1,
    TypeTag.UINT8: 1, TypeTag.UINT16: 2, TypeTag.UINT32: 4, TypeTag.UINT64: 8,
    TypeTag.SINT8: 1, TypeTag.SINT16: 2, TypeTag.SINT32: 4, TypeTag.SINT64: 8,
    TypeTag.FLOAT32: 4, TypeTag.FLOAT64: 8,
    TypeTag.UNTYPED8: 1, TypeTag.UNTYPED16: 2, TypeTag.UNTYPED32: 4,
    TypeTag.UNTYPED64: 8,
}


class TerminationKind(IntEnum):
    NORMAL = 0
    CRASH = 1
    TIMEOUT = 2
    BOUNDARY_CONDITION_VIOLATION = 3


@dataclass(frozen=True, slots=True)
class ExecutionId:
    """Static Boolean-instruction id plus the calling-context hash."""

    uid: int
    ctx: int


@dataclass(frozen=True, slots=True)
class ConditionRecord:
    """One evaluation of a Boolean-valued instruction along a trace.

    ``value`` is the branching-function value.  A NaN value is
    canonicalized to +infinity at construction time so stored traces never
    carry NaN.
    """

    id: ExecutionId
    direction: bool
    value: float
    xor_flag: bool
    nbytes: int

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            object.__setattr__(self, "value", math.inf)


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
        if sum(t.byte_width for t in self.type_tags) != len(self.bytes_read):
            raise ValueError("type tags do not cover bytes_read")
        last = 0
        for rec in self.trace:
            if rec.nbytes < last:
                raise ValueError("nbytes not monotone along trace")
            last = rec.nbytes


WireMessage = Union[ExecutionConfig, ExecutionResult]


def context_hash(function_uids: Sequence[int],
                 depth_limit: int = DEFAULT_CONTEXT_DEPTH) -> int:
    """32-bit FNV-1a over the oldest ``depth_limit`` call-site uids.

    Frames pushed beyond the depth limit do not change the hash, so deep
    recursion maps to a stable context value.
    """
    h = FNV32_BASIS
    for uid in function_uids[:depth_limit]:
        for b in (uid & 0xFFFFFFFF).to_bytes(4, "little"):
            h ^= b
            h = (h * FNV32_PRIME) & 0xFFFFFFFF
    return h


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
        for rec in message.trace:
            parts.append(struct.pack(
                "<IIBBdI",
                rec.id.uid, rec.id.ctx,
                int(rec.direction), int(rec.xor_flag),
                rec.value, rec.nbytes,
            ))
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
            tags = tuple(TypeTag(b) for b in r.take(k))
            (m,) = r.unpack("<I")
            records = []
            for _ in range(m):
                uid, ctx, direction, xor, value, nbytes = r.unpack("<IIBBdI")
                records.append(ConditionRecord(
                    ExecutionId(uid, ctx), bool(direction), value,
                    bool(xor), nbytes))
            msg = ExecutionResult(TerminationKind(term), data, tags,
                                  tuple(records))
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
