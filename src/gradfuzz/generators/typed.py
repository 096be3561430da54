"""Typed minimization: gradient descent over typed numerical variables.

Variables are the typed input regions containing at least one sensitive
bit; inputs are built by writing variable values back into the node's
best input.  Each descent step computes right-difference partials, then
tries seven step lengths 10^e * lambda for e in 0,-1,1,-2,2,-3,3 with
lambda = |f| / ||grad f||^2, locking coordinates that stall the descent.
The session deactivates itself after 100 * |sensitive bits| calls.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

from ..exec_tree import TreeNode
from ..target_abi import ExecutionResult, TypeTag
from .base import AnalysisKind, DescentSession

CALL_BUDGET_PER_BIT = 100
_STEP_EXPONENTS = (0, -1, 1, -2, 2, -3, 3)


def identify_typed_variables(
        x: bytes, tags: Sequence[TypeTag],
        sensitive_bits: set[int]) -> Optional[list[tuple[int, TypeTag]]]:
    """One (byte offset, tag) variable per typed region holding a
    sensitive bit; None when any sensitive bit lies in an untyped region
    or outside the tagged bytes."""
    if not sensitive_bits:
        return None
    touched_bytes = {s // 8 for s in sensitive_bits}
    variables = []
    offset = 0
    for tag in tags:
        span = range(offset, offset + tag.byte_width)
        if any(b in touched_bytes for b in span):
            if tag.is_untyped:
                return None
            variables.append((offset, tag))
        offset += tag.byte_width
    if any(b >= offset for b in touched_bytes):
        return None
    return variables


def typed_seed_value(tag: TypeTag, k: int, budget: int, rng):
    """Seed one variable; the sampled interval widens with the fraction of
    the call budget already used."""
    frac = k / budget if budget else 1.0
    if tag.is_float:
        q = 119 if tag == TypeTag.FLOAT32 else 115
        bound = 2.0 ** (7 + (q - 8) * frac)
        return rng.uniform(-bound, bound)
    lo, hi = tag.domain
    if tag.bit_width < 16:
        return rng.randint(lo, hi)
    if tag.is_signed:
        p = int(2.0 ** (7 + (tag.bit_width - 9) * frac))
        return rng.randint(max(lo, -p), min(hi, p))
    p = int(2.0 ** (7 + (tag.bit_width - 8) * frac))
    return rng.randint(0, min(hi, p))


def lambda_step(abs_value: float, gradient: Sequence[float]) -> float:
    """Step length that would zero a locally linear branching function."""
    return abs_value / sum(g * g for g in gradient)


def _pack_value(tag: TypeTag, value) -> bytes:
    if tag.is_float:
        try:
            return tag.codec.pack(value)
        except OverflowError:  # |value| beyond float32 range
            return tag.codec.pack(math.copysign(math.inf, value))
    lo, hi = tag.domain
    iv = int(value)
    return tag.codec.pack(lo if iv < lo else hi if iv > hi else iv)


def _clamp_step(tag: TypeTag, value: float):
    if tag.is_float:
        return value
    lo, hi = tag.domain
    if value != value:  # NaN cannot steer an integer variable
        return lo
    if value <= lo:
        return lo
    if value >= hi:
        return hi
    return int(round(value))


def _float_delta(tag: TypeTag, value: float) -> Optional[float]:
    """Smallest positive delta whose addition survives the encoding."""
    if not math.isfinite(value):
        return None
    delta = math.nextafter(value, math.inf) - value
    if tag == TypeTag.FLOAT32:
        while (delta != math.inf
               and _pack_value(tag, value + delta) == _pack_value(tag, value)):
            delta *= 2.0
        if delta == math.inf:
            return None
    return delta if delta > 0 else None


class TypedDescentSession(DescentSession):
    kind = AnalysisKind.TYPED_MINIMIZATION

    def __init__(self, node: TreeNode, goal_direction: bool, rng,
                 variables: list[tuple[int, TypeTag]]):
        super().__init__(node, goal_direction, rng)
        self.variables = variables
        self.base = bytes(node.best_input)
        self.call_budget = CALL_BUDGET_PER_BIT * len(node.sensitive_bits)

    def _value_of(self, result: ExecutionResult) -> float:
        value = self.mapped_value(result)
        if value is None or not math.isfinite(value):
            return math.inf
        return value

    def _encode(self, values) -> bytes:
        buf = bytearray(self.base)
        for (offset, tag), value in zip(self.variables, values):
            buf[offset:offset + tag.byte_width] = _pack_value(tag, value)
        return bytes(buf)

    def _run(self):
        m = len(self.variables)
        while True:
            values = [typed_seed_value(tag, self.calls, self.call_budget,
                                       self.rng)
                      for _, tag in self.variables]
            av = abs((yield self._encode(values)))
            if not math.isfinite(av):
                continue
            self._start_seed(av)
            descending = True
            while descending:
                grads = [0.0] * m
                locked = [False] * m
                for i, (_, tag) in enumerate(self.variables):
                    delta = self._partial_delta(tag, values[i])
                    if delta is None:
                        locked[i] = True
                        continue
                    bumped = list(values)
                    bumped[i] = values[i] + delta
                    avi = abs((yield self._encode(bumped)))
                    grad = (avi - av) / delta
                    if math.isfinite(grad):
                        grads[i] = grad
                    else:
                        locked[i] = True
                descending = False
                while True:
                    norm2 = sum(g * g for g in grads)
                    if not math.isfinite(norm2) or all(locked):
                        break
                    lam = lambda_step(av, grads) if norm2 else math.inf
                    if lam == 0 or not math.isfinite(lam):
                        break
                    best_av = math.inf
                    best_values = None
                    for e in _STEP_EXPONENTS:
                        scale = (10.0 ** e) * lam
                        candidate = [
                            _clamp_step(tag, values[i] - scale * grads[i])
                            for i, (_, tag) in enumerate(self.variables)
                        ]
                        cav = abs((yield self._encode(candidate)))
                        if cav < best_av:
                            best_av = cav
                            best_values = candidate
                    if best_av < av:
                        values = best_values
                        av = best_av
                        self._log_accept(av)
                        descending = True
                        break
                    inverse = [
                        math.inf if grads[i] == 0 else 1.0 / (grads[i] ** 2)
                        for i in range(m) if not locked[i]
                    ]
                    finite = [w for w in inverse if math.isfinite(w)]
                    if not finite:
                        break
                    low = min(finite)
                    high = max(inverse)
                    threshold = low + 0.6 * (high - low)
                    newly_locked = False
                    for i in range(m):
                        if locked[i]:
                            continue
                        g2 = grads[i] ** 2
                        inv = math.inf if g2 == 0 else 1.0 / g2
                        if g2 == 0 or not math.isfinite(inv) or inv < threshold:
                            grads[i] = 0.0
                            locked[i] = True
                            newly_locked = True
                    if not newly_locked:
                        break

    def _partial_delta(self, tag: TypeTag, value) -> Optional[float]:
        if tag.is_float:
            return _float_delta(tag, value)
        _, hi = tag.domain
        if value >= hi:  # no headroom for a right difference
            return None
        return 1
