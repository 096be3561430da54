"""Typed minimization: gradient descent over typed numerical variables.

Variables are the typed input regions containing at least one sensitive
bit; inputs are built by writing variable values back into the node's
best input.  Each descent step computes right-difference partials, then
tries seven step lengths 10^e * lambda for e in 0,-1,1,-2,2,-3,3 with
lambda = |f| / ||grad f||^2, locking coordinates that stall the descent.

A descent is there to invert the branch, and one that minimises |f|
stops at f = 0, which a strict comparison puts on the wrong side.  Two
rules make it end on the goal side:

* **Own-value seed.**  The first seed is the node's own input: each
  variable's value in the node's best input, which reaches the node by
  construction.  Later seeds are drawn by ``typed_seed_value``.  A float
  whose own value is not finite or encodes no step of 1 or less
  (|x| >= 2^24 for a float, 2^53 for a double) is drawn at once instead:
  lambda there is computed in doubles that round away the constant the
  branch compares against, so the full step overshoots off the path and
  the descent crawls down by a tenth a step.
* **Neighbour probe.**  When a descent stops, each variable in turn is
  moved to its neighbours, the others held: -1 and +1 for an integer,
  the next value of its type below and above for a float, within the
  type's domain.  A descent stopped at f = 0 is one such step from the
  goal side.

The session deactivates itself after 100 * |sensitive bits| calls; the
loop ends it as soon as an execution observes the goal direction.
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


def _read_back(tag: TypeTag, value: float) -> float:
    """The float a typed read of ``value``'s encoding gives."""
    return tag.codec.unpack(_pack_value(tag, value))[0]


def _float_step(tag: TypeTag, value: float, toward: float
                ) -> Optional[float]:
    """Smallest signed step from ``value`` toward ``toward`` (+-inf) that
    changes the float read back: math.nextafter's, doubled until it
    does."""
    if not math.isfinite(value):
        return None
    read = _read_back(tag, value)
    step = math.nextafter(value, toward) - value
    while math.isfinite(step) and _read_back(tag, value + step) == read:
        step *= 2.0
    return step if math.isfinite(step) else None


def _neighbours(tag: TypeTag, value) -> list:
    """The values next to ``value`` in its type's domain, below then
    above: -1 and +1 for an integer, the next float read back each way
    for a float."""
    if tag.is_float:
        steps = (_float_step(tag, value, toward)
                 for toward in (-math.inf, math.inf))
        return [_read_back(tag, value + step)
                for step in steps if step is not None]
    lo, hi = tag.domain
    return [v for v in (value - 1, value + 1) if lo <= v <= hi]


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

    def _own_values(self) -> list:
        """The first seed: each variable's value in the node's best input,
        but a float too coarse there to descend is drawn like a later
        seed (see the module docstring)."""
        values = []
        for offset, tag in self.variables:
            (value,) = tag.codec.unpack_from(self.base, offset)
            if tag.is_float:
                step = _float_step(tag, value, math.inf)
                if step is None or step > 1.0:
                    value = typed_seed_value(tag, self.calls,
                                             self.call_budget, self.rng)
            values.append(value)
        return values

    def _run(self):
        values = self._own_values()
        while True:
            av = abs((yield self._encode(values)))
            if math.isfinite(av):
                self._start_seed(av)
                values = yield from self._descend(values, av)
                # the neighbour probe
                for i, (_, tag) in enumerate(self.variables):
                    for neighbour in _neighbours(tag, values[i]):
                        probe = list(values)
                        probe[i] = neighbour
                        yield self._encode(probe)
            values = [typed_seed_value(tag, self.calls, self.call_budget,
                                       self.rng)
                      for _, tag in self.variables]

    def _descend(self, values, av):
        """Descend from ``values``, where |f| is ``av``; returns the values
        where the descent stopped."""
        m = len(self.variables)
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
        return values

    def _partial_delta(self, tag: TypeTag, value) -> Optional[float]:
        if tag.is_float:
            return _float_step(tag, value, math.inf)
        _, hi = tag.domain
        if value >= hi:  # no headroom for a right difference
            return None
        return 1
