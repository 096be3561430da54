"""Minimization over untyped sensitive bits: single-coordinate descent.

Each sensitive bit is an independent boolean variable.  Per step the
session evaluates all single-bit flips, moving to the strictly best one;
when stuck it sorts the bits by the largest branching-value change seen so
far (importance) and tries inverting every suffix of that order, which
implements the carry-like multi-bit escape from integer-shaped local
minima.  Failed executions evaluate to the largest finite double, the
worst possible outcome for the descent.

Unlike the typed descent, this one needs no neighbour probe to cross a
strict comparison: after every accepted step it tries every single-bit
flip.  From f = 0 on an integer comparison, clearing the lowest set bit
of the compared value goes below it and setting its lowest clear bit
goes above it, so one flip lands on each side.
"""
from __future__ import annotations

import math
import sys

from ..exec_tree import TreeNode
from ..target_abi import ExecutionResult, set_bit
from .base import AnalysisKind, DescentSession

FAILURE_VALUE = sys.float_info.max


def binary_seeds(m: int, rng) -> list[tuple[int, ...]]:
    """m + 1 seeds, one per Hamming-weight class: seed i flips i distinct
    uniformly chosen bits of the zero vector."""
    seeds = []
    for i in range(m + 1):
        bits = [0] * m
        for index in rng.sample(range(m), i):
            bits[index] = 1
        seeds.append(tuple(bits))
    return seeds


class BinaryDescentSession(DescentSession):
    kind = AnalysisKind.MINIMIZATION

    def __init__(self, node: TreeNode, goal_direction: bool, rng):
        super().__init__(node, goal_direction, rng)
        self.base = bytes(node.best_input)
        self.bit_indices = sorted(node.sensitive_bits)

    def _value_of(self, result: ExecutionResult) -> float:
        value = self.mapped_value(result)
        if value is None or not math.isfinite(value):
            return FAILURE_VALUE
        return abs(value)

    def _encode(self, bits) -> bytes:
        buf = bytearray(self.base)
        for index, bit in zip(self.bit_indices, bits):
            set_bit(buf, index, bit)
        return bytes(buf)

    def _run(self):
        m = len(self.bit_indices)
        for seed in binary_seeds(m, self.rng):
            bits = list(seed)
            current = yield self._encode(bits)
            self._start_seed(current)
            magnitude = [0.0] * m
            while True:
                flip_values = []
                for i in range(m):
                    flipped = list(bits)
                    flipped[i] ^= 1
                    value = yield self._encode(flipped)
                    magnitude[i] = max(magnitude[i], abs(value - current))
                    flip_values.append(value)
                k = min(range(m), key=lambda i: (flip_values[i], i))
                if flip_values[k] < current:
                    bits[k] ^= 1
                    current = flip_values[k]
                    self._log_accept(current)
                    continue
                # stuck: invert suffixes of the importance order
                order = sorted(range(m), key=lambda i: (-magnitude[i], i))
                best_value = math.inf
                best_bits = None
                for i in range(m):
                    candidate = list(bits)
                    for j in range(i, m):
                        candidate[order[j]] ^= 1
                    value = yield self._encode(candidate)
                    if value < best_value:
                        best_value = value
                        best_bits = candidate
                if best_value < current:
                    bits = best_bits
                    current = best_value
                    self._log_accept(current)
                    continue
                break
