"""Sensitivity analysis: infer which input bits affect branching values.

Starting from the node's best input, the session executes every 1-bit
mutation of the first ``nbytes`` bytes and then extreme-value mutations of
each typed region.  For a mutated trace agreeing with the node's best trace
on ids up to index K and directions before K, any record k <= K whose
branching value changed marks bits as sensitive at path(node)[k]:

* a 1-bit mutation marks its flipped bit (bit-precise evidence, kept as
  the raw set and then widened to the whole byte),
* an extreme-value mutation marks its whole region (byte-granular
  evidence, folded into the widened set only).
"""
from __future__ import annotations

import math
import struct
import sys

from ..exec_tree import TreeNode
from ..target_abi import ExecutionResult, TypeTag, flip_bit
from .base import AnalysisKind, AnalysisSession

_F32_EPSILON = 2.0 ** -23


def _extreme_values(tag: TypeTag) -> list[bytes]:
    width = tag.byte_width
    if tag.is_float:
        if tag == TypeTag.FLOAT32:
            values = [-1.0, 1.0, math.inf, math.nan, _F32_EPSILON]
            return [struct.pack("<f", v) for v in values]
        values = [-1.0, 1.0, math.inf, math.nan, sys.float_info.epsilon]
        return [struct.pack("<d", v) for v in values]
    if tag.is_untyped:
        return []
    return [bytes(width), b"\xff" * width]


class SensitivitySession(AnalysisSession):
    kind = AnalysisKind.SENSITIVITY

    def __init__(self, node: TreeNode):
        super().__init__(node, None)
        self.base = bytes(node.best_input[:node.nbytes])
        self.base_trace = node.best_trace[:node.depth + 1]
        self.path_nodes = node.path()
        self.raw_marks: dict[int, set[int]] = {}
        self.region_marks: dict[int, set[int]] = {}
        self._candidate_bits: list[int] = []
        self._candidate_is_region = False

    def _value_of(self, result: ExecutionResult) -> ExecutionResult:
        return result

    def _run(self):
        m = 8 * len(self.base)
        for s in range(m):
            mutated = bytearray(self.base)
            flip_bit(mutated, s)
            self._candidate_bits = [s]
            self._candidate_is_region = False
            yield bytes(mutated)
        offset = 0
        for tag in self.node.best_tags:
            width = tag.byte_width
            if offset + width > len(self.base):
                break
            for raw in _extreme_values(tag):
                mutated = bytearray(self.base)
                mutated[offset:offset + width] = raw
                if bytes(mutated) == self.base:
                    continue  # identical input, identical trace: no marks
                self._candidate_bits = list(
                    range(8 * offset, 8 * (offset + width)))
                self._candidate_is_region = True
                yield bytes(mutated)
            offset += width

    def feed(self, result: ExecutionResult) -> None:
        candidates = self._candidate_bits
        is_region = self._candidate_is_region
        super().feed(result)
        self._apply_marks(candidates, result, region=is_region)

    def _prefix_agreement(self, trace) -> int:
        base = self.base_trace
        limit = min(len(trace), len(base))
        if limit == 0 or trace[0].id != base[0].id:
            return -1
        k = 0
        while (k + 1 < limit and trace[k + 1].id == base[k + 1].id
               and trace[k].direction == base[k].direction):
            k += 1
        return k

    def _apply_marks(self, candidates: list[int], result: ExecutionResult,
                     region: bool) -> None:
        trace = result.trace
        top = self._prefix_agreement(trace)
        for k in range(top + 1):
            if trace[k].value == self.base_trace[k].value:
                continue
            cutoff = 8 * self.base_trace[k].nbytes
            marks = self.region_marks if region else self.raw_marks
            bucket = marks.setdefault(k, set())
            for s in candidates:
                if s < cutoff:
                    bucket.add(s)

    def finish(self) -> list[TreeNode]:
        """Widen and publish marks; flags every examined path node."""
        for k, node in enumerate(self.path_nodes):
            raw = self.raw_marks.get(k, set())
            node.raw_sensitive_bits |= raw
            widened = set()
            for s in raw:
                byte = s // 8
                widened.update(range(8 * byte, 8 * byte + 8))
            node.sensitive_bits |= widened | self.region_marks.get(k, set())
            node.sensitivity_done = True
        return self.path_nodes
