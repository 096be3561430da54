"""Sensitivity analysis: infer which input bits affect branching values.

Starting from the node's best input, the session executes every 1-bit
mutation of the first ``nbytes`` bytes and then extreme-value mutations of
each typed region.  For a mutated trace agreeing with the node's best trace
on ids up to index K and directions before K (K is the session's
``prefix_agreement``), any record k <= K whose branching value changed
marks bits as sensitive at path(node)[k]:

* a 1-bit mutation marks its flipped bit (bit-precise evidence, kept in
  the session's ``raw_marks`` and widened to the whole byte),
* an extreme-value mutation marks its whole region (byte-granular
  evidence, folded into the widened set only).
"""
from __future__ import annotations

import math
import sys

from ..exec_tree import TreeNode
from ..target_abi import ExecutionResult, TypeTag, flip_bit
from .base import AnalysisKind, AnalysisSession

_F32_EPSILON = 2.0 ** -23


def _extreme_values(tag: TypeTag) -> list[bytes]:
    if tag.is_float:
        epsilon = (_F32_EPSILON if tag == TypeTag.FLOAT32
                   else sys.float_info.epsilon)
        return [tag.codec.pack(v)
                for v in (-1.0, 1.0, math.inf, math.nan, epsilon)]
    if tag.is_untyped:
        return []
    return [bytes(tag.byte_width), b"\xff" * tag.byte_width]


def sensitivity_mutations(base: bytes, tags):
    """The sensitivity value set of ``base``: every 1-bit flip, then the
    extreme values of each typed region ``tags`` lays over it, as
    ``(input, candidate bits, whether the bits are a whole region)``."""
    for s in range(8 * len(base)):
        mutated = bytearray(base)
        flip_bit(mutated, s)
        yield bytes(mutated), [s], False
    offset = 0
    for tag in tags:
        width = tag.byte_width
        if offset + width > len(base):
            break
        for raw in _extreme_values(tag):
            mutated = bytearray(base)
            mutated[offset:offset + width] = raw
            if bytes(mutated) == base:
                continue  # identical input, identical trace: no marks
            yield bytes(mutated), list(range(8 * offset,
                                             8 * (offset + width))), True
        offset += width


class SensitivitySession(AnalysisSession):
    kind = AnalysisKind.SENSITIVITY

    def __init__(self, node: TreeNode):
        super().__init__(node, None)
        self.base = bytes(node.best_input[:node.nbytes])
        self.path_nodes = node.path()
        self.raw_marks: dict[int, set[int]] = {}
        self.region_marks: dict[int, set[int]] = {}
        self._candidate_bits: list[int] = []
        self._candidate_is_region = False

    def _value_of(self, result: ExecutionResult) -> ExecutionResult:
        return result

    def _run(self):
        for mutated, bits, is_region in sensitivity_mutations(
                self.base, self.node.best_tags):
            self._candidate_bits = bits
            self._candidate_is_region = is_region
            yield mutated

    def feed(self, result: ExecutionResult) -> None:
        candidates = self._candidate_bits
        is_region = self._candidate_is_region
        super().feed(result)
        self._apply_marks(candidates, result, region=is_region)

    def _apply_marks(self, candidates: list[int], result: ExecutionResult,
                     region: bool) -> None:
        trace = result.trace
        top = self.prefix_agreement(trace)
        marks = self.region_marks if region else self.raw_marks
        for k, (_, _, value, _, _), (_, _, base_value, _, nbytes) in zip(
                range(top + 1), trace, self.base_trace):
            if value == base_value:
                continue
            cutoff = 8 * nbytes
            bucket = marks.setdefault(k, set())
            for s in candidates:
                if s < cutoff:
                    bucket.add(s)

    def finish(self) -> list[TreeNode]:
        """Widen and publish marks; flags every examined path node."""
        for k, node in enumerate(self.path_nodes):
            widened = set()
            for s in self.raw_marks.get(k, ()):
                byte = s // 8
                widened.update(range(8 * byte, 8 * byte + 8))
            # rebinds: the node's set may be shared (see TreeNode)
            node.sensitive_bits = node.sensitive_bits.union(
                widened, self.region_marks.get(k, ()))
            node.sensitivity_done = True
        return self.path_nodes
