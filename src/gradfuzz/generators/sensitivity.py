"""Sensitivity analysis: infer which input bits affect branching values.

Starting from the node's best input, the session executes every 1-bit
mutation of the first ``nbytes`` bytes and then extreme-value mutations of
each typed region.  Let K be the greatest index up to the node's depth
such that a mutated trace has the path's ids at 0..K and its directions
before K: any record k <= K whose branching value changed marks bits as
sensitive at path(node)[k]:

* a 1-bit mutation marks its flipped bit (bit-precise evidence, kept in
  the session's ``raw_marks`` and widened to the whole byte),
* an extreme-value mutation marks its whole region (byte-granular
  evidence, folded into the widened set only).
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from itertools import accumulate
from typing import Optional

from ..exec_tree import MIN_COMPARED_REST, TreeNode
from ..target_abi import (
    NBYTES,
    VALUE,
    ExecutionResult,
    TypeTag,
    differing_positions,
)
from .base import AnalysisKind, AnalysisSession

_F32_EPSILON = 2.0 ** -23

# A session anchors its traces' mapping (``SensitivitySession.anchor``)
# only on a path longer than this many records: on shorter ones, the
# anchor's bisection and prefix comparison cost more than the walks they
# save (measured break-even: a path of 6 records, one read per record).
MIN_ANCHORED_PATH = 6


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
    n = len(base)
    value = int.from_bytes(base, "big")
    top = 8 * n - 1  # bit s of the input is bit top - s of the int
    for s in range(8 * n):
        yield (value ^ 1 << (top - s)).to_bytes(n, "big"), [s], False
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

    def __init__(self, path_nodes: list[TreeNode]):
        """A session at the last node of ``path_nodes``, the tree's root
        path to it."""
        super().__init__(path_nodes[-1], None)
        self.base = self.best.bytes_read[:self.node.nbytes]
        self.path_nodes = path_nodes
        self.raw_marks: dict[int, set[int]] = {}
        self.region_marks: dict[int, set[int]] = {}
        self._candidate_bits: list[int] = []
        self._candidate_is_region = False
        # the length of the base prefix the pending input's trace was
        # verified to repeat (see ``anchor``)
        self._verified = 0
        base = self.base_trace
        self.anchored = len(base) > MIN_ANCHORED_PATH
        self._nbytes = [record[NBYTES] for record in base]
        # summed in the walk's order, so equal prefixes weigh the same
        self._weights = list(accumulate(
            (record[VALUE] * record[VALUE] for record in base), initial=0.0))

    def _run(self):
        for mutated, bits, is_region in sensitivity_mutations(
                self.base, self.best.type_tags):
            self._candidate_bits = bits
            self._candidate_is_region = is_region
            yield mutated

    def anchor(self, trace) -> Optional[tuple[list[TreeNode], int, float]]:
        """Where the mapping of the pending input's trace can start, as
        ``ExecTree.map_trace``'s ``anchor``, or None to walk it whole.
        The path's records read before the input's first changed byte
        are the trace's first k, if the target is deterministic; one
        comparison checks that before they are skipped, here and in
        ``feed``, so a trace that disagrees is walked whole and a
        nondeterministic target is caught as before.  The changed byte
        lies below the node's ``nbytes``, so k is at most its depth."""
        k = bisect_right(self._nbytes, self._candidate_bits[0] >> 3)
        if k == 0 or trace[:k] != self.base_trace[:k]:
            return None
        self._verified = k
        return self.path_nodes, k, self._weights[k]

    def feed(self, result: ExecutionResult) -> None:
        """Hand the pending input's result to the analysis: no goal, no
        cache and no value to send back, so the bookkeeping is the count.
        Then one walk over the records that differ from the path's (a
        record equal to the path's has the path's value: no marks), from
        the prefix ``anchor`` verified, if it did.  It stops where the
        trace leaves the path: before a record with another id, and
        after one with another direction.  It also stops after the first
        differing record that keeps to the path, if the trace's records
        after it up to the path's length equal the path's: one
        comparison of at least ``MIN_COMPARED_REST`` records (a path
        that long is ``anchored``) shows that no later record differs."""
        if self._pending is None:
            raise RuntimeError("no input pending")
        self._pending = None
        self.executions += 1
        start, self._verified = self._verified, 0
        candidates = self._candidate_bits
        marks = (self.region_marks if self._candidate_is_region
                 else self.raw_marks)
        trace = result.trace
        base = self.base_trace
        compare = len(base) - start > MIN_COMPARED_REST
        for k in differing_positions(trace, base, start):
            rid, direction, value, _, _ = trace[k]
            path_id, path_direction, path_value, _, nbytes = base[k]
            if rid != path_id:
                break
            if value != path_value:
                cutoff = 8 * nbytes
                bucket = marks.setdefault(k, set())
                for s in candidates:
                    if s < cutoff:
                        bucket.add(s)
            if direction != path_direction:
                break
            if compare:
                compare = False
                if (len(base) - k > MIN_COMPARED_REST
                        and trace[k + 1:len(base)] == base[k + 1:]):
                    break

    def finish(self) -> list[TreeNode]:
        """Widen and publish marks on every examined path node, and
        return the path nodes."""
        for k, node in enumerate(self.path_nodes):
            widened = set()
            for byte in {s >> 3 for s in self.raw_marks.get(k, ())}:
                widened.update(range(8 * byte, 8 * byte + 8))
            # rebinds: the node's set may be shared (see TreeNode)
            node.sensitive_bits = node.sensitive_bits.union(
                widened, self.region_marks.get(k, ()))
        return self.path_nodes
