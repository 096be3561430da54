"""Bitshare analysis: transplant sensitive-bit values from a donor input.

Whenever a minimization analysis is forcefully deactivated (its goal
direction was observed), the store records the sensitive-bit values of the
achieving input, keyed by instruction uid and direction.  The calling
context is ignored on purpose, so a solution found in one context seeds
the same instruction in another.
"""
from __future__ import annotations

from ..exec_tree import TreeNode
from ..target_abi import UID, ExecutionResult, get_bit, set_bit
from .base import AnalysisKind, AnalysisSession


class BitshareStore:
    """Most recent donor per (uid, direction)."""

    def __init__(self):
        self._donors: dict[tuple[int, bool], tuple[int, ...]] = {}

    def record(self, uid: int, direction: bool, input_bytes: bytes,
               sensitive_bits: set[int]) -> None:
        bits = tuple(get_bit(input_bytes, s)
                     for s in sorted(sensitive_bits)
                     if s < 8 * len(input_bytes))
        self._donors[(uid, direction)] = bits

    def lookup(self, uid: int, direction: bool):
        return self._donors.get((uid, direction))


def bitshare_compose(node: TreeNode, goal_direction: bool,
                     store: BitshareStore) -> bytes | None:
    """Donor bits written position-wise into the node's sensitive bits;
    None when no donor is known."""
    donor = store.lookup(node.id[UID], goal_direction)
    if donor is None:
        return None
    composed = bytearray(node.best_input)
    indices = sorted(node.sensitive_bits)
    for i in range(min(len(indices), len(donor))):
        set_bit(composed, indices[i], donor[i])
    return bytes(composed)


class BitshareSession(AnalysisSession):
    kind = AnalysisKind.BITSHARE

    def __init__(self, node: TreeNode, goal_direction: bool,
                 store: BitshareStore):
        self.store = store
        super().__init__(node, goal_direction)

    def _value_of(self, result: ExecutionResult):
        return self.mapped_value(result)

    def _run(self):
        composed = bitshare_compose(self.node, self.goal_direction,
                                    self.store)
        if composed is not None:
            yield composed
