"""Binary rooted execution tree built from accepted traces.

Each node corresponds to one evaluation position of a Boolean instruction
along a path.  A node's ``seen`` has bit ``1 << d`` set once a mapped
trace took direction ``d`` there, whether the trace went on or ended at
the node; bits are only ever set.  Every node keeps its best result, the
``ExecutionResult`` whose trace minimizes the sum of squared branching
values over the path prefix; a new node starts with the result that
created it, at that trace's prefix weight (which may be infinite: the
first finite weight there then replaces it).

The tree maps traces, rebuilds root paths and keeps coverage.  It reads
no analysis state: a node's analysis slots (see ``TreeNode``) belong
to the strategy (``gradfuzz.strategy``).

``seen`` is a plain int from 0 to 3, which holds no reference the cyclic
collector must follow, while a list per node would be traversed by every
full collection of a tree of thousands of nodes.  For the same reason a
node's two successors are two slots, ``false_succ`` and ``true_succ``,
not a list: the collector then tracks each node and one result per
distinct best, which the nodes a trace created share.

The successor slots are the one link between nodes: a node owns its
successors, and no node points back at its parent.  The tree is then
free of reference cycles, so dropping a finished campaign frees it by
reference counting, at once, instead of leaving thousands of nodes to
the next full collection.  A node's root path is rebuilt when it is
needed (``ExecTree.path``), from the root along the directions of the
node's best trace, which always passes through the node.

Mapping is the per-record hot loop of the engine, so it leans on two
invariants instead of re-checking them per record: an edge's successor
exists only once its ``seen`` bit is set (both are set together when a
trace goes on past the node), and ``nbytes`` never decreases along a
trace (the executor contract, which ``wire_decode`` checks on results
from another process), so the tree's ``max_nbytes`` is taken from each
trace's last record.  A node's ``sensitive_bits`` is an immutable set
that starts as one shared empty frozenset and is only ever rebound,
never changed in place.  The id check is an identity test first: the
interpreter makes one id object per (uid, context), so the ids of a
local trace are the tree's own.

Three more invariants let a walk skip what a trace cannot change.  Heights
never rise toward the root: a node is at least as high as each of its
successors, since every trace through a successor runs through it.  And
a record equal to a mapped trace's record at the same node changes
nothing but heights: that trace set the edge's bit, observed the pair,
and left a best weight no heavier than the equal prefix it summed.  So
a walk anchored past a verified shared prefix only raises heights along
it, and stops at the first node already high enough.  Last, a trace
equal from a node on to that node's best trace, at no lighter weight,
changes nothing there or below: the best's own mapping set the bit and
observed the pair of each of those records, raised each node it ran
through as high as the trace (which is as long), and left best weights
no heavier than its prefix sums, which sums over the same values from a
weight no lighter cannot undercut (float addition is monotone).  So at
the first node past its start that keeps its best, the walk compares the
trace's rest once with that best trace's rest, and stops there if the
two are equal; ids are compared too, so a nondeterministic target fails
the comparison and is walked whole.  Where a trace leaves the tree, the
rest of it is built in one loop, each node with its final state, with no
id check and no best comparison.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import islice
from typing import Iterable, Optional

from .target_abi import (
    DIRECTION,
    NBYTES,
    UID,
    VALUE,
    XOR_FLAG,
    ExecutionId,
    ExecutionResult,
)


# A walk compares the rest of a trace in one go (``ExecTree.map_trace``,
# ``SensitivitySession.feed``) only when at least this many records
# follow the position it compares from: a short rest seldom equals the
# one it is compared with.  Measured on the bench: at 16, ``parser``
# (paths of at most 22 records) compares 632 rests per pass, finds none
# equal, and fuzzes ~0.8% slower than at 24, where it compares none;
# ``scanner`` (166 records) fuzzes as fast at 16, 24 and 32.
MIN_COMPARED_REST = 24


class TreeMappingError(Exception):
    """A trace disagreed with the tree structurally (nondeterministic
    target); mapping is aborted."""


def uid_pairs(id_pairs: Iterable[tuple[int, int, bool]]
              ) -> list[tuple[int, bool]]:
    """The distinct (uid, direction) pairs of (uid, ctx, direction)
    pairs, sorted: an instruction was seen going each direction one of
    its execution ids was seen going."""
    return sorted({(uid, direction) for uid, _, direction in id_pairs})


def coverage_summary(id_pairs: Iterable[tuple[int, int, bool]]
                     ) -> dict[str, int]:
    """Coverage counts from observed (uid, ctx, direction) pairs: an
    execution id, or an instruction (counted off the pairs' ``uid_pairs``
    projection), is discovered by one direction and covered by both."""
    id_pairs = set(id_pairs)
    uid_dirs = Counter(u for u, _ in uid_pairs(id_pairs))
    id_dirs = Counter((u, c) for u, c, _ in id_pairs)
    return {
        "uids_discovered": len(uid_dirs),
        "uids_covered": sum(n == 2 for n in uid_dirs.values()),
        "execution_ids_discovered": len(id_dirs),
        "execution_ids_covered": sum(n == 2 for n in id_dirs.values()),
    }


_NO_BITS: frozenset[int] = frozenset()


class TreeNode:
    """One evaluation position along a path.  ``best`` is the node's best
    result, the one that gave it ``best_weight``, and is only ever
    rebound to the result of a strictly lighter trace, which comes from a
    later execution.  ``seen`` has bit ``1 << d`` set once a mapped trace
    took direction ``d`` at the node; ``sensitive_bits`` is immutable and
    rebound when sensitivity publishes marks, so nodes can share the
    empty set.  A node links only to its successors (see the module
    docstring); its ``depth`` is the index of its record in every trace
    reaching it.  The strategy owns ``stage`` and ``closed``; the tree
    only initialises them."""

    __slots__ = (
        "id", "false_succ", "true_succ", "seen", "depth",
        "best", "best_weight", "sensitive_bits", "stage",
        "height", "covered", "closed",
    )

    def __init__(self, node_id: ExecutionId, depth: int,
                 result: ExecutionResult, best_weight: float = math.inf,
                 seen: int = 0, height: int = 0):
        self.id = node_id
        self.false_succ: Optional[TreeNode] = None
        self.true_succ: Optional[TreeNode] = None
        self.seen = seen
        self.depth = depth
        self.best = result
        self.best_weight = best_weight
        self.sensitive_bits: frozenset[int] = _NO_BITS
        self.stage = 0
        self.height = height
        self.covered = False
        self.closed = False

    # convenience views of the node's own record in the best trace
    @property
    def value(self) -> float:
        return self.best.trace[self.depth][VALUE]

    @property
    def xor_flag(self) -> bool:
        return self.best.trace[self.depth][XOR_FLAG]

    @property
    def nbytes(self) -> int:
        return self.best.trace[self.depth][NBYTES]

    def __repr__(self) -> str:
        uid, ctx = self.id
        return f"TreeNode(uid={uid}, ctx={ctx:#010x}, depth={self.depth})"


class ExecTree:
    def __init__(self):
        self.root: Optional[TreeNode] = None
        self.nodes: list[TreeNode] = []
        # the nodes of each id not yet covered, which ``_observe`` marks
        # covered, and forgets, when the id is seen going its second way
        self.nodes_by_id: dict[ExecutionId, list[TreeNode]] = {}
        self.id_directions: dict[ExecutionId, set[bool]] = {}
        self.uid_directions: dict[int, set[bool]] = {}
        self.max_nbytes = 0

    # -- coverage ---------------------------------------------------------

    def coverage_counts(self) -> dict[str, int]:
        return coverage_summary(
            (uid, ctx, d) for (uid, ctx), dirs in self.id_directions.items()
            for d in dirs)

    def _observe(self, rid: ExecutionId, direction: bool,
                 new_pairs: list[tuple[int, bool]]) -> None:
        """Record that execution id ``rid`` was seen going ``direction``,
        adding the (uid, direction) pair to ``new_pairs`` if it is new."""
        uid = rid[UID]
        uid_dirs = self.uid_directions.setdefault(uid, set())
        if direction not in uid_dirs:
            uid_dirs.add(direction)
            new_pairs.append((uid, direction))
        id_dirs = self.id_directions.setdefault(rid, set())
        if direction not in id_dirs:
            id_dirs.add(direction)
            if len(id_dirs) == 2:
                for node in self.nodes_by_id.pop(rid, ()):
                    node.covered = True

    # -- construction -----------------------------------------------------

    def _grow(self, result: ExecutionResult, depth: int, weight: float,
              new_pairs: list[tuple[int, bool]],
              parent: Optional[TreeNode] = None, b: bool = False) -> None:
        """Build the nodes of the records of ``result``'s trace from
        ``depth`` on, where the walk left the tree at ``parent`` going
        ``b`` (no parent: the first node is the root) with path weight
        ``weight``.  Each node is built finished: the trace is its best
        at its prefix weight (values are never NaN, so an infinite weight
        is the only one the walk would not have taken, and it is the
        initial one), it is as high as the trace is long, its one seen
        bit is its record's direction, and it is covered when its id was
        seen both ways."""
        trace = result.trace
        max_depth = len(trace) - 1
        append_node = self.nodes.append
        nodes_by_id = self.nodes_by_id
        id_directions = self.id_directions
        for rid, direction, value, _, _ in islice(trace, depth, None):
            weight += value * value
            node = TreeNode(rid, depth, result, weight, 1 << direction,
                            max_depth)
            append_node(node)
            dirs = id_directions.get(rid)
            if dirs is not None and len(dirs) == 2:
                node.covered = True
            else:
                same_id = nodes_by_id.get(rid)
                if same_id is None:
                    nodes_by_id[rid] = [node]
                else:
                    same_id.append(node)
                self._observe(rid, direction, new_pairs)
            if parent is None:
                self.root = node
            elif b:
                parent.true_succ = node
            else:
                parent.false_succ = node
            parent, b = node, direction
            depth += 1

    def map_trace(self, result: ExecutionResult,
                  anchor: Optional[tuple[list[TreeNode], int, float]] = None
                  ) -> list[tuple[int, bool]]:
        """Walk a trace onto the tree, creating and updating nodes, and
        return the (uid, direction) pairs it was the first to observe, in
        trace order.  The tree's ``uid_directions`` is the one record of
        what was observed: a uid of a new pair that now has both
        directions was covered by this trace.

        Each record sets its direction's bit in its node's ``seen``,
        however the execution terminated.  Empty traces update nothing.

        ``anchor`` is ``(path, k, weight)`` when the trace's first ``k``
        records are known to equal those of a mapped trace through the
        root path ``path`` (``k < len(path)``), whose squared values sum
        to ``weight``: the walk then starts at ``path[k]``, and of the
        first ``k`` records only the heights they raise are applied (see
        the module docstring).  The walk ends early where the rest of
        the trace equals a node's best trace (see the module docstring),
        if at least ``MIN_COMPARED_REST`` records follow the node.
        """
        new_pairs: list[tuple[int, bool]] = []
        trace = result.trace
        if not trace:
            return new_pairs
        # nbytes are monotone along a trace: the last record has the most
        nbytes = trace[-1][NBYTES]
        if nbytes > self.max_nbytes:
            self.max_nbytes = nbytes
        if self.root is None:
            self._grow(result, 0, 0.0, new_pairs)
            return new_pairs
        max_depth = len(trace) - 1
        if anchor is None:
            node = self.root
            records = trace
            weight = 0.0
        else:
            path, k, weight = anchor
            node = path[k]
            records = islice(trace, k, None)
            # heights never rise toward the root: the first ancestor high
            # enough has every node above it high enough
            for above in reversed(path[:k]):
                if above.height >= max_depth:
                    break
                above.height = max_depth
        start = node
        # only a node past the start compares, with fewer records after it
        compare = max_depth - node.depth > MIN_COMPARED_REST
        # record i maps onto the node at depth i
        for rid, b, value, _, _ in records:
            if node.id is not rid and node.id != rid:
                raise TreeMappingError(
                    f"trace record {node.depth} has id {rid}, tree node has "
                    f"{node.id}; target looks nondeterministic")
            # a covered node's id, and so its uid, was seen both ways:
            # observing the record again could change nothing
            if not node.covered:
                self._observe(rid, b, new_pairs)
            weight += value * value
            if weight < node.best_weight:
                node.best_weight = weight
                node.best = result
            elif compare and node is not start:
                # the first node past the start that keeps its best: a
                # rest equal to the best's changes nothing here (height
                # and seen bit included) or below
                compare = False
                d = node.depth
                if (max_depth - d >= MIN_COMPARED_REST
                        and trace[d:] == node.best.trace[d:]):
                    break
            if max_depth > node.height:
                node.height = max_depth
            succ = node.true_succ if b else node.false_succ
            if succ is None:
                # an edge with a successor has its bit set already
                node.seen |= 1 << b
                if node.depth < max_depth:
                    self._grow(result, node.depth + 1, weight, new_pairs,
                               node, b)
                break
            node = succ
        return new_pairs

    # -- paths ------------------------------------------------------------

    def path(self, node: TreeNode) -> list[TreeNode]:
        """The nodes from the root to ``node``, found by following the
        directions of its best trace, which passes through it."""
        cur = self.root
        nodes = [cur]
        for record in node.best.trace[:node.depth]:
            cur = cur.true_succ if record[DIRECTION] else cur.false_succ
            nodes.append(cur)
        return nodes
