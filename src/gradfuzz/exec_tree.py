"""Binary rooted execution tree built from accepted traces.

Each node corresponds to one evaluation position of a Boolean instruction
along a path.  A node's ``seen`` has bit ``1 << d`` set once a mapped
trace took direction ``d`` there, whether the trace went on or ended at
the node; bits are only ever set.  Every node keeps its best result, the
``ExecutionResult`` whose trace minimizes the sum of squared branching
values over the path prefix; a new node starts with the result that
created it, at infinite weight.

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
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from .target_abi import (
    DIRECTION,
    ID,
    NBYTES,
    UID,
    VALUE,
    XOR_FLAG,
    ExecutionId,
    ExecutionResult,
)


class TreeMappingError(Exception):
    """A trace disagreed with the tree structurally (nondeterministic
    target); mapping is aborted."""


def coverage_summary(uid_pairs: Iterable[tuple[int, bool]],
                     id_pairs: Iterable[tuple[int, int, bool]]
                     ) -> dict[str, int]:
    """Coverage counts from observed (uid, direction) and (uid, ctx,
    direction) pairs: an instruction or execution id is discovered by one
    direction and covered by both."""
    uid_dirs = Counter(u for u, _ in set(uid_pairs))
    id_dirs = Counter((u, c) for u, c, _ in set(id_pairs))
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
    later execution: a changed ``best`` is a refreshed one.  ``seen`` has
    bit ``1 << d`` set once a mapped trace took direction ``d`` at the
    node; ``sensitive_bits`` is immutable and rebound when sensitivity
    publishes marks, so nodes can share the empty set.  A node links
    only to its successors (see the module docstring); its ``depth`` is
    the index of its record in every trace reaching it."""

    __slots__ = (
        "id", "false_succ", "true_succ", "seen", "depth",
        "best", "best_weight", "sensitive_bits",
        "sensitivity_done", "bitshare_done", "minimization_done",
        "height", "covered", "closed", "loop_scanned",
    )

    def __init__(self, node_id: ExecutionId, depth: int,
                 result: ExecutionResult):
        self.id = node_id
        self.false_succ: Optional[TreeNode] = None
        self.true_succ: Optional[TreeNode] = None
        self.seen = 0
        self.depth = depth
        self.best = result
        self.best_weight = float("inf")
        self.sensitive_bits: frozenset[int] = _NO_BITS
        self.sensitivity_done = False
        self.bitshare_done = False
        self.minimization_done = False
        self.height = 0
        self.covered = False
        self.closed = False
        self.loop_scanned = False

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


def is_open(node: TreeNode) -> bool:
    if node.seen == 3:
        return False
    if not node.sensitivity_done:
        return True
    return bool(node.sensitive_bits) and not (
        node.bitshare_done and node.minimization_done)


def closed_predicate(node: TreeNode) -> bool:
    """Closed check against the children's stored closed flags."""
    if is_open(node):
        return False
    for succ in (node.false_succ, node.true_succ):
        if succ is not None and not succ.closed:
            return False
    return True


def is_indirectly_input_dependent(node: TreeNode) -> bool:
    return node.sensitivity_done and not node.sensitive_bits


class ExecTree:
    def __init__(self):
        self.root: Optional[TreeNode] = None
        self.nodes: list[TreeNode] = []
        self.nodes_by_id: dict[ExecutionId, list[TreeNode]] = {}
        self.id_directions: dict[ExecutionId, set[bool]] = {}
        self.uid_directions: dict[int, set[bool]] = {}
        self.max_nbytes = 0

    # -- coverage ---------------------------------------------------------

    def id_covered(self, node_id: ExecutionId) -> bool:
        return len(self.id_directions.get(node_id, ())) == 2

    def coverage_counts(self) -> dict[str, int]:
        return coverage_summary(
            ((uid, d) for uid, dirs in self.uid_directions.items()
             for d in dirs),
            ((uid, ctx, d) for (uid, ctx), dirs in self.id_directions.items()
             for d in dirs))

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
                for node in self.nodes_by_id.get(rid, ()):
                    node.covered = True

    # -- construction -----------------------------------------------------

    def _new_node(self, node_id: ExecutionId, depth: int,
                  result: ExecutionResult) -> TreeNode:
        """A node for ``node_id`` at ``depth``, holding the result
        that creates it.  Its best weight stays infinite, so the walk's
        first finite weight at the node keeps that result as its best
        and an infinite one leaves it: a new node takes its first trace
        at any weight."""
        node = TreeNode(node_id, depth, result)
        self.nodes.append(node)
        self.nodes_by_id.setdefault(node_id, []).append(node)
        if self.id_covered(node_id):
            node.covered = True
        return node

    def map_trace(self, result: ExecutionResult) -> list[tuple[int, bool]]:
        """Walk a trace onto the tree, creating and updating nodes, and
        return the (uid, direction) pairs it was the first to observe, in
        trace order.  The tree's ``uid_directions`` is the one record of
        what was observed: a uid of a new pair that now has both
        directions was covered by this trace.

        Each record sets its direction's bit in its node's ``seen``,
        however the execution terminated.  Empty traces update nothing.
        """
        new_pairs: list[tuple[int, bool]] = []
        trace = result.trace
        if not trace:
            return new_pairs
        if self.root is None:
            self.root = self._new_node(trace[0][ID], 0, result)
        # nbytes are monotone along a trace: the last record has the most
        nbytes = trace[-1][NBYTES]
        if nbytes > self.max_nbytes:
            self.max_nbytes = nbytes
        node = self.root
        max_depth = len(trace) - 1
        weight = 0.0
        # record i maps onto the node at depth i
        for rid, b, value, _, _ in trace:
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
            if max_depth > node.height:
                node.height = max_depth
            succ = node.true_succ if b else node.false_succ
            if succ is None:
                # an edge with a successor has its bit set already
                node.seen |= 1 << b
                if node.depth == max_depth:
                    break
                succ = self._new_node(trace[node.depth + 1][ID],
                                      node.depth + 1, result)
                if b:
                    node.true_succ = succ
                else:
                    node.false_succ = succ
            node = succ
        return new_pairs

    # -- paths and closed maintenance --------------------------------------

    def path(self, node: TreeNode) -> list[TreeNode]:
        """The nodes from the root to ``node``, found by following the
        directions of its best trace, which passes through it."""
        cur = self.root
        nodes = [cur]
        for record in node.best.trace[:node.depth]:
            cur = cur.true_succ if record[DIRECTION] else cur.false_succ
            nodes.append(cur)
        return nodes

    def propagate_closed(self, start: TreeNode) -> None:
        """Re-evaluate the closed flag from ``start`` towards the root,
        stopping at the first node that remains non-closed.  Flags are
        only ever set here; recovery is the one place they are cleared."""
        for node in reversed(self.path(start)):
            if not (node.closed or closed_predicate(node)):
                break
            node.closed = True

    def reopen(self, node: TreeNode) -> None:
        """Clear the closed flag of ``node`` and re-evaluate ancestors,
        clearing flags that no longer hold."""
        node.closed = False
        for cur in reversed(self.path(node)[:-1]):
            if not cur.closed or closed_predicate(cur):
                break
            cur.closed = False
