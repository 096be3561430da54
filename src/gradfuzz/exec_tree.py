"""Binary rooted execution tree built from accepted traces.

Each node corresponds to one evaluation position of a Boolean instruction
along a path; the edge labels form the lattice NOT_VISITED <
END_EXCEPTIONAL < END_NORMAL < VISITED and only ever increase.  Every node
keeps its best result, the ``ExecutionResult`` whose trace minimizes
the sum of squared branching values over the path prefix; a new node
starts with the result that created it, at infinite weight.

A node's two labels are one immutable pair of plain ints (the
``EdgeLabel`` values, which compare equal to them), rebound when a
label rises and never changed in place.  A tuple of ints holds no
reference the cyclic collector must follow, so the collector stops
tracking it, while a list per node (or a tuple of ``IntEnum`` members)
would be traversed by every full collection of a tree of thousands of
nodes.  The sixteen possible pairs are built once and shared by all
nodes, so labelling a node allocates nothing: every object a walk
allocates and keeps brings the next collection nearer, and a young
collection counts towards the full ones.  For the same reason as the
labels, a node's two successors are two slots, ``false_succ`` and
``true_succ``, not a list: the collector then tracks each node and one
result per distinct best, which the nodes a trace created share.

The successor slots are the one link between nodes: a node owns its
successors, and no node points back at its parent.  The tree is then
free of reference cycles, so dropping a finished campaign frees it by
reference counting, at once, instead of leaving thousands of nodes to
the next full collection.  A node's root path is rebuilt when it is
needed (``ExecTree.path``), from the root along the directions of the
node's best trace, which always passes through the node.

Mapping is the per-record hot loop of the engine, so it leans on two
invariants instead of re-checking them per record: an edge's successor
exists exactly when its label is VISITED (both are set together, and
VISITED is the top of the lattice), and ``nbytes`` never decreases along
a trace (the executor contract, which ``wire_decode`` checks on results
from another process), so the tree's ``max_nbytes`` is taken from each
trace's last record.  A node's ``sensitive_bits`` is an immutable set
that starts as one shared empty frozenset and is only ever rebound,
never changed in place.  The id check is an identity test first: the
interpreter makes one id object per (uid, context), so the ids of a
local trace are the tree's own.
"""
from __future__ import annotations

from collections import Counter
from enum import IntEnum
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
    TerminationKind,
)


class EdgeLabel(IntEnum):
    NOT_VISITED = 0
    END_EXCEPTIONAL = 1
    END_NORMAL = 2
    VISITED = 3


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

_NOT_VISITED = int(EdgeLabel.NOT_VISITED)
_VISITED = int(EdgeLabel.VISITED)
_END_EXCEPTIONAL = int(EdgeLabel.END_EXCEPTIONAL)
_END_NORMAL = int(EdgeLabel.END_NORMAL)
# every label pair, shared: _LABELS[false label][true label]
_LABELS = tuple(tuple((f, t) for t in range(len(EdgeLabel)))
                for f in range(len(EdgeLabel)))
_UNLABELLED: tuple[int, int] = _LABELS[_NOT_VISITED][_NOT_VISITED]


class TreeNode:
    """One evaluation position along a path.  ``best`` is the node's best
    result, the one that gave it ``best_weight``, and is only ever
    rebound to the result of a strictly lighter trace, which comes from a
    later execution: a changed ``best`` is a refreshed one.  ``label`` is
    the immutable pair (false edge, true edge) of ``EdgeLabel`` values as
    plain ints, one of the sixteen shared pairs, so the collector need
    not track it; ``sensitive_bits`` is immutable too and rebound when
    sensitivity publishes marks, so nodes can share the empty set.  A
    node links only to its successors (see the module docstring); its
    ``depth`` is the index of its record in every trace reaching it."""

    __slots__ = (
        "id", "false_succ", "true_succ", "label", "depth",
        "best", "best_weight", "sensitive_bits",
        "sensitivity_done", "bitshare_done", "minimization_done",
        "height", "covered", "closed", "loop_scanned",
    )

    def __init__(self, node_id: ExecutionId, depth: int,
                 result: ExecutionResult):
        self.id = node_id
        self.false_succ: Optional[TreeNode] = None
        self.true_succ: Optional[TreeNode] = None
        self.label: tuple[int, int] = _UNLABELLED
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
    if _NOT_VISITED not in node.label:
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

        Empty traces update nothing.  The end-of-trace label is
        END_EXCEPTIONAL for a crash and END_NORMAL otherwise (timeouts and
        boundary violations count as normal ends for labeling).
        """
        new_pairs: list[tuple[int, bool]] = []
        trace = result.trace
        if not trace:
            return new_pairs
        terminal = (_END_EXCEPTIONAL
                    if result.termination == TerminationKind.CRASH
                    else _END_NORMAL)
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
                # the edge is not VISITED yet, so the label can still
                # rise; the pair is rebound, never changed in place
                false_label, true_label = node.label
                if node.depth == max_depth:
                    if b:
                        if true_label < terminal:
                            node.label = _LABELS[false_label][terminal]
                    elif false_label < terminal:
                        node.label = _LABELS[terminal][true_label]
                    break
                succ = self._new_node(trace[node.depth + 1][ID],
                                      node.depth + 1, result)
                if b:
                    node.label = _LABELS[false_label][_VISITED]
                    node.true_succ = succ
                else:
                    node.label = _LABELS[_VISITED][true_label]
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
