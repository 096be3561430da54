"""Binary rooted execution tree built from accepted traces.

Each node corresponds to one evaluation position of a Boolean instruction
along a path; the edge labels form the lattice NOT_VISITED <
END_EXCEPTIONAL < END_NORMAL < VISITED and only ever increase.  Every node
keeps the best (input, tags, trace) triple seen so far, where "best"
minimizes the sum of squared branching values over the path prefix; a
new node starts with the trace that created it, at infinite weight.

A node's two labels are one immutable pair of plain ints (the
``EdgeLabel`` values, which compare equal to them), rebound when a
label rises and never changed in place.  Every new node shares one
unlabelled pair.  A tuple of ints holds no reference the cyclic
collector must follow, so the collector stops tracking it, while a list
per node (or a tuple of ``IntEnum`` members) would be traversed by every
full collection of a tree of thousands of nodes.

Mapping is the per-record hot loop of the engine, so it leans on two
invariants instead of re-checking them per record: an edge's successor
exists exactly when its label is VISITED (both are set together, and
VISITED is the top of the lattice), and ``nbytes`` never decreases along
a trace (``ExecutionResult`` rejects one that does), so the tree's
``max_nbytes`` is taken from each trace's last record.  A node's
``sensitive_bits`` is an immutable set that starts as one shared empty
frozenset and is only ever rebound, never changed in place.  The id
check is an identity test first: the interpreter makes one id object
per (uid, context), so the ids of a local trace are the tree's own.
"""
from __future__ import annotations

from collections import Counter
from enum import IntEnum
from typing import Iterable, Optional

from .target_abi import (
    ID,
    NBYTES,
    VALUE,
    XOR_FLAG,
    ConditionRecord,
    ExecutionId,
    ExecutionResult,
    TerminationKind,
    TypeTag,
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
_UNLABELLED: tuple[int, int] = (_NOT_VISITED, _NOT_VISITED)


class TreeNode:
    """One evaluation position along a path.  ``label`` is the
    immutable pair (false edge, true edge) of ``EdgeLabel`` values as
    plain ints, so the collector need not track it and new nodes share
    one pair; ``sensitive_bits`` is immutable too and rebound when
    sensitivity publishes marks, so nodes can share the empty set."""

    __slots__ = (
        "id", "parent", "successor", "label", "depth",
        "best_input", "best_tags", "best_trace", "best_weight", "best_iter",
        "sensitive_bits",
        "sensitivity_done", "bitshare_done", "minimization_done",
        "height", "covered", "closed", "loop_scanned",
    )

    def __init__(self, node_id: ExecutionId, parent: Optional["TreeNode"]):
        self.id = node_id
        self.parent = parent
        self.successor: list[Optional[TreeNode]] = [None, None]
        self.label: tuple[int, int] = _UNLABELLED
        self.depth = 0 if parent is None else parent.depth + 1
        self.best_input = b""
        self.best_tags: tuple[TypeTag, ...] = ()
        self.best_trace: tuple[ConditionRecord, ...] = ()
        self.best_weight = float("inf")
        self.best_iter = 0
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
        return self.best_trace[self.depth][VALUE]

    @property
    def xor_flag(self) -> bool:
        return self.best_trace[self.depth][XOR_FLAG]

    @property
    def nbytes(self) -> int:
        return self.best_trace[self.depth][NBYTES]

    def path(self) -> list["TreeNode"]:
        nodes = []
        node: Optional[TreeNode] = self
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes

    def __repr__(self) -> str:
        return (f"TreeNode(uid={self.id.uid}, ctx={self.id.ctx:#010x}, "
                f"depth={self.depth})")


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
    for b in (False, True):
        if node.label[b] == _VISITED:
            succ = node.successor[b]
            if succ is not None and not succ.closed:
                return False
    return True


def is_indirectly_input_dependent(node: TreeNode) -> bool:
    return node.sensitivity_done and not node.sensitive_bits


class MapReport:
    """What one trace mapping changed."""

    __slots__ = ("new_pairs", "newly_covered_uids")

    def __init__(self):
        self.new_pairs: list[tuple[int, bool]] = []
        self.newly_covered_uids: list[int] = []


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
            ((i.uid, i.ctx, d) for i, dirs in self.id_directions.items()
             for d in dirs))

    def _observe(self, rid: ExecutionId, direction: bool,
                 report: MapReport) -> None:
        """Record that execution id ``rid`` was seen going ``direction``."""
        uid = rid.uid
        uid_dirs = self.uid_directions.setdefault(uid, set())
        if direction not in uid_dirs:
            uid_dirs.add(direction)
            report.new_pairs.append((uid, direction))
            if len(uid_dirs) == 2:
                report.newly_covered_uids.append(uid)
        id_dirs = self.id_directions.setdefault(rid, set())
        if direction not in id_dirs:
            id_dirs.add(direction)
            if len(id_dirs) == 2:
                for node in self.nodes_by_id.get(rid, ()):
                    node.covered = True

    # -- construction -----------------------------------------------------

    def _new_node(self, node_id: ExecutionId, parent: Optional[TreeNode],
                  result: ExecutionResult, iteration: int) -> TreeNode:
        """A node for ``node_id`` under ``parent``, holding the input,
        tags and trace of the result that creates it.  Its best weight
        stays infinite, so the walk's first finite weight at the node
        replaces them (with the same trace) and an infinite one keeps
        them: a new node takes its first trace at any weight."""
        node = TreeNode(node_id, parent)
        node.best_input = result.bytes_read
        node.best_tags = result.type_tags
        node.best_trace = result.trace
        node.best_iter = iteration
        self.nodes.append(node)
        self.nodes_by_id.setdefault(node_id, []).append(node)
        if self.id_covered(node_id):
            node.covered = True
        return node

    def map_trace(self, result: ExecutionResult, iteration: int) -> MapReport:
        """Walk a trace onto the tree, creating and updating nodes.

        Empty traces update nothing.  The end-of-trace label is
        END_EXCEPTIONAL for a crash and END_NORMAL otherwise (timeouts and
        boundary violations count as normal ends for labeling).
        """
        report = MapReport()
        trace = result.trace
        if not trace:
            return report
        terminal = (_END_EXCEPTIONAL
                    if result.termination == TerminationKind.CRASH
                    else _END_NORMAL)
        if self.root is None:
            self.root = self._new_node(trace[0][ID], None, result, iteration)
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
                self._observe(rid, b, report)
            weight += value * value
            if weight < node.best_weight:
                node.best_weight = weight
                node.best_input = result.bytes_read
                node.best_tags = result.type_tags
                node.best_trace = trace
                node.best_iter = iteration
            if max_depth > node.height:
                node.height = max_depth
            succ = node.successor[b]
            if succ is None:
                # the edge is not VISITED yet, so the label can still
                # rise; the pair is rebound, never changed in place
                false_label, true_label = node.label
                if node.depth == max_depth:
                    if b:
                        if true_label < terminal:
                            node.label = (false_label, terminal)
                    elif false_label < terminal:
                        node.label = (terminal, true_label)
                    break
                node.label = ((false_label, _VISITED) if b
                              else (_VISITED, true_label))
                succ = node.successor[b] = self._new_node(
                    trace[node.depth + 1][ID], node, result, iteration)
            node = succ
        return report

    # -- closed maintenance -------------------------------------------------

    def propagate_closed(self, start: TreeNode) -> None:
        """Re-evaluate the closed flag from ``start`` towards the root,
        stopping at the first node that remains non-closed.  Flags are
        only ever set here; recovery is the one place they are cleared."""
        node: Optional[TreeNode] = start
        while node is not None:
            now_closed = node.closed or closed_predicate(node)
            if not now_closed:
                break
            node.closed = True
            node = node.parent

    def reopen(self, node: TreeNode) -> None:
        """Clear the closed flag of ``node`` and re-evaluate ancestors,
        clearing flags that no longer hold."""
        node.closed = False
        cur = node.parent
        while cur is not None and cur.closed:
            if closed_predicate(cur):
                break
            cur.closed = False
            cur = cur.parent
