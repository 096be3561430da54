"""Binary rooted execution tree built from accepted traces.

Each node corresponds to one evaluation position of a Boolean instruction
along a path; the edge labels form the lattice NOT_VISITED <
END_EXCEPTIONAL < END_NORMAL < VISITED and only ever increase.  Every node
keeps the best (input, tags, trace) triple seen so far, where "best"
minimizes the sum of squared branching values over the path prefix.
"""
from __future__ import annotations

from collections import Counter
from enum import IntEnum
from typing import Iterable, Optional, Sequence

from .target_abi import (
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


def path_weight(trace: Sequence[ConditionRecord], depth: int) -> float:
    """Sum of squared branching values over trace[0..depth]."""
    total = 0.0
    for i in range(depth + 1):
        total += trace[i].value * trace[i].value
    return total


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


class TreeNode:
    __slots__ = (
        "id", "parent", "successor", "label", "depth", "index",
        "best_input", "best_tags", "best_trace", "best_weight", "best_iter",
        "sensitive_bits", "raw_sensitive_bits",
        "sensitivity_done", "bitshare_done", "minimization_done",
        "height", "covered", "closed", "loop_scanned",
    )

    def __init__(self, node_id: ExecutionId, parent: Optional["TreeNode"],
                 index: int):
        self.id = node_id
        self.parent = parent
        self.successor: list[Optional[TreeNode]] = [None, None]
        self.label = [EdgeLabel.NOT_VISITED, EdgeLabel.NOT_VISITED]
        self.depth = 0 if parent is None else parent.depth + 1
        self.index = index
        self.best_input = b""
        self.best_tags: tuple[TypeTag, ...] = ()
        self.best_trace: tuple[ConditionRecord, ...] = ()
        self.best_weight = float("inf")
        self.best_iter = 0
        self.sensitive_bits: set[int] = set()
        self.raw_sensitive_bits: set[int] = set()
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
        return self.best_trace[self.depth].value

    @property
    def direction(self) -> bool:
        return self.best_trace[self.depth].direction

    @property
    def xor_flag(self) -> bool:
        return self.best_trace[self.depth].xor_flag

    @property
    def nbytes(self) -> int:
        return self.best_trace[self.depth].nbytes

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
    if EdgeLabel.NOT_VISITED not in node.label:
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
        if node.label[b] == EdgeLabel.VISITED:
            succ = node.successor[b]
            if succ is not None and not succ.closed:
                return False
    return True


def is_directly_input_dependent(node: TreeNode) -> bool:
    return node.sensitivity_done and bool(node.sensitive_bits)


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

    def uid_covered(self, uid: int) -> bool:
        return len(self.uid_directions.get(uid, ())) == 2

    def coverage_counts(self) -> dict[str, int]:
        return coverage_summary(
            ((uid, d) for uid, dirs in self.uid_directions.items()
             for d in dirs),
            ((i.uid, i.ctx, d) for i, dirs in self.id_directions.items()
             for d in dirs))

    def _observe(self, record: ConditionRecord, report: MapReport) -> None:
        uid_dirs = self.uid_directions.setdefault(record.id.uid, set())
        if record.direction not in uid_dirs:
            uid_dirs.add(record.direction)
            report.new_pairs.append((record.id.uid, record.direction))
            if len(uid_dirs) == 2:
                report.newly_covered_uids.append(record.id.uid)
        id_dirs = self.id_directions.setdefault(record.id, set())
        if record.direction not in id_dirs:
            id_dirs.add(record.direction)
            if len(id_dirs) == 2:
                for node in self.nodes_by_id.get(record.id, ()):
                    node.covered = True

    # -- construction -----------------------------------------------------

    def _new_node(self, node_id: ExecutionId,
                  parent: Optional[TreeNode]) -> TreeNode:
        node = TreeNode(node_id, parent, len(self.nodes))
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
        terminal = (EdgeLabel.END_EXCEPTIONAL
                    if result.termination == TerminationKind.CRASH
                    else EdgeLabel.END_NORMAL)
        if self.root is None:
            self.root = self._new_node(trace[0].id, None)
        node = self.root
        max_depth = len(trace) - 1
        weight = 0.0
        for i, rec in enumerate(trace):
            if node.id != rec.id:
                raise TreeMappingError(
                    f"trace record {i} has id {rec.id}, tree node has "
                    f"{node.id}; target looks nondeterministic")
            # a covered node's id, and so its uid, was seen both ways:
            # observing the record again could change nothing
            if not node.covered:
                self._observe(rec, report)
            if rec.nbytes > self.max_nbytes:
                self.max_nbytes = rec.nbytes
            weight += rec.value * rec.value
            # a new node takes its first trace even at infinite weight
            if weight < node.best_weight or not node.best_trace:
                node.best_weight = weight
                node.best_input = result.bytes_read
                node.best_tags = result.type_tags
                node.best_trace = trace
                node.best_iter = iteration
            if max_depth > node.height:
                node.height = max_depth
            b = rec.direction
            if i == max_depth:
                if node.label[b] < terminal:
                    node.label[b] = terminal
            else:
                if node.label[b] < EdgeLabel.VISITED:
                    node.label[b] = EdgeLabel.VISITED
                if node.successor[b] is None:
                    node.successor[b] = self._new_node(trace[i + 1].id, node)
                node = node.successor[b]
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

    # -- diagnostics --------------------------------------------------------

    def dump(self) -> str:
        """Deterministic one-node-per-line rendering for golden tests."""
        lines: list[str] = []

        def visit(node: Optional[TreeNode]) -> None:
            if node is None:
                return
            flags = "".join((
                "S" if node.sensitivity_done else "-",
                "B" if node.bitshare_done else "-",
                "M" if node.minimization_done else "-",
                "c" if node.covered else "-",
                "x" if node.closed else "-",
            ))
            lines.append(
                f"{node.depth} uid={node.id.uid} ctx={node.id.ctx:08x} "
                f"labels={node.label[0].name}/{node.label[1].name} "
                f"f={node.value!r} nbytes={node.nbytes} {flags}")
            visit(node.successor[0])
            visit(node.successor[1])

        visit(self.root)
        return "\n".join(lines)
