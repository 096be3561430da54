"""Node and analysis selection: primary targets, loop-head detection,
the Monte Carlo walk from indirect pivots, and recovery from early
termination.

The strategy owns each node's analysis pipeline: ``select_analysis``
builds the next ready session (sensitivity, then bitshare, then typed or
bit-level minimization), and ``finish`` records a deactivated session's
outcome on its node, on the pivots, on the bitshare store or on the
recovery records.  The engine only executes the session's inputs.

Primary targets are taken in a fixed priority, and only uncovered, open
nodes are eligible anywhere:

* loop_heads: one representative per input-size bucket of the repeated
  instructions detected along scanned paths (stored),
* primary candidates: the analysed nodes, then the unanalysed nodes away
  from pivot locations, by one sort key (derived from the tree),
* twins: unanalysed nodes sharing an execution id with a pivot but with
  a strictly smaller |branching value| (stored, FIFO).

The pivots and the recovery records, (node, the node's best iteration
at the failure), are stored as well.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .exec_tree import (
    EdgeLabel,
    ExecTree,
    TreeNode,
    is_indirectly_input_dependent,
    is_open,
)
from .generators import (
    AnalysisKind,
    AnalysisSession,
    BinaryDescentSession,
    BitshareSession,
    BitshareStore,
    SensitivitySession,
    TypedDescentSession,
    identify_typed_variables,
)
from .target_abi import UID

_POW2_BUCKETS = [2 ** i for i in range(11)]


# --- sort keys ----------------------------------------------------------

def _nearest_bucket(value: float) -> int:
    best = _POW2_BUCKETS[0]
    for w in _POW2_BUCKETS[1:]:
        if abs(value - w) < abs(value - best):
            best = w
    return best


def _center_distance(nbytes: int, max_bytes: int) -> int:
    center = _nearest_bucket(max_bytes / 2)
    return abs(center - _nearest_bucket(nbytes))


def su_key(node: TreeNode, max_bytes: int) -> tuple:
    """Sort key of the primary candidates: analysed first, fewer
    sensitive bits first, input size near half the maximum first, then
    smaller reads, shallower depth, larger subtree."""
    return (not node.sensitivity_done, len(node.sensitive_bits),
            _center_distance(node.nbytes, max_bytes), node.nbytes,
            node.depth, -node.height)


def iid_key(node: TreeNode, max_bytes: int) -> tuple:
    """Sort key of a pivot partition class: closest to the minimum first,
    then the same center bias, reads, and depth."""
    return (abs(node.value), _center_distance(node.nbytes, max_bytes),
            node.nbytes, node.depth)


def biased_index(length: int, rng) -> int:
    """Geometric pick: P(i) = 0.75 * 0.25^i, with the tail mass absorbed
    by the last index."""
    index = 0
    while index < length - 1 and rng.random() >= 0.75:
        index += 1
    return index


# --- loop detection ------------------------------------------------------

@dataclass
class LoopBoundary:
    entry: TreeNode
    exit: TreeNode
    successor: TreeNode


def detect_loops(path: Sequence[TreeNode]
                 ) -> tuple[list[LoopBoundary], dict[int, set[int]]]:
    """Find repetitions of instruction uids along a root path, scanning
    backwards so loop exits are seen first.

    Returns the loop boundaries (entry, exit, successor-of-exit) and a map
    from loop-head uid to the set of uids in its body.
    """
    loops: list[LoopBoundary] = []
    heads2bodies: dict[int, set[int]] = {}
    # stack entries: [exit node, successor node, loops index or None]
    stack: list[list] = []
    lookup: dict[int, int] = {}
    last = len(path) - 1
    for i in range(last, -1, -1):
        uid = path[i].id[UID]
        j = min(i + 1, last)
        if uid not in lookup:
            lookup[uid] = len(stack)
            stack.append([path[i], path[j], None])
        else:
            k = lookup[uid]
            if stack[k][2] is None:
                stack[k][2] = len(loops)
                loops.append(LoopBoundary(path[i], stack[k][0], stack[k][1]))
            else:
                loops[stack[k][2]].entry = path[i]
            while len(stack) > k + 1:
                body_uid = stack[-1][0].id[UID]
                heads2bodies.setdefault(stack[k][0].id[UID], set()).add(
                    body_uid)
                del lookup[body_uid]
                stack.pop()
    for loop in loops:
        body = heads2bodies.get(loop.exit.id[UID], set())
        while (loop.entry.parent is not None
               and (loop.entry.parent.id[UID] == loop.exit.id[UID]
                    or loop.entry.parent.id[UID] in body)):
            loop.entry = loop.entry.parent
    return loops, heads2bodies


# --- direction statistics for the Monte Carlo walk ------------------------

def direction_counts(path: Sequence[TreeNode]) -> dict[int, list[int]]:
    """[false-successor count, true-successor count] of each uid along a
    path; the final node has no outgoing edge and is not counted."""
    counts: dict[int, list[int]] = {}
    for node, successor in zip(path, path[1:]):
        pair = counts.setdefault(node.id[UID], [0, 0])
        pair[successor is node.true_succ] += 1
    return counts


def compute_direction_probability(
        class_prime_stats: Sequence[tuple[float, Optional[float]]],
        in_loop_body: bool = False) -> float:
    """Probability of moving to the false successor, from per-pivot
    (|branching value|, false-direction frequency) pairs ordered by
    |value| ascending.  Each frequency is extrapolated along the line
    towards a zero branching value; a loop-body instruction mixes in 0.5
    for variability, and the average is clamped to [0, 1]."""
    values: list[float] = []
    f0, fraction0 = class_prime_stats[0]
    for fi, fraction in class_prime_stats:
        if fraction is None or fraction0 is None:
            continue
        denominator = f0 - fi
        if denominator == 0:
            continue
        t = -fi / denominator
        values.append(fraction + t * (fraction0 - fraction))
    if not values and fraction0 is not None:
        values.append(fraction0)
    if in_loop_body:
        values.append(0.5)
    if not values:
        return 0.5
    return min(1.0, max(0.0, sum(values) / len(values)))


def class_prime_stats(class_prime: Sequence[TreeNode],
                      counts: Sequence[dict[int, list[int]]],
                      uid: int) -> list[tuple[float, Optional[float]]]:
    """Per pivot, |branching value| and the false-direction frequency of
    ``uid`` from the pivot's ``direction_counts``."""
    stats = []
    for pivot, pivot_counts in zip(class_prime, counts):
        n_false, n_true = pivot_counts.get(uid, (0, 0))
        total = n_false + n_true
        stats.append((abs(pivot.value),
                      n_false / total if total else None))
    return stats


# --- the selection strategy --------------------------------------------------

class Strategy:
    def __init__(self, tree: ExecTree, rng):
        self.tree = tree
        self.rng = rng
        self.loop_heads: list[TreeNode] = []
        self.twins: list[TreeNode] = []
        # uncovered indirectly-input-dependent nodes, in registration order
        self.pivots: list[TreeNode] = []
        self.recovery_records: list[tuple[TreeNode, int]] = []
        self.bitshare_store = BitshareStore()
        self._loop_bodies: dict[TreeNode, set[int]] = {}

    # -- membership predicates -------------------------------------------

    def _eligible(self, node: TreeNode) -> bool:
        return not node.covered and is_open(node)

    def _twin_member(self, node: TreeNode) -> bool:
        if not self._eligible(node) or node.sensitivity_done:
            return False
        return any(node.id == pivot.id and abs(node.value) < abs(pivot.value)
                   for pivot in self.pivots)

    def primary_candidates(self) -> list[TreeNode]:
        """Eligible nodes that are analysed, or unanalysed and away from
        every pivot location, in tree order."""
        locations = {p.id for p in self.pivots}
        return [n for n in self.tree.nodes
                if self._eligible(n)
                and (n.sensitivity_done or n.id not in locations)]

    def prune_targets(self) -> None:
        """Re-check the stored targets against their membership
        predicates, dropping violators and admitting new twins."""
        self.pivots = [n for n in self.pivots
                       if not n.covered and is_indirectly_input_dependent(n)]
        self.loop_heads = [n for n in self.loop_heads if self._eligible(n)]
        kept = [n for n in self.twins if self._twin_member(n)]
        known = set(id(n) for n in kept)
        for node in self.tree.nodes:
            if id(node) not in known and self._twin_member(node):
                kept.append(node)
        self.twins = kept

    def register_examined(self, nodes: Sequence[TreeNode]) -> None:
        """After a sensitivity pass: uncovered IID nodes become pivots."""
        for node in nodes:
            if (not node.covered and is_indirectly_input_dependent(node)
                    and node not in self.pivots):
                self.pivots.append(node)

    def record_failure(self, node: TreeNode) -> None:
        """A minimization ended without reaching its goal."""
        self.recovery_records.append((node, node.best_iter))

    # -- loop head detection -----------------------------------------------

    def _scan_loop_heads(self, node: TreeNode) -> None:
        path = node.path()
        _, heads2bodies = detect_loops(path)
        self.detect_loop_heads(path, heads2bodies)
        node.loop_scanned = True

    def detect_loop_heads(self, path: Sequence[TreeNode],
                          heads2bodies: dict[int, set[int]]) -> list[TreeNode]:
        """Bucket open loop-head nodes by the nearest power of two of
        their read count; the smallest node per bucket joins the targets."""
        buckets: dict[int, list[TreeNode]] = {}
        for node in path:
            if not self._eligible(node):
                continue
            if node.id[UID] not in heads2bodies:
                continue
            buckets.setdefault(_nearest_bucket(node.nbytes), []).append(node)
        inserted = []
        for w in sorted(buckets):
            nodes = buckets[w]
            best = min(nodes, key=lambda n: (n.nbytes, n.depth))
            if best not in self.loop_heads:
                self.loop_heads.append(best)
                inserted.append(best)
        return inserted

    # -- primary target selection -------------------------------------------

    def select_primary_target(self) -> Optional[TreeNode]:
        """A random loop head, else the first smallest primary candidate,
        else the oldest twin.  An unscanned pick is first scanned for loop
        heads, which changes no candidate's eligibility or key."""
        candidates = self.primary_candidates()
        max_bytes = self.tree.max_nbytes
        best = (min(candidates, key=lambda n: su_key(n, max_bytes))
                if candidates else None)
        while True:
            if self.loop_heads:
                index = self.rng.randrange(len(self.loop_heads))
                return self.loop_heads.pop(index)
            if best is not None:
                node = best
            elif self.twins:
                node = self.twins[0]
            else:
                return None
            if not node.loop_scanned:
                self._scan_loop_heads(node)
                continue
            if node is not best:
                self.twins.pop(0)
            return node

    # -- Monte Carlo walk ------------------------------------------------------

    def _pivot_loop_bodies(self, pivot: TreeNode) -> set[int]:
        if pivot not in self._loop_bodies:
            _, heads2bodies = detect_loops(pivot.path())
            bodies: set[int] = set()
            for body in heads2bodies.values():
                bodies |= body
            self._loop_bodies[pivot] = bodies
        return self._loop_bodies[pivot]

    def monte_carlo_select(self) -> Optional[TreeNode]:
        """A walk from a pivot's loop entry, steered by the direction
        frequencies of the pivot's partition class.  The pivots are those
        the last ``prune_targets`` kept."""
        classes: dict[int, list[TreeNode]] = {}
        for node in self.pivots:
            classes.setdefault(node.id[UID], []).append(node)
        if not classes:
            return None
        max_bytes = self.tree.max_nbytes
        uid = self.rng.choice(sorted(classes))
        members = sorted(classes[uid], key=lambda n: iid_key(n, max_bytes))
        pivot = members[biased_index(len(members), self.rng)]
        path = pivot.path()
        loops, _ = detect_loops(path)
        entries = sorted((loop.entry for loop in loops),
                         key=lambda n: -n.depth)
        if entries:
            k = entries[biased_index(len(entries), self.rng)].depth
        else:
            k = 0
        if self.tree.root is not None and self.tree.root.closed:
            return None
        while k < len(path) and path[k].closed:
            k += 1
        if k >= len(path):
            return None
        class_prime = [n for n in members if n.nbytes == pivot.nbytes]
        counts = [direction_counts(n.path()) for n in class_prime]
        body_uids: set[int] = set()
        for member in class_prime:
            body_uids |= self._pivot_loop_bodies(member)
        domain: set[int] = set()
        for member in classes[uid]:
            domain.update(n.id[UID] for n in member.path())
        probabilities: dict[int, float] = {}
        streams: dict[int, Callable[[], float]] = {}
        uniform = self.rng.random
        for walk_uid in sorted(domain):
            in_body = walk_uid in body_uids
            prob = compute_direction_probability(
                class_prime_stats(class_prime, counts, walk_uid), in_body)
            probabilities[walk_uid] = prob
            if in_body:
                choice = self.rng.randrange(3)
                if choice == 0:
                    streams[walk_uid] = uniform
                else:
                    total = sum(sum(c.get(walk_uid, ())) for c in counts)
                    ones = round(total * prob)
                    if total == 0:
                        streams[walk_uid] = uniform
                    else:
                        sequence = [1.0] * ones + [0.0] * (total - ones)
                        if choice == 2:  # zeros first
                            sequence.reverse()
                        streams[walk_uid] = itertools.cycle(sequence).__next__
            else:
                streams[walk_uid] = uniform
        node = path[k]
        while True:
            prob = probabilities.get(node.id[UID], 0.5)
            stream = streams.get(node.id[UID], uniform)
            direction = prob < stream()
            successor = node.true_succ if direction else node.false_succ
            if successor is not None and not successor.closed:
                node = successor
                continue
            if is_open(node):
                return node
            moved = False
            for successor in (node.false_succ, node.true_succ):
                if successor is not None and not successor.closed:
                    node = successor
                    moved = True
                    break
            if not moved:
                return None

    # -- recovery ----------------------------------------------------------

    def recover_nodes(self) -> int:
        """Reopen failed-minimization nodes whose best triple has been
        refreshed since the failure; returns how many were reopened."""
        kept: list[tuple[TreeNode, int]] = []
        reopened = 0
        for node, best_iter in self.recovery_records:
            if node.covered:
                continue
            if best_iter >= node.best_iter:
                kept.append((node, best_iter))
                continue
            node.sensitivity_done = False
            node.bitshare_done = False
            node.minimization_done = False
            self.tree.reopen(node)
            reopened += 1
        self.recovery_records = kept
        if reopened:
            self.prune_targets()
        return reopened

    # -- analysis selection ----------------------------------------------------

    def _descend_for_sensitivity(self, node: TreeNode) -> TreeNode:
        while True:
            succ = (node.false_succ, node.true_succ)
            same = [s is not None and s.nbytes == node.nbytes for s in succ]
            if same[0] and same[1]:
                node = succ[0] if succ[0].height >= succ[1].height else succ[1]
            elif same[0]:
                node = succ[0]
            elif same[1]:
                node = succ[1]
            else:
                return node

    def select_analysis(self) -> Optional[AnalysisSession]:
        """The session of the next (analysis, node) pair, trying recovery
        before giving up; None means the whole fuzzing loop terminates."""
        self.prune_targets()
        while True:
            node = self.select_primary_target()
            if node is None:
                node = self.monte_carlo_select()
            if node is not None:
                break
            if not self.recover_nodes():
                return None
        if not node.sensitivity_done:
            return SensitivitySession(self._descend_for_sensitivity(node))
        goal = False if node.label[False] == EdgeLabel.NOT_VISITED else True
        if not node.bitshare_done:
            return BitshareSession(node, goal, self.bitshare_store)
        variables = None if node.xor_flag else identify_typed_variables(
            node.best_input, node.best_tags, node.sensitive_bits)
        if variables:
            return TypedDescentSession(node, goal, self.rng, variables)
        return BinaryDescentSession(node, goal, self.rng)

    def finish(self, session: AnalysisSession) -> None:
        """Record the outcome of a deactivated session on its node and
        close what it closed.  A minimization's outcome is the session's
        own ``achieving_input``: the input that observed its goal
        direction, or None when none did."""
        node = session.node
        if session.kind == AnalysisKind.SENSITIVITY:
            self.register_examined(session.finish())
        elif session.kind == AnalysisKind.BITSHARE:
            node.bitshare_done = True
        else:
            node.minimization_done = True
            if session.achieving_input is None:
                self.record_failure(node)
            else:
                self.bitshare_store.record(node.id[UID],
                                           session.goal_direction,
                                           session.achieving_input,
                                           node.sensitive_bits)
        self.tree.propagate_closed(node)
