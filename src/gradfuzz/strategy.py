"""Node and analysis selection: primary targets, loop-head detection
and the Monte Carlo walk from indirect pivots.

The strategy owns each node's analysis pipeline: ``select_analysis``
builds the next ready session (sensitivity, then bitshare, then typed or
bit-level minimization), and ``finish`` records a deactivated session's
outcome on its nodes and on the bitshare store.  The engine only
executes the session's inputs.

A node's ``stage`` counts its finished analyses in that order: 0 is
none, 1 sensitivity, 2 bitshare, 3 minimization.  A sensitivity pass
raises each node of its path to at least 1, bitshare sets 2 and a
minimization 3, whether or not it reached its goal; a stage only rises.
A node is open (``is_open``) while it was not seen both ways and is at
0, or below 3 with sensitive bits; it is closed once it is not open and
no successor is unclosed.  A finished session sets closed flags from its
node up (``propagate_closed``), and nothing clears them.

Primary targets are taken in a fixed priority, and only uncovered, open
nodes are eligible anywhere:

* loop_heads: one representative per input-size bucket of the repeated
  instructions detected along scanned paths (stored),
* primary candidates: the analysed nodes, then the unanalysed nodes away
  from pivot locations, by one sort key (derived from the tree).

When neither yields a node, a Monte Carlo walk from a pivot, an
uncovered indirectly input-dependent node, finds one.  The pivots are
derived from the tree at each ``prune_targets``; only the loop heads
are stored.
"""
from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from .exec_tree import ExecTree, TreeNode
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


# --- the analysis pipeline --------------------------------------------------

def is_open(node: TreeNode) -> bool:
    """Whether an analysis is left at the node: it was not seen both
    ways, and sensitivity has not run, or it found sensitive bits and
    minimization has not run."""
    return node.seen != 3 and (
        node.stage == 0 or node.stage < 3 and bool(node.sensitive_bits))


def closed_predicate(node: TreeNode) -> bool:
    """Closed check against the children's stored closed flags."""
    return not is_open(node) and all(
        succ is None or succ.closed
        for succ in (node.false_succ, node.true_succ))


def is_indirectly_input_dependent(node: TreeNode) -> bool:
    return node.stage > 0 and not node.sensitive_bits


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
    return (node.stage == 0, len(node.sensitive_bits),
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

def detect_loops(path: Sequence[TreeNode]
                 ) -> tuple[list[TreeNode], dict[int, set[int]]]:
    """Find repetitions of instruction uids along a root path, whose node
    at index i has depth i, scanning backwards so loop exits are seen
    first.

    Returns each loop's entry node, moved back over the instructions of
    its body and its repeated uid just before it, and a map from
    loop-head uid to the set of uids in its body.
    """
    loops: list[list] = []  # [entry index, repeated uid]
    heads2bodies: dict[int, set[int]] = {}
    # stack entries: [uid, loops index or None]
    stack: list[list] = []
    lookup: dict[int, int] = {}
    for i in range(len(path) - 1, -1, -1):
        uid = path[i].id[UID]
        if uid not in lookup:
            lookup[uid] = len(stack)
            stack.append([uid, None])
        else:
            k = lookup[uid]
            if stack[k][1] is None:
                stack[k][1] = len(loops)
                loops.append([i, uid])
            else:
                loops[stack[k][1]][0] = i
            while len(stack) > k + 1:
                body_uid = stack.pop()[0]
                heads2bodies.setdefault(uid, set()).add(body_uid)
                del lookup[body_uid]
    entries = []
    for i, uid in loops:
        body = heads2bodies.get(uid, ())
        while i > 0 and (path[i - 1].id[UID] == uid
                         or path[i - 1].id[UID] in body):
            i -= 1
        entries.append(path[i])
    return entries, heads2bodies


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
        # uncovered indirectly-input-dependent nodes, in tree order
        self.pivots: list[TreeNode] = []
        self.bitshare_store = BitshareStore()

    # -- membership predicates -------------------------------------------

    def _eligible(self, node: TreeNode) -> bool:
        return not node.covered and is_open(node)

    def primary_candidates(self) -> list[TreeNode]:
        """Eligible nodes that are analysed, or unanalysed and away from
        every pivot location, in tree order."""
        locations = {p.id for p in self.pivots}
        return [n for n in self.tree.nodes
                if self._eligible(n)
                and (n.stage or n.id not in locations)]

    def prune_targets(self) -> None:
        """Derive the pivots from the tree and drop the loop heads that
        are no longer eligible."""
        self.pivots = [n for n in self.tree.nodes
                       if not n.covered and is_indirectly_input_dependent(n)]
        self.loop_heads = [n for n in self.loop_heads if self._eligible(n)]

    def register_examined(self, nodes: Sequence[TreeNode]) -> None:
        """After a sensitivity pass: each examined node has finished
        sensitivity."""
        for node in nodes:
            if not node.stage:
                node.stage = 1

    # -- loop head detection -----------------------------------------------

    def _scan_loop_heads(self, node: TreeNode) -> None:
        path = self.tree.path(node)
        _, heads2bodies = detect_loops(path)
        self.detect_loop_heads(path, heads2bodies)
        node.loop_scanned = True

    def detect_loop_heads(self, path: Sequence[TreeNode],
                          heads2bodies: dict[int, set[int]]) -> None:
        """Bucket open loop-head nodes by the nearest power of two of
        their read count; the smallest node per bucket joins the targets."""
        buckets: dict[int, list[TreeNode]] = {}
        for node in path:
            if not self._eligible(node):
                continue
            if node.id[UID] not in heads2bodies:
                continue
            buckets.setdefault(_nearest_bucket(node.nbytes), []).append(node)
        for w in sorted(buckets):
            best = min(buckets[w], key=lambda n: (n.nbytes, n.depth))
            if best not in self.loop_heads:
                self.loop_heads.append(best)

    # -- primary target selection -------------------------------------------

    def select_primary_target(self) -> Optional[TreeNode]:
        """A random loop head, else the first smallest primary candidate,
        scanned first: a loop head that the scan of an unscanned pick
        finds is taken in its place.  Scanning changes no candidate's
        eligibility or key."""
        if not self.loop_heads:
            candidates = self.primary_candidates()
            if not candidates:
                return None
            max_bytes = self.tree.max_nbytes
            best = min(candidates, key=lambda n: su_key(n, max_bytes))
            if not best.loop_scanned:
                self._scan_loop_heads(best)
            if not self.loop_heads:
                return best
        return self.loop_heads.pop(self.rng.randrange(len(self.loop_heads)))

    # -- Monte Carlo walk ------------------------------------------------------

    def monte_carlo_select(self) -> Optional[TreeNode]:
        """A walk from a pivot's loop entry, steered by the direction
        frequencies of the pivot's partition class.  The pivots are those
        the last ``prune_targets`` derived."""
        classes: dict[int, list[TreeNode]] = {}
        for node in self.pivots:
            classes.setdefault(node.id[UID], []).append(node)
        if not classes:
            return None
        max_bytes = self.tree.max_nbytes
        uid = self.rng.choice(sorted(classes))
        members = sorted(classes[uid], key=lambda n: iid_key(n, max_bytes))
        pivot = members[biased_index(len(members), self.rng)]
        path = self.tree.path(pivot)
        entries = sorted(detect_loops(path)[0], key=lambda n: -n.depth)
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
        prime_paths = [self.tree.path(n) for n in class_prime]
        counts = [direction_counts(p) for p in prime_paths]
        body_uids: set[int] = set()
        for prime_path in prime_paths:
            _, heads2bodies = detect_loops(prime_path)
            for body in heads2bodies.values():
                body_uids |= body
        domain: set[int] = set()
        for member in classes[uid]:
            domain.update(n.id[UID] for n in self.tree.path(member))
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
        """The session of the next (analysis, node) pair: a primary
        target, else the Monte Carlo walk's node; None, when neither
        yields one, means the whole fuzzing loop terminates."""
        self.prune_targets()
        node = self.select_primary_target()
        if node is None:
            node = self.monte_carlo_select()
        if node is None:
            return None
        if node.stage == 0:
            return SensitivitySession(
                self.tree.path(self._descend_for_sensitivity(node)))
        # a direction no trace has taken here, false if neither
        goal = bool(node.seen & 1)
        if node.stage == 1:
            return BitshareSession(node, goal, self.bitshare_store)
        variables = None if node.xor_flag else identify_typed_variables(
            node.best.bytes_read, node.best.type_tags, node.sensitive_bits)
        if variables:
            return TypedDescentSession(node, goal, self.rng, variables)
        return BinaryDescentSession(node, goal, self.rng)

    def finish(self, session: AnalysisSession) -> None:
        """Record the outcome of a deactivated session on its node and
        close what it closed.  A minimization ends at stage 3 whether or
        not it reached its goal; its ``achieving_input``, the input that
        observed its goal direction, becomes a bitshare donor."""
        node = session.node
        if session.kind == AnalysisKind.SENSITIVITY:
            self.register_examined(session.finish())
        elif session.kind == AnalysisKind.BITSHARE:
            node.stage = 2
        else:
            node.stage = 3
            if session.achieving_input is not None:
                self.bitshare_store.record(node.id[UID],
                                           session.goal_direction,
                                           session.achieving_input,
                                           node.sensitive_bits)
        self.propagate_closed(node)

    # -- closed flags -----------------------------------------------------

    def propagate_closed(self, start: TreeNode) -> None:
        """Re-evaluate the closed flag from ``start`` towards the root,
        stopping at the first node that remains non-closed.  This is the
        one writer of the flags, and it only sets them."""
        for node in reversed(self.tree.path(start)):
            if not (node.closed or closed_predicate(node)):
                break
            node.closed = True
