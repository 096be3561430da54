import gc
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradfuzz.exec_tree import (
    ExecTree,
    TreeMappingError,
    TreeNode,
    closed_predicate,
    is_indirectly_input_dependent,
    is_open,
)
from gradfuzz.fuzz_loop import FuzzBudget, FuzzEngine, FuzzOptions
from gradfuzz.generators import SensitivitySession
from gradfuzz.minivm import parse_program
from gradfuzz.target_abi import (
    ID,
    NBYTES,
    UID,
    ExecutionResult,
    TerminationKind,
    TypeTag,
    wire_decode,
    wire_encode,
)
from helpers import condition_record, dump, id_covered, \
    is_directly_input_dependent, path_weight, traced_result, uid_covered

BENCH = Path(__file__).parent.parent / "benchmarks"

def record(uid, direction, value, nbytes=1, ctx=0, xor=False):
    return condition_record((uid, ctx), direction, value, xor, nbytes)


def result_for(records, termination=TerminationKind.NORMAL, data=b"\x00",
               tags=(TypeTag.UINT8,)):
    return ExecutionResult(termination, data, tuple(tags), tuple(records))


class TestPathWeight:
    def test_two_components(self):
        trace = (record(1, True, 3.0), record(2, True, -4.0))
        assert path_weight(trace, 1) == 25.0

    def test_zero(self):
        assert path_weight((record(1, True, 0.0),), 0) == 0.0

    def test_infinite_component(self):
        trace = (record(1, True, math.inf), record(2, True, 1.0))
        assert path_weight(trace, 1) == math.inf


class TestMapTrace:
    def test_two_record_trace_builds_root_and_child(self):
        tree = ExecTree()
        trace = (record(1, True, 5.0), record(2, False, 2.0, nbytes=2))
        tree.map_trace(result_for(trace, data=b"\x00\x00",
                                  tags=(TypeTag.UINT8, TypeTag.UINT8)))
        root = tree.root
        assert root.seen == 0b10  # true taken, false not
        child = root.true_succ
        assert child is not None
        assert child.seen == 0b01
        assert child.depth == 1

    @pytest.mark.parametrize("termination", list(TerminationKind),
                             ids=lambda kind: kind.name)
    def test_the_last_direction_is_seen_whatever_the_termination(
            self, termination):
        for direction in (False, True):
            tree = ExecTree()
            tree.map_trace(result_for(
                (record(1, True, 1.0), record(2, direction, 1.0)),
                termination))
            assert tree.root.seen == 0b10
            last = tree.root.true_succ
            assert last.seen == 1 << direction
            assert last.false_succ is None and last.true_succ is None

    def test_end_label_upgrades_to_visited_with_child(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0),),
                                  TerminationKind.CRASH))
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 2.0))))
        assert tree.root.seen == 0b10
        assert tree.root.true_succ is not None

    def test_labels_never_downgrade(self):
        tree = ExecTree()
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 2.0))))
        tree.map_trace(result_for((record(1, True, 1.0),),
                                  TerminationKind.CRASH))
        assert tree.root.seen == 0b10
        assert tree.root.true_succ.seen == 0b10
        tree.map_trace(result_for((record(1, False, 1.0),),
                                  TerminationKind.TIMEOUT))
        assert tree.root.seen == 0b11
        assert tree.root.true_succ.seen == 0b10

    def test_best_triple_keeps_smaller_weight(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 3.0),), data=b"\x03"))
        lighter = result_for((record(1, True, -2.0),), data=b"\x02")
        tree.map_trace(lighter)
        assert tree.root.best_weight == 4.0
        assert tree.root.best.bytes_read == b"\x02"
        assert tree.root.best is lighter
        tree.map_trace(result_for((record(1, True, 2.5),), data=b"\x07"))
        assert tree.root.best.bytes_read == b"\x02"

    def test_new_node_takes_first_trace_at_infinite_weight(self):
        tree = ExecTree()
        trace = (record(1, True, math.inf), record(2, False, 1.0))
        first = result_for(trace)
        tree.map_trace(first)
        child = tree.root.true_succ
        assert tree.root.value == math.inf
        assert child.value == 1.0
        assert child.best.trace == trace
        # non-root new nodes below a prefix of weight +inf: the existing
        # node keeps its trace, the new ones take this one
        second = (record(1, True, 2.0), record(2, True, math.inf),
                  record(3, False, 1.0), record(4, True, 1.0))
        second_result = result_for(second, data=b"\x02")
        tree.map_trace(second_result)
        root = tree.root
        mid = root.true_succ
        assert root.best.trace == second and root.best_weight == 4.0
        assert mid.best.trace == trace and mid.best is first
        leaf = mid.true_succ
        for node in (leaf, leaf.false_succ):
            assert node.best_weight == math.inf
            assert node.best.trace == second
            assert node.best.bytes_read == b"\x02"
            assert node.best.type_tags == (TypeTag.UINT8,)
            assert node.best is second_result
        # the first finite weight replaces it
        third = (record(1, True, 0.0), record(2, True, 0.0),
                 record(3, True, 0.5))
        third_result = result_for(third, data=b"\x03")
        tree.map_trace(third_result)
        assert leaf.best.trace == third and leaf.best_weight == 0.25
        assert leaf.best.bytes_read == b"\x03" and leaf.best is third_result

    def test_seen_is_an_untracked_small_int(self):
        rng = random.Random(12)
        tree = ExecTree()
        for _ in range(200):
            trace = tuple(record(depth + 1, rng.random() < 0.5, 1.0)
                          for depth in range(rng.randrange(1, 7)))
            termination = rng.choice(list(TerminationKind))
            tree.map_trace(result_for(trace, termination))
        for node in tree.nodes:
            assert type(node.seen) is int and 1 <= node.seen <= 3
            assert not gc.is_tracked(node.seen)
        assert TreeNode((1, 0), 0, traced_result()).seen == 0

    def test_ids_records_and_traces_leave_the_collector(self):
        # the layout a tree of thousands of nodes relies on: once
        # collected, the collector tracks a node and its best result,
        # which the nodes a trace created share, and none of its ids,
        # records and traces, and no container of its successors.  A
        # collection untracks a tuple only when its items are untracked
        # already, and it may visit a tuple before its items, so a fresh
        # trace (ids in records in a tuple) can take three collections
        program = parse_program((BENCH / "counted_loop.mc").read_text())
        engine = FuzzEngine(program, FuzzBudget(max_executions=200),
                            FuzzOptions(seed=1))
        engine.run()
        last = engine.tree.nodes[-1].best.trace
        decoded = wire_decode(wire_encode(ExecutionResult(
            TerminationKind.NORMAL, b"", (), last)))
        for _ in range(3):
            gc.collect()
        assert len(engine.tree.nodes) > 10
        for node in engine.tree.nodes:
            assert not gc.is_tracked(node.id)
            assert not gc.is_tracked(node.best.trace)
            for rec in node.best.trace:
                assert not gc.is_tracked(rec[ID])
                assert not gc.is_tracked(rec)
            assert not any(isinstance(ref, (list, dict, set))
                           for ref in gc.get_referents(node))
        assert len({id(node.best) for node in engine.tree.nodes}) < len(
            engine.tree.nodes)
        assert not gc.is_tracked(decoded.trace)
        assert not any(map(gc.is_tracked, decoded.trace))
        assert {"false_succ", "true_succ"} <= set(TreeNode.__slots__)
        assert "successor" not in TreeNode.__slots__

    def test_empty_trace_is_ignored(self):
        tree = ExecTree()
        new_pairs = tree.map_trace(result_for((), data=b"", tags=()))
        assert tree.root is None
        assert new_pairs == []

    def test_id_mismatch_raises(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0),)))
        with pytest.raises(TreeMappingError):
            tree.map_trace(result_for((record(9, True, 1.0),)))

    def test_id_mismatch_names_the_record_index(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0), record(2, True, 1.0),
                                   record(3, False, 1.0))))
        message = ("trace record 2 has id (9, 0), tree node has (3, 0); "
                   "target looks nondeterministic")
        with pytest.raises(TreeMappingError, match=re.escape(message)):
            tree.map_trace(result_for((record(1, True, 1.0),
                                       record(2, True, 1.0),
                                       record(9, True, 1.0))))

    def test_max_nbytes_is_the_largest_over_mapped_traces(self):
        rng = random.Random(8)
        tree = ExecTree()
        largest = 0
        for _ in range(300):
            nbytes = rng.randrange(0, 4)
            trace = []
            for depth in range(rng.randrange(1, 6)):
                nbytes += rng.randrange(0, 3)
                trace.append(record(depth + 1, rng.random() < 0.5, 1.0,
                                    nbytes=nbytes))
            tree.map_trace(result_for(tuple(trace)))
            largest = max([largest] + [rec[NBYTES] for rec in trace])
            assert tree.max_nbytes == largest

    def test_coverage_tracked_per_execution_id(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0, ctx=5),)))
        tree.map_trace(result_for((record(1, False, 1.0, ctx=5),)))
        assert tree.root.covered
        assert uid_covered(tree, 1)
        assert id_covered(tree, (1, 5))

    def test_coverage_spans_nodes_sharing_id(self):
        # two tree positions of the same execution id cover together
        tree = ExecTree()
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 5.0, ctx=1),
             record(2, True, 4.0, ctx=1))))
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 5.0, ctx=1),
             record(2, False, 4.0, ctx=1))))
        nodes = [n for n in tree.nodes if n.id[UID] == 2]
        assert len(nodes) == 2
        assert all(n.covered for n in nodes)

    def test_covered_nodes_still_update_on_a_better_deeper_trace(self):
        tree = ExecTree()
        for trace in ((record(1, True, 5.0), record(2, True, 5.0)),
                      (record(1, False, 5.0),),
                      (record(1, True, 5.0), record(2, False, 5.0))):
            tree.map_trace(result_for(trace))
        root = tree.root
        mid = root.true_succ
        assert root.covered and mid.covered
        assert root.height == 1 and tree.max_nbytes == 1
        # deeper and lighter, every id already covered: uid 2 repeats
        trace = (record(1, True, 1.0), record(2, True, 1.0),
                 record(2, False, 1.0, nbytes=3))
        deeper = result_for(trace, data=b"\x00" * 3,
                            tags=(TypeTag.UINT8,) * 3)
        new_pairs = tree.map_trace(deeper)
        assert new_pairs == []
        leaf = mid.true_succ
        assert leaf.covered
        for node, weight in ((root, 1.0), (mid, 2.0), (leaf, 3.0)):
            assert node.best_weight == weight
            assert node.best.trace == trace
            assert node.best.bytes_read == b"\x00" * 3
            assert node.best is deeper
            assert node.height == 2
        # mid saw both directions, in the first and third traces
        assert mid.seen == 0b11
        assert leaf.seen == 0b01
        assert tree.max_nbytes == 3

    def test_label_state_order_independent(self):
        base = [
            (TerminationKind.NORMAL,
             (record(1, True, 1.0), record(2, False, 2.0))),
            (TerminationKind.CRASH, (record(1, False, 3.0),)),
            (TerminationKind.NORMAL,
             (record(1, True, 1.0), record(2, True, 2.0),
              record(3, True, 0.5, ctx=4))),
            (TerminationKind.TIMEOUT, (record(1, True, 9.0),)),
        ]
        rng = random.Random(11)
        reference = None
        for _ in range(20):
            order = base[:]
            rng.shuffle(order)
            tree = ExecTree()
            for termination, trace in order:
                tree.map_trace(result_for(trace, termination))
            snapshot = _seen_snapshot(tree.root)
            if reference is None:
                reference = snapshot
            assert snapshot == reference
        assert reference == _seen_from_traces(trace for _, trace in base)

    def test_height_matches_full_recomputation(self):
        rng = random.Random(5)
        tree = ExecTree()
        for _ in range(200):
            length = rng.randrange(1, 8)
            trace = []
            for depth in range(length):
                trace.append(record(depth + 1, rng.random() < 0.5,
                                    rng.uniform(-5, 5), nbytes=1))
            tree.map_trace(result_for(tuple(trace)))

        def subtree_max_depth(node):
            best = node.depth
            for succ in (node.false_succ, node.true_succ):
                if succ is not None:
                    best = max(best, subtree_max_depth(succ))
            return best

        for node in tree.nodes:
            assert node.height == subtree_max_depth(node)

    def test_best_weight_never_increases(self):
        rng = random.Random(6)
        tree = ExecTree()
        highs = {}
        for _ in range(300):
            trace = []
            for depth in range(rng.randrange(1, 5)):
                trace.append(record(depth + 1, rng.random() < 0.5,
                                    rng.choice((-3.0, 1.0, 4.0, 0.5))))
            tree.map_trace(result_for(tuple(trace)))
            for node in tree.nodes:
                prev = highs.get(id(node), math.inf)
                assert node.best_weight <= prev
                highs[id(node)] = node.best_weight


def assert_same_tree(a: ExecTree, b: ExecTree) -> None:
    """``a`` and ``b``, built from the same results, hold the same nodes,
    in the same order, with the same state, and saw the same pairs."""
    assert a.max_nbytes == b.max_nbytes
    assert a.id_directions == b.id_directions
    assert a.uid_directions == b.uid_directions
    assert ({rid: len(nodes) for rid, nodes in a.nodes_by_id.items()}
            == {rid: len(nodes) for rid, nodes in b.nodes_by_id.items()})
    assert ([(n.id, n.depth) for n in a.nodes]
            == [(n.id, n.depth) for n in b.nodes])
    pairs = [(a.root, b.root)]
    while pairs:
        x, y = pairs.pop()
        assert (x is None) == (y is None)
        if x is None:
            continue
        assert ((x.id, x.depth, x.seen, x.best_weight, x.height, x.covered)
                == (y.id, y.depth, y.seen, y.best_weight, y.height,
                    y.covered))
        assert x.best is y.best
        pairs += [(x.false_succ, y.false_succ), (x.true_succ, y.true_succ)]


# a step of a synthetic target: direction, branching value, bytes read
STEPS = st.tuples(st.booleans(),
                  st.sampled_from((0.0, -0.0, 1.0, -2.5, 1e200, math.inf)),
                  st.integers(0, 2))


def synthetic_trace(steps, nbytes=0):
    """The records of a deterministic synthetic target: the id at a
    position is a function of the directions before it, shared by other
    positions, so that ids repeat and get covered across the tree."""
    records = []
    taken = 0
    for depth, (direction, value, read) in enumerate(steps):
        nbytes += read
        uid = 1 + (7 * depth + 3 * taken) % 5
        records.append(record(uid, direction, value, nbytes=nbytes,
                              ctx=depth % 2))
        taken += direction
    return tuple(records)


def root_path(tree: ExecTree, trace) -> list[TreeNode]:
    """The nodes a mapped ``trace`` runs through."""
    node = tree.root
    path = [node]
    for rec in trace[:-1]:
        node = node.true_succ if rec[1] else node.false_succ
        path.append(node)
    return path


class TestAnchoredAndFreshWalks:
    """The two shortcuts of ``map_trace``: a walk anchored past a prefix
    the trace shares with a mapped trace, and the loop that builds the
    nodes of a trace's fresh suffix."""

    @settings(max_examples=300, deadline=None)
    @given(history=st.lists(st.lists(STEPS, min_size=1, max_size=12),
                            max_size=6),
           base=st.lists(STEPS, min_size=1, max_size=12),
           suffix=st.lists(STEPS, max_size=12),
           data=st.data())
    def test_an_anchored_walk_leaves_the_full_walks_tree(
            self, history, base, suffix, data):
        k = data.draw(st.integers(0, len(base) - 1))
        results = [result_for(synthetic_trace(steps))
                   for steps in history + [base]]
        base_trace = results[-1].trace
        # the trace repeats the base's first k records, then goes its own
        # way; the synthetic target gives it the ids it must have
        trace = synthetic_trace(base[:k] + suffix)
        assert trace[:k] == base_trace[:k]
        if not trace:
            return
        result = result_for(trace)
        anchored, full = ExecTree(), ExecTree()
        for tree in (anchored, full):
            for mapped in results:
                tree.map_trace(mapped)
        weight = path_weight(base_trace, k - 1) if k else 0.0
        new_pairs = anchored.map_trace(
            result, (root_path(anchored, base_trace), k, weight))
        assert new_pairs == full.map_trace(result)
        assert_same_tree(anchored, full)

    def test_a_trace_ending_one_record_after_leaving_the_tree(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0),
                                   record(2, True, 2.0, nbytes=2))))
        result = result_for((record(1, True, 1.0),
                             record(2, False, 2.0, nbytes=2),
                             record(3, True, -3.0, nbytes=5)))
        assert tree.map_trace(result) == [(2, False), (3, True)]
        mid = tree.root.true_succ
        leaf = mid.false_succ
        assert mid.seen == 0b11 and mid.height == 2
        assert tree.root.height == 2
        assert (leaf.id, leaf.depth, leaf.seen, leaf.height) == (
            (3, 0), 2, 0b10, 2)
        assert leaf.best is result and leaf.best_weight == 14.0
        assert leaf.false_succ is leaf.true_succ is None
        assert not leaf.covered
        assert tree.nodes[-1] is leaf and tree.nodes_by_id[(3, 0)] == [leaf]
        assert tree.max_nbytes == 5

    def test_a_fresh_infinite_value_keeps_infinite_weights(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0),)))
        result = result_for((record(1, False, 1.0), record(2, True, math.inf),
                             record(3, True, 0.0)))
        tree.map_trace(result)
        first = tree.root.false_succ
        second = first.true_succ
        for node in (first, second):
            assert node.best_weight == math.inf and node.best is result
        # the first finite weight there replaces it
        lighter = result_for((record(1, False, 1.0), record(2, True, 1.0)))
        tree.map_trace(lighter)
        assert first.best_weight == 2.0 and first.best is lighter
        assert second.best is result

    def test_a_fresh_record_of_a_covered_id(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0),
                                   record(2, True, 1.0))))
        tree.map_trace(result_for((record(1, True, 1.0),
                                   record(2, False, 1.0))))
        assert id_covered(tree, (2, 0))
        # a fresh node of the covered id is covered when it is built, and
        # the record it maps shows nothing new
        new_pairs = tree.map_trace(result_for((record(1, False, 1.0),
                                               record(2, True, 1.0))))
        assert new_pairs == [(1, False)]
        fresh = tree.root.false_succ
        assert fresh.covered
        assert tree.nodes_by_id[(2, 0)][-1] is fresh
        assert all(node.covered for node in tree.nodes_by_id[(2, 0)])

    def test_a_fresh_suffix_covers_its_own_repeated_id(self):
        # the suffix's second record of id 2 covers it, and with it the
        # suffix's first node of that id
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0),)))
        tree.map_trace(result_for((record(1, False, 1.0),
                                   record(2, True, 1.0),
                                   record(2, False, 1.0),
                                   record(3, True, 1.0))))
        first = tree.root.false_succ
        second = first.true_succ
        assert first.covered and second.covered
        assert not second.false_succ.covered


class TestSessionAnchor:
    """``SensitivitySession.anchor`` places the walk of a flip's trace
    only past a prefix it has compared with the path's."""

    DEPTH = 40  # records on the path, one byte read before each

    def setup_method(self):
        self.base = tuple(record(i + 1, True, 1.0, nbytes=i + 1)
                          for i in range(self.DEPTH))
        first = self.result(self.base)
        self.tree, self.full = ExecTree(), ExecTree()
        self.tree.map_trace(first)
        self.full.map_trace(first)
        deepest = self.tree.nodes[-1]
        self.session = SensitivitySession(self.tree.path(deepest))
        assert self.session.anchored
        # pend the first flip of byte 20: the path's first 20 records
        # were read before it
        while self.session.next_input()[20] == 0:
            self.session.feed(self.result(self.base))

    def result(self, trace):
        return result_for(trace, data=bytes(self.DEPTH),
                          tags=(TypeTag.UINT8,) * self.DEPTH)

    def changed(self, position, uid=None, direction=True, value=1.0):
        """The path's records, with the one at ``position`` changed."""
        trace = list(self.base)
        trace[position] = record(uid or position + 1, direction, value,
                                 nbytes=position + 1)
        return trace

    def test_a_repeated_prefix_anchors_the_walk(self):
        trace = tuple(self.changed(25, value=3.0))
        anchor = self.session.anchor(trace)
        assert anchor is not None
        path, k, weight = anchor
        assert path == self.session.path_nodes and k == 20
        assert weight == path_weight(self.base, 19)
        result = self.result(trace)
        assert (self.tree.map_trace(result, anchor)
                == self.full.map_trace(result))
        assert_same_tree(self.tree, self.full)
        self.session.feed(result)
        assert self.session.raw_marks == {25: {160}}

    def test_an_id_changed_in_the_prefix_fails_as_the_full_walk(self):
        trace = tuple(self.changed(5, uid=99))
        assert self.session.anchor(trace) is None
        message = ("trace record 5 has id (99, 0), tree node has (6, 0); "
                   "target looks nondeterministic")
        with pytest.raises(TreeMappingError, match=re.escape(message)):
            self.tree.map_trace(self.result(trace), None)

    def test_a_value_changed_in_the_prefix_walks_the_whole_trace(self):
        trace = tuple(self.changed(5, value=3.0))
        assert self.session.anchor(trace) is None
        result = self.result(trace)
        assert (self.tree.map_trace(result, None)
                == self.full.map_trace(result))
        assert_same_tree(self.tree, self.full)

    def test_feed_walks_from_the_start_without_a_verified_prefix(self):
        # the trace leaves the path at record 5, so the change at 25 marks
        # nothing; a walk from k = 20 would mark it
        trace = self.changed(5, direction=False)
        trace[25] = self.changed(25, value=3.0)[25]
        leaving = self.result(tuple(trace))
        self.tree.map_trace(leaving)
        # after a flip whose trace was anchored, another one comes from
        # the read-prefix memo, which maps nothing
        self.session.anchor(self.base)
        self.session.feed(self.result(self.base))
        self.session.next_input()
        self.session.feed(leaving)
        # and one whose prefix fails the comparison
        self.session.next_input()
        assert self.session.anchor(leaving.trace) is None
        self.session.feed(leaving)
        assert self.session.raw_marks == {}


def test_sensitivity_finish_leaves_other_nodes_bits_alone():
    tree = ExecTree()
    tree.map_trace(result_for((record(1, True, 1.0), record(2, False, 1.0))))
    tree.map_trace(result_for((record(1, False, 1.0), record(3, True, 1.0))))
    root = tree.root
    node, sibling = root.true_succ, root.false_succ
    session = SensitivitySession(tree.path(node))
    session.raw_marks = {1: {3}}
    session.region_marks = {0: {9}}
    session.finish()
    assert root.sensitive_bits == {9}
    assert node.sensitive_bits == set(range(8))
    assert sibling.sensitive_bits == set()
    assert TreeNode((4, 0), 0, traced_result()).sensitive_bits == set()


def _seen_snapshot(node, path=()):
    """{directions from the root: (uid, seen)} over the subtree."""
    snapshot = {path: (node.id[UID], node.seen)}
    for direction, succ in ((False, node.false_succ),
                            (True, node.true_succ)):
        if succ is not None:
            snapshot.update(_seen_snapshot(succ, path + (direction,)))
    return snapshot


def _seen_from_traces(traces):
    """The snapshot from the traces alone: after each distinct prefix of
    directions, the uid there and the directions taken."""
    snapshot = {}
    for trace in traces:
        for i, (rid, direction, _, _, _) in enumerate(trace):
            path = tuple(rec[1] for rec in trace[:i])
            uid, seen = snapshot.get(path, (rid[UID], 0))
            snapshot[path] = (uid, seen | 1 << direction)
    return snapshot


def _make_leaf(uid=1, seen=0, sensitivity_done=False, bits=(),
               covered=False):
    node = TreeNode((uid, 0), 0, traced_result((record(uid, True, 1.0),)))
    node.seen = seen
    node.sensitivity_done = sensitivity_done
    node.sensitive_bits = set(bits)
    node.covered = covered
    return node


class TestClassify:
    """Input dependency (DID/IID) and openness of a node."""

    def test_fresh_node_open_neither(self):
        node = _make_leaf()
        assert is_open(node)
        assert not is_directly_input_dependent(node)
        assert not is_indirectly_input_dependent(node)

    def test_iid_leaf_not_open(self):
        node = _make_leaf(seen=0b10, sensitivity_done=True, bits=())
        assert is_indirectly_input_dependent(node)
        assert not is_directly_input_dependent(node)
        assert not is_open(node)
        assert closed_predicate(node)  # no visited successor to check

    def test_fully_analyzed_with_closed_children(self):
        parent = _make_leaf(uid=1, seen=0b11, sensitivity_done=True,
                            bits=(0, 1))
        parent.bitshare_done = True
        parent.minimization_done = True
        for b in (False, True):
            child = _make_leaf(uid=2, seen=0b11)
            child.sensitivity_done = True
            child.closed = True
            if b:
                parent.true_succ = child
            else:
                parent.false_succ = child
        assert is_directly_input_dependent(parent)
        assert not is_indirectly_input_dependent(parent)
        assert not is_open(parent)
        assert closed_predicate(parent)

    def test_did_iid_mutually_exclusive(self):
        rng = random.Random(3)
        for _ in range(100):
            node = _make_leaf(sensitivity_done=rng.random() < 0.5,
                              bits=tuple(range(rng.randrange(0, 3))))
            did = is_directly_input_dependent(node)
            iid = is_indirectly_input_dependent(node)
            assert not (did and iid)
            assert (did or iid) == node.sensitivity_done


class TestPath:
    def test_every_node_of_a_fuzzed_scanner_tree(self):
        # the tree holds no parent links: each root path is rebuilt from
        # the directions of the node's best trace
        program = parse_program(
            (BENCH.parent / "bench/targets/scanner.mc").read_text())
        engine = FuzzEngine(program, FuzzBudget(max_executions=600),
                            FuzzOptions(seed=5))
        engine.run()
        tree = engine.tree
        assert len(tree.nodes) > 1000
        for node in tree.nodes:
            path = tree.path(node)
            assert path[0] is tree.root
            assert path[-1] is node
            assert len(path) == node.depth + 1
            for above, below in zip(path, path[1:]):
                assert below is above.false_succ or below is above.true_succ


class TestPropagateClosed:
    def _chain(self):
        # root -(True)-> mid -(True)-> leaf, every edge taken
        tree = ExecTree()
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 1.0),
             record(3, True, 1.0))))
        tree.map_trace(result_for((record(1, False, 1.0),)))
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, False, 1.0))))
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 1.0),
             record(3, False, 1.0))))
        return tree

    def test_chain_closes_to_root(self):
        tree = self._chain()
        for node in tree.nodes:
            node.sensitivity_done = True  # IID everywhere: nothing open
        leaf = tree.root.true_succ.true_succ
        tree.propagate_closed(leaf)
        assert leaf.closed
        assert tree.root.closed

    def test_propagation_stops_at_open_node(self):
        # like _chain but the root's false edge stays unvisited, so the
        # root is open and propagation must stop there
        tree = ExecTree()
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 1.0),
             record(3, True, 1.0))))
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, False, 1.0))))
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 1.0),
             record(3, False, 1.0))))
        leaf = tree.root.true_succ.true_succ
        leaf.sensitivity_done = True
        mid = tree.root.true_succ
        mid.sensitivity_done = True
        tree.propagate_closed(leaf)
        assert leaf.closed
        assert mid.closed
        assert not tree.root.closed

    def test_root_open_stops_immediately(self):
        tree = self._chain()
        tree.propagate_closed(tree.root)
        assert not tree.root.closed

    def test_reopen_clears_stale_ancestors(self):
        tree = self._chain()
        for node in tree.nodes:
            node.sensitivity_done = True
        leaf = tree.root.true_succ.true_succ
        tree.propagate_closed(leaf)
        assert tree.root.closed
        tree.reopen(leaf)
        leaf.sensitivity_done = False
        assert not leaf.closed
        assert not tree.root.closed


class TestDump:
    def test_golden(self):
        tree = ExecTree()
        tree.map_trace(result_for(
            (record(1, True, 5.0), record(2, False, -2.0, nbytes=1,
                                          ctx=3))))
        expected = (
            "0 uid=1 ctx=00000000 seen=-T f=5.0 "
            "nbytes=1 -----\n"
            "1 uid=2 ctx=00000003 seen=F- f=-2.0 "
            "nbytes=1 -----"
        )
        assert dump(tree) == expected
