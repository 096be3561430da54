import gc
import math
import random
import re
from pathlib import Path

import pytest

from gradfuzz.exec_tree import (
    EdgeLabel,
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
from helpers import condition_record, dump, is_directly_input_dependent, \
    path_weight, uid_covered

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
                                  tags=(TypeTag.UINT8, TypeTag.UINT8)), 0)
        root = tree.root
        assert root.label[True] == EdgeLabel.VISITED
        assert root.label[False] == EdgeLabel.NOT_VISITED
        child = root.true_succ
        assert child is not None
        assert child.label[False] == EdgeLabel.END_NORMAL
        assert child.depth == 1

    def test_crash_labels_end_exceptional(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0),),
                                  TerminationKind.CRASH), 0)
        assert tree.root.label[True] == EdgeLabel.END_EXCEPTIONAL

    def test_end_label_upgrades_to_visited_with_child(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0),),
                                  TerminationKind.CRASH), 0)
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 2.0))), 1)
        assert tree.root.label[True] == EdgeLabel.VISITED
        assert tree.root.true_succ is not None

    def test_labels_never_downgrade(self):
        tree = ExecTree()
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 2.0))), 0)
        tree.map_trace(result_for((record(1, True, 1.0),),
                                  TerminationKind.CRASH), 1)
        assert tree.root.label[True] == EdgeLabel.VISITED

    def test_timeout_counts_as_normal_end(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, False, 1.0),),
                                  TerminationKind.TIMEOUT), 0)
        assert tree.root.label[False] == EdgeLabel.END_NORMAL

    def test_best_triple_keeps_smaller_weight(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 3.0),), data=b"\x03"), 0)
        tree.map_trace(result_for((record(1, True, -2.0),), data=b"\x02"), 1)
        assert tree.root.best_weight == 4.0
        assert tree.root.best_input == b"\x02"
        assert tree.root.best_iter == 1
        tree.map_trace(result_for((record(1, True, 2.5),), data=b"\x07"), 2)
        assert tree.root.best_input == b"\x02"

    def test_new_node_takes_first_trace_at_infinite_weight(self):
        tree = ExecTree()
        trace = (record(1, True, math.inf), record(2, False, 1.0))
        tree.map_trace(result_for(trace), 0)
        child = tree.root.true_succ
        assert tree.root.value == math.inf
        assert child.value == 1.0
        assert child.best_trace == trace
        # non-root new nodes below a prefix of weight +inf: the existing
        # node keeps its trace, the new ones take this one
        second = (record(1, True, 2.0), record(2, True, math.inf),
                  record(3, False, 1.0), record(4, True, 1.0))
        tree.map_trace(result_for(second, data=b"\x02"), 1)
        root = tree.root
        mid = root.true_succ
        assert root.best_trace == second and root.best_weight == 4.0
        assert mid.best_trace == trace and mid.best_iter == 0
        leaf = mid.true_succ
        for node in (leaf, leaf.false_succ):
            assert node.best_weight == math.inf
            assert node.best_trace == second
            assert node.best_input == b"\x02"
            assert node.best_tags == (TypeTag.UINT8,)
            assert node.best_iter == 1
        # the first finite weight replaces it
        third = (record(1, True, 0.0), record(2, True, 0.0),
                 record(3, True, 0.5))
        tree.map_trace(result_for(third, data=b"\x03"), 2)
        assert leaf.best_trace == third and leaf.best_weight == 0.25
        assert leaf.best_input == b"\x03" and leaf.best_iter == 2

    def test_labels_are_untracked_int_pairs(self):
        rng = random.Random(12)
        tree = ExecTree()
        for i in range(200):
            trace = tuple(record(depth + 1, rng.random() < 0.5, 1.0)
                          for depth in range(rng.randrange(1, 7)))
            termination = rng.choice(list(TerminationKind))
            tree.map_trace(result_for(trace, termination), i)
        gc.collect()
        for node in tree.nodes:
            assert type(node.label) is tuple and len(node.label) == 2
            assert all(type(label) is int for label in node.label)
            # a tuple of ints leaves the collector's lists once collected
            assert not gc.is_tracked(node.label)
        # labelling allocates nothing: equal pairs are one object
        assert len({id(node.label) for node in tree.nodes}) == len(
            {node.label for node in tree.nodes})
        # nodes never labelled share one pair
        fresh = [TreeNode((uid, 0), None) for uid in (1, 2)]
        assert fresh[0].label is fresh[1].label
        assert fresh[0].label == (EdgeLabel.NOT_VISITED,
                                  EdgeLabel.NOT_VISITED)

    def test_ids_records_and_traces_leave_the_collector(self):
        # the layout a tree of thousands of nodes relies on: once
        # collected, the collector tracks a node itself and none of its
        # ids, records and traces, and no container of its successors.  A
        # collection untracks a tuple only when its items are untracked
        # already, and it may visit a tuple before its items, so a fresh
        # trace (ids in records in a tuple) can take three collections
        program = parse_program((BENCH / "counted_loop.mc").read_text())
        engine = FuzzEngine(program, FuzzBudget(max_executions=200),
                            FuzzOptions(seed=1))
        engine.run()
        last = engine.tree.nodes[-1].best_trace
        decoded = wire_decode(wire_encode(ExecutionResult(
            TerminationKind.NORMAL, b"", (), last)))
        for _ in range(3):
            gc.collect()
        assert len(engine.tree.nodes) > 10
        for node in engine.tree.nodes:
            assert not gc.is_tracked(node.id)
            assert not gc.is_tracked(node.best_trace)
            for rec in node.best_trace:
                assert not gc.is_tracked(rec[ID])
                assert not gc.is_tracked(rec)
            assert not any(isinstance(ref, (list, dict, set))
                           for ref in gc.get_referents(node))
        assert not gc.is_tracked(decoded.trace)
        assert not any(map(gc.is_tracked, decoded.trace))
        assert {"false_succ", "true_succ"} <= set(TreeNode.__slots__)
        assert "successor" not in TreeNode.__slots__

    def test_empty_trace_is_ignored(self):
        tree = ExecTree()
        new_pairs = tree.map_trace(result_for((), data=b"", tags=()), 0)
        assert tree.root is None
        assert new_pairs == []

    def test_id_mismatch_raises(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0),)), 0)
        with pytest.raises(TreeMappingError):
            tree.map_trace(result_for((record(9, True, 1.0),)), 1)

    def test_id_mismatch_names_the_record_index(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0), record(2, True, 1.0),
                                   record(3, False, 1.0))), 0)
        message = ("trace record 2 has id (9, 0), tree node has (3, 0); "
                   "target looks nondeterministic")
        with pytest.raises(TreeMappingError, match=re.escape(message)):
            tree.map_trace(result_for((record(1, True, 1.0),
                                       record(2, True, 1.0),
                                       record(9, True, 1.0))), 1)

    def test_max_nbytes_is_the_largest_over_mapped_traces(self):
        rng = random.Random(8)
        tree = ExecTree()
        largest = 0
        for i in range(300):
            nbytes = rng.randrange(0, 4)
            trace = []
            for depth in range(rng.randrange(1, 6)):
                nbytes += rng.randrange(0, 3)
                trace.append(record(depth + 1, rng.random() < 0.5, 1.0,
                                    nbytes=nbytes))
            tree.map_trace(result_for(tuple(trace)), i)
            largest = max([largest] + [rec[NBYTES] for rec in trace])
            assert tree.max_nbytes == largest

    def test_coverage_tracked_per_execution_id(self):
        tree = ExecTree()
        tree.map_trace(result_for((record(1, True, 1.0, ctx=5),)), 0)
        tree.map_trace(result_for((record(1, False, 1.0, ctx=5),)), 1)
        assert tree.root.covered
        assert uid_covered(tree, 1)
        assert tree.id_covered((1, 5))

    def test_coverage_spans_nodes_sharing_id(self):
        # two tree positions of the same execution id cover together
        tree = ExecTree()
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 5.0, ctx=1),
             record(2, True, 4.0, ctx=1))), 0)
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 5.0, ctx=1),
             record(2, False, 4.0, ctx=1))), 1)
        nodes = [n for n in tree.nodes if n.id[UID] == 2]
        assert len(nodes) == 2
        assert all(n.covered for n in nodes)

    def test_covered_nodes_still_update_on_a_better_deeper_trace(self):
        tree = ExecTree()
        for i, trace in enumerate((
                (record(1, True, 5.0), record(2, True, 5.0)),
                (record(1, False, 5.0),),
                (record(1, True, 5.0), record(2, False, 5.0)))):
            tree.map_trace(result_for(trace), i)
        root = tree.root
        mid = root.true_succ
        assert root.covered and mid.covered
        assert root.height == 1 and tree.max_nbytes == 1
        # deeper and lighter, every id already covered: uid 2 repeats
        trace = (record(1, True, 1.0), record(2, True, 1.0),
                 record(2, False, 1.0, nbytes=3))
        new_pairs = tree.map_trace(result_for(
            trace, data=b"\x00" * 3, tags=(TypeTag.UINT8,) * 3), 3)
        assert new_pairs == []
        leaf = mid.true_succ
        assert leaf.covered
        for node, weight in ((root, 1.0), (mid, 2.0), (leaf, 3.0)):
            assert node.best_weight == weight
            assert node.best_trace == trace
            assert node.best_input == b"\x00" * 3
            assert node.best_iter == 3
            assert node.height == 2
        assert mid.label[True] == EdgeLabel.VISITED
        assert leaf.label[False] == EdgeLabel.END_NORMAL
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
            for i, (termination, trace) in enumerate(order):
                tree.map_trace(result_for(trace, termination), i)
            snapshot = _label_snapshot(tree.root)
            if reference is None:
                reference = snapshot
            assert snapshot == reference

    def test_height_matches_full_recomputation(self):
        rng = random.Random(5)
        tree = ExecTree()
        for i in range(200):
            length = rng.randrange(1, 8)
            trace = []
            for depth in range(length):
                trace.append(record(depth + 1, rng.random() < 0.5,
                                    rng.uniform(-5, 5), nbytes=1))
            tree.map_trace(result_for(tuple(trace)), i)

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
        for i in range(300):
            trace = []
            for depth in range(rng.randrange(1, 5)):
                trace.append(record(depth + 1, rng.random() < 0.5,
                                    rng.choice((-3.0, 1.0, 4.0, 0.5))))
            tree.map_trace(result_for(tuple(trace)), i)
            for node in tree.nodes:
                prev = highs.get(id(node), math.inf)
                assert node.best_weight <= prev
                highs[id(node)] = node.best_weight


def test_sensitivity_finish_leaves_other_nodes_bits_alone():
    tree = ExecTree()
    tree.map_trace(result_for((record(1, True, 1.0), record(2, False, 1.0))),
                   0)
    tree.map_trace(result_for((record(1, False, 1.0), record(3, True, 1.0))),
                   1)
    root = tree.root
    node, sibling = root.true_succ, root.false_succ
    session = SensitivitySession(node)
    session.raw_marks = {1: {3}}
    session.region_marks = {0: {9}}
    session.finish()
    assert root.sensitive_bits == {9}
    assert node.sensitive_bits == set(range(8))
    assert sibling.sensitive_bits == set()
    assert TreeNode((4, 0), None).sensitive_bits == set()


def _label_snapshot(node):
    if node is None:
        return None
    return (node.id[UID], node.label[0], node.label[1],
            _label_snapshot(node.false_succ),
            _label_snapshot(node.true_succ))


def _make_leaf(uid=1, labels=(EdgeLabel.NOT_VISITED, EdgeLabel.NOT_VISITED),
               sensitivity_done=False, bits=(), covered=False):
    node = TreeNode((uid, 0), None)
    node.label = tuple(map(int, labels))
    node.sensitivity_done = sensitivity_done
    node.sensitive_bits = set(bits)
    node.covered = covered
    node.best_trace = (record(uid, True, 1.0),)
    return node


class TestClassify:
    """Input dependency (DID/IID) and openness of a node."""

    def test_fresh_node_open_neither(self):
        node = _make_leaf()
        assert is_open(node)
        assert not is_directly_input_dependent(node)
        assert not is_indirectly_input_dependent(node)

    def test_iid_leaf_not_open(self):
        node = _make_leaf(labels=(EdgeLabel.NOT_VISITED,
                                  EdgeLabel.END_NORMAL),
                          sensitivity_done=True, bits=())
        assert is_indirectly_input_dependent(node)
        assert not is_directly_input_dependent(node)
        assert not is_open(node)
        assert closed_predicate(node)  # no visited successor to check

    def test_fully_analyzed_with_closed_children(self):
        parent = _make_leaf(uid=1, labels=(EdgeLabel.VISITED,
                                           EdgeLabel.VISITED),
                            sensitivity_done=True, bits=(0, 1))
        parent.bitshare_done = True
        parent.minimization_done = True
        for b in (False, True):
            child = _make_leaf(uid=2, labels=(EdgeLabel.END_NORMAL,
                                              EdgeLabel.END_NORMAL))
            child.sensitivity_done = True
            child.closed = True
            if b:
                parent.true_succ = child
            else:
                parent.false_succ = child
            child.parent = parent
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


class TestPropagateClosed:
    def _chain(self):
        # root -(True)-> mid -(True)-> leaf, other edges END_NORMAL
        tree = ExecTree()
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 1.0),
             record(3, True, 1.0))), 0)
        tree.map_trace(result_for((record(1, False, 1.0),)), 1)
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, False, 1.0))), 2)
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 1.0),
             record(3, False, 1.0))), 3)
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
             record(3, True, 1.0))), 0)
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, False, 1.0))), 1)
        tree.map_trace(result_for(
            (record(1, True, 1.0), record(2, True, 1.0),
             record(3, False, 1.0))), 2)
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
                                          ctx=3))), 0)
        expected = (
            "0 uid=1 ctx=00000000 labels=NOT_VISITED/VISITED f=5.0 "
            "nbytes=1 -----\n"
            "1 uid=2 ctx=00000003 labels=END_NORMAL/NOT_VISITED f=-2.0 "
            "nbytes=1 -----"
        )
        assert dump(tree) == expected
