import math
import random

import pytest

from gradfuzz.exec_tree import ExecTree, TreeNode
from gradfuzz.generators import AnalysisKind, SensitivitySession
from gradfuzz.strategy import (
    Strategy,
    biased_index,
    class_prime_stats,
    closed_predicate,
    compute_direction_probability,
    detect_loops,
    direction_counts,
    heads_on_path,
    iid_key,
    is_indirectly_input_dependent,
    is_open,
    su_key,
)
from gradfuzz.target_abi import (
    NBYTES,
    UID,
    ExecutionResult,
    TerminationKind,
    TypeTag,
)
from helpers import (ScriptedRng, chain_from_uids, condition_record,
                     is_directly_input_dependent, oracle_detect_loops,
                     traced_result)


def record(uid, direction, value, nbytes=1, ctx=0):
    return condition_record((uid, ctx), direction, value, False,
                            nbytes)


def map_all(tree, traces, termination=TerminationKind.NORMAL):
    for trace in traces:
        n = max(r[NBYTES] for r in trace)
        tree.map_trace(ExecutionResult(
            termination, bytes(n), (TypeTag.UINT8,) * n, tuple(trace)))


def stub_node(uid=1, value=1.0, nbytes=1, depth=0, height=0,
              stage=0, bits=(), seen=0):
    node = TreeNode((uid, 0), depth, traced_result(
        record(uid, True, value if d == depth else 0.0, nbytes)
        for d in range(depth + 1)), seen=seen)
    node.height = height
    node.stage = stage
    node.sensitive_bits = set(bits)
    return node


class TestOrderSU:
    def test_fewer_sensitive_bits_first(self):
        p = stub_node(stage=1, bits=(0, 1))
        q = stub_node(stage=1, bits=(0, 1, 2, 3, 4))
        assert su_key(p, 64) < su_key(q, 64)

    def test_center_bias(self):
        p = stub_node(nbytes=30)
        q = stub_node(nbytes=4)
        assert su_key(p, 64) < su_key(q, 64)    # |32-32| < |32-4|

    def test_height_breaks_final_tie(self):
        p = stub_node(height=7)
        q = stub_node(height=3)
        assert su_key(p, 64) < su_key(q, 64)

    def test_analyzed_before_unanalyzed(self):
        p = stub_node(stage=1, bits=(0,))
        q = stub_node()
        assert su_key(p, 64) < su_key(q, 64)

    def test_strict_weak_order_properties(self):
        rng = random.Random(13)
        nodes = [
            stub_node(uid=1, nbytes=rng.randrange(0, 40),
                      depth=rng.randrange(0, 4),
                      height=rng.randrange(0, 9),
                      stage=int(rng.random() < 0.5),
                      bits=tuple(range(rng.randrange(0, 5))))
            for _ in range(40)
        ]
        for key in (su_key, iid_key):
            def order(a, b, max_bytes):
                return key(a, max_bytes) < key(b, max_bytes)

            for a in nodes[:20]:
                assert not order(a, a, 64)
            for a in nodes:
                for b in nodes:
                    assert not (order(a, b, 64) and order(b, a, 64))
            for a in nodes[:12]:
                for b in nodes[:12]:
                    for c in nodes[:12]:
                        if order(a, b, 64) and order(b, c, 64):
                            assert order(a, c, 64)
                        equal_ab = not order(a, b, 64) and not order(b, a, 64)
                        equal_bc = not order(b, c, 64) and not order(c, b, 64)
                        if equal_ab and equal_bc:
                            assert not order(a, c, 64) and not order(c, a, 64)


class TestOrderIID:
    def test_smaller_branching_value_first(self):
        p = stub_node(value=2.0)
        q = stub_node(value=-9.0)
        assert iid_key(p, 64) < iid_key(q, 64)

    def test_center_bias_with_large_inputs(self):
        p = stub_node(value=5.0, nbytes=1000)
        q = stub_node(value=5.0, nbytes=8)
        assert iid_key(p, 2000) < iid_key(q, 2000)  # 1024 is the center

    def test_depth_breaks_final_tie(self):
        p = stub_node(depth=3)
        q = stub_node(depth=5)
        assert iid_key(p, 64) < iid_key(q, 64)


class TestBiasedIndex:
    def test_single_element(self):
        rng = random.Random(0)
        assert all(biased_index(1, rng) == 0 for _ in range(100))

    def test_two_elements_probabilities(self):
        rng = random.Random(1)
        draws = [biased_index(2, rng) for _ in range(40_000)]
        p0 = draws.count(0) / len(draws)
        assert abs(p0 - 0.75) < 0.01

    def test_three_element_distribution_chi_squared(self):
        rng = random.Random(2)
        n = 100_000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[biased_index(3, rng)] += 1
        expected = [0.75 * n, 0.1875 * n, 0.0625 * n]
        chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
        p_value = math.exp(-chi2 / 2)  # survival function, 2 dof
        assert p_value > 0.01


def _entry_depths_and_bodies(entries, heads2bodies):
    return ([n.depth for n in entries],
            {k: set(v) for k, v in heads2bodies.items()})


def _oracle_entry_depths_and_bodies(uids):
    loops, bodies = oracle_detect_loops(uids)
    return [entry for entry, _, _ in loops], bodies


class TestDetectLoops:
    def test_interleaved_repetition(self):
        uids = ["a", "b", "c", "b", "c", "d"]
        path = chain_from_uids(uids)
        entries, heads2bodies = detect_loops(path)
        # the exit instruction keys the body map; the entry moves back
        # over the body to the first loop instruction
        assert entries == [path[1]]
        assert heads2bodies == {"c": {"b"}}
        assert _entry_depths_and_bodies(entries, heads2bodies) \
            == _oracle_entry_depths_and_bodies(uids)

    def test_no_repetition(self):
        path = chain_from_uids([1, 2, 3, 4])
        entries, heads2bodies = detect_loops(path)
        assert entries == []
        assert heads2bodies == {}

    def test_two_disjoint_loops(self):
        uids = [1, 2, 1, 5, 6, 5, 9]
        path = chain_from_uids(uids)
        entries, heads2bodies = detect_loops(path)
        assert len(entries) == 2
        assert heads2bodies == {1: {2}, 5: {6}}

    def test_self_loop_has_empty_body(self):
        uids = [7, 7, 7, 8]
        path = chain_from_uids(uids)
        entries, heads2bodies = detect_loops(path)
        assert entries == [path[0]]
        assert heads2bodies == {}
        assert _entry_depths_and_bodies(entries, heads2bodies) \
            == _oracle_entry_depths_and_bodies(uids)

    def test_matches_oracle_on_random_paths(self):
        rng = random.Random(4)
        for _ in range(1000):
            length = rng.randrange(1, 31)
            alphabet = rng.randrange(1, 9)
            uids = [rng.randrange(alphabet) for _ in range(length)]
            path = chain_from_uids(uids)
            entries, heads2bodies = detect_loops(path)
            assert _entry_depths_and_bodies(entries, heads2bodies) \
                == _oracle_entry_depths_and_bodies(uids)
            # naive cross-checks on head/body structure
            for head, body in heads2bodies.items():
                positions = [i for i, u in enumerate(uids) if u == head]
                assert len(positions) >= 2
                for member in body:
                    inner = [i for i, u in enumerate(uids) if u == member]
                    assert any(positions[0] < i < positions[-1]
                               for i in inner)


def sized_chain(uids, sizes):
    """chain_from_uids, with the record at depth i reading sizes[i]
    bytes."""
    path = chain_from_uids(uids)
    for i, node in enumerate(path):
        node.best = traced_result(record(uids[j], True, 1.0, sizes[j])
                                  for j in range(i + 1))
    return path


class TestHeadsOnPath:
    def test_nearby_sizes_share_a_bucket(self):
        path = sized_chain([1, 9, 1], [1000, 1002, 1004])
        assert heads_on_path(path) == [path[0]]

    def test_small_sizes_stay_distinct(self):
        path = sized_chain([1, 9, 1], [4, 6, 8])
        assert heads_on_path(path) == [path[0], path[2]]

    def test_only_eligible_heads(self):
        # the fewest reads, then the shallowest, of the eligible heads:
        # a finished, a covered and a both-ways node are passed over
        path = chain_from_uids([1, 9, 1, 9, 1])
        assert heads_on_path(path) == [path[0]]
        path[0].stage = 3
        assert heads_on_path(path) == [path[2]]
        path[2].covered = True
        assert heads_on_path(path) == [path[4]]
        path[4].seen = 3
        assert heads_on_path(path) == []

    def test_self_loop_is_no_head(self):
        assert heads_on_path(chain_from_uids([1, 1, 1])) == []

    def test_at_most_eleven_buckets(self):
        uids = [1, 2] * 20
        path = sized_chain(uids, [1 + 27 * j for j in range(len(uids))])
        assert 1 < len(heads_on_path(path)) <= 11


class TestDirectionProbability:
    def test_extrapolation_example(self):
        stats = [(1.0, 0.6), (3.0, 0.3)]
        assert compute_direction_probability(stats) == pytest.approx(0.75)

    def test_single_pivot_falls_back_to_its_frequency(self):
        assert compute_direction_probability([(2.0, 0.25)]) == 0.25

    def test_loop_body_mixes_half(self):
        assert compute_direction_probability([(2.0, 1.0)], True) == \
            pytest.approx(0.75)

    def test_clamped_to_unit_interval(self):
        stats = [(1.0, 1.0), (1.5, 0.0)]
        assert 0.0 <= compute_direction_probability(stats) <= 1.0

    def test_unknown_everywhere_defaults_to_half(self):
        assert compute_direction_probability([(1.0, None)]) == 0.5

    def test_stats_from_paths(self):
        path = chain_from_uids([3, 3, 4], directions=[True, False])
        counts = direction_counts(path)
        assert counts == {3: [1, 1]}
        stats = class_prime_stats([path[2]], [counts], 3)
        assert stats == [(1.0, 0.5)]
        assert class_prime_stats([path[2]], [counts], 4) == [(1.0, None)]


class TestSelectPrimaryTarget:
    def test_all_empty_returns_none(self):
        strategy = Strategy(ExecTree(), random.Random(0))
        assert strategy.select_primary_target() is None

    def _loop_tree(self):
        # a while-loop shaped trace: head 5 and body 6 twice, head 5
        # again, then 7, which is analysed and so the smallest candidate
        tree = ExecTree()
        map_all(tree, [[record(uid, True, 1.0)
                        for uid in (5, 6, 5, 6, 5, 7)]])
        path = tree.path(tree.nodes[-1])
        best = path[-1]
        best.stage = 1
        best.sensitive_bits = {0}
        strategy = Strategy(tree, random.Random(0))
        assert min(strategy.primary_candidates(),
                   key=lambda n: su_key(n, 1)) is best
        return strategy, path

    def test_head_on_best_path_replaces_best(self):
        strategy, path = self._loop_tree()
        assert strategy.select_primary_target() is path[0]

    def test_open_head_is_handed_out_again(self):
        # a head that an analysis left open comes back on the next call;
        # a finished or a covered one gives way to the next head, and
        # with none left the smallest candidate is returned
        strategy, path = self._loop_tree()
        head = path[0]
        assert strategy.select_primary_target() is head
        head.stage = 1
        head.sensitive_bits = {0, 1}
        assert strategy.select_primary_target() is head
        head.stage = 3
        assert strategy.select_primary_target() is path[2]
        path[2].covered = True
        assert strategy.select_primary_target() is path[4]
        path[4].stage = 3
        assert strategy.select_primary_target() is path[5]

    def test_analyzed_candidate_beats_smaller_unanalyzed_one(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 1.0), record(2, True, 1.0)]])
        untouched = tree.root
        analyzed = untouched.true_succ
        analyzed.stage = 1
        analyzed.sensitive_bits = {0}
        assert su_key(untouched, 1)[1:] < su_key(analyzed, 1)[1:]
        strategy = Strategy(tree, random.Random(0))
        assert strategy.select_primary_target() is analyzed


class TestSelectAnalysis:
    def _tree_with_root(self, trace_sets):
        tree = ExecTree()
        map_all(tree, trace_sets)
        return tree

    def test_sensitivity_descends_same_nbytes_higher_subtree(self):
        tree = self._tree_with_root([
            [record(1, True, 1.0, nbytes=1), record(2, True, 1.0, nbytes=1),
             record(3, True, 1.0, nbytes=1), record(4, True, 1.0, nbytes=1)],
            [record(1, False, 1.0, nbytes=1), record(5, True, 1.0,
                                                     nbytes=2)],
        ])
        strategy = Strategy(tree, random.Random(0))
        selection = strategy.select_analysis()
        assert selection.kind == AnalysisKind.SENSITIVITY
        # the false child reads more bytes, so the descent walks the true
        # chain to its deepest same-size node
        assert selection.node.id[UID] == 4

    def test_bitshare_after_sensitivity(self):
        tree = self._tree_with_root([[record(1, True, 5.0)]])
        node = tree.root
        node.stage = 1
        node.sensitive_bits = {0, 1}
        strategy = Strategy(tree, random.Random(0))
        selection = strategy.select_analysis()
        assert selection.kind == AnalysisKind.BITSHARE
        assert selection.node is node
        assert selection.goal_direction is False

    def test_xor_flag_routes_to_plain_minimization(self):
        tree = ExecTree()
        trace = (condition_record((1, 0), True, 5.0, True, 1),)
        tree.map_trace(ExecutionResult(TerminationKind.NORMAL, b"\x00",
                                       (TypeTag.UINT8,), trace))
        node = tree.root
        node.stage = 2
        node.sensitive_bits = {0, 1}
        strategy = Strategy(tree, random.Random(0))
        selection = strategy.select_analysis()
        assert selection.kind == AnalysisKind.MINIMIZATION

    def test_typed_when_variables_identified(self):
        tree = self._tree_with_root([[record(1, True, 5.0)]])
        node = tree.root
        node.stage = 2
        node.sensitive_bits = {0, 1}
        strategy = Strategy(tree, random.Random(0))
        selection = strategy.select_analysis()
        assert selection.kind == AnalysisKind.TYPED_MINIMIZATION

    def test_untyped_bits_route_to_plain_minimization(self):
        tree = ExecTree()
        trace = (record(1, True, 5.0),)
        tree.map_trace(ExecutionResult(
            TerminationKind.NORMAL, b"\x00", (TypeTag.UNTYPED8,), trace))
        node = tree.root
        node.stage = 2
        node.sensitive_bits = {0, 1}
        strategy = Strategy(tree, random.Random(0))
        selection = strategy.select_analysis()
        assert selection.kind == AnalysisKind.MINIMIZATION

    def test_terminates_when_nothing_selectable(self):
        strategy = Strategy(ExecTree(), random.Random(0))
        assert strategy.select_analysis() is None


class TestFinish:
    def _minimization(self, stage=2):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 3.0)]])
        node = tree.root
        node.stage = stage
        node.sensitive_bits = {0, 1}
        strategy = Strategy(tree, random.Random(0))
        session = strategy.select_analysis()
        assert session.node is node
        assert session.goal_direction is False
        return tree, strategy, session

    def test_failed_minimization_stays_finished(self):
        # a minimization that never observed its goal ends at stage 3
        # and closes its node; a later, lighter trace that refreshes the
        # node's best result gives selection nothing more to hand out
        tree, strategy, session = self._minimization()
        node = session.node
        strategy.finish(session)
        assert node.stage == 3
        assert node.closed
        assert strategy.bitshare_store.lookup(1, False) is None
        lighter = ExecutionResult(TerminationKind.NORMAL, b"\x00",
                                  (TypeTag.UINT8,), (record(1, True, 1.5),))
        tree.map_trace(lighter)
        assert node.best is lighter
        assert strategy.select_analysis() is None
        assert node.stage == 3
        assert node.closed

    def test_achieved_minimization_records_a_bitshare_donor(self):
        _, strategy, session = self._minimization()
        session.achieving_input = b"\x40"
        strategy.finish(session)
        assert session.node.stage == 3
        assert strategy.bitshare_store.lookup(1, False) == (0, 1)

    def test_bitshare_hands_its_node_on_to_minimization(self):
        # bitshare ends at stage 2 with the node still open, so the next
        # selection minimizes the same node towards the same goal
        _, strategy, session = self._minimization(stage=1)
        assert session.kind == AnalysisKind.BITSHARE
        node = session.node
        strategy.finish(session)
        assert node.stage == 2
        assert not node.closed
        selection = strategy.select_analysis()
        assert selection.node is node
        assert selection.kind == AnalysisKind.TYPED_MINIMIZATION
        assert selection.goal_direction is False

    def test_sensitivity_pass_never_lowers_a_stage(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 1.0), record(2, True, 1.0),
                        record(3, True, 1.0)]])
        path = tree.path(tree.nodes[-1])
        for node, stage in zip(path, (3, 0, 2)):
            node.stage = stage
        Strategy(tree, random.Random(0)).finish(SensitivitySession(path))
        assert [n.stage for n in path] == [3, 1, 2]

    def test_insensitive_pass_closes_its_path(self):
        # no flip moved a branch: each node is indirectly input dependent,
        # nothing is left open, and the flags close from the leaf up
        tree = ExecTree()
        map_all(tree, [[record(1, True, 1.0), record(2, True, 1.0)]])
        path = tree.path(tree.nodes[-1])
        Strategy(tree, random.Random(0)).finish(SensitivitySession(path))
        assert [(n.stage, n.closed) for n in path] == [(1, True), (1, True)]


class TestMonteCarlo:
    def _pivot_tree(self):
        tree = ExecTree()
        trace = [record(1, True, 1.0), record(2, True, 1.0),
                 record(3, True, 1.0), record(3, False, 1.0),
                 record(4, False, 2.5)]
        map_all(tree, [trace])
        pivot = tree.root
        for _ in range(4):
            pivot = (pivot.true_succ if pivot.true_succ
                     else pivot.false_succ)
        pivot.stage = 1
        return tree, pivot

    def test_empty_store_returns_none(self):
        strategy = Strategy(ExecTree(), random.Random(0))
        assert strategy.monte_carlo_select() is None

    def test_closed_root_returns_none(self):
        tree, pivot = self._pivot_tree()
        tree.root.closed = True
        strategy = Strategy(tree, random.Random(0))
        strategy.pivots.append(pivot)
        assert strategy.monte_carlo_select() is None

    def test_walk_returns_open_node_off_the_pivot_path(self):
        tree, pivot = self._pivot_tree()
        strategy = Strategy(tree, ScriptedRng(randoms=[0.9, 0.9]))
        strategy.pivots.append(pivot)
        selected = strategy.monte_carlo_select()
        # entry at depth 2; both walk draws exceed F = 0.5, steering true:
        # from 3@2 into 3@3 whose true edge is unexplored and open
        assert selected is not None
        assert selected.id[UID] == 3
        assert selected.depth == 3

    def test_never_returns_closed_or_exhausted_nodes(self):
        tree, pivot = self._pivot_tree()
        strategy = Strategy(tree, random.Random(3))
        strategy.pivots.append(pivot)
        for _ in range(50):
            node = strategy.monte_carlo_select()
            if node is not None:
                assert is_open(node)
                assert not node.closed

    def test_select_analysis_falls_back_to_monte_carlo(self):
        # no primary candidate is left: shallow nodes covered, and the
        # open node at depth 3 shares the second pivot's id, which keeps
        # it out of the untouched set
        tree, pivot = self._pivot_tree()
        path = tree.path(pivot)
        path[0].covered = True
        path[1].covered = True
        second_pivot = path[2]
        second_pivot.stage = 1
        strategy = Strategy(tree, ScriptedRng(randoms=[0.9, 0.9], seed=1))
        selection = strategy.select_analysis()
        assert selection is not None
        assert selection.kind == AnalysisKind.SENSITIVITY
        assert selection.node.depth >= 3


class TestPruneTargets:
    def test_pivots_are_the_uncovered_iid_nodes_in_tree_order(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 1.0), record(2, True, 1.0),
                        record(3, True, 1.0), record(4, True, 1.0)]])
        first, direct, covered, last = tree.path(tree.nodes[-1])
        strategy = Strategy(tree, random.Random(0))
        strategy.register_examined([last, covered, direct, first, last])
        assert [n.stage for n in tree.nodes] == [1, 1, 1, 1]
        direct.sensitive_bits = {3}
        covered.covered = True
        assert strategy.pivots == []
        strategy.prune_targets()
        assert strategy.pivots == [first, last]

    def test_analyzed_node_stays_a_candidate(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 1.0)]])
        strategy = Strategy(tree, random.Random(0))
        node = tree.root
        assert strategy.primary_candidates() == [node]
        node.stage = 1
        node.sensitive_bits = {0}
        strategy.prune_targets()
        assert strategy.primary_candidates() == [node]

    def test_pivot_leaves_when_covered(self):
        tree = ExecTree()
        map_all(tree, [
            [record(1, True, 1.0), record(2, True, 5.0)],
            [record(1, False, 1.0), record(2, True, 2.0)],
        ])
        strategy = Strategy(tree, random.Random(0))
        pivot = tree.root.true_succ
        pivot.stage = 1
        strategy.prune_targets()
        assert strategy.pivots == [pivot]
        # covering the pivot's execution id retires it
        tree.map_trace(ExecutionResult(
            TerminationKind.NORMAL, b"\x00\x00",
            (TypeTag.UINT8, TypeTag.UINT8),
            (record(1, False, 1.0), record(2, False, 2.0))))
        strategy.prune_targets()
        assert strategy.pivots == []

    def test_pivot_location_excluded_from_untouched(self):
        tree = ExecTree()
        map_all(tree, [
            [record(1, True, 1.0), record(2, True, 5.0)],
            [record(1, False, 1.0), record(2, True, 9.0)],
        ])
        strategy = Strategy(tree, random.Random(0))
        pivot = tree.root.true_succ
        pivot.stage = 1
        strategy.prune_targets()
        other = tree.root.false_succ
        assert other not in strategy.primary_candidates()


class TestClassify:
    """Input dependency (DID/IID) and openness of a node."""

    def test_fresh_node_open_neither(self):
        node = stub_node()
        assert is_open(node)
        assert not is_directly_input_dependent(node)
        assert not is_indirectly_input_dependent(node)

    def test_iid_leaf_not_open(self):
        node = stub_node(seen=0b10, stage=1, bits=())
        assert is_indirectly_input_dependent(node)
        assert not is_directly_input_dependent(node)
        assert not is_open(node)
        assert closed_predicate(node)  # no visited successor to check

    def test_fully_analyzed_with_closed_children(self):
        parent = stub_node(uid=1, seen=0b11, stage=3, bits=(0, 1))
        for b in (False, True):
            child = stub_node(uid=2, seen=0b11, stage=1)
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
            node = stub_node(stage=int(rng.random() < 0.5),
                              bits=tuple(range(rng.randrange(0, 3))))
            did = is_directly_input_dependent(node)
            iid = is_indirectly_input_dependent(node)
            assert not (did and iid)
            assert (did or iid) == (node.stage > 0)


class TestPropagateClosed:
    def _chain(self):
        # root -(True)-> mid -(True)-> leaf, every edge taken
        tree = ExecTree()
        map_all(tree, [
            [record(1, True, 1.0), record(2, True, 1.0),
             record(3, True, 1.0)],
            [record(1, False, 1.0)],
            [record(1, True, 1.0), record(2, False, 1.0)],
            [record(1, True, 1.0), record(2, True, 1.0),
             record(3, False, 1.0)],
        ])
        return tree, Strategy(tree, random.Random(0))

    def test_chain_closes_to_root(self):
        tree, strategy = self._chain()
        for node in tree.nodes:
            node.stage = 1  # IID everywhere: nothing open
        leaf = tree.root.true_succ.true_succ
        strategy.propagate_closed(leaf)
        assert leaf.closed
        assert tree.root.closed

    def test_propagation_stops_at_open_node(self):
        # like _chain but the root's false edge stays unvisited, so the
        # root is open and propagation must stop there
        tree = ExecTree()
        map_all(tree, [
            [record(1, True, 1.0), record(2, True, 1.0),
             record(3, True, 1.0)],
            [record(1, True, 1.0), record(2, False, 1.0)],
            [record(1, True, 1.0), record(2, True, 1.0),
             record(3, False, 1.0)],
        ])
        leaf = tree.root.true_succ.true_succ
        leaf.stage = 1
        mid = tree.root.true_succ
        mid.stage = 1
        Strategy(tree, random.Random(0)).propagate_closed(leaf)
        assert leaf.closed
        assert mid.closed
        assert not tree.root.closed

    def test_root_open_stops_immediately(self):
        tree, strategy = self._chain()
        strategy.propagate_closed(tree.root)
        assert not tree.root.closed
