import math
import random

import pytest

from gradfuzz.exec_tree import ExecTree, TreeNode
from gradfuzz.generators import AnalysisKind
from gradfuzz.strategy import (
    Strategy,
    biased_index,
    class_prime_stats,
    compute_direction_probability,
    detect_loops,
    direction_counts,
    iid_key,
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
                     oracle_detect_loops)


def record(uid, direction, value, nbytes=1, ctx=0):
    return condition_record((uid, ctx), direction, value, False,
                            nbytes)


def map_all(tree, traces, termination=TerminationKind.NORMAL):
    for i, trace in enumerate(traces):
        n = max(r[NBYTES] for r in trace)
        tree.map_trace(ExecutionResult(
            termination, bytes(n), (TypeTag.UINT8,) * n, tuple(trace)), i)


def stub_node(uid=1, value=1.0, nbytes=1, depth=0, height=0,
              sensitivity_done=False, bits=()):
    node = TreeNode((uid, 0), None)
    node.depth = depth
    node.height = height
    node.sensitivity_done = sensitivity_done
    node.sensitive_bits = set(bits)
    node.best_trace = tuple(
        record(uid, True, value if d == depth else 0.0, nbytes)
        for d in range(depth + 1))
    return node


class TestOrderSU:
    def test_fewer_sensitive_bits_first(self):
        p = stub_node(sensitivity_done=True, bits=(0, 1))
        q = stub_node(sensitivity_done=True, bits=(0, 1, 2, 3, 4))
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
        p = stub_node(sensitivity_done=True, bits=(0,))
        q = stub_node()
        assert su_key(p, 64) < su_key(q, 64)

    def test_strict_weak_order_properties(self):
        rng = random.Random(13)
        nodes = [
            stub_node(uid=1, nbytes=rng.randrange(0, 40),
                      depth=rng.randrange(0, 4),
                      height=rng.randrange(0, 9),
                      sensitivity_done=rng.random() < 0.5,
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


class TestDetectLoops:
    def test_interleaved_repetition(self):
        uids = ["a", "b", "c", "b", "c", "d"]
        path = chain_from_uids(uids)
        loops, heads2bodies = detect_loops(path)
        assert len(loops) == 1
        # the exit instruction keys the body map; the boundary entry moves
        # back over the body to the first loop instruction
        assert loops[0].entry is path[1]
        assert loops[0].exit is path[4]
        assert loops[0].successor is path[5]
        assert heads2bodies == {"c": {"b"}}

    def test_no_repetition(self):
        path = chain_from_uids([1, 2, 3, 4])
        loops, heads2bodies = detect_loops(path)
        assert loops == []
        assert heads2bodies == {}

    def test_two_disjoint_loops(self):
        uids = [1, 2, 1, 5, 6, 5, 9]
        path = chain_from_uids(uids)
        loops, heads2bodies = detect_loops(path)
        assert len(loops) == 2
        assert heads2bodies == {1: {2}, 5: {6}}

    def test_self_loop_has_empty_body(self):
        path = chain_from_uids([7, 7, 7, 8])
        loops, heads2bodies = detect_loops(path)
        assert len(loops) == 1
        assert loops[0].entry is path[0]
        assert loops[0].exit is path[2]
        assert heads2bodies == {}

    def test_matches_oracle_on_random_paths(self):
        rng = random.Random(4)
        for _ in range(1000):
            length = rng.randrange(1, 31)
            alphabet = rng.randrange(1, 9)
            uids = [rng.randrange(alphabet) for _ in range(length)]
            path = chain_from_uids(uids)
            loops, heads2bodies = detect_loops(path)
            got = ([(l.entry.depth, l.exit.depth, l.successor.depth)
                    for l in loops],
                   {k: set(v) for k, v in heads2bodies.items()})
            want = oracle_detect_loops(uids)
            assert got == want
            # naive cross-checks on head/body structure
            for head, body in heads2bodies.items():
                positions = [i for i, u in enumerate(uids) if u == head]
                assert len(positions) >= 2
                for member in body:
                    inner = [i for i, u in enumerate(uids) if u == member]
                    assert any(positions[0] < i < positions[-1]
                               for i in inner)


class TestDetectLoopHeads:
    def _strategy(self):
        return Strategy(ExecTree(), random.Random(0))

    def test_nearby_sizes_share_a_bucket(self):
        strategy = self._strategy()
        path = chain_from_uids([1, 1])
        path[0].best_trace = (record(1, True, 1.0, nbytes=1000),)
        path[1].best_trace = (record(1, True, 1.0, nbytes=1000),
                              record(1, True, 1.0, nbytes=1004))
        inserted = strategy.detect_loop_heads(path, {1: {9}})
        assert len(inserted) == 1
        assert inserted[0] is path[0]

    def test_small_sizes_stay_distinct(self):
        strategy = self._strategy()
        path = chain_from_uids([1, 1])
        path[0].best_trace = (record(1, True, 1.0, nbytes=4),)
        path[1].best_trace = (record(1, True, 1.0, nbytes=4),
                              record(1, True, 1.0, nbytes=8))
        inserted = strategy.detect_loop_heads(path, {1: {9}})
        assert len(inserted) == 2

    def test_no_open_heads_inserts_nothing(self):
        strategy = self._strategy()
        path = chain_from_uids([1, 1])
        for node in path:
            node.covered = True
        assert strategy.detect_loop_heads(path, {1: set()}) == []

    def test_at_most_eleven_buckets(self):
        strategy = self._strategy()
        uids = [1] * 40
        path = chain_from_uids(uids)
        for i, node in enumerate(path):
            node.best_trace = tuple(record(1, True, 1.0, nbytes=1 + 27 * j)
                                    for j in range(i + 1))
        inserted = strategy.detect_loop_heads(path, {1: {2}})
        assert len(inserted) <= 11


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

    def test_loop_heads_take_precedence(self):
        tree = ExecTree()
        strategy = Strategy(tree, random.Random(0))
        node = stub_node()
        strategy.loop_heads.append(node)
        assert strategy.select_primary_target() is node
        assert strategy.loop_heads == []

    def test_scan_restart_prefers_discovered_head(self):
        # a while-loop shaped trace: selection from the untouched set
        # first scans the path, discovers the loop head, and restarts
        tree = ExecTree()
        head, body = 5, 6
        trace = [record(head, True, 1.0), record(body, True, 1.0),
                 record(head, True, 1.0), record(body, True, 1.0),
                 record(head, True, 1.0)]
        map_all(tree, [trace])
        strategy = Strategy(tree, random.Random(0))
        assert strategy.primary_candidates()
        selected = strategy.select_primary_target()
        assert selected.id[UID] == head
        assert selected.depth == 0

    def test_analyzed_candidate_beats_smaller_unanalyzed_one(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 1.0), record(2, True, 1.0)]])
        untouched = tree.root
        analyzed = untouched.true_succ
        analyzed.sensitivity_done = True
        analyzed.sensitive_bits = {0}
        for node in tree.nodes:
            node.loop_scanned = True
        assert su_key(untouched, 1)[1:] < su_key(analyzed, 1)[1:]
        strategy = Strategy(tree, random.Random(0))
        assert strategy.select_primary_target() is analyzed

    def test_twin_stays_first_while_its_scan_hands_out_a_head(self):
        # loop head 5 repeats along the twin's path; every node is either
        # covered or unanalysed at the pivot's location, so the twin is
        # the only primary target until its scan finds the head
        tree = ExecTree()
        map_all(tree, [[record(5, True, 1.0), record(6, True, 1.0),
                        record(5, True, 1.0), record(6, True, 1.0),
                        record(5, True, 1.0)]])
        path = tree.nodes[-1].path()
        for node in path:
            if node.id[UID] == 6:
                node.covered = True
        strategy = Strategy(tree, random.Random(0))
        strategy.pivots.append(stub_node(uid=5, value=9.0,
                                         sensitivity_done=True))
        twin = path[-1]
        strategy.twins.append(twin)
        assert strategy.primary_candidates() == []
        head = strategy.select_primary_target()
        assert head is path[0]
        assert strategy.twins == [twin]
        assert strategy.select_primary_target() is twin
        assert strategy.twins == []


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
        node.sensitivity_done = True
        node.sensitive_bits = {0, 1}
        strategy = Strategy(tree, random.Random(0))
        node.loop_scanned = True
        selection = strategy.select_analysis()
        assert selection.kind == AnalysisKind.BITSHARE
        assert selection.node is node
        assert selection.goal_direction is False

    def test_xor_flag_routes_to_plain_minimization(self):
        tree = ExecTree()
        trace = (condition_record((1, 0), True, 5.0, True, 1),)
        tree.map_trace(ExecutionResult(TerminationKind.NORMAL, b"\x00",
                                       (TypeTag.UINT8,), trace), 0)
        node = tree.root
        node.sensitivity_done = True
        node.bitshare_done = True
        node.sensitive_bits = {0, 1}
        node.loop_scanned = True
        strategy = Strategy(tree, random.Random(0))
        selection = strategy.select_analysis()
        assert selection.kind == AnalysisKind.MINIMIZATION

    def test_typed_when_variables_identified(self):
        tree = self._tree_with_root([[record(1, True, 5.0)]])
        node = tree.root
        node.sensitivity_done = True
        node.bitshare_done = True
        node.sensitive_bits = {0, 1}
        node.loop_scanned = True
        strategy = Strategy(tree, random.Random(0))
        selection = strategy.select_analysis()
        assert selection.kind == AnalysisKind.TYPED_MINIMIZATION

    def test_untyped_bits_route_to_plain_minimization(self):
        tree = ExecTree()
        trace = (record(1, True, 5.0),)
        tree.map_trace(ExecutionResult(
            TerminationKind.NORMAL, b"\x00", (TypeTag.UNTYPED8,), trace), 0)
        node = tree.root
        node.sensitivity_done = True
        node.bitshare_done = True
        node.sensitive_bits = {0, 1}
        node.loop_scanned = True
        strategy = Strategy(tree, random.Random(0))
        selection = strategy.select_analysis()
        assert selection.kind == AnalysisKind.MINIMIZATION

    def test_terminates_when_nothing_selectable(self):
        strategy = Strategy(ExecTree(), random.Random(0))
        assert strategy.select_analysis() is None


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
        pivot.sensitivity_done = True
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
        from gradfuzz.exec_tree import is_open
        for _ in range(50):
            node = strategy.monte_carlo_select()
            if node is not None:
                assert is_open(node)
                assert not node.closed

    def test_select_analysis_falls_back_to_monte_carlo(self):
        # primary sets are emptied: shallow nodes covered, the open node
        # at depth 3 shares the second pivot's id (excluded from the
        # untouched set) without a smaller |value| (not a twin)
        tree, pivot = self._pivot_tree()
        path = pivot.path()
        path[0].covered = True
        path[1].covered = True
        second_pivot = path[2]
        second_pivot.sensitivity_done = True
        strategy = Strategy(tree, ScriptedRng(randoms=[0.9, 0.9], seed=1))
        strategy.pivots.append(pivot)
        strategy.pivots.append(second_pivot)
        selection = strategy.select_analysis()
        assert selection is not None
        assert selection.kind == AnalysisKind.SENSITIVITY
        assert selection.node.depth >= 3


class TestRecovery:
    def _failed_node(self, tree):
        node = tree.root
        node.sensitivity_done = True
        node.bitshare_done = True
        node.minimization_done = True
        node.sensitive_bits = {0}
        return node

    def test_covered_record_is_dropped(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 1.0)], [record(1, False, 1.0)]])
        strategy = Strategy(tree, random.Random(0))
        node = self._failed_node(tree)
        strategy.record_failure(node)
        assert strategy.recover_nodes() == 0
        assert strategy.recovery_records == []

    def test_refreshed_best_triple_reopens(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 3.0)]])
        strategy = Strategy(tree, random.Random(0))
        node = self._failed_node(tree)
        strategy.record_failure(node)
        # a later, better execution refreshes the best triple
        tree.map_trace(ExecutionResult(
            TerminationKind.NORMAL, b"\x00", (TypeTag.UINT8,),
            (record(1, True, 1.5),)), 9)
        assert strategy.recover_nodes() == 1
        assert not node.sensitivity_done
        assert not node.bitshare_done
        assert not node.minimization_done
        strategy.prune_targets()
        assert node in strategy.primary_candidates()

    def test_stale_record_is_kept_but_not_reopened(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 3.0)]])
        strategy = Strategy(tree, random.Random(0))
        node = self._failed_node(tree)
        strategy.record_failure(node)
        assert strategy.recover_nodes() == 0
        assert len(strategy.recovery_records) == 1
        assert node.minimization_done

    def test_empty_records(self):
        strategy = Strategy(ExecTree(), random.Random(0))
        assert strategy.recover_nodes() == 0

    def test_selection_continues_after_recovery(self):
        # two-phase scenario: a failed minimization exhausts the tree,
        # then a refreshed best triple lets recovery hand out one more
        # session instead of terminating
        tree = ExecTree()
        map_all(tree, [[record(1, True, 3.0)]])
        strategy = Strategy(tree, random.Random(0))
        node = self._failed_node(tree)
        node.loop_scanned = True
        strategy.record_failure(node)
        tree.map_trace(ExecutionResult(
            TerminationKind.NORMAL, b"\x00", (TypeTag.UINT8,),
            (record(1, True, 1.5),)), 9)
        selection = strategy.select_analysis()
        assert selection is not None
        assert selection.kind == AnalysisKind.SENSITIVITY
        assert selection.node is node
        # with nothing recoverable left, selection terminates
        node.covered = True
        assert strategy.select_analysis() is None


class TestPruneTargets:
    def test_register_examined_adds_each_pivot_once(self):
        strategy = Strategy(ExecTree(), random.Random(0))
        pivot = stub_node(uid=5, sensitivity_done=True)
        direct = stub_node(uid=6, sensitivity_done=True, bits=(3,))
        strategy.register_examined([pivot, direct, pivot])
        strategy.register_examined([pivot])
        assert strategy.pivots == [pivot]

    def test_analyzed_node_stays_a_candidate(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 1.0)]])
        strategy = Strategy(tree, random.Random(0))
        node = tree.root
        assert strategy.primary_candidates() == [node]
        node.sensitivity_done = True
        node.sensitive_bits = {0}
        strategy.prune_targets()
        assert strategy.primary_candidates() == [node]

    def test_covered_node_leaves_loop_heads(self):
        tree = ExecTree()
        map_all(tree, [[record(1, True, 1.0)]])
        strategy = Strategy(tree, random.Random(0))
        strategy.loop_heads.append(tree.root)
        tree.map_trace(ExecutionResult(
            TerminationKind.NORMAL, b"\x00", (TypeTag.UINT8,),
            (record(1, False, 1.0),)), 1)
        strategy.prune_targets()
        assert strategy.loop_heads == []

    def test_twin_leaves_when_pivot_covered(self):
        tree = ExecTree()
        map_all(tree, [
            [record(1, True, 1.0), record(2, True, 5.0)],
            [record(1, False, 1.0), record(2, True, 2.0)],
        ])
        strategy = Strategy(tree, random.Random(0))
        pivot = tree.root.true_succ
        pivot.sensitivity_done = True
        strategy.pivots.append(pivot)
        strategy.prune_targets()
        twin = tree.root.false_succ
        assert twin in strategy.twins
        # covering the shared execution id retires pivot and twin alike
        tree.map_trace(ExecutionResult(
            TerminationKind.NORMAL, b"\x00\x00",
            (TypeTag.UINT8, TypeTag.UINT8),
            (record(1, False, 1.0), record(2, False, 2.0))), 5)
        strategy.prune_targets()
        assert twin not in strategy.twins
        assert len(strategy.pivots) == 0

    def test_pivot_location_excluded_from_untouched(self):
        tree = ExecTree()
        map_all(tree, [
            [record(1, True, 1.0), record(2, True, 5.0)],
            [record(1, False, 1.0), record(2, True, 9.0)],
        ])
        strategy = Strategy(tree, random.Random(0))
        pivot = tree.root.true_succ
        pivot.sensitivity_done = True
        strategy.pivots.append(pivot)
        strategy.prune_targets()
        other = tree.root.false_succ
        # |9.0| > |5.0|: not a twin
        assert other not in strategy.primary_candidates()
        assert other not in strategy.twins
