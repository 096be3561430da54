import math
import random

import numpy
import pytest

from gradfuzz.exec_tree import ExecTree, is_indirectly_input_dependent
from gradfuzz.fuzz_loop import FuzzBudget, FuzzOptions, run_fuzzing
from gradfuzz.generators import (
    AnalysisSession,
    BinaryDescentSession,
    BitshareSession,
    BitshareStore,
    SensitivitySession,
    TypedDescentSession,
    binary_seeds,
    bitshare_compose,
    identify_typed_variables,
    lambda_step,
    typed_seed_value,
)
from gradfuzz.minivm import parse_program
from gradfuzz.target_abi import (
    CTX,
    DIRECTION,
    ID,
    NBYTES,
    UID,
    VALUE,
    XOR_FLAG,
    ExecutionResult,
    TerminationKind,
    TypeTag,
    get_bit,
)
from helpers import (ScriptedRng, bootstrap_tree, condition_record,
                     drive_session, is_directly_input_dependent)

SENSE_PAIR = """
int main() {
  char c = nondet_char();
  c = c & 7;
  bool bi0 = ((c ^ 7) * (c ^ 1)) != 0;
  bool bi1 = c > 2;
  return 0;
}
"""


class TestSensitivity:
    def _run_pair_session(self):
        program, tree, executor = bootstrap_tree(SENSE_PAIR)
        deep = (tree.root.true_succ if tree.root.best_trace[0][DIRECTION]
                else tree.root.false_succ)
        session = SensitivitySession(deep)
        outcome = drive_session(session, executor, tree, stop_at_goal=False)
        assert outcome == "exhausted"
        session.finish()
        return tree, session

    def test_worked_example_marks(self):
        tree, session = self._run_pair_session()
        bi0 = tree.root
        bi1 = session.node
        assert sorted(session.raw_marks[bi0.depth]) == [5, 6, 7]
        assert sorted(session.raw_marks[bi1.depth]) == [5, 6]
        assert sorted(bi1.sensitive_bits) == list(range(8))
        assert bi0.sensitivity_done and bi1.sensitivity_done

    def test_constant_branching_value_yields_iid(self):
        src = """
        int main() {
          char c = nondet_char();
          bool b = (c & 0) == 0;
          bool tail = c > 200;
          return 0;
        }
        """
        program, tree, executor = bootstrap_tree(src)
        node = tree.root
        session = SensitivitySession(node)
        drive_session(session, executor, tree, stop_at_goal=False)
        session.finish()
        assert node.sensitive_bits == set()
        assert is_indirectly_input_dependent(node)
        assert not is_directly_input_dependent(node)

    def test_marks_are_byte_closed(self):
        tree, session = self._run_pair_session()
        for node in tree.nodes:
            for s in node.sensitive_bits:
                byte = s // 8
                assert set(range(8 * byte, 8 * byte + 8)) <= \
                    node.sensitive_bits


class TestBitshareCompose:
    def _node(self):
        program, tree, executor = bootstrap_tree(
            "int main(){ char a = nondet_char(); char b = nondet_char();"
            " bool q = b > 9; return 0; }",
            inputs=(b"\x12\x00",))
        node = tree.root
        node.sensitive_bits = {8, 9, 10, 11, 12, 13, 14, 15}
        return node

    def test_inverted_donor_flips_every_sensitive_bit(self):
        node = self._node()
        store = BitshareStore()
        donor_input = bytes([0x00, ~node.best_input[1] & 0xFF])
        store.record(node.id[UID], True, donor_input, node.sensitive_bits)
        composed = bitshare_compose(node, True, store)
        flipped = [s for s in range(16)
                   if get_bit(composed, s) != get_bit(node.best_input, s)]
        assert flipped == sorted(node.sensitive_bits)

    def test_empty_donor_bits_leave_input_unchanged(self):
        node = self._node()
        store = BitshareStore()
        store.record(node.id[UID], True, b"\x55", set())
        assert bitshare_compose(node, True, store) == node.best_input

    def test_no_donor_entry_returns_none(self):
        node = self._node()
        assert bitshare_compose(node, True, BitshareStore()) is None

    def test_session_without_donor_emits_nothing(self):
        node = self._node()
        session = BitshareSession(node, True, BitshareStore())
        assert session.next_input() is None
        assert session.exhausted

    def test_donor_truncated_to_shorter_side(self):
        node = self._node()
        store = BitshareStore()
        store.record(node.id[UID], True, b"\xff", {0, 1, 2})  # 3 donor bits
        composed = bitshare_compose(node, True, store)
        changed = [s for s in range(16)
                   if get_bit(composed, s) != get_bit(node.best_input, s)]
        assert changed == [8, 9, 10]


class TestIdentifyTypedVariables:
    def test_two_int_regions(self):
        tags = (TypeTag.SINT32, TypeTag.SINT32)
        variables = identify_typed_variables(bytes(8), tags, {2, 40})
        assert variables == [(0, TypeTag.SINT32), (4, TypeTag.SINT32)]

    def test_partially_sensitive_variable_is_whole(self):
        tags = (TypeTag.SINT32, TypeTag.SINT16)
        variables = identify_typed_variables(bytes(6), tags, {12})
        assert variables == [(0, TypeTag.SINT32)]

    def test_untyped_region_rejects(self):
        tags = (TypeTag.SINT32, TypeTag.UNTYPED8)
        assert identify_typed_variables(bytes(5), tags, {3, 34}) is None

    def test_bit_outside_tagged_bytes_rejects(self):
        assert identify_typed_variables(bytes(1), (TypeTag.UINT8,),
                                        {11}) is None


class TestTypedSeed:
    def test_sint32_initial_interval(self):
        rng = random.Random(1)
        values = [typed_seed_value(TypeTag.SINT32, 0, 1000, rng)
                  for _ in range(2000)]
        assert all(-128 <= v <= 128 for v in values)
        assert any(abs(v) > 100 for v in values)

    def test_sint32_final_interval(self):
        rng = random.Random(2)
        values = [typed_seed_value(TypeTag.SINT32, 1000, 1000, rng)
                  for _ in range(2000)]
        assert all(-2 ** 30 <= v <= 2 ** 30 for v in values)
        assert any(abs(v) > 2 ** 20 for v in values)

    def test_uint8_full_domain_always(self):
        rng = random.Random(3)
        for k in (0, 500, 1000):
            values = {typed_seed_value(TypeTag.UINT8, k, 1000, rng)
                      for _ in range(4000)}
            assert min(values) == 0 and max(values) == 255

    def test_boolean_domain(self):
        rng = random.Random(4)
        values = {typed_seed_value(TypeTag.BOOLEAN, 0, 100, rng)
                  for _ in range(50)}
        assert values == {0, 1}

    def test_float_interval_grows(self):
        rng = random.Random(5)
        early = max(abs(typed_seed_value(TypeTag.FLOAT64, 0, 1000, rng))
                    for _ in range(500))
        late = max(abs(typed_seed_value(TypeTag.FLOAT64, 1000, 1000, rng))
                   for _ in range(500))
        assert early <= 128.0
        assert late > 2 ** 60


class TestLambdaStep:
    def test_worked_example(self):
        assert lambda_step(10.0, (3.0, 4.0)) == pytest.approx(0.4)

    def test_matches_plane_intersection_system(self):
        # oracle: solve the (m+1)-dimensional intersection system directly
        rng = random.Random(9)
        for _ in range(200):
            m = rng.randrange(1, 7)
            gradient = [rng.uniform(-50, 50) or 1.0 for _ in range(m)]
            abs_value = abs(rng.uniform(0.001, 1e6))
            matrix = numpy.zeros((m + 1, m + 1))
            rhs = numpy.zeros(m + 1)
            for i in range(m):
                matrix[i, 0] = -gradient[i]   # -lam * g_i = t_i
                matrix[i, i + 1] = -1.0
            for i in range(m):
                matrix[m, i + 1] = gradient[i]
            rhs[m] = -abs_value               # 0 = |f| + sum t_i g_i
            solution = numpy.linalg.solve(matrix, rhs)
            assert lambda_step(abs_value, gradient) == \
                pytest.approx(solution[0], rel=1e-9)


MAGIC = ("int main() { int x = nondet_int();"
         " if (x == 1000000) abort(); return 0; }")


class TestTypedDescent:
    def test_step_candidates_span_seven_orders(self):
        from gradfuzz.generators.typed import _STEP_EXPONENTS

        assert _STEP_EXPONENTS == (0, -1, 1, -2, 2, -3, 3)

    def _session(self, seed=0):
        program, tree, executor = bootstrap_tree(MAGIC)
        node = tree.root
        node.sensitive_bits = set(range(32))
        node.sensitivity_done = True
        variables = identify_typed_variables(node.best_input, node.best_tags,
                                             node.sensitive_bits)
        session = TypedDescentSession(node, True, random.Random(seed),
                                      variables)
        return session, executor, tree

    def test_linear_target_converges_immediately(self):
        # exact lambda on a linear branching function: the e = 0 candidate
        # lands on the root after one partial evaluation
        for seed in range(5):
            session, executor, tree = self._session(seed)
            outcome = drive_session(session, executor, tree)
            assert outcome == "achieved"
            assert session.executions <= 10

    def test_budget_bounds_calls(self):
        src = ("int main() { int x = nondet_int();"
               " if (x * 0 == 7) abort(); return 0; }")
        program, tree, executor = bootstrap_tree(src)
        node = tree.root
        node.sensitive_bits = set(range(32))
        variables = [(0, TypeTag.SINT32)]
        session = TypedDescentSession(node, True, random.Random(1), variables)
        outcome = drive_session(session, executor, tree)
        assert outcome == "exhausted"
        assert session.calls <= 100 * len(node.sensitive_bits)

    def test_accepted_values_strictly_decrease(self):
        src = ("int main() { int x = nondet_int();"
               " if (x * x == 20000) abort(); return 0; }")
        program, tree, executor = bootstrap_tree(src)
        node = tree.root
        node.sensitive_bits = set(range(32))
        session = TypedDescentSession(node, True, random.Random(7),
                                      [(0, TypeTag.SINT32)])
        drive_session(session, executor, tree)
        assert session.descent_logs
        for log in session.descent_logs:
            assert all(b < a for a, b in zip(log, log[1:]))

    def test_only_sensitive_variable_bytes_change(self):
        session, executor, tree = self._session()
        node = session.node
        seen = []
        original_next = session.next_input
        while True:
            data = original_next()
            if data is None or len(seen) > 20:
                break
            seen.append(data)
            session.feed(executor(data))
        for data in seen:
            assert len(data) == len(node.best_input)
            # all variable regions may change; nothing else exists here
            assert data[4:] == node.best_input[4:]

    def test_descent_stopped_at_zero_crosses_on_the_next_probe(self):
        # f = x - 1000 is linear: from the node's own x = 2000 the full
        # step lands on x = 1000, f = 0, where the strict comparison is
        # still false; the longer steps leave the path.  At 1000 the right
        # difference reads 1001, f = 1, lambda is 0 and the descent stops.
        # The neighbour probe's first value, 999, takes the goal direction
        program, tree, executor = bootstrap_tree(
            "int main() { int x = nondet_int();"
            " if (x > 990) { if (x < 1000) abort(); } return 0; }",
            inputs=(TypeTag.SINT32.codec.pack(2000),))
        node = tree.root.true_succ
        node.sensitive_bits = set(range(32))
        session = TypedDescentSession(node, True, _NoDraws(),
                                      [(0, TypeTag.SINT32)])
        executed = []

        def run(data):
            executed.append(TypeTag.SINT32.codec.unpack(data)[0])
            return executor(data)

        assert drive_session(session, run, tree) == "achieved"
        assert executed[0] == 2000  # the own value comes first
        assert session.descent_logs == [[1000.0, 0.0]]
        assert executed[-2:] == [1001, 999]
        assert session.achieving_input == TypeTag.SINT32.codec.pack(999)

    def test_coarse_float_own_value_is_drawn_instead(self):
        src = ("int main() { float x = nondet_float();"
               " if (x > 1000.25) abort(); return 0; }")
        for own, kept in [(2.0 ** 23, True), (-2.0 ** 24, True),
                          (2.0 ** 24, False), (2.0 ** 64, False),
                          (math.inf, False), (math.nan, False)]:
            data = TypeTag.FLOAT32.codec.pack(own)
            program, tree, executor = bootstrap_tree(src, inputs=(data,))
            node = tree.root
            node.sensitive_bits = set(range(32))
            session = TypedDescentSession(node, True, random.Random(3),
                                          [(0, TypeTag.FLOAT32)])
            first = session.next_input()
            assert (first == data) is kept
            if not kept:  # drawn from the first seed interval
                (value,) = TypeTag.FLOAT32.codec.unpack(first)
                assert -128.0 <= value <= 128.0

    @pytest.mark.parametrize("tag, value, below, above", [
        (TypeTag.SINT32, 5, 4, 6),
        (TypeTag.SINT32, -2 ** 31, None, -2 ** 31 + 1),
        (TypeTag.UINT8, 0, None, 1),
        (TypeTag.UINT8, 255, 254, None),
        (TypeTag.BOOLEAN, True, 0, None),
        (TypeTag.FLOAT64, 1.0, math.nextafter(1.0, -math.inf),
         math.nextafter(1.0, math.inf)),
        # below a binade boundary a float's step halves: 2 - 2^-23, not
        # 2 - 2^-22 as a step the size of the one above would give
        (TypeTag.FLOAT32, 2.0, 2.0 - 2.0 ** -23, 2.0 + 2.0 ** -22),
        (TypeTag.FLOAT32, 0.0, -2.0 ** -149, 2.0 ** -149),
        (TypeTag.FLOAT32, 3.4028234663852886e38,
         3.4028232635611926e38, math.inf),
        (TypeTag.FLOAT32, math.inf, None, None),
        (TypeTag.FLOAT64, math.nan, None, None),
    ])
    def test_neighbours(self, tag, value, below, above):
        from gradfuzz.generators.typed import _neighbours

        assert _neighbours(tag, value) == [
            v for v in (below, above) if v is not None]


# Two-sided gates: x must fall strictly between two constants one or two
# steps apart, so a descent on the inner strict comparison stops at f = 0
# on the wrong side unless it steps across.  The xor gate's branching
# values are xor-flagged, so its descent is the bit-level one
GATES = {
    name: parse_program(
        f"int main() {{ {ty} x = nondet_{ty}();"
        f" if ({v} > {lo}) {{ if ({v} < {hi}) {{ abort(); }} }}"
        f" return 0; }}")
    for name, ty, v, lo, hi in [
        ("int", "int", "x", "100000", "100003"),
        ("uint", "uint", "x", "70000", "70002"),
        ("short", "short", "x", "1000", "1002"),
        ("float", "float", "x", "1000.25", "1000.5"),
        ("double", "double", "x", "1000.25", "1000.5"),
        ("xor", "char", "(x ^ 90)", "100", "103"),
    ]
}
# the float gate's first crash per seed before the own-value seed and the
# neighbour probe; the float rule must not make it later
FLOAT_GATE_FIRST_CRASH_BEFORE = {1: 189, 2: 127, 3: 183, 4: 167, 5: 201}


def _gate_first_crash(name, seed):
    suite, stats = run_fuzzing(GATES[name], FuzzBudget(max_executions=5000),
                               FuzzOptions(seed=seed))
    crashes = [test.iteration for test in suite.tests
               if test.termination == TerminationKind.CRASH]
    if name == "xor" and crashes:
        # the inner node's one descent, bit-level, crossed
        assert [(entry.kind, entry.achieved) for entry in stats.sessions
                if entry.depth == 1 and entry.kind.endswith("minimization")
                ] == [("minimization", True)]
    return crashes[0] if crashes else None


class TestTwoSidedGates:
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_gate_crashes(self, name):
        first = _gate_first_crash(name, 1)
        assert first is not None
        if name == "float":
            assert first <= FLOAT_GATE_FIRST_CRASH_BEFORE[1]

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_gate_crashes_on_every_seed(self, name):
        for seed in range(1, 6):
            first = _gate_first_crash(name, seed)
            assert first is not None, seed
            if name == "float":
                assert first <= FLOAT_GATE_FIRST_CRASH_BEFORE[seed], seed


class _NoDraws:
    """An rng that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} drawn")


class TestBinarySeeds:
    def test_hamming_weights_exact(self):
        rng = random.Random(0)
        seeds = binary_seeds(3, rng)
        assert [sum(s) for s in seeds] == [0, 1, 2, 3]

    def test_single_bit(self):
        rng = random.Random(1)
        assert binary_seeds(1, rng) == [(0,), (1,)]

    def test_all_ones_final_seed(self):
        rng = random.Random(2)
        assert binary_seeds(5, rng)[-1] == (1, 1, 1, 1, 1)


STUCK_PLAIN = """
int main() {
  char x = nondet_char();
  x = x & 15;
  bool b = x == 4;
  return 0;
}
"""

STUCK_SWAPPED = """
int main() {
  char x = nondet_char();
  x = x & 15;
  x = ((x & 1) << 3) | (x & 6) | (x & 8) >> 3;
  bool b = x == 4;
  return 0;
}
"""


STRICT_NIBBLE = """
int main() {
  char x = nondet_char();
  x = x & 15;
  if (x < 8) { if (x > 6) abort(); }
  return 0;
}
"""

def _nibble_session(source, scripted_samples):
    program, tree, executor = bootstrap_tree(source)
    node = tree.root
    node.sensitivity_done = True
    node.sensitive_bits = {4, 5, 6, 7}  # the masked nibble, unwidened
    rng = ScriptedRng(samples=scripted_samples)
    session = BinaryDescentSession(node, True, rng)
    return session, executor, tree


class TestBinaryDescent:
    def test_integer_stuck_case_escapes_via_suffix_mutation(self):
        # seed 2 is scripted to the stuck vector (0,0,1,1): no single flip
        # improves |f| = 1, and the importance-ordered suffix inversion
        # reaches (0,1,0,0) with f = 0
        samples = [[], [3], [2, 3], [1, 2, 3], [0, 1, 2, 3]]
        session, executor, tree = _nibble_session(STUCK_PLAIN, samples)
        drive_session(session, executor, tree, stop_at_goal=False)
        log = session.descent_logs[2]
        assert log[0] == 1.0
        assert log[-1] == 0.0

    def test_bit_swapped_variant_relearns_importance(self):
        # the swap makes the low source bit the heavy one; the stuck
        # vector is now (1,0,1,0) and a different 3-bit suffix escapes
        samples = [[], [3], [0, 2], [1, 2, 3], [0, 1, 2, 3]]
        session, executor, tree = _nibble_session(STUCK_SWAPPED, samples)
        drive_session(session, executor, tree, stop_at_goal=False)
        log = session.descent_logs[2]
        assert log == [1.0, 0.0]

    def test_strict_comparison_crosses_after_reaching_zero(self):
        # the bit-level descent needs no neighbour probe: after every
        # accepted step it tries each single-bit flip, and from f = 0
        # those include the value next to the constant on the goal side.
        # From seed 0 it accepts x = 4 (|f| = 2), then x = 6, f = 0,
        # where x > 6 is still false; flipping the low bit gives 7
        program, tree, executor = bootstrap_tree(STRICT_NIBBLE)
        node = tree.root.true_succ
        node.sensitivity_done = True
        node.sensitive_bits = {4, 5, 6, 7}
        session = BinaryDescentSession(node, True, ScriptedRng(
            samples=[[], [3], [2, 3], [1, 2, 3], [0, 1, 2, 3]]))
        assert drive_session(session, executor, tree) == "achieved"
        assert session.descent_logs == [[6.0, 2.0, 0.0]]
        assert session.achieving_input == bytes([7])

    def test_accepted_values_strictly_decrease_per_seed(self):
        program, tree, executor = bootstrap_tree(
            "int main(){ char x = nondet_char();"
            " if ((x ^ 0xA5) == 0) abort(); return 0; }")
        node = tree.root
        node.sensitivity_done = True
        node.sensitive_bits = set(range(8))
        session = BinaryDescentSession(node, True, random.Random(0))
        outcome = drive_session(session, executor, tree)
        assert outcome == "achieved"
        for log in session.descent_logs:
            assert all(b < a for a, b in zip(log, log[1:]))

    def test_flip_budget_per_step(self):
        session, executor, tree = _nibble_session(STUCK_PLAIN,
                                                  [[], [3], [2, 3],
                                                   [1, 2, 3], [0, 1, 2, 3]])
        drive_session(session, executor, tree, stop_at_goal=False)
        m = len(session.bit_indices)
        # per seed and step at most m flips plus m suffix candidates
        steps = sum(len(log) + 1 for log in session.descent_logs)
        assert session.calls <= (m + 1) + steps * 2 * m + len(
            session.descent_logs) * 2 * m + m + 1

    def test_outputs_touch_only_sensitive_bits(self):
        samples = [[], [3], [2, 3], [1, 2, 3], [0, 1, 2, 3]]
        session, executor, tree = _nibble_session(STUCK_PLAIN, samples)
        node = session.node
        while True:
            data = session.next_input()
            if data is None:
                break
            for s in range(8 * len(data)):
                if s not in node.sensitive_bits:
                    assert get_bit(data, s) == get_bit(node.best_input, s)
            session.feed(executor(data))


class TestExecutionCache:
    def test_repeated_input_not_reexecuted(self):
        samples = [[], [3], [2, 3], [1, 2, 3], [0, 1, 2, 3]]
        session, executor, tree = _nibble_session(STUCK_PLAIN, samples)
        before = executor.count
        drive_session(session, executor, tree, stop_at_goal=False)
        assert session.calls > session.executions  # hits occurred
        assert executor.count - before == session.executions

    def test_cache_scope_is_one_session(self):
        program, tree, executor = bootstrap_tree(STUCK_PLAIN)
        node = tree.root
        node.sensitivity_done = True
        node.sensitive_bits = {4, 5, 6, 7}
        before = executor.count
        for _ in range(2):
            session = BinaryDescentSession(node, True, ScriptedRng(
                samples=[[], [3], [2, 3], [1, 2, 3], [0, 1, 2, 3]]))
            data = session.next_input()
            session.feed(executor(data))
        # the identical first seed executed once per session
        assert executor.count - before == 2


class TestSessionProtocol:
    def _session(self):
        program, tree, executor = bootstrap_tree(STUCK_PLAIN)
        node = tree.root
        node.sensitivity_done = True
        node.sensitive_bits = {4, 5, 6, 7}
        session = BinaryDescentSession(node, True, ScriptedRng(
            samples=[[], [3], [2, 3], [1, 2, 3], [0, 1, 2, 3]]))
        return session, executor

    def test_feed_with_nothing_pending_raises(self):
        session, executor = self._session()
        result = executor(b"")
        with pytest.raises(RuntimeError, match="no input pending"):
            session.feed(result)
        session.feed(executor(session.next_input()))
        with pytest.raises(RuntimeError, match="no input pending"):
            session.feed(result)
        assert session.executions == 1

    def test_next_input_before_feed_raises(self):
        session, executor = self._session()
        data = session.next_input()
        with pytest.raises(RuntimeError, match="not been fed"):
            session.next_input()
        session.feed(executor(data))
        assert session.next_input() is not None


def _record(uid, direction, value=1.0):
    return condition_record((uid, 0), direction, value, False, 0)


def _result(trace):
    return ExecutionResult(TerminationKind.NORMAL, b"", (), tuple(trace))


class _PathProbe(AnalysisSession):
    def _run(self):
        yield from ()


class TestMappedValue:
    # the node at depth 2 sits at uid 3, past 1 (true) and 2 (false)
    PATH = ((1, True), (2, False), (3, True))

    def _session(self):
        tree = ExecTree()
        tree.map_trace(_result(
            [_record(u, d, 5.0) for u, d in self.PATH] + [_record(4, True)]),
            0)
        node = tree.root.true_succ.false_succ
        assert node.id[UID] == 3 and node.depth == 2
        return _PathProbe(node)

    def test_trace_turning_away_before_the_node(self):
        session = self._session()
        for turn in (0, 1):
            trace = [_record(u, d if i != turn else not d)
                     for i, (u, d) in enumerate(self.PATH)]
            assert session.mapped_value(_result(trace)) is None

    def test_trace_shorter_than_the_node_depth(self):
        session = self._session()
        for length in range(3):
            trace = [_record(u, d) for u, d in self.PATH[:length]]
            assert session.mapped_value(_result(trace)) is None

    def test_different_id_at_the_node(self):
        session = self._session()
        trace = [_record(1, True), _record(2, False), _record(9, True)]
        assert session.mapped_value(_result(trace)) is None

    def test_value_of_a_trace_reaching_the_node(self):
        session = self._session()
        trace = [_record(1, True), _record(2, False), _record(3, False, -2.5)]
        assert session.mapped_value(_result(trace)) == -2.5
        trace += [_record(7, True), _record(1, False)]
        assert session.mapped_value(_result(trace)) == -2.5

    def test_random_traces_against_the_path(self):
        session = self._session()
        rng = random.Random(5)
        for _ in range(3000):
            trace = [_record(rng.choice((1, 2, 3, 3, 9)),
                             rng.random() < 0.5, rng.uniform(-9, 9))
                     for _ in range(rng.randrange(6))]
            for i, (uid, direction) in enumerate(self.PATH[:len(trace)]):
                if rng.random() < 0.8:  # mostly follow the path
                    trace[i] = _record(uid, direction if i < 2
                                       else trace[i][DIRECTION],
                                       trace[i][VALUE])
            reaches = (len(trace) > 2
                       and [r[ID][UID] for r in trace[:3]] == [1, 2, 3]
                       and [r[DIRECTION] for r in trace[:2]]
                       == [True, False])
            want = trace[2][VALUE] if reaches else None
            assert session.mapped_value(_result(trace)) == want


def _loop_prefix_agreement(trace, base_trace):
    """The record-by-record walk ``prefix_agreement`` replaced."""
    k = -1
    for (rid, direction, _, _, _), (path_id, path_direction, _, _, _) \
            in zip(trace, base_trace):
        if rid != path_id:
            break
        k += 1
        if direction != path_direction:
            break
    return k


def _loop_apply_marks(marks, candidates, trace, base_trace):
    """The record-by-record walk ``SensitivitySession._apply_marks``
    replaced."""
    top = _loop_prefix_agreement(trace, base_trace)
    for k, (_, _, value, _, _), (_, _, base_value, _, nbytes) in zip(
            range(top + 1), trace, base_trace):
        if value == base_value:
            continue
        cutoff = 8 * nbytes
        bucket = marks.setdefault(k, set())
        for s in candidates:
            if s < cutoff:
                bucket.add(s)


class TestWalksOverChangedRecords:
    """The session walks visit only the records that differ from the
    path's; over traces that mostly copy the path's records verbatim they
    must agree with the record-by-record loops."""

    VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, 1e9, float("inf"))

    def _random_record(self, rng, nbytes):
        return condition_record(
            (rng.choice((1, 2, 3)), rng.choice((0, 7))),
            rng.random() < 0.5, rng.choice(self.VALUES),
            rng.random() < 0.5, nbytes)

    def _base_trace(self, rng):
        records = []
        nbytes = 0
        for _ in range(rng.randrange(1, 16)):
            nbytes += rng.randrange(0, 2)
            records.append(self._random_record(rng, nbytes))
        return records

    def _mutated(self, rng, full):
        """A copy of ``full`` with a few records changed, then maybe cut
        or extended; nbytes stay monotone."""
        trace = list(full)
        for _ in range(rng.randrange(0, 4)):
            p = rng.randrange(len(trace))
            rid, direction, value, xor, nbytes = trace[p]
            change = rng.randrange(6)
            if change == 0:
                value = rng.choice(self.VALUES)
            elif change == 1:
                direction = not direction
            elif change == 2:
                rid = (rng.choice((4, 5)), 0)  # foreign id
            elif change == 3:
                rid = (rid[UID], rid[CTX])  # equal, not identical
            elif change == 4:
                xor = not xor
            else:
                trace[p:] = [(r[ID], r[DIRECTION], r[VALUE], r[XOR_FLAG],
                              r[NBYTES] + 1) for r in trace[p:]]
                continue
            trace[p] = condition_record(rid, direction, value, xor, nbytes)
        shape = rng.randrange(3)
        if shape == 0:
            del trace[rng.randrange(len(trace) + 1):]
        elif shape == 1:
            nbytes = trace[-1][NBYTES]
            for _ in range(rng.randrange(1, 4)):
                trace.append(self._random_record(rng, nbytes))
        return trace

    def test_against_the_record_loops(self):
        rng = random.Random(13)
        for _ in range(60):
            full = self._base_trace(rng)
            tree = ExecTree()
            tree.map_trace(_result(full), 0)
            node = tree.root
            for direction in [r[DIRECTION] for r in full[
                    :rng.randrange(len(full))]]:
                node = node.true_succ if direction else node.false_succ
            session = SensitivitySession(node)
            base = session.base_trace
            raw, region = {}, {}
            for _ in range(40):
                trace = self._mutated(rng, full)
                assert (session.prefix_agreement(trace)
                        == _loop_prefix_agreement(trace, base))
                is_region = rng.random() < 0.3
                candidates = rng.sample(range(24), rng.randrange(1, 5))
                session._apply_marks(candidates, _result(trace), is_region)
                _loop_apply_marks(region if is_region else raw, candidates,
                                  trace, base)
                assert session.raw_marks == raw
                assert session.region_marks == region
