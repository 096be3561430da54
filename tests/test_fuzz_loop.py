import hashlib
import json
import math
import random
import socket
import struct
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from gradfuzz.executors import (
    LocalExecutor,
    RemoteExecutor,
    TargetServer,
    TransportError,
)
from gradfuzz.fuzz_loop import (
    OPTIMIZER_STEPS_PER_SECOND,
    FuzzBudget,
    FuzzEngine,
    FuzzOptions,
    ReadPrefixMemo,
    load_manifest,
    optimizer_limits,
    replay_suite,
    run_fuzzing,
    save_suite,
)
from gradfuzz.generators import AnalysisKind
from gradfuzz.minivm import VmLimits, execute, parse_program
from gradfuzz.target_abi import (
    _CAPS,
    _MAX_PAYLOAD,
    ID,
    KIND_RESULT,
    ExecutionConfig,
    TerminationKind,
    wire_encode,
)
from helpers import HEADER_TARGET

MAGIC = ("int main() { int x = nondet_int();"
         " if (x == 1000000) abort(); return 0; }")

XOR = ("int main() { char x = nondet_char();"
       " if ((x ^ 0xA5) == 0) abort(); return 0; }")


def small_options(seed=0, **limit_overrides):
    limits = VmLimits(max_trace_length=200, max_stack_size=64,
                      max_input_bytes=64, step_budget=100_000)
    if limit_overrides:
        limits = VmLimits(**{**limits.__dict__, **limit_overrides})
    return FuzzOptions(limits=limits, seed=seed)


class TestRunFuzzing:
    def test_budget_one_keeps_exactly_the_empty_input(self):
        suite, stats = run_fuzzing(parse_program(MAGIC),
                                   FuzzBudget(max_executions=1),
                                   small_options())
        assert stats.total_executions == 1
        assert len(suite.tests) == 1
        assert suite.tests[0].iteration == 0
        assert suite.tests[0].input_bytes == b"\x00\x00\x00\x00"

    def test_magic_constant_covered_with_crash(self):
        suite, stats = run_fuzzing(parse_program(MAGIC),
                                   FuzzBudget(max_executions=5000),
                                   small_options(seed=2))
        assert stats.total_executions < 5000
        assert stats.coverage["uids_covered"] == 1
        crashes = [t for t in suite.tests
                   if t.termination == TerminationKind.CRASH]
        assert crashes and crashes[0].input_bytes == b"\x40\x42\x0f\x00"

    def test_empty_first_trace_tries_the_bytes_it_read(self):
        # the empty input divides by zero before the first record; the
        # run goes on with flips of the byte read until a trace appears
        source = ("int main() { int q = 5 / nondet_char();"
                  " if (q > 1) { abort(); } return 0; }")
        suite, stats = run_fuzzing(parse_program(source),
                                   FuzzBudget(max_executions=200),
                                   small_options())
        assert stats.executions_by_kind["bootstrap"] == 2
        assert stats.total_executions > 2
        assert stats.coverage["uids_discovered"] == 1
        assert [(t.input_bytes, t.termination) for t in suite.tests] == [
            (b"\x00", TerminationKind.CRASH),
            (b"\x80", TerminationKind.NORMAL)]

    def test_kept_tests_brought_new_pairs_or_crashed(self):
        suite, stats = run_fuzzing(parse_program(XOR),
                                   FuzzBudget(max_executions=2000),
                                   small_options(seed=4))
        # every execution with a new pair is kept here, so the kept
        # tests' pairs, in order, say when each uid became covered
        seen = {}
        for test in suite.tests:
            assert (test.iteration == 0 or test.new_pairs
                    or test.termination == TerminationKind.CRASH)
            for uid, direction in test.new_pairs:
                seen.setdefault(uid, set()).add(direction)
            assert test.newly_covered_uids == tuple(sorted(
                {uid for uid, _ in test.new_pairs if len(seen[uid]) == 2}))
        assert any(test.newly_covered_uids for test in suite.tests)

    def test_kept_tests_share_pair_objects(self):
        # a campaign's tests repeat each other's pairs; the engine keeps
        # one object per pair, and the tests carry no instance dict
        source = (Path(__file__).parent.parent / "benchmarks" /
                  "four_branch.mc").read_text()
        suite, _ = run_fuzzing(parse_program(source),
                               FuzzBudget(max_executions=300),
                               small_options(seed=4))
        first = {}
        for test in suite.tests:
            for pair in test.new_pairs + test.uid_pairs + test.id_pairs:
                assert first.setdefault(pair, pair) is pair
        assert len(suite.tests) > 3
        assert not hasattr(suite.tests[0], "__dict__")

    @pytest.mark.parametrize("budget, cut", [(50, True), (200, False)])
    def test_logged_sessions_hold_every_analysis_execution(self, budget,
                                                           cut):
        # at 50 executions the budget ends the loop inside a sensitivity
        # session, at 200 the strategy ends it: either way each analysis
        # kind's executions are those of its logged sessions
        source = (Path(__file__).parent.parent / "benchmarks" /
                  "four_branch.mc").read_text()
        engine = FuzzEngine(parse_program(source),
                            FuzzBudget(max_executions=budget),
                            small_options(seed=2))
        _, stats = engine.run()
        assert stats.terminated_by_strategy is not cut
        for kind in AnalysisKind:
            assert stats.executions_by_kind[kind.value] == sum(
                s.executions for s in stats.sessions if s.kind == kind.value)
        if cut:
            # logged once, and not finished: its analysis did not end
            session = engine.active
            assert session.kind == AnalysisKind.SENSITIVITY
            assert session.executions > 0
            assert stats.sessions[-1].executions == session.executions
            assert not stats.sessions[-1].achieved
            assert not session.node.sensitivity_done

    def test_program_without_boolean_instructions_terminates(self):
        suite, stats = run_fuzzing(parse_program("int main(){ return 0; }"),
                                   FuzzBudget(max_executions=100),
                                   small_options())
        assert stats.total_executions == 1
        assert stats.terminated_by_strategy
        assert len(suite.tests) == 1  # the empty input

    def test_suite_coverage_matches_tree_coverage(self):
        program = parse_program(XOR)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=2000),
                                   small_options(seed=9))
        assert suite.coverage["uids_covered"] == \
            stats.coverage["uids_covered"]

    def test_max_seconds_budget_accepted(self):
        suite, stats = run_fuzzing(parse_program(MAGIC),
                                   FuzzBudget(max_seconds=5.0),
                                   small_options(seed=1))
        assert stats.coverage["uids_covered"] == 1

    def test_budget_exhaustion_mid_session_leaves_valid_suite(self, tmp_path):
        program = parse_program(MAGIC)
        options = small_options(seed=0)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=10),
                                   options)
        assert stats.total_executions == 10
        save_suite(tmp_path, suite, stats, options)
        ok, divergence = replay_suite(program, tmp_path)
        assert ok, divergence

    def test_indirect_target_covered_through_iteration_count(self):
        src = (Path(__file__).parent.parent / "benchmarks" /
               "loop_accumulator.mc").read_text()
        for seed in range(3):
            suite, stats = run_fuzzing(parse_program(src),
                                       FuzzBudget(max_executions=4000),
                                       small_options(seed=seed))
            assert stats.coverage["uids_covered"] == 2
            assert any(t.termination == TerminationKind.CRASH
                       for t in suite.tests)

    def test_fill_byte_85_pipeline(self, tmp_path):
        src = ("int main(){ char c = nondet_char();"
               " if (c == 85) { abort(); } return 0; }")
        program = parse_program(src)
        options = small_options(seed=0)
        options.fill_byte = 85
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=50),
                                   options)
        # the empty input already reads the fill value and crashes
        assert suite.tests[0].termination == TerminationKind.CRASH
        assert suite.tests[0].input_bytes == b"\x55"
        save_suite(tmp_path, suite, stats, options)
        ok, divergence = replay_suite(program, tmp_path)
        assert ok, divergence

    def test_input_limit_heavy_target_stays_replayable(self, tmp_path):
        src = """
        int main() {
          int total = 0;
          int i = 0;
          while (i < 1000) {
            char c = nondet_char();
            total = total + c;
            i = i + 1;
          }
          if (total == 5) { abort(); }
          return 0;
        }
        """
        program = parse_program(src)
        options = small_options(seed=1, max_trace_length=150,
                                max_input_bytes=32)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=300),
                                   options)
        boundary = TerminationKind.BOUNDARY_CONDITION_VIOLATION
        assert stats.terminations[boundary] > 0
        save_suite(tmp_path, suite, stats, options)
        ok, divergence = replay_suite(program, tmp_path)
        assert ok, divergence

    def test_goal_sessions_always_have_sensitive_bits(self, monkeypatch):
        from gradfuzz.generators import AnalysisKind
        from gradfuzz.strategy import Strategy

        seen = []
        original = Strategy.select_analysis

        def recording(self):
            session = original(self)
            if session is not None:
                seen.append((session.kind, len(session.node.sensitive_bits)))
            return session

        monkeypatch.setattr(Strategy, "select_analysis", recording)
        for source in (MAGIC, XOR):
            run_fuzzing(parse_program(source),
                        FuzzBudget(max_executions=2000),
                        small_options(seed=0))
        assert seen
        for kind, bits in seen:
            if kind != AnalysisKind.SENSITIVITY:
                assert bits > 0


SENSE_PAIR = """
int main() {
  char c = nondet_char();
  c = c & 7;
  bool bi0 = ((c ^ 7) * (c ^ 1)) != 0;
  bool bi1 = c > 2;
  return 0;
}
"""


# A target fingerprinted below that has no file under benchmarks/: the
# program test_robustness.gen_program(11) generates, kept as a literal so
# that a change to the generator does not move its fingerprint.
GEN_PROGRAM_11 = """\
bool g0(int a) {
return (((-1 * a) + -1) ^ ((6 + a) + 123456));
}
int main() {
int v4 = nondet_uint();
int v5 = nondet_bool();
float f6 = nondet_float();
if (!0) {
double f8 = ((double)v4 + 1e30);
bool b9 = (v4 <= 3);
int v10 = (v5 ^ !v4);
}
int v12 = (!!v4 % 123456);
return 0;
}"""

LITERAL_TARGETS = {"gen_program_11": GEN_PROGRAM_11, "header": HEADER_TARGET}


class TestDeterminism:
    def test_three_runs_byte_identical(self, tmp_path):
        digests = []
        for run in range(3):
            outdir = tmp_path / f"run{run}"
            program = parse_program(XOR)
            options = small_options(seed=7)
            suite, stats = run_fuzzing(program,
                                       FuzzBudget(max_executions=300),
                                       options)
            save_suite(outdir, suite, stats, options)
            blob = []
            for path in sorted(outdir.rglob("*")):
                if path.is_file():
                    blob.append((str(path.relative_to(outdir)),
                                 path.read_bytes()))
            digests.append(blob)
        assert digests[0] == digests[1] == digests[2]

    # manifest.json sha256 at a fixed seed.  counted_loop under a short
    # trace cap keeps an optimizer test; loop_accumulator selects a twin
    # twice; gen_program_11 takes a node from the Monte Carlo walk five
    # times; the header target answers 102 of its 322 inputs from the
    # read-prefix memo, which no target under benchmarks/ reaches.  A
    # refactor must keep these; a change meant to alter behaviour records
    # the new values.
    @pytest.mark.parametrize("name, limits, sha256", [
        ("counted_loop.mc", VmLimits(max_trace_length=40),
         "80eee41e99390296a4b75f9d685e54012c047dbb41988ab5e12cea4bf8ab2477"),
        ("four_branch.mc", VmLimits(),
         "9bc7c68e9ccdbaf54c7956044e7a0ee77fa9b40b41e341315f050de8d30c63ec"),
        ("loop_accumulator.mc", VmLimits(),
         "b9d66800c424886653fa3517e913ce875a6ce99f1fce1c93b4b302cc411fb3b8"),
        ("gen_program_11", VmLimits(100, 32, 32, 50_000),
         "0dbfe8764f157c3fc69d36aef01ab79bb376b81fd28b7c78aad4959ba4ca2c3b"),
        ("header", VmLimits(),
         "0a325df568ae75da994f221f07c09b080d1c39df8157d36c5bf3758bf65a628b"),
    ])
    def test_fixed_seed_manifest_fingerprint(self, tmp_path, name, limits,
                                             sha256):
        if name in LITERAL_TARGETS:
            source = LITERAL_TARGETS[name]
        else:
            source = (Path(__file__).parent.parent / "benchmarks"
                      / name).read_text()
        program = parse_program(source)
        options = FuzzOptions(limits=limits, seed=5)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=2000),
                                   options)
        save_suite(tmp_path, suite, stats, options)
        manifest = (tmp_path / "manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == sha256

    def test_different_seeds_may_differ_but_still_cover(self):
        for seed in range(5):
            _, stats = run_fuzzing(parse_program(XOR),
                                   FuzzBudget(max_executions=2000),
                                   small_options(seed=seed))
            assert stats.coverage["uids_covered"] == 1


class TestReplay:
    def test_replay_reproduces(self, tmp_path):
        program = parse_program(SENSE_PAIR)
        options = small_options(seed=3)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=100),
                                   options)
        save_suite(tmp_path, suite, stats, options)
        ok, divergence = replay_suite(program, tmp_path)
        assert ok, divergence

    def test_replay_detects_divergence(self, tmp_path):
        program = parse_program(SENSE_PAIR)
        options = small_options(seed=3)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=100),
                                   options)
        save_suite(tmp_path, suite, stats, options)
        other = parse_program(SENSE_PAIR.replace("c > 2", "c < 2"))
        ok, divergence = replay_suite(other, tmp_path)
        assert not ok
        assert divergence


BOUNDED_LOOP = """
int main() {
  char n = nondet_char();
  int i = 0;
  while (i < n) { i = i + 1; }
  char tail = nondet_char();
  bool deep = n > 100;
  return 0;
}
"""


FIXED_LOOP = """
int main() {
  int i = 0;
  while (i < 50) { i = i + 1; }
  bool deep = i == 50;
  return 0;
}
"""

# every input recurses past the default 256-frame stack cap
# overruns a 10-record trace cap before its read; under the optimizer's
# caps it reads a byte, sees a new pair and spins to the step budget
# (3.2e8 steps at default limits, ~10 s)
SPIN_AFTER_OVERRUN = """
int main() {
  int i = 0;
  while (i < 20) { i = i + 1; }
  char x = nondet_char();
  if (x == 7) { i = 0; }
  while (true) { i = i + 1; }
  return 0;
}
"""

DEEP_RECURSION = ("int f(int n) { if (n > 0) { return f(n - 1); } return 0; }"
                  " int main() { int x = nondet_char(); return f(x + 300); }")

# 6000 loop steps overrun a 5000-record trace whatever the input
OVERRUN_LOOP = ("int main() { int n = nondet_int(); int i = 0;"
                " while (i < 6000) { i = i + 1; }"
                " if (n > 5) { return 1; } return 0; }")


class TestOptimizer:
    def test_no_boundary_tests_leave_suite_unchanged(self):
        program = parse_program(MAGIC)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=100),
                                   small_options(seed=1))
        assert stats.executions_by_kind["optimizer"] == 0

    def test_extended_rerun_appends_covering_test(self):
        program = parse_program(BOUNDED_LOOP)
        options = small_options(seed=6, max_trace_length=10)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=400),
                                   options)
        assert stats.executions_by_kind["optimizer"] > 0
        appended = [t for t in suite.tests if t.extended_limits]
        assert appended
        for test in appended:
            assert test.new_pairs
            assert len(test.input_bytes) > 1

    def test_same_bytes_rerun_not_appended(self):
        program = parse_program(FIXED_LOOP)
        options = small_options(seed=0, max_trace_length=20)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=50),
                                   options)
        assert stats.executions_by_kind["optimizer"] > 0
        assert not any(t.extended_limits for t in suite.tests)

    def test_a_plain_function_executor_runs_the_optimizer(self, tmp_path):
        """An executor is a callable on configs: the optimizer's extended
        configs go to the same callable as every other."""
        program = parse_program(FIXED_LOOP)
        options = small_options(seed=0, max_trace_length=20)
        budget = FuzzBudget(max_executions=50)
        runs = {"default": run_fuzzing(program, budget, options),
                "function": run_fuzzing(
                    program, budget, options,
                    executor=lambda config: execute(program, config))}
        for name, (suite, stats) in runs.items():
            assert stats.executions_by_kind["optimizer"] > 0
            save_suite(tmp_path / name, suite, stats, options)
        assert (tmp_path / "default/manifest.json").read_bytes() == \
            (tmp_path / "function/manifest.json").read_bytes()

    def test_no_rerun_after_deadline(self):
        program = parse_program(FIXED_LOOP)
        options = small_options(seed=0, max_trace_length=20)
        suite, stats = run_fuzzing(program, FuzzBudget(max_seconds=0.0),
                                   options)
        assert suite.tests[0].termination == \
            TerminationKind.BOUNDARY_CONDITION_VIOLATION
        assert stats.executions_by_kind["optimizer"] == 0

    def test_rerun_under_a_time_budget_ends_by_the_deadline(self):
        """Cut to the time left, the re-run that would spin for ~10 s
        ends within a second of the deadline (the bound holds wherever
        the interpreter spins at 5 M steps/s or faster).  It timed out
        only because of the cut, so it is not kept."""
        program = parse_program(SPIN_AFTER_OVERRUN)
        configs = []

        def executor(config):
            configs.append(config)
            return execute(program, config)

        start = time.monotonic()
        suite, stats = run_fuzzing(
            program, FuzzBudget(max_seconds=0.5),
            FuzzOptions(limits=VmLimits(max_trace_length=10)),
            executor=executor)
        assert time.monotonic() - start < 0.5 + 1.0
        assert stats.executions_by_kind["optimizer"] == 1
        assert configs[-1].step_budget <= 0.5 * OPTIMIZER_STEPS_PER_SECOND
        assert stats.terminations[TerminationKind.TIMEOUT] == 1
        assert not any(t.extended_limits for t in suite.tests)

    # no time budget, or one with no end: nothing to cut
    @pytest.mark.parametrize("max_seconds", [None, math.inf])
    def test_rerun_under_an_execution_budget_keeps_the_full_step_budget(
            self, max_seconds):
        program = parse_program(FIXED_LOOP)
        options = small_options(seed=0, max_trace_length=20)
        configs = []

        def executor(config):
            configs.append(config)
            return execute(program, config)

        run_fuzzing(program, FuzzBudget(max_executions=50,
                                        max_seconds=max_seconds),
                    options, executor=executor)
        assert configs[-1].max_trace_length == 20 * 32
        assert configs[-1].step_budget == \
            optimizer_limits(options.limits).step_budget

    def test_reruns_come_on_top_of_max_executions(self):
        suite, stats = run_fuzzing(parse_program(DEEP_RECURSION),
                                   FuzzBudget(max_executions=20),
                                   FuzzOptions())
        optimizer = stats.executions_by_kind["optimizer"]
        assert optimizer == 1
        assert stats.total_executions == 20 + optimizer

    def test_stats_count_pairs_the_suite_does_not_replay(self, tmp_path):
        # the optimizer's rerun of the truncated test reads the same
        # bytes, so the suite does not keep it; the tree keeps its pairs
        program = parse_program(OVERRUN_LOOP)
        options = FuzzOptions(limits=VmLimits(max_trace_length=5000))
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=200),
                                   options)
        save_suite(tmp_path, suite, stats, options)
        assert stats.executions_by_kind["optimizer"] == 1
        assert not any(t.extended_limits for t in suite.tests)
        reported = json.loads((tmp_path / "stats.json").read_text())
        assert reported["coverage"] == {
            "uids_discovered": 2, "uids_covered": 1,
            "execution_ids_discovered": 2, "execution_ids_covered": 1}
        assert load_manifest(tmp_path)["coverage"] == {
            "uids_discovered": 1, "uids_covered": 0,
            "execution_ids_discovered": 1, "execution_ids_covered": 0}
        ok, divergence = replay_suite(program, tmp_path)
        assert ok, divergence

    def test_extended_tests_replay(self, tmp_path):
        program = parse_program(BOUNDED_LOOP)
        options = small_options(seed=6, max_trace_length=10)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=400),
                                   options)
        save_suite(tmp_path, suite, stats, options)
        ok, divergence = replay_suite(program, tmp_path)
        assert ok, divergence


# One byte chooses an early end, which leaves the rest of the input
# unread, or the rest of the program; ``{exit}`` is that end.
EARLY_EXIT = """int main() {{
  uchar a = nondet_uchar();
  if (a != 0x41) {{
    {exit}
  }}
  uchar b = nondet_uchar();
  if (b > 0x30) {{
    return 1;
  }}
  ushort c = nondet_ushort();
  if (c == 0x1234) {{
    return 2;
  }}
  return 0;
}}"""
EARLY_EXITS = {
    TerminationKind.NORMAL: "return 1;",
    TerminationKind.CRASH: "abort();",
    TerminationKind.TIMEOUT: "while (true) { }",
    TerminationKind.BOUNDARY_CONDITION_VIOLATION:
        "int i = 0; while (i < 100) { i = i + 1; }",
}
# the trace cap ends the counted loop, the step budget the empty one
MEMO_LIMITS = VmLimits(max_trace_length=50, max_stack_size=64,
                       max_input_bytes=64, step_budget=5000)


class CheckedMemo(ReadPrefixMemo):
    """The engine's memo, checking each answer against a fresh run."""

    def __init__(self, program, limits, fill_byte):
        super().__init__(fill_byte)
        self.program = program
        self.config = lambda data: limits.config(fill_byte, data)
        self.answers = []  # (input, result) per answer

    def recall(self, input_bytes):
        result = super().recall(input_bytes)
        if result is not None:
            fresh = execute(self.program, self.config(input_bytes))
            assert (fresh.termination, fresh.bytes_read, fresh.type_tags,
                    fresh.trace) == (result.termination, result.bytes_read,
                                     result.type_tags, result.trace)
            self.answers.append((input_bytes, result))
        return result


class CountingCalls:
    """An executor wrapper that counts its calls and keeps their configs."""

    def __init__(self, executor):
        self.executor = executor
        self.configs = []

    def __call__(self, config):
        self.configs.append(config)
        return self.executor(config)


def checked_campaign(source, fill_byte=0, limits=MEMO_LIMITS, seed=2,
                     executor=None, max_executions=2000):
    """A campaign whose memo answers are each checked; the engine."""
    program = parse_program(source)
    engine = FuzzEngine(program, FuzzBudget(max_executions=max_executions),
                        FuzzOptions(limits=limits, fill_byte=fill_byte,
                                    seed=seed),
                        executor=executor)
    engine._memo = CheckedMemo(program, limits, fill_byte)
    engine.run()
    return engine


def assert_prefix_free(reads):
    assert reads == sorted(reads)
    for i, read in enumerate(reads):
        for other in reads[i + 1:]:
            assert not other.startswith(read)


class TestReadPrefixMemo:
    @pytest.mark.parametrize("fill_byte", [0, 85])
    def test_header_answers_equal_fresh_runs(self, fill_byte):
        engine = checked_campaign(HEADER_TARGET, fill_byte)
        memo = engine._memo
        assert len(memo.answers) == engine.stats.memo_hits > 50
        assert_prefix_free(memo.reads)

    @pytest.mark.parametrize("fill_byte", [0, 85])
    @pytest.mark.parametrize("kind", list(EARLY_EXITS),
                             ids=[kind.name for kind in EARLY_EXITS])
    def test_early_end_answers_equal_fresh_runs(self, kind, fill_byte):
        engine = checked_campaign(EARLY_EXIT.format(exit=EARLY_EXITS[kind]),
                                  fill_byte)
        answers = engine._memo.answers
        assert answers
        assert {result.termination for _, result in answers} == {kind}
        assert_prefix_free(engine._memo.reads)

    @pytest.mark.parametrize("fill_byte", [0, 85])
    def test_a_read_longer_than_the_input_answers_with_the_fill(
            self, fill_byte):
        # after a first byte of 0x41 the target reads two bytes (fill 85
        # fails the second guard) or four: an input shorter than the read
        # continues with fill bytes
        program = parse_program(EARLY_EXIT.format(exit="return 1;"))
        config = lambda data: MEMO_LIMITS.config(fill_byte, data)
        memo = ReadPrefixMemo(fill_byte)
        stored = b"\x41" + bytes((fill_byte,)) * 3 + b"\x07"
        result = execute(program, config(stored))
        read = len(result.bytes_read)
        assert read == (2 if fill_byte else 4)
        memo.store(stored, result)
        for length in range(1, read + 1):
            short = stored[:length]
            assert memo.recall(short) is result
            assert execute(program, config(short)) == result
        other = bytes((0x55 if fill_byte == 0 else 0,))
        for miss in (b"", b"\x42", stored[:read - 1] + other):
            assert memo.recall(miss) is None

    def test_only_reads_shorter_than_their_input_are_stored(self):
        program = parse_program(EARLY_EXIT.format(exit="return 1;"))
        memo = ReadPrefixMemo(0)
        for data in (b"", b"\x41\x00\x00\x00", b"\x00"):
            memo.store(data, execute(program, MEMO_LIMITS.config(0, data)))
        assert memo.reads == []
        memo.store(b"\x00\x01", execute(program,
                                        MEMO_LIMITS.config(0, b"\x00\x01")))
        assert memo.reads == [b"\x00"]

    def test_executor_runs_what_the_memo_does_not_answer(self):
        program = parse_program(HEADER_TARGET)
        counting = CountingCalls(LocalExecutor(program))
        engine = checked_campaign(HEADER_TARGET, executor=counting)
        stats = engine.stats
        assert stats.memo_hits > 0
        assert len(counting.configs) == stats.iterations - stats.memo_hits
        assert json.loads(json.dumps(stats.to_dict()))["memo_hits"] == \
            stats.memo_hits

    def test_remote_runs_what_the_memo_does_not_answer(self, tmp_path):
        program = parse_program(HEADER_TARGET)
        server = TargetServer(program, optimizer_limits(MEMO_LIMITS))
        server.start()
        try:
            with RemoteExecutor(server.address) as remote:
                counting = CountingCalls(remote)
                engine = checked_campaign(HEADER_TARGET, executor=counting)
        finally:
            server.stop()
        local = checked_campaign(HEADER_TARGET)
        stats = engine.stats
        assert stats.memo_hits == local.stats.memo_hits > 0
        assert len(counting.configs) == stats.iterations - stats.memo_hits
        for name, run in (("remote", engine), ("local", local)):
            save_suite(tmp_path / name, run.suite, run.stats,
                       run.options)
        assert (tmp_path / "remote/manifest.json").read_bytes() == \
            (tmp_path / "local/manifest.json").read_bytes()

    def test_optimizer_reruns_bypass_the_memo(self):
        # the first input ends at the trace cap after one byte, so the
        # memo holds the read of a boundary test that the optimizer
        # re-runs under its own caps
        source = EARLY_EXIT.format(
            exit=EARLY_EXITS[TerminationKind.BOUNDARY_CONDITION_VIOLATION])
        program = parse_program(source)
        counting = CountingCalls(LocalExecutor(program))
        engine = checked_campaign(source, executor=counting)
        extended = optimizer_limits(MEMO_LIMITS).max_trace_length
        reruns = [config for config in counting.configs
                  if config.max_trace_length == extended]
        assert len(reruns) == engine.stats.executions_by_kind["optimizer"]
        assert any(engine._memo.recall(config.input_bytes) is not None
                   for config in reruns)
        assert len(counting.configs) == \
            engine.stats.iterations - engine.stats.memo_hits
        for config in reruns:
            assert execute(program, config).termination == \
                TerminationKind.NORMAL

    def test_an_input_over_the_cap_raises_after_a_prefix_matches(self):
        program = parse_program(EARLY_EXIT.format(exit="return 1;"))
        engine = FuzzEngine(program, FuzzBudget(max_executions=10),
                            FuzzOptions(limits=MEMO_LIMITS))
        engine._execute_and_process(b"\x00\x01", "bootstrap")
        long_input = b"\x00" * (MEMO_LIMITS.max_input_bytes + 1)
        assert engine._memo.recall(long_input) is not None
        with pytest.raises(ValueError, match="longer than max_input_bytes"):
            engine._execute_and_process(long_input, "bootstrap")
        assert engine.stats.iterations == 1


class TestRemote:
    @pytest.fixture()
    def served(self):
        program = parse_program(SENSE_PAIR)
        limits = VmLimits(1000, 64, 512, 200_000)
        server = TargetServer(program, limits)
        server.start()
        yield program, limits, server.address
        server.stop()

    def test_matches_local_on_random_configs(self, served):
        program, limits, address = served
        local = LocalExecutor(program)
        rng = random.Random(0)
        with RemoteExecutor(address) as remote:
            for _ in range(100):
                max_input = rng.randrange(1, 64)
                config = ExecutionConfig(
                    max_trace_length=rng.randrange(1, 200),
                    max_stack_size=rng.randrange(2, 64),
                    max_input_bytes=max_input,
                    step_budget=rng.randrange(1, limits.step_budget + 1),
                    fill_byte=rng.choice((0, 85)),
                    input_bytes=rng.randbytes(
                        rng.randrange(0, min(max_input, 8) + 1)),
                )
                local_result = local(config)
                remote_result = remote(config)
                assert wire_encode(local_result) == \
                    wire_encode(remote_result)

    def test_ids_are_shared_across_calls(self, served):
        # the client's id table outlives its connections: the tree's walk
        # matches a remote trace's ids to the tree's by identity
        program, limits, address = served
        config = ExecutionConfig(1000, 64, 512, 200_000, 0, b"\x05")
        with RemoteExecutor(address) as remote:
            first = remote(config).trace
            second = remote(replace(config, input_bytes=b"\x06")).trace
            remote.close()
            third = remote(config).trace
        assert first and second[0][ID] is first[0][ID]
        assert all(x[ID] is y[ID] for x, y in zip(first, third))

    def test_connection_refused_is_transport_error(self):
        dead = RemoteExecutor(("127.0.0.1", 1))
        with pytest.raises(TransportError):
            dead(ExecutionConfig(10, 10, 10, 10, 0, b""))

    def test_oversized_frame_is_transport_error_and_closes(self):
        # a fake server answering a config with a result header that
        # announces one byte more than a frame may carry
        listener = socket.create_server(("127.0.0.1", 0))
        closed_by_client = []

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                conn.recv(4096)
                conn.sendall(bytes([KIND_RESULT])
                             + struct.pack(">I", _MAX_PAYLOAD + 1))
                while conn.recv(4096):
                    pass
                closed_by_client.append(True)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            remote = RemoteExecutor(listener.getsockname()[:2], timeout=10)
            with pytest.raises(TransportError, match="oversized frame"):
                remote(ExecutionConfig(10, 10, 10, 10, 0, b""))
            thread.join(timeout=10)
            assert closed_by_client == [True]
        finally:
            listener.close()

    def test_config_beyond_server_caps_is_transport_error(self, served):
        program, limits, address = served
        config = ExecutionConfig(10 ** 6, 16, 16, 1000, 0, b"")
        with RemoteExecutor(address) as remote:
            with pytest.raises(TransportError):
                remote(config)

    def test_cap_beyond_the_wire_is_transport_error(self, served):
        program, limits, address = served
        with RemoteExecutor(address) as remote:
            with pytest.raises(TransportError, match="max_trace_length"):
                remote(ExecutionConfig(2 ** 64, 16, 16, 1000, 0, b""))
            # the executor reconnects for the next call
            config = ExecutionConfig(100, 16, 16, 1000, 0, b"\x01")
            assert wire_encode(remote(config)) == \
                wire_encode(LocalExecutor(program)(config))

    def test_fuzzing_via_remote_matches_local(self, served, tmp_path):
        program, limits, address = served
        options = FuzzOptions(limits=VmLimits(200, 32, 64, 100_000), seed=11)
        budget = FuzzBudget(max_executions=60)
        local_suite, local_stats = run_fuzzing(program, budget, options)
        with RemoteExecutor(address) as remote:
            remote_suite, remote_stats = run_fuzzing(
                program, budget, options, executor=remote)
        save_suite(tmp_path / "local", local_suite, local_stats, options)
        save_suite(tmp_path / "remote", remote_suite, remote_stats, options)
        local_manifest = (tmp_path / "local/manifest.json").read_bytes()
        remote_manifest = (tmp_path / "remote/manifest.json").read_bytes()
        assert local_manifest == remote_manifest


# 2,000 loop iterations, then a guard: a step budget of 1,000 ends the run
# in the loop
LONG_LOOP = """
int main() {
  int i = 0;
  while (i < 2000) { i = i + 1; }
  int x = nondet_int();
  if (x == 0) { abort(); }
  return 0;
}
"""


class TestStepBudget:
    @pytest.fixture()
    def served(self):
        """A server with the caps of ``gradfuzz serve``'s defaults."""
        program = parse_program(LONG_LOOP)
        server = TargetServer(program, optimizer_limits(VmLimits()))
        server.start()
        yield program, server.address
        server.stop()

    def test_local_and_remote_run_to_the_configs_budget(self, served):
        program, address = served
        limits = VmLimits(step_budget=1000)
        config = limits.config(0, b"")
        local = LocalExecutor(program)(config)
        assert local.termination == TerminationKind.TIMEOUT
        assert 0 < len(local.trace) < 2000
        with RemoteExecutor(address) as remote:
            assert wire_encode(remote(config)) == wire_encode(local)
        # the server's own budget lets the same input reach the guard
        full = optimizer_limits(VmLimits())
        assert LocalExecutor(program)(
            full.config(0, b"")).termination == TerminationKind.CRASH

    def test_fuzzing_via_remote_honours_the_step_budget(self, served,
                                                         tmp_path):
        program, address = served
        options = FuzzOptions(limits=VmLimits(step_budget=1000), seed=3)
        budget = FuzzBudget(max_executions=30)
        local = run_fuzzing(program, budget, options)
        with RemoteExecutor(address) as remote:
            remote_run = run_fuzzing(program, budget, options,
                                     executor=remote)
        save_suite(tmp_path / "local", *local, options)
        save_suite(tmp_path / "remote", *remote_run, options)
        assert local[1].terminations[TerminationKind.TIMEOUT] > 0
        assert (tmp_path / "local/manifest.json").read_bytes() == \
            (tmp_path / "remote/manifest.json").read_bytes()

    @pytest.mark.parametrize("cap", _CAPS)
    def test_config_above_a_servers_cap_drops_the_link(self, cap):
        program = parse_program(LONG_LOOP)
        limits = VmLimits(step_budget=1000)
        server = TargetServer(program, limits)
        server.start()
        config = limits.config(0, b"")
        above = replace(limits, **{cap: getattr(limits, cap) + 1})
        try:
            with RemoteExecutor(server.address) as remote:
                with pytest.raises(TransportError,
                                   match=f"config {cap} exceeds executor "
                                         f"limit {getattr(limits, cap)}"):
                    remote(above.config(0, b""))
                # the next call, within the caps, runs as it does locally
                assert wire_encode(remote(config)) == \
                    wire_encode(execute(program, config))
        finally:
            server.stop()

    def test_a_rejected_config_does_not_spoil_the_next_call(self):
        program = parse_program(LONG_LOOP)
        limits = VmLimits(step_budget=1000)
        server = TargetServer(program, limits)
        server.start()
        config = limits.config(0, b"")
        local = LocalExecutor(program)(config)
        try:
            with RemoteExecutor(server.address) as remote:
                # the first result leaves a previous trace on both ends
                assert wire_encode(remote(config)) == wire_encode(local)
                with pytest.raises(TransportError, match="step_budget"):
                    remote(VmLimits(step_budget=1001).config(0, b""))
                # a new connection, coded against the empty trace again
                assert wire_encode(remote(config)) == wire_encode(local)
        finally:
            server.stop()
