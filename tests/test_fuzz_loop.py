import gc
import hashlib
import json
import math
import os
import random
import re
import socket
import struct
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from gradfuzz.exec_tree import TreeNode
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
        # the budget is checked after each input, so the loop stops
        # before it asks the strategy for a session
        engine = FuzzEngine(parse_program(MAGIC),
                            FuzzBudget(max_executions=1), small_options())
        engine.strategy.select_analysis = lambda: pytest.fail(
            "a session was built")
        suite, stats = engine.run()
        assert stats.total_executions == 1
        assert stats.sessions == []
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
        # only the lowest bit of the byte read avoids the division by
        # zero, so the trace appears at the ninth input: a budget of three
        # ends the loop inside the bootstrap, before any session
        source = ("int main() { int q = 5 / (nondet_char() & 1);"
                  " if (q > 1) { abort(); } return 0; }")
        for budget, bootstrap in ((3, 3), (200, 9)):
            engine = FuzzEngine(parse_program(source),
                                FuzzBudget(max_executions=budget),
                                small_options())
            _, stats = engine.run()
            assert stats.executions_by_kind["bootstrap"] == bootstrap
            assert (engine.tree.root is None) is (budget == 3)
            assert bool(stats.sessions) is (budget == 200)

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
            for pair in test.new_pairs + test.id_pairs:
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
        deactivated = []
        deactivate = engine._deactivate
        engine._deactivate = lambda session: (deactivated.append(session),
                                              deactivate(session))
        _, stats = engine.run()
        assert stats.terminated_by_strategy is not cut
        # each session leaves the loop once, and is logged then
        assert len({id(s) for s in deactivated}) == len(deactivated) \
            == len(stats.sessions)
        for kind in AnalysisKind:
            assert stats.executions_by_kind[kind.value] == sum(
                s.executions for s in stats.sessions if s.kind == kind.value)
        if cut:
            # logged once, and not finished: its analysis did not end;
            # closed, so its coroutine no longer refers back to it
            session = deactivated[-1]
            assert session.kind == AnalysisKind.SENSITIVITY
            assert session.exhausted and session.next_input() is None
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
        # a spent budget still runs the empty input, and nothing after it
        suite, stats = run_fuzzing(parse_program(MAGIC),
                                   FuzzBudget(max_seconds=0),
                                   small_options(seed=1))
        assert stats.total_executions == 1 and stats.sessions == []
        assert [t.input_bytes for t in suite.tests] == [bytes(4)]

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

# the ROADMAP's measured misses: a 32-bit xor gate, the same gate on a
# variable holding the xor, a division before the only branch, and the
# xor gate starving a later range gate
XOR_GATE = """int main() {
  int x = nondet_int();
  if ((x ^ 23130) > 100000) { if ((x ^ 23130) < 100003) { abort(); } }
  return 0;
}"""
XOR_VARIABLE = """int main() {
  int x = nondet_int();
  int y = x ^ 23130;
  if (y > 100000) { if (y < 100003) { abort(); } }
  return 0;
}"""
DIVISION_FIRST = """int main() {
  int q = 5 / nondet_char();
  if (q > 1) { abort(); }
  return 0;
}"""
STARVATION = """int main() {
  int x = nondet_int();
  if ((x ^ 23130) > 100000) { if ((x ^ 23130) < 100003) { abort(); } }
  int y = nondet_int();
  if (y > 5000) { if (y < 5003) { if (y == 5001) { return 1; } } }
  return 0;
}"""

LITERAL_TARGETS = {"gen_program_11": GEN_PROGRAM_11, "header": HEADER_TARGET,
                   "xor_gate": XOR_GATE, "xor_variable": XOR_VARIABLE,
                   "division_first": DIVISION_FIRST, "starvation": STARVATION}

# the byte-identity sweep: (manifest.json, stats.json) sha256 of every
# target under benchmarks/ and bench/targets/ and of the four misses, at
# seeds 1 and 2, fill bytes 0 and 85 and default limits, each case named
# <target>-seed<n>-fill<byte>
SWEEP_SHA256 = {
    "counted_loop.mc-seed1-fill0": (
        "9236e9e6744e660612709b5f0386c328a846f3f45c1b66d4f5500e01e3228359",
        "ff09792b2e38aa8e5d9d913c4aac815392656b0e28ef29c51849dbaaebff6a6f"),
    "counted_loop.mc-seed1-fill85": (
        "105ca0ae1f9d57875574d425d30a8ee65cccb0a4bcc40d4321bf74b37cd97493",
        "748c0b4ef4160a03e6338ccf91793c6537912357d0d2e2e60ee284be7de46012"),
    "counted_loop.mc-seed2-fill0": (
        "7adb6da6e28076a4ffd637c85c653efd5513f513de018de455179b0fc53ebd59",
        "0ae385ff22540a266ff7dbb80cb6636ebfc892a9e967e9b93df0afa19a1f70a7"),
    "counted_loop.mc-seed2-fill85": (
        "72d13a9a81b0358887b00e24ae1446297dc04004a77fd51b1a4841ae5834cfb4",
        "c6806264c581b08772cf27d691b720482e72e393854fac4d7747799d474d9c3c"),
    "four_branch.mc-seed1-fill0": (
        "ee13ee93abb14b4bc9aedbf41ff7ed1c982f27c710d30ba1e3c265ab1aedf25b",
        "cfbfb3cde3ac92347daba6d9d973dee3230e4f67dc28fe9a079308eb836288fc"),
    "four_branch.mc-seed1-fill85": (
        "006b69b085b5f45f211361e1a945bd5495cc867b23f2f8fdfa49dad313250db6",
        "c02c351602d2497b43ae565037285c48a4763327b4be430b5b1b354df9014221"),
    "four_branch.mc-seed2-fill0": (
        "52b1000d4d72b33e0ffa5ac6563d5c371c77cbbd2b07df9d456a45f60e40f0b0",
        "6fa926169199fbbc31a7b93210fb187df362138c35e6908bd4c61855fd2feb0a"),
    "four_branch.mc-seed2-fill85": (
        "ba4a0d98935535ab5f0d793e3830e8f96a7d6bdb2788fd46587039e5a937a7e5",
        "de0ff18b63df660498e09f4bb0437188643c859fd4e637e5e1601cda77f2e2bc"),
    "loop_accumulator.mc-seed1-fill0": (
        "e43d5a65f3201bc464ec6cde37faa510177a2e1fa454372815f7fe0302ab90be",
        "3b03cb5e2735a104c7ea0261211c7798174d265bd6cec3a295019b6051cb528f"),
    "loop_accumulator.mc-seed1-fill85": (
        "c9db0979c2beb6b4cd186f7cc31685c2f2cdf39a621914171a5e045cf0c25df4",
        "c5fc7498b0c3fdb542f97608ba463a1ba40f08664c236d9a510ff0eec5892085"),
    "loop_accumulator.mc-seed2-fill0": (
        "ebed3063a546ff1afa871c0d64b7bad3ade2e26529068645c740833e55174b55",
        "1310855bc0086a0c8c862c324b21f1fc647a4dff8bf2e7709604cd56e687e670"),
    "loop_accumulator.mc-seed2-fill85": (
        "beacb87c5d5a8eeb383ba9faa4244022360fe3e7149f28299442bfdff5be815f",
        "e598594250f5d64668b8c130c16f7263beb0f23bf97d39ef9bbab510f7d54435"),
    "magic_equal.mc-seed1-fill0": (
        "8ccb86409ec0f7317eef4fc2d7dfc37830ac2b1c273895b4a1711840a5596d3e",
        "1e9f7b9e984d9cf09e8a473a03b3c953500fc55d262de0c2e5223ff00a5704ff"),
    "magic_equal.mc-seed1-fill85": (
        "a654dfb73dcb049a722249aa173e772f55d19005fe10306ccaa0717ee0a1f05a",
        "8439c06ddc6d422736e0a64a5b68e58dc5372f840313b26a5fae6c59951cbbe7"),
    "magic_equal.mc-seed2-fill0": (
        "d436f473848a7e5eb27d71f18ee8f3201d51f5fc9ca70e7dc798339d71604060",
        "724f64ee03eb3dd40c735b3bc68f715b3a606cecc074b2afe0ffed64c9b01869"),
    "magic_equal.mc-seed2-fill85": (
        "21f7b6cccbb1a5f3503ffdbf2f80891646c50860688ec6498c148b6b068c23d7",
        "54292a7224fc570358277d1521828b38d4b52eda55a3daca4d1eadb2e72c8cc4"),
    "sensitivity_pair.mc-seed1-fill0": (
        "003b0229d23c5c4a51026e80c65a907e9d75b327de7618276f5a54887150e282",
        "4ef18d8766472bfeee5dcbd2a48c9f483c0a82ef691f3291a46f4e3d89c4a8fd"),
    "sensitivity_pair.mc-seed1-fill85": (
        "897f10047f2f52ac7566ad3c6db2e648af969b94d042595129836869723cb657",
        "131acf23093f62205f612dcc67251e0afe58d339beffa01cad0471d37a7a9a92"),
    "sensitivity_pair.mc-seed2-fill0": (
        "9c8bab39bcad4b88c30c6ba9ce82ff810d13ef6875c5dcfe64ead7f060f21f00",
        "e896e0e6392b9d4b37b023bf07ade951c4e0c234161138239b15903136b2b49f"),
    "sensitivity_pair.mc-seed2-fill85": (
        "f6f243fea578c06583a89e983022dc54be896806bdee0434c966b345474eff07",
        "8222045778a9efc142bf66fbefe10583e516d47af3328ef851839d6bc2af0a11"),
    "shared_check.mc-seed1-fill0": (
        "4c38025ec138ac642af8b5c1418e67bed5174a2a9d51b4e155511e36fd5e5361",
        "5ff91ef2a02ae6ac0de54f078214284480dfd8a7ec4696d1d939109982c897d4"),
    "shared_check.mc-seed1-fill85": (
        "deeec9cd7607d5f92ee80b523e19cccf49433e92ccda9269237427055d5d1ae7",
        "1dcb6dfbfb00fcea4a4bc629fe5ccadb70a32ad1d1afa0191c01855f701e65c0"),
    "shared_check.mc-seed2-fill0": (
        "1b7a1bda1d5366f1d07c6f60aef1fdbcde34628ecef1c3aaff46e62986dfb3e2",
        "2c41fea7d7ce202a27324bb8fe0ad8af499bf83be4c84346725f12c0e9a0f627"),
    "shared_check.mc-seed2-fill85": (
        "fb1206ec369af76b021b3b9c73c193bb1c535d4d7889c879a6057c85259eb6d6",
        "be9930687c88ebe6a70539f809ceb530d8ec5ffd7d65d35f6be6a2992a9565ec"),
    "stuck_nibble.mc-seed1-fill0": (
        "8d48ec08495629b45b1599c6ff4175a128356d4b323e115a24b8a699aa558e88",
        "55d4050ac32723abcbf17054a708f456f113658158dd5dc734c7045c67e69949"),
    "stuck_nibble.mc-seed1-fill85": (
        "02000e41b24f64f6f4930dc3791679fa1e440fe674bcac658a1e548f3d12c617",
        "de5cfbab6b51f80dbcf1438f779786ccf160bd06d0924037eed99250ae25d137"),
    "stuck_nibble.mc-seed2-fill0": (
        "582f96a603f0a453eecb7c21fd610fa98503761f76c17f729cc86fbc0a328b10",
        "c992dadf13cac2c9d937453e99c05777d354fb05aead27ffef9bb687b2077fdd"),
    "stuck_nibble.mc-seed2-fill85": (
        "766172fd329a22b8fd96923e58117ebe617153312a47dbb86532871368981173",
        "fddb0fbdb807f4f52f84caf2f6a0f64f39cccd374c5c078bf95a889e8a23622b"),
    "xor_mask.mc-seed1-fill0": (
        "97c4e75ade740f8abf48231240e7059c05756f3c73a20a5206baf53a9fcf1290",
        "3baeb41d5c190ad4f4d6204e20e293746018df00139d1e8082de758926649b11"),
    "xor_mask.mc-seed1-fill85": (
        "091c936ec85c040895c8f9155b826df615ebf9e68b795ab1e1bd023d4a35ade9",
        "26de00561e706072a4d205f052e5703f9d1f9146843ca42df55f5e5ebee613ac"),
    "xor_mask.mc-seed2-fill0": (
        "6232d6b267dad68acd51c46ae9ac12d7fd3111b3a59cfd9402ee60f3f40672d8",
        "ba780ecd8ec21bc4dd993d559ef792d4b8e4e8b43db9cb291915f6f819cf2d5f"),
    "xor_mask.mc-seed2-fill85": (
        "e3a4554623d2514ef3c4eb71c7eb1f72990ca76153a48b0ee8160eeddb40c0fc",
        "7831afd908d3743718baf47a2419933f20892fae93c768e34a9e1decd1d548bc"),
    "parser.mc-seed1-fill0": (
        "af95bf0e0334e5b7a794736ff1c3ae9dcbe67b4fc33342a080f79fac34c57122",
        "8cd810c9327ad3a0dfe6bd5b7fafb26c36fc2e6f20e78e6c33670f58153b22a8"),
    "parser.mc-seed1-fill85": (
        "fbae383f5998c9aae9b697a2bbb6d23b1faac68a52b4809b15578d882240ccd5",
        "249799415e2b11e875becce49e4bd1d4c767eb06229691b85e684f79e5629f5a"),
    "parser.mc-seed2-fill0": (
        "9206ff5daf71126ae4fa72b44ec82271f95180131d06b30b1618db5c38fe757c",
        "d4f5e0341020ea5bead0284a3c29198631a406ed2dd7270bf091273acffad295"),
    "parser.mc-seed2-fill85": (
        "180b8698351e2ac82c04a1ec2995d15cd156b4c66a172ba7a7f2b3b4de560e45",
        "521f552fa65f072020123d168227754f39748d83f933e85bc206e4a7d510c761"),
    "scanner.mc-seed1-fill0": (
        "e56c0c66618daa6dc57d80750483092536e474d14e30ac78ff82acb34fbf216c",
        "0c79f1e43cc059c7c2b1dd6447ab61a02c8b15c763d3e6a579bd49e9f698e274"),
    "scanner.mc-seed1-fill85": (
        "96a8501e3ccf8b622bfee6b5de04e496b8661ec53bc0c612c3620780ffac5c5d",
        "9d8a12270ad694e71e437e6502494f72801b249ba50a8354cac2a17053b0b5ae"),
    "scanner.mc-seed2-fill0": (
        "aa4086dbb2d2c55ba6b0c72660880f91915bab2f44eb897c5dadb1e2b4be926c",
        "2fb244facdc9fcfe604c5b73eced19ff23b313f8989102301b30ab37a87073ac"),
    "scanner.mc-seed2-fill85": (
        "fe8349c795562027a352c6ac5caf9b2aacf0082063e864f37881baa8d556482f",
        "63a52ebaebd9d4847a42464f0907658f6639870d0377649f81bfd5338b3de56a"),
    "xor_gate-seed1-fill0": (
        "ecb6c78635f941843f5bb228e2a9c4f15355f13b8163d21a8d0bb4e0bbc02051",
        "5d4f923fab4c6ffe7108de95f57cdddf21f5a2e81a960eb4d6b14c455b0a973c"),
    "xor_gate-seed1-fill85": (
        "73b9c0343423594392f34befe633206838fb505e4296e4fc1db624637ba389ca",
        "7446d03bf55338071ec2f3599d6b31ecabc3cfd609c021d90c76c5f4a94a285d"),
    "xor_gate-seed2-fill0": (
        "defa1657c05c3ae6ffa2cef679382689f2d09afaa93e2a1820216675a0379368",
        "9ed3231ac62bb5fd0d785a987e541f1f3c52e54038a2a2e42f7c8c373df25212"),
    "xor_gate-seed2-fill85": (
        "23e1458fa32b7238d6f3c36c01d320a61cfde54375aa47fd06f43e1cceceb965",
        "574f5c04d6b4adc89cb86f547b65ff5bc24790380f69e83964299b842a78d53d"),
    "xor_variable-seed1-fill0": (
        "08494b4c0f03a08002c80e4a7ae4d83b210422716d1293d55e86306de0e7bb46",
        "f9fe9ce467a8e24a5488d543638dcbc1badd4241509487e6f5e31f99fee80f87"),
    "xor_variable-seed1-fill85": (
        "f1e8a9ece98a009e78b4d7c32861ff6ac8bf31a5da6e6650ee3fafe7214aa6d7",
        "9fe31cfc0b4c639bfbfdd1d7165851b75af037cf8ddc4fcdbae6f7a6c6798e12"),
    "xor_variable-seed2-fill0": (
        "200ec76f77f7791f094d10ff1d0c319d3f4eb45f26110b56c675e1772691ffd5",
        "2df05cb90fa711955963244aab286bb2ac0ddf73ca338b4569deacd6c24a1b7f"),
    "xor_variable-seed2-fill85": (
        "6bbb92a4364fe476a118fc4a3fdac300b2b6d628f8aa123662818da7d50e8d4e",
        "a1638e5f17f52afe600ebbebe5397e4b96559aa84733e4dcf1631cb9b661347b"),
    "division_first-seed1-fill0": (
        "a9c2e293694ceae3dd1d5a5879eecec1e95673d3ddaef95bf230aa2e7715f5ae",
        "faa586e327202006ba96a3f2945d9abf84e291cbcee5a9868b8b220de4981bd1"),
    "division_first-seed1-fill85": (
        "3f05be6f910581106f88d3f5cedc2f30bb0eba24aee7d9b544c1b3a5c6546479",
        "1e4b3de5c6822fd8a33446e596f13935e4716f2c909922bb684c18bf5efc2a0b"),
    "division_first-seed2-fill0": (
        "5c8bf083da1a7329bb3cb1b67af9bdb9adfe5f87e42a73ad7ed4c795085dea10",
        "3c87f1e11700f53c9468a7c2f68e3cea08a4ff423fccc00912035405f073d4ec"),
    "division_first-seed2-fill85": (
        "1b241761f8762d5d08b3d4adab69c71d73d0cd9062119905eec41b04119c1ab9",
        "74ea345b83d8edee77bc065e057e6afd24ca099cfcb0875e75f541ca607f626d"),
    "starvation-seed1-fill0": (
        "7ebae21892580dac1701d0c76221867614ac95331cfd99ff470773ffc56a95a8",
        "0d1b1db5c27948217d380c7927ee4aa8afeb19e5789a94abf531d0689e02d2b8"),
    "starvation-seed1-fill85": (
        "7bb09b24dd6af7ef6c86fcdd6ad91ff4e0b844d9745879c8097fb248264cedce",
        "425b460db51359dc3778faf6a1ea868163e035ac233b941c97799368780cd029"),
    "starvation-seed2-fill0": (
        "9650919b7517122995da17ea7c9dcf79d50619059b9dc9dd01c96ba54dc05905",
        "99525775788b464e910ecb5eef5bb641f03cec2b45162221517da69da273c372"),
    "starvation-seed2-fill85": (
        "9d05d3fd03160740ccd006a1c97a231fe2c7300179a03aa7624a2c02571d2e2f",
        "20065ec9bfeda7d5663144063409db719934651c0bad485762088e1392065960"),
}


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

    # manifest.json sha256 at a fixed seed, seed 5 and fill byte 0
    # unless the case is one of SWEEP_SHA256's.  counted_loop under a
    # short trace cap keeps an optimizer test; loop_accumulator selects a
    # twin twice; gen_program_11 takes a node from the Monte Carlo walk
    # five times; the header target answers 102 of its 322 inputs from
    # the read-prefix memo, which no target under benchmarks/ reaches.  A
    # refactor must keep these; a change meant to alter behaviour records
    # the new values.  STATS_SHA256 pins each case's stats.json beside
    # its manifest: the per-session calls and executions, the session
    # the budget cut, the memo hits and the executions by kind can move
    # while the manifest stays the same.
    STATS_SHA256 = {
        "counted_loop.mc":
        "ecc34370feb2fbfadb41ea1c9cd65161a249ecb845425bd4f21e9c8624ea6181",
        "four_branch.mc":
        "b0943a653772fc6242843d7f8ac0e1338ee2b3d88987edd27fbd63f84c3384f0",
        "loop_accumulator.mc":
        "7aa028cdfee8ccfa6a1cfde50ea010109be1c50fa8b475b24d9d3dbf45f22062",
        "gen_program_11":
        "f5d7cf38a5d394a1ecc1328e0851d9d4d3217e99b7783812c1dcb0f8aa75a20d",
        "header":
        "63839f42d72223ceaaaf1b49c08f96463eeff3456842b4f796b74c266a8b7af9",
        **{case: stats for case, (_, stats) in SWEEP_SHA256.items()},
    }

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
        *[(case, VmLimits(), manifest)
          for case, (manifest, _) in SWEEP_SHA256.items()],
    ])
    def test_fixed_seed_manifest_fingerprint(self, tmp_path, name, limits,
                                             sha256):
        target, seed, fill = name, 5, 0
        swept = re.fullmatch(r"(.+)-seed(\d+)-fill(\d+)", name)
        if swept:
            target, seed, fill = swept[1], int(swept[2]), int(swept[3])
        if target in LITERAL_TARGETS:
            source = LITERAL_TARGETS[target]
        else:
            source = next(path for path in (ROOT / "benchmarks" / target,
                                            BENCH_TARGETS / target)
                          if path.exists()).read_text()
        program = parse_program(source)
        options = FuzzOptions(limits=limits, seed=seed, fill_byte=fill)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=2000),
                                   options)
        save_suite(tmp_path, suite, stats, options)
        manifest = (tmp_path / "manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == sha256
        stats_json = (tmp_path / "stats.json").read_bytes()
        assert hashlib.sha256(stats_json).hexdigest() == \
            self.STATS_SHA256[name]

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

    def test_replay_checks_stored_id_pairs(self, tmp_path):
        # an id pair no run observed, with the uid pairs and the coverage
        # summary left as the engine wrote them
        program = parse_program(SENSE_PAIR)
        options = small_options(seed=3)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=100),
                                   options)
        save_suite(tmp_path, suite, stats, options)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["tests"][-1]["id_pairs"][-1] = [99999, 1, True]
        path.write_text(json.dumps(manifest))
        ok, divergence = replay_suite(program, tmp_path)
        assert not ok
        assert divergence.endswith("observed id pairs differ")


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


class ScriptedSession:
    """A session that hands the loop fixed inputs and counts its feeds."""

    kind = AnalysisKind.SENSITIVITY
    achieving_input = None
    anchored = False

    def __init__(self, inputs):
        self.inputs = list(inputs)
        self.fed = 0

    def next_input(self):
        return self.inputs.pop(0) if self.inputs else None

    def feed(self, result):
        self.fed += 1


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
        # the empty input maps the one record; then a session hands the
        # loop an input whose run reads one byte of two, and one over the
        # cap that starts with that byte
        program = parse_program(EARLY_EXIT.format(exit="return 1;"))
        engine = FuzzEngine(program, FuzzBudget(max_executions=10),
                            FuzzOptions(limits=MEMO_LIMITS))
        long_input = b"\x00" * (MEMO_LIMITS.max_input_bytes + 1)
        session = ScriptedSession([b"\x00\x01", long_input])
        engine.strategy.select_analysis = lambda: session
        with pytest.raises(ValueError, match="longer than max_input_bytes"):
            engine.run()
        assert engine._memo.recall(long_input) is not None
        assert engine.stats.iterations == 2
        assert session.fed == 1


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


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_TARGETS = ROOT / "bench" / "targets"


def tree_nodes_alive():
    return sum(type(o) is TreeNode for o in gc.get_objects())


def assert_freed_on_drop(make_engine):
    """Run the engine ``make_engine`` builds and drop it with the
    collector off: its tree must go with it, by reference counting, so
    no node outlives it and a collection then finds nothing."""
    gc.collect()
    before = tree_nodes_alive()
    engine = make_engine()
    engine.run()
    assert engine.tree.nodes
    gc.collect()
    gc.disable()
    try:
        del engine
        left = tree_nodes_alive() - before
        found = gc.collect()
    finally:
        gc.enable()
    assert (left, found) == (0, 0)


def bench_program(name):
    return parse_program((BENCH_TARGETS / name).read_text())


def bench_engine(program, seed, max_executions, executor=None):
    return FuzzEngine(program, FuzzBudget(max_executions=max_executions),
                      FuzzOptions(seed=seed), executor=executor)


class TestFreedByReferenceCounting:
    """A finished campaign holds no reference cycle: the tree's successor
    slots are its only links, and a session that leaves the loop closes
    its coroutine, whose frame refers back to the session.  A compiled
    program goes the same way: its emitted functions refer back to their
    namespace, which is emptied once the program is freed."""

    # scanner stops mid-session at 600 executions, parser fuzzes to
    # completion well below 20,000
    CASES = [("scanner.mc", 600), ("parser.mc", 20_000)]

    @pytest.mark.parametrize("name, budget", CASES)
    def test_local(self, name, budget):
        program = bench_program(name)
        assert_freed_on_drop(lambda: bench_engine(program, 5, budget))

    @pytest.mark.parametrize("name, budget", CASES)
    def test_remote(self, name, budget):
        program = bench_program(name)
        server = TargetServer(program, optimizer_limits(VmLimits()))
        server.start()
        try:
            with RemoteExecutor(server.address) as remote:
                assert_freed_on_drop(
                    lambda: bench_engine(program, 5, budget, remote))
        finally:
            server.stop()

    @pytest.mark.parametrize("name", ["scanner.mc", "parser.mc"])
    def test_a_dropped_program(self, name):
        program = bench_program(name)
        execute(program, VmLimits().config(0, b""))
        entry = weakref.ref(program.compiled)
        gc.collect()
        gc.disable()
        try:
            del program
            alive = entry() is not None
            found = gc.collect()
        finally:
            gc.enable()
        assert (alive, found) == (False, 0)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("path", sorted(
        (ROOT / "benchmarks").glob("*.mc"))
        + [BENCH_TARGETS / "parser.mc", BENCH_TARGETS / "scanner.mc"],
        ids=lambda path: path.name)
    def test_every_target(self, path, seed):
        program = parse_program(path.read_text())
        assert_freed_on_drop(lambda: bench_engine(program, seed, 2_000))

    def test_a_deep_chain_is_freed(self):
        # 20,000 loop steps overrun the 10,000-record trace cap; the
        # optimizer's re-run under 32 times the cap maps all 20,001
        # records, a chain of as many nodes.  With the collector off,
        # dropping the engine frees the chain node by node from the root,
        # through CPython's deallocation trashcan, in a fresh interpreter
        # at its default C stack.
        code = (
            "import gc\n"
            "from gradfuzz.exec_tree import TreeNode\n"
            "from gradfuzz.fuzz_loop import FuzzBudget, FuzzEngine,"
            " FuzzOptions\n"
            "from gradfuzz.minivm import parse_program\n"
            "program = parse_program('int main() { int i = 0;"
            " while (i < 20000) { i = i + 1; } return 0; }')\n"
            "engine = FuzzEngine(program, FuzzBudget(max_executions=10),"
            " FuzzOptions())\n"
            "engine.run()\n"
            "print(max(node.depth for node in engine.tree.nodes))\n"
            "gc.disable()\n"
            "del engine\n"
            "print(sum(type(o) is TreeNode for o in gc.get_objects()))\n")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["20000", "0"]
