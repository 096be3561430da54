import hashlib
import random
from pathlib import Path

import pytest

from gradfuzz.executors import (
    LocalExecutor,
    RemoteExecutor,
    TargetServer,
    TransportError,
)
from gradfuzz.fuzz_loop import (
    FuzzBudget,
    FuzzOptions,
    replay_suite,
    run_fuzzing,
    save_suite,
)
from gradfuzz.minivm import VmLimits, parse_program
from gradfuzz.target_abi import (
    ExecutionConfig,
    TerminationKind,
    wire_encode,
)

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

    def test_kept_tests_brought_new_pairs_or_crashed(self):
        suite, stats = run_fuzzing(parse_program(XOR),
                                   FuzzBudget(max_executions=2000),
                                   small_options(seed=4))
        for test in suite.tests:
            assert (test.iteration == 0 or test.new_pairs
                    or test.termination == TerminationKind.CRASH)

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
        assert stats.terminations["BOUNDARY_CONDITION_VIOLATION"] > 0
        save_suite(tmp_path, suite, stats, options)
        ok, divergence = replay_suite(program, tmp_path)
        assert ok, divergence

    def test_goal_sessions_always_have_sensitive_bits(self, monkeypatch):
        from gradfuzz.fuzz_loop import FuzzEngine
        from gradfuzz.generators import AnalysisKind

        seen = []
        original = FuzzEngine._make_session

        def recording(self, selection):
            seen.append((selection.kind, len(selection.node.sensitive_bits)))
            return original(self, selection)

        monkeypatch.setattr(FuzzEngine, "_make_session", recording)
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
    # times.  A refactor must keep these; a change meant to alter
    # behaviour records the new values.
    @pytest.mark.parametrize("name, limits, sha256", [
        ("counted_loop.mc", VmLimits(max_trace_length=40),
         "80eee41e99390296a4b75f9d685e54012c047dbb41988ab5e12cea4bf8ab2477"),
        ("four_branch.mc", VmLimits(),
         "9bc7c68e9ccdbaf54c7956044e7a0ee77fa9b40b41e341315f050de8d30c63ec"),
        ("loop_accumulator.mc", VmLimits(),
         "b9d66800c424886653fa3517e913ce875a6ce99f1fce1c93b4b302cc411fb3b8"),
        ("gen_program_11", VmLimits(100, 32, 32, 50_000),
         "0dbfe8764f157c3fc69d36aef01ab79bb376b81fd28b7c78aad4959ba4ca2c3b"),
    ])
    def test_fixed_seed_manifest_fingerprint(self, tmp_path, name, limits,
                                             sha256):
        if name == "gen_program_11":
            source = GEN_PROGRAM_11
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

    def test_no_rerun_after_deadline(self):
        program = parse_program(FIXED_LOOP)
        options = small_options(seed=0, max_trace_length=20)
        suite, stats = run_fuzzing(program, FuzzBudget(max_seconds=0.0),
                                   options)
        assert suite.tests[0].termination == \
            TerminationKind.BOUNDARY_CONDITION_VIOLATION
        assert stats.executions_by_kind["optimizer"] == 0

    def test_extended_tests_replay(self, tmp_path):
        program = parse_program(BOUNDED_LOOP)
        options = small_options(seed=6, max_trace_length=10)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=400),
                                   options)
        save_suite(tmp_path, suite, stats, options)
        ok, divergence = replay_suite(program, tmp_path)
        assert ok, divergence


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
        local = LocalExecutor(program, limits)
        rng = random.Random(0)
        with RemoteExecutor(address) as remote:
            for _ in range(100):
                max_input = rng.randrange(1, 64)
                config = ExecutionConfig(
                    max_trace_length=rng.randrange(1, 200),
                    max_stack_size=rng.randrange(2, 64),
                    max_input_bytes=max_input,
                    fill_byte=rng.choice((0, 85)),
                    input_bytes=rng.randbytes(
                        rng.randrange(0, min(max_input, 8) + 1)),
                )
                local_result = local(config)
                remote_result = remote(config)
                assert wire_encode(local_result) == \
                    wire_encode(remote_result)

    def test_connection_refused_is_transport_error(self):
        dead = RemoteExecutor(("127.0.0.1", 1))
        with pytest.raises(TransportError):
            dead(ExecutionConfig(10, 10, 10, 0, b""))

    def test_config_beyond_server_caps_is_transport_error(self, served):
        program, limits, address = served
        config = ExecutionConfig(10 ** 6, 16, 16, 0, b"")
        with RemoteExecutor(address) as remote:
            with pytest.raises(TransportError):
                remote(config)

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
