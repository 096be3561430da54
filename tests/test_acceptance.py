"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""
import math
import random
import time
from pathlib import Path

import pytest

from gradfuzz.cli import main as cli_main
from gradfuzz.executors import LocalExecutor, RemoteExecutor, TargetServer
from gradfuzz.exec_tree import ExecTree
from gradfuzz.fuzz_loop import (
    FuzzBudget,
    FuzzEngine,
    FuzzOptions,
    run_fuzzing,
    save_suite,
)
from gradfuzz.generators import (
    BinaryDescentSession,
    DescentSession,
    SensitivitySession,
    lambda_step,
)
from gradfuzz.minivm import VmLimits, parse_program
from gradfuzz.strategy import Strategy, biased_index, detect_loops
from gradfuzz.target_abi import (
    UID,
    ExecutionConfig,
    TerminationKind,
    wire_decode,
    wire_encode,
)
from helpers import (
    bootstrap_tree,
    chain_from_uids,
    drive_session,
    oracle_detect_loops,
    random_wire_config,
    random_wire_result,
    uid_covered,
)

BENCH = Path(__file__).parent.parent / "benchmarks"


def bench(name: str) -> str:
    return (BENCH / name).read_text(encoding="utf-8")


def options(seed: int) -> FuzzOptions:
    return FuzzOptions(limits=VmLimits(1000, 64, 256, 200_000), seed=seed)


def ok(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_01_magic_constant_all_seeds():
    program = parse_program(bench("magic_equal.mc"))
    started = time.monotonic()
    for seed in range(10):
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=5000),
                                   options(seed))
        assert stats.total_executions <= 5000
        assert stats.coverage["uids_covered"] == 1
        assert any(t.termination == TerminationKind.CRASH
                   for t in suite.tests)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    ok(f"1: magic constant covered with a crash test on 10 seeds "
       f"in {elapsed:.2f}s")


def test_criterion_02_sensitivity_ground_truth(monkeypatch):
    program = parse_program(bench("sensitivity_pair.mc"))
    # the bit-precise marks stay in each session: gather them per node
    raw_bits = {}
    finish = SensitivitySession.finish

    def gathering_finish(session):
        for k, node in enumerate(session.path_nodes):
            raw_bits.setdefault(node, set()).update(
                session.raw_marks.get(k, ()))
        return finish(session)

    monkeypatch.setattr(SensitivitySession, "finish", gathering_finish)
    engine = FuzzEngine(program, FuzzBudget(max_executions=100), options(0))
    engine.run()
    by_uid = {}
    for node in engine.tree.nodes:
        if node.sensitive_bits:
            by_uid.setdefault(node.id[UID], node)
    bi0 = by_uid[1]
    bi1 = by_uid[2]
    assert sorted(raw_bits[bi0]) == [5, 6, 7]
    assert sorted(raw_bits[bi1]) == [5, 6]
    assert sorted(bi0.sensitive_bits) == list(range(8))
    assert sorted(bi1.sensitive_bits) == list(range(8))
    ok("2: bit-precise sensitivity {5,6,7}/{5,6}, full byte after widening")


def test_criterion_03_xor_dispatches_bit_level_minimization():
    program = parse_program(bench("xor_mask.mc"))
    suite, stats = run_fuzzing(program, FuzzBudget(max_executions=2000),
                               options(1))
    assert stats.coverage["uids_covered"] == 1
    kinds = [s.kind for s in stats.sessions]
    assert "typed_minimization" not in kinds
    achiever = [s for s in stats.sessions if s.achieved]
    assert achiever and achiever[0].kind == "minimization"
    assert stats.total_executions <= 2000
    ok(f"3: xor guard covered by bit-level minimization in "
       f"{stats.total_executions} executions")


def test_criterion_04_stuck_minimum_escaped_within_one_sweep():
    program, tree, executor = bootstrap_tree(bench("stuck_nibble.mc"))
    node = tree.root
    node.sensitivity_done = True
    node.sensitive_bits = set(range(8))
    session = BinaryDescentSession(node, True, random.Random(0))
    outcome = drive_session(session, executor, tree)
    assert outcome == "achieved"
    assert len(session.descent_logs) == 1
    assert uid_covered(tree, node.id[UID])
    for log in session.descent_logs:
        assert all(b < a for a, b in zip(log, log[1:]))
    ok("4: bit-swapped nibble guard covered within the first seed")


def test_criterion_05_bitshare_reuses_solved_context():
    program = parse_program(bench("shared_check.mc"))
    suite, stats = run_fuzzing(program, FuzzBudget(max_executions=5000),
                               options(2))
    assert stats.coverage["execution_ids_covered"] == 2
    shares = [s for s in stats.sessions
              if s.kind == "bitshare" and s.achieved]
    assert shares
    assert shares[0].executions < 10
    ok(f"5: second calling context covered by bitshare in "
       f"{shares[0].executions} execution(s)")


def test_criterion_06_loop_detection_matches_reference():
    rng = random.Random(100)
    mismatches = 0
    for _ in range(1000):
        length = rng.randrange(1, 31)
        alphabet = rng.randrange(1, 9)
        uids = [rng.randrange(alphabet) for _ in range(length)]
        path = chain_from_uids(uids)
        loops, heads2bodies = detect_loops(path)
        got = ([(l.entry.depth, l.exit.depth, l.successor.depth)
                for l in loops],
               {k: set(v) for k, v in heads2bodies.items()})
        if got != oracle_detect_loops(uids):
            mismatches += 1
    assert mismatches == 0
    ok("6: loop boundaries equal the reference transcription on 1000 paths")


def test_criterion_07_descent_numeric_checks(monkeypatch):
    rng = random.Random(7)
    for _ in range(10 ** 4):
        m = rng.randrange(1, 8)
        gradient = [rng.uniform(-1e6, 1e6) or 1.0 for _ in range(m)]
        value = abs(rng.uniform(1e-6, 1e9))
        lam = lambda_step(value, gradient)
        norm2 = sum(g * g for g in gradient)
        assert abs(lam * norm2 - value) <= 1e-9 * value
    # descent logs from both gradient flavours stay strictly decreasing
    logs = []
    finish = Strategy.finish

    def logging_finish(self, session):
        if isinstance(session, DescentSession):
            logs.extend(session.descent_logs)
        finish(self, session)

    monkeypatch.setattr(Strategy, "finish", logging_finish)
    for name, seed in (("magic_equal.mc", 3), ("xor_mask.mc", 4)):
        program = parse_program(bench(name))
        run_fuzzing(program, FuzzBudget(max_executions=3000), options(seed))
    assert logs
    for log in logs:
        assert all(b < a for a, b in zip(log, log[1:]))
    ok(f"7: step-length identity on 10^4 gradients; {len(logs)} descent "
       f"logs strictly decreasing")


def test_criterion_08_biased_pick_distribution():
    rng = random.Random(8)
    n = 100_000
    counts = [0, 0, 0]
    for _ in range(n):
        counts[biased_index(3, rng)] += 1
    expected = [0.75 * n, 0.1875 * n, 0.0625 * n]
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    p_value = math.exp(-chi2 / 2)  # chi-squared survival, 2 dof
    assert p_value > 0.01
    ok(f"8: biased index matches (0.75, 0.1875, 0.0625), p = {p_value:.3f}")


def test_criterion_09_determinism_and_replay(tmp_path):
    target = BENCH / "xor_mask.mc"
    program = parse_program(bench("xor_mask.mc"))
    snapshots = []
    for run in range(3):
        outdir = tmp_path / f"run{run}"
        opts = options(5)
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=300),
                                   opts)
        save_suite(outdir, suite, stats, opts)
        snapshots.append([
            (str(p.relative_to(outdir)), p.read_bytes())
            for p in sorted(outdir.rglob("*")) if p.is_file()
        ])
    assert snapshots[0] == snapshots[1] == snapshots[2]
    assert cli_main(["replay", "-t", str(target),
                     "-s", str(tmp_path / "run0")]) == 0
    ok("9: three runs byte-identical and the replay verifies")


def test_criterion_10_remote_protocol_equivalence():
    program = parse_program(bench("sensitivity_pair.mc"))
    limits = VmLimits(1000, 64, 512, 200_000)
    local = LocalExecutor(program)
    server = TargetServer(program, limits)
    server.start()
    try:
        rng = random.Random(10)
        with RemoteExecutor(server.address) as remote:
            for _ in range(100):
                max_input = rng.randrange(1, 64)
                config = ExecutionConfig(
                    max_trace_length=rng.randrange(1, 300),
                    max_stack_size=rng.randrange(2, 64),
                    max_input_bytes=max_input,
                    step_budget=rng.randrange(1, limits.step_budget + 1),
                    fill_byte=rng.choice((0, 85)),
                    input_bytes=rng.randbytes(
                        rng.randrange(0, min(max_input, 8) + 1)))
                assert wire_encode(local(config)) == \
                    wire_encode(remote(config))
    finally:
        server.stop()
    rng = random.Random(11)
    for _ in range(10 ** 4):
        message = (random_wire_config(rng) if rng.random() < 0.5
                   else random_wire_result(rng))
        assert wire_decode(wire_encode(message)) == message
    ok("10: remote execution byte-identical on 100 configs; 10^4 wire "
       "round trips")


def test_criterion_11_boolean_expression_coverage():
    program = parse_program(bench("four_branch.mc"))
    limits = VmLimits(1000, 64, 256, 200_000)
    executor = LocalExecutor(program)
    tree = ExecTree()
    for i, (x, y) in enumerate(((0, 0), (1, 1))):
        data = x.to_bytes(4, "little") + y.to_bytes(4, "little")
        tree.map_trace(executor(limits.config(0, data)), i)
    # uids in source order: 1 = x==1, 2 = y==1, then the three branch
    # conditions 3, 4, 5
    assert uid_covered(tree, 1)
    assert uid_covered(tree, 2)
    branch_covered = [uid for uid in (3, 4, 5) if uid_covered(tree, uid)]
    assert branch_covered == [3]
    ok("11: both comparisons covered while only one branching is two-sided")
