"""Top-level fuzzing loop, test-suite collection, and the post-run
optimizer.

The run starts with the empty input, followed, while its trace leaves
the tree empty, by the sensitivity value set of the bytes it read (the
bootstrap).  Every later input comes from the active analysis session,
which the strategy builds.  Every input, the bootstrap's included, takes
one path through the body of ``FuzzEngine.run``: the memo's answer, or
a run whose trace the tree maps (it returns the pairs it saw first),
the memo stores and the keep rule sees; then the count, and the result
goes to the active session, which sets its ``achieving_input`` once its
goal direction is observed.  The budget is checked after each input, so
the empty input runs under any budget, and no session is built once the
budget is spent.  The loop calls a session through ``next_input`` and
``feed``, not by driving its coroutine: the bench traces those methods
by name, and times each analysis per call.  When the session deactivates
(analysis ended, budget spent, or goal observed) the engine hands it to
the strategy, which records its outcome, then closes and logs it; the
strategy picks the next session.
A session still active when the run's budget ends the loop is closed
and logged then, but not handed to the strategy: its analysis did not
end.  A closed session's coroutine no longer refers back to it, so a
dropped engine leaves no session for the cyclic collector.  ``_keep``
is the one keep rule of the loop and the optimizer; kept tests replay
to exactly the recorded coverage.

A read-prefix memo (``ReadPrefixMemo``) answers an input without
running the target when an earlier run under the loop's limits stopped
after reading a prefix of it.  The answer is exact: a run depends only
on its caps, its fill byte and the bytes it reads.  An answered result
skips the tree and the keep rule, where it would change nothing: the
tree has mapped it (seen bits, best weights and heights only move one
way, so a second walk finds no first pairs), it is never iteration 0,
and a crash it repeats was kept.  The session is fed it as usual.
``stats.iterations`` counts the inputs the loop processed, whether the
target ran them or the memo answered them, and ``stats.memo_hits`` the
answers.  The optimizer's re-runs, under extended limits, bypass it.
"""
from __future__ import annotations

import json
import math
import random
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

from .exec_tree import ExecTree, coverage_summary
from .executors import LocalExecutor
from .generators import AnalysisKind, AnalysisSession, sensitivity_mutations
from .minivm import (
    OPTIMIZER_SCALE,
    Program,
    VmLimits,
    execute,
    optimizer_limits,
)
from .strategy import Strategy
from .target_abi import ExecutionResult, TerminationKind, TypeTag

_BOOTSTRAP = "bootstrap"
_OPTIMIZER = "optimizer"

# Under a time budget, an optimizer re-run's step budget is cut to the
# seconds left at this rate.  It sits below the slowest rate measured for
# the interpreter (8.4 M steps/s on deep recursion, 14-40 M on loops,
# CPython 3.11 on a 2-vCPU host), so a cut re-run ends by the deadline
# wherever the interpreter runs at least this fast.
OPTIMIZER_STEPS_PER_SECOND = 5_000_000


@dataclass(frozen=True)
class FuzzBudget:
    """Bounds on the fuzzing loop.  ``max_executions`` counts the loop's
    executions, bootstrap included; the post-run optimizer's re-runs come
    after it and are not counted against it.  ``max_seconds`` bounds
    both: no re-run starts after the deadline, and each one's step budget
    is cut to the time left (see ``OPTIMIZER_STEPS_PER_SECOND``)."""

    max_executions: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_executions is None and self.max_seconds is None:
            raise ValueError("at least one budget bound must be set")
        if self.max_executions is not None and self.max_executions < 1:
            raise ValueError("max_executions must be at least 1")
        if self.max_seconds is not None and self.max_seconds < 0:
            raise ValueError("max_seconds must not be negative")
        # now + nan is a deadline no clock reaches; inf is a legal "none"
        if self.max_seconds is not None and math.isnan(self.max_seconds):
            raise ValueError("max_seconds must be a number, not nan")


@dataclass
class FuzzOptions:
    limits: VmLimits = field(default_factory=VmLimits)
    fill_byte: int = 0
    seed: int = 0


@dataclass(slots=True)
class TestCase:
    input_bytes: bytes
    type_tags: tuple[TypeTag, ...]
    termination: TerminationKind
    newly_covered_uids: tuple[int, ...]
    iteration: int
    new_pairs: tuple[tuple[int, bool], ...]
    uid_pairs: tuple[tuple[int, bool], ...]
    id_pairs: tuple[tuple[int, int, bool], ...]
    extended_limits: bool = False


@dataclass
class TestSuite:
    tests: list[TestCase] = field(default_factory=list)
    coverage: dict[str, int] = field(default_factory=dict)

    def recompute_coverage(self) -> dict[str, int]:
        self.coverage = coverage_summary(
            (pair for test in self.tests for pair in test.uid_pairs),
            (pair for test in self.tests for pair in test.id_pairs))
        return self.coverage


@dataclass(slots=True)
class SessionLogEntry:
    kind: str
    uid: int
    ctx: int
    depth: int
    goal_direction: Optional[bool]
    executions: int
    calls: int
    achieved: bool


class FuzzStats:
    def __init__(self, seed: int):
        self.seed = seed
        self.iterations = 0
        self.executions_by_kind = {
            _BOOTSTRAP: 0,
            AnalysisKind.SENSITIVITY.value: 0,
            AnalysisKind.BITSHARE.value: 0,
            AnalysisKind.TYPED_MINIMIZATION.value: 0,
            AnalysisKind.MINIMIZATION.value: 0,
            _OPTIMIZER: 0,
        }
        self.terminations = {kind: 0 for kind in TerminationKind}
        self.memo_hits = 0
        self.tree_nodes = 0
        self.coverage: dict[str, int] = {}
        self.sessions: list[SessionLogEntry] = []
        self.terminated_by_strategy = False

    @property
    def total_executions(self) -> int:
        return self.iterations

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "executions": {"total": self.total_executions,
                           **self.executions_by_kind},
            "terminations": {kind.name: count for kind, count
                             in self.terminations.items()},
            "memo_hits": self.memo_hits,
            "tree_nodes": self.tree_nodes,
            "coverage": dict(self.coverage),
            "terminated_by_strategy": self.terminated_by_strategy,
            "sessions": [asdict(s) for s in self.sessions],
        }


class ReadPrefixMemo:
    """The results of runs that left part of their input unread, looked up
    by the bytes they read.

    A run depends only on its caps, its fill byte and the bytes it reads,
    so a run that stopped after reading ``R`` stops after ``R``, with the
    same result, on every input that starts with ``R`` (an input shorter
    than ``R`` continues with the fill byte).  One memo serves one set of
    caps and one fill byte.  Only a read shorter than its input is
    stored: it is the only kind that answers inputs other than its own.

    The stored reads are prefix-free: an input that starts with a stored
    read is answered, never run, and a read that extended a stored one
    would have stopped where that one stopped.  So the one stored read
    that can be a prefix of an input is its sorted predecessor, and a
    lookup is one bisection and one ``startswith``, after padding the
    input with the fill byte to the longest stored read."""

    __slots__ = ("reads", "results", "_fill", "_width")

    def __init__(self, fill_byte: int):
        self.reads: list[bytes] = []  # sorted
        self.results: list[ExecutionResult] = []  # aligned with reads
        self._fill = bytes((fill_byte,))
        self._width = 0  # the longest stored read

    def recall(self, input_bytes: bytes) -> Optional[ExecutionResult]:
        """The result of running ``input_bytes``, if a stored read is a
        prefix of it."""
        reads = self.reads
        if not reads:
            return None
        short = self._width - len(input_bytes)
        if short > 0:
            input_bytes += self._fill * short
        index = bisect_right(reads, input_bytes) - 1
        if index >= 0 and input_bytes.startswith(reads[index]):
            return self.results[index]
        return None

    def store(self, input_bytes: bytes, result: ExecutionResult) -> None:
        """Remember the result of running ``input_bytes``, which
        ``recall`` did not answer, if the run left part of it unread."""
        read = result.bytes_read
        if len(read) < len(input_bytes):
            index = bisect_right(self.reads, read)
            self.reads.insert(index, read)
            self.results.insert(index, result)
            if len(read) > self._width:
                self._width = len(read)


class FuzzEngine:
    """Owns the tree, the strategy, the active session, and the suite."""

    def __init__(self, program: Program, budget: FuzzBudget,
                 options: FuzzOptions, executor=None):
        self.program = program
        self.budget = budget
        self.options = options
        self.executor = executor or LocalExecutor(program)
        self.tree = ExecTree()
        self.strategy = Strategy(self.tree, random.Random(options.seed))
        self.suite = TestSuite()
        self.stats = FuzzStats(options.seed)
        self.active = None  # the running session, if any
        # results under the run's own limits; the optimizer's re-runs
        # neither read nor write it
        self._memo = ReadPrefixMemo(options.fill_byte)
        self._kept_inputs: set[bytes] = set()
        # one object per pair the kept tests hold: most tests repeat the
        # pairs of the tests before them
        self._pairs: dict[tuple, tuple] = {}
        self._deadline = None

    # -- main loop -----------------------------------------------------------

    def run(self) -> tuple[TestSuite, FuzzStats]:
        budget, stats = self.budget, self.stats
        if budget.max_seconds is not None:
            self._deadline = time.monotonic() + budget.max_seconds
        deadline = self._deadline
        max_executions = (math.inf if budget.max_executions is None
                          else budget.max_executions)
        monotonic = time.monotonic
        recall, store = self._memo.recall, self._memo.store
        limits = self.options.limits
        config, fill_byte = limits.config, self.options.fill_byte
        executor, map_trace = self.executor, self.tree.map_trace
        keep, count = self._keep, self._count
        select_analysis = self.strategy.select_analysis
        bootstrap = self._bootstrap_inputs()
        kind = _BOOTSTRAP
        active = next_input = feed = result = None
        while True:
            # the next input: the bootstrap's, then the sessions'
            if bootstrap is not None:
                try:
                    data = bootstrap.send(result)
                except StopIteration:
                    bootstrap = None
            if bootstrap is None:
                while True:
                    if active is None:
                        active = self.active = select_analysis()
                        if active is None:
                            break
                        kind = active.kind.value
                        next_input, feed = active.next_input, active.feed
                    data = next_input()
                    if data is not None:
                        break
                    self._finish_session(active)
                    active = None
                if active is None:
                    stats.terminated_by_strategy = True
                    break
            # its result: the memo's answer, which the tree and the keep
            # rule have seen (see the module docstring), or a run
            result = recall(data)
            if result is None:
                result = executor(config(fill_byte, data))
                new_pairs = map_trace(result)
                store(data, result)
                keep(result, new_pairs, stats.iterations)
            elif len(data) > limits.max_input_bytes:
                raise ValueError("input_bytes longer than max_input_bytes")
            else:
                stats.memo_hits += 1
            count(result, kind)
            if active is not None:
                feed(result)
                if active.achieving_input is not None:
                    self._finish_session(active)
                    active = None
            # after the input: the empty one runs under any budget
            if (stats.iterations >= max_executions
                    or deadline is not None and monotonic() >= deadline):
                break
        if active is not None:  # cut off by the budget
            self._deactivate(active)
        self.optimize_suite()
        self.suite.recompute_coverage()
        self.stats.coverage = self.tree.coverage_counts()
        self.stats.tree_nodes = len(self.tree.nodes)
        return self.suite, self.stats

    def _bootstrap_inputs(self):
        """The empty input, then, while the tree has no root, the
        sensitivity value set of the bytes that run read, so that a
        target that ends before its first record at the fill bytes (say,
        dividing by a read zero) still gets a first trace.  The loop
        sends it each input's result."""
        result = yield b""
        for data, _, _ in sensitivity_mutations(result.bytes_read,
                                                result.type_tags):
            if self.tree.root is not None:
                return
            yield data

    def _past_deadline(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline

    def _execute(self, limits: VmLimits, input_bytes: bytes, kind: str
                 ) -> tuple[ExecutionResult, list[tuple[int, bool]], int]:
        """The optimizer's re-run of one input under these caps, past the
        memo: counted and mapped; the result, the pairs it saw first, and
        its iteration."""
        result = self.executor(limits.config(self.options.fill_byte,
                                             input_bytes))
        iteration = self._count(result, kind)
        return result, self.tree.map_trace(result), iteration

    def _count(self, result: ExecutionResult, kind: str) -> int:
        """Count one processed input; its iteration."""
        stats = self.stats
        iteration = stats.iterations
        stats.iterations += 1
        stats.executions_by_kind[kind] += 1
        stats.terminations[result.termination] += 1
        return iteration

    def _keep(self, result: ExecutionResult,
              new_pairs: list[tuple[int, bool]], iteration: int,
              extended: bool = False) -> None:
        """The keep rule: a result joins the suite when its trace saw a
        new (uid, direction) pair or, under the run's own limits, when it
        is the first execution or crashed; and no kept test read the
        same bytes.  Its newly covered uids are those of its new pairs
        that the tree has now seen both ways."""
        worth_keeping = new_pairs or not extended and (
            iteration == 0 or result.termination == TerminationKind.CRASH)
        if not worth_keeping or result.bytes_read in self._kept_inputs:
            return
        self._kept_inputs.add(result.bytes_read)
        uid_pairs, id_pairs = _observed_pairs(result.trace)
        intern = self._pairs.setdefault
        self.suite.tests.append(TestCase(
            input_bytes=result.bytes_read,
            type_tags=result.type_tags,
            termination=result.termination,
            newly_covered_uids=tuple(sorted(
                {uid for uid, _ in new_pairs
                 if len(self.tree.uid_directions[uid]) == 2})),
            iteration=iteration,
            new_pairs=tuple(sorted(map(intern, new_pairs, new_pairs))),
            uid_pairs=tuple(map(intern, uid_pairs, uid_pairs)),
            id_pairs=tuple(map(intern, id_pairs, id_pairs)),
            extended_limits=extended,
        ))

    def _finish_session(self, session: AnalysisSession) -> None:
        self.active = None
        self.strategy.finish(session)
        self._deactivate(session)

    def _deactivate(self, session: AnalysisSession) -> None:
        """Close and log a session that leaves the loop, finished or cut
        by the budget: the one place a session is deactivated."""
        session.close()
        node = session.node
        uid, ctx = node.id
        self.stats.sessions.append(SessionLogEntry(
            kind=session.kind.value,
            uid=uid, ctx=ctx, depth=node.depth,
            goal_direction=session.goal_direction,
            executions=session.executions, calls=session.calls,
            achieved=session.achieving_input is not None,
        ))

    # -- optimizer ------------------------------------------------------------

    def optimize_suite(self) -> None:
        """Re-run boundary-violating tests with highly extended limits;
        keep re-reads that add coverage and differ from the original.
        Stops once the time budget has run out, and cuts each re-run's
        step budget to the time left; a re-run that the cut ends in a
        timeout is not kept, since replay under the full caps would not
        time out there.  The re-runs come after the loop and are not
        counted against ``max_executions``: a run makes up to that many
        executions plus one per such test."""
        limits = optimizer_limits(self.options.limits)
        for test in list(self.suite.tests):
            if self._past_deadline():
                break
            if test.termination != TerminationKind.BOUNDARY_CONDITION_VIOLATION:
                continue
            if test.extended_limits:
                continue
            rerun = limits
            if self._deadline is not None:
                # a float product first: the time left may be infinite
                steps = ((self._deadline - time.monotonic())
                         * OPTIMIZER_STEPS_PER_SECOND)
                if steps < limits.step_budget:
                    rerun = replace(limits, step_budget=max(1, int(steps)))
            result, new_pairs, iteration = self._execute(
                rerun, test.input_bytes, _OPTIMIZER)
            if (result.termination == TerminationKind.TIMEOUT
                    and rerun is not limits):
                continue
            if result.bytes_read != test.input_bytes:
                self._keep(result, new_pairs, iteration, extended=True)


def _observed_pairs(trace) -> tuple[list[tuple[int, bool]],
                                   list[tuple[int, int, bool]]]:
    """The distinct (uid, direction) and (uid, ctx, direction) pairs a
    trace observed, each sorted."""
    id_pairs = {(uid, ctx, direction)
                for (uid, ctx), direction, _, _, _ in trace}
    return (sorted({(uid, direction) for uid, _, direction in id_pairs}),
            sorted(id_pairs))


def run_fuzzing(program: Program, budget: FuzzBudget,
                options: Optional[FuzzOptions] = None,
                executor=None) -> tuple[TestSuite, FuzzStats]:
    engine = FuzzEngine(program, budget, options or FuzzOptions(),
                        executor=executor)
    return engine.run()


# --- suite persistence -------------------------------------------------------

_SUITE_DIR = "tests"
_MANIFEST = "manifest.json"
_STATS = "stats.json"


def _render_value(tag: TypeTag, raw: bytes) -> str:
    if tag.is_untyped:
        return raw.hex()
    (value,) = tag.codec.unpack(raw)
    return repr(value) if tag.is_float else str(int(value))


def save_suite(outdir: "Path | str", suite: TestSuite, stats: FuzzStats,
               options: FuzzOptions) -> None:
    outdir = Path(outdir)
    tests_dir = outdir / _SUITE_DIR
    tests_dir.mkdir(parents=True, exist_ok=True)
    manifest_tests = []
    for index, test in enumerate(suite.tests):
        name = f"test_{index:06d}.txt"
        lines = []
        offset = 0
        for tag in test.type_tags:
            raw = test.input_bytes[offset:offset + tag.byte_width]
            lines.append(f"{tag.name} {_render_value(tag, raw)}")
            offset += tag.byte_width
        lines.append(f"raw: {test.input_bytes.hex()}")
        (tests_dir / name).write_text("\n".join(lines) + "\n",
                                      encoding="utf-8")
        manifest_tests.append({
            "file": f"{_SUITE_DIR}/{name}",
            "input": test.input_bytes.hex(),
            "termination": test.termination.name,
            "iteration": test.iteration,
            "extended_limits": test.extended_limits,
            "newly_covered_uids": list(test.newly_covered_uids),
            "new_pairs": [[u, d] for u, d in test.new_pairs],
            "uid_pairs": [[u, d] for u, d in test.uid_pairs],
            "id_pairs": [[u, c, d] for u, c, d in test.id_pairs],
        })
    manifest = {
        "format": 1,
        "seed": options.seed,
        "iterations": stats.iterations,
        "executions": {"total": stats.total_executions,
                       **stats.executions_by_kind},
        "fill_byte": options.fill_byte,
        "limits": asdict(options.limits),
        "optimizer_scale": OPTIMIZER_SCALE,
        "coverage": suite.recompute_coverage(),
        "tests": manifest_tests,
    }
    (outdir / _MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (outdir / _STATS).write_text(
        json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def load_manifest(outdir: "Path | str") -> dict:
    return json.loads((Path(outdir) / _MANIFEST).read_text(encoding="utf-8"))


def replay_suite(program: Program, outdir: "Path | str") -> tuple[bool, str]:
    """Re-execute every manifest test and verify terminations, observed
    pairs, and the coverage summary; (ok, first divergence)."""
    manifest = load_manifest(outdir)
    base = VmLimits(**manifest["limits"])
    extended = optimizer_limits(base, manifest["optimizer_scale"])
    uid_pairs = set()
    id_pairs = set()
    for entry in manifest["tests"]:
        input_bytes = bytes.fromhex(entry["input"])
        limits = extended if entry["extended_limits"] else base
        result = execute(program,
                         limits.config(manifest["fill_byte"], input_bytes))
        if result.termination.name != entry["termination"]:
            return False, (f"{entry['file']}: termination "
                           f"{result.termination.name} != "
                           f"{entry['termination']}")
        got_pairs, got_id_pairs = _observed_pairs(result.trace)
        want_pairs = sorted((u, bool(d)) for u, d in entry["uid_pairs"])
        if got_pairs != want_pairs:
            return False, f"{entry['file']}: observed uid pairs differ"
        if result.bytes_read != input_bytes:
            return False, f"{entry['file']}: bytes read differ"
        uid_pairs.update(got_pairs)
        id_pairs.update(got_id_pairs)
    recomputed = coverage_summary(uid_pairs, id_pairs)
    if recomputed != manifest["coverage"]:
        return False, (f"coverage summary differs: {recomputed!r} != "
                       f"{manifest['coverage']!r}")
    return True, ""
