"""Shared test drivers and oracles: execute programs, read the source
they compile to, map traces, run sessions, generate random wire messages,
reference loop detection, and inspect trees."""
from __future__ import annotations

import math

from gradfuzz.exec_tree import ExecTree, TreeMappingError, TreeNode
from gradfuzz.minivm import VmLimits, execute, parse_program
from gradfuzz.minivm.interp import _Emitter
from gradfuzz.target_abi import (
    CTX,
    NBYTES,
    UID,
    VALUE,
    ConditionRecord,
    ExecutionConfig,
    ExecutionId,
    ExecutionResult,
    TerminationKind,
    TypeTag,
    wire_decode,
    wire_encode,
)


def condition_record(id: ExecutionId, direction: bool, value: float,
                     xor_flag: bool, nbytes: int) -> ConditionRecord:
    """The record ``(id, direction, value, xor_flag, nbytes)``, with a NaN
    value stored as +infinity as every record builder of the package
    does (see the ``target_abi`` module docstring)."""
    if value != value:
        value = math.inf
    return (id, direction, value, xor_flag, nbytes)


def emitted_source(program) -> str:
    """The Python source the interpreter compiles ``program`` to."""
    return _Emitter(program).source


def flip_bit(data: bytearray, index: int) -> None:
    """Flip bit ``index`` of ``data`` in place, MSB-first within the byte
    (see ``target_abi.get_bit``)."""
    data[index // 8] ^= 1 << (7 - index % 8)


def traced_result(trace=(), bytes_read: bytes = b"",
                  type_tags=()) -> ExecutionResult:
    """A normal result with ``trace``: the best result of a node built by
    hand."""
    return ExecutionResult(TerminationKind.NORMAL, bytes_read,
                           tuple(type_tags), tuple(trace))


def path_weight(trace, depth: int) -> float:
    """Sum of squared branching values over trace[0..depth]."""
    total = 0.0
    for i in range(depth + 1):
        total += trace[i][VALUE] * trace[i][VALUE]
    return total


def uid_covered(tree: ExecTree, uid: int) -> bool:
    return len(tree.uid_directions.get(uid, ())) == 2


def id_covered(tree: ExecTree, node_id: ExecutionId) -> bool:
    return len(tree.id_directions.get(node_id, ())) == 2


def reference_map_trace(tree: ExecTree, result: ExecutionResult
                        ) -> list[tuple[int, bool]]:
    """``ExecTree.map_trace`` as one walk over every record: each record
    is id-checked against its node, or builds it, and compared with the
    node's best, with no anchor and no comparison of the trace's rest.
    Nodes of an id not yet covered are listed in ``tree.nodes_by_id``
    until it is."""
    new_pairs: list[tuple[int, bool]] = []
    trace = result.trace
    tree.max_nbytes = max([tree.max_nbytes]
                          + [record[NBYTES] for record in trace])
    node, parent, taken = tree.root, None, False
    weight = 0.0
    for depth, (rid, direction, value, _, _) in enumerate(trace):
        if node is None:
            node = TreeNode(rid, depth, result)
            tree.nodes.append(node)
            if parent is None:
                tree.root = node
            elif taken:
                parent.true_succ = node
            else:
                parent.false_succ = node
            if id_covered(tree, rid):
                node.covered = True
            else:
                tree.nodes_by_id.setdefault(rid, []).append(node)
        elif node.id != rid:
            raise TreeMappingError(
                f"trace record {depth} has id {rid}, tree node has "
                f"{node.id}; target looks nondeterministic")
        uid_dirs = tree.uid_directions.setdefault(rid[UID], set())
        if direction not in uid_dirs:
            uid_dirs.add(direction)
            new_pairs.append((rid[UID], direction))
        id_dirs = tree.id_directions.setdefault(rid, set())
        id_dirs.add(direction)
        if len(id_dirs) == 2:
            for same_id in tree.nodes_by_id.pop(rid, ()):
                same_id.covered = True
        weight += value * value
        if weight < node.best_weight:
            node.best_weight = weight
            node.best = result
        node.height = max(node.height, len(trace) - 1)
        node.seen |= 1 << direction
        parent, taken = node, direction
        node = node.true_succ if direction else node.false_succ
    return new_pairs


def is_directly_input_dependent(node: TreeNode) -> bool:
    return node.stage > 0 and bool(node.sensitive_bits)


def dump(tree: ExecTree) -> str:
    """Deterministic one-node-per-line rendering for golden tests."""
    lines: list[str] = []

    def visit(node) -> None:
        if node is None:
            return
        flags = "".join((
            "S" if node.stage >= 1 else "-",
            "B" if node.stage >= 2 else "-",
            "M" if node.stage >= 3 else "-",
            "c" if node.covered else "-",
            "x" if node.closed else "-",
        ))
        lines.append(
            f"{node.depth} uid={node.id[UID]} ctx={node.id[CTX]:08x} "
            f"seen={'F' if node.seen & 1 else '-'}"
            f"{'T' if node.seen & 2 else '-'} "
            f"f={node.value!r} nbytes={node.nbytes} {flags}")
        visit(node.false_succ)
        visit(node.true_succ)

    visit(tree.root)
    return "\n".join(lines)


LIMITS = VmLimits(max_trace_length=1000, max_stack_size=64,
                  max_input_bytes=512, step_budget=200_000)


class CountingExecutor:
    def __init__(self, program, limits: VmLimits = LIMITS, fill: int = 0):
        self.program = program
        self.limits = limits
        self.fill = fill
        self.count = 0

    def __call__(self, data: bytes):
        self.count += 1
        return execute(self.program, self.limits.config(self.fill, data))


def bootstrap_tree(source: str, inputs=(b"",), fill: int = 0):
    """Parse, execute the given inputs, and map them into a fresh tree."""
    program = parse_program(source)
    tree = ExecTree()
    executor = CountingExecutor(program, fill=fill)
    for data in inputs:
        tree.map_trace(executor(data))
    return program, tree, executor


def drive_session(session, executor, tree=None, stop_at_goal=True):
    """Run a session to completion (or until its goal direction appears);
    returns 'achieved' or 'exhausted'."""
    while True:
        data = session.next_input()
        if data is None:
            return "exhausted"
        result = executor(data)
        if tree is not None:
            tree.map_trace(result)
        session.feed(result)
        if (stop_at_goal and session.goal_direction is not None
                and session.node.seen >> session.goal_direction & 1):
            return "achieved"


class ScriptedRng:
    """random.Random stand-in with queued sample()/random() results; other
    draws fall back to a seeded generator."""

    def __init__(self, samples=(), randoms=(), seed=0):
        import random

        self._samples = list(samples)
        self._randoms = list(randoms)
        self._fallback = random.Random(seed)

    def sample(self, population, k):
        if self._samples:
            chosen = self._samples.pop(0)
            assert len(chosen) == k
            return list(chosen)
        return self._fallback.sample(population, k)

    def random(self):
        if self._randoms:
            return self._randoms.pop(0)
        return self._fallback.random()

    def randint(self, a, b):
        return self._fallback.randint(a, b)

    def uniform(self, a, b):
        return self._fallback.uniform(a, b)

    def randrange(self, *args):
        return self._fallback.randrange(*args)

    def choice(self, seq):
        return self._fallback.choice(seq)


def chain_from_uids(uids, directions=None):
    """Build a root path of nodes from a uid sequence, each wired to the
    next through a successor slot; node i sits at depth i, and its best
    trace takes the chain's directions to it (true by default)."""
    if directions is None:
        directions = [True] * (len(uids) - 1)
    nodes = []
    for i, uid in enumerate(uids):
        node = TreeNode((uid, 0), i, traced_result(
            condition_record((uids[j], 0), j == i or directions[j], 1.0,
                             False, 1)
            for j in range(i + 1)))
        if nodes:
            parent, direction = nodes[-1], directions[i - 1]
            if direction:
                parent.true_succ = node
            else:
                parent.false_succ = node
            parent.seen |= 1 << direction
        nodes.append(node)
    return nodes


def oracle_detect_loops(uids):
    """Independent index-based transcription of the backward loop scan."""
    frames = []   # dicts: uid, exit, succ, loop
    where = {}
    loops = []
    bodies = {}
    n = len(uids)
    for i in reversed(range(n)):
        uid = uids[i]
        succ = i + 1 if i + 1 < n else n - 1
        if uid not in where:
            where[uid] = len(frames)
            frames.append({"uid": uid, "exit": i, "succ": succ,
                           "loop": None})
        else:
            k = where[uid]
            frame = frames[k]
            if frame["loop"] is None:
                frame["loop"] = {"entry": i, "exit": frame["exit"],
                                 "succ": frame["succ"]}
                loops.append(frame["loop"])
            else:
                frame["loop"]["entry"] = i
            while len(frames) > k + 1:
                dropped = frames.pop()
                bodies.setdefault(frame["uid"], set()).add(dropped["uid"])
                del where[dropped["uid"]]
    for loop in loops:
        body = bodies.get(uids[loop["exit"]], set())
        entry = loop["entry"]
        while entry - 1 >= 0 and (uids[entry - 1] == uids[loop["exit"]]
                                  or uids[entry - 1] in body):
            entry -= 1
        loop["entry"] = entry
    return ([(l["entry"], l["exit"], l["succ"]) for l in loops], bodies)


def random_wire_config(rng):
    n = rng.randrange(0, 20)
    return ExecutionConfig(
        max_trace_length=rng.randrange(1, 10 ** 6),
        max_stack_size=rng.randrange(1, 10 ** 4),
        max_input_bytes=n + rng.randrange(0, 100),
        step_budget=rng.randrange(1, 1 << 64),
        fill_byte=rng.choice((0, 85)),
        input_bytes=rng.randbytes(n),
    )


def random_wire_result(rng):
    widths = {1: (TypeTag.SINT8, TypeTag.UINT8, TypeTag.BOOLEAN,
                  TypeTag.UNTYPED8),
              2: (TypeTag.SINT16, TypeTag.UINT16),
              4: (TypeTag.FLOAT32, TypeTag.SINT32),
              8: (TypeTag.FLOAT64, TypeTag.UINT64)}
    tags = []
    data = bytearray()
    for _ in range(rng.randrange(0, 6)):
        width = rng.choice((1, 2, 4, 8))
        tags.append(rng.choice(widths[width]))
        data.extend(rng.randbytes(width))
    records = []
    nbytes = 0
    for _ in range(rng.randrange(0, 8)):
        nbytes += rng.randrange(0, 3)
        value = rng.choice((0.0, -1.5, 3.25, math.inf, -math.inf,
                            rng.uniform(-1e18, 1e18)))
        records.append(condition_record(
            (rng.randrange(2 ** 32), rng.randrange(2 ** 32)),
            rng.random() < 0.5, value, rng.random() < 0.5, nbytes))
    return ExecutionResult(TerminationKind(rng.randrange(4)), bytes(data),
                           tuple(tags), tuple(records))


class FrameCheck:
    """Sends each result of one program through the wire codec, whose
    decoder is the one place a result is checked: every result alone, as
    a full frame, and all of them in order as one delta-coded sequence,
    as a serving process sends them.  Each must decode back to itself."""

    def __init__(self):
        self.sent = self.decoded = ()

    def __call__(self, result: ExecutionResult) -> ExecutionResult:
        assert wire_decode(wire_encode(result)) == result
        decoded = wire_decode(wire_encode(result, self.sent), self.decoded)
        assert decoded == result
        self.sent, self.decoded = result.trace, decoded.trace
        return result


class FrameCheckedExecutor:
    """The interpreter, with every result passed through a ``FrameCheck``."""

    def __init__(self, program):
        self.program = program
        self.check = FrameCheck()

    def __call__(self, config: ExecutionConfig) -> ExecutionResult:
        return self.check(execute(self.program, config))

    def close(self) -> None:
        pass


# A file-header parser whose guards end the run early: a 16-bit magic
# number, a length bound, a checksum over the bytes the length counts.
# Each flip of a magic or length bit that fails its guard leaves the rest
# of the input unread, so a campaign answers many inputs from the
# engine's read-prefix memo (no target under benchmarks/ does).
HEADER_TARGET = """\
int main() {
  ushort magic = nondet_ushort();
  if (magic != 0x4D42) {
    return 1;
  }
  uchar len = nondet_uchar();
  if (len > 4) {
    return 2;
  }
  uchar i = 0;
  uint sum = 0;
  while (i < len) {
    sum = sum + nondet_uchar();
    i = i + 1;
  }
  uchar check = nondet_uchar();
  if (check != (uchar)sum) {
    return 3;
  }
  if (sum > 600) {
    abort();
  }
  return 0;
}
"""
