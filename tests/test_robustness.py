"""Engine hardening: short runs over randomly generated targets must
complete, stay within budget, and produce replayable suites.

The generator covers integer, bool, float and double variables, input
reads of each, casts, ``!x``, integer division by a read value, loops,
aborts, calls to bool-returning functions, and a recursive function that
reads input and uses ``^`` around its own call, called both with a
bounded depth and with a depth past the stack cap.  Every execution's
result passes ``wire_decode``'s check of a well-formed result.  The
many-seed run is marked ``slow``; run it with ``pytest -m slow``."""
import random

import pytest

from helpers import FrameCheckedExecutor
from gradfuzz.fuzz_loop import FuzzBudget, FuzzOptions, replay_suite, \
    run_fuzzing, save_suite
from gradfuzz.minivm import VmLimits, parse_program

INT_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"]
FLOAT_OPS = ["+", "-", "*", "/"]
CMP_OPS = ["==", "!=", "<", "<=", ">", ">="]
READS = ["nondet_char()", "nondet_int()", "nondet_short()",
         "nondet_uint()", "nondet_bool()", "nondet_long()", "nondet_ulong()",
         "nondet_schar()", "nondet_uchar()", "nondet_ushort()"]
FLOAT_READS = ["float {} = nondet_float();", "double {} = nondet_double();"]
INT_CASTS = ["char", "schar", "short", "uint", "long", "bool"]
FLOAT_LITS = ["0.5", "-2.0", "3.5", "1e30", "0.0"]


class Scope:
    """The variables visible at one point of a generated target, and the
    bool functions it may call."""

    def __init__(self, calls, ints=(), floats=(), bools=(), recursive=None):
        self.calls = calls
        self.ints = list(ints)
        self.floats = list(floats)
        self.bools = list(bools)
        self.recursive = recursive

    def child(self):
        return Scope(self.calls, self.ints, self.floats, self.bools,
                     self.recursive)


def gen_expr(rng, scope, depth=0):
    """An integer (or bool) expression."""
    if depth > 2 or rng.random() < 0.4:
        roll = rng.random()
        if scope.ints and roll < 0.5:
            return rng.choice(scope.ints)
        if scope.floats and roll < 0.6:
            return f"(int){rng.choice(scope.floats)}"
        if roll < 0.8:
            return str(rng.randrange(-3, 10))
        return str(rng.choice((0, 1, 7, 0xA5, 123456, -1)))
    roll = rng.random()
    if roll < 0.1:
        return f"({rng.choice(INT_CASTS)}){gen_expr(rng, scope, depth + 1)}"
    if roll < 0.15:
        return f"!{gen_expr(rng, scope, depth + 1)}"
    left = gen_expr(rng, scope, depth + 1)
    right = gen_expr(rng, scope, depth + 1)
    return f"({left} {rng.choice(INT_OPS)} {right})"


def gen_fexpr(rng, scope, depth=0):
    """A float or double expression."""
    if depth > 1 or rng.random() < 0.5:
        roll = rng.random()
        if scope.floats and roll < 0.5:
            return rng.choice(scope.floats)
        if scope.ints and roll < 0.7:
            return f"(double){rng.choice(scope.ints)}"
        return rng.choice(FLOAT_LITS)
    left = gen_fexpr(rng, scope, depth + 1)
    right = gen_fexpr(rng, scope, depth + 1)
    return f"({left} {rng.choice(FLOAT_OPS)} {right})"


def gen_cond(rng, scope):
    roll = rng.random()
    if scope.floats and roll < 0.25:
        return (f"({gen_fexpr(rng, scope)} {rng.choice(CMP_OPS)} "
                f"{gen_fexpr(rng, scope)})")
    if scope.bools and roll < 0.35:
        return f"({rng.choice(scope.bools)})"
    if scope.calls and roll < 0.45:
        return f"({rng.choice(scope.calls)}({gen_expr(rng, scope)}))"
    if roll < 0.55:
        return f"(!{gen_expr(rng, scope)})"
    return (f"({gen_expr(rng, scope)} {rng.choice(CMP_OPS)} "
            f"{gen_expr(rng, scope)})")


def gen_stmts(rng, scope, depth, lines):
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if roll < 0.2:
            name = f"v{len(lines)}"
            if rng.random() < 0.5:
                lines.append(f"int {name} = {rng.choice(READS)};")
            else:
                lines.append(f"int {name} = {gen_expr(rng, scope)};")
            scope.ints.append(name)
        elif roll < 0.35:
            name = f"d{len(lines)}"  # not f<n>: f32 and f64 are types
            if rng.random() < 0.6:
                lines.append(rng.choice(FLOAT_READS).format(name))
            else:
                lines.append(f"double {name} = {gen_fexpr(rng, scope)};")
            scope.floats.append(name)
        elif roll < 0.42 and scope.ints:
            lines.append(f"{rng.choice(scope.ints)} = "
                         f"{gen_expr(rng, scope)};")
        elif roll < 0.46 and scope.floats:
            lines.append(f"{rng.choice(scope.floats)} = "
                         f"{gen_fexpr(rng, scope)};")
        elif roll < 0.25 and scope.recursive:
            gen_recursive_call(rng, scope, lines)
        elif roll < 0.5:
            # integer division by a read value; the divisor is zero, and
            # the target crashes, at the all-zero input only for k = 0
            name = f"q{len(lines)}"
            lines.append(f"int {name} = {gen_expr(rng, scope)} / "
                         f"({rng.choice(READS[:4])} - {rng.randrange(4)});")
            scope.ints.append(name)
        elif roll < 0.7 and depth < 2:
            lines.append(f"if {gen_cond(rng, scope)} {{")
            gen_stmts(rng, scope.child(), depth + 1, lines)
            if rng.random() < 0.3:
                lines.append("abort();")
            lines.append("}")
        elif roll < 0.8 and depth < 2 and scope.ints:
            bound = rng.choice(scope.ints)
            lines.append(f"int c{len(lines)} = 0;")
            lines.append(f"while (c{len(lines) - 1} < ({bound} & 7)) {{")
            lines.append(f"c{len(lines) - 2} = c{len(lines) - 2} + 1;")
            gen_stmts(rng, scope.child(), depth + 1, lines)
            lines.append("}")
        else:
            name = f"b{len(lines)}"
            lines.append(f"bool {name} = {gen_cond(rng, scope)};")
            scope.bools.append(name)


def gen_bool_function(rng, name, calls, lines):
    """``bool name(int a)``, which may call the functions before it."""
    scope = Scope(calls, ints=["a"])
    lines.append(f"bool {name}(int a) {{")
    if rng.random() < 0.5:
        lines.append(f"if {gen_cond(rng, scope)} {{ return "
                     f"{rng.choice(('true', 'false'))}; }}")
    result = (gen_cond(rng, scope) if rng.random() < 0.7
              else gen_expr(rng, scope))
    lines.append(f"return {result};")
    lines.append("}")


def gen_recursive_call(rng, scope, lines):
    """A call of the recursive function with a depth of at most 7, or
    with one read from the input: past the stack cap unless it is
    small."""
    name = f"v{len(lines)}"
    depth = (f"{gen_expr(rng, scope)} & 7" if rng.random() < 0.5
             else rng.choice(READS[:4]))
    lines.append(f"int {name} = {scope.recursive}({depth});")
    scope.ints.append(name)


def gen_recursive_function(rng, name, calls, lines):
    """``int name(int n)``, which recurses n times, reads input at the
    bottom and records with the xor flag set after its own call."""
    scope = Scope(calls, ints=["n"])
    lines.append(f"int {name}(int n) {{")
    lines.append(f"if (n <= 0) {{ return {rng.choice(READS[:4])}; }}")
    lines.append(f"int k = {name}(n - 1) ^ {gen_expr(rng, scope)};")
    scope.ints.append("k")
    lines.append(f"if {gen_cond(rng, scope)} {{ k = k + 1; }}")
    lines.append("return k;")
    lines.append("}")


def gen_program(seed):
    rng = random.Random(seed)
    lines = []
    calls = []
    for i in range(rng.randrange(3)):
        gen_bool_function(rng, f"g{i}", list(calls), lines)
        calls.append(f"g{i}")
    recursive = None
    if rng.random() < 0.5:
        recursive = "r0"
        gen_recursive_function(rng, recursive, calls, lines)
    lines.append("int main() {")
    scope = Scope(calls, recursive=recursive)
    # inputs first, so that most branches depend on them
    for _ in range(rng.randrange(1, 3)):
        scope.ints.append(f"v{len(lines)}")
        lines.append(f"int v{len(lines)} = {rng.choice(READS)};")
    if rng.random() < 0.5:
        scope.floats.append(f"d{len(lines)}")
        lines.append(rng.choice(FLOAT_READS).format(f"d{len(lines)}"))
    if recursive is not None:
        gen_recursive_call(rng, scope, lines)
    gen_stmts(rng, scope, 0, lines)
    lines.append("return 0;")
    lines.append("}")
    return "\n".join(lines)


def run_and_replay(seeds, tmp_path):
    limits = VmLimits(max_trace_length=150, max_stack_size=32,
                      max_input_bytes=48, step_budget=50_000)
    for seed in seeds:
        source = gen_program(seed)
        program = parse_program(source)
        options = FuzzOptions(limits=limits, seed=seed)
        suite, stats = run_fuzzing(program,
                                   FuzzBudget(max_executions=150), options,
                                   executor=FrameCheckedExecutor(program))
        assert stats.total_executions <= 150 + len(suite.tests)
        outdir = tmp_path / f"p{seed}"
        save_suite(outdir, suite, stats, options)
        ok, divergence = replay_suite(program, outdir)
        assert ok, f"seed {seed}: {divergence}\n{source}"


def test_random_targets_run_and_replay(tmp_path):
    run_and_replay(range(30), tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("block", range(4))
def test_random_targets_run_and_replay_many_seeds(block, tmp_path):
    run_and_replay(range(100 * block, 100 * (block + 1)), tmp_path)


def test_generator_reaches_the_grammar():
    # the fast seeds alone use every construct the generator knows
    mains = [source[source.index("int main"):]
             for source in map(gen_program, range(30))]
    for construct in (*READS, "nondet_float()", "nondet_double()", "(int)",
                      "(double)", "(bool)", "!", "/ (nondet_", "g0(",
                      "g1(", "while", "r0(", "r0(nondet_"):
        assert any(construct in main for main in mains), construct


def test_random_targets_deterministic():
    limits = VmLimits(max_trace_length=100, max_stack_size=32,
                      max_input_bytes=32, step_budget=50_000)
    for seed in (3, 11, 23):
        source = gen_program(seed)
        program = parse_program(source)
        options = FuzzOptions(limits=limits, seed=1)
        first, second = (
            run_fuzzing(program, FuzzBudget(max_executions=120), options,
                        executor=FrameCheckedExecutor(program))
            for _ in range(2))
        assert [t.input_bytes for t in first[0].tests] == \
            [t.input_bytes for t in second[0].tests]


FLOAT_GATE = """
int main() { float x = nondet_float();
  if (x > 3.5) { int k = nondet_int(); if (k == 7) { abort(); } }
  return 0; }
"""


def test_float_read_fuzzes_to_completion():
    # NaN inputs give an infinite branching value at the float guard; the
    # node it first reaches must still get a best trace
    program = parse_program(FLOAT_GATE)
    for seed in range(5):
        suite, stats = run_fuzzing(program, FuzzBudget(max_executions=300),
                                   FuzzOptions(seed=seed),
                                   executor=FrameCheckedExecutor(program))
        assert stats.total_executions <= 300 + len(suite.tests)
