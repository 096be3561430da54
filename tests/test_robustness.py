"""Engine hardening: short runs over randomly generated targets must
complete, stay within budget, and produce replayable suites."""
import random

from gradfuzz.fuzz_loop import FuzzBudget, FuzzOptions, replay_suite, \
    run_fuzzing, save_suite
from gradfuzz.minivm import VmLimits, parse_program

INT_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"]
CMP_OPS = ["==", "!=", "<", "<=", ">", ">="]
READS = ["nondet_char()", "nondet_int()", "nondet_short()",
         "nondet_uint()", "nondet_bool()"]


def gen_expr(rng, vars_, depth=0):
    if depth > 2 or rng.random() < 0.4:
        roll = rng.random()
        if vars_ and roll < 0.5:
            return rng.choice(vars_)
        if roll < 0.8:
            return str(rng.randrange(-3, 10))
        return str(rng.choice((0, 1, 7, 0xA5, 123456, -1)))
    left = gen_expr(rng, vars_, depth + 1)
    right = gen_expr(rng, vars_, depth + 1)
    return f"({left} {rng.choice(INT_OPS)} {right})"


def gen_cond(rng, vars_):
    return (f"({gen_expr(rng, vars_)} {rng.choice(CMP_OPS)} "
            f"{gen_expr(rng, vars_)})")


def gen_stmts(rng, vars_, depth, lines):
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if roll < 0.3:
            name = f"v{len(vars_)}"
            if rng.random() < 0.5:
                lines.append(f"int {name} = {rng.choice(READS)};")
            else:
                lines.append(f"int {name} = {gen_expr(rng, vars_)};")
            vars_.append(name)
        elif roll < 0.5 and vars_:
            lines.append(f"{rng.choice(vars_)} = {gen_expr(rng, vars_)};")
        elif roll < 0.7 and depth < 2:
            lines.append(f"if {gen_cond(rng, vars_)} {{")
            gen_stmts(rng, list(vars_), depth + 1, lines)
            if rng.random() < 0.3:
                lines.append("abort();")
            lines.append("}")
        elif roll < 0.8 and depth < 2 and vars_:
            bound = rng.choice(vars_)
            lines.append(f"int c{len(lines)} = 0;")
            lines.append(f"while (c{len(lines) - 1} < ({bound} & 7)) {{")
            lines.append(f"c{len(lines) - 2} = c{len(lines) - 2} + 1;")
            gen_stmts(rng, list(vars_), depth + 1, lines)
            lines.append("}")
        else:
            lines.append(f"bool b{len(lines)} = {gen_cond(rng, vars_)};")


def gen_program(seed):
    rng = random.Random(seed)
    lines = ["int main() {"]
    gen_stmts(rng, [], 0, lines)
    lines.append("return 0;")
    lines.append("}")
    return "\n".join(lines)


def test_random_targets_run_and_replay(tmp_path):
    limits = VmLimits(max_trace_length=150, max_stack_size=32,
                      max_input_bytes=48, step_budget=50_000)
    for seed in range(30):
        source = gen_program(seed)
        program = parse_program(source)
        options = FuzzOptions(limits=limits, seed=seed)
        suite, stats = run_fuzzing(program,
                                   FuzzBudget(max_executions=150), options)
        assert stats.total_executions <= 150 + len(suite.tests)
        outdir = tmp_path / f"p{seed}"
        save_suite(outdir, suite, stats, options)
        ok, divergence = replay_suite(program, outdir)
        assert ok, f"seed {seed}: {divergence}\n{source}"


def test_random_targets_deterministic():
    limits = VmLimits(max_trace_length=100, max_stack_size=32,
                      max_input_bytes=32, step_budget=50_000)
    for seed in (3, 11, 23):
        source = gen_program(seed)
        program = parse_program(source)
        options = FuzzOptions(limits=limits, seed=1)
        first = run_fuzzing(program, FuzzBudget(max_executions=120), options)
        second = run_fuzzing(program, FuzzBudget(max_executions=120), options)
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
                                   FuzzOptions(seed=seed))
        assert stats.total_executions <= 300 + len(suite.tests)
