"""The compiled interpreter against the tree-walking reference in
``reference_interp``: every execution must give byte-identical wire
encodings, step accounting, boundaries and crashes included.  Every
result also passes ``wire_decode``'s check of a well-formed result, alone
and in its program's delta-coded sequence.

The many-seed run is marked ``slow``; run it with ``pytest -m slow``.
"""
import random
import struct
from dataclasses import replace
from pathlib import Path

import pytest

import reference_interp
from helpers import FrameCheck
from gradfuzz.fuzz_loop import (
    FuzzBudget,
    FuzzOptions,
    optimizer_limits,
    run_fuzzing,
)
from gradfuzz.minivm import VmLimits, execute, parse_program
from gradfuzz.target_abi import TerminationKind, wire_encode
from test_robustness import gen_program

ROOT = Path(__file__).parent.parent
TARGETS = (sorted((ROOT / "benchmarks").glob("*.mc"))
           + sorted((ROOT / "bench" / "targets").glob("*.mc")))

LIMITS = VmLimits(max_trace_length=1000, max_stack_size=64,
                  max_input_bytes=512, step_budget=200_000)


def assert_same(program, config):
    compiled = execute(program, config)
    reference = reference_interp.execute(program, config)
    assert wire_encode(compiled) == wire_encode(reference), (
        f"{config}: {compiled.termination.name} with "
        f"{len(compiled.trace)} records, reference "
        f"{reference.termination.name} with {len(reference.trace)}")
    return compiled


class DifferentialExecutor:
    """Executor that runs every config on both interpreters and passes
    every result through a ``FrameCheck``."""

    def __init__(self, program):
        self.program = program
        self.executions = 0
        self.check = FrameCheck()

    def __call__(self, config):
        self.executions += 1
        return self.check(assert_same(self.program, config))

    def close(self):
        pass


def fuzz_both(source, seed, executions, limits=LIMITS):
    """Fuzz with every execution checked, optimizer phase included."""
    executor = DifferentialExecutor(parse_program(source))
    run_fuzzing(executor.program, FuzzBudget(max_executions=executions),
                FuzzOptions(limits=limits, seed=seed), executor=executor)
    assert executor.executions > 0


def random_inputs(rng, count, max_len=24):
    return [rng.randbytes(rng.randrange(max_len + 1)) for _ in range(count)]


def f32(value):
    return struct.pack("<f", value)


def f64(value):
    return struct.pack("<d", value)


FLOATS = """
bool small(double v) { return v < 0.5; }
double halve(float v) { return v / 2.0; }
int main() {
  float f = nondet_float();
  double d = nondet_double();
  if (f > 3.5) { d = d * 2.0; }
  bool huge = d < -1.0e300;
  double q = d / (double)f;
  if (q) { q = q - 1.0; }
  float g = f * (float)0.5;
  float h = g / (float)4;
  if (!h) { abort(); }
  int i = (int)d;
  uchar u = (uchar)f;
  ulong l = (ulong)q;
  schar s = (schar)h;
  bool b = d;
  if (small(halve(f))) { i = i + 1; }
  double z = 0.0 / d;
  if (z == z) { u = u + 1; }
  float n = -f;
  if (n >= 0.0) { if (d != d) { abort(); } }
  return i;
}
"""

SPECIAL_FLOATS = (0.0, -0.0, 1.0, -1.0, 3.75, 1e-45, 3.4e38,
                  float("inf"), float("-inf"), float("nan"))

# finite values that round past FLT_MAX: C gives infinity
FLOAT_OVERFLOW = """
int main() {
  float f = nondet_float();
  double d = nondet_double();
  float g = f * f;
  float n = (float)d;
  if (g > n) { abort(); }
  return 0;
}
"""

DIVISION = """
int main() {
  int x = nondet_int();
  schar y = nondet_schar();
  int q = 100 / x;
  int r = -7 % y;
  long big = -9223372036854775807 - 1;
  long wrap = big / (long)y;
  double fd = 1.0 / (double)x;
  float ff = (float)y / 0.0;
  if (fd > 0.25) { return q / (x - 1); }
  if (ff < 0.0) { return r; }
  return (int)wrap;
}
"""

MIXED = """
bool odd(int v) { return (v & 1) != 0; }
bool nonzero(int v) { return v; }
float ratio(short v) { if (v != 0) { return (float)v / 128.0; } }
void touch(uint v) { if (v > 7) { return; } }
bool flip(uchar v) { return v ^ 1; }
int pick(uchar a, int b) { return a + b; }
int main() {
  int x = nondet_int();
  schar s = nondet_schar();
  ushort w = nondet_ushort();
  bool t = nondet_bool();
  ulong big = nondet_ulong();
  long sl = nondet_long();
  if (!x) { x = 3; }
  if (!t) { t = x; }
  bool c = (bool)s;
  uint u = (uint)s;
  short sh = (short)x;
  if (odd(x)) { if (nonzero(w)) { sh = sh + 1; } }
  if (t) { u = u ^ 0x5A; }
  if (x) { w = w | 1; }
  while (w) { w = w >> 1; touch(u); }
  long m = sl * sl;
  ulong um = big * big;
  int l1 = x << s;
  int l2 = x >> t;
  int l3 = sh << 31;
  bool mix1 = x < u;
  bool mix2 = big > sl;
  bool mix3 = c == t;
  int neg = -x;
  float nf = -(float)x;
  int xx = (x ^ 0x5A) & 0xFF;
  if (xx == 3) { bool late = u == 9; }
  int sum = nondet_uchar() + (x & 3);
  if (flip(s)) { sum = sum + pick(nondet_uchar(), x + 1); }
  if (sum > 7) { sh = sh - 1; }
  float r = ratio(sh);
  if (r > 10.5) { abort(); }
  if ((int)nf + neg == 0 - x - x) { return (int)c; }
  return l1 + l2 + l3 + (int)mix1 + (int)mix2 + (int)mix3 + (int)um
    + (int)m;
}
"""

SPIN = """
int main() {
  uchar n = nondet_uchar();
  int i = 0;
  if (n == 0) { while (true) { i = i + 1; } }
  while (true) { i = i + 1; if (i == (int)n) { bool hit = i > 200; } }
  return 0;
}
"""

RECURSION = """
int down(int n) { if (n == 0) { return 0; } return 1 + down(n - 1); }
bool deep(uint n) { bool stop = n == 0; if (stop) { return true; }
                    return deep(n - 1); }
int main() {
  ushort n = nondet_ushort();
  if (deep(n & 63)) { return down(n); }
  return 0;
}
"""

# returns that skip code which records nothing: the steps of the skipped
# code must not be counted
RETURNS = """
void early() { return; int dead = 1; }
int dead_code() { return 0; int y = 1; y = y + 1; }
bool check(bool ok, int n) { if (!ok) { return false; } n = n + 1;
                             return n > 3; }
int literal() { if (true) { return 1; } int z = 2; return z; }
int nested(bool b) { { if (b) { return 2; } } int k = 5; return k; }
int spin(bool b) { while (true) { if (b) { return 3; } b = true; }
                   return 4; }
int main() {
  bool b = nondet_bool();
  uchar n = nondet_uchar();
  int acc = 0;
  int i = 0;
  while (i < (int)n) {
    early();
    acc = acc + dead_code() + literal() + nested(b) + spin(b);
    if (check(b, i)) { acc = acc + 1; }
    i = i + 1;
  }
  return acc;
  acc = 7;
}
"""

# the division by zero crashes, after steps that count toward the budget
DIVIDE_BY_ZERO = """
int main() {
  int x = nondet_int();
  int r = (x + 3) % (x * 2 + 1);
  int q = (r + 1) / (x - x);
  return q;
}
"""

# Shapes that Python source emitted naively cannot hold: CPython refuses
# more than 20 nested loops and 100 indentation levels in one function,
# and more than 200 nested parentheses in one expression.

# 30 nested loops, a call that reads input from the innermost one, and a
# read after them
NESTED_WHILES = (
    "int pick(uchar v) { return v + nondet_uchar(); }\n"
    "int main() {\n  uchar n = nondet_uchar();\n  int x = 0;\n"
    + "".join(f"  int w{k} = 0; while (w{k} < 1) {{ w{k} = w{k} + 1;\n"
              for k in range(30))
    + "  x = pick(n) ^ 3; if (x > 7) { abort(); }\n"
    + "  }" * 30 + "\n  if (nondet_uchar() == (uchar)x) { x = 1; }\n"
    "  return x;\n}\n")

# a `return` from the innermost level, xor set before some branches,
# and an else at every level
NESTED_IFS = (
    "int deep(uchar n) {\n  int x = 0;\n"
    + "".join(f"  if ((n ^ {k % 4}) > {k}) {{ x = x + 1;\n"
              for k in range(150))
    + "  if (n == 255) { return 0 - x; }\n"
    + "  } else { x = x - 1; }" * 150 + "\n  return x;\n}\n"
    "int main() {\n  uchar n = nondet_uchar();\n  int x = deep(n);\n"
    "  if (x == 150) { abort(); }\n  return x;\n}\n")

DEEP_EXPRESSION = (
    "int main() {\n  int x = nondet_int();\n  int y = "
    + "".join(f"({k % 7} {'+-^'[k % 3]} " for k in range(300)) + "x"
    + ")" * 300 + ";\n  if (y > 1000) { abort(); }\n  return y;\n}\n")

LONG_SUM = ("int main() {\n  schar x = nondet_schar();\n  int s = x"
            + " + 1" * 3000 + ";\n  if (s == 3100) { abort(); }\n"
            "  return s;\n}\n")

# .mc names that are Python keywords, builtins, or locals of the emitted
# functions; `float` is a type name in the target language, so it only
# appears as one
IDENTIFIERS = """
int def(int lambda) { return lambda + 1; }
bool len(int steps) { return steps > 2; }
float print(float None) { return None * (float)2; }
int main() {
  int __class__ = nondet_int();
  int trace = def(__class__);
  int run = 1; int depth = 2; int ctx = 3; int E = 4; int xor = 5;
  int consumed = 6; int budget = 7; int data = 8; int tag = 9;
  int append = 10; int cap = 11; int max_stack = 12; int t1 = 13;
  int o1 = 14; int True = 15; int v_x = 16; int f_main = 17;
  float lambda = print((float)trace);
  if (len(trace)) { xor = xor ^ trace; }
  while (run < 3) { run = run + depth + ctx + E + xor + consumed; }
  if (lambda > 4.0) { budget = data + tag + append + cap + max_stack; }
  return t1 + o1 + True + v_x + f_main + budget;
}
"""

# float literals that must never be written into the source: inf, a
# value that underflows to 0.0, and -0.0, whose sign reaches the records
LITERALS = """
int main() {
  double d = nondet_double();
  double big = 1e999;
  double tiny = 1e-400;
  double negz = -0.0;
  if (d < big) { d = d + tiny; }
  if (negz) { abort(); }
  bool same = d == negz;
  if (1.0 / negz < d) { d = -1e999; }
  float f = (float)1e999;
  if (f > 1e-400) { d = d * tiny; }
  if (-0.0) { abort(); }
  bool zero = -(d * 0.0);
  return (int)d;
}
"""

EDGE_TARGETS = {"floats": FLOATS, "float_overflow": FLOAT_OVERFLOW,
                "division": DIVISION, "divide_by_zero": DIVIDE_BY_ZERO,
                "mixed": MIXED, "spin": SPIN,
                "recursion": RECURSION, "returns": RETURNS,
                "nested_whiles": NESTED_WHILES, "nested_ifs": NESTED_IFS,
                "deep_expression": DEEP_EXPRESSION, "long_sum": LONG_SUM,
                "identifiers": IDENTIFIERS, "literals": LITERALS}

# targets whose full run takes more steps than the default edge budget
LONG_TARGETS = ("long_sum",)


def edge_inputs(name, rng):
    if name == "literals":
        return [f64(v) for v in SPECIAL_FLOATS + (1e300, -1e300)]
    if name in ("floats", "float_overflow"):
        inputs = [f32(a) + f64(b) for a in SPECIAL_FLOATS + (3e38,)
                  for b in SPECIAL_FLOATS + (1e300, -1e300)]
        return inputs + random_inputs(rng, 40, 12)
    if name == "recursion":
        return [n.to_bytes(2, "little")
                for n in (0, 1, 5, 63, 1000, 1022, 1023, 1024, 5000)]
    inputs = [b"", b"\x00" * 32, b"\xff" * 32,
              b"\x01\x00\x00\x00\xff\x80\x00\x01" * 4]
    return inputs + random_inputs(rng, 40, 32)


@pytest.mark.parametrize("name", sorted(EDGE_TARGETS))
def test_edge_targets(name):
    run = DifferentialExecutor(parse_program(EDGE_TARGETS[name]))
    rng = random.Random(name)
    limits = (optimizer_limits(VmLimits()) if name == "recursion"
              else VmLimits(1000, 64, 512,
                            20_000 if name in LONG_TARGETS else 5_000))
    for data in edge_inputs(name, rng):
        for fill in (0, 85):
            run(limits.config(fill, data))


# inputs that run each edge target to its end (spin's at the trace cap)
FULL_RUN_INPUTS = {
    "division": bytes.fromhex("05000000fd"),
    "divide_by_zero": (5).to_bytes(4, "little"),
    "floats": f32(7.5) + f64(-2.5),
    "float_overflow": f32(3e38) + f64(1e300),
    "mixed": bytes.fromhex("69d633d72792ad00847cbf25625bfc6cfaa98c0ed077aa76"
                           "e5bc"),
    "recursion": (6).to_bytes(2, "little"),
    "returns": b"\x00\x02",
    "spin": b"\x07",
    "nested_whiles": b"\x01\x02\x03",
    "nested_ifs": b"\xc8",
    "deep_expression": (7).to_bytes(4, "little"),
    "long_sum": b"\x9c",
    "identifiers": (11).to_bytes(4, "little"),
    "literals": f64(2.5),
}


def run_length(program, data):
    """The least step budget the run on ``data`` ends within (bisected:
    a larger budget only lets a run go further)."""
    check = FrameCheck()

    def times_out(budget):
        config = VmLimits(1000, 64, 512, budget).config(0, data)
        return check(execute(program, config)).termination == \
            TerminationKind.TIMEOUT

    lo, hi = 0, 1_000_000
    assert not times_out(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if times_out(mid) else (lo, mid)
    return hi


def check_budgets(name, budgets):
    run = DifferentialExecutor(parse_program(EDGE_TARGETS[name]))
    for budget in budgets:
        run(VmLimits(1000, 64, 512, budget).config(0, FULL_RUN_INPUTS[name]))


@pytest.mark.parametrize("name", sorted(EDGE_TARGETS))
def test_every_step_budget(name):
    """A budget that runs out at any node, mid-expression included: every
    budget up to 500 and the last 100 before the run ends, with a sample
    in between (``test_every_step_budget_long`` takes them all)."""
    end = run_length(parse_program(EDGE_TARGETS[name]),
                     FULL_RUN_INPUTS[name])
    check_budgets(name, sorted(set(range(1, min(end, 499) + 1))
                               | set(range(500, end, 97))
                               | set(range(max(end - 100, 1), end + 1))))


@pytest.mark.slow
@pytest.mark.parametrize("name", ["nested_ifs", "deep_expression",
                                  *LONG_TARGETS])
def test_every_step_budget_long(name):
    end = run_length(parse_program(EDGE_TARGETS[name]),
                     FULL_RUN_INPUTS[name])
    assert end > 500
    check_budgets(name, range(1, end + 1))


@pytest.mark.parametrize("name", sorted(EDGE_TARGETS))
def test_tiny_boundaries(name):
    run = DifferentialExecutor(parse_program(EDGE_TARGETS[name]))
    rng = random.Random(name)
    limits = VmLimits(1000, 64, 512, 5_000)
    for data in edge_inputs(name, rng)[:8]:
        for size in range(1, 6):
            for config in (replace(limits.config(0, data[:size]),
                                   max_trace_length=size,
                                   max_input_bytes=size),
                           replace(limits.config(0, data),
                                   max_stack_size=size),
                           replace(limits.config(85, b""),
                                   max_input_bytes=size - 1)):
                run(config)


@pytest.mark.parametrize("path", TARGETS, ids=lambda p: p.stem)
def test_corpus_targets_random_inputs(path):
    run = DifferentialExecutor(parse_program(path.read_text(
        encoding="utf-8")))
    rng = random.Random(path.stem)
    inputs = random_inputs(rng, 60, 96)
    inputs += [b"\x7fELF" + data for data in inputs[:30]]
    for data in inputs:
        for limits in (LIMITS, VmLimits(30, 3, 16, 400)):
            run(limits.config(0, data[:limits.max_input_bytes]))


@pytest.mark.parametrize("path", TARGETS, ids=lambda p: p.stem)
def test_corpus_targets_fuzzed(path):
    fuzz_both(path.read_text(encoding="utf-8"), seed=1, executions=150)


def test_robustness_generator():
    for seed in range(30):
        fuzz_both(gen_program(seed), seed=seed, executions=40)


@pytest.mark.slow
@pytest.mark.parametrize("block", range(8))
def test_robustness_generator_many_seeds(block):
    for seed in range(50 * block, 50 * (block + 1)):
        fuzz_both(gen_program(seed), seed=seed, executions=80)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(2, 6))
def test_corpus_targets_fuzzed_many_seeds(seed):
    for path in TARGETS:
        fuzz_both(path.read_text(encoding="utf-8"), seed=seed,
                  executions=400)
