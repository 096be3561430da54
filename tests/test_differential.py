"""The compiled interpreter against the tree-walking reference in
``reference_interp``: every execution must give byte-identical wire
encodings, step accounting, boundaries and crashes included.

The many-seed run is marked ``slow``; run it with ``pytest -m slow``.
"""
import random
import struct
from pathlib import Path

import pytest

import reference_interp
from gradfuzz.fuzz_loop import (
    OPTIMIZER_SCALE,
    FuzzBudget,
    FuzzOptions,
    run_fuzzing,
)
from gradfuzz.minivm import VmLimits, execute, parse_program
from gradfuzz.target_abi import ExecutionConfig, TerminationKind, wire_encode
from test_robustness import gen_program

ROOT = Path(__file__).parent.parent
TARGETS = (sorted((ROOT / "benchmarks").glob("*.mc"))
           + sorted((ROOT / "bench" / "targets").glob("*.mc")))

LIMITS = VmLimits(max_trace_length=1000, max_stack_size=64,
                  max_input_bytes=512, step_budget=200_000)


def assert_same(program, config, limits):
    compiled = execute(program, config, limits)
    reference = reference_interp.execute(program, config, limits)
    assert wire_encode(compiled) == wire_encode(reference), (
        f"{config} under {limits}: {compiled.termination.name} with "
        f"{len(compiled.trace)} records, reference "
        f"{reference.termination.name} with {len(reference.trace)}")
    return compiled


def config_for(data, limits=LIMITS, fill=0, trace=None, stack=None,
               input=None):
    return ExecutionConfig(
        limits.max_trace_length if trace is None else trace,
        limits.max_stack_size if stack is None else stack,
        limits.max_input_bytes if input is None else input, fill, data)


class DifferentialExecutor:
    """Executor that runs every config on both interpreters."""

    def __init__(self, program, limits):
        self.program = program
        self.limits = limits
        self.executions = 0

    def __call__(self, config):
        self.executions += 1
        return assert_same(self.program, config, self.limits)

    def scaled(self, trace, stack, input, steps):
        return DifferentialExecutor(
            self.program, self.limits.scaled(trace, stack, input, steps))

    def close(self):
        pass


def fuzz_both(source, seed, executions, limits=LIMITS):
    """Fuzz with every execution checked, optimizer phase included."""
    executor = DifferentialExecutor(parse_program(source), limits)
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

EDGE_TARGETS = {"floats": FLOATS, "division": DIVISION, "mixed": MIXED,
                "spin": SPIN, "recursion": RECURSION, "returns": RETURNS}


def edge_inputs(name, rng):
    if name == "floats":
        inputs = [f32(a) + f64(b) for a in SPECIAL_FLOATS
                  for b in SPECIAL_FLOATS]
        return inputs + random_inputs(rng, 40, 12)
    if name == "recursion":
        return [n.to_bytes(2, "little")
                for n in (0, 1, 5, 63, 1000, 1022, 1023, 1024, 5000)]
    inputs = [b"", b"\x00" * 32, b"\xff" * 32,
              b"\x01\x00\x00\x00\xff\x80\x00\x01" * 4]
    return inputs + random_inputs(rng, 40, 32)


@pytest.mark.parametrize("name", sorted(EDGE_TARGETS))
def test_edge_targets(name):
    program = parse_program(EDGE_TARGETS[name])
    rng = random.Random(name)
    limits = (VmLimits().scaled(**OPTIMIZER_SCALE) if name == "recursion"
              else VmLimits(1000, 64, 512, 5_000))
    for data in edge_inputs(name, rng):
        for fill in (0, 85):
            assert_same(program, config_for(data, limits, fill), limits)


# inputs that run each edge target to its end (spin never ends)
FULL_RUN_INPUTS = {
    "division": bytes.fromhex("05000000fd"),
    "floats": f32(7.5) + f64(-2.5),
    "mixed": bytes.fromhex("69d633d72792ad00847cbf25625bfc6cfaa98c0ed077aa76"
                           "e5bc"),
    "recursion": (6).to_bytes(2, "little"),
    "returns": b"\x00\x02",
    "spin": b"\x07",
}


@pytest.mark.parametrize("name", sorted(EDGE_TARGETS))
def test_every_step_budget(name):
    """A budget that runs out at any node, mid-expression included."""
    program = parse_program(EDGE_TARGETS[name])
    for budget in range(1, 500):
        limits = VmLimits(1000, 64, 512, budget)
        result = assert_same(program,
                             config_for(FULL_RUN_INPUTS[name], limits),
                             limits)
        if result.termination != TerminationKind.TIMEOUT:
            break
    assert (result.termination == TerminationKind.TIMEOUT) == \
        (name == "spin")


@pytest.mark.parametrize("name", sorted(EDGE_TARGETS))
def test_tiny_boundaries(name):
    program = parse_program(EDGE_TARGETS[name])
    rng = random.Random(name)
    limits = VmLimits(1000, 64, 512, 5_000)
    for data in edge_inputs(name, rng)[:8]:
        for size in range(1, 6):
            for config in (config_for(data[:size], trace=size, input=size),
                           config_for(data, stack=size),
                           config_for(b"", input=size - 1, fill=85)):
                assert_same(program, config, limits)


@pytest.mark.parametrize("path", TARGETS, ids=lambda p: p.stem)
def test_corpus_targets_random_inputs(path):
    program = parse_program(path.read_text(encoding="utf-8"))
    rng = random.Random(path.stem)
    inputs = random_inputs(rng, 60, 96)
    inputs += [b"\x7fELF" + data for data in inputs[:30]]
    for data in inputs:
        for limits in (LIMITS, VmLimits(30, 3, 16, 400)):
            assert_same(program, config_for(data[:limits.max_input_bytes],
                                            limits), limits)


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
