import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradfuzz.minivm import ParseError, VmLimits, execute, parse_program
from gradfuzz.target_abi import (
    DIRECTION,
    CTX,
    ID,
    NBYTES,
    UID,
    VALUE,
    XOR_FLAG,
    ExecutionConfig,
    TerminationKind,
    TypeTag,
)
from reference_interp import branching_value

LIMITS = VmLimits(max_trace_length=1000, max_stack_size=64,
                  max_input_bytes=512, step_budget=200_000)


def run(src, data=b"", fill=0, limits=LIMITS):
    return execute(parse_program(src), limits.config(fill, data))


# runs a target recursing 40,000 calls deep under caps that admit it
DEEP_RECURSION = """
from gradfuzz.minivm import VmLimits, execute, parse_program
program = parse_program(
    "int r(int n) { if (n <= 0) { return 0; } return r(n - 1) + 1; }"
    "int main() { int n = nondet_int(); return r(n); }")
limits = VmLimits(max_trace_length=10 ** 6, max_stack_size=100_000,
                  step_budget=10 ** 8)
result = execute(program, limits.config(0, (40_000).to_bytes(4, "little")))
print(result.termination.name)
"""


SENSE_EXAMPLE = """
int main() {
  char c = nondet_char();
  c = c & 7;
  bool b0 = ((c ^ 7) * (c ^ 1)) != 0;
  if (b0) return 0;
  bool b1 = c > 2;
  return 0;
}
"""


_VOID_G = "void g() { return; }\n"

# (program, message, line, column): one minimal program per rejection;
# a rejection of a statement points at its first token
REJECTED = [
    ("int main() {\n  return @;\n}", "unexpected character '@'", 2, 10),
    ("int main() {\n  return 0\n}", "expected ';', found '}'", 3, 1),
    ("int main() { return 0; }\nmain() { return 0; }",
     "expected a type name, found 'main'", 2, 1),
    ("int main() { return 0; }\nint 5() { return 0; }",
     "expected a function name", 2, 5),
    ("int f(int 5) { return 0; }", "expected a parameter name", 1, 11),
    ("int main() {\n  int 5 = 1;\n  return 0;\n}",
     "expected a variable name", 2, 7),
    ("int main() {\n  return );\n}", "unexpected token ')'", 2, 10),
    ("int f() { return 0; }\nint f() { return 1; }\nint main() { return 0; }",
     "duplicate function 'f'", 2, 1),
    ("int f() { return 0; }", "no main function", 1, 1),
    ("int f(void a) { return 0; }\nint main() { return f(1); }",
     "cannot use a void value", 2, 23),
    (_VOID_G + "int main() { bool b = g(); return 0; }",
     "cannot convert void to bool", 2, 14),
    (_VOID_G + "int main() { int x = g(); return 0; }",
     "cannot convert void to i32", 2, 14),
    ("int main() {\n  void v;\n  return 0;\n}",
     "cannot declare a void variable", 2, 3),
    ("int main() {\n  int x = 1;\n  int x = 2;\n  return 0;\n}",
     "redeclaration of 'x'", 3, 3),
    (_VOID_G + "int main() { if (g()) { abort(); } return 0; }",
     "condition is not bool or numeric", 2, 14),
    ("int main() {\n  return;\n}", "missing return value", 2, 3),
    ("void g() { return 1; }\nint main() { return 0; }",
     "void function returns a value", 1, 12),
    ("int main() {\n  ulong x = 18446744073709551616;\n  return 0;\n}",
     "integer literal out of range", 2, 13),
    ("int main() {\n  bool b = -true;\n  return 0;\n}",
     "cannot negate a non-numeric value", 2, 12),
    (_VOID_G + "int main() { bool b = !g(); return 0; }",
     "operand of ! is not bool or numeric", 2, 23),
    (_VOID_G + "int main() { int x = g() + 1; return 0; }",
     "invalid operand type void", 2, 26),
    ("int main() {\n  int x = (void)1;\n  return 0;\n}",
     "cannot cast to void", 2, 11),
    ("int main() {\n  int x = nondet_int(1);\n  return 0;\n}",
     "input reads take no arguments", 2, 11),
    ("int main() {\n  int x = h();\n  return 0;\n}",
     "unknown function 'h'", 2, 11),
    ("int f(int a) { return a; }\nint main() { return f(); }",
     "'f' expects 1 arguments", 2, 21),
]


class TestParse:
    @pytest.mark.parametrize("src, message, line, col", REJECTED,
                             ids=[message for _, message, _, _ in REJECTED])
    def test_rejection_names_the_fault_and_its_line(self, src, message,
                                                    line, col):
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert str(exc.value) == f"{line}:{col}: {message}"
        assert (exc.value.line, exc.value.col) == (line, col)

    def test_largest_ulong_literal_accepted(self):
        result = run("int main() {\n  ulong x = 18446744073709551615;\n"
                     "  if (x > 18446744073709551614) { abort(); }\n"
                     "  return 0;\n}")
        assert result.termination == TerminationKind.CRASH

    def test_trivial_program_has_no_boolean_sites(self):
        program = parse_program("int main(){ return 0; }")
        assert program.num_boolean_sites == 0

    def test_single_comparison_site(self):
        program = parse_program(
            "int main(){ int x = nondet_int(); bool b = x < 123456789;"
            " return 0; }")
        assert program.num_boolean_sites == 1

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError):
            parse_program("int main(){ return 0; ")

    def test_type_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("int main(){ bool b = 1.5 % 2.0; return 0; }")
        assert exc.value.line == 1

    def test_main_with_parameters_rejected(self):
        with pytest.raises(ParseError, match="main takes no parameters"):
            parse_program("int main(int x){ if (x > 3) { abort(); }"
                          " return 0; }")

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(ParseError, match="duplicate parameter 'a'") as exc:
            parse_program("int twice(int a, int a) { return a; }\n"
                          "int main(){ return twice(1, 2); }")
        assert exc.value.line == 1

    def test_undeclared_variable(self):
        with pytest.raises(ParseError):
            parse_program("int main(){ x = 1; return 0; }")

    def test_uids_assigned_in_source_order(self):
        src = """
        int main() {
          int x = nondet_int();
          bool a = x < 5;
          bool b = x > 9;
          if (a) { bool c = x == 7; }
          return 0;
        }
        """
        result = run(src, b"\x03\x00\x00\x00")
        uids = [rec[ID][UID] for rec in result.trace]
        # a (<), b (>), if(a) truncation, c (==)
        assert uids == [1, 2, 3, 4]


class TestBranchingValue:
    def test_comparison_against_large_constant(self):
        assert branching_value(0, 123456789, "comparison") == -123456789.0

    def test_truncation_always_one(self):
        assert branching_value(17, -3, "truncation") == 1.0

    def test_equal_operands(self):
        assert branching_value(42, 42, "comparison") == 0.0


class TestExecute:
    def test_worked_example_base_input(self):
        result = run(SENSE_EXAMPLE, b"\x00")
        assert result.termination == TerminationKind.NORMAL
        # c = 0 takes the early return: the != comparison plus the
        # bool-variable branch condition
        assert len(result.trace) == 2
        first = result.trace[0]
        assert first[VALUE] == 7.0
        assert first[NBYTES] == 1
        assert first[DIRECTION] is True

    def test_worked_example_fallthrough(self):
        result = run(SENSE_EXAMPLE, b"\x01")
        assert [r[ID][UID] for r in result.trace] == [1, 2, 3]
        assert result.trace[2][VALUE] == -1.0
        result = run(SENSE_EXAMPLE, b"\x07")
        assert result.trace[2][VALUE] == 5.0
        assert result.trace[2][DIRECTION] is True

    def test_empty_input_filled_with_zero(self):
        src = ("int main(){ int x = nondet_int();"
               " bool b = x < 123456789; return 0; }")
        result = run(src, b"")
        assert result.bytes_read == b"\x00\x00\x00\x00"
        assert result.type_tags == (TypeTag.SINT32,)
        rec = result.trace[0]
        assert rec[VALUE] == -123456789.0
        assert rec[DIRECTION] is True

    def test_fill_byte_85(self):
        src = "int main(){ char c = nondet_char(); bool b = c == 85; return 0; }"
        result = run(src, b"", fill=85)
        assert result.bytes_read == b"\x55"
        assert result.trace[0][DIRECTION] is True

    def test_trace_limit_boundary_violation(self):
        src = """
        int main() {
          int i = 0;
          while (i < 100) { i = i + 1; }
          return 0;
        }
        """
        config = ExecutionConfig(10, 64, 512, LIMITS.step_budget, 0, b"")
        result = execute(parse_program(src), config)
        assert result.termination == \
            TerminationKind.BOUNDARY_CONDITION_VIOLATION
        assert len(result.trace) == 10

    def test_input_limit_boundary_violation(self):
        src = "int main(){ long a = nondet_long(); return 0; }"
        config = ExecutionConfig(100, 64, 4, LIMITS.step_budget, 0, b"")
        result = execute(parse_program(src), config)
        assert result.termination == \
            TerminationKind.BOUNDARY_CONDITION_VIOLATION
        assert result.bytes_read == b""
        assert result.type_tags == ()

    def test_stack_limit_boundary_violation(self):
        src = """
        int down(int n) { if (n == 0) { return 0; } return down(n - 1); }
        int main() { int r = down(1000); return r; }
        """
        result = run(src)
        assert result.termination == \
            TerminationKind.BOUNDARY_CONDITION_VIOLATION

    def test_deep_recursion_ends_in_a_termination_kind(self):
        # in a fresh interpreter, at its default C stack: recursion far past
        # the interpreter's frame ceiling must end the run, not the process
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", DEEP_RECURSION],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["CRASH"]

    def test_step_budget_timeout(self):
        src = "int main(){ int i = 0; while (true) { i = i + 1; } return 0; }"
        result = run(src, limits=VmLimits(1000, 64, 512, 5_000))
        assert result.termination == TerminationKind.TIMEOUT

    def test_abort_crashes(self):
        result = run("int main(){ abort(); return 0; }")
        assert result.termination == TerminationKind.CRASH

    def test_division_by_zero_crashes(self):
        src = "int main(){ int x = nondet_int(); int y = 7 / x; return 0; }"
        assert run(src, b"\x00\x00\x00\x00").termination == \
            TerminationKind.CRASH
        assert run(src, b"\x01\x00\x00\x00").termination == \
            TerminationKind.NORMAL

    def test_modulo_by_zero_crashes(self):
        src = "int main(){ int x = nondet_int(); int y = 7 % x; return 0; }"
        assert run(src, b"").termination == TerminationKind.CRASH


class TestRecordSemantics:
    def test_comparison_sign_matches_direction(self):
        src = "int main(){ int x = nondet_int(); bool b = x < 10; return 0; }"
        for raw in (b"\x00\x00\x00\x00", b"\x0a\x00\x00\x00",
                    b"\xff\xff\xff\x7f"):
            rec = run(src, raw).trace[0]
            assert rec[DIRECTION] == (rec[VALUE] < 0)

    def test_bool_call_records_one(self):
        src = """
        bool check(int v) { return v > 3; }
        int main() { int x = nondet_int(); if (check(x)) { return 1; }
                     return 0; }
        """
        result = run(src, b"\x09\x00\x00\x00")
        values = [(r[ID][UID], r[VALUE], r[DIRECTION]) for r in result.trace]
        # the comparison inside check, then the bool-returning call site
        assert values[0][1] == 6.0
        assert values[1][1] == 1.0
        assert values[1][2] is True

    def test_xor_flag_set_within_block(self):
        src = ("int main(){ char x = nondet_char();"
               " bool b = (x ^ 5) == 0; return 0; }")
        assert run(src, b"\x05").trace[0][XOR_FLAG] is True

    def test_xor_flag_cleared_by_branch(self):
        src = """
        int main() {
          char x = nondet_char();
          char y = x ^ 3;
          if (y > 0) { bool late = x == 2; }
          return 0;
        }
        """
        result = run(src, b"\x02")
        assert result.trace[0][XOR_FLAG] is True   # condition after the xor
        assert result.trace[1][XOR_FLAG] is False  # branch cleared the flag

    def test_xor_flag_cleared_by_call(self):
        src = """
        int probe(int v) { bool inner = v == 9; return 0; }
        int main() {
          char x = nondet_char();
          char y = x ^ 1;
          int r = probe(y);
          return 0;
        }
        """
        result = run(src, b"\x08")
        assert result.trace[0][XOR_FLAG] is False

    def test_calling_context_distinguishes_sites(self):
        src = """
        void foo(int v) { if (v < 0) { abort(); } }
        int main() {
          int x = nondet_int();
          int y = nondet_int();
          foo(x);
          foo(y);
          return 0;
        }
        """
        result = run(src, b"\x01\x00\x00\x00\xff\xff\xff\xff")
        assert len(result.trace) == 2
        first, second = result.trace
        assert first[ID][UID] == second[ID][UID]
        assert first[ID][CTX] != second[ID][CTX]
        assert result.termination == TerminationKind.CRASH

    def test_context_depth_cap_stabilizes_hash(self):
        src = """
        int down(int n) { bool stop = n == 0; if (stop) { return 0; }
                          return down(n - 1); }
        int main() { int r = down(40); return r; }
        """
        result = run(src)
        contexts = [r[ID][CTX] for r in result.trace
                    if r[ID][UID] == 1]
        # frames beyond the cap stop changing the hash
        assert len(set(contexts[33:])) == 1
        assert len(set(contexts[:8])) == 8

    def test_float_nan_comparison_canonicalized(self):
        src = ("int main(){ double d = nondet_double();"
               " bool b = d < 1.5; return 0; }")
        raw = bytes.fromhex("000000000000f87f")  # a quiet NaN
        rec = run(src, raw).trace[0]
        assert rec[VALUE] == math.inf
        assert rec[DIRECTION] is False

    def test_float_overflow_rounds_to_infinity(self):
        src = ("int main(){ float f = nondet_float();"
               " double d = nondet_double(); float g = f * f;"
               " float n = (float)d; bool b1 = g > 0.0; bool b2 = n < 0.0;"
               " return 0; }")
        data = struct.pack("<fd", 3e38, -1e300)
        result = run(src, data)
        assert result.termination == TerminationKind.NORMAL
        g, n = (rec[VALUE] for rec in result.trace)
        assert g == math.inf and n == -math.inf

    def test_unsigned_char_semantics(self):
        src = ("int main(){ char x = nondet_char();"
               " bool b = (x ^ 0xA5) == 0; return 0; }")
        result = run(src, b"\xa5")
        assert result.trace[0][DIRECTION] is True
        assert result.trace[0][VALUE] == 0.0

    def test_signed_wraparound(self):
        src = ("int main(){ schar x = nondet_schar();"
               " bool b = x < 0; return 0; }")
        rec = run(src, b"\x80").trace[0]
        assert rec[VALUE] == -128.0
        assert rec[DIRECTION] is True

    def test_shift_and_mask_swap(self):
        src = """
        int main() {
          char x = nondet_char();
          x = x & 15;
          x = ((x & 1) << 3) | (x & 6) | (x & 8) >> 3;
          bool b = x == 4;
          return 0;
        }
        """
        assert run(src, b"\x04").trace[0][DIRECTION] is True
        assert run(src, b"\x0a").trace[0][VALUE] == -1.0


class TestDeterminism:
    def test_identical_runs(self):
        src = SENSE_EXAMPLE
        for data in (b"", b"\x01", b"\xf3"):
            assert run(src, data) == run(src, data)

    @given(st.binary(max_size=8), st.binary(max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_prefix_stability(self, prefix, extra):
        src = """
        int main() {
          char a = nondet_char();
          bool b = a > 10;
          if (b) { char c = nondet_char(); bool d = c == 3; }
          return 0;
        }
        """
        longer = run(src, prefix + extra)
        if len(longer.bytes_read) <= len(prefix):
            shorter = run(src, prefix)
            assert shorter.trace == longer.trace
            assert shorter.bytes_read == longer.bytes_read
