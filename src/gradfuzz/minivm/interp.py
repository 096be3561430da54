"""Instrumenting interpreter for the mini target language.

A checked ``Program`` is translated once, on its first execution, into
Python source with one function per ``.mc`` function, compiled with
``compile``/``exec`` (as ``dataclasses._create_fn`` does) and cached in
``Program.compiled``.  Target variables are Python locals ``v_<name>``;
expressions are flattened into one temporary per node, with wrap masks,
numeric conversions and records written inline; float literals are named
constants, never source text.  The run state (steps, budget, bytes
consumed, the trace and its cap, the input, the record ids ``e<k>``)
lives in locals too; steps and bytes consumed are written back to the
run object before each call and on return, and reloaded after each
call.  A statement nested too
deep for one Python function (CPython allows 20 nested loops) becomes a
nested function sharing the locals as ``nonlocal``.

Every execution is a pure function of (program, config): it runs to the
four caps the config carries, unchecked (a serving process checks them).
It yields an ExecutionResult carrying the bytes read, one type tag per
read call, and one condition record per evaluated Boolean instruction,
built as a plain tuple display (no Python call per record):

* comparison sites record ``(double)l - (double)r`` of the converted
  operands,
* implicit numeric-to-bool conversions record the value itself (an
  ``!= 0`` check),
* bool-variable branch conditions and bool-returning calls record 1.0.

The xor flag on a record is true iff a ``^`` was evaluated since the most
recent control-flow transfer (branch decision, loop back edge, call, or
return).  Bit index s of the input lives in byte s // 8 at bit position
7 - s % 8 (MSB first); the same convention is used engine-wide.

The step budget stands in for a wall-clock timeout.  Every node counts
one step on entry, before its operands; one ``steps += n`` adds up the
steps of adjacent nodes and comes before the next check, branch, call or
return.  The budget is checked before every observable event (a record, a
read, a call, a crash) and on every loop iteration, so a run ends with
the same termination and trace as a check at every node would give.
The trace cap is checked before every call and on the back edge of every
loop that can record; ``execute`` cuts a run that went past it back to
its record ``cap``, which, with the step check before every record,
stands where a check at every record would have raised.  The input cap
is the end of ``data``: only reads index it, so ``execute`` reports
their ``IndexError`` and ``struct.error`` as the boundary, and a read is
tagged after it succeeds.

Each target call costs a Python frame, and one more per outlined
statement.  Importing the interpreter raises Python's recursion limit to
12,000 frames; a run that recurses past it ends in CRASH.  The ceiling
sits well below the ~20,000 frames at which CPython 3.10, where every
Python frame also takes C stack, overflows a default 8 MB stack.
"""
from __future__ import annotations

import math
import struct
import sys
import weakref
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional

from ..target_abi import (
    _CAPS,
    DEFAULT_CONTEXT_DEPTH,
    FNV32_BASIS,
    NBYTES,
    ExecutionConfig,
    ExecutionResult,
    TerminationKind,
    TypeTag,
    context_hash_push,
)
from .parser import (
    BOOL, F32, F64, TYPE_TAGS, VOID,
    AbortStmt, Assign, Binary, Block, BoolLit, Call, Cast, Decl, Expr,
    ExprStmt, FloatLit, Function, If, IntLit, Program, Return, Stmt, Type,
    Unary, VarRef, While, _nondet_type,
)


@dataclass(frozen=True)
class VmLimits:
    """The caps the engine asks for and the caps a server admits; the step
    budget stands in for a wall-clock timeout."""

    max_trace_length: int = 10_000
    max_stack_size: int = 256
    max_input_bytes: int = 4_096
    step_budget: int = 10_000_000

    def __post_init__(self) -> None:
        for name in _CAPS:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def config(self, fill_byte: int, input_bytes: bytes) -> ExecutionConfig:
        """The execution config that asks for exactly these caps."""
        return ExecutionConfig(self.max_trace_length, self.max_stack_size,
                               self.max_input_bytes, self.step_budget,
                               fill_byte, input_bytes)


# the post-run optimizer's caps, as multiples of the run's own; a
# manifest records the scale its extended tests ran under
OPTIMIZER_SCALE = {"trace": 32, "stack": 4, "input": 4, "steps": 32}


def optimizer_limits(limits: VmLimits,
                     scale: dict[str, int] = OPTIMIZER_SCALE) -> VmLimits:
    """The caps under which the post-run optimizer re-runs tests, and
    which a serving process admits by default."""
    return VmLimits(limits.max_trace_length * scale["trace"],
                    limits.max_stack_size * scale["stack"],
                    limits.max_input_bytes * scale["input"],
                    limits.step_budget * scale["steps"])


class _Crash(Exception):
    pass


class _Boundary(Exception):
    pass


class _Timeout(Exception):
    pass


_F32 = TypeTag.FLOAT32.codec


def _f32(value: float) -> float:
    try:
        return _F32.unpack(_F32.pack(value))[0]
    except OverflowError:  # finite but rounds past FLT_MAX: C gives inf
        return math.copysign(math.inf, value)


def _float_div(left: float, right: float) -> float:
    """``left / right`` for a divisor of 0.0 or -0.0, where Python raises:
    IEEE 754's NaN or signed infinity."""
    if left == 0.0 or math.isnan(left):
        return math.nan
    return math.copysign(math.inf, left) * math.copysign(1.0, right)


def _int_quot(left: int, right: int) -> int:
    q = abs(left) // abs(right)
    return q if (left < 0) == (right < 0) else -q


class _Run:
    """Mutable state of one execution that outlives a function call."""

    __slots__ = ("steps", "budget", "data", "consumed", "tags", "trace",
                 "max_trace", "max_stack")

    def __init__(self, config: ExecutionConfig):
        self.steps = 0
        self.budget = config.step_budget
        # reads past the provided input continue with the fill byte
        self.data = config.input_bytes + bytes((config.fill_byte,)) * (
            config.max_input_bytes - len(config.input_bytes))
        self.consumed = 0
        self.tags = []
        self.trace = []
        # a negative cap stops a run where 0 does: at its first record
        self.max_trace = max(config.max_trace_length, 0)
        self.max_stack = config.max_stack_size


class _Memo(dict):
    """``fn(key)`` for each key, computed once."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _nodes(node):
    """``node`` and every AST node under it, without recursion."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for value in vars(node).values():
            if isinstance(value, (Expr, Stmt)):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, (Expr, Stmt)))


class _Val(NamedTuple):
    """An operand: a local, int literal or constant, and an int's range."""

    text: str
    lo: Optional[int] = None
    hi: Optional[int] = None


_MAX_INDENT = 12  # a compound statement deeper than this is outlined


class _Emitter:
    """Writes the Python source of a program and compiles it.

    Each emit method appends lines at the current indentation and adds the
    steps of the nodes it enters to ``pending``, which ``flush`` writes
    out as one ``steps += n``.  ``dirty`` is false while the local ``xor``
    is known to be false, so that records can use the constant."""

    def __init__(self, program: Program):
        self.ns = {"_Timeout": _Timeout, "_Boundary": _Boundary,
                   "_Crash": _Crash, "_INF": math.inf, "_f32": _f32,
                   "_float_div": _float_div, "_int_quot": _int_quot}
        self.functions = program.functions
        source = []
        for fn in program.functions.values():
            source += self.function(fn)
        self.source = "\n".join(source)
        exec(compile(self.source, "<minivm>", "exec"), self.ns)
        self.entry = self.ns["f_main"]
        # the emitted functions and their namespace refer to each other;
        # emptying it once the program goes frees them by reference
        # counting, not at the next full collection
        weakref.finalize(program, self.ns.clear)

    def bind(self, value) -> str:
        """A global name for ``value`` in the emitted module."""
        name = f"_k{len(self.ns)}"
        self.ns[name] = value
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def temp(self, text: str) -> str:
        self.ntemps += 1
        name = f"t{self.ntemps}"
        self.line(f"{name} = {text}")
        return name

    def flush(self) -> None:
        if self.pending:
            self.line(f"steps += {self.pending}")
            self.pending = 0

    # -- functions --------------------------------------------------------

    def function(self, fn: Function) -> list[str]:
        self.lines = []
        self.indent = 1
        self.pending = 0
        self.dirty = False
        self.ntemps = 0
        self.sites: list[int] = []    # record uids, by id local e<k>
        self.calls = 0
        self.uses: set[str] = set()   # "record", "call", "cap", "xor"
        self.nested: list[tuple[str, list[str]]] = []
        self.outlined = False
        nodes = list(_nodes(fn.body))
        self.reads = any(isinstance(n, Call) and _nondet_type(n.name)
                         for n in nodes)
        # the body's statements run without a step for the body block
        for stmt in fn.body.stmts:
            self.stmt(stmt)
        self.flush()
        self.exit("None" if fn.return_type is VOID else
                  self.zero(fn.return_type))

        names = [name for name, _ in fn.params]
        params = "".join(f", v_{name}" for name in names)
        head = [f"def f_{fn.name}(run, depth, ctx{params}):",
                "    steps = run.steps", "    budget = run.budget"]
        consumes = self.reads or bool(self.uses & {"record", "call"})
        head += ["    consumed = run.consumed"] * consumes
        head += ["    trace = run.trace"] * bool(self.uses & {"record", "cap"})
        if "record" in self.uses:
            sites = tuple(self.sites)
            ids = self.bind(_Memo(lambda ctx: tuple(
                (uid, ctx) for uid in sites)))
            head.append("    " + "".join(f"e{k}, " for k in range(len(sites)))
                        + f"= {ids}[ctx]")
        head += ["    cap = run.max_trace"] * ("cap" in self.uses)
        head += ["    data = run.data", "    tags = run.tags"] * self.reads
        head += ["    max_stack = run.max_stack"] * ("call" in self.uses)
        if self.nested:
            shared = ["steps"]
            if "xor" in self.uses:
                head.append("    xor = False")
                shared.append("xor")
            shared += ["consumed"] * consumes
            shared += [f"v_{name}" for name in names]
            for name in sorted({n.name for n in nodes
                                if isinstance(n, Decl)}):
                head.append(f"    v_{name} = None")
                shared.append(f"v_{name}")
            for name, lines in self.nested:
                head += [f"    def {name}():",
                         f"        nonlocal {', '.join(shared)}", *lines]
        return head + self.lines

    def sync(self) -> str:
        """Writes the run state back to the run object."""
        return ("run.steps = steps; run.consumed = consumed" if self.reads
                else "run.steps = steps")

    def exit(self, value: str) -> None:
        if self.outlined:
            self.line(f"return ({value},)")
        else:
            self.line(f"{self.sync()}; return {value}")

    @staticmethod
    def zero(ty: Type) -> str:
        """Value of a declaration without initializer, and of a non-void
        function falling off its end."""
        return "False" if ty is BOOL else "0.0" if ty.kind == "float" \
            else "0"

    def clear_xor(self) -> None:
        if self.dirty:
            self.line("xor = False")
            self.dirty = False

    # -- statements -------------------------------------------------------

    def stmt(self, stmt) -> None:
        if isinstance(stmt, (If, While)) and self.indent >= _MAX_INDENT:
            return self.outline(stmt)
        self.pending += 1
        if isinstance(stmt, Block):
            for inner in stmt.stmts:
                self.stmt(inner)
        elif isinstance(stmt, (Decl, Assign)):
            if isinstance(stmt, Assign):
                value = self.converted(stmt.expr, stmt.target_type,
                                       stmt.conv_uid).text
            elif stmt.init is not None:
                value = self.converted(stmt.init, stmt.decl_type,
                                       stmt.conv_uid).text
            else:
                value = self.zero(stmt.decl_type)
            self.line(f"v_{stmt.name} = {value}")
        elif isinstance(stmt, If):
            test, _ = self.condition(stmt)
            self.block(f"if {test}:", stmt.then)
            if stmt.els is not None:
                self.block("else:", stmt.els)
        elif isinstance(stmt, While):
            self.flush()
            self.line("while True:")
            self.indent += 1
            events = len(self.sites), self.calls
            test, exit_dirty = self.condition(stmt)
            self.line(f"if not {test}: break")
            self.stmt(stmt.body)
            self.flush()
            self.clear_xor()
            self.line("if steps > budget: raise _Timeout")
            if (len(self.sites), self.calls) != events:  # it can record
                self.uses.add("cap")
                self.line("if len(trace) > cap: raise _Boundary")
            self.indent -= 1
            # the loop ends at the break, with xor as the condition left it
            self.dirty = exit_dirty
            self.clear_xor()
        elif isinstance(stmt, Return):
            value = ("None" if stmt.expr is None else self.converted(
                stmt.expr, stmt.target_type, stmt.conv_uid).text)
            self.flush()
            self.exit(value)
        elif isinstance(stmt, ExprStmt):
            self.expr(stmt.expr)
        elif isinstance(stmt, AbortStmt):
            self.flush()
            self.line("raise _Timeout if steps > budget else _Crash")
        else:
            raise AssertionError(stmt)

    def condition(self, stmt) -> tuple[str, bool]:
        """The branch decision of an ``if`` or ``while``, and whether xor
        may be set before it is cleared after the decision."""
        test = self.expr(stmt.cond)
        if stmt.cond_kind == "cmp0":
            test = self.convert(test, stmt.cond.type, BOOL, stmt.cond_uid)
        elif stmt.cond_kind == "trunc":
            self.record(stmt.cond_uid, test.text, "1.0")
        self.flush()
        dirty = self.dirty
        self.clear_xor()
        return test.text, dirty

    def block(self, header: str, stmt) -> None:
        """``header`` and the statement ``stmt`` as its suite; xor is
        cleared after it."""
        self.line(header)
        self.indent += 1
        self.stmt(stmt)  # counts a step: the suite is never empty
        self.flush()
        self.clear_xor()
        self.indent -= 1

    def outline(self, stmt) -> None:
        """Emits ``stmt`` as a nested function and calls it; a ``return``
        inside comes back as a 1-tuple."""
        self.flush()
        name = f"o{len(self.nested) + 1}"
        self.nested.append((name, None))
        saved = self.lines, self.indent, self.outlined
        self.lines, self.indent, self.outlined = [], 2, True
        self.stmt(stmt)
        self.flush()
        body = self.lines
        self.lines, self.indent, self.outlined = saved
        self.nested[int(name[1:]) - 1] = (name, body)
        if not any(isinstance(n, Return) for n in _nodes(stmt)):
            self.line(f"{name}()")
            return
        result = self.temp(f"{name}()")
        if self.outlined:
            self.line(f"if {result} is not None: return {result}")
        else:
            self.line(f"if {result} is not None: {self.sync()}; "
                      f"return {result}[0]")

    # -- records and checks -----------------------------------------------

    def record(self, uid: int, direction: str, value: str,
               is_float: bool = False) -> None:
        """Appends a record; ``value`` is a local when ``is_float``."""
        self.flush()
        self.uses.add("record")
        self.sites.append(uid)
        if is_float:  # NaN becomes +inf, see target_abi; ints are finite
            self.line(f"if {value} != {value}: {value} = _INF")
        self.line("if steps > budget: raise _Timeout")
        xor = "xor" if self.dirty else "False"
        self.line(f"trace.append((e{len(self.sites) - 1}, {direction}, "
                  f"{value}, {xor}, consumed))")

    def read(self, ty: Type) -> _Val:
        self.flush()
        tag = TYPE_TAGS[ty]
        width = tag.byte_width
        self.line("if steps > budget: raise _Timeout")
        if ty is BOOL:
            value = self.temp("data[consumed] != 0")
        elif width == 1 and not ty.signed:
            value = self.temp("data[consumed]")
        else:
            unpack = self.bind(tag.codec.unpack_from)
            value = self.temp(f"{unpack}(data, consumed)[0]")
        self.line(f"tags.append({self.bind(tag)})")
        self.line(f"consumed += {width}")
        return self.typed(value, ty)

    def call(self, expr: Call) -> _Val:
        fn = self.functions[expr.name]
        args = [self.converted(arg, ptype, conv_uid).text
                for arg, conv_uid, (_, ptype)
                in zip(expr.args, expr.arg_conv_uids, fn.params)]
        self.flush()
        self.uses |= {"call", "cap"}
        self.calls += 1
        site = expr.site_uid
        pushes = self.bind(_Memo(lambda ctx: context_hash_push(ctx, site)))
        self.line("if steps > budget: raise _Timeout")
        self.line("if depth >= max_stack or len(trace) > cap: "
                  "raise _Boundary")
        self.line(self.sync())
        child = self.temp(f"{pushes}[ctx] if depth <= "
                          f"{DEFAULT_CONTEXT_DEPTH} else ctx")
        result = self.temp(f"f_{fn.name}(run, depth + 1, {child}"
                           + "".join(f", {a}" for a in args) + ")")
        self.line("steps = run.steps; consumed = run.consumed")
        self.clear_xor()  # the callee starts and ends with xor cleared
        if expr.bool_uid:
            self.record(expr.bool_uid, result, "1.0")
        return self.typed(result, fn.return_type)

    # -- conversions ------------------------------------------------------

    @staticmethod
    def typed(text: str, ty: Type) -> _Val:
        """A value of type ``ty``; integers lie in the type's range."""
        if ty.kind == "int":
            return _Val(text, *TYPE_TAGS[ty].domain)
        return _Val(text)

    def converted(self, expr, dst: Type, conv_uid: int) -> _Val:
        """``expr`` converted to ``dst``; numeric -> bool records."""
        return self.convert(self.expr(expr), expr.type, dst, conv_uid)

    def convert(self, val: _Val, src: Type, dst: Type,
                conv_uid: int = 0) -> _Val:
        """``val`` converted from ``src`` to ``dst``; a conversion counts
        no step of its own."""
        if src is dst:
            return val
        if dst is BOOL:
            taken = self.temp(f"{val.text} != 0")
            if src.kind == "float":
                value = self.temp(val.text)
                self.record(conv_uid, taken, value, True)
            else:
                self.record(conv_uid, taken, f"{val.text} + 0.0")
            return _Val(taken)
        x = val.text
        if dst.kind == "float":
            if src is F32 and dst is F64:
                return val
            # integers of up to 24 bits are exact in f32: no second rounding
            if dst is F64 or (src.kind != "float" and src.bits <= 24):
                return _Val(self.temp(f"float({x})"))
            return _Val(self.temp(f"_f32(float({x}))"))
        # to integer: truncate floats toward zero, saturating non-finite and
        # out-of-range values at the type bounds (NaN maps to 0)
        lo, hi = TYPE_TAGS[dst].domain
        if src.kind == "float":
            return _Val(self.temp(
                f"0 if {x} != {x} else {lo} if {x} < {lo} else {hi} "
                f"if {x} > {hi} else int({x})"), lo, hi)
        if src is BOOL:
            return _Val(self.temp(f"int({x})"), 0, 1)
        return self.wrap(x, val.lo, val.hi, dst)

    def wrap(self, text: str, lo: int, hi: int, ty: Type) -> _Val:
        """The integer ``text``, known to lie in [lo, hi], reduced to the
        range of ``ty`` (two's complement)."""
        tlo, thi = TYPE_TAGS[ty].domain
        if tlo <= lo and hi <= thi:
            if lo == hi or text.isidentifier():
                return _Val(text if lo != hi else repr(lo), lo, hi)
            return _Val(self.temp(text), lo, hi)
        mask = thi - tlo  # 2**bits - 1
        if lo == hi:
            value = lo & mask
            value = value - mask - 1 if value > thi else value
            return _Val(repr(value), value, value)
        if not tlo:
            return _Val(self.temp(f"({text}) & {mask}"), tlo, thi)
        half = -tlo
        return _Val(self.temp(f"(({text}) + {half} & {mask}) - {half}"),
                    tlo, thi)

    # -- expressions ------------------------------------------------------

    def expr(self, expr) -> _Val:
        self.pending += 1
        if isinstance(expr, IntLit):
            return _Val(repr(expr.value), expr.value, expr.value)
        if isinstance(expr, FloatLit):
            return _Val(self.bind(expr.value))
        if isinstance(expr, BoolLit):
            return _Val(repr(expr.value))
        if isinstance(expr, VarRef):
            return self.typed(f"v_{expr.name}", expr.type)
        if isinstance(expr, Unary):
            return self.unary(expr)
        if isinstance(expr, Binary):
            return self.binary(expr)
        if isinstance(expr, Cast):
            return self.convert(self.expr(expr.operand), expr.operand.type,
                                expr.target, expr.conv_uid)
        if isinstance(expr, Call):
            read_type = _nondet_type(expr.name)
            if read_type is not None:
                return self.read(read_type)
            return self.call(expr)
        raise AssertionError(expr)

    def unary(self, expr: Unary) -> _Val:
        val = self.expr(expr.operand)
        if expr.op == "-":
            ty = expr.type
            if ty is F32:
                return _Val(self.temp(f"_f32(-{val.text})"))
            if ty is F64:
                return _Val(self.temp(f"-{val.text}"))
            return self.wrap(f"-{val.text}", -val.hi, -val.lo, ty)
        # logical not: on a numeric operand this records an `== 0` check
        # as the `!= 0` check of a conversion to bool
        if expr.cmp_uid:
            val = self.convert(val, expr.operand.type, BOOL, expr.cmp_uid)
        return _Val(self.temp(f"not {val.text}"))

    def binary(self, expr: Binary) -> _Val:
        op = expr.op
        ty = expr.operand_type
        a = self.convert(self.expr(expr.left), expr.left.type, ty)
        b = self.expr(expr.right)
        if op not in ("<<", ">>"):
            b = self.convert(b, expr.right.type, ty)
        x, y = a.text, b.text
        if op in ("==", "!=", "<", "<=", ">", ">="):
            taken = self.temp(f"{x} {op} {y}")
            if ty.kind == "float":
                self.record(expr.cmp_uid, taken, self.temp(f"{x} - {y}"),
                            True)
            elif ty.bits <= 32:  # the difference is exact in a double
                y = repr(float(b.lo)) if b.lo == b.hi else f"{y} + 0.0"
                self.record(expr.cmp_uid, taken, f"{x} - {y}")
            else:
                self.record(expr.cmp_uid, taken,
                            f"float({x}) - float({y})")
            return _Val(taken)
        if ty.kind == "float":
            if op == "/":
                text = f"{x} / {y} if {y} else _float_div({x}, {y})"
            else:
                text = f"{x} {op} {y}"
            return _Val(self.temp(f"_f32({text})" if ty is F32 else text))
        tlo, thi = TYPE_TAGS[ty].domain
        if op == "^":
            self.uses.add("xor")
            value = self.temp(f"{x} ^ {y}")
            self.line("xor = True")
            self.dirty = True
            return _Val(value, tlo, thi)
        if op in ("&", "|"):
            if op == "&" and a.lo >= 0 and b.lo >= 0:
                return _Val(self.temp(f"{x} & {y}"), 0, min(a.hi, b.hi))
            return _Val(self.temp(f"{x} {op} {y}"), tlo, thi)
        if op in ("<<", ">>"):
            count = b.lo if b.lo is not None and b.lo == b.hi else None
            shift = f"({y} % {ty.bits})" if count is None else \
                repr(count % ty.bits)
            if op == ">>":  # arithmetic for signed, logical otherwise
                return _Val(self.temp(f"{x} >> {shift}"), min(a.lo, 0),
                            max(a.hi, 0))
            if count is None:
                return self.wrap(f"{x} << {shift}", tlo - 1, thi + 1, ty)
            k = count % ty.bits
            return self.wrap(f"{x} << {k}", a.lo << k, a.hi << k, ty)
        if op in ("/", "%"):
            if b.lo <= 0 <= b.hi:
                self.flush()
                self.line(f"if not {y}: "
                          "raise _Timeout if steps > budget else _Crash")
            if a.lo >= 0 and b.lo >= 0:  # and y > 0 past the check
                if op == "/":
                    return _Val(self.temp(f"{x} // {y}"), 0,
                                a.hi // max(b.lo, 1))
                return _Val(self.temp(f"{x} % {y}"), 0,
                            min(a.hi, b.hi - 1))
            if op == "%":  # |x % y| < |y|: always in range
                return _Val(self.temp(f"{x} - _int_quot({x}, {y}) * {y}"),
                            tlo, thi)
            return self.wrap(f"_int_quot({x}, {y})", tlo - 1, thi + 1, ty)
        if op == "+":
            lo, hi = a.lo + b.lo, a.hi + b.hi
        elif op == "-":
            lo, hi = a.lo - b.hi, a.hi - b.lo
        else:
            products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
            lo, hi = min(products), max(products)
        return self.wrap(f"{x} {op} {y}", lo, hi, ty)


_STOPS = {_Crash: TerminationKind.CRASH,
          _Boundary: TerminationKind.BOUNDARY_CONDITION_VIOLATION,
          _Timeout: TerminationKind.TIMEOUT,
          RecursionError: TerminationKind.CRASH,
          IndexError: TerminationKind.BOUNDARY_CONDITION_VIOLATION,
          struct.error: TerminationKind.BOUNDARY_CONDITION_VIOLATION}

# the frame ceiling for deep target recursion (see the module docstring)
sys.setrecursionlimit(max(sys.getrecursionlimit(), 12_000))


def execute(program: Program, config: ExecutionConfig) -> ExecutionResult:
    """Run the program on the config's input; always terminates.  The
    program is compiled on its first execution; a run past its trace cap
    is cut back to the cap (see the module docstring)."""
    entry = program.compiled
    if entry is None:
        entry = program.compiled = _Emitter(program).entry
    run = _Run(config)
    try:
        entry(run, 1, FNV32_BASIS)
        termination = (TerminationKind.TIMEOUT if run.steps > run.budget
                       else TerminationKind.NORMAL)
        consumed = run.consumed
    except tuple(_STOPS) as stop:
        termination = _STOPS[type(stop)]
        # run.consumed lags behind the raising function; every read is
        # tagged
        consumed = sum(tag.byte_width for tag in run.tags)
    trace, tags, cap = run.trace, run.tags, run.max_trace
    if len(trace) > cap:
        termination = TerminationKind.BOUNDARY_CONDITION_VIOLATION
        consumed = trace[cap][NBYTES]
        trace = trace[:cap]
        widths = accumulate((tag.byte_width for tag in tags), initial=0)
        tags = tags[:list(widths).index(consumed)]
    return ExecutionResult(termination, run.data[:consumed], tuple(tags),
                           tuple(trace))
