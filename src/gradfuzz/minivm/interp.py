"""Instrumenting interpreter for the mini target language.

A checked ``Program`` is compiled once, on its first execution, into one
Python closure per AST node, the technique of Feeley and Lapalme, "Using
Closures for Code Generation" (Computer Languages, 1987).  Everything
static is resolved at compile time: each operator's function, the
numeric conversions and wrap masks of each operand/result type pair,
each read's tag, width and decoder, each record site's uid, variable
slots, and the context-hash push of each call site, memoised per parent
hash.

Every execution is a pure function of (program, config, limits) and yields
an ExecutionResult carrying the bytes read, one type tag per read call,
and one ConditionRecord per evaluated Boolean instruction:

* comparison sites record ``(double)l - (double)r`` of the converted
  operands,
* implicit numeric-to-bool conversions record the value itself (an
  ``!= 0`` check),
* bool-variable branch conditions and bool-returning calls record 1.0.

The xor flag on a record is true iff a ``^`` was evaluated since the most
recent control-flow transfer (branch decision, loop back edge, call, or
return).  Bit index s of the input lives in byte s // 8 at bit position
7 - s % 8 (MSB first); the same convention is used engine-wide.

The step budget stands in for a wall-clock timeout.  Each node's closure
counts one step on entry.  The budget is checked before every observable
event (a record, a read, a call, a crash) and on every loop iteration, so
a run ends with the same termination and trace as a check at every node
would give.
"""
from __future__ import annotations

import math
import operator
import struct
import sys
from dataclasses import dataclass

from ..target_abi import (
    DEFAULT_CONTEXT_DEPTH,
    FNV32_BASIS,
    ConditionRecord,
    ExecutionConfig,
    ExecutionId,
    ExecutionResult,
    TerminationKind,
    context_hash_push,
)
from .parser import (
    BOOL, F32, F64, TYPE_TAGS, VOID,
    AbortStmt, Assign, Binary, Block, BoolLit, Call, Cast, Decl, ExprStmt,
    FloatLit, Function, If, IntLit, Program, Return, Type, Unary, VarRef,
    While, _nondet_type,
)


@dataclass(frozen=True)
class VmLimits:
    """Executor-side caps; configs above them are rejected, and the step
    budget stands in for a wall-clock timeout."""

    max_trace_length: int = 10_000
    max_stack_size: int = 256
    max_input_bytes: int = 4_096
    step_budget: int = 10_000_000

    def __post_init__(self) -> None:
        for name in ("max_trace_length", "max_stack_size",
                     "max_input_bytes", "step_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def scaled(self, trace: int = 1, stack: int = 1, input: int = 1,
               steps: int = 1) -> "VmLimits":
        return VmLimits(self.max_trace_length * trace,
                        self.max_stack_size * stack,
                        self.max_input_bytes * input,
                        self.step_budget * steps)

    def config(self, fill_byte: int, input_bytes: bytes) -> ExecutionConfig:
        """The execution config that asks for exactly these caps."""
        return ExecutionConfig(self.max_trace_length, self.max_stack_size,
                               self.max_input_bytes, fill_byte, input_bytes)


class _Crash(Exception):
    pass


class _Boundary(Exception):
    pass


class _Timeout(Exception):
    pass


_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

# what a void function's `return;` yields: any value but None, which
# means "fell through" to the statement that follows
_RETURNED = object()


def _f32(value: float) -> float:
    try:
        return _F32.unpack(_F32.pack(value))[0]
    except OverflowError:  # finite but rounds past FLT_MAX: C gives inf
        return math.copysign(math.inf, value)


def _float_div(left: float, right: float) -> float:
    if right == 0.0:
        if left == 0.0 or math.isnan(left):
            return math.nan
        return math.copysign(math.inf, left) * math.copysign(1.0, right)
    return left / right


def _int_quot(left: int, right: int) -> int:
    q = abs(left) // abs(right)
    return q if (left < 0) == (right < 0) else -q


def _int_rem(left: int, right: int) -> int:
    return left - _int_quot(left, right) * right


def _wrapper(ty: Type):
    """Reduce an integer to the range of ``ty`` (two's complement)."""
    mask = (1 << ty.bits) - 1
    if not ty.signed:
        return lambda value: value & mask
    half = 1 << (ty.bits - 1)
    return lambda value: ((value + half) & mask) - half


def _zero(ty: Type):
    """Value of a declaration without initializer, and of a non-void
    function falling off its end."""
    return False if ty is BOOL else 0.0 if ty.kind == "float" else 0


def _int_range(ty: Type) -> tuple[int, int]:
    if ty is BOOL:
        return 0, 1
    if ty.signed:
        return -(1 << (ty.bits - 1)), (1 << (ty.bits - 1)) - 1
    return 0, (1 << ty.bits) - 1


def _conversion(src: Type, dst: Type):
    """Function converting a value of type ``src`` to numeric ``dst``, or
    None when every value of ``src`` passes unchanged."""
    if src is dst:
        return None
    if dst.kind == "float":
        if src is F32 and dst is F64:
            return None
        # integers of up to 24 bits are exact in f32: no second rounding
        if dst is F64 or (src.kind != "float" and src.bits <= 24):
            return float
        return lambda value: _f32(float(value))
    # to integer: truncate floats toward zero, saturating non-finite and
    # out-of-range values at the type bounds (NaN maps to 0)
    lo, hi = _int_range(dst)
    if src.kind == "float":
        def saturate(value):
            if math.isnan(value):
                return 0
            return lo if value < lo else hi if value > hi else int(value)
        return saturate
    if src is BOOL:
        return int
    src_lo, src_hi = _int_range(src)
    if lo <= src_lo and src_hi <= hi:
        return None
    return _wrapper(dst)


class _Run:
    """Mutable state of one execution."""

    __slots__ = ("steps", "budget", "input", "fill", "max_input",
                 "consumed", "tags", "trace", "max_trace", "depth",
                 "max_stack", "ctx", "xor")

    def __init__(self, config: ExecutionConfig, limits: VmLimits):
        self.steps = 0
        self.budget = limits.step_budget
        self.input = config.input_bytes
        self.fill = config.fill_byte
        self.max_input = config.max_input_bytes
        self.consumed = 0
        self.tags = []
        self.trace = []
        self.max_trace = config.max_trace_length
        self.depth = 1  # frames, the entry function's included
        self.max_stack = config.max_stack_size
        self.ctx = FNV32_BASIS
        self.xor = False

    def event(self) -> None:
        """Called before every observable event: ends the run once the
        steps counted so far exceed the budget."""
        if self.steps > self.budget:
            raise _Timeout()

    def emit(self, ids: "_SiteIds", direction: bool, value: float) -> None:
        if self.steps > self.budget:
            raise _Timeout()
        trace = self.trace
        if len(trace) >= self.max_trace:
            raise _Boundary()
        trace.append(ConditionRecord(ids[self.ctx], direction, value,
                                     self.xor, self.consumed))

    def read(self, tag, width: int) -> bytes:
        if self.steps > self.budget:
            raise _Timeout()
        start = self.consumed
        end = start + width
        if end > self.max_input:
            raise _Boundary()
        self.consumed = end
        self.tags.append(tag)
        raw = self.input[start:end]
        if len(raw) < width:
            raw += bytes((self.fill,)) * (width - len(raw))
        return raw

    def bytes_read(self) -> bytes:
        raw = self.input[:self.consumed]
        return raw + bytes((self.fill,)) * (self.consumed - len(raw))


class _SiteIds(dict):
    """The ExecutionId of one record site per calling context, each built
    once."""

    __slots__ = ("uid",)

    def __init__(self, uid: int):
        super().__init__()
        self.uid = uid

    def __missing__(self, ctx: int) -> ExecutionId:
        eid = self[ctx] = ExecutionId(self.uid, ctx)
        return eid


_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _float_op(op: str, ty: Type):
    fn = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": _float_div}[op]
    if ty is F32:
        return lambda a, b: _f32(fn(a, b))
    return fn


def _int_op(op: str, ty: Type):
    """Operands are in the range of ``ty``, so ``&`` and ``|`` need no
    wrap; ``^`` is compiled where it sets the xor flag."""
    if op in ("&", "|"):
        return operator.and_ if op == "&" else operator.or_
    mask = (1 << ty.bits) - 1
    bits = ty.bits
    if op == "<<":
        wrap = _wrapper(ty)
        return lambda a, n: wrap(a << (int(n) % bits))
    if op == ">>":
        # arithmetic for signed, logical otherwise
        return lambda a, n: a >> (int(n) % bits)
    if op == "/" or op == "%":
        wrap = _wrapper(ty)
        fn = _int_quot if op == "/" else _int_rem
        return lambda a, b: wrap(fn(a, b))
    fn = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    if not ty.signed:
        return lambda a, b: fn(a, b) & mask
    half = 1 << (bits - 1)
    return lambda a, b: ((fn(a, b) + half) & mask) - half


def _statements(fns):
    """Run the statements ``fns`` in order, up to the first that
    returns."""
    def statements(run, env):
        for fn in fns:
            result = fn(run, env)
            if result is not None:
                return result
        return None
    return statements


class _Function:
    """A compiled function.  Call sites hold it before its body is
    compiled, so recursion needs no lookup by name."""

    __slots__ = ("body", "padding")


class _Compiler:
    """Compiles each node to a closure ``fn(run, env)`` that counts the
    node's step on entry and then evaluates it.  ``env`` is the frame's
    list of variable slots.  A statement's closure returns None to fall
    through to the next statement, or the value the function returns."""

    def __init__(self, program: Program):
        self.functions = {name: _Function() for name in program.functions}
        self.ast = program.functions
        for name, fn in program.functions.items():
            self.function(fn, self.functions[name])
        self.entry = self.functions[program.entry.name]

    def function(self, fn: Function, target: _Function) -> None:
        self.slots = {name: i for i, (name, _) in enumerate(fn.params)}
        # the body's statements run without a step for the body block
        target.body = _statements([self.stmt(s) for s in fn.body.stmts])
        target.padding = [None] * (len(self.slots) - len(fn.params))

    def slot(self, name: str) -> int:
        return self.slots.setdefault(name, len(self.slots))

    # -- statements -------------------------------------------------------

    def stmt(self, stmt):
        if isinstance(stmt, Block):
            fns = [self.stmt(s) for s in stmt.stmts]

            def block(run, env):
                run.steps += 1
                for fn in fns:
                    result = fn(run, env)
                    if result is not None:
                        return result
                return None
            return block
        if isinstance(stmt, (Decl, Assign)):
            slot = self.slot(stmt.name)
            if isinstance(stmt, Assign):
                fn = self.converted(stmt.expr, stmt.target_type,
                                    stmt.conv_uid)
            elif stmt.init is not None:
                fn = self.converted(stmt.init, stmt.decl_type,
                                    stmt.conv_uid)
            else:
                zero = _zero(stmt.decl_type)

                def declare(run, env):
                    run.steps += 1
                    env[slot] = zero
                return declare

            def store(run, env):
                run.steps += 1
                env[slot] = fn(run, env)
            return store
        if isinstance(stmt, If):
            return self.if_stmt(stmt)
        if isinstance(stmt, While):
            return self.while_stmt(stmt)
        if isinstance(stmt, Return):
            if stmt.expr is None:
                def return_void(run, env):
                    run.steps += 1
                    return _RETURNED
                return return_void
            fn = self.converted(stmt.expr, stmt.target_type, stmt.conv_uid)

            def return_(run, env):
                run.steps += 1
                return fn(run, env)
            return return_
        if isinstance(stmt, ExprStmt):
            fn = self.expr(stmt.expr)

            def discard(run, env):
                run.steps += 1
                fn(run, env)
            return discard
        if isinstance(stmt, AbortStmt):
            def abort(run, env):
                run.steps += 1
                run.event()
                raise _Crash()
            return abort
        raise AssertionError(stmt)

    def condition(self, cond, kind: str, uid: int):
        """The branch decision of an ``if`` or ``while`` as a bool."""
        fn = self.expr(cond)
        if kind == "cmp0":
            return self.convert(fn, cond.type, BOOL, uid)
        if kind != "trunc":
            return fn
        ids = _SiteIds(uid)

        def test(run, env):
            taken = bool(fn(run, env))
            run.emit(ids, taken, 1.0)
            return taken
        return test

    def if_stmt(self, stmt: If):
        test = self.condition(stmt.cond, stmt.cond_kind, stmt.cond_uid)
        then = self.stmt(stmt.then)
        if stmt.els is None:
            def if_(run, env):
                run.steps += 1
                taken = test(run, env)
                run.xor = False
                if not taken:
                    return None
                result = then(run, env)
                run.xor = False
                return result
            return if_
        els = self.stmt(stmt.els)

        def if_else(run, env):
            run.steps += 1
            branch = then if test(run, env) else els
            run.xor = False
            result = branch(run, env)
            run.xor = False
            return result
        return if_else

    def while_stmt(self, stmt: While):
        test = self.condition(stmt.cond, stmt.cond_kind, stmt.cond_uid)
        body = self.stmt(stmt.body)

        def while_(run, env):
            run.steps += 1
            while test(run, env):
                run.xor = False
                result = body(run, env)
                if result is not None:
                    return result
                run.xor = False
                if run.steps > run.budget:  # bounds an eventless loop
                    raise _Timeout()
            run.xor = False
            return None
        return while_

    # -- expressions ------------------------------------------------------

    def converted(self, expr, dst: Type, conv_uid: int):
        """``expr`` converted to ``dst``; numeric -> bool records."""
        return self.convert(self.expr(expr), expr.type, dst, conv_uid)

    def convert(self, fn, src: Type, dst: Type, conv_uid: int):
        """``fn``'s value converted from ``src`` to ``dst``; a conversion
        counts no step of its own."""
        if src is dst:
            return fn
        if dst is BOOL:
            ids = _SiteIds(conv_uid)

            def to_bool(run, env):
                value = fn(run, env)
                taken = value != 0
                run.emit(ids, taken, float(value))
                return taken
            return to_bool
        conv = _conversion(src, dst)
        if conv is None:
            return fn
        return lambda run, env: conv(fn(run, env))

    def expr(self, expr):
        if isinstance(expr, (IntLit, FloatLit, BoolLit)):
            value = expr.value

            def literal(run, env):
                run.steps += 1
                return value
            return literal
        if isinstance(expr, VarRef):
            slot = self.slots[expr.name]

            def variable(run, env):
                run.steps += 1
                return env[slot]
            return variable
        if isinstance(expr, Unary):
            return self.unary(expr)
        if isinstance(expr, Binary):
            return self.binary(expr)
        if isinstance(expr, Cast):
            fn = self.convert(self.expr(expr.operand), expr.operand.type,
                              expr.target, expr.conv_uid)

            def cast(run, env):
                run.steps += 1
                return fn(run, env)
            return cast
        if isinstance(expr, Call):
            read_type = _nondet_type(expr.name)
            if read_type is not None:
                return self.read(read_type)
            return self.call(expr)
        raise AssertionError(expr)

    def unary(self, expr: Unary):
        fn = self.expr(expr.operand)
        if expr.op == "-":
            ty = expr.type
            if ty is F32:
                neg = lambda value: _f32(-value)  # noqa: E731
            elif ty is F64:
                neg = operator.neg
            else:
                wrap = _wrapper(ty)
                neg = lambda value: wrap(-value)  # noqa: E731

            def negate(run, env):
                run.steps += 1
                return neg(fn(run, env))
            return negate
        # logical not: on a numeric operand this records an `== 0` check
        # as the `!= 0` check of a conversion to bool
        if expr.cmp_uid:
            fn = self.convert(fn, expr.operand.type, BOOL, expr.cmp_uid)

        def not_(run, env):
            run.steps += 1
            return not fn(run, env)
        return not_

    def binary(self, expr: Binary):
        op = expr.op
        ty = expr.operand_type
        lf = self.convert(self.expr(expr.left), expr.left.type, ty, 0)
        rf = self.expr(expr.right)
        if op not in ("<<", ">>"):
            rf = self.convert(rf, expr.right.type, ty, 0)
        if op in _COMPARE:
            compare = _COMPARE[op]
            ids = _SiteIds(expr.cmp_uid)
            if ty.kind == "float":
                def comparison(run, env):
                    run.steps += 1
                    a = lf(run, env)
                    b = rf(run, env)
                    taken = compare(a, b)
                    run.emit(ids, taken, a - b)
                    return taken
                return comparison

            def int_comparison(run, env):
                run.steps += 1
                a = lf(run, env)
                b = rf(run, env)
                taken = compare(a, b)
                run.emit(ids, taken, float(a) - float(b))
                return taken
            return int_comparison
        if op == "^":
            def xor(run, env):
                run.steps += 1
                a = lf(run, env)
                b = rf(run, env)
                run.xor = True
                return a ^ b
            return xor
        fn = (_float_op if ty.kind == "float" else _int_op)(op, ty)
        if op in ("/", "%") and ty.kind != "float":
            def divide(run, env):
                run.steps += 1
                a = lf(run, env)
                b = rf(run, env)
                if b == 0:
                    run.event()
                    raise _Crash()
                return fn(a, b)
            return divide

        def arithmetic(run, env):
            run.steps += 1
            return fn(lf(run, env), rf(run, env))
        return arithmetic

    def read(self, ty: Type):
        tag = TYPE_TAGS[ty]
        width = tag.byte_width
        if ty is BOOL:
            decode = lambda raw: raw[0] != 0  # noqa: E731
        elif ty.kind == "float":
            unpack = (_F32 if ty is F32 else _F64).unpack
            decode = lambda raw: unpack(raw)[0]  # noqa: E731
        elif width == 1 and not ty.signed:
            decode = operator.itemgetter(0)
        else:
            signed = ty.signed
            decode = lambda raw: int.from_bytes(  # noqa: E731
                raw, "little", signed=signed)

        def read(run, env):
            run.steps += 1
            return decode(run.read(tag, width))
        return read

    def call(self, expr: Call):
        fn = self.ast[expr.name]
        callee = self.functions[expr.name]
        arg_fns = [self.converted(arg, ptype, conv_uid)
                   for arg, conv_uid, (_, ptype)
                   in zip(expr.args, expr.arg_conv_uids, fn.params)]
        site = expr.site_uid
        pushes: dict[int, int] = {}  # parent context hash -> pushed hash
        default = None if fn.return_type is VOID else _zero(fn.return_type)
        ids = _SiteIds(expr.bool_uid) if expr.bool_uid else None

        def call(run, env):
            run.steps += 1
            frame = [f(run, env) for f in arg_fns]
            run.event()
            depth = run.depth
            if depth >= run.max_stack:
                raise _Boundary()
            parent = run.ctx
            if depth <= DEFAULT_CONTEXT_DEPTH:
                ctx = pushes.get(parent)
                if ctx is None:
                    ctx = pushes[parent] = context_hash_push(parent, site)
                run.ctx = ctx
            run.depth = depth + 1
            run.xor = False
            result = callee.body(run, frame + callee.padding)
            run.xor = False
            run.depth = depth
            run.ctx = parent
            if result is None or result is _RETURNED:
                result = default
            if ids is not None:
                run.emit(ids, bool(result), 1.0)
            return result
        return call


# deep target recursion costs a few Python frames per call
sys.setrecursionlimit(max(sys.getrecursionlimit(), 30_000))


def execute(program: Program, config: ExecutionConfig,
            limits: VmLimits) -> ExecutionResult:
    """Run the program on the config's input; always terminates.  The
    program is compiled on its first execution."""
    for name, cap in (("max_trace_length", limits.max_trace_length),
                      ("max_stack_size", limits.max_stack_size),
                      ("max_input_bytes", limits.max_input_bytes)):
        if getattr(config, name) > cap:
            raise ValueError(f"config {name} exceeds executor limit {cap}")
    entry = program.compiled
    if entry is None:
        entry = program.compiled = _Compiler(program).entry
    run = _Run(config, limits)
    try:
        entry.body(run, list(entry.padding))
        run.event()
        termination = TerminationKind.NORMAL
    except _Crash:
        termination = TerminationKind.CRASH
    except _Boundary:
        termination = TerminationKind.BOUNDARY_CONDITION_VIOLATION
    except _Timeout:
        termination = TerminationKind.TIMEOUT
    except RecursionError:
        termination = TerminationKind.CRASH
    return ExecutionResult(termination, run.bytes_read(), tuple(run.tags),
                           tuple(run.trace))
