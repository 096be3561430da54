"""Reference interpreter: the tree-walking evaluator that
``gradfuzz.minivm.execute`` must match byte for byte.

It walks the AST on every execution, dispatching on node types, parsing
read names and building records as it goes.  Tests compare the compiled
interpreter against it; nothing in the package uses it.
"""
from __future__ import annotations

import math
import struct

from gradfuzz.minivm import VmLimits
from gradfuzz.minivm.parser import (
    BOOL, F32, F64, TYPE_TAGS, VOID,
    AbortStmt, Assign, Binary, Block, BoolLit, Call, Cast, Decl, ExprStmt,
    FloatLit, Function, If, IntLit, Program, Return, Stmt, Type, Unary,
    VarRef, While, _nondet_type,
)
from gradfuzz.target_abi import (
    DEFAULT_CONTEXT_DEPTH,
    FNV32_BASIS,
    ConditionRecord,
    ExecutionConfig,
    ExecutionId,
    ExecutionResult,
    TerminationKind,
    TypeTag,
    context_hash_push,
)


class _Crash(Exception):
    pass


class _Boundary(Exception):
    pass


class _Timeout(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


def branching_value(left, right, kind: str) -> float:
    """Branching-function value of one Boolean instruction evaluation."""
    if kind == "comparison":
        return float(left) - float(right)
    if kind in ("truncation", "bool_call"):
        return 1.0
    raise ValueError(f"unknown kind {kind!r}")


def _f32(value: float) -> float:
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:  # finite but rounds past FLT_MAX: C gives inf
        return math.copysign(math.inf, value)


def _wrap_int(value: int, ty: Type) -> int:
    value &= (1 << ty.bits) - 1
    if ty.signed and value >= 1 << (ty.bits - 1):
        value -= 1 << ty.bits
    return value


def _convert_numeric(value, src: Type, dst: Type):
    if src is BOOL:
        value = int(value)
    if dst.kind == "float":
        value = float(value)
        return _f32(value) if dst is F32 else value
    # to integer: truncate floats toward zero, saturating non-finite and
    # out-of-range values at the type bounds (NaN maps to 0)
    if isinstance(value, float):
        if math.isnan(value):
            value = 0
        else:
            lo = -(1 << (dst.bits - 1)) if dst.signed else 0
            hi = ((1 << (dst.bits - 1)) - 1 if dst.signed
                  else (1 << dst.bits) - 1)
            value = lo if value < lo else hi if value > hi else int(value)
    return _wrap_int(int(value), dst)


def _float_div(left: float, right: float) -> float:
    if right == 0.0:
        if left == 0.0 or math.isnan(left):
            return math.nan
        return math.copysign(math.inf, left) * math.copysign(1.0, right)
    return left / right


def _int_div(left: int, right: int) -> int:
    if right == 0:
        raise _Crash()
    q = abs(left) // abs(right)
    return q if (left < 0) == (right < 0) else -q


def _int_rem(left: int, right: int) -> int:
    return left - _int_div(left, right) * right


class _RunState:
    def __init__(self, program: Program, config: ExecutionConfig,
                 limits: VmLimits):
        self.program = program
        self.config = config
        self.limits = limits
        self.consumed = 0
        self.bytes_read = bytearray()
        self.tags: list[TypeTag] = []
        self.trace: list[ConditionRecord] = []
        self.ctx_hashes = [FNV32_BASIS]
        self.xor_seen = False
        self.steps = 0

    def step(self) -> None:
        self.steps += 1
        if self.steps > self.limits.step_budget:
            raise _Timeout()

    def emit(self, uid: int, direction: bool, value: float) -> None:
        if len(self.trace) >= self.config.max_trace_length:
            raise _Boundary()
        self.trace.append(ConditionRecord(
            ExecutionId(uid, self.ctx_hashes[-1]), bool(direction),
            value, self.xor_seen, self.consumed))

    def clear_xor(self) -> None:
        self.xor_seen = False

    def push_call(self, site_uid: int) -> None:
        # frames counted including the entry function
        if len(self.ctx_hashes) + 1 > self.config.max_stack_size:
            raise _Boundary()
        if len(self.ctx_hashes) - 1 < DEFAULT_CONTEXT_DEPTH:
            self.ctx_hashes.append(
                context_hash_push(self.ctx_hashes[-1], site_uid))
        else:
            self.ctx_hashes.append(self.ctx_hashes[-1])

    def pop_call(self) -> None:
        self.ctx_hashes.pop()

    def read(self, ty: Type):
        tag = TYPE_TAGS[ty]
        width = tag.byte_width
        if self.consumed + width > self.config.max_input_bytes:
            raise _Boundary()
        provided = self.config.input_bytes
        raw = bytearray()
        for i in range(self.consumed, self.consumed + width):
            raw.append(provided[i] if i < len(provided)
                       else self.config.fill_byte)
        self.consumed += width
        self.bytes_read.extend(raw)
        self.tags.append(tag)
        if ty is BOOL:
            return bool(raw[0])
        if ty is F32:
            return struct.unpack("<f", raw)[0]
        if ty is F64:
            return struct.unpack("<d", raw)[0]
        return int.from_bytes(raw, "little", signed=ty.signed)


class _Evaluator:
    def __init__(self, state: _RunState):
        self.state = state
        self.functions = state.program.functions

    # conversion that may carry an implicit numeric -> bool record site
    def convert(self, value, src: Type, dst: Type, conv_uid: int):
        if src is dst:
            return value
        if dst is BOOL:
            if src is BOOL:
                return value
            direction = value != 0
            self.state.emit(conv_uid, direction,
                            branching_value(value, 0, "comparison"))
            return direction
        return _convert_numeric(value, src, dst)

    def run_condition(self, cond, kind: str, uid: int, env: dict) -> bool:
        value = self.eval(cond, env)
        if kind == "trunc":
            result = bool(value)
            self.state.emit(uid, result, branching_value(0, 0, "truncation"))
        elif kind == "cmp0":
            result = value != 0
            self.state.emit(uid, result,
                            branching_value(value, 0, "comparison"))
        else:
            result = bool(value)
        self.state.clear_xor()
        return result

    def call_function(self, fn: Function, args: list):
        env = {name: value for (name, _), value in zip(fn.params, args)}
        self.state.clear_xor()
        try:
            for stmt in fn.body.stmts:
                self.exec_stmt(stmt, env)
        except _ReturnSignal as ret:
            return ret.value
        finally:
            self.state.clear_xor()
        if fn.return_type is VOID:
            return None
        return False if fn.return_type is BOOL else (
            0.0 if fn.return_type.kind == "float" else 0)

    def exec_stmt(self, stmt: Stmt, env: dict) -> None:
        self.state.step()
        if isinstance(stmt, Block):
            for inner in stmt.stmts:
                self.exec_stmt(inner, env)
        elif isinstance(stmt, Decl):
            if stmt.init is None:
                ty = stmt.decl_type
                value = (False if ty is BOOL
                         else 0.0 if ty.kind == "float" else 0)
            else:
                value = self.convert(self.eval(stmt.init, env),
                                     stmt.init.type, stmt.decl_type,
                                     stmt.conv_uid)
            env[stmt.name] = value
        elif isinstance(stmt, Assign):
            env[stmt.name] = self.convert(self.eval(stmt.expr, env),
                                          stmt.expr.type, stmt.target_type,
                                          stmt.conv_uid)
        elif isinstance(stmt, If):
            taken = self.run_condition(stmt.cond, stmt.cond_kind,
                                       stmt.cond_uid, env)
            if taken:
                self.exec_stmt(stmt.then, env)
            elif stmt.els is not None:
                self.exec_stmt(stmt.els, env)
            self.state.clear_xor()
        elif isinstance(stmt, While):
            while self.run_condition(stmt.cond, stmt.cond_kind,
                                     stmt.cond_uid, env):
                self.exec_stmt(stmt.body, env)
                self.state.clear_xor()
        elif isinstance(stmt, Return):
            if stmt.expr is None:
                raise _ReturnSignal(None)
            raise _ReturnSignal(self.convert(
                self.eval(stmt.expr, env), stmt.expr.type,
                stmt.target_type, stmt.conv_uid))
        elif isinstance(stmt, ExprStmt):
            self.eval(stmt.expr, env)
        elif isinstance(stmt, AbortStmt):
            raise _Crash()
        else:
            raise AssertionError(stmt)

    def eval(self, expr, env: dict):
        self.state.step()
        if isinstance(expr, (IntLit, FloatLit, BoolLit)):
            return expr.value
        if isinstance(expr, VarRef):
            return env[expr.name]
        if isinstance(expr, Unary):
            value = self.eval(expr.operand, env)
            if expr.op == "-":
                ty = expr.type
                if ty.kind == "float":
                    return _f32(-value) if ty is F32 else -value
                return _wrap_int(-int(value), ty)
            # logical not: on a numeric operand this is an `== 0` check
            if expr.cmp_uid:
                direction = value != 0
                self.state.emit(expr.cmp_uid, direction,
                                branching_value(value, 0, "comparison"))
                return not direction
            return not value
        if isinstance(expr, Binary):
            return self.eval_binary(expr, env)
        if isinstance(expr, Cast):
            return self.convert(self.eval(expr.operand, env),
                                expr.operand.type, expr.target,
                                expr.conv_uid)
        if isinstance(expr, Call):
            return self.eval_call(expr, env)
        raise AssertionError(expr)

    def eval_binary(self, expr: Binary, env: dict):
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        op = expr.op
        ty = expr.operand_type
        if op in ("==", "!=", "<", "<=", ">", ">="):
            lc = _convert_numeric(left, expr.left.type, ty)
            rc = _convert_numeric(right, expr.right.type, ty)
            direction = {
                "==": lc == rc, "!=": lc != rc, "<": lc < rc,
                "<=": lc <= rc, ">": lc > rc, ">=": lc >= rc,
            }[op]
            self.state.emit(expr.cmp_uid, direction,
                            branching_value(lc, rc, "comparison"))
            return direction
        if op in ("<<", ">>"):
            lc = _convert_numeric(left, expr.left.type, ty)
            count = int(right) % ty.bits  # shift counts reduce mod width
            if op == "<<":
                return _wrap_int(lc << count, ty)
            return lc >> count  # arithmetic for signed, logical otherwise
        lc = _convert_numeric(left, expr.left.type, ty)
        rc = _convert_numeric(right, expr.right.type, ty)
        if ty.kind == "float":
            if op == "+":
                value = lc + rc
            elif op == "-":
                value = lc - rc
            elif op == "*":
                value = lc * rc
            elif op == "/":
                value = _float_div(lc, rc)
            else:
                raise AssertionError(op)
            return _f32(value) if ty is F32 else value
        if op == "+":
            value = lc + rc
        elif op == "-":
            value = lc - rc
        elif op == "*":
            value = lc * rc
        elif op == "/":
            value = _int_div(lc, rc)
        elif op == "%":
            value = _int_rem(lc, rc)
        elif op == "&":
            value = lc & rc
        elif op == "|":
            value = lc | rc
        elif op == "^":
            value = lc ^ rc
            self.state.xor_seen = True
        else:
            raise AssertionError(op)
        return _wrap_int(value, ty)

    def eval_call(self, expr: Call, env: dict):
        read_type = _nondet_type(expr.name)
        if read_type is not None:
            return self.state.read(read_type)
        fn = self.functions[expr.name]
        args = []
        for arg, conv_uid, (_, ptype) in zip(expr.args, expr.arg_conv_uids,
                                             fn.params):
            args.append(self.convert(self.eval(arg, env), arg.type, ptype,
                                     conv_uid))
        self.state.push_call(expr.site_uid)
        try:
            result = self.call_function(fn, args)
        finally:
            self.state.pop_call()
        if expr.bool_uid:
            self.state.emit(expr.bool_uid, bool(result),
                            branching_value(0, 0, "bool_call"))
        return result


def execute(program: Program, config: ExecutionConfig,
            limits: VmLimits) -> ExecutionResult:
    """Run the program on the config's input; always terminates."""
    for name, cap in (("max_trace_length", limits.max_trace_length),
                      ("max_stack_size", limits.max_stack_size),
                      ("max_input_bytes", limits.max_input_bytes)):
        if getattr(config, name) > cap:
            raise ValueError(f"config {name} exceeds executor limit {cap}")
    state = _RunState(program, config, limits)
    evaluator = _Evaluator(state)
    try:
        evaluator.call_function(program.entry, [])
        termination = TerminationKind.NORMAL
    except _Crash:
        termination = TerminationKind.CRASH
    except _Boundary:
        termination = TerminationKind.BOUNDARY_CONDITION_VIOLATION
    except _Timeout:
        termination = TerminationKind.TIMEOUT
    except RecursionError:
        termination = TerminationKind.CRASH
    return ExecutionResult(termination, bytes(state.bytes_read),
                           tuple(state.tags), tuple(state.trace))
