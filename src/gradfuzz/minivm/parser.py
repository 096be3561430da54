"""Lexer, parser, and static analysis for the mini C-like target language.

Source files use the ``.mc`` extension.  The grammar is documented in
``docs/grammar.md``.  Parsing assigns every Boolean-instruction site
(comparison, conversion of a numeric value to bool, bool-variable branch
condition, call of a bool-returning function) a unique static uid in source
order, starting at 1.  Call sites get uids from a separate counter used for
calling-context hashing.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from ..target_abi import TypeTag


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Type:
    name: str
    kind: str          # "bool" | "int" | "float" | "void"
    bits: int = 0
    signed: bool = False

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("int", "float")


VOID = Type("void", "void")
BOOL = Type("bool", "bool", 8)
I8 = Type("i8", "int", 8, True)
I16 = Type("i16", "int", 16, True)
I32 = Type("i32", "int", 32, True)
I64 = Type("i64", "int", 64, True)
U8 = Type("u8", "int", 8, False)
U16 = Type("u16", "int", 16, False)
U32 = Type("u32", "int", 32, False)
U64 = Type("u64", "int", 64, False)
F32 = Type("f32", "float", 32)
F64 = Type("f64", "float", 64)

TYPE_NAMES = {
    "void": VOID, "bool": BOOL,
    "i8": I8, "i16": I16, "i32": I32, "i64": I64,
    "u8": U8, "u16": U16, "u32": U32, "u64": U64,
    "f32": F32, "f64": F64,
    # C-style aliases; char is unsigned here, as on ARM
    "char": U8, "schar": I8, "uchar": U8, "short": I16, "ushort": U16,
    "int": I32, "uint": U32, "long": I64, "ulong": U64,
    "float": F32, "double": F64,
}

TYPE_TAGS = {
    BOOL: TypeTag.BOOLEAN,
    I8: TypeTag.SINT8, I16: TypeTag.SINT16, I32: TypeTag.SINT32,
    I64: TypeTag.SINT64,
    U8: TypeTag.UINT8, U16: TypeTag.UINT16, U32: TypeTag.UINT32,
    U64: TypeTag.UINT64,
    F32: TypeTag.FLOAT32, F64: TypeTag.FLOAT64,
}

# read suffix -> type, for every type name but void; accepted as
# nondet_<suffix> or __VERIFIER_nondet_<suffix>
NONDET_SUFFIXES = {name: ty for name, ty in TYPE_NAMES.items()
                   if ty is not VOID}

KEYWORDS = set(TYPE_NAMES) | {"if", "else", "while", "return", "true",
                              "false", "abort"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<float>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>0[xX][0-9a-fA-F]+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><<|>>|<=|>=|==|!=|[-+*/%&|^<>!=;,(){}])
""", re.VERBOSE | re.DOTALL)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        col = pos - line_start + 1
        if kind != "ws":
            tokens.append(Token(kind, value, line, col))
        nl = value.count("\n")
        if nl:
            line += nl
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


# --- AST ---------------------------------------------------------------

@dataclass
class Expr:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)
    type: Type = field(default=VOID, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class VarRef(Expr):
    name: str


@dataclass
class Unary(Expr):
    op: str
    operand: Expr
    cmp_uid: int = 0       # set for `!` on a numeric operand


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    cmp_uid: int = 0       # set for comparison operators
    operand_type: Type = VOID


@dataclass
class Cast(Expr):
    target: Type
    operand: Expr
    conv_uid: int = 0      # set for numeric -> bool


@dataclass
class Call(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)
    site_uid: int = 0      # call-site uid for context hashing
    bool_uid: int = 0      # set when the callee returns bool
    arg_conv_uids: list[int] = field(default_factory=list)


@dataclass
class Stmt:
    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)


@dataclass
class Decl(Stmt):
    decl_type: Type
    name: str
    init: Optional[Expr]
    conv_uid: int = 0


@dataclass
class Assign(Stmt):
    name: str
    expr: Expr
    conv_uid: int = 0
    target_type: Type = VOID


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Optional[Stmt]
    cond_kind: str = ""    # "" | "trunc" | "cmp0"
    cond_uid: int = 0


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt
    cond_kind: str = ""
    cond_uid: int = 0


@dataclass
class Return(Stmt):
    expr: Optional[Expr]
    conv_uid: int = 0
    target_type: Type = VOID


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class AbortStmt(Stmt):
    pass


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class Function:
    name: str
    return_type: Type
    params: list[tuple[str, Type]]
    body: Block
    line: int = 0


@dataclass
class Program:
    functions: dict[str, Function]
    num_boolean_sites: int
    # the interpreter's entry function, emitted and compiled on the first
    # execution
    compiled: object = field(default=None, init=False, repr=False,
                             compare=False)


# --- Parser ------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def accept(self, text: str) -> Optional[Token]:
        if self.cur.kind in ("op", "ident") and self.cur.text == text:
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            raise self.error(f"expected {text!r}, found {self.cur.text!r}")
        return tok

    def at_type(self) -> bool:
        return self.cur.kind == "ident" and self.cur.text in TYPE_NAMES

    def parse_type(self) -> Type:
        if not self.at_type():
            raise self.error(f"expected a type name, found {self.cur.text!r}")
        return TYPE_NAMES[self.advance().text]

    def parse_program(self) -> list[Function]:
        functions = []
        while self.cur.kind != "eof":
            functions.append(self.parse_function())
        return functions

    def parse_function(self) -> Function:
        line = self.cur.line
        ret = self.parse_type()
        name_tok = self.advance()
        if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
            raise ParseError("expected a function name",
                             name_tok.line, name_tok.col)
        self.expect("(")
        params: list[tuple[str, Type]] = []
        if not self.accept(")"):
            while True:
                ptype = self.parse_type()
                ptok = self.advance()
                if ptok.kind != "ident" or ptok.text in KEYWORDS:
                    raise ParseError("expected a parameter name",
                                     ptok.line, ptok.col)
                params.append((ptok.text, ptype))
                if self.accept(")"):
                    break
                self.expect(",")
        body = self.parse_block()
        return Function(name_tok.text, ret, params, body, line)

    def parse_block(self) -> Block:
        line, col = self.cur.line, self.cur.col
        self.expect("{")
        stmts = []
        while not self.accept("}"):
            if self.cur.kind == "eof":
                raise self.error("unexpected end of input, expected '}'")
            stmts.append(self.parse_stmt())
        return Block(stmts, line=line, col=col)

    def parse_stmt(self) -> Stmt:
        line, col = self.cur.line, self.cur.col
        if self.cur.text == "{":
            return self.parse_block()
        if self.at_type():
            decl_type = self.parse_type()
            name = self.advance()
            if name.kind != "ident" or name.text in KEYWORDS:
                raise ParseError("expected a variable name",
                                 name.line, name.col)
            init = None
            if self.accept("="):
                init = self.parse_expr()
            self.expect(";")
            return Decl(decl_type, name.text, init, line=line, col=col)
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_stmt()
            els = self.parse_stmt() if self.accept("else") else None
            return If(cond, then, els, line=line, col=col)
        if self.accept("while"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_stmt()
            return While(cond, body, line=line, col=col)
        if self.accept("return"):
            expr = None if self.cur.text == ";" else self.parse_expr()
            self.expect(";")
            return Return(expr, line=line, col=col)
        if self.cur.text == "abort":
            self.advance()
            self.expect("(")
            self.expect(")")
            self.expect(";")
            return AbortStmt(line=line, col=col)
        if (self.cur.kind == "ident" and self.cur.text not in KEYWORDS
                and self.tokens[self.pos + 1].text == "="):
            name = self.advance().text
            self.advance()
            expr = self.parse_expr()
            self.expect(";")
            return Assign(name, expr, line=line, col=col)
        expr = self.parse_expr()
        self.expect(";")
        return ExprStmt(expr, line=line, col=col)

    # precedence, loosest first
    _LEVELS = [["|"], ["^"], ["&"], ["==", "!="],
               ["<", "<=", ">", ">="], ["<<", ">>"],
               ["+", "-"], ["*", "/", "%"]]

    def parse_expr(self, level: int = 0) -> Expr:
        if level == len(self._LEVELS):
            return self.parse_unary()
        expr = self.parse_expr(level + 1)
        while self.cur.kind == "op" and self.cur.text in self._LEVELS[level]:
            op = self.advance()
            right = self.parse_expr(level + 1)
            expr = Binary(op.text, expr, right, line=op.line, col=op.col)
        return expr

    def parse_unary(self) -> Expr:
        tok = self.cur
        if self.accept("!"):
            return Unary("!", self.parse_unary(), line=tok.line, col=tok.col)
        if self.accept("-"):
            return Unary("-", self.parse_unary(), line=tok.line, col=tok.col)
        if (tok.text == "(" and self.tokens[self.pos + 1].kind == "ident"
                and self.tokens[self.pos + 1].text in TYPE_NAMES
                and self.tokens[self.pos + 2].text == ")"):
            self.advance()
            target = self.parse_type()
            self.expect(")")
            return Cast(target, self.parse_unary(), line=tok.line,
                        col=tok.col)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.cur
        if self.accept("("):
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text, 0), line=tok.line, col=tok.col)
        if tok.kind == "float":
            self.advance()
            return FloatLit(float(tok.text), line=tok.line, col=tok.col)
        if self.accept("true"):
            return BoolLit(True, line=tok.line, col=tok.col)
        if self.accept("false"):
            return BoolLit(False, line=tok.line, col=tok.col)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.advance()
            if self.cur.text == "(":
                self.advance()
                args = []
                if not self.accept(")"):
                    while True:
                        args.append(self.parse_expr())
                        if self.accept(")"):
                            break
                        self.expect(",")
                return Call(tok.text, args, line=tok.line, col=tok.col)
            return VarRef(tok.text, line=tok.line, col=tok.col)
        raise self.error(f"unexpected token {tok.text!r}")


# --- Static analysis ----------------------------------------------------

def _nondet_type(name: str) -> Optional[Type]:
    for prefix in ("__VERIFIER_nondet_", "nondet_"):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if suffix in NONDET_SUFFIXES:
                return NONDET_SUFFIXES[suffix]
    return None


def _promote(t: Type) -> Type:
    """Integer promotion: bool and narrow integers widen to i32."""
    if t is BOOL:
        return I32
    if t.kind == "int" and t.bits < 32:
        return I32
    return t


_INT_CONV_RANK = {I32: 0, U32: 1, I64: 2, U64: 3}


def _usual_arith(left: Type, right: Type) -> Type:
    if left is F64 or right is F64:
        return F64
    if left is F32 or right is F32:
        return F32
    l, r = _promote(left), _promote(right)
    return l if _INT_CONV_RANK[l] >= _INT_CONV_RANK[r] else r


class _Analyzer:
    """Type checker; assigns Boolean-instruction and call-site uids."""

    def __init__(self, functions: list[Function]):
        self.functions = {}
        for fn in functions:
            if fn.name in self.functions:
                raise ParseError(f"duplicate function {fn.name!r}", fn.line, 1)
            self.functions[fn.name] = fn
        self.next_uid = 1
        self.next_call_site = 1
        self.scopes: list[dict[str, Type]] = []

    def new_uid(self) -> int:
        uid = self.next_uid
        self.next_uid += 1
        return uid

    def run(self) -> None:
        main = self.functions.get("main")
        if main is None:
            raise ParseError("no main function", 1, 1)
        if main.params:
            raise self.error(main, "main takes no parameters")
        for fn in self.functions.values():
            self.current = fn
            params: dict[str, Type] = {}
            for name, ptype in fn.params:
                if name in params:
                    raise self.error(fn, f"duplicate parameter {name!r}")
                params[name] = ptype
            self.scopes = [params]
            self.check_block(fn.body)

    def error(self, node, message: str) -> ParseError:
        line = getattr(node, "line", 0)
        col = getattr(node, "col", 1)
        return ParseError(message, line, col)

    def lookup(self, node, name: str) -> Type:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise self.error(node, f"undeclared variable {name!r}")

    # Conversion of an expression value to a target type.  Returns a
    # Boolean-instruction uid when the conversion is numeric -> bool
    # (compiled as an implicit `!= 0` comparison).
    def conv_uid_for(self, node, src: Type, dst: Type) -> int:
        if dst is VOID:
            raise self.error(node, "cannot use a void value")
        if src is dst:
            return 0
        if dst is BOOL:
            if src is BOOL:
                return 0
            if src.is_numeric:
                return self.new_uid()
            raise self.error(node, f"cannot convert {src.name} to bool")
        if not (src.is_numeric or src is BOOL) or not dst.is_numeric:
            raise self.error(node, f"cannot convert {src.name} to {dst.name}")
        return 0

    def check_block(self, block: Block) -> None:
        self.scopes.append({})
        for stmt in block.stmts:
            self.check_stmt(stmt)
        self.scopes.pop()

    def check_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            self.check_block(stmt)
        elif isinstance(stmt, Decl):
            if stmt.decl_type is VOID:
                raise self.error(stmt, "cannot declare a void variable")
            if stmt.init is not None:
                src = self.check_expr(stmt.init)
                stmt.conv_uid = self.conv_uid_for(stmt, src, stmt.decl_type)
            if any(stmt.name in scope for scope in self.scopes):
                raise self.error(stmt, f"redeclaration of {stmt.name!r}")
            self.scopes[-1][stmt.name] = stmt.decl_type
        elif isinstance(stmt, Assign):
            target = self.lookup(stmt, stmt.name)
            src = self.check_expr(stmt.expr)
            stmt.target_type = target
            stmt.conv_uid = self.conv_uid_for(stmt, src, target)
        elif isinstance(stmt, (If, While)):
            cond_type = self.check_expr(stmt.cond)
            if cond_type is BOOL:
                # A stored bool consumed by a branch is a truncation site;
                # a condition that is itself a comparison, bool call, or
                # cast already has its own record.
                if isinstance(stmt.cond, VarRef):
                    stmt.cond_kind = "trunc"
                    stmt.cond_uid = self.new_uid()
            elif cond_type.is_numeric:
                stmt.cond_kind = "cmp0"
                stmt.cond_uid = self.new_uid()
            else:
                raise self.error(stmt, "condition is not bool or numeric")
            if isinstance(stmt, If):
                self.check_stmt(stmt.then)
                if stmt.els is not None:
                    self.check_stmt(stmt.els)
            else:
                self.check_stmt(stmt.body)
        elif isinstance(stmt, Return):
            ret = self.current.return_type
            stmt.target_type = ret
            if stmt.expr is None:
                if ret is not VOID:
                    raise self.error(stmt, "missing return value")
            else:
                if ret is VOID:
                    raise self.error(stmt, "void function returns a value")
                src = self.check_expr(stmt.expr)
                stmt.conv_uid = self.conv_uid_for(stmt, src, ret)
        elif isinstance(stmt, ExprStmt):
            self.check_expr(stmt.expr)
        elif isinstance(stmt, AbortStmt):
            pass
        else:
            raise AssertionError(stmt)

    def check_expr(self, expr: Expr) -> Type:
        expr.type = self._expr_type(expr)
        return expr.type

    def _expr_type(self, expr: Expr) -> Type:
        if isinstance(expr, IntLit):
            if expr.value < 2 ** 31:
                return I32
            if expr.value < 2 ** 63:
                return I64
            if expr.value < 2 ** 64:
                return U64
            raise self.error(expr, "integer literal out of range")
        if isinstance(expr, FloatLit):
            return F64
        if isinstance(expr, BoolLit):
            return BOOL
        if isinstance(expr, VarRef):
            return self.lookup(expr, expr.name)
        if isinstance(expr, Unary):
            operand = self.check_expr(expr.operand)
            if expr.op == "-":
                if not operand.is_numeric:
                    raise self.error(expr, "cannot negate a non-numeric value")
                return _promote(operand)
            if operand is BOOL:
                return BOOL
            if operand.is_numeric:
                expr.cmp_uid = self.new_uid()  # `!x` is an `x == 0` check
                return BOOL
            raise self.error(expr, "operand of ! is not bool or numeric")
        if isinstance(expr, Binary):
            left = self.check_expr(expr.left)
            right = self.check_expr(expr.right)
            op = expr.op
            for t in (left, right):
                if not (t.is_numeric or t is BOOL):
                    raise self.error(expr, f"invalid operand type {t.name}")
            if op in ("==", "!=", "<", "<=", ">", ">="):
                expr.operand_type = _usual_arith(left, right)
                expr.cmp_uid = self.new_uid()
                return BOOL
            if op in ("&", "|", "^", "%", "<<", ">>"):
                if left.kind == "float" or right.kind == "float":
                    raise self.error(expr, f"{op} requires integer operands")
                if op in ("<<", ">>"):
                    expr.operand_type = _promote(left)
                else:
                    expr.operand_type = _usual_arith(left, right)
                return expr.operand_type
            expr.operand_type = _usual_arith(left, right)
            return expr.operand_type
        if isinstance(expr, Cast):
            src = self.check_expr(expr.operand)
            if expr.target is VOID:
                raise self.error(expr, "cannot cast to void")
            expr.conv_uid = self.conv_uid_for(expr, src, expr.target)
            return expr.target
        if isinstance(expr, Call):
            read_type = _nondet_type(expr.name)
            if read_type is not None:
                if expr.args:
                    raise self.error(expr, "input reads take no arguments")
                expr.site_uid = 0
                expr.type = read_type
                return read_type
            fn = self.functions.get(expr.name)
            if fn is None:
                raise self.error(expr, f"unknown function {expr.name!r}")
            if len(expr.args) != len(fn.params):
                raise self.error(
                    expr, f"{expr.name!r} expects {len(fn.params)} arguments")
            expr.arg_conv_uids = []
            for arg, (_, ptype) in zip(expr.args, fn.params):
                src = self.check_expr(arg)
                expr.arg_conv_uids.append(self.conv_uid_for(arg, src, ptype))
            expr.site_uid = self.next_call_site
            self.next_call_site += 1
            if fn.return_type is BOOL:
                expr.bool_uid = self.new_uid()
            return fn.return_type
        raise AssertionError(expr)


def parse_program(text: str) -> Program:
    """Parse and type-check a target source; deterministic uid assignment."""
    parser = _Parser(tokenize(text))
    functions = parser.parse_program()
    analyzer = _Analyzer(functions)
    analyzer.run()
    return Program(analyzer.functions, analyzer.next_uid - 1)
