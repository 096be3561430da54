"""Parser and instrumenting interpreter for `.mc` target programs."""
from .interp import VmLimits, execute
from .parser import ParseError, Program, parse_program

__all__ = ["VmLimits", "execute", "ParseError", "Program", "parse_program"]
