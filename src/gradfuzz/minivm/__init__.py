"""Parser and instrumenting interpreter for `.mc` target programs."""
from .interp import OPTIMIZER_SCALE, VmLimits, execute, optimizer_limits
from .parser import ParseError, Program, parse_program

__all__ = ["OPTIMIZER_SCALE", "VmLimits", "execute", "optimizer_limits",
           "ParseError", "Program", "parse_program"]
