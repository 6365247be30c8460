"""MiniC frontend: parsing, loop analysis, interpretation."""

from .astnodes import (
    Assign,
    BinOp,
    Block,
    Call,
    CallStmt,
    ELEM_WIDTH,
    ForLoop,
    Index,
    INTRINSICS,
    Num,
    Program,
    Var,
    VarDecl,
    accesses,
    children,
    loops_in,
    to_source,
    walk,
)
from .interp import EvalError, ITERATION_CAP, eval_expr, interpret
from .loops import LoopInfo, LoopTable, extract_loops
from .parser import ParseError, UndeclaredIdentifier, parse_program

__all__ = [
    "Assign", "BinOp", "Block", "Call", "CallStmt", "ELEM_WIDTH", "EvalError",
    "ForLoop", "ITERATION_CAP", "Index", "INTRINSICS", "LoopInfo", "LoopTable",
    "Num", "ParseError", "Program", "UndeclaredIdentifier", "Var", "VarDecl",
    "accesses", "children", "eval_expr", "extract_loops",
    "interpret", "loops_in", "parse_program", "to_source", "walk",
]
