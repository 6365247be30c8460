"""Sequential MiniC interpreter.

Big-step evaluation in binary64; pure and deterministic. Programs are
closed (no input channel), so the final value of every top-level variable
is the program's output. Unknown call statements are opaque no-ops; an
unknown call in expression position has no defined value and raises.
"""

from __future__ import annotations

import math

from .astnodes import (
    Assign,
    BinOp,
    Block,
    Call,
    CallStmt,
    ForLoop,
    Index,
    Num,
    Program,
    Var,
    VarDecl,
)

ITERATION_CAP = 10**8

_INTRINSIC_FN = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


class EvalError(Exception):
    pass


class Env:
    """Mutable single-space store: name -> float scalar or list of floats."""

    def __init__(self):
        self.values: dict[str, float | list] = {}

    def declare(self, decl: VarDecl, init_value: float | None):
        if decl.is_array:
            self.values[decl.name] = [0.0] * decl.size
        else:
            self.values[decl.name] = 0.0 if init_value is None else init_value

    def read(self, name: str) -> float:
        return self.values[name]

    def write(self, name: str, value: float):
        self.values[name] = value

    def read_elem(self, name: str, idx: int) -> float:
        return self.values[name][idx]

    def write_elem(self, name: str, idx: int, value: float):
        self.values[name][idx] = value

    def array_len(self, name: str) -> int:
        return len(self.values[name])

    def final_values(self, ast: Program) -> dict:
        """Top-level variables of ``ast`` in declaration order, arrays as tuples."""
        out: dict[str, float | tuple] = {}
        for item in ast.items:
            if isinstance(item, VarDecl):
                value = self.values[item.name]
                out[item.name] = tuple(value) if isinstance(value, list) else value
        return out


def eval_expr(expr, env) -> float:
    """Evaluate an expression against any Env-shaped store."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return env.read(expr.name)
    if isinstance(expr, Index):
        return env.read_elem(expr.name, check_index(expr, env))
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if right == 0.0:
            raise EvalError(f"{expr.line}:{expr.col}: division by zero")
        return left / right
    if isinstance(expr, Call):
        if not expr.intrinsic:
            raise EvalError(
                f"{expr.line}:{expr.col}: opaque call '{expr.name}' has no value")
        arg = eval_expr(expr.args[0], env)
        try:
            return _INTRINSIC_FN[expr.name](arg)
        except ValueError as exc:
            raise EvalError(f"{expr.line}:{expr.col}: {expr.name}({arg}): {exc}") from exc
    raise TypeError(f"not an expression: {expr!r}")


def check_index(node: Index | Assign, env) -> int:
    """Element index of a read (an Index) or an element write (an Assign),
    whose position prefixes the error. Indices truncate toward zero and
    must land inside the array."""
    idx = int(eval_expr(node.index, env))
    if not 0 <= idx < env.array_len(node.name):
        raise EvalError(
            f"{node.line}:{node.col}: index {idx} out of bounds for "
            f"'{node.name}[{env.array_len(node.name)}]'")
    return idx


class Executor:
    """Statement walker shared by the plain interpreter and the offload
    simulator; subclasses hook loop entry/exit."""

    def __init__(self, env, iteration_cap: int = ITERATION_CAP):
        self.env = env
        self.iteration_cap = iteration_cap
        self.iterations = 0

    def run_program(self, ast: Program):
        for item in ast.items:
            if isinstance(item, VarDecl):
                init = eval_expr(item.init, self.env) if item.init is not None else None
                self.env.declare(item, init)
            else:
                self.exec_stmt(item)

    def exec_stmt(self, stmt):
        if isinstance(stmt, Assign):
            value = eval_expr(stmt.value, self.env)
            if stmt.index is None:
                self.env.write(stmt.name, value)
            else:
                self.env.write_elem(stmt.name, check_index(stmt, self.env), value)
        elif isinstance(stmt, Block):
            for inner in stmt.body:
                self.exec_stmt(inner)
        elif isinstance(stmt, ForLoop):
            self.exec_loop(stmt)
        elif isinstance(stmt, CallStmt):
            if stmt.intrinsic:
                for arg in stmt.args:  # intrinsic effects are value-only; discard
                    eval_expr(arg, self.env)
            # unknown calls are opaque no-ops: arguments are not evaluated
        else:
            raise TypeError(f"not a statement: {stmt!r}")

    def exec_loop(self, loop: ForLoop):
        self.enter_loop(loop)
        self.env.write(loop.var, eval_expr(loop.init, self.env))
        while self.loop_continues(loop):
            self.iterations += 1
            if self.iterations > self.iteration_cap:
                raise EvalError(
                    f"{loop.line}:{loop.col}: iteration cap "
                    f"({self.iteration_cap}) exceeded")
            self.exec_stmt(loop.body)
            self.env.write(loop.step_var,
                           self.env.read(loop.step_var) + float(loop.step))
        self.exit_loop(loop)

    def loop_continues(self, loop: ForLoop) -> bool:
        current = self.env.read(loop.cond_var)
        bound = eval_expr(loop.bound, self.env)
        return current < bound if loop.op == "<" else current <= bound

    # hooks for the two-memory-space simulator
    def enter_loop(self, loop: ForLoop):
        pass

    def exit_loop(self, loop: ForLoop):
        pass


def interpret(ast: Program, iteration_cap: int = ITERATION_CAP) -> dict:
    """Run the program; return {name: float | tuple-of-floats} in declaration
    order. Referentially transparent: equal ASTs give bit-equal outputs."""
    executor = Executor(Env(), iteration_cap)
    executor.run_program(ast)
    return executor.env.final_values(ast)
