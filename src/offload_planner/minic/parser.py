"""Recursive-descent parser for MiniC.

Grammar:
    program := (decl | stmt)*
    decl    := ("int"|"float") ident ("[" INT "]")? ("=" expr)? ";"
    stmt    := ident ("[" expr "]")? "=" expr ";"
             | "for" "(" ident "=" expr ";" ident ("<"|"<=") expr ";"
                         ident ("++"|"+=" INT) ")" stmt
             | "{" stmt* "}"
             | ident "(" args ")" ";"
    expr    := term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := NUM | ident | ident "[" expr "]" | ident "(" args ")" | "(" expr ")"

Single flat scope; every identifier must be declared before use. Node ids
are assigned in source order (a statement's id is taken at its first token).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .astnodes import (
    EXACT,
    INTRINSICS,
    Assign,
    BinOp,
    Block,
    Call,
    CallStmt,
    ForLoop,
    Index,
    Node,
    Num,
    Program,
    Var,
    VarDecl,
)

KEYWORDS = ("int", "float", "for")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}  # binary operators
# most array cells a program may declare: interpretation allocates every
# array in full, 128 MiB per copy at this budget
CELL_BUDGET = 2 ** 24
# most levels an expression may nest, one for each bracket around an operand
# and each operator, index or call above a leaf: passes recurse up to three
# Python frames a level, and the first fails at about 330 levels
EXPR_DEPTH = 256
# most levels statements may nest, one for each "{" block and each "for"
# header: the parser recurses two Python frames a level, and run-all in one
# process first fails at 110 nested for headers that hold an expression of
# EXPR_DEPTH - 1 bracketed levels, at 329 without it
STMT_DEPTH = 64

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|\+\+|\+=|[;,()\[\]{}=<+\-*/])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UndeclaredIdentifier(ParseError):
    pass


@dataclass(slots=True)
class Token:
    kind: str  # "num" | "ident" | keyword text | operator text | "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(source):
        text = m.group()
        if m.lastgroup == "ws":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            continue
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if m.lastgroup == "num":
            kind = "num"
        elif m.lastgroup == "ident":
            kind = text if text in KEYWORDS else "ident"
        else:
            kind = text
        tokens.append(Token(kind, text, line, col))
        col += len(text)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.next_id = 0
        # name -> VarDecl; single flat scope, declaration-before-use
        self.symbols: dict[str, VarDecl] = {}
        self.cells = 0  # array cells declared so far
        self.depth = 0  # whole expressions open, one inside the other
        self.nesting = 0  # blocks and for headers open, one inside the other
        self.height = 0  # levels of the expression parsed last

    # -- token plumbing --------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ParseError(f"expected '{kind}', found {got!r}", tok.line, tok.col)
        return self.advance()

    def new_id(self) -> int:
        i = self.next_id
        self.next_id += 1
        return i

    # -- declarations and statements --------------------------------------

    def parse(self) -> Program:
        pid = self.new_id()
        items = []
        while self.peek().kind != "eof":
            if self.peek().kind in ("int", "float"):
                items.append(self.decl())
            else:
                items.append(self.stmt())
        return Program(node_id=pid, line=1, col=1, items=tuple(items), source=self.source)

    def decl(self) -> VarDecl:
        tok = self.peek()
        nid = self.new_id()
        kind = self.advance().text
        name_tok = self.expect("ident")
        if name_tok.text in self.symbols:
            raise ParseError(f"redeclaration of '{name_tok.text}'", name_tok.line, name_tok.col)
        size = None
        if self.peek().kind == "[":
            self.advance()
            size_tok = self.expect("num")
            # indices are binary64, exact only below EXACT; steps are bounded alike
            if "." in size_tok.text or not 0 < int(size_tok.text) < EXACT:
                raise ParseError("array size must be a positive integer below 2^53",
                                 size_tok.line, size_tok.col)
            size = int(size_tok.text)
            self.cells += size
            if self.cells > CELL_BUDGET:
                raise ParseError(f"array '{name_tok.text}' takes the program's arrays "
                                 f"past {CELL_BUDGET} cells", size_tok.line, size_tok.col)
            self.expect("]")
        init = None
        if self.peek().kind == "=":
            eq = self.advance()
            if size is not None:
                raise ParseError("array declaration cannot have an initializer",
                                 eq.line, eq.col)
            init = self.expr()
        self.expect(";")
        decl = VarDecl(node_id=nid, line=tok.line, col=tok.col,
                       name=name_tok.text, kind=kind, size=size, init=init)
        self.symbols[name_tok.text] = decl
        return decl

    def stmt(self) -> Node:
        tok = self.peek()
        if tok.kind in ("for", "{"):
            self.nesting += 1
            if self.nesting > STMT_DEPTH:
                raise ParseError(f"statement nests deeper than {STMT_DEPTH} levels",
                                 tok.line, tok.col)
            node = self.for_stmt() if tok.kind == "for" else self.block()
            self.nesting -= 1
            return node
        if tok.kind == "ident":
            if self.peek(1).kind == "(":
                return self.call_stmt()
            return self.assign_stmt()
        got = tok.text or "end of input"
        raise ParseError(f"expected a statement, found {got!r}", tok.line, tok.col)

    def block(self) -> Block:
        tok = self.advance()
        nid = self.new_id()
        body = []
        while self.peek().kind != "}":
            if self.peek().kind == "eof":
                raise ParseError("expected '}', found end of input", tok.line, tok.col)
            body.append(self.stmt())
        self.expect("}")
        return Block(node_id=nid, line=tok.line, col=tok.col, body=tuple(body))

    def assign_stmt(self) -> Assign:
        tok = self.peek()
        nid = self.new_id()
        name = self.advance().text
        index = None
        if self.peek().kind == "[":
            self.require_array(name, tok)
            self.advance()
            index = self.expr()
            self.expect("]")
        else:
            self.require_scalar(name, tok)
        self.expect("=")
        value = self.expr()
        self.expect(";")
        return Assign(node_id=nid, line=tok.line, col=tok.col,
                      name=name, index=index, value=value)

    def call_stmt(self) -> CallStmt:
        tok = self.peek()
        nid = self.new_id()
        name = self.advance().text
        args = self.call_args(name, tok)
        self.expect(";")
        return CallStmt(node_id=nid, line=tok.line, col=tok.col, name=name, args=args)

    def for_stmt(self) -> ForLoop:
        tok = self.expect("for")
        nid = self.new_id()
        self.expect("(")
        var_tok = self.expect("ident")
        self.require_scalar(var_tok.text, var_tok)
        self.expect("=")
        init = self.expr()
        self.expect(";")
        cond_tok = self.expect("ident")
        self.require_scalar(cond_tok.text, cond_tok)
        op_tok = self.peek()
        if op_tok.kind not in ("<", "<="):
            raise ParseError(f"expected '<' or '<=', found {op_tok.text!r}",
                             op_tok.line, op_tok.col)
        self.advance()
        bound = self.expr()
        self.expect(";")
        step_tok = self.expect("ident")
        self.require_scalar(step_tok.text, step_tok)
        if self.peek().kind == "++":
            self.advance()
            step = 1
        elif self.peek().kind == "+=":
            self.advance()
            step_num = self.expect("num")
            if "." in step_num.text or int(step_num.text) >= EXACT:
                raise ParseError("step must be an integer literal below 2^53",
                                 step_num.line, step_num.col)
            step = int(step_num.text)
        else:
            bad = self.peek()
            raise ParseError(f"expected '++' or '+=', found {bad.text!r}",
                             bad.line, bad.col)
        self.expect(")")
        body = self.stmt()
        end_line = self.tokens[self.pos - 1].line  # last token consumed by the body
        return ForLoop(node_id=nid, line=tok.line, col=tok.col,
                       var=var_tok.text, init=init,
                       cond_var=cond_tok.text, op=op_tok.kind, bound=bound,
                       step_var=step_tok.text, step=step, body=body,
                       end_line=end_line)

    # -- expressions -------------------------------------------------------

    def expr(self, min_precedence: int = 1) -> Node:
        """Factors joined by left-associative operators that bind at least
        as tightly as ``min_precedence`` (the grammar's expr and term); a
        BinOp's id follows its operands' ids."""
        whole = min_precedence == 1  # at top or in brackets, a level deeper
        self.depth = self.within(self.depth + whole, self.peek())
        node = self.factor()
        while _PRECEDENCE.get(self.peek().kind, 0) >= min_precedence:
            op = self.advance()
            left = self.height
            right = self.expr(_PRECEDENCE[op.kind] + 1)
            self.height = self.within(max(left, self.height) + 1, op)
            node = BinOp(node_id=self.new_id(), line=op.line, col=op.col,
                         op=op.kind, left=node, right=right)
        self.depth -= whole
        return node

    def factor(self) -> Node:
        tok = self.peek()
        self.height = 1  # a leaf's; brackets, indices and calls set their own
        if tok.kind == "num":
            self.advance()
            return Num(node_id=self.new_id(), line=tok.line, col=tok.col,
                       value=float(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            name = self.advance().text
            if self.peek().kind == "(":
                nid = self.new_id()
                args = self.call_args(name, tok)
                self.height = self.within(self.height + 1, tok)
                return Call(node_id=nid, line=tok.line, col=tok.col, name=name, args=args)
            if self.peek().kind == "[":
                self.require_array(name, tok)
                nid = self.new_id()
                self.advance()
                index = self.expr()
                self.expect("]")
                self.height = self.within(self.height + 1, tok)
                return Index(node_id=nid, line=tok.line, col=tok.col, name=name, index=index)
            self.require_scalar(name, tok)
            return Var(node_id=self.new_id(), line=tok.line, col=tok.col, name=name)
        got = tok.text or "end of input"
        raise ParseError(f"expected an expression, found {got!r}", tok.line, tok.col)

    def call_args(self, name: str, tok: Token) -> tuple:
        """The arguments; self.height is then the levels of the highest."""
        self.expect("(")
        args, height = [], 0
        if self.peek().kind != ")":
            args.append(self.expr())
            height = self.height
            while self.peek().kind == ",":
                self.advance()
                args.append(self.expr())
                height = max(height, self.height)
        self.expect(")")
        self.height = height
        if name in INTRINSICS and len(args) != 1:
            raise ParseError(f"intrinsic '{name}' takes exactly 1 argument",
                             tok.line, tok.col)
        return tuple(args)

    @staticmethod
    def within(levels: int, at: Token | Node) -> int:
        if levels > EXPR_DEPTH:
            raise ParseError(f"expression nests deeper than {EXPR_DEPTH} levels", at.line, at.col)
        return levels

    # -- symbol checks -----------------------------------------------------

    def lookup(self, name: str, tok: Token) -> VarDecl:
        decl = self.symbols.get(name)
        if decl is None:
            raise UndeclaredIdentifier(f"'{name}' used before declaration",
                                       tok.line, tok.col)
        return decl

    def require_scalar(self, name: str, tok: Token):
        if self.lookup(name, tok).is_array:
            raise ParseError(f"array '{name}' used without an index", tok.line, tok.col)

    def require_array(self, name: str, tok: Token):
        if not self.lookup(name, tok).is_array:
            raise ParseError(f"scalar '{name}' indexed like an array", tok.line, tok.col)


def parse_program(source: str) -> Program:
    """Parse MiniC text into a Program. Pure function of the text."""
    return _Parser(source).parse()
