"""Surface syntax and abstract syntax trees for QPPL programs.

QPPL source is Python-like: a single ``def main(...)`` header followed by
one statement per line, with ``if E:`` opening an indented block. All
variables are bits. The statement forms are

    qrand_bit(x)      quantum coin toss on x (also spelled qrand)
    qnegate()         negate the amplitude of the current world (also qneg)
    x ^= E            XOR-assignment
    if E:             conditional block (computational statements only)
    new x, y          allocate fresh zero bits; ``new y := E`` initializes
    measure(x, y)     convert quantum uncertainty on x, y into classical
    return x, y       final statement only; unlisted variables are discarded

Classical programs use ``x := E`` and ``x := rand_bit()`` instead of the
quantum statements; the parser accepts both dialects and the validator
sorts out which mode a program belongs to.

Expressions are boolean: names, the constants 0 and 1, and not/and/or
(the symbols ``¬``, ``∧``, ``∨`` are accepted too). Comparison sugar
``a == b``, ``a != b`` and ``a ^ b`` expands into not/and/or during
parsing, so parsed trees contain only the core constructors. Precedence,
tightest first: not, and, or, then the comparison operators (left
associative). ``#`` starts a comment running to the end of the line.
Indentation must use spaces; tabs in indentation are rejected.
Expressions, parentheses and ``if`` blocks may each nest at most
MAX_NESTING (64) levels deep; deeper input is a ParseError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Union

Loc = tuple[int, int]  # 1-based (line, column)


class ParseError(Exception):
    """Syntax error carrying a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

def _loc_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Const:
    value: int
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Not:
    operand: "Expression"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class And:
    left: "Expression"
    right: "Expression"
    loc: Loc | None = _loc_field()


@dataclass(frozen=True)
class Or:
    left: "Expression"
    right: "Expression"
    loc: Loc | None = _loc_field()


Expression = Union[Var, Const, Not, And, Or]


@dataclass(frozen=True)
class QRand:
    """Quantum coin toss: split the target bit into equal-magnitude halves."""

    target: str
    loc: Loc | None = _loc_field()
    source: str | None = _loc_field()


@dataclass(frozen=True)
class QNeg:
    """Negate the amplitude of every world this statement runs in."""

    loc: Loc | None = _loc_field()
    source: str | None = _loc_field()


@dataclass(frozen=True)
class XorAssign:
    target: str
    rhs: Expression
    loc: Loc | None = _loc_field()
    source: str | None = _loc_field()


@dataclass(frozen=True)
class If:
    cond: Expression
    body: tuple["CompStatement", ...]
    loc: Loc | None = _loc_field()
    source: str | None = _loc_field()


@dataclass(frozen=True)
class Assign:
    """Classical destructive assignment ``x := E``."""

    target: str
    rhs: Expression
    loc: Loc | None = _loc_field()
    source: str | None = _loc_field()


@dataclass(frozen=True)
class RandBit:
    """Classical fair coin ``x := rand_bit()``."""

    target: str
    loc: Loc | None = _loc_field()
    source: str | None = _loc_field()


@dataclass(frozen=True)
class New:
    names: tuple[str, ...]
    loc: Loc | None = _loc_field()
    source: str | None = _loc_field()


@dataclass(frozen=True)
class Measure:
    names: tuple[str, ...]
    loc: Loc | None = _loc_field()
    source: str | None = _loc_field()


CompStatement = Union[QRand, QNeg, XorAssign, If, Assign, RandBit]
Statement = Union[CompStatement, New, Measure]


@dataclass(frozen=True)
class Program:
    inputs: tuple[str, ...]
    body: tuple[Statement, ...]
    returns: tuple[str, ...] | None = None  # None means "return everything"
    loc: Loc | None = _loc_field()
    return_loc: Loc | None = _loc_field()


# ---------------------------------------------------------------------------
# Variable analyses
# ---------------------------------------------------------------------------

def free_vars(e: Expression) -> set[str]:
    """Names read by an expression."""
    return _free_vars(e, {})


def _free_vars(e: Expression, memo: dict[int, set[str]]) -> set[str]:
    # ``memo`` maps id(node) of each And/Or node to its names: the
    # comparison sugar puts each operand into the tree twice, so a chain of
    # k comparisons would otherwise be walked along 2**k paths.
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Not):
        return _free_vars(e.operand, memo)
    if isinstance(e, (And, Or)):
        names = memo.get(id(e))
        if names is None:
            names = memo[id(e)] = _free_vars(e.left, memo) | _free_vars(e.right, memo)
        return names
    if isinstance(e, Const):
        return set()
    raise TypeError(f"not an expression: {e!r}")


def assigned_vars(stmts: Iterable[CompStatement]) -> set[str]:
    """Names written by a sequence of computational statements."""
    out: set[str] = set()
    for s in stmts:
        if isinstance(s, (XorAssign, QRand, Assign, RandBit)):
            out.add(s.target)
        elif isinstance(s, If):
            out |= assigned_vars(s.body)
        elif isinstance(s, QNeg):
            pass
        else:
            raise TypeError(f"not a computational statement: {s!r}")
    return out


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

KEYWORDS = frozenset({
    "def", "if", "not", "and", "or", "new", "measure", "return", "bit",
    "qrand_bit", "qrand", "qnegate", "qneg", "rand_bit", "main",
})

_UNICODE_OPS = {"¬": "not", "∧": "and", "∨": "or"}

_TOKEN_RE = re.compile(
    r"(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<NUM>\d+)"
    r"|(?P<OP>\^=|:=|==|!=|[\^(),:])"
    r"|(?P<UNI>[¬∧∨])"
    r"|(?P<WS>[ \t]+)"
    r"|(?P<BAD>.)"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "NAME", "NUM", or the operator text itself
    text: str
    line: int
    col: int


@dataclass
class _Line:
    indent: int
    tokens: list[_Token]
    line_no: int
    text: str


def _strip_comment(raw: str) -> str:
    pos = raw.find("#")
    return raw if pos < 0 else raw[:pos]


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        col = m.start() + 1
        if kind == "WS":
            continue
        if kind == "BAD":
            raise ParseError(f"unexpected character {m.group()!r}", line_no, col)
        if kind == "UNI":
            tokens.append(_Token("NAME", _UNICODE_OPS[m.group()], line_no, col))
        elif kind == "OP":
            tokens.append(_Token(m.group(), m.group(), line_no, col))
        else:
            tokens.append(_Token(kind, m.group(), line_no, col))
    return tokens


def _logical_lines(source: str) -> list[_Line]:
    lines: list[_Line] = []
    for i, raw in enumerate(source.splitlines(), start=1):
        raw = raw.rstrip("\r")
        body = _strip_comment(raw)
        if not body.strip():
            continue
        indent = 0
        for ch in body:
            if ch == " ":
                indent += 1
            elif ch == "\t":
                raise ParseError("tab character in indentation", i, indent + 1)
            else:
                break
        lines.append(_Line(indent, _tokenize_line(body, i), i, body.strip()))
    return lines


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _TokenCursor:
    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.parens = 0  # parentheses open at the current position

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            col = last.col + len(last.text) if last else 1
            raise ParseError("unexpected end of line", self.line_no, col)
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            col = last.col + len(last.text) if last else 1
            raise ParseError(f"expected {what or kind!r} at end of line", self.line_no, col)
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind!r}, found {tok.text!r}", tok.line, tok.col
            )
        self.pos += 1
        return tok

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def match(self, kind: str) -> _Token | None:
        tok = self.peek()
        if tok is not None and tok.kind == kind:
            self.pos += 1
            return tok
        return None


def _expect_identifier(cur: _TokenCursor) -> _Token:
    tok = cur.next()
    if tok.kind != "NAME":
        raise ParseError(f"expected a variable name, found {tok.text!r}", tok.line, tok.col)
    if tok.text in KEYWORDS:
        raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
    return tok


def _xor_tree(a: Expression, b: Expression, loc: Loc) -> Expression:
    return Or(And(a, Not(b, loc), loc), And(Not(a, loc), b, loc), loc)


# Deepest nesting the parser accepts, counted three ways: operators on the
# longest root-to-leaf path of an expression tree, open parentheses, and
# `if` blocks. The expression walkers (free_vars, truth_table, expr_source)
# recurse once per tree level and the parser five times per parenthesis and
# three times per block, so even all three at the limit stay far inside
# Python's default recursion limit of 1000 frames.
MAX_NESTING = 64


def _check_nesting(depth: int, what: str, tok: _Token) -> None:
    if depth > MAX_NESTING:
        raise ParseError(f"{what} nested deeper than {MAX_NESTING} levels",
                         tok.line, tok.col)


def _parse_expression(cur: _TokenCursor) -> Expression:
    return _parse_comparison(cur)[0]


# The functions below return an expression together with its depth.

def _parse_comparison(cur: _TokenCursor) -> tuple[Expression, int]:
    expr, depth = _parse_or(cur)
    while True:
        tok = cur.peek()
        if tok is None or tok.kind not in ("==", "!=", "^"):
            return expr, depth
        cur.next()
        rhs, rhs_depth = _parse_or(cur)
        loc = (tok.line, tok.col)
        expr, depth = _xor_tree(expr, rhs, loc), max(depth, rhs_depth) + 3
        if tok.kind == "==":
            expr, depth = Not(expr, loc), depth + 1
        _check_nesting(depth, "expression", tok)


def _parse_or(cur: _TokenCursor) -> tuple[Expression, int]:
    expr, depth = _parse_and(cur)
    while True:
        tok = cur.peek()
        if tok is None or not (tok.kind == "NAME" and tok.text == "or"):
            return expr, depth
        cur.next()
        rhs, rhs_depth = _parse_and(cur)
        expr, depth = Or(expr, rhs, (tok.line, tok.col)), max(depth, rhs_depth) + 1
        _check_nesting(depth, "expression", tok)


def _parse_and(cur: _TokenCursor) -> tuple[Expression, int]:
    expr, depth = _parse_not(cur)
    while True:
        tok = cur.peek()
        if tok is None or not (tok.kind == "NAME" and tok.text == "and"):
            return expr, depth
        cur.next()
        rhs, rhs_depth = _parse_not(cur)
        expr, depth = And(expr, rhs, (tok.line, tok.col)), max(depth, rhs_depth) + 1
        _check_nesting(depth, "expression", tok)


def _parse_not(cur: _TokenCursor) -> tuple[Expression, int]:
    # A loop, not a recursion, so a long run of `not` reaches the depth check.
    nots: list[_Token] = []
    while (tok := cur.peek()) is not None and tok.kind == "NAME" and tok.text == "not":
        nots.append(cur.next())
    expr, depth = _parse_atom(cur)
    for tok in reversed(nots):
        expr, depth = Not(expr, (tok.line, tok.col)), depth + 1
        _check_nesting(depth, "expression", tok)
    return expr, depth


def _parse_atom(cur: _TokenCursor) -> tuple[Expression, int]:
    tok = cur.next()
    if tok.kind == "NUM":
        if tok.text not in ("0", "1"):
            raise ParseError(f"only the bits 0 and 1 are valid constants, found {tok.text!r}",
                             tok.line, tok.col)
        return Const(int(tok.text), (tok.line, tok.col)), 0
    if tok.kind == "NAME":
        if tok.text in KEYWORDS:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.col)
        return Var(tok.text, (tok.line, tok.col)), 0
    if tok.kind == "(":
        cur.parens += 1
        _check_nesting(cur.parens, "parentheses", tok)
        expr, depth = _parse_comparison(cur)
        closing = cur.next()
        if closing.kind != ")":
            raise ParseError(f"expected ')', found {closing.text!r}", closing.line, closing.col)
        cur.parens -= 1
        return expr, depth
    raise ParseError(f"expected an expression, found {tok.text!r}", tok.line, tok.col)


def _parse_name_list(cur: _TokenCursor) -> list[_Token]:
    names = [_expect_identifier(cur)]
    while cur.match(","):
        names.append(_expect_identifier(cur))
    return names


def _parse_call_names(cur: _TokenCursor, allow_empty: bool) -> list[_Token]:
    cur.expect("(")
    if cur.match(")"):
        if allow_empty:
            return []
        tok = cur.tokens[cur.pos - 1]
        raise ParseError("expected at least one variable name", tok.line, tok.col)
    names = _parse_name_list(cur)
    cur.expect(")")
    return names


class _Parser:
    def __init__(self, lines: list[_Line]):
        self.lines = lines
        self.i = 0
        self.if_depth = 0  # `if` blocks open around the current line

    def parse_program(self) -> Program:
        if not self.lines:
            raise ParseError("empty program, expected 'def main(...):'", 1, 1)
        header = self.lines[0]
        if header.indent != 0:
            raise ParseError("'def' must not be indented", header.line_no, header.indent + 1)
        inputs, loc = self._parse_header(header)
        self.i = 1
        if self.i >= len(self.lines):
            return Program(inputs, (), None, loc, None)
        body_indent = self.lines[self.i].indent
        if body_indent == 0:
            line = self.lines[self.i]
            raise ParseError("program body must be indented", line.line_no, 1)
        body, returns, return_loc = self._parse_block(body_indent, top_level=True)
        if self.i < len(self.lines):
            line = self.lines[self.i]
            raise ParseError("inconsistent indentation", line.line_no, line.indent + 1)
        return Program(inputs, tuple(body), returns, loc, return_loc)

    def _parse_header(self, line: _Line) -> tuple[tuple[str, ...], Loc]:
        cur = _TokenCursor(line.tokens, line.line_no)
        tok = cur.next()
        if not (tok.kind == "NAME" and tok.text == "def"):
            raise ParseError("expected 'def main(...):'", tok.line, tok.col)
        name = cur.next()
        if not (name.kind == "NAME" and name.text == "main"):
            raise ParseError("expected 'main'", name.line, name.col)
        cur.expect("(")
        names: list[_Token] = []
        if not cur.match(")"):
            names = _parse_name_list(cur)
            if cur.match(":"):
                bit = cur.next()
                if not (bit.kind == "NAME" and bit.text == "bit"):
                    raise ParseError("expected 'bit'", bit.line, bit.col)
            cur.expect(")")
        cur.expect(":")
        cur.expect_end()
        return tuple(t.text for t in names), (tok.line, tok.col)

    def _parse_block(
        self, indent: int, top_level: bool
    ) -> tuple[list[Statement], tuple[str, ...] | None, Loc | None]:
        stmts: list[Statement] = []
        returns: tuple[str, ...] | None = None
        return_loc: Loc | None = None
        while self.i < len(self.lines):
            line = self.lines[self.i]
            if line.indent < indent:
                break
            if line.indent > indent:
                raise ParseError("inconsistent indentation", line.line_no, line.indent + 1)
            if returns is not None:
                raise ParseError("'return' must be the final statement",
                                 line.line_no, line.indent + 1)
            cur = _TokenCursor(line.tokens, line.line_no)
            head = cur.peek()
            if head is not None and head.kind == "NAME" and head.text == "return":
                if not top_level:
                    raise ParseError("'return' is not allowed inside 'if'",
                                     head.line, head.col)
                cur.next()
                names: list[_Token] = []
                if cur.peek() is not None:
                    names = _parse_name_list(cur)
                    cur.expect_end()
                returns = tuple(t.text for t in names)
                return_loc = (head.line, head.col)
                self.i += 1
                continue
            stmts.extend(self._parse_statement(cur, line, top_level))
        return stmts, returns, return_loc

    def _parse_statement(
        self, cur: _TokenCursor, line: _Line, top_level: bool
    ) -> list[Statement]:
        head = cur.next()
        loc = (head.line, head.col)
        src = line.text
        if head.kind != "NAME":
            raise ParseError(f"expected a statement, found {head.text!r}", head.line, head.col)

        if head.text == "if":
            cond = _parse_expression(cur)
            cur.expect(":")
            cur.expect_end()
            self.i += 1
            self.if_depth += 1
            _check_nesting(self.if_depth, "'if' blocks", head)
            body = self._parse_if_body(line)
            self.if_depth -= 1
            return [If(cond, tuple(body), loc, src)]

        if head.text in ("qrand_bit", "qrand"):
            names = _parse_call_names(cur, allow_empty=False)
            if len(names) != 1:
                raise ParseError(f"{head.text} takes exactly one variable",
                                 names[1].line, names[1].col)
            cur.expect_end()
            self.i += 1
            return [QRand(names[0].text, loc, src)]

        if head.text in ("qnegate", "qneg"):
            cur.expect("(")
            cur.expect(")")
            cur.expect_end()
            self.i += 1
            return [QNeg(loc, src)]

        if head.text == "measure":
            if not top_level:
                raise ParseError("'measure' is not allowed inside 'if'", head.line, head.col)
            names = _parse_call_names(cur, allow_empty=True)
            cur.expect_end()
            self.i += 1
            return [Measure(tuple(t.text for t in names), loc, src)]

        if head.text == "new":
            if not top_level:
                raise ParseError("'new' is not allowed inside 'if'", head.line, head.col)
            if cur.peek() is not None and cur.peek().kind == "(":
                names = _parse_call_names(cur, allow_empty=False)
                cur.expect_end()
                self.i += 1
                return [New(tuple(t.text for t in names), loc, src)]
            names = _parse_name_list(cur)
            if cur.match(":="):
                if len(names) != 1:
                    raise ParseError("an initializer requires a single variable",
                                     names[1].line, names[1].col)
                rhs = _parse_expression(cur)
                cur.expect_end()
                self.i += 1
                # The initializing XOR is synthesized; it renders canonically.
                return [New((names[0].text,), loc, src),
                        XorAssign(names[0].text, rhs, loc)]
            cur.expect_end()
            self.i += 1
            return [New(tuple(t.text for t in names), loc, src)]

        if head.text in KEYWORDS:
            raise ParseError(f"unexpected keyword {head.text!r}", head.line, head.col)

        op = cur.next()
        if op.kind == "^=":
            rhs = _parse_expression(cur)
            cur.expect_end()
            self.i += 1
            return [XorAssign(head.text, rhs, loc, src)]
        if op.kind == ":=":
            nxt = cur.peek()
            if nxt is not None and nxt.kind == "NAME" and nxt.text == "rand_bit":
                cur.next()
                cur.expect("(")
                cur.expect(")")
                cur.expect_end()
                self.i += 1
                return [RandBit(head.text, loc, src)]
            rhs = _parse_expression(cur)
            cur.expect_end()
            self.i += 1
            return [Assign(head.text, rhs, loc, src)]
        raise ParseError(f"expected '^=' or ':=', found {op.text!r}", op.line, op.col)

    def _parse_if_body(self, header: _Line) -> list[Statement]:
        if self.i >= len(self.lines) or self.lines[self.i].indent <= header.indent:
            raise ParseError("expected an indented block after 'if'",
                             header.line_no, header.indent + 1)
        body, _, _ = self._parse_block(self.lines[self.i].indent, top_level=False)
        return body


def parse(source: str) -> Program:
    """Parse QPPL source text into a Program tree.

    Sugar (``==``, ``!=``, ``^``, initialized ``new``) is expanded here, so
    the returned tree contains only core constructors. Raises ParseError
    with a line and column on malformed input.
    """
    return _Parser(_logical_lines(source)).parse_program()


# ---------------------------------------------------------------------------
# Unparser
# ---------------------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4


def _expr_prec(e: Expression) -> int:
    if isinstance(e, Or):
        return _PREC_OR
    if isinstance(e, And):
        return _PREC_AND
    if isinstance(e, Not):
        return _PREC_NOT
    return _PREC_ATOM


def expr_source(e: Expression, min_prec: int = _PREC_OR) -> str:
    if isinstance(e, Var):
        text = e.name
    elif isinstance(e, Const):
        text = str(e.value)
    elif isinstance(e, Not):
        text = f"not {expr_source(e.operand, _PREC_NOT)}"
    elif isinstance(e, And):
        text = f"{expr_source(e.left, _PREC_AND)} and {expr_source(e.right, _PREC_NOT)}"
    elif isinstance(e, Or):
        text = f"{expr_source(e.left, _PREC_OR)} or {expr_source(e.right, _PREC_AND)}"
    else:
        raise TypeError(f"not an expression: {e!r}")
    return f"({text})" if _expr_prec(e) < min_prec else text


def _stmt_lines(s: Statement, depth: int) -> list[str]:
    pad = "  " * depth
    if isinstance(s, If):
        lines = [f"{pad}if {expr_source(s.cond)}:"]
        for inner in s.body:
            lines.extend(_stmt_lines(inner, depth + 1))
        return lines
    return [pad + _stmt_canonical(s)]


def _stmt_canonical(s: Statement) -> str:
    if isinstance(s, QRand):
        return f"qrand_bit({s.target})"
    if isinstance(s, QNeg):
        return "qnegate()"
    if isinstance(s, XorAssign):
        return f"{s.target} ^= {expr_source(s.rhs)}"
    if isinstance(s, Assign):
        return f"{s.target} := {expr_source(s.rhs)}"
    if isinstance(s, RandBit):
        return f"{s.target} := rand_bit()"
    if isinstance(s, New):
        return "new " + ", ".join(s.names)
    if isinstance(s, Measure):
        return f"measure({', '.join(s.names)})"
    raise TypeError(f"not a statement: {s!r}")


def statement_source(s: Statement) -> str:
    """Single-line rendering of a statement, preferring the original text.

    If-bodies join with '; '. Hand-built statements render canonically.
    """
    if isinstance(s, If):
        header = s.source or f"if {expr_source(s.cond)}:"
        body = "; ".join(statement_source(b) for b in s.body)
        return f"{header} {body}"
    if s.source is not None:
        return s.source
    return _stmt_canonical(s)


def unparse(p: Program) -> str:
    """Render a Program back to canonical source; parse(unparse(p)) == p."""
    params = ", ".join(p.inputs) + " : bit" if p.inputs else ""
    lines = [f"def main({params}):"]
    for s in p.body:
        lines.extend(_stmt_lines(s, 1))
    if p.returns is not None:
        suffix = " " + ", ".join(p.returns) if p.returns else ""
        lines.append(f"  return{suffix}")
    return "\n".join(lines) + "\n"


def bundled_programs() -> dict[str, str]:
    """Name -> source text of the example corpus shipped with the package."""
    out: dict[str, str] = {}
    root = resources.files("qppl.programs")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".qppl"):
            out[entry.name.removesuffix(".qppl")] = entry.read_text(encoding="utf-8")
    return out
