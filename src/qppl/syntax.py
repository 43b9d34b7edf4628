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
quantum statements; the parser accepts both dialects, and ``QUANTUM_ONLY``
and ``CLASSICAL_ONLY`` list the statements only one of them has.

Expressions are boolean: names, the constants 0 and 1, not/and/or (the
symbols ``¬``, ``∧``, ``∨`` are accepted too) and the comparisons.
``a ^ b`` and ``a != b`` parse to ``Xor(a, b)`` and ``a == b`` to
``Not(Xor(a, b))``, so every parsed expression is a tree: no node is held
twice. Precedence, tightest first: not, and, or, then the comparison
operators (left associative). One table, ``_BINARY``, gives each binary
node its precedence and spelling; the parser and ``expr_source`` both
read it. ``#`` starts a comment running to the end of the line.
Lines end where ``str.splitlines`` ends them, so \\v, \\f, \\x1c-\\x1e,
\\x85, U+2028, U+2029 and a lone \\r end a line as \\n and \\r\\n do.
Indentation must use spaces; tabs in indentation are rejected.
Expressions, parentheses and ``if`` blocks may each nest at most
MAX_NESTING (64) levels deep; deeper input is a ParseError.

One compiled scanner reads the whole source in a single pass (``_scan``)
into ``(kind, text, line, col)`` tuples and each line's indentation and
text; the parser is recursive descent over those tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TypeVar, Union

Loc = tuple[int, int]  # 1-based (line, column)
T = TypeVar("T")


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


@dataclass(frozen=True)
class Xor:
    left: "Expression"
    right: "Expression"
    loc: Loc | None = _loc_field()


Expression = Union[Var, Const, Not, And, Or, Xor]


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

# The statements only one dialect has, each with the word its diagnostic
# uses (XorAssign and If are in both): the validator and the engine read them.
QUANTUM_ONLY = {QRand: "qrand_bit", QNeg: "qnegate", Measure: "measure", New: "new"}
CLASSICAL_ONLY = {Assign: "':=' assignment", RandBit: "rand_bit"}


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

def fold(e: Expression, leaf: Callable[[Var | Const], T], ops: dict[type, Callable[..., T]]) -> T:
    """Evaluate an expression bottom-up: ``leaf`` of each Var and Const, and
    ``ops[type(node)]`` of the values of each Not's operand and each
    And's, Or's and Xor's two operands, left first. Raises TypeError on a
    node that is not an expression.
    """
    kind = type(e)  # compared by identity: the walk is on every statement's path
    if kind is Var or kind is Const:
        return leaf(e)
    if kind is Not:
        return ops[Not](fold(e.operand, leaf, ops))
    if kind is And or kind is Or or kind is Xor:
        return ops[kind](fold(e.left, leaf, ops), fold(e.right, leaf, ops))
    raise TypeError(f"not an expression: {e!r}")


# set.union of one set is a copy of it.
_UNION = {Not: set.union, And: set.union, Or: set.union, Xor: set.union}


def free_vars(e: Expression) -> set[str]:
    """Names read by an expression."""
    return fold(e, lambda leaf: {leaf.name} if isinstance(leaf, Var) else set(), _UNION)


def assigned_vars(stmts: Iterable[Statement]) -> set[str]:
    """Names written by a sequence of statements, ``if`` bodies included.
    A ``measure`` or ``new`` writes none, also in a hand-built ``if`` body."""
    out: set[str] = set()
    for s in stmts:
        if isinstance(s, (XorAssign, QRand, Assign, RandBit)):
            out.add(s.target)
        elif isinstance(s, If):
            out |= assigned_vars(s.body)
        elif not isinstance(s, (QNeg, Measure, New)):
            raise TypeError(f"not a statement: {s!r}")
    return out


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

KEYWORDS = frozenset({
    "def", "if", "not", "and", "or", "new", "measure", "return", "bit",
    "qrand_bit", "qrand", "qnegate", "qneg", "rand_bit", "main",
})

_UNICODE_OPS = {"¬": "not", "∧": "and", "∨": "or"}

# The line boundaries of str.splitlines, "\r\n" aside.
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# One scanner over the whole source, after the ``re`` module's "Writing a
# Tokenizer" recipe. A match is the spaces and tabs before it, then one of:
# a name, a number, an operator, an operator spelled as a symbol, a comment
# (to the end of its line), a line break with the next line's indentation,
# or any other single character. Every character is part of some match,
# so the matches are consecutive and their lengths give the columns.
_TOKEN_RE = re.compile(
    r"([ \t]*)(?:([A-Za-z_][A-Za-z0-9_]*)|(\d+)|(\^=|:=|==|!=|[\^(),:])|([¬∧∨])"
    rf"|(#[^{_BREAKS}]*)|(\r\n|[{_BREAKS}])([ \t]*)|(.))"
)

# A token is a tuple (kind, text, line, col): kind is "NAME", "NUM", an
# operator's own text, or "EOL" for the token that ends every line, at the
# column just past the line's last token. ¬ ∧ ∨ come out as the names not,
# and, or. A line is a tuple (indent, index of its first token, line, text),
# where text is the line without its comment and surrounding whitespace.
_TokenTuple = tuple[str, str, int, int]
_LineTuple = tuple[int, int, int, str]


def _scan(source: str) -> tuple[list[_TokenTuple], list[_LineTuple]]:
    """The tokens of the source, and its lines that hold one, in one pass.

    Lines end where str.splitlines ends them. A line that is whitespace
    (in the sense of str.isspace) up to its comment, if any, is skipped
    unread. In any other line, a tab in the indentation, or else the first
    character that starts no token, is a ParseError.
    """
    text = "\n" + source + "\n"  # every line starts and ends with a break
    tokens: list[_TokenTuple] = []
    lines: list[_LineTuple] = []
    line_no = indent = first = 0
    pos = start = 0  # offsets in text: of the next match, of the line
    body_end = error = None
    for ws, name, num, op, uni, comment, brk, lead, bad in _TOKEN_RE.findall(text):
        pos += len(ws)
        col = pos - start + 1
        if name:
            tokens.append(("NAME", name, line_no, col))
            pos += len(name)
        elif op:
            tokens.append((op, op, line_no, col))
            pos += len(op)
        elif brk:
            if len(tokens) > first:
                if error:
                    raise error
                last = tokens[-1]
                tokens.append(("EOL", "", line_no, last[3] + len(last[1])))
                lines.append((indent, first, line_no, text[start:body_end or pos].strip()))
                first = len(tokens)
            line_no += 1
            start = pos = pos + len(brk)
            indent, body_end = len(lead), None
            pos += indent
            tab = lead.find("\t")
            error = (None if tab < 0 else
                     ParseError("tab character in indentation", line_no, tab + 1))
        elif num:
            tokens.append(("NUM", num, line_no, col))
            pos += len(num)
        elif uni:
            tokens.append(("NAME", _UNICODE_OPS[uni], line_no, col))
            pos += 1
        elif comment:
            body_end = pos
            pos += len(comment)
        else:
            # A stray whitespace character is an error only in a line that
            # holds a token; the first error of such a line is raised.
            error = error or ParseError(f"unexpected character {bad!r}", line_no, col)
            if not bad.isspace():
                raise error
            pos += 1
    return tokens, lines


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Deepest nesting the parser accepts, counted three ways: levels of an
# expression tree (one per operator, two per `==`, which parses to
# Not(Xor)), open parentheses, and `if` blocks. The expression walkers
# (fold and expr_source) recurse once per tree level and the parser at most
# five times per parenthesis and twice per block, so even all three at the
# limit stay far inside Python's default recursion limit of 1000 frames.
MAX_NESTING = 64

# Each binary node's precedence, loosest first, and spelling; all are left associative.
_BINARY = {Xor: (0, "^"), Or: (1, "or"), And: (2, "and")}


def _check_nesting(depth: int, what: str, tok: _TokenTuple) -> None:
    if depth > MAX_NESTING:
        raise ParseError(f"{what} nested deeper than {MAX_NESTING} levels", tok[2], tok[3])


def _names(tokens: list[_TokenTuple]) -> tuple[str, ...]:
    return tuple(tok[1] for tok in tokens)


# The parser's view of _BINARY: each operator token's precedence and node class.
_OPERATORS = {op: (prec, cls) for cls, (prec, op) in _BINARY.items()}
_OPERATORS["=="] = _OPERATORS["!="] = _OPERATORS["^"]


class _Parser:
    """Recursive descent over the tokens, a line at a time.

    Only a NAME token has the text of a keyword, so keywords are found by
    text alone; tok[2:] is a token's (line, col).
    """

    def __init__(self, source: str):
        self.tokens, self.lines = _scan(source)
        self.pos = 0  # the next token
        self.i = 0  # the next line
        self.parens = 0  # parentheses open at the current token
        self.if_depth = 0  # `if` blocks open around the current line

    # -- tokens of the current line -------------------------------------------

    def peek(self) -> _TokenTuple:
        return self.tokens[self.pos]

    def next(self) -> _TokenTuple:
        tok = self.tokens[self.pos]
        if tok[0] == "EOL":
            raise ParseError("unexpected end of line", tok[2], tok[3])
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _TokenTuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            if tok[0] == "EOL":
                raise ParseError(f"expected {kind!r} at end of line", tok[2], tok[3])
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        self.pos += 1
        return tok

    def expect_end(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOL":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])

    def match(self, kind: str) -> _TokenTuple | None:
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def identifier(self) -> _TokenTuple:
        tok = self.next()
        if tok[0] != "NAME":
            raise ParseError(f"expected a variable name, found {tok[1]!r}", tok[2], tok[3])
        if tok[1] in KEYWORDS:
            raise ParseError(f"{tok[1]!r} is a reserved word", tok[2], tok[3])
        return tok

    def name_list(self) -> list[_TokenTuple]:
        names = [self.identifier()]
        while self.match(","):
            names.append(self.identifier())
        return names

    def call_names(self, allow_empty: bool) -> list[_TokenTuple]:
        self.expect("(")
        if tok := self.match(")"):
            if allow_empty:
                return []
            raise ParseError("expected at least one variable name", tok[2], tok[3])
        names = self.name_list()
        self.expect(")")
        return names

    # -- expressions, each returned with its depth ----------------------------

    def expression(self) -> Expression:
        return self.binary(0)[0]

    def binary(self, min_prec: int) -> tuple[Expression, int]:
        """An expression whose operators bind at least as tightly as min_prec."""
        expr, depth = self.unary()
        while (op := _OPERATORS.get((tok := self.tokens[self.pos])[1])) and op[0] >= min_prec:
            self.pos += 1
            rhs, rhs_depth = self.binary(op[0] + 1)
            loc = tok[2:]
            expr = op[1](expr, rhs, loc)
            depth = max(depth, rhs_depth) + 1
            if tok[0] == "==":
                expr, depth = Not(expr, loc), depth + 1
            _check_nesting(depth, "expression", tok)
        return expr, depth

    def unary(self) -> tuple[Expression, int]:
        """Any number of `not`, then a constant, a variable or a
        parenthesized expression."""
        # A loop, not a recursion, so a long run of `not` reaches the depth check.
        nots: list[_TokenTuple] = []
        while (tok := self.next())[1] == "not":
            nots.append(tok)
        kind, text, line, col = tok
        if kind == "NUM":
            if text not in ("0", "1"):
                raise ParseError(f"only the bits 0 and 1 are valid constants, found {text!r}",
                                 line, col)
            expr, depth = Const(int(text), (line, col)), 0
        elif kind == "NAME":
            if text in KEYWORDS:
                raise ParseError(f"{text!r} is a reserved word", line, col)
            expr, depth = Var(text, (line, col)), 0
        elif kind == "(":
            self.parens += 1
            _check_nesting(self.parens, "parentheses", tok)
            expr, depth = self.binary(0)
            closing = self.next()
            if closing[0] != ")":
                raise ParseError(f"expected ')', found {closing[1]!r}", closing[2], closing[3])
            self.parens -= 1
        else:
            raise ParseError(f"expected an expression, found {text!r}", line, col)
        for tok in reversed(nots):
            expr, depth = Not(expr, tok[2:]), depth + 1
            _check_nesting(depth, "expression", tok)
        return expr, depth

    # -- lines ----------------------------------------------------------------

    def parse_program(self) -> Program:
        if not self.lines:
            raise ParseError("empty program, expected 'def main(...):'", 1, 1)
        indent, _, line_no, _ = self.lines[0]
        if indent != 0:
            raise ParseError("'def' must not be indented", line_no, indent + 1)
        inputs, loc = self._parse_header()
        self.i = 1
        if self.i >= len(self.lines):
            return Program(inputs, (), None, loc, None)
        body_indent, _, line_no, _ = self.lines[self.i]
        if body_indent == 0:
            raise ParseError("program body must be indented", line_no, 1)
        body, returns, return_loc = self._parse_block(body_indent)
        if self.i < len(self.lines):
            indent, _, line_no, _ = self.lines[self.i]
            raise ParseError("inconsistent indentation", line_no, indent + 1)
        return Program(inputs, tuple(body), returns, loc, return_loc)

    def _parse_header(self) -> tuple[tuple[str, ...], Loc]:
        tok = self.next()
        if tok[1] != "def":
            raise ParseError("expected 'def main(...):'", tok[2], tok[3])
        name = self.next()
        if name[1] != "main":
            raise ParseError("expected 'main'", name[2], name[3])
        self.expect("(")
        names: list[_TokenTuple] = []
        if not self.match(")"):
            names = self.name_list()
            if self.match(":"):
                bit = self.next()
                if bit[1] != "bit":
                    raise ParseError("expected 'bit'", bit[2], bit[3])
            self.expect(")")
        self.expect(":")
        self.expect_end()
        return _names(names), tok[2:]

    def _parse_block(
        self, indent: int
    ) -> tuple[list[Statement], tuple[str, ...] | None, Loc | None]:
        stmts: list[Statement] = []
        returns: tuple[str, ...] | None = None
        return_loc: Loc | None = None
        while self.i < len(self.lines):
            line = self.lines[self.i]
            if line[0] < indent:
                break
            if line[0] > indent:
                raise ParseError("inconsistent indentation", line[2], line[0] + 1)
            if returns is not None:
                raise ParseError("'return' must be the final statement", line[2], line[0] + 1)
            self.pos = line[1]
            head = self.tokens[self.pos]
            if self.if_depth and head[1] in ("return", "measure", "new"):
                raise ParseError(f"{head[1]!r} is not allowed inside 'if'", head[2], head[3])
            if head[1] == "return":
                self.pos += 1
                names: list[_TokenTuple] = []
                if self.peek()[0] != "EOL":
                    names = self.name_list()
                    self.expect_end()
                returns = _names(names)
                return_loc = head[2:]
                self.i += 1
                continue
            self._parse_statement(line, stmts)
        return stmts, returns, return_loc

    def _parse_statement(self, line: _LineTuple, out: list[Statement]):
        """Parse the statement of the line into ``out`` and move to the next
        line."""
        head = self.next()
        kind, word, loc, src = head[0], head[1], head[2:], line[3]
        if kind != "NAME":
            raise ParseError(f"expected a statement, found {word!r}", *loc)

        if word == "if":
            cond = self.expression()
            self.expect(":")
            self.expect_end()
            self.i += 1
            self.if_depth += 1
            _check_nesting(self.if_depth, "'if' blocks", head)
            if self.i >= len(self.lines) or self.lines[self.i][0] <= line[0]:
                raise ParseError("expected an indented block after 'if'", line[2], line[0] + 1)
            body, _, _ = self._parse_block(self.lines[self.i][0])
            self.if_depth -= 1
            out.append(If(cond, tuple(body), loc, src))
            return

        if word in ("qrand_bit", "qrand"):
            names = self.call_names(allow_empty=False)
            if len(names) != 1:
                raise ParseError(f"{word} takes exactly one variable", names[1][2], names[1][3])
            out.append(QRand(names[0][1], loc, src))
        elif word in ("qnegate", "qneg"):
            self.expect("(")
            self.expect(")")
            out.append(QNeg(loc, src))
        elif word == "measure":
            out.append(Measure(_names(self.call_names(allow_empty=True)), loc, src))
        elif word == "new":
            if self.peek()[0] == "(":
                out.append(New(_names(self.call_names(allow_empty=False)), loc, src))
            else:
                names = self.name_list()
                if self.match(":="):
                    if len(names) != 1:
                        raise ParseError("an initializer requires a single variable",
                                         names[1][2], names[1][3])
                    # The initializing XOR is synthesized; it renders canonically.
                    out += [New((names[0][1],), loc, src),
                            XorAssign(names[0][1], self.expression(), loc, None)]
                else:
                    out.append(New(_names(names), loc, src))
        elif word in KEYWORDS:
            raise ParseError(f"unexpected keyword {word!r}", *loc)
        else:
            op = self.next()
            if op[0] == "^=":
                out.append(XorAssign(word, self.expression(), loc, src))
            elif op[0] != ":=":
                raise ParseError(f"expected '^=' or ':=', found {op[1]!r}", op[2], op[3])
            elif self.peek()[1] == "rand_bit":
                self.pos += 1
                self.expect("(")
                self.expect(")")
                out.append(RandBit(word, loc, src))
            else:
                out.append(Assign(word, self.expression(), loc, src))
        self.expect_end()
        self.i += 1


def parse(source: str) -> Program:
    """Parse QPPL source text into a Program tree.

    An initialized ``new y := E`` becomes ``new y`` and ``y ^= E``, and
    ``a == b`` becomes ``not (a ^ b)``; no node of the tree is held twice.
    Raises ParseError with a line and column on malformed input.
    """
    return _Parser(source).parse_program()


# ---------------------------------------------------------------------------
# Unparser
# ---------------------------------------------------------------------------

_NOT, _ATOM = len(_BINARY), len(_BINARY) + 1  # bind tighter than every binary node


def expr_source(e: Expression, min_prec: int = 0) -> str:
    """Source text of an expression; parse of it gives back the same tree.

    ``Xor(a, b)`` prints as ``a ^ b`` and ``Not(Xor(a, b))`` as ``a == b``;
    every other node prints as the operator it is.
    """
    node = e.operand if isinstance(e, Not) and isinstance(e.operand, Xor) else e
    if type(node) in _BINARY:
        # Left associative: the right operand binds one level tighter.
        prec, op = _BINARY[type(node)]
        op = op if node is e else "=="
        text = f"{expr_source(node.left, prec)} {op} {expr_source(node.right, prec + 1)}"
    elif isinstance(e, Var):
        text, prec = e.name, _ATOM
    elif isinstance(e, Const):
        text, prec = str(e.value), _ATOM
    elif isinstance(e, Not):
        text, prec = f"not {expr_source(e.operand, _NOT)}", _NOT
    else:
        raise TypeError(f"not an expression: {e!r}")
    return f"({text})" if prec < min_prec else text


def _stmt_lines(s: Statement, depth: int) -> list[str]:
    lines = ["  " * depth + _stmt_canonical(s)]
    if isinstance(s, If):
        for inner in s.body:
            lines.extend(_stmt_lines(inner, depth + 1))
    return lines


def _stmt_canonical(s: Statement) -> str:
    """Canonical text of a statement's first line: an ``if`` gives its header."""
    if isinstance(s, If):
        return f"if {expr_source(s.cond)}:"
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
    text = s.source or _stmt_canonical(s)
    if isinstance(s, If):
        return text + " " + "; ".join(statement_source(b) for b in s.body)
    return text


def return_source(names: tuple[str, ...]) -> str:
    """Text of a return statement: ``return x, y``, or ``return``."""
    return f"return {', '.join(names)}" if names else "return"


def unparse(p: Program) -> str:
    """Render a Program back to canonical source; parse(unparse(p)) == p."""
    params = ", ".join(p.inputs) + " : bit" if p.inputs else ""
    lines = [f"def main({params}):"]
    for s in p.body:
        lines.extend(_stmt_lines(s, 1))
    if p.returns is not None:
        lines.append("  " + return_source(p.returns))
    return "\n".join(lines) + "\n"


def bundled_programs() -> dict[str, str]:
    """Name -> source text of the example corpus shipped with the package."""
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(Path(__file__).with_name("programs").glob("*.qppl"))}
