"""Static checks run before execution.

Quantum mode enforces the reversibility side conditions: an XOR-assignment
may not read its own target, and an ``if`` body may not write variables
the condition reads. Classical mode drops those two conditions (ordinary
destructive assignment is fine there). A statement of the other dialect
(``syntax.QUANTUM_ONLY`` or ``CLASSICAL_ONLY``) gets one diagnostic and no
other check. Both modes check declarations and the shapes of measure/new/return,
and that no input list or ``new`` makes more bits live than a run holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    CLASSICAL_ONLY, QUANTUM_ONLY, And, Assign, If, Loc, Measure, New, Not, Or, Program, QNeg,
    QRand, RandBit, Statement, Var, Xor, XorAssign, assigned_vars, fold,
)

QUANTUM, CLASSICAL = "quantum", "classical"
MAX_LIVE_BITS = 24  # dense vectors; refuse anything bigger up front
# Each mode's table of the other dialect's statements, and their code.
_FOREIGN = {QUANTUM: (CLASSICAL_ONLY, "CLASSICAL_STATEMENT"),
            CLASSICAL: (QUANTUM_ONLY, "QUANTUM_STATEMENT")}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    code: str
    message: str
    line: int
    col: int

    def render(self, filename: str) -> str:
        return f"{filename}:{self.line}:{self.col}: {self.severity}[{self.code}]: {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def capacity_error(n_bits: int) -> str | None:
    """Why n_bits live bits are refused, or None if they fit in MAX_LIVE_BITS."""
    if n_bits > MAX_LIVE_BITS:
        return f"{n_bits} live bits exceed the {MAX_LIVE_BITS}-bit capacity limit"
    return None


class _Checker:
    def __init__(self, mode: str):
        self.mode = mode
        self.foreign, self.foreign_code = _FOREIGN[mode]
        self.out: list[Diagnostic] = []
        self.declared: set[str] = set()
        self.read: set[str] = set()  # names observed after allocation
        self.allocated: dict[str, Loc] = {}

    def report(self, code: str, message: str, loc: Loc | None, severity: str = "error"):
        line, col = loc or (0, 0)
        self.out.append(Diagnostic(severity, code, message, line, col))

    def check_expr_vars(self, e, loc: Loc | None) -> set[str]:
        """Report undeclared names read by ``e``, each at its leftmost
        occurrence that has a location, else at ``loc``; returns the names
        it reads."""
        locs = fold(e, lambda leaf: {leaf.name: leaf.loc} if isinstance(leaf, Var) else {},
                    _FIRST_LOCS)
        for name in sorted(locs):
            self.read.add(name)
            self.check_target(name, locs[name] or loc)
        return set(locs)

    def check_capacity(self, before: int, loc: Loc | None):
        """Report the input list or ``new`` that first makes more bits live than a
        run holds; ``before`` is the count of live bits before it."""
        if before <= MAX_LIVE_BITS < len(self.declared):
            self.report("CAPACITY", capacity_error(len(self.declared)), loc)

    def check_target(self, name: str, loc: Loc | None):
        if name not in self.declared:
            self.report("UNDECLARED_VARIABLE", f"variable '{name}' is not declared", loc)

    def check_statement(self, s: Statement):
        if (what := self.foreign.get(type(s))) is not None:
            self.report(self.foreign_code, f"{what} is not allowed in {self.mode} mode", s.loc)
        elif isinstance(s, (XorAssign, Assign)):  # an Assign is only met in classical mode
            self.check_target(s.target, s.loc)
            reads = self.check_expr_vars(s.rhs, s.loc)
            if self.mode == QUANTUM and s.target in reads:
                self.report("XOR_SELF_REFERENCE",
                            f"'{s.target}' may not appear on the right-hand side of its own "
                            f"XOR-assignment", s.loc)
        elif isinstance(s, (QRand, RandBit)):
            self.check_target(s.target, s.loc)
        elif isinstance(s, If):
            reads = self.check_expr_vars(s.cond, s.loc)
            if self.mode == QUANTUM:
                overlap = reads & assigned_vars(s.body)
                if overlap:
                    names = ", ".join(f"'{n}'" for n in sorted(overlap))
                    self.report("COND_ASSIGNS_CONDITION_VAR",
                                f"'if' body assigns to {names}, which the condition reads",
                                s.loc)
            for inner in s.body:
                if isinstance(inner, (Measure, New)):
                    self.report("NON_COMP_IN_CONDITIONAL",
                                "only computational statements may appear inside 'if'",
                                inner.loc)
                    continue
                self.check_statement(inner)
        elif isinstance(s, Measure):
            seen: set[str] = set()
            for name in s.names:
                self.read.add(name)
                self.check_target(name, s.loc)
                if name in seen:
                    self.report("DUPLICATE_MEASURE",
                                f"variable '{name}' measured twice in one statement", s.loc)
                seen.add(name)
        elif isinstance(s, New):
            before = len(self.declared)
            for name in s.names:
                if name in self.declared:
                    self.report("REDECLARED_VARIABLE",
                                f"variable '{name}' is already declared", s.loc)
                else:
                    self.declared.add(name)
                    self.allocated[name] = s.loc
            self.check_capacity(before, s.loc)
        elif not isinstance(s, QNeg):
            raise TypeError(f"not a statement: {s!r}")


def _first_locs(left: dict[str, Loc | None],
                right: dict[str, Loc | None]) -> dict[str, Loc | None]:
    """Both maps' names, each at the left map's location if it has one."""
    out = dict(left)
    for name, loc in right.items():
        if not out.get(name):
            out[name] = loc
    return out


_FIRST_LOCS = {Not: dict, And: _first_locs, Or: _first_locs, Xor: _first_locs}


def validate(p: Program, mode: str = QUANTUM) -> list[Diagnostic]:
    """Check a parsed program; an empty result means it is safe to run.

    Pure: the tree is never modified, and repeated calls return the same
    diagnostics.
    """
    if mode not in (QUANTUM, CLASSICAL):
        raise ValueError(f"unknown mode {mode!r}")
    c = _Checker(mode)
    for name in p.inputs:
        if name in c.declared:
            c.report("DUPLICATE_INPUT", f"input '{name}' declared twice", p.loc)
        c.declared.add(name)
    c.check_capacity(0, p.loc)
    for s in p.body:
        c.check_statement(s)
    if p.returns is not None:  # without a return every live variable is returned
        seen: set[str] = set()
        for name in p.returns:
            c.read.add(name)
            if name not in c.declared:
                c.report("UNDECLARED_VARIABLE",
                         f"returned variable '{name}' is not declared", p.return_loc)
            if name in seen:
                c.report("DUPLICATE_RETURN", f"variable '{name}' returned twice", p.return_loc)
            seen.add(name)
        for name, loc in c.allocated.items():
            if name not in c.read:
                c.report("UNUSED_VARIABLE",
                         f"variable '{name}' is allocated but never read, measured, or returned",
                         loc, "warning")
    return c.out
