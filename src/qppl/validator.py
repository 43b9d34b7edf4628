"""Static checks run before execution.

Quantum mode enforces the reversibility side conditions: an XOR-assignment
may not read its own target, and an ``if`` body may not write variables
the condition reads. Classical mode drops those two conditions (ordinary
destructive assignment is fine there) but rejects the quantum statements.
Both modes check declarations and the shapes of measure/new/return.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Assign, If, Loc, Measure, New, Program, QNeg, QRand, RandBit, Statement,
    XorAssign, assigned_vars, free_vars,
)

QUANTUM, CLASSICAL = "quantum", "classical"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    code: str
    message: str
    line: int
    col: int

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.severity}[{self.code}]: {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


class _Checker:
    def __init__(self, mode: str):
        self.mode = mode
        self.out: list[Diagnostic] = []
        self.declared: set[str] = set()
        self.read: set[str] = set()  # names observed after allocation
        self.allocated: dict[str, Loc] = {}

    def error(self, code: str, message: str, loc: Loc | None):
        line, col = loc or (0, 0)
        self.out.append(Diagnostic("error", code, message, line, col))

    def warning(self, code: str, message: str, loc: Loc | None):
        line, col = loc or (0, 0)
        self.out.append(Diagnostic("warning", code, message, line, col))

    def check_expr_vars(self, e, loc: Loc | None) -> set[str]:
        """Report undeclared names read by ``e``; returns the names it reads."""
        names = free_vars(e)
        for name in sorted(names):
            self.read.add(name)
            if name not in self.declared:
                self.error("UNDECLARED_VARIABLE", f"variable '{name}' is not declared",
                           _var_loc(e, name) or loc)
        return names

    def check_target(self, name: str, loc: Loc | None):
        if name not in self.declared:
            self.error("UNDECLARED_VARIABLE", f"variable '{name}' is not declared", loc)

    def quantum_only(self, what: str, loc: Loc | None) -> bool:
        if self.mode == CLASSICAL:
            self.error("QUANTUM_STATEMENT", f"{what} is not allowed in classical mode", loc)
            return False
        return True

    def classical_only(self, what: str, loc: Loc | None) -> bool:
        if self.mode == QUANTUM:
            self.error("CLASSICAL_STATEMENT", f"{what} is not allowed in quantum mode", loc)
            return False
        return True

    def check_statement(self, s: Statement, in_conditional: bool):
        if isinstance(s, XorAssign):
            self.check_target(s.target, s.loc)
            reads = self.check_expr_vars(s.rhs, s.loc)
            if self.mode == QUANTUM and s.target in reads:
                self.error("XOR_SELF_REFERENCE",
                           f"'{s.target}' may not appear on the right-hand side of its own "
                           f"XOR-assignment", s.loc)
        elif isinstance(s, QRand):
            if self.quantum_only("qrand_bit", s.loc):
                self.check_target(s.target, s.loc)
        elif isinstance(s, QNeg):
            self.quantum_only("qnegate", s.loc)
        elif isinstance(s, Assign):
            if self.classical_only("':=' assignment", s.loc):
                self.check_target(s.target, s.loc)
                self.check_expr_vars(s.rhs, s.loc)
        elif isinstance(s, RandBit):
            if self.classical_only("rand_bit", s.loc):
                self.check_target(s.target, s.loc)
        elif isinstance(s, If):
            reads = self.check_expr_vars(s.cond, s.loc)
            if self.mode == QUANTUM:
                overlap = reads & _safe_assigned(s.body)
                if overlap:
                    names = ", ".join(f"'{n}'" for n in sorted(overlap))
                    self.error("COND_ASSIGNS_CONDITION_VAR",
                               f"'if' body assigns to {names}, which the condition reads",
                               s.loc)
            for inner in s.body:
                if isinstance(inner, (Measure, New)):
                    self.error("NON_COMP_IN_CONDITIONAL",
                               "only computational statements may appear inside 'if'",
                               inner.loc)
                    continue
                self.check_statement(inner, in_conditional=True)
        elif isinstance(s, Measure):
            if in_conditional:
                self.error("NON_COMP_IN_CONDITIONAL",
                           "'measure' may only appear at the top level", s.loc)
            if self.quantum_only("measure", s.loc):
                seen: set[str] = set()
                for name in s.names:
                    self.read.add(name)
                    self.check_target(name, s.loc)
                    if name in seen:
                        self.error("DUPLICATE_MEASURE",
                                   f"variable '{name}' measured twice in one statement", s.loc)
                    seen.add(name)
        elif isinstance(s, New):
            if in_conditional:
                self.error("NON_COMP_IN_CONDITIONAL",
                           "'new' may only appear at the top level", s.loc)
            if self.quantum_only("new", s.loc):
                for name in s.names:
                    if name in self.declared:
                        self.error("REDECLARED_VARIABLE",
                                   f"variable '{name}' is already declared", s.loc)
                    else:
                        self.declared.add(name)
                        self.allocated[name] = s.loc
        else:
            raise TypeError(f"not a statement: {s!r}")


def _safe_assigned(body) -> set[str]:
    # Tolerate Measure/New smuggled into a body; they are reported separately.
    comp = [s for s in body if not isinstance(s, (Measure, New))]
    return assigned_vars(comp)


def _var_loc(e, name: str, searched: set[int] | None = None) -> Loc | None:
    # ``searched`` holds id(node) of the And/Or nodes already searched in
    # vain, so subtrees shared by the comparison sugar are searched once.
    from .syntax import And, Not, Or, Var
    if isinstance(e, Var):
        return e.loc if e.name == name else None
    if isinstance(e, Not):
        return _var_loc(e.operand, name, searched)
    if isinstance(e, (And, Or)):
        searched = set() if searched is None else searched
        if id(e) in searched:
            return None
        searched.add(id(e))
        return _var_loc(e.left, name, searched) or _var_loc(e.right, name, searched)
    return None


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
            c.error("DUPLICATE_INPUT", f"input '{name}' declared twice", p.loc)
        c.declared.add(name)
    for s in p.body:
        c.check_statement(s, in_conditional=False)
    if p.returns is not None:
        seen: set[str] = set()
        for name in p.returns:
            c.read.add(name)
            if name not in c.declared:
                c.error("UNDECLARED_VARIABLE",
                        f"returned variable '{name}' is not declared", p.return_loc)
            if name in seen:
                c.error("DUPLICATE_RETURN", f"variable '{name}' returned twice", p.return_loc)
            seen.add(name)
    for name, loc in c.allocated.items():
        if name not in c.read:
            c.warning("UNUSED_VARIABLE",
                      f"variable '{name}' is allocated but never read, measured, or returned",
                      loc)
    return c.out
