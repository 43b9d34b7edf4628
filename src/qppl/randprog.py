"""Seeded random program generation for the property suites.

One statement generator serves both dialects, each with its own kinds.
Programs come out valid by construction: XOR targets never appear in their
own right-hand side, and a quantum conditional's body only assigns
variables the condition does not read. Generation weights are fixed here
so a seed pins the whole program.
"""

from __future__ import annotations

import random

from .syntax import (
    And, Assign, Const, Expression, If, Measure, New, Not, Or, Program, QNeg,
    QRand, RandBit, Statement, Var, XorAssign, free_vars,
)
from .validator import CLASSICAL, QUANTUM

MAX_EXPR_DEPTH = 3
MAX_IF_DEPTH = 2
MAX_IF_BODY = 3

_EXPR_KINDS = ["var"] * 4 + ["const"] + ["not"] * 2 + ["and"] * 2 + ["or"] * 2
# Each dialect's computational statements, weighted by repetition.
_COMP_KINDS = {QUANTUM: [XorAssign] * 4 + [QRand] * 3 + [If] * 2 + [QNeg],
               CLASSICAL: [Assign] * 4 + [RandBit] * 3 + [If] * 2}
_TOP_KINDS = ["comp"] * 6 + ["measure"] + ["new"]


def random_expression(rng: random.Random, names: list[str],
                      depth: int = MAX_EXPR_DEPTH) -> Expression:
    kind = rng.choice(_EXPR_KINDS) if depth > 0 else ("var" if names else "const")
    if kind == "var" and not names:
        kind = "const"
    if kind == "var":
        return Var(rng.choice(names))
    if kind == "const":
        return Const(rng.randint(0, 1))
    if kind == "not":
        return Not(random_expression(rng, names, depth - 1))
    left = random_expression(rng, names, depth - 1)
    right = random_expression(rng, names, depth - 1)
    return And(left, right) if kind == "and" else Or(left, right)


def _random_comp(rng: random.Random, mode: str, names: list[str],
                 assignable: list[str], if_depth: int) -> Statement:
    """A computational statement of the mode's dialect, of a class drawn from
    its kinds, assigning only ``assignable``: a quantum ``if`` drops from it
    the variables its condition reads, which a classical one may assign."""
    kinds = _COMP_KINDS[mode]
    if not assignable:
        kinds = [k for k in kinds if k in (If, QNeg)]
    if if_depth <= 0 or not names:
        kinds = [k for k in kinds if k is not If]
    kind = rng.choice(kinds)
    if kind is If:
        cond = random_expression(rng, names, depth=2)
        if mode == QUANTUM:
            assignable = [n for n in assignable if n not in free_vars(cond)]
        return If(cond, tuple(_random_comp(rng, mode, names, assignable, if_depth - 1)
                              for _ in range(rng.randint(1, MAX_IF_BODY))))
    if kind is QNeg:
        return QNeg()
    if kind in (QRand, RandBit):
        return kind(rng.choice(assignable))
    target = rng.choice(assignable)
    sources = names if kind is Assign else [n for n in names if n != target]
    return kind(target, random_expression(rng, sources))


def _random_returns(rng: random.Random, names: list[str]) -> tuple[str, ...] | None:
    """No return half the time; otherwise each name is returned with chance 0.7."""
    return tuple(n for n in names if rng.random() < 0.7) if rng.random() < 0.5 else None


def random_comp_program(seed: int, n_vars: int, max_statements: int) -> Program:
    """Computational statements only; suited to matrix extraction."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n_vars)]
    body = tuple(_random_comp(rng, QUANTUM, names, names, MAX_IF_DEPTH)
                 for _ in range(rng.randint(1, max_statements)))
    return Program(tuple(names), body)


def random_program(seed: int, max_bits: int = 5, max_statements: int = 30) -> Program:
    """Full program with allocation and measurement, optionally a return."""
    rng = random.Random(seed)
    n_inputs = rng.randint(1, min(2, max_bits))
    names = [f"v{i}" for i in range(n_inputs)]
    inputs = tuple(names)
    body: list[Statement] = []
    for _ in range(rng.randint(1, max_statements)):
        kind = rng.choice(_TOP_KINDS)
        if kind == "new" and len(names) < max_bits:
            count = rng.randint(1, min(2, max_bits - len(names)))
            allocated = [f"v{len(names) + i}" for i in range(count)]
            body.append(New(tuple(allocated)))
            # Touch the fresh variables so they count as used.
            body.append(XorAssign(rng.choice(allocated), random_expression(rng, names)))
            names.extend(allocated)
        elif kind == "measure":
            chosen = rng.sample(names, rng.randint(1, len(names)))
            body.append(Measure(tuple(chosen)))
        else:
            body.append(_random_comp(rng, QUANTUM, names, names, MAX_IF_DEPTH))
    return Program(inputs, tuple(body), _random_returns(rng, names))


def random_classical_program(seed: int, max_bits: int = 5,
                             max_statements: int = 20) -> Program:
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(1, max_bits))]
    body = tuple(_random_comp(rng, CLASSICAL, names, names, MAX_IF_DEPTH)
                 for _ in range(rng.randint(1, max_statements)))
    return Program(tuple(names), body, _random_returns(rng, names))
