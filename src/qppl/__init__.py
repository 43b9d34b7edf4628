"""Qubit-free quantum programming on signed probabilities.

Programs manipulate ordinary bits; the only non-classical primitive is a
coin toss whose outcomes carry signs and can cancel. This package parses
and validates such programs, executes them under a two-layer probability
model (quantum amplitudes inside, classical branch weights outside), and
cross-checks runs against an independent density-matrix semantics. A
classical mode runs the unsigned counterpart language.
"""

from .syntax import (
    And, Assign, Const, If, Measure, New, Not, Or, ParseError, Program, QNeg, QRand, RandBit,
    Statement, Var, Xor, XorAssign, assigned_vars, bundled_programs, free_vars, parse, unparse,
)
from .validator import CLASSICAL, Diagnostic, QUANTUM, has_errors, validate
from .state import (
    CapacityError, ClassicalState, Environment, TwoLayerState, assert_valid_state, basis_label,
    output_distribution, state_from_json, state_to_json, to_density,
)
from .engine import (
    apply_measure, apply_qrand, apply_return, comp_matrix, extend, initial_state, run,
    run_classical, truth_table,
)
from .density import check_equivalence, run_density

__version__ = "0.1.0"

__all__ = [
    "And", "Assign", "CLASSICAL", "CapacityError", "ClassicalState", "Const", "Diagnostic",
    "Environment", "If", "Measure", "New", "Not", "Or", "ParseError", "Program", "QNeg",
    "QRand", "QUANTUM", "RandBit", "Statement", "TwoLayerState", "Var", "Xor", "XorAssign",
    "apply_measure", "apply_qrand", "apply_return", "assert_valid_state", "assigned_vars",
    "basis_label", "bundled_programs", "check_equivalence", "comp_matrix", "extend",
    "free_vars", "has_errors", "initial_state", "output_distribution", "parse", "run",
    "run_classical", "run_density", "state_from_json", "state_to_json", "to_density",
    "truth_table", "unparse", "validate",
]
