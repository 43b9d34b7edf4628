import typing

import pytest

from qppl import (
    And, CLASSICAL, QUANTUM, Diagnostic, If, Measure, New, Or, Program, Statement, Var,
    XorAssign, parse, validate,
)
from qppl.syntax import CLASSICAL_ONLY, QUANTUM_ONLY


def codes(diags, severity="error"):
    return [d.code for d in diags if d.severity == severity]


class TestQuantumMode:
    def test_corpus_programs_are_clean(self, corpus):
        for name, src in corpus.items():
            if name == "classical_coins":
                continue
            assert codes(validate(parse(src))) == [], name

    def test_xor_self_reference(self):
        p = parse("def main(x : bit):\n  x ^= x")
        assert codes(validate(p)) == ["XOR_SELF_REFERENCE"]

    def test_xor_self_reference_buried_in_expression(self):
        p = parse("def main(x, y : bit):\n  x ^= y or not x")
        assert codes(validate(p)) == ["XOR_SELF_REFERENCE"]

    def test_condition_variable_assigned_in_body(self):
        p = parse("def main(x : bit):\n  if x == 1:\n    qrand_bit(x)")
        assert codes(validate(p)) == ["COND_ASSIGNS_CONDITION_VAR"]

    def test_condition_variable_assigned_in_nested_if(self):
        p = parse("def main(x, y : bit):\n  if x:\n    if y:\n      x ^= 1")
        assert "COND_ASSIGNS_CONDITION_VAR" in codes(validate(p))

    def test_body_may_assign_other_variables(self):
        p = parse("def main(x, y : bit):\n  if x:\n    y ^= x")
        assert codes(validate(p)) == []

    def test_undeclared_variable(self):
        p = parse("def main(x : bit):\n  x ^= w")
        assert codes(validate(p)) == ["UNDECLARED_VARIABLE"]

    def test_undeclared_name_read_twice_is_reported_once_at_the_first(self):
        p = parse("def main(x, y : bit):\n  x ^= y and q or q")
        (diag,) = validate(p)
        assert (diag.code, diag.line, diag.col) == ("UNDECLARED_VARIABLE", 2, 14)

    @pytest.mark.parametrize("first, second, expected", [
        (None, (2, 19), (2, 19)),  # the first q has no location
        (None, None, (2, 3)),  # neither has: the statement's location
    ])
    def test_undeclared_name_is_reported_at_the_first_location(self, first, second,
                                                                expected):
        rhs = Or(And(Var("y"), Var("q", first)), Var("q", second))
        p = Program(("x", "y"), (XorAssign("x", rhs, (2, 3)),))
        (diag,) = validate(p)
        assert (diag.code, (diag.line, diag.col)) == ("UNDECLARED_VARIABLE", expected)

    def test_undeclared_target(self):
        p = parse("def main(x : bit):\n  qrand_bit(w)")
        assert codes(validate(p)) == ["UNDECLARED_VARIABLE"]

    def test_use_before_new(self):
        p = parse("def main(x : bit):\n  x ^= y\n  new y")
        assert "UNDECLARED_VARIABLE" in codes(validate(p))

    def test_redeclared_variable(self):
        p = parse("def main(x : bit):\n  new x")
        assert codes(validate(p)) == ["REDECLARED_VARIABLE"]

    def test_duplicate_input(self):
        p = Program(("x", "x"), ())
        assert codes(validate(p)) == ["DUPLICATE_INPUT"]

    def test_duplicate_measure(self):
        p = parse("def main(x : bit):\n  measure(x, x)")
        assert codes(validate(p)) == ["DUPLICATE_MEASURE"]

    def test_duplicate_return(self):
        p = parse("def main(x : bit):\n  return x, x")
        assert codes(validate(p)) == ["DUPLICATE_RETURN"]

    def test_undeclared_return(self):
        p = parse("def main(x : bit):\n  return w")
        assert codes(validate(p)) == ["UNDECLARED_VARIABLE"]

    def test_classical_statement_rejected(self):
        p = parse("def main(x : bit):\n  x := rand_bit()")
        assert codes(validate(p)) == ["CLASSICAL_STATEMENT"]

    @pytest.mark.parametrize("stmt", [Measure(("x",)), New(("z",))], ids=["measure", "new"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_measure_smuggled_into_if_body(self, stmt, depth):
        # Not constructible from source; guard against hand-built trees.
        body = (stmt,)
        for name in ("y", "x")[2 - depth:]:
            body = (If(Var(name), body),)
        p = Program(("x", "y"), body)
        assert codes(validate(p)) == ["NON_COMP_IN_CONDITIONAL"]

    def test_unused_new_variable_warns(self):
        p = parse("def main(x : bit):\n  new y\n  y ^= x\n  return x")
        diags = validate(p)
        assert codes(diags) == []
        assert codes(diags, "warning") == ["UNUSED_VARIABLE"]

    def test_without_a_return_every_variable_is_returned(self):
        # With no return the run keeps every live variable, y included.
        p = parse("def main(x : bit):\n  new y\n  y ^= x")
        assert validate(p) == []
        assert validate(parse("def main():\n  new y, z\n  qrand_bit(y)")) == []

    def test_read_new_variable_does_not_warn(self):
        p = parse("def main(x : bit):\n  new y\n  x ^= y")
        assert validate(p) == []


class TestClassicalMode:
    def test_classical_corpus_program(self, corpus):
        p = parse(corpus["classical_coins"])
        assert validate(p, CLASSICAL) == []

    def test_quantum_statements_rejected(self):
        p = parse("def main(x : bit):\n  qrand_bit(x)\n  qneg()\n  measure(x)\n  new y")
        assert codes(validate(p, CLASSICAL)) == ["QUANTUM_STATEMENT"] * 4

    def test_reversibility_conditions_relaxed(self):
        p = parse("def main(x, y : bit):\n  if x:\n    x := y\n  x ^= x")
        assert validate(p, CLASSICAL) == []

    def test_declaration_checks_still_apply(self):
        p = parse("def main(x : bit):\n  x := w")
        assert codes(validate(p, CLASSICAL)) == ["UNDECLARED_VARIABLE"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            validate(parse("def main():"), "hybrid")


# Each statement that only one dialect has, the mode that rejects it, and
# the diagnostic's code and message; the first four may be inside an 'if'.
# Its names are undeclared (y) or already declared (x), so a check of them
# would add a second diagnostic.
OTHER_DIALECT = [pytest.param(*row, id=row[0]) for row in [
    ("qrand_bit(y)", CLASSICAL, "QUANTUM_STATEMENT", "qrand_bit is not allowed in classical mode"),
    ("qnegate()", CLASSICAL, "QUANTUM_STATEMENT", "qnegate is not allowed in classical mode"),
    ("y := x", QUANTUM, "CLASSICAL_STATEMENT", "':=' assignment is not allowed in quantum mode"),
    ("y := rand_bit()", QUANTUM, "CLASSICAL_STATEMENT", "rand_bit is not allowed in quantum mode"),
    ("measure(y)", CLASSICAL, "QUANTUM_STATEMENT", "measure is not allowed in classical mode"),
    ("new x", CLASSICAL, "QUANTUM_STATEMENT", "new is not allowed in classical mode"),
]]


class TestOtherDialect:
    @pytest.mark.parametrize("source, mode, code, message", OTHER_DIALECT)
    def test_one_diagnostic_at_the_statement(self, source, mode, code, message):
        p = parse(f"def main(x : bit):\n  {source}\n")
        assert validate(p, mode) == [Diagnostic("error", code, message, 2, 3)]

    @pytest.mark.parametrize("source, mode, code, message", OTHER_DIALECT[:4])
    def test_one_diagnostic_inside_an_if(self, source, mode, code, message):
        p = parse(f"def main(x : bit):\n  if x:\n    {source}\n")
        assert validate(p, mode) == [Diagnostic("error", code, message, 3, 5)]

    @pytest.mark.parametrize("stmt", [Measure(("y",), (3, 5)), New(("x",), (3, 5))],
                             ids=["measure", "new"])
    def test_measure_or_new_inside_an_if_is_reported_as_that(self, stmt):
        # The parser refuses them there; a hand-built tree is reported as a
        # statement that may not be inside an 'if', not also as quantum.
        p = Program(("x",), (If(Var("x"), (stmt,), (2, 3)),))
        assert validate(p, CLASSICAL) == [Diagnostic(
            "error", "NON_COMP_IN_CONDITIONAL",
            "only computational statements may appear inside 'if'", 3, 5)]

    def test_every_statement_is_in_one_dialect_or_both(self):
        both = {XorAssign, If}
        classes = set(typing.get_args(Statement))
        tables = [set(QUANTUM_ONLY), set(CLASSICAL_ONLY), both]
        assert set().union(*tables) == classes
        assert sum(map(len, tables)) == len(classes)


class TestValidatorContract:
    def test_idempotent_and_pure(self):
        p = parse("def main(x : bit):\n  x ^= x")
        before = p
        first = validate(p)
        second = validate(p)
        assert first == second
        assert p == before

    def test_every_error_carries_a_location(self, corpus):
        bad = parse("def main(x : bit):\n  x ^= x\n  qrand_bit(w)")
        for d in validate(bad):
            assert d.line > 0 and d.col > 0

    def test_rendering_format(self):
        p = parse("def main(x : bit):\n  x ^= x")
        (d,) = validate(p)
        text = d.render("prog.qppl")
        assert text.startswith("prog.qppl:2:3: error[XOR_SELF_REFERENCE]: ")
