import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qppl import (
    And, Assign, Const, If, Measure, New, Not, Or, ParseError, Program, QNeg,
    QRand, RandBit, Var, XorAssign, assigned_vars, free_vars, has_errors,
    output_distribution, parse, run, unparse, validate,
)
from qppl.syntax import MAX_NESTING
from qppl.randprog import random_classical_program, random_program


def equals_one(e):
    """Desugared form of ``e == 1``."""
    one = Const(1)
    return Not(Or(And(e, Not(one)), And(Not(e), one)))


def xor_of(a, b):
    return Or(And(a, Not(b)), And(Not(a), b))


class TestParsing:
    def test_interference_program_tree(self, corpus):
        p = parse(corpus["interference"])
        assert p.inputs == ("x", "y")
        assert p.returns == ("x", "y")
        assert p.body == (
            QRand("x"),
            If(equals_one(Var("x")), (QNeg(),)),
            QRand("x"),
            XorAssign("y", Var("x")),
        )

    def test_minimal_program(self):
        p = parse("def main(x : bit):\n  qneg()")
        assert p == Program(inputs=("x",), body=(QNeg(),))

    def test_self_xor_parses(self):
        # The side condition is the validator's business, not the parser's.
        p = parse("def main(x : bit):\n  x ^= x")
        assert p.body == (XorAssign("x", Var("x")),)

    def test_spelling_variants(self):
        a = parse("def main(x : bit):\n  qrand_bit(x)\n  qnegate()")
        b = parse("def main(x : bit):\n  qrand(x)\n  qneg()")
        assert a == b

    def test_no_inputs(self):
        p = parse("def main():\n  qneg()")
        assert p.inputs == ()

    def test_empty_body(self):
        p = parse("def main(x : bit):")
        assert p.body == ()
        assert p.returns is None

    @pytest.mark.parametrize("sugar", ["x != y", "x ^ y"])
    def test_xor_sugar(self, sugar):
        p = parse(f"def main(x, y, z : bit):\n  z ^= {sugar}")
        assert p.body == (XorAssign("z", xor_of(Var("x"), Var("y"))),)

    def test_equality_sugar(self):
        p = parse("def main(x, y, z : bit):\n  z ^= x == y")
        assert p.body == (XorAssign("z", Not(xor_of(Var("x"), Var("y")))),)

    def test_new_with_initializer_desugars(self):
        p = parse("def main(x : bit):\n  new y := not x")
        assert p.body == (New(("y",)), XorAssign("y", Not(Var("x"))))

    def test_new_forms(self):
        bare = parse("def main():\n  new a, b").body
        parens = parse("def main():\n  new(a, b)").body
        assert bare == parens == (New(("a", "b")),)

    def test_unicode_operators(self):
        a = parse("def main(x, y, z : bit):\n  z ^= ¬x ∧ (x ∨ y)")
        b = parse("def main(x, y, z : bit):\n  z ^= not x and (x or y)")
        assert a == b

    def test_precedence_not_binds_tighter_than_comparison(self):
        # "not x == 1" must read as "(not x) == 1".
        p = parse("def main(x, z : bit):\n  z ^= not x == 1")
        assert p.body == (XorAssign("z", equals_one(Not(Var("x")))),)

    def test_comments_and_blank_lines(self):
        src = "# leading\ndef main(x : bit):  # header\n\n  qneg()  # body\n# trailing\n"
        assert parse(src).body == (QNeg(),)

    def test_crlf_accepted(self):
        p = parse("def main(x : bit):\r\n  qneg()\r\n")
        assert p.body == (QNeg(),)

    def test_nested_if(self):
        src = "def main(x, y, z : bit):\n  if x:\n    if y:\n      z ^= 1\n    qneg()"
        p = parse(src)
        assert p.body == (
            If(Var("x"), (If(Var("y"), (XorAssign("z", Const(1)),)), QNeg())),
        )

    def test_classical_statements(self):
        p = parse("def main(x, y : bit):\n  x := rand_bit()\n  y := x\n  return x, y")
        assert p.body == (RandBit("x"), Assign("y", Var("x")))
        assert p.returns == ("x", "y")

    def test_bare_return(self):
        p = parse("def main(x : bit):\n  return")
        assert p.returns == ()

    def test_empty_measure(self):
        p = parse("def main(x : bit):\n  measure()")
        assert p.body == (Measure(()),)

    def test_statement_locations(self):
        p = parse("def main(x : bit):\n  qneg()\n  x ^= 1")
        assert p.body[0].loc == (2, 3)
        assert p.body[1].loc == (3, 3)


class TestParseErrors:
    def check(self, src, fragment, line=None):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert fragment in exc.value.message
        if line is not None:
            assert exc.value.line == line

    def test_tab_indentation(self):
        self.check("def main(x : bit):\n\tqneg()", "tab", line=2)

    def test_inconsistent_indentation(self):
        self.check("def main(x : bit):\n  qneg()\n    qneg()", "indentation", line=3)

    def test_dedent_between_levels(self):
        self.check("def main(x : bit):\n    if x:\n      qneg()\n  qneg()", "indentation")

    def test_unknown_character(self):
        self.check("def main(x : bit):\n  x ^= x @ x", "unexpected character")

    def test_non_bit_constant(self):
        self.check("def main(x : bit):\n  x ^= 2", "0 and 1")

    def test_reserved_word_as_variable(self):
        self.check("def main(x : bit):\n  new measure", "reserved")

    def test_return_not_last(self):
        self.check("def main(x : bit):\n  return x\n  qneg()", "final statement")

    def test_return_inside_if(self):
        self.check("def main(x : bit):\n  if x:\n    return x", "not allowed inside")

    def test_measure_inside_if(self):
        self.check("def main(x : bit):\n  if x:\n    measure(x)", "not allowed inside")

    def test_new_inside_if(self):
        self.check("def main(x : bit):\n  if x:\n    new y", "not allowed inside")

    def test_missing_colon_after_if(self):
        self.check("def main(x : bit):\n  if x\n    qneg()", "':'")

    def test_empty_if_block(self):
        self.check("def main(x : bit):\n  if x:", "indented block")

    def test_missing_header(self):
        self.check("qneg()", "def main")

    def test_trailing_tokens(self):
        self.check("def main(x : bit):\n  qneg() x", "unexpected token")

    def test_empty_source(self):
        self.check("", "empty program")

    def test_qrand_takes_one_variable(self):
        self.check("def main(x, y : bit):\n  qrand_bit(x, y)", "exactly one")


def copy_program(rhs):
    """qrand_bit(y), then x ^= rhs; the rhs is expected to equal y."""
    return f"def main(x, y, z : bit):\n  qrand_bit(y)\n  x ^= {rhs}\n"


def nested_ifs(levels):
    lines = ["def main(x, y, z : bit):", "  qrand_bit(y)"]
    lines += ["  " * (i + 1) + "if 1:" for i in range(levels)]
    lines.append("  " * (levels + 1) + "x ^= y")
    return "\n".join(lines) + "\n"


class TestNestingLimit:
    AT_LIMIT = {
        "not": copy_program("not " * MAX_NESTING + "y"),
        "parentheses": copy_program("(" * MAX_NESTING + "y" + ")" * MAX_NESTING),
        "and chain": copy_program(" and ".join(["y"] * (MAX_NESTING + 1))),
        "mixed": copy_program("(" * (MAX_NESTING // 2) + "not " * (MAX_NESTING - 2)
                              + "(y or z and 0)" + ")" * (MAX_NESTING // 2)),
        "if": nested_ifs(MAX_NESTING),
    }

    @pytest.mark.parametrize("kind", list(AT_LIMIT))
    def test_program_at_the_limit_parses_validates_runs_and_round_trips(self, kind):
        program = parse(self.AT_LIMIT[kind])
        assert not has_errors(validate(program))
        # x copies y: worlds xyz = 000 and 110, half each.
        assert output_distribution(run(program)) == pytest.approx({0b000: 0.5, 0b110: 0.5})
        assert parse(unparse(program)) == program

    @pytest.mark.parametrize("source,what,col", [
        (copy_program("not " * (MAX_NESTING + 1) + "y"), "expression", 8),
        (copy_program("(" * (MAX_NESTING + 1) + "y" + ")" * (MAX_NESTING + 1)),
         "parentheses", 8 + MAX_NESTING),
        (copy_program(" and ".join(["y"] * (MAX_NESTING + 2))), "expression",
         8 + 6 * MAX_NESTING + 2),
    ])
    def test_one_level_more_is_a_parse_error_at_the_offending_token(self, source, what, col):
        with pytest.raises(ParseError) as exc:
            parse(source)
        assert exc.value.message == f"{what} nested deeper than {MAX_NESTING} levels"
        assert (exc.value.line, exc.value.col) == (3, col)

    def test_one_block_more_is_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse(nested_ifs(MAX_NESTING + 1))
        assert "'if' blocks nested deeper" in exc.value.message
        assert (exc.value.line, exc.value.col) == (3 + MAX_NESTING, 2 * MAX_NESTING + 3)


class TestAnalyses:
    def test_free_vars_var(self):
        assert free_vars(Var("x")) == {"x"}

    def test_free_vars_nested(self):
        assert free_vars(And(Var("x"), Not(Var("y")))) == {"x", "y"}

    def test_free_vars_const(self):
        assert free_vars(Const(1)) == set()

    def test_assigned_vars_qneg(self):
        assert assigned_vars([QNeg()]) == set()

    def test_assigned_vars_if_is_body(self):
        stmt = If(Var("c"), (XorAssign("y", Var("x")),))
        assert assigned_vars([stmt]) == {"y"}

    def test_assigned_vars_union(self):
        stmts = [QRand("x"), XorAssign("y", Var("x"))]
        assert assigned_vars(stmts) == {"x", "y"}

    @given(st.integers(min_value=0, max_value=400))
    def test_analyses_agree_with_tree_walk(self, seed):
        p = random_program(seed, max_bits=5, max_statements=12)

        def walk_vars(node, out):
            if isinstance(node, Var):
                out.add(node.name)
            elif isinstance(node, Not):
                walk_vars(node.operand, out)
            elif isinstance(node, (And, Or)):
                walk_vars(node.left, out)
                walk_vars(node.right, out)
            return out

        def walk_targets(stmts, out):
            for s in stmts:
                if isinstance(s, (XorAssign, QRand)):
                    out.add(s.target)
                elif isinstance(s, If):
                    walk_targets(s.body, out)
            return out

        for stmt in p.body:
            if isinstance(stmt, XorAssign):
                assert free_vars(stmt.rhs) == walk_vars(stmt.rhs, set())
            elif isinstance(stmt, If):
                assert free_vars(stmt.cond) == walk_vars(stmt.cond, set())
                assert assigned_vars(stmt.body) == walk_targets(stmt.body, set())


FUZZ_TOKENS = [
    "def", "main", "(", ")", ":", ": bit", ",", "x", "y", "z", "if", "not", "and", "or",
    "==", "!=", "^", "^=", ":=", "0", "1", "2", "qrand_bit(x)", "qrand", "qnegate()",
    "qneg", "measure", "new", "return", "rand_bit()", "\n", "  ", "\t", "# c", "¬", "∧",
    "∨", "\r\n", "@", "",
]
fuzz_soup = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40).map(" ".join)


class TestParseFuzz:
    @given(st.one_of(
        st.text(max_size=200),
        fuzz_soup,
        fuzz_soup.map(lambda body: "def main(x, y, z : bit):\n  " + body),
        st.lists(fuzz_soup, max_size=6).map(
            lambda lines: "def main(x, y : bit):\n" + "\n".join("  " + l for l in lines)),
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            parse(text)
        except ParseError:
            pass


class TestRoundTrip:
    def test_corpus_round_trips(self, corpus):
        for src in corpus.values():
            tree = parse(src)
            assert parse(unparse(tree)) == tree

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=120, deadline=None)
    def test_random_programs_round_trip(self, seed):
        p = random_program(seed, max_bits=5, max_statements=15)
        assert parse(unparse(p)) == p

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_random_classical_programs_round_trip(self, seed):
        p = random_classical_program(seed)
        assert parse(unparse(p)) == p

    def test_unparse_is_fixed_point(self, corpus):
        for src in corpus.values():
            text = unparse(parse(src))
            assert unparse(parse(text)) == text

    def test_desugared_trees_use_core_constructors_only(self, corpus):
        core = (Var, Const, Not, And, Or)

        def check_expr(e):
            assert isinstance(e, core)
            if isinstance(e, Not):
                check_expr(e.operand)
            elif isinstance(e, (And, Or)):
                check_expr(e.left)
                check_expr(e.right)

        def check_stmt(s):
            if isinstance(s, XorAssign):
                check_expr(s.rhs)
            elif isinstance(s, If):
                check_expr(s.cond)
                for inner in s.body:
                    check_stmt(inner)

        for src in corpus.values():
            for stmt in parse(src).body:
                check_stmt(stmt)
