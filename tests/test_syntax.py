import hashlib
from dataclasses import FrozenInstanceError, fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qppl import (
    And, Assign, Const, If, Measure, New, Not, Or, ParseError, Program, QNeg,
    QRand, RandBit, Var, Xor, XorAssign, assigned_vars, free_vars, has_errors,
    output_distribution, parse, run, unparse, validate,
)
from qppl.syntax import MAX_NESTING
from qppl.randprog import random_classical_program, random_comp_program, random_program


def equals_one(e):
    """Parsed form of ``e == 1``."""
    return Not(Xor(e, Const(1)))



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
        assert p.body == (XorAssign("z", Xor(Var("x"), Var("y"))),)

    def test_equality_sugar(self):
        p = parse("def main(x, y, z : bit):\n  z ^= x == y")
        assert p.body == (XorAssign("z", Not(Xor(Var("x"), Var("y")))),)

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

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("word, line", [
        ("return", "return x"), ("measure", "measure(x)"), ("new", "new y")],
        ids=["return", "measure", "new"])
    def test_word_inside_if(self, word, line, depth):
        ifs = "".join(f"{'  ' * (d + 1)}if x:\n" for d in range(depth))
        indent = 2 * (depth + 1)
        with pytest.raises(ParseError) as exc:
            parse("def main(x : bit):\n" + ifs + " " * indent + line)
        assert exc.value.message == f"{word!r} is not allowed inside 'if'"
        assert (exc.value.line, exc.value.col) == (2 + depth, indent + 1)

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

    @pytest.mark.parametrize("src,line,col,message", [
        ("def main(x : bit):\n  qrand_bit()", 2, 13, "expected at least one variable name"),
        ("def main(x : bit):\n  x ^= (y y", 2, 11, "expected ')', found 'y'"),
        ("def main(x : bit):\nqneg()", 2, 1, "program body must be indented"),
        ("def main(x : int):", 1, 14, "expected 'bit'"),
        ("def main(x : bit):\n  new y, z := x", 2, 10,
         "an initializer requires a single variable"),
    ])
    def test_diagnostic_position_and_message(self, src, line, col, message):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)


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

    def test_assigned_vars_skips_measure_and_new_in_an_if_body(self):
        # Not constructible from source; the validator reports them on its own.
        stmt = If(Var("x"), (XorAssign("z", Var("x")), Measure(("y",)), New(("w",))))
        assert assigned_vars([stmt]) == {"z"}

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


comparison_texts = st.recursive(
    st.sampled_from(["a", "b", "c", "0", "1"]),
    lambda sub: st.one_of(
        sub.map(lambda e: f"not {e}"), sub.map(lambda e: f"({e})"),
        st.tuples(sub, st.sampled_from(["and", "or", "==", "!=", "^"]), sub).map(" ".join)),
    max_leaves=12)


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

    def test_seeds_give_the_pinned_programs(self):
        # The property suites, the acceptance sweeps and the benchmark's
        # sweep rounds take their programs from these generators, so a seed
        # must keep giving the same program in both dialects.
        digest = hashlib.sha256()
        for seed in range(500):
            for p in (random_program(seed), random_classical_program(seed),
                      random_comp_program(seed, seed % 6 + 1, 25)):
                digest.update(unparse(p).encode() + b"\0")
        assert digest.hexdigest() == (
            "8644c730188489f4a941d9b461ed4666ab4cf253622769127da8d15c2e693831")

    def test_comparison_chain_unparses_in_linear_size(self):
        # The text printed from k chained comparisons names each operand once.
        k = MAX_NESTING // 4
        rhs = " == ".join("yz"[i % 2] for i in range(k + 1))
        p = parse(f"def main(x, y, z : bit):\n  x ^= {rhs}\n")
        text = unparse(p)
        assert text.splitlines()[1] == f"  x ^= {rhs}"
        assert parse(text) == p

    @pytest.mark.parametrize("rhs,text", [
        ("a ^ (b ^ c)", "a ^ (b ^ c)"),
        ("a == (b != c)", "a == (b ^ c)"),
        ("(a == b) == c", "a == b == c"),
        ("(a == b) and c", "(a == b) and c"),
        ("not (a ^ b)", "a == b"),
        ("not a ^ b", "not a ^ b"),
        ("a or b == c and not b", "a or b == c and not b"),
        ("(a and not b) or (not a and b)", "a and not b or not a and b"),
    ])
    def test_comparison_shapes_print_with_their_operator(self, rhs, text):
        p = parse(f"def main(a, b, c, x : bit):\n  x ^= {rhs}\n")
        assert unparse(p).splitlines()[1] == f"  x ^= {text}"
        assert parse(unparse(p)) == p

    @given(comparison_texts)
    @settings(max_examples=200, deadline=None)
    def test_comparisons_round_trip(self, rhs):
        try:
            p = parse(f"def main(a, b, c, x : bit):\n  x ^= {rhs}\n")
        except ParseError:  # nested past MAX_NESTING
            return
        assert parse(unparse(p)) == p
        assert len(unparse(p)) <= 4 * len(rhs) + 40

    def test_unparse_is_fixed_point(self, corpus):
        for src in corpus.values():
            text = unparse(parse(src))
            assert unparse(parse(text)) == text

    def test_desugared_trees_use_core_constructors_only(self, corpus):
        core = (Var, Const, Not, And, Or, Xor)

        def check_expr(e):
            assert isinstance(e, core)
            if isinstance(e, Not):
                check_expr(e.operand)
            elif isinstance(e, (And, Or, Xor)):
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


def all_nodes(node):
    """The nodes of a tree, each time it is met."""
    yield node
    for f in fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if is_dataclass(child):
                yield from all_nodes(child)


def assert_no_shared_node(tree):
    """Fails on a node object met twice in a walk of the tree."""
    ids = [id(node) for node in all_nodes(tree)]
    assert len(set(ids)) == len(ids)


class TestParsedTreesAreTrees:
    def test_corpus_and_golden_inputs(self, corpus):
        from test_parse_golden import golden_inputs

        for src in [*corpus.values(), *golden_inputs()]:
            try:
                tree = parse(src)
            except ParseError:
                continue
            assert_no_shared_node(tree)

    @given(comparison_texts)
    @settings(max_examples=200, deadline=None)
    def test_comparisons(self, rhs):
        try:
            tree = parse(f"def main(a, b, c, x : bit):\n  x ^= {rhs}\n")
        except ParseError:  # nested past MAX_NESTING
            return
        assert_no_shared_node(tree)

    def test_comparison_chain_repr_is_linear(self):
        # 16 chained `==`; each operand is held once, so the repr names
        # each of the 17 terms once.
        rhs = " == ".join(("y", "z", "w")[i % 3] for i in range(17))
        src = f"def main(x, y, z, w : bit):\n  x ^= {rhs}\n"
        assert len(src) == 117
        assert len(repr(parse(src))) < 2000


class TestParsedNodes:
    """The parser builds nodes without their dataclass __init__; they must
    be the nodes __init__ would build."""

    def test_nodes_equal_their_rebuilt_selves(self, corpus):
        from test_parse_golden import golden_inputs

        for src in [*corpus.values(), *golden_inputs()]:
            try:
                tree = parse(src)
            except ParseError:
                continue
            for node in all_nodes(tree):
                rebuilt = type(node)(**{f.name: getattr(node, f.name) for f in fields(node)})
                assert rebuilt == node and hash(rebuilt) == hash(node)
                assert rebuilt.__dict__ == node.__dict__  # loc and source too
                assert repr(rebuilt) == repr(node)

    def test_parsed_nodes_are_frozen(self):
        tree = parse("def main(x, y : bit):\n  if x and not y:\n    y ^= x == 1\n  return y\n")
        for node in all_nodes(tree):
            name = fields(node)[0].name
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(node, name)
        # Program, If, XorAssign, And, Not, Xor, Var and Const
        assert len({type(n) for n in all_nodes(tree)}) == 8
