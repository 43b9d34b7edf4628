"""Golden pin of what the parser reports: positions, source text, errors.

Trees compare without ``loc`` and ``source``, so the round-trip and fuzz
properties cannot see a shifted column or a changed statement text; this
file can. ``tests/golden/parse.txt`` holds, for each input of a fixed list
(seeded token soups, the bundled corpus, unparsed random programs and
hand-written line-ending and whitespace cases), the input as a JSON string
on an ``in`` line, followed by either ``error LINE:COL: MESSAGE`` or every
node of the tree in preorder as ``Type LINE:COL`` plus, for a statement,
its source text as JSON and, for the program, its return location.

Regenerate the file (only when a change to what the parser reports is
intended) with

    PYTHONPATH=src python tests/test_parse_golden.py --write

Run as a script without arguments, the module checks the file against
``src/qppl/syntax.py`` loaded from its path. That module imports only the
standard library, so the check also runs on an interpreter without numpy:

    python3.10 tests/test_parse_golden.py
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from dataclasses import fields
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden") / "parse.txt"
SYNTAX_PY = Path(__file__).resolve().parents[1] / "src" / "qppl" / "syntax.py"

# Every line boundary of str.splitlines.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]

HAND_WRITTEN = [
    *(f"def main(x : bit):{b}  qrand_bit(x)  # c{b}{b}  measure(x){b}  return x{b}"
      for b in LINE_BREAKS),
    *(f"def main(x):{b}  qrand_bit(x){b}{b}  x ^= @{b}" for b in LINE_BREAKS),
    "def main(x):\r\r\n  qrand_bit(x)\n\r  x ^= 1\r\n",
    "def main(x):\n  \tqrand_bit(x)\n",
    "def main(x):\n\t\n  \t  # only a comment\n  qrand_bit(x)\n",
    "def main(x, y):\n  y ^=\tnot\tx  \t\n  if x:\n  \tqnegate()\n",
    "# heading\ndef main(x):  # header comment\n  # only a comment\n# at column 1\n"
    "  qrand_bit(x)  # trailing\n  #\n",
    "def main(x):\n  qrand_bit(x)\u2028",
    "def main(x):\n  qrand_bit(x)\xa0\n",
    "def main(x):\n\xa0\n  \x1f \n  qrand_bit(x)\n",
    "def main(x):\n  \xa0\tx ^= 1\n",
    "def main(x):\n  x ^= 1 \u3000 @\n",
    "\ufeffdef main(x):\n",
    "def main(x):\n  x ^= (x and 1\n",
    "def main(x\n",
    "def main(x):\n  y ^= x \u2227\n",
    "def main(x):\n  y ^= \u00ac x \u2228 (x \u2227 1)\n",
    "def main(x):\n  x ^= \u0663\n",
    "def main(x, y):\n  new z := x ^ y\n  if z == 1:\n    if not x:\n      qneg()\n"
    "    y ^= z != x\n  measure()\n  return\n",
    "",
    "  \n\t\n",
    "# c",
    "def main():",
]

FUZZ_SOUPS = 400


def golden_inputs() -> list[str]:
    """The inputs, in file order: soups, corpus, random programs, hand cases."""
    from qppl.randprog import random_program
    from qppl.syntax import bundled_programs, unparse
    from test_syntax import FUZZ_TOKENS

    rng = random.Random(0)
    inputs = []
    for i in range(FUZZ_SOUPS):
        lines = [" ".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randrange(41)))
                 for _ in range(1 if i % 3 < 2 else rng.randrange(7))]
        head = ("", "def main(x, y, z : bit):\n  ", "def main(x, y : bit):\n  ")[i % 3]
        inputs.append(head + "\n  ".join(lines))
    inputs += bundled_programs().values()
    inputs += [unparse(random_program(s)) for s in range(100)]
    return inputs + HAND_WRITTEN


def _ascii(text: str) -> str:
    return text.encode("ascii", "backslashreplace").decode("ascii")


def _nodes(node, out: list[str]):
    kind = type(node).__name__
    loc = "-" if node.loc is None else "{}:{}".format(*node.loc)
    line = f"{kind} {loc}"
    if kind == "Program":
        ret = "-" if node.return_loc is None else "{}:{}".format(*node.return_loc)
        line += f" return {ret}"
    elif hasattr(node, "source"):
        line += " " + json.dumps(node.source)
    out.append(line)
    for f in fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if hasattr(child, "loc"):
                _nodes(child, out)


def render(syntax, inputs: list[str]) -> str:
    """The golden text of each input under a syntax module."""
    out = []
    for text in inputs:
        out.append("in " + json.dumps(text))
        try:
            _nodes(syntax.parse(text), out)
        except syntax.ParseError as exc:
            out.append(f"error {exc.line}:{exc.col}: {_ascii(exc.message)}")
    return "\n".join(out) + "\n"


def read_inputs(text: str) -> list[str]:
    return [json.loads(line[3:]) for line in text.splitlines() if line.startswith("in ")]


def test_parser_reproduces_golden_file():
    from qppl import syntax

    expected = GOLDEN.read_text(encoding="ascii")
    assert read_inputs(expected) == golden_inputs()
    got = render(syntax, read_inputs(expected))
    # Compared an input at a time, so a failure names the input.
    for want, have in zip(expected.split("\nin "), got.split("\nin ")):
        assert have == want
    assert got == expected


def _syntax_from_path():
    spec = importlib.util.spec_from_file_location("qppl_syntax", SYNTAX_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        from qppl import syntax

        GOLDEN.write_text(render(syntax, golden_inputs()), encoding="ascii")
        sys.exit(0)
    expected = GOLDEN.read_text(encoding="ascii")
    got = render(_syntax_from_path(), read_inputs(expected))
    print("golden parse file matches" if got == expected else "golden parse file DIFFERS")
    sys.exit(got != expected)
