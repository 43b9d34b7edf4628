"""Seeded program families for the benchmark, each with its reference answer.

Every case is source text plus what its output must be. The answers for
``dense`` and ``branching`` are worked out here in closed form, ``cli``
reads them from the hand-written ``cli_expected.txt``, and ``sweep`` keeps
the generator's own tree and, for classical programs, a distribution from
the small interpreter below. None of them runs the code being timed.

A round is the fixed list of cases a workload cycles through; the seed
picks the contents of the round, never its shape, so every seed does the
same amount of work of the same kinds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

QUANTUM, CLASSICAL = "quantum", "classical"


@dataclass(frozen=True)
class Case:
    family: str                       # e.g. "bv20", "loop16", "rand", "cli"
    source: str = ""
    mode: str = QUANTUM
    expected: dict | None = None      # world index -> probability
    oracle: bool = False              # also run the density semantics
    tree: object = None               # generator's Program, for the parse check
    argv: tuple = ()                  # cli: arguments after `qppl`
    support: tuple = ()               # cli --shots: allowed output lines


def _program(inputs, body, returns=None) -> str:
    lines = [f"def main({', '.join(inputs)} : bit):"]
    lines += ["  " + s for s in body]
    if returns is not None:
        lines.append("  return " + ", ".join(returns))
    return "\n".join(lines) + "\n"


def _index(bits: list[int]) -> int:
    """World index of a bit list, first bit most significant."""
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


# ---------------------------------------------------------------------------
# dense: one branch, 16-20 live bits
# ---------------------------------------------------------------------------

def bernstein_vazirani(rng: random.Random, n: int, discard: int) -> Case:
    """qrand all, a phase oracle conjugated by an XOR chain, qrand all.

    After the chain x_i holds the suffix parity x_i ^ ... ^ x_{n-1}, so an
    oracle term reading the set T of chained bits is the phase (-1)^(t.x)
    with t the XOR over i in T of the suffix indicator of i. Undoing the
    chain and applying qrand to every bit leaves the single world t;
    returning all but ``discard`` bits keeps t on those bits.
    """
    names = [f"x{i}" for i in range(n)]
    body = [f"new {names[-2]}, {names[-1]}"]
    body += [f"qrand_bit({v})" for v in names]
    chain = [f"{names[i]} ^= {names[i + 1]}" for i in range(n - 2, -1, -1)]
    body += chain
    t = [0] * n
    forms = ["{0}", "{0} == 1", "{0} ^ {1}", "{0} == 0", "{0} != {1}", "{0} ^ {1} ^ {2}"]
    signs = set(rng.sample(range(n), 2))
    for term in range(n):
        form = forms[term % len(forms)]
        chosen = rng.sample(range(n), form.count("{"))
        for i in chosen:
            for j in range(i, n):
                t[j] ^= 1
        body += ["if " + form.format(*(names[i] for i in chosen)) + ":", "  qnegate()"]
        if term in signs:
            body.append("qnegate()")  # a global sign, invisible in the output
    body += reversed(chain)
    body += [f"qrand_bit({v})" for v in names]
    kept = sorted(rng.sample(range(n), n - discard))
    returns = [names[i] for i in kept] if discard else None
    expected = {_index([t[i] for i in kept]): 1.0}
    return Case(f"bv{n}", _program(names[:-2], body, returns), expected=expected)


def classical_mixer(rng: random.Random, n: int) -> Case:
    """Uniform coins pushed through bijections, then a few bits erased.

    rand_bit on every bit gives the uniform distribution; the prefix-parity
    chain and controlled negations permute worlds, so it stays uniform.
    Destructive writes only touch bits that are not returned, and a
    returned bit set to 0 reads 0. The returned marginal is uniform on the
    other returned bits.
    """
    names = [f"x{i}" for i in range(n)]
    body = [f"{v} := rand_bit()" for v in names]
    body += [f"{names[i]} := {names[i]} ^ {names[i - 1]}" for i in range(1, n)]
    for _ in range(n // 2):
        a, b, c = rng.sample(names, 3)
        body += [f"if {a} and {b}:", f"  {c} := not {c}"]
    kept = sorted(rng.sample(range(n), 4))
    zeroed = rng.choice(kept)
    for i in rng.sample([i for i in range(n) if i not in kept], 3):
        a, b = rng.sample(names, 2)
        body.append(f"{names[i]} := {a} or {b}")
    body.append(f"{names[zeroed]} := 0")
    free = [i for i in kept if i != zeroed]
    expected = {}
    for w in range(1 << len(free)):
        bits = {i: (w >> k) & 1 for k, i in enumerate(reversed(free))}
        expected[_index([bits.get(i, 0) for i in kept])] = 1.0 / (1 << len(free))
    return Case(f"cl{n}", _program(names, body, [names[i] for i in kept]),
                mode=CLASSICAL, expected=expected)


# ---------------------------------------------------------------------------
# branching: many small vectors
# ---------------------------------------------------------------------------

def measure_loop(k: int, copy: bool) -> Case:
    """k rounds of qrand_bit(x); measure(x): 2^k branches, 2 distinct states.

    Each measurement leaves x at 0 or 1 with probability 1/2, and a phase
    never changes what is measured, so x ends uniform. With a copy into y
    the output is 00 or 11, half each. The seed plays no part: these
    programs are fixed by k, so their cost is too.
    """
    body = []
    for i in range(k):
        body.append("qrand_bit(x)")
        if i % 4 == 3:
            body += [f"if {('x', 'x == 1', 'not x')[i // 4 % 3]}:", "  qnegate()"]
        body.append("measure(x)")
    if copy:
        body.append("y ^= x")
        return Case(f"loop{k}", _program(["x", "y"], body), expected={0: 0.5, 3: 0.5})
    return Case(f"loop{k}", _program(["x"], body), expected={0: 0.5, 1: 0.5})


def qrand_measure_qrand(rng: random.Random, n: int, discard: int) -> Case:
    """qrand all, measure all in pairs, qrand all, maybe a discarding return.

    Measurement leaves each branch in one basis world; qrand on every bit
    then spreads it evenly, so each returned world has probability
    2^-(returned bits). Discarding d bits splits every branch 2^d ways.
    """
    names = [f"x{i}" for i in range(n)]
    body = [f"qrand_bit({v})" for v in names]
    order = rng.sample(names, n)
    body += [f"measure({', '.join(order[i:i + 2])})" for i in range(0, n, 2)]
    body += [f"qrand_bit({v})" for v in names]
    kept = sorted(rng.sample(range(n), n - discard))
    returns = [names[i] for i in kept] if discard else None
    m = len(kept)
    return Case(f"qmq{n}", _program(names, body, returns),
                expected={w: 1.0 / (1 << m) for w in range(1 << m)}, oracle=n <= 8)


# ---------------------------------------------------------------------------
# sweep: seeded random programs
# ---------------------------------------------------------------------------

def classical_reference(program) -> dict[int, float]:
    """Output distribution of a classical program, one world at a time."""
    from qppl.syntax import And, Assign, Const, If, Not, Or, RandBit, Var

    names = list(program.inputs)
    pos = {v: i for i, v in enumerate(names)}

    def ev(e, w):
        if isinstance(e, Var):
            return w[pos[e.name]]
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Not):
            return 1 - ev(e.operand, w)
        if isinstance(e, And):
            return ev(e.left, w) & ev(e.right, w)
        if isinstance(e, Or):
            return ev(e.left, w) | ev(e.right, w)
        raise TypeError(f"not an expression: {e!r}")

    def step(dist, s):
        out: dict = {}
        for w, p in dist.items():
            if isinstance(s, If):
                sub = {w: p}
                if ev(s.cond, w):
                    for inner in s.body:
                        sub = step(sub, inner)
                parts = sub.items()
            elif isinstance(s, Assign):
                v = list(w)
                v[pos[s.target]] = ev(s.rhs, w)
                parts = [(tuple(v), p)]
            elif isinstance(s, RandBit):
                lo, hi = list(w), list(w)
                lo[pos[s.target]], hi[pos[s.target]] = 0, 1
                parts = [(tuple(lo), p / 2), (tuple(hi), p / 2)]
            else:
                raise TypeError(f"not a classical statement: {s!r}")
            for v, q in parts:
                out[v] = out.get(v, 0.0) + q
        return out

    dist = {tuple(0 for _ in names): 1.0}
    for s in program.body:
        dist = step(dist, s)
    kept = names if program.returns is None else [v for v in names if v in program.returns]
    result: dict[int, float] = {}
    for w, p in dist.items():
        key = _index([w[pos[v]] for v in kept])
        result[key] = result.get(key, 0.0) + p
    return result


def random_quantum(seed: int) -> Case:
    from qppl.randprog import random_program
    from qppl.syntax import unparse
    tree = random_program(seed)
    return Case("rand", unparse(tree), tree=tree, oracle=True)


def random_classical(seed: int) -> Case:
    from qppl.randprog import random_classical_program
    from qppl.syntax import unparse
    tree = random_classical_program(seed)
    return Case("randcl", unparse(tree), mode=CLASSICAL, tree=tree,
                expected=classical_reference(tree))


# ---------------------------------------------------------------------------
# cli: bundled programs through `qppl run`
# ---------------------------------------------------------------------------

EXPECTED_FILE = Path(__file__).with_name("cli_expected.txt")


def read_expected(path: Path = EXPECTED_FILE) -> dict[str, list[str]]:
    """Program name -> expected `--dist` lines, from the hand-written file."""
    out: dict[str, list[str]] = {}
    name = None
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.rstrip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("== "):
            name = line[3:].strip()
            out[name] = []
        else:
            out[name].append(line)
    return out


def cli_cases(rng: random.Random) -> list[Case]:
    cases = []
    for name, lines in read_expected().items():
        mode = ["--mode", CLASSICAL] if name == "classical_coins" else []
        text = "\n".join(lines) + "\n"
        support = tuple(line.split(":")[0] for line in lines)
        cases.append(Case("cli", text, argv=("run", name, *mode, "--dist")))
        if not mode:
            cases.append(Case("cli", "oracle deviation: ~\n" + text,
                              argv=("run", name, "--oracle", "--dist")))
        shots = rng.randint(1, 64)
        cases.append(Case("cli", argv=("run", name, *mode, "--shots", str(shots),
                                       "--seed", str(rng.randrange(1 << 20))),
                          support=support))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def make_round(workload: str, seed: int) -> list[Case]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense":
        sizes = [16] * 16 + [18] * 2 + [20]
        cases = [bernstein_vazirani(rng, n, i % 4) for i, n in enumerate(sizes)]
        cases += [classical_mixer(rng, n) for n in (16, 16, 18)]
    elif workload == "branching":
        # Costs rise from loop10 to loop16; the loop11 block holds the
        # median and the loop14 block the 90th percentile, so neither sits
        # on a step between families.
        loops = [10] * 12 + [11] * 16 + [12, 13] + [14] * 4 + [16]
        cases = [measure_loop(k, copy=k % 2 == 0) for k in loops]
        cases += [qrand_measure_qrand(rng, n, d) for n, d in
                  ((8, 0), (8, 4), (9, 2), (10, 2), (11, 0))]
    elif workload == "sweep":
        base = rng.randrange(1 << 30)
        cases = [random_quantum(base + i) for i in range(750)]
        cases += [random_classical(base + i) for i in range(250)]
    elif workload == "cli":
        return cli_cases(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


WORKLOADS = ("dense", "branching", "sweep", "cli")
