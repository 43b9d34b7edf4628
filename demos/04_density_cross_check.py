"""Two semantics, one set of observable statistics.

Every two-layer state maps to a density matrix: the probability-weighted
sum of its branches' outer products. The matrix forgets which ensemble it
came from, so observationally indistinguishable states collapse to the
same matrix. Running programs directly on density matrices (unitary
conjugation, isometric embedding for allocation, projector sums for
measurement) therefore gives an independent route to the same numbers,
and the two routes are compared entrywise here.
"""

import numpy as np

import qppl
from qppl.randprog import random_program

# Two different ensembles, one matrix. Row j of a state's amplitude block
# is branch j, and its probability vector weighs the rows.
s = float(1 / np.sqrt(2))
env, even = qppl.Environment(("x",)), np.array([0.5, 0.5])
classical_mix = qppl.TwoLayerState(env, np.array([[1.0, 0.0], [0.0, 1.0]]), even)
sign_mix = qppl.TwoLayerState(env, np.array([[s, s], [s, -s]]), even)
print("definite-bit ensemble        ->\n", qppl.to_density(classical_mix))
print("opposite-sign coin ensemble  ->\n", qppl.to_density(sign_mix))
print("Same matrix: no experiment can tell the two ensembles apart.\n")

# Cross-check the bundled corpus.
for name, src in qppl.bundled_programs().items():
    if name == "classical_coins":
        continue
    gap = qppl.check_equivalence(qppl.parse(src))
    print(f"{name:20} branch semantics vs density semantics: gap {gap:.2e}")

# And a seeded random sweep with allocation and measurement in the mix.
worst = 0.0
for seed in range(100):
    program = random_program(seed, max_bits=5, max_statements=25)
    worst = max(worst, qppl.check_equivalence(program))
print(f"\n100 random programs: worst entrywise gap {worst:.2e}")
