#!/usr/bin/env python3
"""Quantumizing the Battle of the Sexes with an entangled initial state.

Both players share alpha|OO> + beta|FF> and independently apply the identity
(probability p resp. q) or the bit-flip.  With maximal entanglement the
coordinated corners become payoff-equal equilibria at (5/2, 5/2), strictly
above the classical mixed payoff (6/5, 6/5); without entanglement the scheme
reproduces the classical game exactly.  The scheme is the classical 2x2 game
A'(s,t) = |alpha|^2 u(s,t) + |beta|^2 u(1-s,1-t), so its equilibria are found
exactly, including the interior one at alpha = 3/5 that every grid misses.
"""

import math
from fractions import Fraction

import numpy as np

from gtkit import quantum as qt
from gtkit.gamefile import load_scenario


def header(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def show_equilibria(a2):
    rep = qt.equilibrium_report(qt.ClassicalForm(bos, a2))
    for e in rep["equilibria"]:
        print(f"    (p={e['p']}, q={e['q']}) -> payoffs {tuple(map(str, e['payoffs']))}"
              f"{'  Pareto optimal' if e['pareto_optimal_among_equilibria'] else ''}")
    return rep


bos = load_scenario("bos").game

header("Qubit machinery")
k0, k1 = qt.basis_ket(2, 0), qt.basis_ket(2, 1)
plus = qt.Ket([1 / math.sqrt(2), 1 / math.sqrt(2)])
print("|0> x |0> =", qt.tensor(k0, k0).v.real)
print("Born probabilities of (|0>+|1>)/sqrt(2):", qt.born_probabilities(plus, [k0, k1]))
bell = qt.Ket([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
rho = qt.density_of(bell)
print("entangled density matrix (real part):")
print(np.round(rho.matrix.real, 3))

header("Classical limit: alpha = 1 reproduces the classical game")
classical = qt.QuantumizedGame(bos, 1.0, 0.0)
for p, q in ((1.0, 1.0), (0.6, 0.4), (0.0, 0.0)):
    got = qt.mw_expected_payoffs(classical, p, q)
    want = qt.classical_product_payoffs(bos, p, q)
    print(f"  (p={p}, q={q}): channel {np.round(got, 6)}  classical {tuple(map(str, want))}")
print("exact equilibria (identity prob = prob of O):")
show_equilibria(1)

header("Maximal entanglement: coordinated corners pay (5/2, 5/2)")
entangled = qt.maximally_entangled(bos)
for p, q in ((1.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.5, 0.5)):
    print(f"  payoffs at (p={p}, q={q}):", np.round(qt.mw_expected_payoffs(entangled, p, q), 6))
print("exact equilibria:")
rep = show_equilibria(Fraction(1, 2))
best = rep["best_equilibrium_payoffs"][0]
print(f"best equilibrium payoff {best} vs classical mixed payoff {Fraction(6, 5)}")
print("entanglement acts as a non-classical correlation: both equilibria mean")
print("'play the same thing', and the symmetric payoff beats every classical one")

header("Partial entanglement alpha = 3/5: an equilibrium off every grid")
print("exact equilibria:")
show_equilibria(Fraction(9, 25))
grid = qt.mw_nash_search(qt.QuantumizedGame(bos, 0.6, 0.8), grid_n=100)
print("the 101 x 101 grid search finds only", [(float(p), float(q)) for (p, q), _ in grid])

header("Oracle agreement")
worst = 0.0
for p in np.linspace(0, 1, 11):
    for q in np.linspace(0, 1, 11):
        kraus = qt.mw_final_density(entangled, float(p), float(q)).diagonal()
        closed = qt.mw_diagonal(entangled, float(p), float(q))
        worst = max(worst, float(np.max(np.abs(kraus - closed))))
print("max |Kraus-sum diagonal - closed form| over an 11x11 grid:", worst)
