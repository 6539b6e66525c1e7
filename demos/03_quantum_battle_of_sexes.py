#!/usr/bin/env python3
"""Quantumizing the Battle of the Sexes with an entangled initial state.

Both players share alpha|OO> + beta|FF> and independently apply the identity
(probability p resp. q) or the bit-flip.  With maximal entanglement the
coordinated corners become payoff-equal equilibria at (5/2, 5/2), strictly
above the classical mixed payoff (6/5, 6/5); without entanglement the scheme
reproduces the classical game exactly.  The scheme is the classical 2x2 game
A'(s,t) = |alpha|^2 u(s,t) + |beta|^2 u(1-s,1-t), so its payoffs and
equilibria are found exactly, including the interior one at alpha = 3/5 that
every grid misses.
"""

import json
from fractions import Fraction

from gtkit import quantum as qt
from gtkit.gamefile import load_scenario

F = Fraction


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

header("The classical form of maximal entanglement, |alpha|^2 = 1/2")
form = qt.ClassicalForm(bos, F(1, 2))
for s in qt.PROFILES:
    labels = "/".join(bos.labels(s))
    print(f"  A'({labels}) = {tuple(map(str, form.game.payoff(s)))}")
print("outcome distribution over OO, OF, FO, FF at (p, q) = (1, 1):",
      [str(x) for x in form.distribution(F(1), F(1))])

header("Classical limit: alpha = 1 reproduces the classical game")
classical = qt.ClassicalForm(bos, 1)
for p, q in ((F(1), F(1)), (F(3, 5), F(2, 5)), (F(0), F(0))):
    got = classical.payoffs(p, q)
    want = qt.classical_product_payoffs(bos, p, q)
    print(f"  (p={p}, q={q}): quantum {tuple(map(str, got))}  classical {tuple(map(str, want))}")
print("exact equilibria (identity prob = prob of O):")
show_equilibria(1)

header("Maximal entanglement: coordinated corners pay (5/2, 5/2)")
for p, q in ((F(1), F(1)), (F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2))):
    print(f"  payoffs at (p={p}, q={q}):", tuple(map(str, form.payoffs(p, q))))
print("exact equilibrium report:")
rep = qt.equilibrium_report(form)
print(json.dumps(rep, indent=1, default=str))
best = rep["best_equilibrium_payoffs"][0]
print(f"best equilibrium payoff {best} vs classical mixed payoff {Fraction(6, 5)}")
print("entanglement acts as a non-classical correlation: both equilibria mean")
print("'play the same thing', and the symmetric payoff beats every classical one")

header("Partial entanglement alpha = 3/5: an equilibrium off every grid")
print("exact equilibria:")
show_equilibria(Fraction(9, 25))
grid = qt.mw_nash_search(qt.ClassicalForm(bos, Fraction(9, 25)), grid_n=100)
print("the 101 x 101 grid search finds only", [(float(p), float(q)) for (p, q), _ in grid])
