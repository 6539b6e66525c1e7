#!/usr/bin/env python3
"""p-adic quantum games: Hilbert spaces over Q_p(sqrt(mu)), isotropic
vectors, SOVM measurements with p-adic probabilities, and the p-adic
quantumization of the Battle of the Sexes in Q_7.
"""

from fractions import Fraction

from gtkit import padic as pa
from gtkit import padic_quantum as pq
from gtkit.gamefile import load_scenario
from gtkit.quantum import ClassicalForm

F = Fraction
P, MU, N = 7, -1, 20


def header(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


header("Two conventions of the non-Archimedean inner product")
bilinear = pq.PAdicHilbertSpace(2, 3, -1, pq.BILINEAR)
v = pq.PAdicVector.from_rationals([1, (0, 1)], 3, -1, N)  # b1 + sqrt(-1) b2
print("bilinear <v, v> for v = b1 + sqrt(-1) b2:",
      "0 (isotropic!)" if pq.is_isotropic(v, bilinear) else "nonzero")
sesq = pq.PAdicHilbertSpace(2, 3, -1, pq.SESQUILINEAR)
print("the same vector under the sesquilinear form:",
      "isotropic" if pq.is_isotropic(v, sesq) else "not isotropic (self-product 2)")
w = pq.isotropic_witness(3, N)
print("sesquilinear isotropic witness via Hensel lifting of a^2 + b^2 = -1:",
      "found" if pq.is_isotropic(w, sesq) else "missing")
print("its ultranorm is still 1:", pq.ultranorm(w).exponent == 0,
      "(the ultranorm does not stem from the inner product)")

header("Statistical operators and SOVM measurement")
rho = pq.StatisticalOperator.from_rationals([[2, 0], [0, -1]], P, MU, N)
proj = pq.SOVM([
    pq.PAdicOperator.from_rationals([[1, 0], [0, 0]], P, MU, N),
    pq.PAdicOperator.from_rationals([[0, 0], [0, 1]], P, MU, N),
])
dist = pq.measurement_distribution(rho, proj)
print("rho = diag(2, -1) is self-adjoint with trace 1; measuring it gives the 7-adic values")
for value in dist:
    print("   ", pa.format_padic(value))
print("   these are the expansions of 2 and -1:",
      dist == tuple(pa.padic_from_rational(v, 1, P, N) for v in (2, -1)))
print("   read as rationals they lie outside [0,1], yet they sum to",
      pa.format_padic(dist[0] + dist[1]), "= 1 - a legitimate p-adic probability distribution")
ident = pq.PAdicOperator.identity(2, P, MU, N)
norm = pq.omega(rho, ident).x
print("omega_rho(I) =", pa.format_padic(norm), "(normalization);",
      "its rational reconstruction is", norm.to_rational())

header("p-adically quantumizing the Battle of the Sexes in Q_7")
bos = load_scenario("bos").game
half = pa.padic_from_rational(1, 2, P, N)
print("alpha = beta = sqrt(1/2) lies in Q_7, so the state is admissible:", pa.is_square(half))
print("   (1/2 = 4 mod 7 is a square; Hensel lifting gives",
      pa.format_padic(pa.hensel_sqrt(half)) + ")")
print("the state enters the outcome only through its weight |alpha|^2 = 1/2")
res = pq.padic_quantumize_2x2(ClassicalForm(bos, F(1, 2)), P, 1, 1)
print("final-state distribution over (OO, OF, FO, FF):",
      tuple(map(str, res.distribution.entries)))
print("exact payoffs:", [str(v.value) for v in res.payoffs],
      "with p-adic norms", [str(v.norm) for v in res.payoffs])

print("\npayoff-gap hierarchy against the classical equilibria:")
for gap in res.hierarchy:
    print(f"    vs {gap.label:<15} payoffs {tuple(map(str, gap.payoffs))}  "
          f"gap {tuple(map(str, gap.gap))}  |gap|_7 {tuple(map(str, gap.gap_norms))}")
print("\nQ_7 carries no canonical total order, so no p-adic equilibrium is declared;")
print("the norms expose the hierarchy of the payoff gaps instead.")

header("Classical limit check")
classical = pq.padic_quantumize_2x2(ClassicalForm(bos, 1), P, F(3, 5), F(2, 5))
print("alpha = 1 at the classical mixed point (3/5, 2/5):",
      [str(v.value) for v in classical.payoffs],
      "- exactly the classical mixed-equilibrium payoffs")
