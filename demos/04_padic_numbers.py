#!/usr/bin/env python3
"""p-adic arithmetic walkthrough: expansions, the ultrametric, precision
that never degrades, quadratic extensions, and p-adic probability.
"""

from fractions import Fraction

from gtkit import padic as pa

F = Fraction


def header(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


header("Expansions and the p-adic norm")
minus_one = pa.padic_from_rational(-1, 1, 3, 8)
print("-1 in Q_3:", pa.format_padic(minus_one), "(all digits are 2)")
third = pa.padic_from_rational(1, 3, 3, 6)
print("1/3 in Q_3:", pa.format_padic(third), "(valuation -1)")
print("|49|_7 =", pa.norm(pa.padic_from_rational(49, 1, 7, 8)))
print("|0|_p  =", pa.norm(pa.PAdicNumber.zero(7)))

header("Closeness is divisibility: d_7(2, 51) vs d_7(1, 2)")
x2 = pa.padic_from_rational(2, 1, 7, 8)
x51 = pa.padic_from_rational(51, 1, 7, 8)
x1 = pa.padic_from_rational(1, 1, 7, 8)
print("d_7(2, 51) =", pa.distance(x2, x51), "   (51 - 2 = 49 = 7^2: very close)")
print("d_7(1, 2)  =", pa.distance(x1, x2), "     (difference is a unit: far apart)")

header("The ultrametric makes every triangle isosceles")
for a, b in ((F(3), F(4)), (F(49), F(7)), (F(5, 3), F(1, 3))):
    na, nb = pa.rational_norm(a, 7), pa.rational_norm(b, 7)
    ns = pa.rational_norm(a + b, 7)
    print(f"|{a}+{b}|_7 = {ns} <= max({na}, {nb})", "with equality" if na != nb else "")

header("p-adic errors do not add")
acc = pa.padic_from_rational(1, 1, 7, 5)
print("start: absolute precision", acc.absolute_precision)
for k in range(1000):
    bump = 2 if acc.unit % 7 == 6 else 1
    acc = pa.add(acc, pa.padic_from_rational(bump, 1, 7, 3))
print("after 1000 additions of O(7^3) values: absolute precision", acc.absolute_precision)
print("   (contrast with floats, whose round-off errors accumulate)")

header("Squares, non-residues, Hensel lifting")
print("is -1 a square in Q_7?", pa.is_square(pa.padic_from_rational(-1, 1, 7, 8)))
print("canonical non-residues: p=7 ->", pa.find_nonresidue(7),
      "  p=2 ->", pa.find_nonresidue(2), "  p=5 ->", pa.find_nonresidue(5))
half = pa.padic_from_rational(1, 2, 7, 10)
root = pa.hensel_sqrt(half)
print("sqrt(1/2) in Q_7:", pa.format_padic(root))
print("check: root^2 - 1/2 =", "0" if pa.sub(pa.mul(root, root), half).is_zero else "nonzero")

header("The quadratic extension Q_7(sqrt(-1))")
z = pa.PAdicExtElement.from_rationals(1, 1, 7, -1, 8)  # 1 + sqrt(-1)
print("z z-bar for z = 1 + sqrt(mu):",
      pa.format_padic((pa.ext_conj(z) * z).x), "(the 7-adic literal of 1 - mu = 2)")
print("|z|_{7,mu} exponent:", pa.ext_norm(z).exponent)
root7 = pa.PAdicExtElement.from_rationals(0, 1, 7, 7, 8)  # sqrt(7), ramified
print("|sqrt(7)|_{7,7} = 7^(", pa.ext_norm(root7).exponent, ") : a genuine half power")

header("p-adic probability: any rational sequence summing to 1")
seq = [1, -5, -1, 6]
print(f"{seq}: legitimate p-adic distribution?", pa.distribution_check(seq))
dist = pa.PAdicDistribution(tuple(seq), 7)
res = pa.padic_expected_payoff([3, 2, 0, 0], dist)
print(f"expected payoff of (3,2,0,0) under it: {res.value} "
      f"with |{res.value}|_7 = {res.norm} (valuation {res.valuation})")
