"""The entangled quantumization of 2x2 games, solved exactly.

The quantumization follows the probabilistic identity/bit-flip scheme applied
to a shared initial state alpha|00> + beta|11> (Marinatto & Weber 2000):
player 1 applies the identity with probability p (the bit-flip otherwise),
player 2 with probability q, and payoffs are read from the diagonal of the
resulting density operator in the computational basis.

The pure choice (s, t) of identity (0) or bit-flip (1) yields (s, t) with
weight |alpha|^2 and (1-s, 1-t) with |beta|^2, so the quantum game is exactly
the classical 2x2 game `ClassicalForm(base, |alpha|^2)`, solved exactly for
both the complex and the p-adic mode.  The library takes that weight as an
exact rational and holds no amplitude, state vector or density matrix.  The
2x2 core stays in ints from the base game to the printed string: the game
is built from the base game's ints and the weight's numerator and
denominator, and its payoffs at (p, q) are the closed form
`games.payoffs_2x2` on integer profile weights.  Complex amplitudes, the
two-qubit Kraus sum that this identity replaces and the Fraction forms of
the core live in the tests as their oracles, and the grid search
`mw_nash_search` remains as the oracle of the exact equilibrium set.

The payoff surface is that game's closed form on the grid, made one grid
row (one value of p) at a time: Python floats added in one fixed order (its
bits do not depend on the Python version), or in the p-adic mode one exact
rational per payoff, an integer numerator over the game's denominator times
grid^2 printed as a reduced integer ratio, with no Fraction built: each
numerator steps along its row, and each gcd's denominator text is made once.
When A' pays both players alike (its ints equal at every profile, as for
every symmetric game at |alpha|^2 = 1/2), each grid point's payoff is
computed and formatted once and its text written in both payoff columns.
`payoff_surface_rows` returns the CSV as an iterator of text blocks, the
header and then one block per grid row, checking its input at the call, so
a writer that writes each block as it is made holds one grid row of text.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from . import errors, games

EQ_TOL = 1e-9

PROFILES = ((0, 0), (0, 1), (1, 0), (1, 1))


class ClassicalForm:
    """The 2x2 game A'(s,t) = a2 u(s,t) + (1 - a2) u(1-s,1-t) for the weight a2 = |alpha|^2.

    Strategy 0 is the identity, so p and q are identity probabilities.  a2 is
    an exact rational; in the p-adic mode it may lie outside [0, 1].  For
    a2 = w/d the game is built on ints, with no Fraction: each payoff of A'
    times D d is w U(s) + (d - w) U(flip s), U the base game's ints over its
    denominator D, reduced by `StrategicGame._checked` to the game that the
    rationals themselves make.
    """

    def __init__(self, base, a2):
        if base.shape != (2, 2):
            raise errors.UnsupportedShape("quantumization needs a 2x2 base game")
        self.base = base
        self.a2 = games.as_fraction(a2)
        w, d = self.a2.numerator, self.a2.denominator
        cells = [base.ints(s) for s in PROFILES]  # the flip of PROFILES[k] is PROFILES[3 - k]
        self.game = games.StrategicGame._checked(base.strategy_names, base._scale * d, tuple(
            tuple(w * x[i] + (d - w) * y[i] for x, y in zip(cells, reversed(cells)))
            for i in (0, 1)))

    def payoffs(self, p, q):
        """Exact expected payoffs of A' under ((p, 1-p), (q, 1-q)): the closed
        form `games.payoffs_2x2`, once p and q are read as a valid profile
        (InvalidProfile for one outside [0, 1])."""
        (p, _), (q, _) = games.validate_mixed(self.game, ((p, 1 - p), (q, 1 - q)))
        return games.payoffs_2x2(self.game, p, q)

    def distribution(self, p, q):
        """Exact outcome probabilities over the profiles 00, 01, 10, 11: a2 times
        the product weight of each plus (1 - a2) times that of its flip, on the
        integer weights of `games._product_weights`; p and q are read by
        `games.as_fraction`, so a float is InvalidArgument."""
        weights, den = games._product_weights(games.as_fraction(p), games.as_fraction(q))
        w, d = self.a2.numerator, self.a2.denominator
        den *= d
        return tuple(Fraction(w * x + (d - w) * y, den)
                     for x, y in zip(weights, reversed(weights)))

    def equilibria(self):
        """The exact equilibrium set of A' (see games.equilibrium_set_2x2)."""
        return games.equilibrium_set_2x2(self.game)


def equilibrium_report(form):
    """The exact equilibrium section of a `gt quantumize` report.

    Points and continua are flagged on their greatest payoff pair, attained
    because whoever moves along a continuum is indifferent: undominated by any
    equilibrium, and above the base game's interior mixed equilibrium.
    """
    classical_mixed = next(
        (pay for sigma, pay in games.mixed_ne_2x2(form.base) if 0 < sigma[0][0] < 1), None)
    boxes = form.equilibria()
    ranges = [[[min(v), max(v)] for v in zip(*(form.payoffs(x, y) for x in p for y in q))]
              for p, q in boxes]
    tops = [(r1[1], r2[1]) for r1, r2 in ranges]
    report = {"equilibria": [], "continua": [], "classical_mixed_payoffs": classical_mixed,
              "best_equilibrium_payoffs": [max(t[0] for t in tops), max(t[1] for t in tops)]}
    for (p, q), r, top in zip(boxes, ranges, tops):
        entry = {"pareto_optimal_among_equilibria":
                 not any(t != top and t[0] >= top[0] and t[1] >= top[1] for t in tops)}
        if classical_mixed is not None:
            entry["exceeds_classical_mixed"] = (
                top[0] > classical_mixed[0] and top[1] > classical_mixed[1])
        if p[0] == p[1] and q[0] == q[1]:
            report["equilibria"].append(dict(entry, p=p[0], q=q[0], payoffs=list(top)))
        else:
            report["continua"].append(dict(entry, p=list(p), q=list(q), payoff_range=r))
    return report


def _surface(form, grid_n, exact=False):
    """The payoffs of the grid (i/grid_n, j/grid_n), one row of p = i/grid_n at a time.

    Each payoff is pq c00 + p(1-q) c01 + (1-p)q c10 + (1-p)(1-q) c11 for the
    payoffs c of A'.  A float row is the list u1, u2, u1, u2, ... over q, each
    payoff's terms added left to right after a leading 0.0 (which turns a
    -0.0 first term into 0.0); a float surface needs every payoff of A' in
    the binary64 range (InvalidArgument).  Exactly, with C = D c on integers
    for the common denominator D, the payoff at (i, j) is the one rational
    (ij C00 + i(N-j) C01 + (N-i)j C10 + (N-i)(N-j) C11) / (D N^2), N = grid_n;
    an exact row is that list as strings, all ints until then: each numerator
    a j + b starts at b and steps by a along the row, and is printed over
    D N^2 in lowest terms, as `str(Fraction)` prints it, its integer quotient
    joined to the text "/{D N^2 // g}" made once per gcd g (none at g = D N^2).
    No tuple, product or Fraction is built per point.

    Returns (alike, rows).  alike says that A' pays both players alike: the
    game's ints of the two players are equal at every profile, so their
    floats and every sum of them are equal too, bit for bit, in either mode.
    Its rows then hold one payoff per grid point, player 1's, made as above;
    otherwise they hold u1, u2 interleaved.

    The form, grid_n and the float conversion are checked here, at the call;
    the returned iterator computes each row as it is consumed.
    """
    if not isinstance(form, ClassicalForm):
        raise errors.InvalidArgument("expected a quantum.ClassicalForm")
    if grid_n < 1:
        raise errors.InvalidArgument("grid_n must be >= 1")
    game = form.game
    ints = [game.ints(s) for s in PROFILES]
    alike = all(x == y for x, y in ints)
    if exact:  # the game's own ints over its denominator D
        if alike:
            return alike, _exact_rows_alike([x for x, _ in ints], game._scale, grid_n)
        return alike, _exact_rows(ints, game._scale, grid_n)
    try:
        floats = [[float(x) for x in game.payoff(s)] for s in PROFILES]
    except OverflowError as exc:
        raise errors.InvalidArgument(
            "payoff beyond the binary64 range; the p-adic mode (--padic) is exact") from exc
    if alike:
        return alike, _float_rows_alike([x for x, _ in floats], grid_n)
    return alike, _float_rows(floats, grid_n)


class _Tails(dict):
    """The text "/{den // g}" of each gcd g of a numerator and den, made once
    per g on its first lookup; "" at g = den, where the value is an integer."""

    def __init__(self, den):
        super().__init__()
        self.den = den

    def __missing__(self, g):
        text = self[g] = f"/{self.den // g}" if g != self.den else ""
        return text


def _exact_rows(payoffs, scale, n):
    (x00, y00), (x01, y01), (x10, y10), (x11, y11) = payoffs
    den = scale * n * n
    tails = _Tails(den)
    columns = range(n + 1)
    for i in columns:
        r = n - i
        # each player's numerator at (i, j) is a j + b: it starts at b and steps by a
        a1, u1 = i * (x00 - x01) + r * (x10 - x11), n * (i * x01 + r * x11)
        a2, u2 = i * (y00 - y01) + r * (y10 - y11), n * (i * y01 + r * y11)
        row = []
        add = row.append
        for _ in columns:
            g = gcd(u1, den)
            add(str(u1 // g) + tails[g])
            g = gcd(u2, den)
            add(str(u2 // g) + tails[g])
            u1 += a1
            u2 += a2
        yield row


def _exact_rows_alike(payoffs, scale, n):
    """`_exact_rows` for one player's ints: one text per grid point."""
    x00, x01, x10, x11 = payoffs
    den = scale * n * n
    tails = _Tails(den)
    columns = range(n + 1)
    for i in columns:
        r = n - i
        a, u = i * (x00 - x01) + r * (x10 - x11), n * (i * x01 + r * x11)
        row = []
        add = row.append
        for _ in columns:
            g = gcd(u, den)
            add(str(u // g) + tails[g])
            u += a
        yield row


def _float_rows(payoffs, n):
    (x00, y00), (x01, y01), (x10, y10), (x11, y11) = payoffs
    qs = [(q, 1 - q) for q in (j / n for j in range(n + 1))]
    for p, r in qs:
        row = []
        add = row.append
        for q, s in qs:
            w00, w01, w10, w11 = p * q, p * s, r * q, r * s
            add(0.0 + w00 * x00 + w01 * x01 + w10 * x10 + w11 * x11)
            add(0.0 + w00 * y00 + w01 * y01 + w10 * y10 + w11 * y11)
        yield row


def _float_rows_alike(payoffs, n):
    """`_float_rows` for one player's floats: one sum per grid point."""
    x00, x01, x10, x11 = payoffs
    qs = [(q, 1 - q) for q in (j / n for j in range(n + 1))]
    for p, r in qs:
        yield [0.0 + p * q * x00 + p * s * x01 + r * q * x10 + r * s * x11 for q, s in qs]


def _twice(texts):
    """Each text of a row twice in a row: both players' payoff columns."""
    row = texts * 2
    row[0::2] = row[1::2] = texts
    return row


def mw_nash_search(form, grid_n=100):
    """Exhaustive equilibrium search on the (p, q) grid: the reference oracle
    for `ClassicalForm.equilibria`.

    A grid point is an equilibrium when no unilateral grid deviation improves
    either player's payoff by 1e-9 or more (ties count as no improvement, so
    weak equilibria are reported).  Returns ((p, q), (payoff1, payoff2)) rows
    in row-major grid order.
    """
    alike, rows = _surface(form, grid_n)
    rows = [(row, row) if alike else (row[0::2], row[1::2]) for row in rows]
    ps = [i / grid_n for i in range(grid_n + 1)]
    col_best = [max(col) for col in zip(*(u1s for u1s, _ in rows))]
    found = []
    for p, (u1s, u2s) in zip(ps, rows):
        row_best = max(u2s)
        found += [((p, q), (u1, u2)) for q, u1, u2, best in zip(ps, u1s, u2s, col_best)
                  if u1 >= best - EQ_TOL and u2 >= row_best - EQ_TOL]
    return found


def payoff_surface_rows(form, grid_n=100, exact=False):
    """An iterator over the CSV text of `_surface`: the header p,q,payoff1,payoff2,
    then one block per grid row, that row's grid_n + 1 lines of p, q and the
    payoffs as exact rationals or 17 significant digits.  Neither the header
    nor a block ends in a newline, so the CSV is each item followed by one.

    The form, grid_n and the payoffs are checked at the call, so a payoff
    beyond binary64 raises before any text is made.  Each grid label is
    formatted once, into a row template that takes a row's 2(grid_n + 1)
    payoffs in one `%`.  When A' pays both players alike, each point's one
    payoff is made once (`_surface`), a float row's grid_n + 1 sums formatted
    in one `%`, and the template takes each text twice.
    """
    alike, rows = _surface(form, grid_n, exact)
    labels = [str(Fraction(i, grid_n)) if exact else "%.17g" % (i / grid_n)
              for i in range(grid_n + 1)]
    if alike:
        if not exact:
            texts = ",".join(["%.17g"] * (grid_n + 1))
            rows = ((texts % tuple(row)).split(",") for row in rows)
        rows = map(_twice, rows)
    number = "%s" if exact or alike else "%.17g"
    template = "\n".join(f"\0,{q},{number},{number}" for q in labels)
    blocks = (template.replace("\0", p) % tuple(row) for p, row in zip(labels, rows))
    return itertools.chain(("p,q,payoff1,payoff2",), blocks)


def classical_product_payoffs(base, p, q):
    """Exact classical expected payoffs under the product profile ((p,1-p),(q,1-q))."""
    return ClassicalForm(base, 1).payoffs(games.as_fraction(p), games.as_fraction(q))
