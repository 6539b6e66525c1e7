"""Exact-rational normal-form games: equilibria, dominance, welfare, bargaining.

A strategic game keeps its payoffs as one table of Python ints over one
common denominator D > 0, the lcm of the payoff denominators: player i's
payoff at profile s is ``table[s][i] / D``.  Scaling every payoff by the same
D > 0 keeps every argmax, dominance, Pareto, best-reply and equilibrium
relation, so equilibria, dominance and welfare are decided by comparing and
summing integers; a value leaves this module as an exact
``fractions.Fraction``, divided by D only there.  No floats enter any
decision, so every result here is bit-reproducible.  Games are immutable
after construction and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import ge, mul

from . import errors
# solve_exact stays a name here because perfbench/tracing.py rebinds games.solve_exact.
from ._linsolve import solve_exact, support_equalizers  # noqa: F401

# Decimal digits allowed in the numerator and denominator of a rational read from
# any input, and in a game's common payoff denominator D: a sum or product of two
# such still prints under Python's default 4300-digit int-to-string limit.
RATIONAL_DIGITS = 1000
_RATIONAL_LIMIT = 10**RATIONAL_DIGITS


def as_fraction(value):
    """Convert ints, Fractions and strings like "2/5" to Fraction; floats are rejected."""
    if isinstance(value, bool):
        raise errors.InvalidArgument(f"not a rational payoff: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise errors.InvalidArgument(f"not a rational: {value!r}") from exc
    raise errors.InvalidArgument(
        f"exact rational required, got {type(value).__name__}: {value!r}"
    )


def _rational(value):
    """An int or a Fraction as it is; anything else through `as_fraction`."""
    return value if type(value) is int or type(value) is Fraction else as_fraction(value)


def _common_denominator(values):
    """The lcm D of the rationals' denominators; SizeLimit once it reaches
    10**RATIONAL_DIGITS, before any larger multiple is built."""
    scale = 1
    for den in {v.denominator for v in values}:
        scale = math.lcm(scale, den)
        if scale >= _RATIONAL_LIMIT:
            raise errors.SizeLimit(
                f"the payoff denominators have a common multiple over {RATIONAL_DIGITS} digits")
    return scale


class StrategicGame:
    """Finite n-player normal-form game with exact-rational payoffs.

    ``payoffs`` may be a nested sequence (one level per player, leaf = one
    rational per player) or a mapping from index-tuple profiles to payoff
    sequences; a mapping must name exactly the profiles of the shape, each once.
    A payoff is an int, a Fraction or a string like "2/5".  The game keeps
    them as one integer table over their common denominator D (see the
    module docstring); a D of over RATIONAL_DIGITS digits is SizeLimit.
    """

    def __init__(self, strategy_names, payoffs):
        names = tuple(tuple(str(s) for s in per_player) for per_player in strategy_names)
        if len(names) < 2:
            raise errors.InvalidArgument("a strategic game needs at least 2 players")
        if any(len(per_player) == 0 for per_player in names):
            raise errors.InvalidArgument("every strategy set must be non-empty")
        self._names = names
        self._shape = tuple(len(per_player) for per_player in names)
        n = len(names)

        rows = {}
        if hasattr(payoffs, "keys"):
            for profile, vector in payoffs.items():
                try:
                    rows[self.validate_profile(profile)] = tuple(map(_rational, vector))
                except errors.InvalidProfile as exc:
                    raise errors.InvalidArgument(f"payoff map key: {exc}") from exc
        else:
            for profile in self.profiles():
                cell = payoffs
                for idx in profile:
                    cell = cell[idx]
                rows[profile] = tuple(map(_rational, cell))
        for profile in self.profiles():
            if profile not in rows:
                raise errors.InvalidArgument(f"payoff map is not total: missing {profile}")
            if len(rows[profile]) != n:
                raise errors.InvalidArgument(
                    f"profile {profile}: expected {n} payoffs, got {len(rows[profile])}"
                )
        scale = _common_denominator(v for u in rows.values() for v in u)
        for s, u in rows.items():  # in place: the rational rows are not kept
            rows[s] = tuple(v.numerator * (scale // v.denominator) for v in u)
        self._scale = scale
        self._table = rows

    @classmethod
    def _checked(cls, names, scale, table):
        """A game from the name tuples of games already checked and an integer
        table over the denominator scale > 0: every profile of the shape once,
        each with one int per player.  Table and scale are divided by their
        gcd, so that the scale is the lcm of the payoff denominators, as
        `__init__` makes it and as `==` needs."""
        g = math.gcd(scale, *(v for u in table.values() for v in u))
        if g > 1:
            scale //= g
            table = {s: tuple(v // g for v in u) for s, u in table.items()}
        game = cls.__new__(cls)
        game._names = names
        game._shape = tuple(map(len, names))
        game._scale = scale
        game._table = table
        return game

    @property
    def n_players(self):
        return len(self._names)

    @property
    def shape(self):
        return self._shape

    @property
    def strategy_names(self):
        return self._names

    def profiles(self):
        """Iterate all pure profiles in lexicographic order."""
        return itertools.product(*(range(k) for k in self._shape))

    def validate_profile(self, profile):
        profile = tuple(profile)
        if len(profile) != self.n_players or any(
            not isinstance(s, int) or isinstance(s, bool) or not (0 <= s < k)
            for s, k in zip(profile, self._shape)
        ):
            raise errors.InvalidProfile(f"profile {profile} invalid for shape {self._shape}")
        return profile

    def payoff(self, profile):
        """Payoff vector u(s), one Fraction per player."""
        scale = self._scale
        return tuple(Fraction(v, scale) for v in self._table[self.validate_profile(profile)])

    def labels(self, profile):
        return tuple(self._names[i][s] for i, s in enumerate(profile))

    def __eq__(self, other):
        return (
            isinstance(other, StrategicGame)
            and self._names == other._names
            and self._scale == other._scale
            and self._table == other._table
        )

    def __hash__(self):
        return hash((self._names, self._scale, tuple(sorted(self._table.items()))))

    def __repr__(self):
        return f"StrategicGame(shape={self._shape})"


@dataclass(frozen=True)
class CongestionGame:
    """Players pick resource subsets; per-resource cost depends on the user count.

    ``costs[j][k-1]`` is the cost of resource j when k players use it and must
    be defined for every k in 1..player_count.  ``strategies[i]`` lists player
    i's allowable strategies, each a tuple of resource indices.
    """

    resource_names: tuple
    costs: tuple
    strategies: tuple

    def __post_init__(self):
        n = len(self.strategies)
        object.__setattr__(
            self, "costs", tuple(tuple(as_fraction(c) for c in per_res) for per_res in self.costs)
        )
        object.__setattr__(
            self,
            "strategies",
            tuple(tuple(tuple(sorted(set(s))) for s in per_player) for per_player in self.strategies),
        )
        if n < 2:
            raise errors.InvalidArgument("congestion game needs at least 2 players")
        for per_res in self.costs:
            if len(per_res) < n:
                raise errors.InvalidArgument("cost function must be total on counts 1..player_count")
        for per_player in self.strategies:
            if not per_player:
                raise errors.InvalidArgument("every player needs at least one strategy")
            for strat in per_player:
                if not strat:
                    raise errors.InvalidArgument("allowable strategies must be non-empty")
                if any(not (0 <= j < len(self.costs)) for j in strat):
                    raise errors.InvalidArgument("strategy references an unknown resource")

    @property
    def n_players(self):
        return len(self.strategies)

    def usage(self, profile):
        """Per-resource user counts under the profile of strategy indices."""
        counts = [0] * len(self.costs)
        for i, s in enumerate(profile):
            for j in self.strategies[i][s]:
                counts[j] += 1
        return tuple(counts)


@dataclass(frozen=True)
class BargainingProblem:
    """Finite utility-point set (its convex hull is the feasible set) plus a disagreement point."""

    points: tuple
    disagreement: tuple

    def __post_init__(self):
        pts = tuple(sorted({(as_fraction(x), as_fraction(y)) for x, y in self.points}))
        if not pts:
            raise errors.InvalidArgument("bargaining problem needs at least one utility point")
        object.__setattr__(self, "points", pts)
        d = self.disagreement
        object.__setattr__(self, "disagreement", (as_fraction(d[0]), as_fraction(d[1])))


# ---------------------------------------------------------------------------
# mixed profiles


def validate_mixed(game, mixed):
    """Normalize a mixed profile to tuples of Fractions; entries >= 0 and exact sum 1."""
    if len(mixed) != game.n_players:
        raise errors.InvalidProfile("one probability vector per player required")
    out = []
    for i, probs in enumerate(mixed):
        vec = tuple(as_fraction(q) for q in probs)
        if len(vec) != game.shape[i]:
            raise errors.InvalidProfile(
                f"player {i}: {len(vec)} probabilities for {game.shape[i]} strategies"
            )
        if any(q < 0 for q in vec) or sum(vec) != 1:
            raise errors.InvalidProfile(f"player {i}: not a probability vector: {vec}")
        out.append(vec)
    return tuple(out)


def pure_to_mixed(game, profile):
    profile = game.validate_profile(profile)
    return tuple(
        tuple(Fraction(1) if s == choice else Fraction(0) for s in range(k))
        for choice, k in zip(profile, game.shape)
    )


def _deviations(profile, i, k):
    """The k profiles that differ from `profile` only in player i's strategy, in strategy order."""
    head, tail = profile[:i], profile[i + 1:]
    return [head + (s,) + tail for s in range(k)]


def _weights(mixed):
    """Each player's mixture as integer weights over its common denominator,
    which, the mixture summing to 1, is the sum of the weights."""
    out = []
    for vec in mixed:
        den = math.lcm(*(q.denominator for q in vec))
        out.append([q.numerator * (den // q.denominator) for q in vec])
    return out


def _strategy_values(game, player, weights):
    """The expected payoff of each pure strategy of `player` against the others'
    integer weights, as integers in one scale: D times the product of the
    others' weight sums."""
    values = [0] * game.shape[player]
    for profile, u in game._table.items():
        prob = math.prod(weights[j][s] for j, s in enumerate(profile) if j != player)
        if prob:
            values[profile[player]] += prob * u[player]
    return values


def expected_payoff(game, mixed):
    """Expected payoff vector under independent mixing, exact."""
    weights = _weights(validate_mixed(game, mixed))
    scale = game._scale * math.prod(map(sum, weights))
    return tuple(Fraction(sum(map(mul, own, _strategy_values(game, i, weights))), scale)
                 for i, own in enumerate(weights))


# ---------------------------------------------------------------------------
# equilibria


def pure_nash(game):
    """All pure Nash equilibria (weak inequality) by full enumeration."""
    table = game._table
    return {s for s, u in table.items() if all(
        table[alt][i] <= u[i] for i, k in enumerate(game.shape) for alt in _deviations(s, i, k))}


@dataclass(frozen=True)
class EliminationStep:
    round: int
    player: int
    strategy: int
    label: str
    dominated_by: int


@dataclass(frozen=True)
class EliminationResult:
    game: StrategicGame
    surviving: tuple
    trace: tuple


def iterated_elimination(game):
    """Iterated elimination of strictly dominated pure strategies, with trace.

    Dominance is tested by pure strategies against all surviving opponent
    profiles; passes repeat until a fixpoint.  The trace records eliminations
    in order with original strategy indices.
    """
    table = game._table
    surviving = [list(range(k)) for k in game.shape]
    trace = []
    rnd = 0
    changed = True
    while changed:
        changed = False
        rnd += 1
        for i, k in enumerate(game.shape):
            if len(surviving[i]) == 1:
                continue
            # one column of player i's payoffs per surviving opponent profile
            contexts = itertools.product(*(s if j != i else (0,) for j, s in enumerate(surviving)))
            columns = [[table[alt][i] for alt in _deviations(c, i, k)] for c in contexts]
            doomed = []
            for a in surviving[i]:
                for b in surviving[i]:
                    if b == a:
                        continue
                    if all(col[b] > col[a] for col in columns):
                        doomed.append((a, b))
                        break
            for a, b in doomed:
                surviving[i].remove(a)
                trace.append(EliminationStep(rnd, i, a, game.strategy_names[i][a], b))
                changed = True

    names = tuple(tuple(game.strategy_names[i][s] for s in surviving[i]) for i in range(game.n_players))
    # the surviving lists stay sorted, so old and new profiles enumerate in step
    reduced = StrategicGame._checked(names, game._scale, dict(zip(
        itertools.product(*(range(len(s)) for s in surviving)),
        map(table.__getitem__, itertools.product(*surviving)))))
    return EliminationResult(reduced, tuple(tuple(s) for s in surviving), tuple(trace))


def _best_reply_graph(d0, d1):
    """One player's best-reply graph in a 2x2 game as (own, opponent) interval pairs.

    Both are probabilities of strategy 0, whose payoff advantage over strategy
    1 is d0 + (d1 - d0) y at the opponent's y: own x is 1 where it is >= 0, 0
    where it is <= 0, and anything where it vanishes.  d0 and d1 may carry any
    common factor > 0, such as the game's D.
    """
    zero, one = Fraction(0), Fraction(1)
    graph = []
    for x, a, b in (((one, one), d0, d1), ((zero, zero), -d0, -d1)):
        if a >= 0 or b >= 0:
            root = Fraction(a, a - b) if (a < 0) != (b < 0) else None
            graph.append((x, (zero if a >= 0 else root, one if b >= 0 else root)))
    if len(graph) == 2:  # the advantage changes sign, so it vanishes where both hold
        (_, up), (_, down) = graph
        graph.append(((zero, one), (max(up[0], down[0]), min(up[1], down[1]))))
    return graph


def equilibrium_set_2x2(game):
    """The exact equilibrium set of a 2x2 game: the meet of the best-reply graphs.

    Sorted boxes ((p_lo, p_hi), (q_lo, q_hi)) over each player's probability
    of strategy 0, none inside another: isolated points, plus segments or the
    whole square when the game is degenerate.
    """
    if game.shape != (2, 2):
        raise errors.UnsupportedShape(f"needs a 2x2 game, got shape {game.shape}")
    u = [game._table[s] for s in game.profiles()]
    rows = _best_reply_graph(u[1][0] - u[3][0], u[0][0] - u[2][0])
    cols = _best_reply_graph(u[2][1] - u[3][1], u[0][1] - u[1][1])
    found = set()
    for (p1, q1), (q2, p2) in itertools.product(rows, cols):
        box = tuple((max(x[0], y[0]), min(x[1], y[1])) for x, y in ((p1, p2), (q1, q2)))
        if all(lo <= hi for lo, hi in box):
            found.add(box)
    return sorted(b for b in found if not any(
        b != c and all(y[0] <= x[0] and x[1] <= y[1] for x, y in zip(b, c)) for c in found))


def mixed_ne_2x2(game):
    """All equilibria of a 2x2 game: pure NE plus the interior indifference point.

    Read off `equilibrium_set_2x2`: the corners of the square it holds, and
    an isolated point strictly inside (0,1) x (0,1); everything is exact.
    """
    results = set()
    for (p_lo, p_hi), (q_lo, q_hi) in equilibrium_set_2x2(game):
        point = p_lo == p_hi and q_lo == q_hi
        for p, q in itertools.product((p_lo, p_hi), (q_lo, q_hi)):
            if {p, q} <= {0, 1} or (point and 0 < p < 1 and 0 < q < 1):
                results.add(((p, 1 - p), (q, 1 - q)))
    return [(m, expected_payoff(game, m)) for m in sorted(results)]


def support_enumeration(game):
    """Equilibria of a 2-player game by exact support enumeration.

    Enumerates equal-size support pairs (a nondegenerate game has no
    equilibrium with unequal supports), solves each player's equalizer
    system for the opponent's mixture, and keeps solutions with positive
    support probabilities and no profitable outside deviation.  The systems
    of all pairs are solved on the game's integer table, by Cramer's rule
    from one memoised table of minors per payoff matrix
    (`_linsolve.support_equalizers`); only a singular bordered system goes
    to Bareiss elimination, which tells "none" from "many".  Returns the
    full equilibrium list for nondegenerate games, sorted canonically; the
    first support pair whose system has many solutions raises DegenerateGame.
    """
    if game.n_players != 2:
        raise errors.UnsupportedShape("support enumeration handles 2-player games only")
    m, n = game.shape
    if m > 5 or n > 5:
        raise errors.SizeLimit("support enumeration is limited to 5 strategies per player")
    table = game._table
    A = [[table[i, j][0] for j in range(n)] for i in range(m)]
    Bt = [[table[i, j][1] for i in range(m)] for j in range(n)]

    solve_a, solve_bt = support_equalizers(A), support_equalizers(Bt)

    def solve(solver, own, opp, pair):
        status, num, den = solver(own, opp)
        if status == "many":
            raise errors.DegenerateGame(
                f"solution continuum on support pair {pair}: the game is degenerate"
            )
        return num, den

    def beaten(rows, own, opp, num):
        # each row's payoff times den > 0; the first support row earns v
        pays = [sum(row[j] * q for j, q in zip(opp, num)) for row in rows]
        return any(pays[i] > pays[own[0]] for i in range(len(rows)) if i not in own)

    def mixture(size, sup, num, den):
        sigma = [Fraction(0)] * size
        for i, q in zip(sup, num):
            sigma[i] = Fraction(q, den)
        return tuple(sigma)

    found = set()
    for k in range(1, min(m, n) + 1):
        for sup1 in itertools.combinations(range(m), k):
            for sup2 in itertools.combinations(range(n), k):
                num2, den2 = solve(solve_a, sup1, sup2, (sup1, sup2))
                if num2 is None:
                    continue
                num1, den1 = solve(solve_bt, sup2, sup1, (sup1, sup2))
                if num1 is None or min(num1) <= 0 or min(num2) <= 0:
                    continue
                if beaten(A, sup1, sup2, num2) or beaten(Bt, sup2, sup1, num1):
                    continue
                found.add((mixture(m, sup1, num1, den1), mixture(n, sup2, num2, den2)))
    return sorted(found)


def is_epsilon_nash(game, mixed, eps):
    """True iff no player's best unilateral pure deviation gains more than eps."""
    eps = as_fraction(eps)
    if eps < 0:
        raise errors.InvalidArgument("epsilon must be non-negative")
    weights = _weights(validate_mixed(game, mixed))
    scale = game._scale * math.prod(map(sum, weights))
    for i, own in enumerate(weights):
        values = _strategy_values(game, i, weights)
        # the best pure deviation's gain, times the scale of the values and sum(own)
        gain = sum(own) * max(values) - sum(map(mul, own, values))
        if Fraction(gain, scale) > eps:
            return False
    return True


# ---------------------------------------------------------------------------
# welfare


def pareto_optimal_profiles(game):
    """Profiles not weakly dominated (with one strict improvement) by any other profile.

    A maxima scan: a dominating payoff vector is lexicographically larger, and
    each dominated vector is dominated by a maximal one, so after a descending
    sort every profile is tested only against the maximal vectors kept so far.
    """
    ranked = sorted(((u, s) for s, u in game._table.items()), reverse=True)
    maxima = []
    out = set()
    for u, s in ranked:
        if maxima and maxima[-1] == u:  # ties with the maximal vector just kept
            out.add(s)
        elif not any(all(map(ge, v, u)) for v in maxima):
            out.add(s)
            maxima.append(u)
    return out


def social_optimum(game):
    """Welfare-maximizing profiles and the maximal welfare, ties included."""
    welfare = {s: sum(u) for s, u in game._table.items()}
    best = max(welfare.values())
    return {s for s, w in welfare.items() if w == best}, Fraction(best, game._scale)


def price_of_anarchy(game):
    """Max welfare over all profiles divided by min welfare over pure NE.

    Restricted to pure equilibria (mixed equilibria are not enumerable in
    general); reported as such by the CLI metadata.
    """
    return anarchy_ratio(game, pure_nash(game), social_optimum(game)[1])


def anarchy_ratio(game, equilibria, best):
    """The price of anarchy from the pure equilibria and the maximal welfare in hand."""
    if not equilibria:
        raise errors.NoEquilibrium("no pure Nash equilibrium")
    worst_ne = Fraction(min(sum(game._table[s]) for s in equilibria), game._scale)
    if worst_ne <= 0:
        raise errors.UndefinedRatio(f"equilibrium welfare {worst_ne} is not positive")
    return Fraction(best) / worst_ne


@dataclass(frozen=True)
class CorrelatedCheck:
    holds: bool
    worst_margin: Fraction
    violations: tuple


def is_correlated_equilibrium(game, dist):
    """Check the correlated-equilibrium inequalities for a joint distribution.

    `dist` maps pure profiles to probabilities (missing profiles are 0).
    Returns the truth value together with the most violated (minimal) margin
    over every player and recommended/deviation strategy pair, exact.
    """
    probs = {}
    for profile, q in dist.items():
        probs[game.validate_profile(profile)] = as_fraction(q)
    if any(q < 0 for q in probs.values()) or sum(probs.values(), Fraction(0)) != 1:
        raise errors.InvalidArgument("not a joint probability distribution")

    # margins are summed in integers: probabilities over their common denominator
    # P, payoffs over D, so each margin is P * D times its value
    den = math.lcm(*(q.denominator for q in probs.values()))
    table = game._table
    margins = {(i, rec, dev): 0  # keyed (player, recommended, deviation), in order
               for i, k in enumerate(game.shape) for rec in range(k) for dev in range(k)}
    for profile, q in probs.items():
        w = q.numerator * (den // q.denominator)
        u = table[profile]
        for i, k in enumerate(game.shape):
            for dev, alt in enumerate(_deviations(profile, i, k)):
                margins[i, profile[i], dev] += w * (u[i] - table[alt][i])
    scale = den * game._scale
    worst = min(margins.values())
    violations = tuple((*key, Fraction(m, scale)) for key, m in margins.items() if m < 0)
    return CorrelatedCheck(worst >= 0, Fraction(worst, scale), violations)


# ---------------------------------------------------------------------------
# bargaining


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points):
    """Monotone-chain hull over exact points, counter-clockwise, no duplicates."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def nash_bargaining(problem):
    """Maximize the Nash product over the hull of the utility points.

    Exact evaluation at hull vertices plus closed-form maximization of the
    quadratic product on each edge.  Raises InfeasibleBargain when no hull
    point weakly dominates the disagreement point.
    """
    lam = problem.disagreement
    hull = _convex_hull(problem.points)
    edges = []
    if len(hull) == 1:
        edges = []
    elif len(hull) == 2:
        edges = [(hull[0], hull[1])]
    else:
        edges = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]

    def product(pt):
        return (pt[0] - lam[0]) * (pt[1] - lam[1])

    def feasible(pt):
        return pt[0] >= lam[0] and pt[1] >= lam[1]

    candidates = [p for p in hull if feasible(p)]
    for a, b in edges:
        d = (b[0] - a[0], b[1] - a[1])
        # t-interval within [0,1] where both coordinates stay >= disagreement
        t_lo, t_hi = Fraction(0), Fraction(1)
        empty = False
        for coord in (0, 1):
            if d[coord] == 0:
                if a[coord] < lam[coord]:
                    empty = True
                    break
            else:
                bound = (lam[coord] - a[coord]) / d[coord]
                if d[coord] > 0:
                    t_lo = max(t_lo, bound)
                else:
                    t_hi = min(t_hi, bound)
        if empty or t_lo > t_hi:
            continue

        def at(t):
            return (a[0] + t * d[0], a[1] + t * d[1])

        candidates.extend([at(t_lo), at(t_hi)])
        # stationary point of the quadratic (x(t)-l1)(y(t)-l2)
        quad = 2 * d[0] * d[1]
        lin = d[0] * (a[1] - lam[1]) + d[1] * (a[0] - lam[0])
        if quad != 0:
            t_star = -lin / quad
            if t_lo <= t_star <= t_hi:
                candidates.append(at(t_star))

    if not candidates:
        raise errors.InfeasibleBargain(
            f"no feasible utility point dominates the disagreement point {lam}"
        )

    return max(candidates, key=lambda pt: (product(pt), pt))


# ---------------------------------------------------------------------------
# potential / congestion games


def rosenthal_potential(cg, profile):
    """Rosenthal potential: per resource, sum the cost ladder up to its usage count."""
    profile = tuple(profile)
    if len(profile) != cg.n_players or any(
        not (0 <= s < len(cg.strategies[i])) for i, s in enumerate(profile)
    ):
        raise errors.InvalidProfile(f"profile {profile} invalid for this congestion game")
    counts = cg.usage(profile)
    total = Fraction(0)
    for j, x in enumerate(counts):
        for k in range(1, x + 1):
            total += cg.costs[j][k - 1]
    return total


def congestion_to_strategic(cg):
    """View a congestion game as a StrategicGame with payoffs = negated costs."""
    names = tuple(
        tuple("+".join(cg.resource_names[j] for j in strat) for strat in per_player)
        for per_player in cg.strategies
    )
    n = cg.n_players
    scale = _common_denominator(c for per_res in cg.costs for c in per_res[:n])
    costs = [[c.numerator * (scale // c.denominator) for c in per_res[:n]]
             for per_res in cg.costs]
    table = {}
    for profile in itertools.product(*(range(len(s)) for s in cg.strategies)):
        counts = cg.usage(profile)
        table[profile] = tuple(-sum(costs[j][counts[j] - 1] for j in cg.strategies[i][s])
                               for i, s in enumerate(profile))
    return StrategicGame._checked(names, scale, table)


def check_potential(game, potential):
    """True iff the map is an exact potential: unilateral differences match payoff differences."""
    phi = {}
    for profile, value in potential.items():
        phi[game.validate_profile(profile)] = as_fraction(value)
    for profile in game.profiles():
        if profile not in phi:
            raise errors.InvalidArgument(f"potential is not total: missing {profile}")
    # phi over its common denominator P and payoffs over D: compare the
    # differences times P * D in integers
    den = math.lcm(*(v.denominator for v in phi.values()))
    phi = {s: v.numerator * (den // v.denominator) * game._scale for s, v in phi.items()}
    table = game._table
    return all(phi[s] - phi[alt] == (u[i] - table[alt][i]) * den for s, u in table.items()
               for i, k in enumerate(game.shape) for alt in _deviations(s, i, k))


@dataclass(frozen=True)
class BRDResult:
    profile: tuple
    trace: tuple
    steps: int


@dataclass(frozen=True)
class CycleReport:
    cycle: tuple
    trace: tuple
    steps: int


def best_response_step(game, profile):
    """The next profile of a best-response path from a valid profile, or None
    at a fixed profile: the lowest-index player with a strict improvement
    moves to their lowest-index best response."""
    table = game._table
    for i, k in enumerate(game.shape):
        values = [table[alt][i] for alt in _deviations(profile, i, k)]
        top = max(values)
        if top > values[profile[i]]:
            return profile[:i] + (values.index(top),) + profile[i + 1:]
    return None


def best_response_dynamics(game, start, max_steps=None):
    """The path of `best_response_step` from start, to a fixed profile (returned
    with the step trace) or to a repeated profile (returned as a CycleReport)."""
    current = game.validate_profile(start)
    trace = [current]
    seen = {current: 0}
    steps = 0
    while True:
        if max_steps is not None and steps >= max_steps:
            raise errors.StepLimit(f"no fixpoint or cycle within {max_steps} steps")
        nxt = best_response_step(game, current)
        if nxt is None:
            return BRDResult(current, tuple(trace), steps)
        current = nxt
        steps += 1
        if current in seen:
            cycle = tuple(trace[seen[current]:])
            return CycleReport(cycle, tuple(trace + [current]), steps)
        seen[current] = len(trace)
        trace.append(current)
