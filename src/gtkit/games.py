"""Exact-rational normal-form games: equilibria, dominance, welfare, bargaining.

A strategic game keeps its payoffs as Python ints over one common denominator
D > 0, the lcm of the payoff denominators: one tuple per player in profile
order, read by index (`_strides`) and context slice (`_context`) here alone.
Scaling every payoff by the same D > 0 keeps every argmax, dominance, Pareto,
best-reply and equilibrium relation, so equilibria, dominance and welfare are
decided by comparing and summing integers; a value leaves this module as an
exact ``fractions.Fraction``, divided by D only there.  No floats enter any
decision, so every result here is bit-reproducible.  Games are immutable
after construction and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from operator import and_, eq, ge, index, mul
from typing import NamedTuple

from . import errors
# solve_exact stays a name here because perfbench/tracing.py rebinds games.solve_exact.
from ._linsolve import equalizer, minor_layout, solve_exact, support_equalizers  # noqa: F401

# Decimal digits allowed in the numerator and denominator of a rational read from
# any input, and in a game's common payoff denominator D: a sum or product of two
# such still prints under Python's default 4300-digit int-to-string limit.
RATIONAL_DIGITS = 1000
_RATIONAL_LIMIT = 10**RATIONAL_DIGITS


def bounded(q, what):
    """q itself, or SizeLimit when its numerator or denominator has over RATIONAL_DIGITS digits."""
    if max(abs(q.numerator), q.denominator) >= _RATIONAL_LIMIT:
        raise errors.SizeLimit(f"{what} exceeds {RATIONAL_DIGITS} digits")
    return q


def parse_fraction(text, what):
    """Fraction(text) for a literal such as "3", "-2/5", "0.25" or "1e-3",
    within the bound of `bounded` (SizeLimit naming `what` past it).  An
    exponent past RATIONAL_DIGITS is refused before 10**exponent is built.
    A malformed literal raises ValueError or ZeroDivisionError."""
    _, _, exponent = text.lower().partition("e")
    if exponent and abs(int(exponent)) > RATIONAL_DIGITS:
        raise errors.SizeLimit(f"{what} exceeds {RATIONAL_DIGITS} digits")
    return bounded(Fraction(text), what)


def as_fraction(value):
    """The Fraction of an integer (`_index`: an int or a numpy integer, never a
    bool), a Fraction, or a string like "2/5" read by `parse_fraction`; every
    other value, a float among them, is InvalidArgument.  The one reader of a
    rational that a library caller hands in."""
    if isinstance(value, Fraction):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_fraction(value, f"rational {value!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise errors.InvalidArgument(f"not a rational: {value!r}") from exc
    if (integer := _index(value)) is not None:
        return Fraction(integer)
    if isinstance(value, bool):
        raise errors.InvalidArgument(f"not a rational: {value!r}")
    raise errors.InvalidArgument(
        f"exact rational required, got {type(value).__name__}: {value!r}"
    )


def _rational(value):
    """An int or a Fraction as it is; anything else through `as_fraction`."""
    return value if type(value) is int or type(value) is Fraction else as_fraction(value)


def _common_denominator(values, what, bounded=True):
    """The lcm D of the rationals' denominators; SizeLimit, naming the `what`
    denominators, once it reaches 10**RATIONAL_DIGITS, before any larger
    multiple is built.  `bounded=False` for a point gtkit computed itself
    (an equilibrium or rest point), which may need more digits than its
    bounded inputs.  The one place gtkit takes an lcm."""
    scale = 1
    for den in {v.denominator for v in values}:
        scale = math.lcm(scale, den)
        if bounded and scale >= _RATIONAL_LIMIT:
            raise _too_long(what)
    return scale


def _too_long(what):
    return errors.SizeLimit(
        f"the {what} denominators have a common multiple over {RATIONAL_DIGITS} digits")


def _integer_payoffs(values, n):
    """(D, per-player tuples of ints times D) of a game's rationals, n per
    profile in lexicographic profile order: the one conversion of payoffs.
    When D is 1 and every value is an int, the values are their own ints, so
    no scaled copy is made (a Fraction of denominator 1 is still copied, so
    the tuples hold ints alone)."""
    scale = _common_denominator(values, "payoff")
    if scale == 1 and all(type(v) is int for v in values):
        ints = values
    else:
        ints = [v.numerator * (scale // v.denominator) for v in values]
    return scale, tuple(tuple(ints[i::n]) for i in range(n))


def _vector(values, what, at=None, length=None):
    """The entries of a vector argument: a list or tuple as it is, another
    iterable (a numpy array) as a tuple, of the given length when there is
    one.  A str or bytes, which would be read as its characters, and a
    non-iterable are refused, as is a wrong length: InvalidArgument naming
    `what`, followed by the index `at` when there is one, e.g. "payoffs[0, 1]"."""
    if type(values) is not list and type(values) is not tuple:
        if isinstance(values, (str, bytes)):
            raise _shape_error(what, at, length, type(values).__name__)
        try:
            values = tuple(values)
        except TypeError:
            raise _shape_error(what, at, length, type(values).__name__) from None
    if length is not None and len(values) != length:
        raise _shape_error(what, at, length, len(values))
    return values


def _shape_error(what, at, length, got):
    where = what if at is None else f"{what}{list(at)}"
    expected = "a sequence" if length is None else f"{length} entries"
    return errors.InvalidArgument(f"{where}: expected {expected}, got {got}")


def _index(value):
    """The int of an integer index: any value with `__index__` (an int, a numpy
    integer) but a bool; None for anything else."""
    if type(value) is int:  # the common case, first
        return value
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        return None
    return index(value)


def _profile(profile, shape):
    """The tuple as a tuple of ints when it holds one strategy index per entry
    of shape, each an `_index` in range(k) for its k; None otherwise."""
    if len(profile) != len(shape):
        return None
    ints = tuple(map(_index, profile))
    if all(s is not None and 0 <= s < k for s, k in zip(ints, shape)):
        return ints
    return None


@cache
def _strides(shape):
    """Each player's stride in lexicographic profile order: s is at sum(s[i] * stride[i])."""
    return tuple(math.prod(shape[i + 1:]) for i in range(len(shape)))


def _context(shape, i, profile):
    """The slice of the profiles that differ from `profile` in player i's strategy alone."""
    strides = _strides(shape)
    start = sum(map(mul, profile, strides)) - profile[i] * strides[i]
    return slice(start, start + shape[i] * strides[i], strides[i])


class StrategicGame:
    """Finite n-player normal-form game with exact-rational payoffs.

    ``payoffs`` may be a nested sequence (one level per player, leaf = one
    rational per player) or a mapping from index-tuple profiles to payoff
    sequences; a mapping must name exactly the profiles of the shape, each once.
    Every list must have the length of its level (InvalidArgument naming its
    position, as "payoffs[0, 1]"), and neither a name list nor a payoff
    vector may be a string.
    A payoff is read by `as_fraction`: an int (numpy ones too), a Fraction
    or a string like "2/5".  The game keeps
    them as ints over their common denominator D, one tuple per player in
    profile order (see the module docstring); a D of over RATIONAL_DIGITS
    digits is SizeLimit.
    """

    def __init__(self, strategy_names, payoffs):
        names = tuple(tuple(str(s) for s in _vector(per_player, "strategy_names", (i,)))
                      for i, per_player in enumerate(_vector(strategy_names, "strategy_names")))
        if len(names) < 2:
            raise errors.InvalidArgument("a strategic game needs at least 2 players")
        if any(len(per_player) == 0 for per_player in names):
            raise errors.InvalidArgument("every strategy set must be non-empty")
        self._names = names
        self._shape = tuple(len(per_player) for per_player in names)
        n = len(names)

        if hasattr(payoffs, "keys"):
            rows = {}
            for profile, vector in payoffs.items():
                try:
                    profile = self.validate_profile(profile)
                except errors.InvalidProfile as exc:
                    raise errors.InvalidArgument(f"payoff map key: {exc}") from exc
                rows[profile] = tuple(map(_rational, _vector(vector, "payoffs", profile, n)))
            values = []
            for profile in self.profiles():
                if profile not in rows:
                    raise errors.InvalidArgument(f"payoff map is not total: missing {profile}")
                values += rows[profile]
        else:
            # one level per player, each prefix's children in order: the
            # profiles come out in lexicographic order
            cells = [((), payoffs)]
            for k in self._shape:
                cells = [(prefix + (i,), child) for prefix, node in cells
                         for i, child in enumerate(_vector(node, "payoffs", prefix, k))]
            values = [_rational(v) for profile, cell in cells
                      for v in _vector(cell, "payoffs", profile, n)]
        self._scale, self._payoffs = _integer_payoffs(values, n)

    @classmethod
    def _checked(cls, names, scale, payoffs):
        """A game from checked name tuples (at least 2, none empty) and one
        tuple of ints per player over the denominator scale > 0, one int per
        profile in lexicographic order.  Payoffs and scale are divided by their
        gcd, so that the scale is the lcm of the payoff denominators, as
        `__init__` makes it and as `==` needs; as there, a scale so reduced of
        over RATIONAL_DIGITS digits is SizeLimit."""
        g = math.gcd(scale, *(v for u in payoffs for v in u)) if scale > 1 else 1
        if g > 1:
            scale //= g
            payoffs = tuple(tuple(v // g for v in u) for u in payoffs)
        if scale >= _RATIONAL_LIMIT:
            raise _too_long("payoff")
        game = cls.__new__(cls)
        game._names = names
        game._shape = tuple(map(len, names))
        game._scale = scale
        game._payoffs = payoffs
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
        """The profile as a tuple of ints, when `_profile` reads it for the
        game's shape; InvalidProfile otherwise."""
        profile = tuple(profile)
        checked = _profile(profile, self._shape)
        if checked is None:
            raise errors.InvalidProfile(f"profile {profile} invalid for shape {self._shape}")
        return checked

    def payoff(self, profile):
        """Payoff vector u(s), one Fraction per player."""
        scale = self._scale
        return tuple(Fraction(v, scale) for v in self.ints(self.validate_profile(profile)))

    def ints(self, profile):
        """u(s) times D at a valid profile, unchecked: how other modules read payoffs."""
        at = sum(map(mul, profile, _strides(self._shape)))
        return tuple(u[at] for u in self._payoffs)

    def labels(self, profile):
        return tuple(self._names[i][s] for i, s in enumerate(profile))

    def __eq__(self, other):
        return (
            isinstance(other, StrategicGame)
            and self._names == other._names
            and self._scale == other._scale
            and self._payoffs == other._payoffs
        )

    def __hash__(self):
        return hash((self._names, self._scale, self._payoffs))

    def __repr__(self):
        return f"StrategicGame(shape={self._shape})"


class CongestionGame(errors.Frozen):
    """Players pick resource subsets; per-resource cost depends on the user count.

    ``costs[j][k-1]`` is the cost of resource j when k players use it, for
    every k in 1..player_count (entries past it are dropped), kept as ints over
    ``scale`` D as `StrategicGame` keeps its payoffs.  ``resource_names`` has
    one name per cost ladder.  ``strategies[i]`` lists player i's allowable
    strategies, each a set of resource indices, kept as a sorted tuple of
    ints.  Every list is read by `_vector`, so none may be a string, and a
    resource index is an integer (`_index`): InvalidArgument naming its
    position, as "strategies[0, 1]".
    """

    __slots__ = ("resource_names", "costs", "strategies", "scale")

    def __init__(self, resource_names, costs, strategies):
        ladders = tuple(tuple(map(as_fraction, _vector(per_res, "costs", (j,))))
                        for j, per_res in enumerate(_vector(costs, "costs")))
        names = tuple(map(str, _vector(resource_names, "resource_names", None, len(ladders))))
        strategies = tuple(tuple(_resource_set(s, (i, k))
                                 for k, s in enumerate(_vector(per_player, "strategies", (i,))))
                           for i, per_player in enumerate(_vector(strategies, "strategies")))
        n = len(strategies)
        if n < 2:
            raise errors.InvalidArgument("congestion game needs at least 2 players")
        if any(len(per_res) < n for per_res in ladders):
            raise errors.InvalidArgument("cost function must be total on counts 1..player_count")
        for per_player in strategies:
            if not per_player:
                raise errors.InvalidArgument("every player needs at least one strategy")
            for strat in per_player:
                if not strat:
                    raise errors.InvalidArgument("allowable strategies must be non-empty")
                if any(not (0 <= j < len(ladders)) for j in strat):
                    raise errors.InvalidArgument("strategy references an unknown resource")
        scale = _common_denominator((c for per_res in ladders for c in per_res[:n]), "cost")
        costs = tuple(tuple(c.numerator * (scale // c.denominator) for c in per_res[:n])
                      for per_res in ladders)
        self._set_fields(names, costs, strategies, scale)

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


def _resource_set(strategy, at):
    """A strategy's resource indices as a sorted tuple of distinct ints;
    InvalidArgument naming "strategies[at]" for a non-vector or a non-integer."""
    ints = set(map(_index, _vector(strategy, "strategies", at)))
    if None in ints:
        raise errors.InvalidArgument(
            f"strategies{list(at)}: resource indices must be integers, got {strategy!r}")
    return tuple(sorted(ints))


class BargainingProblem(errors.Frozen):
    """Finite utility-point set (its convex hull is the feasible set) plus a disagreement point."""

    __slots__ = ("points", "disagreement")

    def __init__(self, points, disagreement):
        pts = tuple(sorted({tuple(map(as_fraction, _vector(pt, "points", (k,), 2)))
                            for k, pt in enumerate(_vector(points, "points"))}))
        if not pts:
            raise errors.InvalidArgument("bargaining problem needs at least one utility point")
        lam = _vector(disagreement, "disagreement", None, 2)
        self._set_fields(pts, tuple(map(as_fraction, lam)))


# ---------------------------------------------------------------------------
# mixed profiles


def validate_mixed(game, mixed):
    """Normalize a mixed profile to tuples of Fractions; entries >= 0 and exact sum 1."""
    mixed = _vector(mixed, "mixed")
    if len(mixed) != game.n_players:
        raise errors.InvalidProfile("one probability vector per player required")
    out = []
    for i, probs in enumerate(mixed):
        vec = tuple(map(as_fraction, _vector(probs, "mixed", (i,))))
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


def _weights(mixed):
    """Each player's mixture as integer weights over its common denominator,
    which, the mixture summing to 1, is the sum of the weights.  Unbounded:
    the mixtures include equilibria and rest points gtkit computed."""
    out = []
    for vec in mixed:
        den = _common_denominator(vec, "probability", bounded=False)
        out.append([q.numerator * (den // q.denominator) for q in vec])
    return out


def _strategy_values(game, player, weights):
    """The expected payoff of each pure strategy of `player` against the others'
    integer weights, as integers in one scale: D times the product of the
    others' weight sums."""
    values = [0] * game.shape[player]
    for profile, u in zip(game.profiles(), game._payoffs[player]):
        prob = math.prod(weights[j][s] for j, s in enumerate(profile) if j != player)
        if prob:
            values[profile[player]] += prob * u
    return values


def expected_payoff(game, mixed):
    """Expected payoff vector under independent mixing, exact."""
    weights = _weights(validate_mixed(game, mixed))
    scale = game._scale * math.prod(map(sum, weights))
    return tuple(Fraction(sum(map(mul, own, _strategy_values(game, i, weights))), scale)
                 for i, own in enumerate(weights))


def _product_weights(p, q):
    """The integer weights of the profiles 00, 01, 10, 11 under ((p, 1-p), (q, 1-q))
    for exact p = pn/pd and q = qn/qd, and their denominator pd qd."""
    pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
    return (pn * qn, pn * (qd - qn), (pd - pn) * qn, (pd - pn) * (qd - qn)), pd * qd


def payoffs_2x2(game, p, q):
    """`expected_payoff` of a 2x2 game under ((p, 1-p), (q, 1-q)) in closed form,
    for exact p and q in [0, 1], unchecked: each payoff is the profile weights
    of `_product_weights` times the game's ints, over D pd qd."""
    weights, den = _product_weights(p, q)
    den *= game._scale
    return tuple(Fraction(sum(map(mul, weights, u)), den) for u in game._payoffs)


# ---------------------------------------------------------------------------
# equilibria


def pure_nash(game):
    """All pure Nash equilibria (weak inequality), by per-context maxima.

    For each player, one maximum of its payoff per opponent context (the
    profile without its own strategy); a profile is an equilibrium when each
    player's payoff there equals its context's maximum, which is the weak
    inequality against every unilateral deviation.  O(N n) comparisons for N
    profiles of n players.  Player i's strategies are ``stride`` apart, so
    each block of ``k * stride`` profiles holds ``stride`` contexts side by
    side.
    """
    stable = [True] * len(game._payoffs[0])
    for pay, k, stride in zip(game._payoffs, game.shape, _strides(game.shape)):
        if k == 1:
            continue
        block = k * stride
        best = []  # per profile, the maximum of its context
        for start in range(0, len(pay), block):
            runs = [pay[at:at + stride] for at in range(start, start + block, stride)]
            best += list(map(max, *runs)) * k
        stable = list(map(and_, stable, map(eq, pay, best)))
    return {s for s, ok in zip(game.profiles(), stable) if ok}


class EliminationStep(NamedTuple):
    round: int
    player: int
    strategy: int
    label: str
    dominated_by: int


class EliminationResult(NamedTuple):
    game: StrategicGame
    surviving: tuple
    trace: tuple


def iterated_elimination(game):
    """Iterated elimination of strictly dominated pure strategies, with trace.

    Dominance is tested by pure strategies against all surviving opponent
    profiles; passes repeat until a fixpoint.  The trace records eliminations
    in order with original strategy indices.
    """
    surviving = [list(range(k)) for k in game.shape]
    trace = []
    rnd = 0
    changed = True
    while changed:
        changed = False
        rnd += 1
        for i, pay in enumerate(game._payoffs):
            if len(surviving[i]) == 1:
                continue
            # one column of player i's payoffs per surviving opponent profile
            contexts = itertools.product(*(s if j != i else (0,) for j, s in enumerate(surviving)))
            columns = [pay[_context(game.shape, i, c)] for c in contexts]
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
    # the surviving lists stay sorted, so the kept profiles come in the reduced game's order
    kept = [sum(map(mul, s, _strides(game.shape))) for s in itertools.product(*surviving)]
    payoffs = tuple(tuple(map(pay.__getitem__, kept)) for pay in game._payoffs)
    reduced = StrategicGame._checked(names, game._scale, payoffs)
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
    a, b = game._payoffs
    rows = _best_reply_graph(a[1] - a[3], a[0] - a[2])
    cols = _best_reply_graph(b[2] - b[3], b[0] - b[1])
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
    Each payoff pair is `payoffs_2x2`, the closed form on the game's ints,
    as every equilibrium is a valid mixed profile by construction.
    """
    results = set()
    for (p_lo, p_hi), (q_lo, q_hi) in equilibrium_set_2x2(game):
        point = p_lo == p_hi and q_lo == q_hi
        for p, q in itertools.product((p_lo, p_hi), (q_lo, q_hi)):
            if {p, q} <= {0, 1} or (point and 0 < p < 1 and 0 < q < 1):
                results.add(((p, 1 - p), (q, 1 - q)))
    return [(m, payoffs_2x2(game, m[0][0], m[1][0])) for m in sorted(results)]


# The minor table's bitmask bookkeeping depends on the shape alone: made once per shape.
_minor_layout = cache(minor_layout)


def support_enumeration(game):
    """Equilibria of a 2-player game by exact support enumeration.

    Enumerates equal-size support pairs (a nondegenerate game has no
    equilibrium with unequal supports), solves each player's equalizer
    system for the opponent's mixture, and keeps solutions with positive
    support probabilities and no profitable outside deviation.  The systems
    of all pairs are read off the game's payoff tuples by Cramer's rule, as
    signed numerators over their sum, from one table of minors per payoff
    matrix filled bottom-up (`_linsolve.support_equalizers`); only a
    singular bordered system goes to Bareiss elimination, which tells "none"
    from "many".  Pairs are taken by size, then player 1's support, then
    player 2's.  Player 1's system of a pair is read whenever player 2's has
    a solution, whatever its signs, so "many" in either raises at the first
    such pair; signs and outside deviations are tested only after both, and
    only the equilibria found are put in lowest terms.  Returns the full
    equilibrium list for nondegenerate games, sorted canonically; the first
    support pair whose system has many solutions raises DegenerateGame.
    """
    if game.n_players != 2:
        raise errors.UnsupportedShape("support enumeration handles 2-player games only")
    m, n = game.shape
    if m > 5 or n > 5:
        raise errors.SizeLimit("support enumeration is limited to 5 strategies per player")
    a, b = game._payoffs
    A = [a[i * n:(i + 1) * n] for i in range(m)]
    Bt = [b[j::n] for j in range(n)]

    nums_a = support_equalizers(A, _minor_layout(m, n))
    nums_bt = support_equalizers(Bt, _minor_layout(n, m))

    def singular(rows, own, opp, pair):
        # a block whose Cramer denominator is 0: "many" raises, "none" is (None, None)
        status, num, den = equalizer([[rows[i][j] for j in opp] for i in own])
        if status == "many":
            raise errors.DegenerateGame(
                f"solution continuum on support pair {pair}: the game is degenerate"
            )
        return num, den

    def beaten(rows, own, opp, num):
        # each row's payoff times den > 0; every support row earns the same
        pays = [sum(map(mul, map(row.__getitem__, opp), num)) for row in rows]
        return max(pays) > pays[own[0]]

    def mixture(size, sup, num, den):
        sigma = [Fraction(0)] * size
        for i, q in zip(sup, num):
            sigma[i] = Fraction(q, den)
        return tuple(sigma)

    found = set()
    for k in range(1, min(m, n) + 1):
        for sup1 in itertools.combinations(range(m), k):
            by_sup2 = nums_a[sup1]
            for sup2 in itertools.combinations(range(n), k):
                num2 = by_sup2[sup2]
                den2 = sum(num2)
                if not den2:
                    num2, den2 = singular(A, sup1, sup2, (sup1, sup2))
                    if num2 is None:
                        continue
                num1 = nums_bt[sup2][sup1]
                den1 = sum(num1)
                if not den1:
                    num1, den1 = singular(Bt, sup2, sup1, (sup1, sup2))
                    if num1 is None:
                        continue
                # every weight num / den is > 0 exactly when the nums share one sign
                if not (min(num2) > 0 or max(num2) < 0) or not (min(num1) > 0 or max(num1) < 0):
                    continue
                if den2 < 0:
                    num2, den2 = [-q for q in num2], -den2
                if den1 < 0:
                    num1, den1 = [-q for q in num1], -den1
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
    sort every profile is tested only against the maximal vectors kept so far,
    each as large in the first payoff.  A vector equal to the last one kept is
    kept with it, as equal vectors are all kept or all dropped, so their order
    in the sort does not matter.  The sort orders profile indices by their
    payoff vectors, and the kept indices pick the profiles at the end.
    With 2 or 3 players it is a sweep over a staircase of the kept vectors'
    last two payoffs (Kung, Luccio & Preparata 1975), a 2-player vector read
    with a constant third: the points no other one weakly beats in both, the
    second payoffs ascending and the third descending.  A vector is dominated
    exactly when the first point whose second payoff is as large, found by
    bisection, has a third as large too.  With 2 players the staircase is the
    one point last kept, which a vector is dominated by unless it beats its
    second payoff, and which a kept vector replaces.
    With more players each vector is tested against every maximal one kept.
    """
    vectors = list(zip(*game._payoffs))
    ranked = sorted(range(len(vectors)), key=vectors.__getitem__, reverse=True)
    kept = bytearray(len(vectors))  # by profile index
    if game.n_players <= 3:
        flat = game.n_players == 2  # a constant third payoff
        last = None
        seconds, thirds = [], []  # the staircase
        for k in ranked:
            u = vectors[k]
            if u != last:
                second, third = u[1], 0 if flat else u[2]
                at = bisect_left(seconds, second)
                if at < len(seconds) and thirds[at] >= third:
                    continue
                # drop the points the new one weakly beats in both: the one with
                # its second payoff, if any, and the last ones with a smaller one
                end = at + (at < len(seconds) and seconds[at] == second)
                start = end
                while start and thirds[start - 1] <= third:
                    start -= 1
                seconds[start:end] = [second]
                thirds[start:end] = [third]
                last = u
            kept[k] = 1
    else:
        maxima = []
        for k in ranked:
            u = vectors[k]
            if maxima and maxima[-1] == u:  # ties with the maximal vector just kept
                kept[k] = 1
            elif not any(all(map(ge, v, u)) for v in maxima):
                kept[k] = 1
                maxima.append(u)
    return set(itertools.compress(game.profiles(), kept))


def social_optimum(game):
    """Welfare-maximizing profiles and the maximal welfare, ties included."""
    welfare = list(map(sum, zip(*game._payoffs)))
    best = max(welfare)
    return {s for s, w in zip(game.profiles(), welfare) if w == best}, Fraction(best, game._scale)


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
    worst_ne = Fraction(min(sum(game.ints(s)) for s in equilibria), game._scale)
    if worst_ne <= 0:
        raise errors.UndefinedRatio(f"equilibrium welfare {worst_ne} is not positive")
    return Fraction(best) / worst_ne


class CorrelatedCheck(NamedTuple):
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
    # probabilities as integer weights over their common denominator P, which
    # they sum to exactly when they sum to 1; payoffs over D, so each margin is
    # P * D times its value
    den = _common_denominator(probs.values(), "probability")
    weights = {s: q.numerator * (den // q.denominator) for s, q in probs.items()}
    if any(w < 0 for w in weights.values()) or sum(weights.values()) != den:
        raise errors.InvalidArgument("not a joint probability distribution")

    margins = {(i, rec, dev): 0  # keyed (player, recommended, deviation), in order
               for i, k in enumerate(game.shape) for rec in range(k) for dev in range(k)}
    for profile, w in weights.items():
        for i, pay in enumerate(game._payoffs):
            row = pay[_context(game.shape, i, profile)]
            for dev, alt in enumerate(row):
                margins[i, profile[i], dev] += w * (row[profile[i]] - alt)
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

    One pass over the hull's cyclic edges: a 1-point hull is its own
    zero-length edge and a 2-point hull its segment taken both ways.  Each
    edge a + t*(b - a) is clipped to the t-interval in [0, 1] where both
    coordinates weakly dominate the disagreement point; its two clipped ends,
    and the stationary point of the quadratic product when it lies inside,
    are the candidates (each feasible vertex is the t = 0 end of its outgoing
    edge).  The largest product wins, ties going to the larger point.  Raises
    InfeasibleBargain when no hull point weakly dominates the disagreement
    point.
    """
    lam = problem.disagreement
    hull = _convex_hull(problem.points)
    candidates = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        d = (b[0] - a[0], b[1] - a[1])
        lo, hi = Fraction(0), Fraction(1)
        for ai, di, li in zip(a, d, lam):
            if di > 0:
                lo = max(lo, (li - ai) / di)
            elif di < 0:
                hi = min(hi, (li - ai) / di)
            elif ai < li:
                hi = -1  # a constant coordinate below the disagreement point
        if lo > hi:
            continue
        ts = [lo, hi]
        # stationary point of the quadratic (x(t)-l1)(y(t)-l2)
        quad = 2 * d[0] * d[1]
        if quad != 0:
            t_star = -(d[0] * (a[1] - lam[1]) + d[1] * (a[0] - lam[0])) / quad
            if lo <= t_star <= hi:
                ts.append(t_star)
        candidates.extend((a[0] + t * d[0], a[1] + t * d[1]) for t in ts)

    if not candidates:
        raise errors.InfeasibleBargain(
            f"no feasible utility point dominates the disagreement point {lam}"
        )
    return max(candidates, key=lambda pt: ((pt[0] - lam[0]) * (pt[1] - lam[1]), pt))


# ---------------------------------------------------------------------------
# potential / congestion games


def integer_potential(cg, profile):
    """The Rosenthal potential of a valid profile times cg.scale, an int: per
    resource, the int cost ladder summed up to its usage count."""
    return sum(sum(ladder[:x]) for ladder, x in zip(cg.costs, cg.usage(profile)))


def rosenthal_potential(cg, profile):
    """Rosenthal potential: per resource, sum the cost ladder up to its usage count."""
    profile = tuple(profile)
    checked = _profile(profile, tuple(map(len, cg.strategies)))
    if checked is None:
        raise errors.InvalidProfile(f"profile {profile} invalid for this congestion game")
    return Fraction(integer_potential(cg, checked), cg.scale)


def congestion_to_strategic(cg):
    """View a congestion game as a StrategicGame with payoffs = negated costs."""
    names = tuple(
        tuple("+".join(cg.resource_names[j] for j in strat) for strat in per_player)
        for per_player in cg.strategies
    )
    rows = []
    for profile in itertools.product(*(range(len(s)) for s in cg.strategies)):
        counts = cg.usage(profile)
        rows.append(tuple(-sum(cg.costs[j][counts[j] - 1] for j in cg.strategies[i][s])
                          for i, s in enumerate(profile)))
    return StrategicGame._checked(names, cg.scale, tuple(zip(*rows)))


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
    den = _common_denominator(phi.values(), "potential")
    phi = [phi[s].numerator * (den // phi[s].denominator) * game._scale for s in game.profiles()]
    return all(phi[at] - x == (pay[at] - y) * den for at, s in enumerate(game.profiles())
               for i, pay in enumerate(game._payoffs) for ctx in (_context(game.shape, i, s),)
               for x, y in zip(phi[ctx], pay[ctx]))


class BRDResult(NamedTuple):
    profile: tuple
    trace: tuple
    steps: int


class CycleReport(NamedTuple):
    cycle: tuple
    trace: tuple
    steps: int


def best_response_step(game, profile):
    """The next profile of a best-response path from a valid profile, or None
    at a fixed profile: the lowest-index player with a strict improvement
    moves to their lowest-index best response."""
    for i, pay in enumerate(game._payoffs):
        values = pay[_context(game.shape, i, profile)]
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
