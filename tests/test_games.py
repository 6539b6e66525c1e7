"""Tests for the exact-rational game core."""

import itertools
import re
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkit import errors, games
from gtkit.games import (
    BargainingProblem,
    CongestionGame,
    CycleReport,
    StrategicGame,
    as_fraction,
    best_response_dynamics,
    check_potential,
    congestion_to_strategic,
    expected_payoff,
    is_correlated_equilibrium,
    is_epsilon_nash,
    iterated_elimination,
    mixed_ne_2x2,
    nash_bargaining,
    pareto_optimal_profiles,
    price_of_anarchy,
    pure_nash,
    pure_to_mixed,
    rosenthal_potential,
    social_optimum,
    support_enumeration,
)

F = Fraction


def bos():
    # wife rows (O, F), husband columns (O, F)
    return StrategicGame([["O", "F"], ["O", "F"]], [[(3, 2), (0, 0)], [(0, 0), (2, 3)]])


def prisoners_dilemma(t=5, r=3, p=1, s=0):
    return StrategicGame([["C", "D"], ["C", "D"]], [[(r, r), (s, t)], [(t, s), (p, p)]])


def matching_pennies():
    return StrategicGame([["H", "T"], ["H", "T"]], [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]])


def rps_bimatrix():
    a = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    cells = [[(a[i][j], -a[i][j]) for j in range(3)] for i in range(3)]
    return StrategicGame([["R", "P", "S"], ["R", "P", "S"]], cells)


def two_link_congestion():
    return CongestionGame(
        resource_names=("link1", "link2"),
        costs=((1, 2), (1, 2)),
        strategies=(((0,), (1,)), ((0,), (1,))),
    )


# ---------------------------------------------------------------------------
# payoff / expected payoff / best responses


def test_payoff_lookup():
    g = bos()
    assert g.payoff((0, 0)) == (3, 2)
    pd = prisoners_dilemma()
    assert pd.payoff((1, 1)) == (1, 1)
    with pytest.raises(errors.InvalidProfile):
        g.payoff((0, 2))


@pytest.mark.parametrize("t,r,p,s", [(5, 3, 1, 0), (10, 6, 2, 1), (F(7, 2), 2, F(3, 2), -1)])
def test_pd_template(t, r, p, s):
    """Any payoff table with T > R > P > S behaves like the dilemma."""
    assert t > r > p > s
    g = prisoners_dilemma(t, r, p, s)
    assert g.payoff((1, 1)) == (p, p)
    assert pure_nash(g) == {(1, 1)}
    assert (1, 1) not in pareto_optimal_profiles(g)
    assert iterated_elimination(g).surviving == ((1,), (1,))


def test_game_construction_validation():
    with pytest.raises(errors.InvalidArgument):
        StrategicGame([["a", "b"]], [[(1,), (2,)]])  # one player
    with pytest.raises(errors.InvalidArgument):
        StrategicGame([["a"], []], [[(1, 1)]])  # empty strategy set
    with pytest.raises(errors.InvalidArgument):
        StrategicGame([["a", "b"], ["c"]], {(0, 0): (1, 1)})  # not total
    for junk in ((7, 7), ("x",), (1, 0, 0)):  # a key outside the shape
        message = f"payoff map key: profile {junk} invalid for shape (2, 1)"
        with pytest.raises(errors.InvalidArgument, match=rf"^{re.escape(message)}$"):
            StrategicGame([["a", "b"], ["c"]], {(0, 0): (1, 1), (1, 0): (2, 2), junk: (1, 1)})
    for alias in ((1.0, 0), (True, 0)):
        with pytest.raises(errors.InvalidArgument):  # equal to (1, 0), but not a profile
            StrategicGame([["a", "b"], ["c"]], {(0, 0): (1, 1), alias: (2, 2)})
    with pytest.raises(errors.InvalidArgument):
        StrategicGame([["a"], ["c"]], {(0, 0): (1, 1, 1)})  # wrong payoff arity
    with pytest.raises(errors.InvalidArgument):
        StrategicGame([["a"], ["c"]], {(0, 0): (1.5, 1)})  # floats rejected


TWO_BY_TWO = [["a", "b"], ["c", "d"]]
CELLS = [[(1, 1), (0, 0)], [(0, 0), (1, 1)]]


@pytest.mark.parametrize("make,message", [
    (lambda: StrategicGame([["a"], ["b"]], [["12"]]), "payoffs[0, 0]: expected 2 entries, got str"),
    (lambda: StrategicGame([["a"], ["b"]], {(0, 0): "12"}),
     "payoffs[0, 0]: expected 2 entries, got str"),
    (lambda: StrategicGame(["ab", "cd"], CELLS), "strategy_names[0]: expected a sequence, got str"),
    (lambda: StrategicGame("ab", [[(1, 1)]]), "strategy_names: expected a sequence, got str"),
    (lambda: games.validate_mixed(StrategicGame(TWO_BY_TWO, CELLS), ["10", "01"]),
     "mixed[0]: expected a sequence, got str"),
    (lambda: BargainingProblem(["12", "30"], (0, 0)), "points[0]: expected 2 entries, got str"),
    (lambda: BargainingProblem([(1, 2), (3, 0)], "00"), "disagreement: expected 2 entries, got str"),
    (lambda: CongestionGame(("r",), ("12",), (((0,),), ((0,),))),
     "costs[0]: expected a sequence, got str"),
], ids=["nested-payoffs", "payoff-map", "names", "name-lists", "mixed", "points", "disagreement",
        "cost-ladder"])
def test_a_string_is_never_read_as_a_vector(make, message):
    # each string would otherwise be split into its characters: "12" read as (1, 2)
    with pytest.raises(errors.InvalidArgument, match=rf"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("payoffs,message", [
    ([*CELLS, [(2, 2), (2, 2)]], "payoffs[]: expected 2 entries, got 3"),
    ([CELLS[0], [*CELLS[1], (2, 2)]], "payoffs[1]: expected 2 entries, got 3"),
    ([[(1, 1), (0, 0, 0)], CELLS[1]], "payoffs[0, 1]: expected 2 entries, got 3"),
    ([CELLS[0]], "payoffs[]: expected 2 entries, got 1"),
    ([CELLS[0], [(0, 0)]], "payoffs[1]: expected 2 entries, got 1"),
    ([[(1, 1), 5], CELLS[1]], "payoffs[0, 1]: expected 2 entries, got int"),
    ([CELLS[0], 7], "payoffs[1]: expected 2 entries, got int"),
], ids=["extra-row", "extra-column", "extra-payoff", "short-rows", "short-row", "leaf",
        "row"])
def test_nested_payoffs_must_have_the_shape(payoffs, message):
    # extra entries were dropped, a short list raised IndexError, a leaf TypeError
    with pytest.raises(errors.InvalidArgument, match=rf"^{re.escape(message)}$"):
        StrategicGame(TWO_BY_TWO, payoffs)


@pytest.mark.parametrize("points,disagreement,message", [
    ([(1, 2), (3, 0)], (0, 0, 0), "disagreement: expected 2 entries, got 3"),
    ([(1, 2), (3, 0)], 0, "disagreement: expected 2 entries, got int"),
    ([(1, 2), (3, 0, 0)], (0, 0), "points[1]: expected 2 entries, got 3"),
    ([(1, 2), 3], (0, 0), "points[1]: expected 2 entries, got int"),
], ids=["3-coordinate-disagreement", "scalar-disagreement", "3-coordinate-point", "scalar-point"])
def test_bargaining_points_must_have_two_coordinates(points, disagreement, message):
    # a third disagreement coordinate was dropped, a third point coordinate a ValueError
    with pytest.raises(errors.InvalidArgument, match=rf"^{re.escape(message)}$"):
        BargainingProblem(points, disagreement)


def test_expected_payoff_bos_mixed():
    g = bos()
    sigma = ((F(3, 5), F(2, 5)), (F(2, 5), F(3, 5)))
    # oracle: enumerate the four outcomes with probabilities 6/25, 9/25, 4/25, 6/25
    probs = {(0, 0): F(6, 25), (0, 1): F(9, 25), (1, 0): F(4, 25), (1, 1): F(6, 25)}
    oracle = tuple(
        sum((probs[s] * g.payoff(s)[i] for s in probs), F(0)) for i in range(2)
    )
    assert oracle == (F(6, 5), F(6, 5))
    assert expected_payoff(g, sigma) == oracle


def test_expected_payoff_degenerate_and_uniform():
    g = bos()
    assert expected_payoff(g, pure_to_mixed(g, (1, 1))) == (2, 3)
    uniform = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert expected_payoff(g, uniform) == (F(5, 4), F(5, 4))


def test_expected_payoff_rejects_bad_profiles():
    g = bos()
    with pytest.raises(errors.InvalidProfile):
        expected_payoff(g, ((F(1, 2), F(1, 2)),))
    with pytest.raises(errors.InvalidProfile):
        expected_payoff(g, ((F(1, 2), F(1, 3)), (1, 0)))


def best_responses(game, player, opponents):
    """Argmax set of pure strategies for `player` against `opponents`, which maps every
    other player's index to their probability vector."""
    def value(s):
        mixed = [opponents.get(j) for j in range(game.n_players)]
        mixed[player] = [int(t == s) for t in range(game.shape[player])]
        return expected_payoff(game, mixed)[player]

    values = [value(s) for s in range(game.shape[player])]
    return {s for s, v in enumerate(values) if v == max(values)}


def test_best_responses():
    g = bos()
    assert best_responses(g, 0, {1: (1, 0)}) == {0}
    assert best_responses(g, 0, {1: (F(2, 5), F(3, 5))}) == {0, 1}
    single = StrategicGame([["a"], ["x", "y"]], [[(1, 1), (2, 0)]])
    assert best_responses(single, 0, {1: (1, 0)}) == {0}


# ---------------------------------------------------------------------------
# pure equilibria, elimination


def test_pure_nash_bos_pd_mp():
    assert pure_nash(bos()) == {(0, 0), (1, 1)}
    assert pure_nash(prisoners_dilemma()) == {(1, 1)}
    assert pure_nash(matching_pennies()) == set()


def brute_force_is_ne(g, profile):
    """Independent oracle: explicit enumeration of all unilateral deviations."""
    u = g.payoff(profile)
    for i in range(g.n_players):
        for dev in range(g.shape[i]):
            alt = profile[:i] + (dev,) + profile[i + 1:]
            if g.payoff(alt)[i] > u[i]:
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pure_nash_matches_brute_force(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    vals = data.draw(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=m * n, max_size=m * n)
    )
    cells = [[vals[i * n + j] for j in range(n)] for i in range(m)]
    g = StrategicGame([[f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]], cells)
    ne = pure_nash(g)
    for profile in g.profiles():
        assert (profile in ne) == brute_force_is_ne(g, profile)


def test_iterated_elimination_pd():
    res = iterated_elimination(prisoners_dilemma())
    assert res.game.shape == (1, 1)
    assert res.surviving == ((1,), (1,))
    assert {(step.player, step.strategy) for step in res.trace} == {(0, 0), (1, 0)}


def test_iterated_elimination_no_change():
    res = iterated_elimination(bos())
    assert res.game == bos()
    assert res.trace == ()
    tiny = StrategicGame([["a"], ["b"]], [[(0, 0)]])
    assert iterated_elimination(tiny).game == tiny


@pytest.mark.parametrize("top, low", [
    ((3, F(5, 2)), (F(1, 3), 2)),  # B held the only 3: D goes from 6 to 2
    ((3, 2), (F(1, 3), F(7, 6))),  # B held every non-unit denominator: D goes to 1
])
def test_the_reduced_game_is_the_game_of_its_fraction_payoffs(top, low):
    # T strictly dominates B for the row player; the column player is indifferent
    g = StrategicGame([["T", "B"], ["L", "R"]],
                      [[(top[0], 1), (top[1], 1)], [(low[0], 1), (low[1], 1)]])
    reduced = iterated_elimination(g).game
    built = StrategicGame([["T"], ["L", "R"]], [[(F(top[0]), F(1)), (F(top[1]), F(1))]])
    assert reduced == built and hash(reduced) == hash(built)
    assert [reduced.payoff((0, j)) for j in range(2)] == [built.payoff((0, j)) for j in range(2)]


def test_equal_games_are_equal_however_their_payoffs_are_written():
    as_ints = StrategicGame([["a", "b"], ["c"]], [[(1, -2)], [(0, 4)]])
    for payoffs in ([[(F(1), F(-2))], [(F(0), F(4))]], [[("1", "-4/2")], [("0/3", "8/2")]]):
        other = StrategicGame([["a", "b"], ["c"]], payoffs)
        assert other == as_ints and hash(other) == hash(as_ints)
    assert StrategicGame([["a", "b"], ["c"]], [[(1, -2)], [(0, F(9, 2))]]) != as_ints


@st.composite
def layout_cases(draw):
    """A game of 2-5 players with 1-4 strategies each, built from one table of
    distinct payoffs k/d by the nested form, the mapping form (its profiles
    shuffled) and `_checked`, with that table."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=5)))
    n, profiles = len(shape), list(itertools.product(*map(range, shape)))
    names = tuple(tuple(f"s{i}" for i in range(k)) for k in shape)
    den = draw(st.sampled_from([1, 2, 6]))
    rng = draw(st.randoms(use_true_random=False))
    nums = list(range(-len(profiles) * n, 0))
    rng.shuffle(nums)  # distinct, so a misplaced payoff cannot read as right
    table = {s: tuple(F(v, den) for v in nums[at * n:at * n + n]) for at, s in enumerate(profiles)}

    def nested(prefix):
        if len(prefix) == n:
            return table[prefix]
        return [nested(prefix + (i,)) for i in range(shape[len(prefix)])]

    ints = tuple(tuple(int(table[s][i] * den) for s in profiles) for i in range(n))
    built = (StrategicGame(names, nested(())),
             StrategicGame(names, dict(rng.sample(sorted(table.items()), len(table)))),
             StrategicGame._checked(names, den, ints))
    return built, table


@settings(max_examples=100, deadline=None)
@given(layout_cases())
def test_the_payoff_index_and_context_slices_follow_the_profile_order(case):
    built, table = case
    assert built[0] == built[1] == built[2]
    assert len({hash(game) for game in built}) == 1
    for game in built:
        strides = games._strides(game.shape)
        assert list(game.profiles()) == sorted(table)
        for at, s in enumerate(game.profiles()):
            assert sum(map(mul, s, strides)) == at
            assert game.payoff(s) == table[s]
            assert game.ints(s) == tuple(pay[at] for pay in game._payoffs)
            assert tuple(F(v, game._scale) for v in game.ints(s)) == table[s]
            for i, (pay, k) in enumerate(zip(game._payoffs, game.shape)):
                context = [F(v, game._scale) for v in pay[games._context(game.shape, i, s)]]
                assert context == [table[s[:i] + (b,) + s[i + 1:]][i] for b in range(k)]


# ---------------------------------------------------------------------------
# mixed equilibria


def test_mixed_ne_2x2_bos():
    result = mixed_ne_2x2(bos())
    profiles = [m for m, _ in result]
    assert pure_to_mixed(bos(), (0, 0)) in profiles
    assert pure_to_mixed(bos(), (1, 1)) in profiles
    interior = ((F(3, 5), F(2, 5)), (F(2, 5), F(3, 5)))
    assert interior in profiles
    assert len(result) == 3
    payoff_map = dict(zip(profiles, [p for _, p in result]))
    assert payoff_map[interior] == (F(6, 5), F(6, 5))


def test_mixed_ne_2x2_matching_pennies():
    result = mixed_ne_2x2(matching_pennies())
    assert len(result) == 1
    ((sigma, payoffs),) = result
    assert sigma == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert payoffs == (0, 0)


def test_mixed_ne_2x2_pd_has_no_interior():
    result = mixed_ne_2x2(prisoners_dilemma())
    assert [m for m, _ in result] == [pure_to_mixed(prisoners_dilemma(), (1, 1))]


def test_mixed_ne_2x2_rejects_other_shapes():
    with pytest.raises(errors.UnsupportedShape):
        mixed_ne_2x2(rps_bimatrix())


def test_support_enumeration_bos_matches_2x2():
    se = support_enumeration(bos())
    assert se == [m for m, _ in mixed_ne_2x2(bos())]
    assert len(se) == 3


def test_support_enumeration_rps():
    se = support_enumeration(rps_bimatrix())
    third = (F(1, 3), F(1, 3), F(1, 3))
    assert se == [(third, third)]


def test_support_enumeration_known_3x2_game():
    # classic 3x2 bimatrix with exactly three equilibria
    cells = [[(3, 3), (3, 2)], [(2, 2), (5, 6)], [(0, 3), (6, 1)]]
    g = StrategicGame([["r1", "r2", "r3"], ["c1", "c2"]], cells)
    se = support_enumeration(g)
    want = [
        ((F(0), F(1, 3), F(2, 3)), (F(1, 3), F(2, 3))),
        ((F(4, 5), F(1, 5), F(0)), (F(2, 3), F(1, 3))),
        ((F(1), F(0), F(0)), (F(1), F(0))),
    ]
    assert se == sorted(want)
    for sigma in se:
        assert is_epsilon_nash(g, sigma, 0)


def test_support_enumeration_trivial_and_errors():
    tiny = StrategicGame([["a"], ["b"]], [[(0, 0)]])
    assert support_enumeration(tiny) == [((F(1),), (F(1),))]
    three = StrategicGame(
        [["a", "b"], ["a", "b"], ["a", "b"]],
        {p: (0, 0, 0) for p in tiny_profiles(2, 3)},
    )
    with pytest.raises(errors.UnsupportedShape):
        support_enumeration(three)
    big = StrategicGame(
        [[f"s{i}" for i in range(6)], ["a"]],
        {(i, 0): (0, 0) for i in range(6)},
    )
    with pytest.raises(errors.SizeLimit):
        support_enumeration(big)


def tiny_profiles(k, players):
    import itertools

    return itertools.product(*(range(k) for _ in range(players)))


def test_support_enumeration_flags_degenerate_games():
    constant = StrategicGame([["a", "b"], ["a", "b"]], [[(1, 1), (1, 1)], [(1, 1), (1, 1)]])
    with pytest.raises(errors.DegenerateGame):
        support_enumeration(constant)


def test_equilibria_pass_epsilon_zero():
    for g in (bos(), matching_pennies(), prisoners_dilemma(), rps_bimatrix()):
        try:
            found = support_enumeration(g)
        except errors.DegenerateGame:
            continue
        for sigma in found:
            assert is_epsilon_nash(g, sigma, 0)


def test_is_epsilon_nash_miscoordination():
    g = bos()
    miscoord = pure_to_mixed(g, (0, 1))
    assert is_epsilon_nash(g, miscoord, 2)
    assert not is_epsilon_nash(g, miscoord, 1)
    with pytest.raises(errors.InvalidArgument):
        is_epsilon_nash(g, miscoord, -1)


# ---------------------------------------------------------------------------
# welfare


def test_pareto_sets():
    pd = prisoners_dilemma()
    assert pareto_optimal_profiles(pd) == {(0, 0), (0, 1), (1, 0)}
    assert pareto_optimal_profiles(bos()) == {(0, 0), (1, 1)}
    tiny = StrategicGame([["a"], ["b"]], [[(0, 0)]])
    assert pareto_optimal_profiles(tiny) == {(0, 0)}


def test_social_optimum():
    profiles, welfare = social_optimum(prisoners_dilemma())
    assert profiles == {(0, 0)} and welfare == 6
    profiles, welfare = social_optimum(bos())
    assert profiles == {(0, 0), (1, 1)} and welfare == 5
    const = StrategicGame([["a", "b"], ["a", "b"]], [[(1, 1), (1, 1)], [(1, 1), (1, 1)]])
    profiles, _ = social_optimum(const)
    assert profiles == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_price_of_anarchy():
    assert price_of_anarchy(prisoners_dilemma()) == 3
    assert price_of_anarchy(bos()) == 1
    # dominant-strategy game whose unique NE is the social optimum
    aligned = StrategicGame([["a", "b"], ["a", "b"]], [[(4, 4), (1, 3)], [(3, 1), (0, 0)]])
    assert pure_nash(aligned) == {(0, 0)}
    assert price_of_anarchy(aligned) == 1
    with pytest.raises(errors.NoEquilibrium):
        price_of_anarchy(matching_pennies())
    zero_welfare = StrategicGame([["a", "b"], ["a", "b"]], [[(0, 0), (-1, -1)], [(-1, -1), (-2, -2)]])
    with pytest.raises(errors.UndefinedRatio):
        price_of_anarchy(zero_welfare)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_poa_at_least_one_for_positive_payoffs(data):
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    vals = data.draw(
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=m * n, max_size=m * n)
    )
    cells = [[vals[i * n + j] for j in range(n)] for i in range(m)]
    g = StrategicGame([[f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]], cells)
    try:
        assert price_of_anarchy(g) >= 1
    except errors.NoEquilibrium:
        pass


# ---------------------------------------------------------------------------
# correlated equilibrium


def test_correlated_equilibrium_coordination_device():
    g = bos()
    check = is_correlated_equilibrium(g, {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    assert check.holds and check.worst_margin >= 0


def test_correlated_equilibrium_from_mixed_ne():
    g = bos()
    sigma = ((F(3, 5), F(2, 5)), (F(2, 5), F(3, 5)))
    product = {
        (i, j): sigma[0][i] * sigma[1][j] for i in range(2) for j in range(2)
    }
    assert is_correlated_equilibrium(g, product).holds


def test_correlated_equilibrium_violation():
    g = bos()
    check = is_correlated_equilibrium(g, {(0, 1): F(1, 2), (1, 0): F(1, 2)})
    assert not check.holds
    assert check.worst_margin < 0


def test_correlated_check_validates_distribution():
    g = bos()
    with pytest.raises(errors.InvalidArgument):
        is_correlated_equilibrium(g, {(0, 0): F(1, 2)})  # sums to 1/2
    with pytest.raises(errors.InvalidArgument):
        is_correlated_equilibrium(g, {(0, 0): F(3, 2), (1, 1): F(-1, 2)})
    with pytest.raises(errors.InvalidProfile):
        is_correlated_equilibrium(g, {(0, 5): F(1)})


def test_congestion_game_validation():
    with pytest.raises(errors.InvalidArgument):
        CongestionGame(("r",), ((1,),), (((0,),), ((0,),)))  # cost ladder too short
    with pytest.raises(errors.InvalidArgument):
        CongestionGame(("r",), ((1, 2),), (((0,), ()), ((0,),)))  # empty strategy
    with pytest.raises(errors.InvalidArgument):
        CongestionGame(("r",), ((1, 2),), (((1,),), ((0,),)))  # unknown resource
    with pytest.raises(errors.InvalidProfile):
        rosenthal_potential(two_link_congestion(), (0, 5))


LADDERS = ((1, 2), (2, 3))
ONE_EACH = (((0,),), ((1,),))


@pytest.mark.parametrize("names,strategies,message", [
    (("x", "y"), (("0",), ((0,),)), "strategies[0, 0]: expected a sequence, got str"),
    (("x", "y"), ("01", ((0,),)), "strategies[0]: expected a sequence, got str"),
    (("x", "y"), "01", "strategies: expected a sequence, got str"),
    (("x", "y"), ((("0",),), ((0,),)),
     "strategies[0, 0]: resource indices must be integers, got ('0',)"),
    (("x", "y"), (((0, 1.0),), ((0,),)),
     "strategies[0, 0]: resource indices must be integers, got (0, 1.0)"),
    ("ab", ONE_EACH, "resource_names: expected 2 entries, got str"),
    (("x",), ONE_EACH, "resource_names: expected 2 entries, got 1"),
    (("x", "y", "z"), ONE_EACH, "resource_names: expected 2 entries, got 3"),
], ids=["strategy-string", "strategy-list-string", "strategies-string", "string-index",
        "float-index", "names-string", "one-name-two-ladders", "three-names-two-ladders"])
def test_congestion_inputs_are_read_as_vectors(names, strategies, message):
    # the first four ended in a raw TypeError, "ab" was kept as two names and
    # one name was accepted for two ladders
    with pytest.raises(errors.InvalidArgument, match=rf"^{re.escape(message)}$"):
        CongestionGame(names, LADDERS, strategies)


def test_congestion_inputs_of_every_sequence_type_still_read():
    game = CongestionGame(("x", "y"), LADDERS, ONE_EACH)
    assert game.resource_names == ("x", "y")
    for names, strategies in ((["x", "y"], [[[0]], [[1]]]),
                              (np.array(["x", "y"]), [np.array([[0]]), (np.array([1]),)]),
                              (("x", "y"), (((np.int64(0), 0),), ((np.uint8(1),),)))):
        read = CongestionGame(names, LADDERS, strategies)
        assert read == game
        assert all(type(j) is int for per in read.strategies for s in per for j in s)


# ---------------------------------------------------------------------------
# bargaining


def test_nash_bargaining_edge_maximum():
    prob = BargainingProblem(points=((0, 0), (3, 2), (2, 3)), disagreement=(0, 0))
    point = nash_bargaining(prob)
    assert point == (F(5, 2), F(5, 2))
    assert (point[0] - 0) * (point[1] - 0) == F(25, 4)


def test_nash_bargaining_dominant_corner():
    prob = BargainingProblem(points=((0, 0), (1, 0), (0, 1), (1, 1)), disagreement=(0, 0))
    assert nash_bargaining(prob) == (1, 1)


def test_nash_bargaining_infeasible():
    prob = BargainingProblem(points=((0, 0), (3, 2), (2, 3)), disagreement=(10, 10))
    with pytest.raises(errors.InfeasibleBargain):
        nash_bargaining(prob)


def test_nash_bargaining_interior_segment_feasible():
    # no vertex dominates (1,1) but the edge midpoint does
    prob = BargainingProblem(points=((0, 3), (3, 0)), disagreement=(1, 1))
    point = nash_bargaining(prob)
    assert point == (F(3, 2), F(3, 2))


def test_nash_bargaining_beats_sampled_segments():
    # oracle: no feasible point sampled on a segment between two utility
    # points (every hull edge is one) has a larger Nash product
    for points, d in (
        (((0, 0), (3, 2), (2, 3)), (0, 0)),
        (((0, 0), (1, 0), (0, 1), (1, 1)), (0, 0)),
        (((0, 3), (3, 0)), (1, 1)),
    ):
        best = nash_bargaining(BargainingProblem(points=points, disagreement=d))
        top = (best[0] - d[0]) * (best[1] - d[1])
        for a in points:
            for b in points:
                for j in range(65):
                    t = F(j, 64)
                    x, y = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
                    if x >= d[0] and y >= d[1]:
                        assert (x - d[0]) * (y - d[1]) <= top


# ---------------------------------------------------------------------------
# congestion / potential


def test_rosenthal_potential_values():
    cg = two_link_congestion()
    assert rosenthal_potential(cg, (0, 0)) == 3
    assert rosenthal_potential(cg, (0, 1)) == 2
    assert rosenthal_potential(cg, (1, 0)) == 2


@pytest.mark.parametrize("alias", [(True, 0), (1.0, 0)])
def test_rosenthal_potential_refuses_what_is_not_a_profile(alias):
    # both equal (1, 0); True was read as 1 and 1.0 raised a raw TypeError
    with pytest.raises(errors.InvalidProfile,
                       match=rf"^profile {re.escape(str(alias))} invalid for this congestion game$"):
        rosenthal_potential(two_link_congestion(), alias)


def test_numpy_integers_are_strategy_indices():
    g, cg = bos(), two_link_congestion()
    assert g.payoff(np.array([0, 1])) == g.payoff((0, 1))
    assert g.validate_profile(np.array([1, 1])) == (1, 1)
    assert type(g.validate_profile((np.int64(1), np.uint8(0)))[0]) is int
    assert rosenthal_potential(cg, np.array([0, 1])) == rosenthal_potential(cg, (0, 1))
    for alias in ((True, 0), (np.True_, 0), (np.float64(1.0), 0), np.array([0.0, 1.0])):
        with pytest.raises(errors.InvalidProfile):
            g.payoff(alias)


def test_numpy_integers_are_payoffs():
    # as_fraction reads any non-bool integer with __index__, as _index does
    payoffs = np.array([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
    game = StrategicGame([["a", "b"], ["c", "d"]], payoffs)
    assert game == StrategicGame([["a", "b"], ["c", "d"]], payoffs.tolist())
    assert all(type(v) is F for s in game.profiles() for v in game.payoff(s))
    assert as_fraction(np.uint8(3)) == 3
    for bad in (True, np.True_, np.float64(1.0)):
        with pytest.raises(errors.InvalidArgument):
            as_fraction(bad)


def test_numpy_integers_are_congestion_costs():
    game = CongestionGame(("x", "y"), (np.array([1, 2]), np.array([2, 3])), ONE_EACH)
    assert game == CongestionGame(("x", "y"), LADDERS, ONE_EACH)
    assert all(type(c) is int for ladder in game.costs for c in ladder)


def test_a_refused_rational_is_named_neutrally():
    # a bool may be a probability, a cost or a p-adic value, not only a payoff
    for bad in (True, "x"):
        with pytest.raises(errors.InvalidArgument, match=rf"^not a rational: {bad!r}$"):
            as_fraction(bad)


def test_check_potential_rosenthal():
    cg = two_link_congestion()
    g = congestion_to_strategic(cg)
    phi = {s: -rosenthal_potential(cg, s) for s in g.profiles()}
    assert check_potential(g, phi)
    assert not check_potential(g, {s: F(0) for s in g.profiles()})
    with pytest.raises(errors.InvalidArgument):
        check_potential(g, {(0, 0): F(0)})


def test_check_potential_single_active_player():
    # second player has one strategy, so u_1 itself is a potential
    g = StrategicGame([["a", "b"], ["only"]], [[(2, 0)], [(5, 0)]])
    assert check_potential(g, {s: g.payoff(s)[0] for s in g.profiles()})


def test_best_response_dynamics_congestion():
    g = congestion_to_strategic(two_link_congestion())
    res = best_response_dynamics(g, (0, 0))
    assert not isinstance(res, CycleReport)
    assert res.profile in {(0, 1), (1, 0)}
    assert res.steps <= 2
    # potential argument: convergence from every start within |profiles| steps
    for start in g.profiles():
        r = best_response_dynamics(g, start, max_steps=4)
        assert not isinstance(r, CycleReport)


def test_best_response_dynamics_cycle_and_fixpoint():
    mp = matching_pennies()
    rep = best_response_dynamics(mp, (0, 0))
    assert isinstance(rep, CycleReport)
    assert len(rep.cycle) == 4
    g = bos()
    res = best_response_dynamics(g, (0, 0))
    assert res.profile == (0, 0) and res.steps == 0
    with pytest.raises(errors.StepLimit):
        best_response_dynamics(mp, (0, 0), max_steps=2)


# ---------------------------------------------------------------------------
# invariance properties


def affine_transform(game, player, a, b):
    """Rescale one player's payoffs u <- a*u + b (a > 0 preserves all argmax structure)."""
    a, b = as_fraction(a), as_fraction(b)
    if a <= 0:
        raise errors.InvalidArgument("affine payoff rescaling needs a > 0")
    table = {}
    for profile in game.profiles():
        u = list(game.payoff(profile))
        u[player] = a * u[player] + b
        table[profile] = tuple(u)
    return StrategicGame(game.strategy_names, table)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(0, 20),
    st.integers(0, 1),
)
def test_affine_invariance(scale, shift, player):
    g = bos()
    g2 = affine_transform(g, player, scale, shift - 10)
    assert pure_nash(g) == pure_nash(g2)
    assert pareto_optimal_profiles(g) == pareto_optimal_profiles(g2)
    assert best_responses(g, player, {1 - player: (F(1, 3), F(2, 3))}) == best_responses(
        g2, player, {1 - player: (F(1, 3), F(2, 3))}
    )
    assert iterated_elimination(g).surviving == iterated_elimination(g2).surviving


def _mixed_ne_2x2_by_indifference(g):
    """Reference: pure NE plus the interior point of the indifference equations."""
    out = {pure_to_mixed(g, ne) for ne in pure_nash(g)}
    u = {s: g.payoff(s) for s in g.profiles()}
    c1 = u[(0, 0)][0] - u[(1, 0)][0] - u[(0, 1)][0] + u[(1, 1)][0]
    c2 = u[(0, 0)][1] - u[(0, 1)][1] - u[(1, 0)][1] + u[(1, 1)][1]
    if c1 != 0 and c2 != 0:
        y = -(u[(0, 1)][0] - u[(1, 1)][0]) / c1
        x = -(u[(1, 0)][1] - u[(1, 1)][1]) / c2
        if 0 < x < 1 and 0 < y < 1:
            out.add(((x, 1 - x), (y, 1 - y)))
    return sorted(out)


# payoffs k/d for k in {-2..2} and d in {1, 2, 3}: ties stay common, and D is usually > 1
small_2x2 = st.lists(st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2, 3])),
                     min_size=8, max_size=8).map(
    lambda v: StrategicGame(
        [["a", "b"], ["c", "d"]],
        [[(v[0], v[1]), (v[2], v[3])], [(v[4], v[5]), (v[6], v[7])]],
    )
)


@settings(max_examples=300, deadline=None)
@given(small_2x2)
def test_mixed_ne_2x2_matches_indifference_reference(g):
    assert [m for m, _ in mixed_ne_2x2(g)] == _mixed_ne_2x2_by_indifference(g)


@settings(max_examples=200, deadline=None)
@given(small_2x2)
def test_equilibrium_set_2x2_is_exact_on_a_grid(g):
    # every profile of every box is an equilibrium, and every equilibrium on
    # the 1/6 grid lies in some box; small payoffs make most games degenerate
    boxes = games.equilibrium_set_2x2(g)
    assert boxes == sorted(set(boxes))

    def inside(p, q):
        return any(b[0][0] <= p <= b[0][1] and b[1][0] <= q <= b[1][1] for b in boxes)

    for (p_lo, p_hi), (q_lo, q_hi) in boxes:
        for p in (p_lo, (p_lo + p_hi) / 2, p_hi):
            for q in (q_lo, (q_lo + q_hi) / 2, q_hi):
                assert is_epsilon_nash(g, ((p, 1 - p), (q, 1 - q)), 0)
    for i in range(7):
        for j in range(7):
            p, q = F(i, 6), F(j, 6)
            assert inside(p, q) == is_epsilon_nash(g, ((p, 1 - p), (q, 1 - q)), 0)


def test_equilibrium_set_2x2_continua():
    constant = StrategicGame([["a", "b"], ["c", "d"]], [[(1, 1), (1, 1)], [(1, 1), (1, 1)]])
    assert games.equilibrium_set_2x2(constant) == [((0, 1), (0, 1))]
    # player 1 indifferent everywhere: the equilibria are player 2's best-reply graph
    g = StrategicGame([["a", "b"], ["c", "d"]], [[(0, 1), (0, 0)], [(0, 0), (0, 1)]])
    half = F(1, 2)
    assert games.equilibrium_set_2x2(g) == [
        ((0, half), (0, 0)), ((half, half), (0, 1)), ((half, 1), (1, 1))
    ]
    with pytest.raises(errors.UnsupportedShape):
        games.equilibrium_set_2x2(rps_bimatrix())


def test_every_mixed_ne_induces_a_correlated_equilibrium():
    for g in (bos(), matching_pennies(), prisoners_dilemma()):
        for sigma, _ in mixed_ne_2x2(g):
            product = {
                (i, j): sigma[0][i] * sigma[1][j]
                for i in range(g.shape[0])
                for j in range(g.shape[1])
                if sigma[0][i] * sigma[1][j] != 0
            }
            assert is_correlated_equilibrium(g, product).holds


def test_determinism_bit_identical():
    a = support_enumeration(bos())
    b = support_enumeration(bos())
    assert a == b
    assert mixed_ne_2x2(bos()) == mixed_ne_2x2(bos())


@pytest.mark.parametrize("text", ["1e10000000", "-2.5E-10000000", "1e1001", "7" * 1001])
def test_a_literal_past_the_digit_bound_is_refused_before_it_is_built(text, monkeypatch):
    from gtkit import evolution

    class Unbuilt(Fraction):
        def __new__(cls, *args):
            raise AssertionError("Fraction built from an exponent past the bound")

    if "e" in text.lower():  # refused on the exponent alone, so 10**exponent is never built
        monkeypatch.setattr(games, "Fraction", Unbuilt)
    for read in (as_fraction, evolution._to_fraction,
                 lambda t: StrategicGame([["a"], ["b"]], [[(t, 0)]]),
                 lambda t: evolution.EvolutionGame([[t, 0], [0, 0]])):
        with pytest.raises(errors.SizeLimit, match="exceeds 1000 digits"):
            read(text)


def test_a_literal_within_the_digit_bound_still_reads():
    from gtkit import evolution

    for text, value in (("1e999", F(10) ** 999), ("-1e-999", -F(1, 10 ** 999)),
                        ("9" * 1000, F(10) ** 1000 - 1), ("2/5", F(2, 5)), ("0.25", F(1, 4))):
        assert as_fraction(text) == evolution._to_fraction(text) == value
    for read in (as_fraction, evolution._to_fraction):
        with pytest.raises(errors.InvalidArgument):
            read("1e5x")
