"""Value semantics of gtkit's record and value classes: equality, hashing,
immutability, defaults and the order of p-adic norms."""

from fractions import Fraction

import pytest

from gtkit import evolution, gamefile, games, padic, padic_quantum
from gtkit.padic import UltraNorm

P, MU = 7, 3  # 3 is not a square mod 7


def congestion(costs=((1, 2), ("1/2", 3))):
    return games.CongestionGame(("a", "b"), costs, (((0,), (1,)), ((1,), (0, 1))))


def bargaining(d=(0, 0)):
    return games.BargainingProblem([(1, 0), (0, "1/2"), (1, 0)], d)


def ext(x, y=0, n=8):
    return padic.PAdicExtElement.from_rationals(x, y, P, MU, n)


def distribution(entries=(Fraction(1, 2), Fraction(1, 2))):
    return padic.PAdicDistribution(entries, P)


def space(convention=padic_quantum.SESQUILINEAR):
    return padic_quantum.PAdicHilbertSpace(2, P, MU, convention)


def strategic(payoffs=(((1, "2/4"), (0, 0)), ((0, 0), (Fraction(1, 2), 1)))):
    return games.StrategicGame((("a", "b"), ("c", "d")), payoffs)


def strategic_map():
    # the nested payoffs of `strategic` as a mapping, in another order and entry form
    return strategic({(1, 1): ("1/2", 1), (0, 1): (0, 0), (1, 0): (0, 0),
                      (0, 0): (1, Fraction(1, 2))})


def matrix_game(half="2/4"):
    return evolution.EvolutionGame([[0, half], [1, 0]])


def trajectory():
    return evolution.Trajectory([0.0, 1.0], [0.5, 0.5, 0.25, 0.75], 1.0)


# (make, an equal instance built from other input, an unequal instance); the
# congestion ladder past the player count is dropped, so it changes no game
VALUES = {
    "CongestionGame": (congestion, lambda: congestion(((1, "2", 9), (Fraction(1, 2), 3))),
                       lambda: congestion(((1, 2), (1, 3)))),
    "BargainingProblem": (bargaining, lambda: bargaining(("0", Fraction(0))),
                          lambda: bargaining((0, "1/3"))),
    "PAdicExtElement": (lambda: ext("1/2", 3), lambda: ext(Fraction(2, 4), "3"),
                        lambda: ext("1/2", 4)),
    "UltraNorm": (lambda: UltraNorm(P, Fraction(1, 2)), lambda: UltraNorm(P, Fraction(2, 4)),
                  lambda: UltraNorm(P, Fraction(-1, 2))),
    "PAdicDistribution": (distribution, lambda: distribution(("1/2", Fraction(1, 2))),
                          lambda: distribution((2, -1))),
    "PAdicHilbertSpace": (space, lambda: padic_quantum.PAdicHilbertSpace(2, P, MU),
                          lambda: space(padic_quantum.BILINEAR)),
    "StrategicGame": (strategic, strategic_map,
                      lambda: strategic((((1, 1), (0, 0)), ((0, 0), (1, 1))))),
    "EvolutionGame": (matrix_game, lambda: matrix_game(Fraction(1, 2)),
                      lambda: matrix_game(Fraction(1, 3))),
    "PAdicNumber": (lambda: padic.padic_from_rational(3, 1, P, 4),
                    lambda: padic.parse_padic("0:3.0.0.0@7^4"),
                    lambda: padic.padic_from_rational(3, 1, P, 5)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_values_are_equal_and_hash_alike(name):
    make, same, other = VALUES[name]
    a, b, c = make(), same(), other()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert a != tuple(a._values())  # no tuple equality: each class compares with itself only


FROZEN = {
    "CongestionGame": congestion,
    "BargainingProblem": bargaining,
    "PAdicExtElement": lambda: ext(1, 2),
    "UltraNorm": lambda: UltraNorm(P, Fraction(1)),
    "PAdicDistribution": distribution,
    "PAdicHilbertSpace": space,
    "Trajectory": trajectory,
    "StrategicGame": strategic,
    "EvolutionGame": matrix_game,
    "PAdicNumber": lambda: padic.padic_from_rational(3, 1, P, 4),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_fields_refuse_assignment_and_deletion(name):
    value = FROZEN[name]()
    for field in value.__slots__:
        kept = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, kept)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is kept
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict either
    assert value == FROZEN[name]()
    if name != "Trajectory":  # the one unhashable value, below
        assert hash(value) == hash(FROZEN[name]())


def test_a_trajectory_compares_by_value_and_is_unhashable():
    a, b = trajectory(), trajectory()
    assert a == b and a != evolution.Trajectory([0.0, 1.0], [0.5, 0.5, 0.5, 0.5], 1.0)
    with pytest.raises(TypeError, match="unhashable type: 'Trajectory'"):
        hash(a)
    with pytest.raises(TypeError):
        {a}


def test_ultranorm_orders_by_norm_with_zero_lowest():
    zero = UltraNorm.zero(P)
    small, one, large = (UltraNorm(P, Fraction(k, 2)) for k in (-1, 0, 3))
    assert zero < small < one < large
    assert zero <= zero and small <= small and small <= large
    assert not large < small and not large <= small and not small < zero
    assert not small < UltraNorm(P, Fraction(-2, 4)) and small <= UltraNorm(P, Fraction(-2, 4))


def test_scenario_compares_every_field_and_is_unhashable():
    g = games.StrategicGame((("a", "b"), ("c", "d")), [[(1, 1), (0, 0)], [(0, 0), (1, 1)]])
    a = gamefile.Scenario("strategic", "s", "d", g, {"k": [1]})
    assert a == gamefile.Scenario("strategic", "s", "d", g, {"k": [1]})
    assert a != gamefile.Scenario("strategic", "s", "d", g)
    assert a != gamefile.Scenario("strategic", "t", "d", g, {"k": [1]})
    with pytest.raises(TypeError):
        hash(a)
    a.name = "renamed"  # a scenario stays mutable
    assert a.name == "renamed"


def test_scenario_metadata_is_a_fresh_dict_per_instance():
    first, second = (gamefile.Scenario("evolution", "e", "", None) for _ in range(2))
    assert first.metadata == {} and first.metadata is not second.metadata
    first.metadata["k"] = 1
    assert second.metadata == {}


def test_defaults_of_recurrence_report_and_hilbert_space():
    assert evolution.RecurrenceReport("none") == ("none", None, "")
    rep = evolution.RecurrenceReport("convergent", detail="d")
    assert (rep.kind, rep.period, rep.detail) == ("convergent", None, "d")
    assert padic_quantum.PAdicHilbertSpace(2, P, MU).convention == padic_quantum.SESQUILINEAR
