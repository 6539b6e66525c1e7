"""Tests for the exact classical form of the identity/bit-flip quantumization,
against the Kraus-sum channel and the grid search as reference oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gtkit import errors, gamefile, padic_quantum, quantum
from gtkit.games import StrategicGame
from gtkit.quantum import ClassicalForm, equilibrium_report
import twoqubit

F = Fraction
R2 = 1.0 / math.sqrt(2.0)


def scenario(name):
    return gamefile.load_scenario(name).game


def constant_game():
    return StrategicGame([["a", "b"], ["a", "b"]], [[(1, 1), (1, 1)], [(1, 1), (1, 1)]])


def test_form_is_the_flip_mixture():
    form = ClassicalForm(scenario("bos"), F(9, 25))
    assert form.game.payoff((0, 0)) == (F(59, 25), F(66, 25))
    assert form.game.payoff((1, 1)) == (F(66, 25), F(59, 25))
    assert form.game.payoff((0, 1)) == (0, 0) and form.game.payoff((1, 0)) == (0, 0)
    assert form.distribution(F(1), F(1)) == (F(9, 25), 0, 0, F(16, 25))
    with pytest.raises(errors.UnsupportedShape):
        ClassicalForm(StrategicGame([["a", "b", "c"], ["x"]], [[(0, 0)], [(0, 0)], [(0, 0)]]), 1)


def test_payoffs_match_kraus_diagonal():
    grid = np.linspace(0.0, 1.0, 21)
    for alpha, beta, a2 in twoqubit.AMPLITUDES:
        form = ClassicalForm(scenario("bos"), a2)
        for p in grid:
            for q in grid:
                p, q = float(p), float(q)
                kraus = twoqubit.mw_final_density(alpha, beta, p, q).diagonal()
                exact = form.distribution(F(p), F(q))
                assert np.max(np.abs(kraus - [float(x) for x in exact])) <= 1e-12
                want = twoqubit.mw_expected_payoffs(form.base, alpha, beta, p, q)
                got = form.payoffs(F(p), F(q))
                assert abs(float(got[0]) - want[0]) <= 1e-12
                assert abs(float(got[1]) - want[1]) <= 1e-12


def test_surface_is_the_exact_payoff_rounded():
    form = ClassicalForm(scenario("bos"), F(9, 25))
    rows = "\n".join(quantum.payoff_surface_rows(form, 20)).split("\n")[1:]
    for k, row in enumerate(rows):
        # 17 significant digits read back to the same binary64 values, each
        # the exact payoff correctly rounded
        p, q, pay1, pay2 = map(float, row.split(","))
        want = form.payoffs(F(k // 21, 20), F(k % 21, 20))
        assert (p, q) == ((k // 21) / 20, (k % 21) / 20)
        assert (pay1, pay2) == tuple(map(float, want))
    assert len(rows) == 21 * 21


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_surface_rows_are_made_as_they_are_read(exact):
    # built whole, this grid would hold 10^10 rows: take the header and the
    # block of the first grid row, then that block's first two lines
    form = ClassicalForm(scenario("bos"), F(1, 2))
    header, block = itertools.islice(quantum.payoff_surface_rows(form, 10**5, exact), 2)
    head = [header, *block.split("\n", 2)[:2]]
    assert head[0] == "p,q,payoff1,payoff2"
    for j, row in enumerate(head[1:]):
        p, q, pay1, pay2 = map(F, row.split(","))
        want = form.payoffs(F(0), F(j, 10**5))
        if exact:
            assert (p, q, pay1, pay2) == (0, F(j, 10**5), *want)
        else:
            assert (float(p), float(q)) == (0.0, j / 10**5)
            assert abs(pay1 - want[0]) <= 1e-14 and abs(pay2 - want[1]) <= 1e-14


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_the_surface_is_its_header_then_one_block_per_grid_row(exact):
    form = ClassicalForm(scenario("bos"), F(1, 2))
    header, *blocks = quantum.payoff_surface_rows(form, 3, exact)
    assert header == "p,q,payoff1,payoff2"
    assert len(blocks) == 4
    for i, block in enumerate(blocks):
        lines = block.split("\n")  # no newline at either end
        assert len(lines) == 4 and all(lines)
        read = F if exact else float
        assert all(read(line.split(",")[0]) == read(i) / 3 for line in lines)


def test_a_payoff_beyond_binary64_is_refused_at_the_call():
    huge = StrategicGame([["a", "b"], ["c", "d"]], [[(F(10) ** 400, 3), (0, 0)], [(0, 0), (1, 1)]])
    form = ClassicalForm(huge, F(1, 2))
    with pytest.raises(errors.InvalidArgument, match="binary64 range"):
        quantum.payoff_surface_rows(form, 2)
    assert next(quantum.payoff_surface_rows(form, 2, exact=True)) == "p,q,payoff1,payoff2"


@pytest.mark.parametrize("name", ["bos", "pd", "matching-pennies"])
@pytest.mark.parametrize("alpha", ["max", "3/5", "4/5", "1"])
def test_grid_equilibria_lie_in_the_exact_set(name, alpha):
    a2 = F(1, 2) if alpha == "max" else F(alpha) ** 2
    form = ClassicalForm(scenario(name), a2)
    boxes = form.equilibria()
    found = quantum.mw_nash_search(form, 100)
    assert found
    for (p, q), _ in found:
        p, q = F(round(p * 100), 100), F(round(q * 100), 100)
        assert any(b[0][0] <= p <= b[0][1] and b[1][0] <= q <= b[1][1] for b in boxes)


def test_off_grid_interior_equilibrium():
    rep = equilibrium_report(ClassicalForm(scenario("bos"), F(9, 25)))
    points = {(e["p"], e["q"]): e for e in rep["equilibria"]}
    assert set(points) == {(0, 0), (F(59, 125), F(66, 125)), (1, 1)}
    interior = points[(F(59, 125), F(66, 125))]
    assert interior["payoffs"] == [F(3894, 3125), F(3894, 3125)]
    assert not interior["pareto_optimal_among_equilibria"]
    assert interior["exceeds_classical_mixed"]
    assert points[(0, 0)]["payoffs"] == [F(66, 25), F(59, 25)]
    assert rep["best_equilibrium_payoffs"] == [F(66, 25), F(66, 25)]
    assert rep["classical_mixed_payoffs"] == (F(6, 5), F(6, 5))
    assert rep["continua"] == []
    # the grid misses it at every density
    form = ClassicalForm(scenario("bos"), F(9, 25))
    for grid in (7, 100, 101):
        assert {pq for pq, _ in quantum.mw_nash_search(form, grid)} == {(0.0, 0.0), (1.0, 1.0)}


def test_constant_game_is_one_continuum():
    rep = equilibrium_report(ClassicalForm(constant_game(), F(1, 2)))
    assert rep["equilibria"] == []
    (square,) = rep["continua"]
    assert square["p"] == [0, 1] and square["q"] == [0, 1]
    assert square["payoff_range"] == [[1, 1], [1, 1]]
    assert square["pareto_optimal_among_equilibria"]
    assert "exceeds_classical_mixed" not in square
    assert rep["best_equilibrium_payoffs"] == [1, 1]


def test_continuum_flags_use_its_best_pair():
    # player 1 is indifferent everywhere; the segment at q = 0 pays player 2 up
    # to 2, so it is Pareto optimal and the other two pieces are not
    g = StrategicGame([["a", "b"], ["c", "d"]], [[(0, 1), (0, 0)], [(0, 0), (0, 2)]])
    rep = equilibrium_report(ClassicalForm(g, 1))
    assert rep["equilibria"] == []
    flags = {(tuple(c["p"]), tuple(c["q"])): c["pareto_optimal_among_equilibria"]
             for c in rep["continua"]}
    assert flags == {
        ((0, F(2, 3)), (0, 0)): True,
        ((F(2, 3), F(2, 3)), (0, 1)): False,
        ((F(2, 3), 1), (1, 1)): False,
    }
    assert rep["best_equilibrium_payoffs"] == [0, 2]


@pytest.mark.parametrize("solve", [
    lambda form: quantum.payoff_surface_rows(form, 2),
    lambda form: quantum.payoff_surface_rows(form, 2, exact=True),
    lambda form: quantum.mw_nash_search(form, 2),
    lambda form: padic_quantum.padic_quantumize_2x2(form, 7, F(1), F(1)),
], ids=["surface", "exact-surface", "grid-search", "padic"])
@pytest.mark.parametrize("form", [
    scenario("bos"),
    (scenario("bos"), R2, R2),
    None,
], ids=["game", "amplitudes", "none"])
def test_the_quantum_layer_takes_a_classical_form_only(solve, form):
    with pytest.raises(errors.InvalidArgument, match="expected a quantum.ClassicalForm"):
        solve(form)
