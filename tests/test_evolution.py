"""Tests for replicator dynamics, rest points, ESS and recurrence detection."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkit import errors, gamefile
from gtkit.evolution import (
    EvolutionGame,
    SimplexState,
    Trajectory,
    _step_list,
    detect_recurrence,
    ess_check,
    excess,
    fisher_rate_check,
    fitness,
    integrate,
    interior_rest_points,
    is_ess,
    is_nash_state,
    mean_fitness,
    power_product_rate,
    replicator_rhs,
    rest_point_reports,
    time_average,
    transversal_eigenvalues,
)

F = Fraction

RPS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
DOMINANCE = [[2, 2], [1, 1]]
HAWK_DOVE = [[-1, 2], [0, 1]]  # V=2, C=4 convention
IDENTITY2 = [[1, 0], [0, 1]]


def rk4_step(g, p, h):
    """One RK4 step of the replicator flow plus the clamp/renormalize projection."""
    return np.asarray(_step_list(g.matrix, np.asarray(p, dtype=float).tolist(), h))


def states(traj):
    """The trajectory's states as a (samples, n) view of its flat array."""
    return np.frombuffer(traj.values).reshape(len(traj), traj.n)


def centroid(n):
    return SimplexState([F(1, n)] * n)


def vertex(n, i):
    return SimplexState([F(int(j == i)) for j in range(n)])


# ---------------------------------------------------------------------------
# input validation


@pytest.mark.parametrize("make", [
    lambda v: EvolutionGame([[v, 0], [0, 1]]),
    lambda v: SimplexState([v, 0]),
    lambda v: SimplexState([v, 0.0]),
    lambda v: fitness(EvolutionGame(IDENTITY2), [v, 0.0]),
], ids=["EvolutionGame", "SimplexState", "SimplexState-float", "float-sequence"])
@pytest.mark.parametrize("entry", [True, False, math.nan, math.inf, -math.inf, "nan", "1/0"])
def test_booleans_and_non_finite_entries_are_invalid_arguments(make, entry):
    with pytest.raises(errors.InvalidArgument):
        make(entry)


def test_a_float_state_beyond_binary64_is_an_invalid_argument():
    with pytest.raises(errors.InvalidArgument):
        SimplexState([10**400, 0.5])


# weights k / total rounded to binary64: their exact values sum to 1 for some totals only
_ROUNDED_WEIGHTS = st.lists(st.integers(0, 50), min_size=2, max_size=5).filter(any).map(
    lambda ks: [k / sum(ks) for k in ks])


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ROUNDED_WEIGHTS,
                 st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5)))
def test_a_float_state_is_accepted_exactly_when_its_binary_values_sum_to_1(values):
    exact = tuple(map(F, values))
    if sum(exact) == 1:
        state = SimplexState(values)
        assert state.exact == exact and state.p == tuple(values)
    else:
        with pytest.raises(errors.InvalidState, match="not an exact simplex point"):
            SimplexState(values)


# ---------------------------------------------------------------------------
# pointwise quantities


def test_fitness():
    g = EvolutionGame(RPS)
    assert np.allclose(fitness(g, centroid(3)), 0.0, atol=1e-15)
    assert np.allclose(fitness(g, vertex(3, 0)), [0, 1, -1])
    g2 = EvolutionGame(IDENTITY2)
    assert np.allclose(fitness(g2, centroid(2)), [0.5, 0.5])


def test_mean_fitness():
    g = EvolutionGame(RPS)
    assert mean_fitness(g, centroid(3)) == pytest.approx(0.0, abs=1e-15)
    for i in range(3):
        assert mean_fitness(g, vertex(3, i)) == pytest.approx(RPS[i][i])
    assert mean_fitness(EvolutionGame(IDENTITY2), centroid(2)) == pytest.approx(0.5)


def test_excess():
    g = EvolutionGame(RPS)
    assert np.allclose(excess(g, centroid(3)), 0.0, atol=1e-15)
    h = excess(g, vertex(3, 0))
    assert np.allclose(h, [0 - 0, 1 - 0, -1 - 0])
    assert np.allclose(excess(EvolutionGame(IDENTITY2), centroid(2)), 0.0, atol=1e-15)


def test_replicator_rhs():
    g = EvolutionGame(RPS)
    assert np.max(np.abs(replicator_rhs(g, centroid(3)))) < 1e-15
    for i in range(3):
        assert np.max(np.abs(replicator_rhs(g, vertex(3, i)))) == 0.0
    g2 = EvolutionGame([[0, 3], [1, 0]])
    r = replicator_rhs(g2, SimplexState([F(1, 2), F(1, 2)]))
    assert np.allclose(r, [0.25, -0.25], atol=1e-15)
    with pytest.raises(errors.InvalidState):
        replicator_rhs(g2, [0.5, 0.6])


def test_tangency_property():
    g = EvolutionGame([[1, 4, -2], [0, 2, 3], [5, -1, 0]])
    for k in range(1, 10):
        a, b = k / 10.0, (10 - k) / 20.0
        p = [a, b, 1.0 - a - b]
        assert abs(float(np.sum(replicator_rhs(g, p)))) <= 1e-14


# ---------------------------------------------------------------------------
# integration


def test_integrate_vertex_is_constant():
    g = EvolutionGame(DOMINANCE)
    traj = integrate(g, vertex(2, 0), t_end=1.0, h=1e-2)
    assert np.all(states(traj) == states(traj)[0])


def test_integrate_rps_centroid_constant():
    g = EvolutionGame(RPS)
    traj = integrate(g, centroid(3), t_end=2.0, h=1e-3)
    assert np.max(np.abs(states(traj) - 1.0 / 3.0)) < 1e-10


def test_integrate_dominance_monotone():
    g = EvolutionGame(DOMINANCE)
    traj = integrate(g, [F(1, 2), F(1, 2)], t_end=30.0, h=1e-2)
    first = states(traj)[:, 0]
    assert np.all(np.diff(first) >= -1e-15)
    assert traj.final[0] > 1 - 1e-6


def test_integrate_validates_arguments():
    g = EvolutionGame(DOMINANCE)
    with pytest.raises(errors.InvalidArgument):
        integrate(g, centroid(2), t_end=1.0, h=0)
    with pytest.raises(errors.InvalidArgument):
        integrate(g, centroid(2), t_end=-1.0, h=1e-3)


def test_integrate_refuses_more_samples_than_the_cap(monkeypatch):
    from gtkit import evolution

    g = EvolutionGame(DOMINANCE)
    monkeypatch.setattr(evolution, "SAMPLE_CAP", 30)
    assert len(integrate(g, centroid(2), t_end=0.14, h=1e-2)) == 15  # 15 samples x 2 = 30
    for t_end, h in ((0.15, 1e-2), (1e300, 1e-300)):
        with pytest.raises(errors.SizeLimit):
            integrate(g, centroid(2), t_end=t_end, h=h)


def test_integration_divergence_detected():
    # violent payoffs and a long step push an RK4 stage far below the simplex
    g = EvolutionGame([[-1e7, -1e7], [0, 0]])
    with pytest.raises(errors.IntegrationDiverged):
        rk4_step(g, [1e-6, 1 - 1e-6], 1e-3)


def test_a_non_finite_step_is_refused_at_once():
    # inf - inf in an RK4 stage gives NaN, which passes the below-the-simplex test
    huge = ((1e308, -1e308, 0.0), (-1e308, 1e308, 0.0), (0.0, 0.0, 1e308))
    with pytest.raises(errors.IntegrationDiverged, match="not finite"):
        _step_list(huge, [1 / 3] * 3, 1e-3)
    with pytest.raises(errors.IntegrationDiverged, match="not finite"):
        integrate(EvolutionGame([list(row) for row in huge]), centroid(3), t_end=100.0)


def test_simplex_forward_invariance_and_face_invariance():
    g = EvolutionGame(RPS)
    p0 = SimplexState([F(2, 5), F(3, 5), F(0)])
    traj = integrate(g, p0, t_end=5.0, h=1e-3)
    assert np.max(np.abs(states(traj).sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(states(traj) >= 0)
    assert np.all(states(traj)[:, 2] == 0.0)  # faces are invariant, exactly


def test_column_shift_invariance():
    base = EvolutionGame([[1, 4, -2], [0, 2, 3], [5, -1, 0]])
    shifted_rows = [list(row) for row in [[1, 4, -2], [0, 2, 3], [5, -1, 0]]]
    for i in range(3):
        shifted_rows[i][1] += 7  # add a constant to one column
    shifted = EvolutionGame(shifted_rows)
    for k in range(1, 10):
        a, b = k / 11.0, (11 - k) / 23.0
        p = [a, b, 1.0 - a - b]
        d = np.subtract(replicator_rhs(base, p), replicator_rhs(shifted, p))
        assert np.max(np.abs(d)) <= 1e-12


def test_one_step_map_gradient_order():
    """Central differences of the one-step map reproduce the vector field at O(h^2)."""
    g = EvolutionGame([[1, 4, -2], [0, 2, 3], [5, -1, 0]])
    p = np.array([0.5, 0.3, 0.2])
    f = replicator_rhs(g, p)
    errs = []
    for h in (1e-2, 5e-3):
        central = (rk4_step(g, p, h) - rk4_step(g, p, -h)) / (2 * h)
        errs.append(np.max(np.abs(central - f)))
    assert errs[0] < 1e-5
    # halving h divides the O(h^2) residual by about 4
    assert errs[1] <= errs[0] / 3.0 + 1e-14


def test_symmetric_mean_fitness_nondecreasing():
    g = EvolutionGame([[1, 0], [0, 2]])
    traj = integrate(g, [F(2, 5), F(3, 5)], t_end=10.0, h=1e-2)
    means = np.array([mean_fitness(g, s) for s in traj.rows()])
    assert np.all(np.diff(means) >= -1e-12)


def test_power_product_rate_matches_finite_differences():
    g = EvolutionGame(RPS)
    alphas = [F(1, 3)] * 3
    traj = integrate(g, [F(1, 2), F(1, 4), F(1, 4)], t_end=1.0, h=1e-3)
    mid = 500
    p = traj.row(mid)
    analytic = power_product_rate(g, p, [float(a) for a in alphas])
    before = float(np.prod(states(traj)[mid - 1] ** np.array([1 / 3] * 3)))
    after = float(np.prod(states(traj)[mid + 1] ** np.array([1 / 3] * 3)))
    numeric = (after - before) / (2 * traj.h)
    assert abs(analytic - numeric) < 1e-6
    # the RPS invariant: V = prod p_i^(1/3) is conserved, so the rate is ~0
    assert abs(analytic) < 1e-12


# ---------------------------------------------------------------------------
# rest points


def test_interior_rest_points_rps():
    res = interior_rest_points(EvolutionGame(RPS))
    assert not res.continuum
    assert len(res.points) == 1
    assert res.points[0].exact == (F(1, 3), F(1, 3), F(1, 3))


def test_interior_rest_points_dominance_empty():
    res = interior_rest_points(EvolutionGame(DOMINANCE))
    assert res.points == [] and not res.continuum


def test_interior_rest_points_continuum():
    res = interior_rest_points(EvolutionGame([[0, 0], [0, 0]]))
    assert res.continuum


def test_is_nash_state():
    g = EvolutionGame(RPS)
    assert is_nash_state(g, centroid(3))
    gd = EvolutionGame(DOMINANCE)
    assert not is_nash_state(gd, vertex(2, 1))
    assert is_nash_state(gd, vertex(2, 0))


def test_transversal_eigenvalues():
    gd = EvolutionGame(DOMINANCE)
    assert transversal_eigenvalues(gd, vertex(2, 1)) == [(0, 1.0)]
    assert transversal_eigenvalues(gd, vertex(2, 0)) == [(1, -1.0)]
    g = EvolutionGame(RPS)
    vals = dict(transversal_eigenvalues(g, vertex(3, 0)))
    assert vals == {1: 1.0, 2: -1.0}
    assert not is_nash_state(g, vertex(3, 0))
    with pytest.raises(errors.InvalidArgument):
        transversal_eigenvalues(g, centroid(3))
    with pytest.raises(errors.InvalidArgument):
        transversal_eigenvalues(g, SimplexState([F(1, 2), F(1, 2), F(0)]))


def test_transversal_sign_classifies_nash():
    for matrix in (RPS, DOMINANCE, HAWK_DOVE, [[0, 2, 1], [1, 0, 2], [2, 1, 0]]):
        g = EvolutionGame(matrix)
        reports, _ = rest_point_reports(g)
        for rep in reports:
            if rep.classification == "boundary":
                all_nonpos = all(v <= 1e-10 for _, v in rep.transversal_eigenvalues)
                assert all_nonpos == rep.is_nash


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_exact_state_verdicts_agree_with_rest_point_reports(matrix):
    g = EvolutionGame(matrix)
    for rep in rest_point_reports(g)[0]:
        assert is_nash_state(g, rep.point) == rep.is_nash
        assert is_nash_state(g, list(rep.point.exact)) == rep.is_nash
        if rep.classification == "boundary":
            assert transversal_eigenvalues(g, rep.point) == list(rep.transversal_eigenvalues)
        else:
            with pytest.raises(errors.InvalidArgument, match="interior"):
                transversal_eigenvalues(g, rep.point)


def test_rest_point_reports_folk_audit():
    for matrix in (RPS, DOMINANCE, HAWK_DOVE, IDENTITY2):
        g = EvolutionGame(matrix)
        reports, _ = rest_point_reports(g)
        for rep in reports:
            # every rest point has a tiny residual by construction
            assert rep.residual <= 1e-9
            # interior rest points are Nash states (Folk theorem, testable half)
            if rep.classification == "interior":
                assert rep.is_nash


# ---------------------------------------------------------------------------
# ESS


def test_ess_hawk_dove_mixed():
    g = EvolutionGame(HAWK_DOVE)
    state = SimplexState([F(1, 2), F(1, 2)])
    assert is_nash_state(g, state)
    rep = ess_check(g, state)
    assert rep.is_ess and rep.method == "exact-face"


def test_ess_rps_centroid_false():
    g = EvolutionGame(RPS)
    rep = ess_check(g, centroid(3))
    assert not rep.is_ess and rep.method == "exact-face"


def test_ess_dominant_vertex():
    g = EvolutionGame(DOMINANCE)
    assert is_ess(g, vertex(2, 0))


def test_ess_requires_nash_state():
    g = EvolutionGame(DOMINANCE)
    with pytest.raises(errors.InvalidState):
        is_ess(g, vertex(2, 1))


def test_near_nash_vertex_is_decided_exactly():
    # strategy 2 gains 1e-11 against the vertex (1, 0), below any float tolerance of 1e-10
    g = EvolutionGame([["0", "0"], ["1/100000000000", "1"]])
    reports, _ = rest_point_reports(g)
    assert {r.point.exact: r.is_nash for r in reports} == {(1, 0): False, (0, 1): True}
    assert not is_nash_state(g, vertex(2, 0))
    assert not is_nash_state(g, [1.0, 0.0])  # a float state is rationalized exactly
    with pytest.raises(errors.InvalidState, match="Nash states only"):
        ess_check(g, vertex(2, 0))
    assert ess_check(g, vertex(2, 1)).is_ess


# payoffs near 1e11: binary64 puts the residual of an exact rest point far above 1e-9
LARGE_PAYOFFS = [
    [250412573173, 764576291551, -859280659516],
    [-741206449092, 672870155643, 37017667747],
    [-163977774053, -537050958314, 69849980556],
]


def test_rest_points_of_large_payoffs_are_decided_exactly():
    g = EvolutionGame(LARGE_PAYOFFS)
    reports, continua = rest_point_reports(g)
    assert continua == [] and len(reports) == 6
    assert max(r.residual for r in reports) > 1e-6
    assert [r.is_nash for r in reports] == [is_nash_state(g, r.point) for r in reports]
    assert [r.is_nash for r in reports] == [True, False, True, True, True, True]
    for r in reports[:5]:
        assert transversal_eigenvalues(g, r.point) == list(r.transversal_eigenvalues)


def test_transversal_eigenvalues_decide_an_exact_rest_point_exactly():
    g = EvolutionGame(LARGE_PAYOFFS)
    rest = [F(464565320036, 671760493649), F(0), F(207195173613, 671760493649)]
    # the exact margin (Ap)_1 - (Ap)_0, correctly rounded
    u = [sum(a * q for a, q in zip(row, rest)) for row in LARGE_PAYOFFS]
    assert u[0] == u[2] and float(u[1] - u[0]) == -409317194901.4565
    assert transversal_eigenvalues(g, SimplexState(rest)) == [(1, -409317194901.4565)]
    with pytest.raises(errors.InvalidArgument, match="not a rest point"):
        transversal_eigenvalues(g, SimplexState([F(1, 2), F(0), F(1, 2)]))
    # a float state is rationalized exactly: the binary64 rounding of the rest point
    # sums to 1 - 2^-54, and a float point one rounding away from it is no rest point
    with pytest.raises(errors.InvalidState, match="not an exact simplex point"):
        transversal_eigenvalues(g, [float(q) for q in rest])
    near = [float(rest[0]), 0.0, 1.0 - float(rest[0])]
    assert sum(map(F, near)) == 1
    with pytest.raises(errors.InvalidArgument, match="not a rest point"):
        transversal_eigenvalues(g, near)


def test_rest_point_reports_refuse_more_supports_than_the_cap(monkeypatch):
    from gtkit import evolution

    monkeypatch.setattr(evolution, "SUPPORT_CAP", 6)
    assert len(rest_point_reports(EvolutionGame(IDENTITY2))[0]) == 3  # 3 supports
    with pytest.raises(errors.SizeLimit):
        rest_point_reports(EvolutionGame(RPS))  # 7 supports


def test_rest_point_reports_refuse_non_finite_diagnostics():
    g = EvolutionGame([["1e308", "-1e308", "0"], ["-1e308", "1e308", "0"], ["0", "0", "1e308"]])
    with pytest.raises(errors.InvalidArgument, match="not finite"):
        rest_point_reports(g)


def test_ess_check_takes_exact_states_only():
    # a float state is the exact point of its binary64 values
    g = EvolutionGame(HAWK_DOVE)
    assert ess_check(g, SimplexState([0.5, 0.5])) == ess_check(g, SimplexState([F(1, 2), F(1, 2)]))
    assert ess_check(g, [0.5, 0.5]).is_ess
    with pytest.raises(errors.InvalidState, match="not an exact simplex point"):
        ess_check(g, [0.1, 0.9])  # the binary64 values sum to 1 + 2^-55


def test_ess_coordination_game_vertices():
    g = EvolutionGame(IDENTITY2)
    assert is_ess(g, vertex(2, 0))
    assert is_ess(g, vertex(2, 1))
    # the interior mixed equilibrium of a coordination game is invadable
    assert not is_ess(g, SimplexState([F(1, 2), F(1, 2)]))


def ess_numeric_sampler(matrix, p, grid=40):
    """Independent ESS oracle: sample mixed best replies, test the invasion sign.

    Inconclusive only when margins are within sampling tolerance; the battery
    below uses games with clear margins.
    """
    A = np.array(matrix, dtype=float)
    p = np.array(p, dtype=float)
    n = A.shape[0]
    u = A @ p
    top = u.max()
    pts = []
    if n == 2:
        for k in range(grid + 1):
            x = np.array([k / grid, 1 - k / grid])
            pts.append(x)
    else:
        for i in range(grid + 1):
            for j in range(grid + 1 - i):
                x = np.array([i / grid, j / grid, 1 - (i + j) / grid])
                pts.append(x)
    for x in pts:
        if abs(float(x @ A @ p) - top) > 1e-9:
            continue  # not a best reply
        if np.max(np.abs(x - p)) < 1e-9:
            continue  # the state itself
        if float(x @ A @ x) >= float(p @ A @ x) - 1e-12:
            return False  # an alternative best reply invades (weakly)
    return True


@pytest.mark.parametrize(
    "matrix,state,expected",
    [
        (HAWK_DOVE, [F(1, 2), F(1, 2)], True),
        (RPS, [F(1, 3)] * 3, False),
        (IDENTITY2, [F(1, 2), F(1, 2)], False),
        (DOMINANCE, [F(1), F(0)], True),
        ([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], [F(1, 3)] * 3, True),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [F(1, 3)] * 3, False),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [F(1), F(0), F(0)], True),
    ],
)
def test_ess_exact_decision_matches_numeric_sampler(matrix, state, expected):
    g = EvolutionGame(matrix)
    st = SimplexState(state)
    rep = ess_check(g, st)
    assert rep.method == "exact-face"
    assert rep.is_ess == expected
    assert ess_numeric_sampler(matrix, [float(q) for q in st.p]) == expected


def test_ess_sampled_mode_for_large_faces():
    # 4-strategy zero matrix: every state is Nash, nothing is an ESS
    g = EvolutionGame([[0] * 4 for _ in range(4)])
    rep = ess_check(g, centroid(4))
    assert rep.method.startswith("sampled-")
    assert not rep.is_ess


# ---------------------------------------------------------------------------
# time averages, Fisher identity, recurrence


def test_time_average_constant_and_midpoint():
    const = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([[0.25, 0.75]] * 3).ravel(), 1.0)
    assert np.allclose(time_average(const), [0.25, 0.75])
    two = Trajectory(np.array([0.0, 1.0]), np.array([[0.2, 0.8], [0.4, 0.6]]).ravel(), 1.0)
    assert np.allclose(time_average(two), [0.3, 0.7])


def test_time_average_rps_orbit():
    g = EvolutionGame(RPS)
    traj = integrate(g, [F(1, 2), F(1, 4), F(1, 4)], t_end=200.0, h=1e-3)
    avg = time_average(traj)
    assert np.max(np.abs(np.asarray(avg) - 1.0 / 3.0)) < 1e-2


def test_fisher_rate_identity():
    g = EvolutionGame([[1, 0], [0, 1]])
    assert fisher_rate_check(g, SimplexState([F(1, 4), F(3, 4)])) <= 1e-10
    assert fisher_rate_check(g, vertex(2, 0)) <= 1e-15
    sym3 = EvolutionGame([[F(1, 2), 2, -1], [2, F(1, 3), 4], [-1, 4, F(3, 7)]])
    assert fisher_rate_check(sym3, centroid(3)) <= 1e-10
    with pytest.raises(errors.UnsupportedMatrix):
        fisher_rate_check(EvolutionGame([[0, 1], [2, 0]]), centroid(2))


def test_detect_recurrence_convergent():
    g = EvolutionGame(DOMINANCE)
    traj = integrate(g, [F(1, 2), F(1, 2)], t_end=40.0, h=1e-2)
    assert detect_recurrence(traj).kind == "convergent"


def test_detect_recurrence_rps_orbit():
    g = EvolutionGame(RPS)
    traj = integrate(g, [F(1, 2), F(1, 4), F(1, 4)], t_end=100.0, h=1e-3)
    rep = detect_recurrence(traj)
    assert rep.kind == "recurrent"
    assert rep.period and rep.period > 1.0


def test_detect_recurrence_constant_is_convergent():
    values = np.array([[0.5, 0.5]] * 50).ravel()
    traj = Trajectory(np.arange(50, dtype=float), values, 1.0)
    assert detect_recurrence(traj).kind == "convergent"


def test_detect_recurrence_needs_data():
    values = np.array([[0.5, 0.5]] * 5).ravel()
    traj = Trajectory(np.arange(5, dtype=float), values, 1.0)
    with pytest.raises(errors.InsufficientData):
        detect_recurrence(traj)


def test_trajectory_rows_and_columns_are_slices_of_one_array():
    t = [0.0, 1.0]
    traj = Trajectory(t, [0.5, 0.5, 0.25, 0.75], 1.0)
    assert traj.n == 2 and len(traj) == 2
    assert traj.row(-1) == traj.final == [0.25, 0.75]
    assert list(traj.rows()) == [[0.5, 0.5], [0.25, 0.75]]
    assert traj.column(1).tolist() == [0.5, 0.75]
    with pytest.raises(errors.InvalidArgument, match="matching"):
        Trajectory(t, [0.5, 0.5, 1.0], 1.0)
    with pytest.raises(errors.InvalidArgument, match="increasing"):
        Trajectory([0.0, 0.0], [0.5, 0.5, 0.5, 0.5], 1.0)
    for bad in ([0.5, 0.5, -0.5, 1.5], [0.5, 0.5, 0.6, 0.6],
                [math.nan, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, math.nan]):
        with pytest.raises(errors.InvalidState, match="left the simplex"):
            Trajectory(t, bad, 1.0)


def test_trajectory_csv_format():
    traj = Trajectory(np.array([0.0, 0.5]), np.array([[1 / 3, 2 / 3], [0.25, 0.75]]).ravel(), 0.5)
    rows = traj.csv_rows()
    assert rows[0] == "t,p_1,p_2"
    assert rows[1].split(",")[1] == f"{1 / 3:.17g}"
    # 17 significant digits round-trip binary64 exactly
    assert float(rows[1].split(",")[1]) == 1 / 3


# ---------------------------------------------------------------------------
# known defect of the sampled grid on american-values-10

AV_NASH = [F(0), F(31, 85), F(2, 17), F(0), F(0), F(3, 85), F(0), F(0), F(31, 85), F(2, 17)]
AV_INVADER = [F(0), F(603, 1700), F(2, 17), F(0), F(0), F(3, 85), F(0), F(0), F(637, 1700), F(2, 17)]


def test_american_values_nash_state_has_an_equal_invader():
    A = gamefile.load_scenario("american-values-10").game.exact
    p, x = AV_NASH, AV_INVADER

    def form(a, b):
        return sum(a[i] * A[i][j] * b[j] for i in range(10) for j in range(10))

    assert sum(x) == 1 and x != p
    best = max(sum(A[i][j] * p[j] for j in range(10)) for i in range(10))
    assert form(x, p) == form(p, p) == best  # x is a best reply to p
    assert form(p, x) == form(x, x)  # ... and does as well against itself: p is no ESS


@pytest.mark.xfail(
    strict=True,
    reason="the sampled grid holds no point of the invader's null direction; "
    "an exact ESS test on large faces fixes it",
)
def test_ess_check_rejects_american_values_nash_state():
    g = gamefile.load_scenario("american-values-10").game
    assert ess_check(g, SimplexState(AV_NASH)).is_ess is False
