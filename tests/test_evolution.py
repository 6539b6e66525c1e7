"""Tests for replicator dynamics, rest points, ESS and recurrence detection."""

import math
from fractions import Fraction

import numpy as np
import pytest

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
    rows = tuple(tuple(row) for row in g.matrix.tolist())
    return np.asarray(_step_list(rows, np.asarray(p, dtype=float).tolist(), h))


def centroid(n):
    return SimplexState([F(1, n)] * n)


def vertex(n, i):
    return SimplexState([F(int(j == i)) for j in range(n)])


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
    assert np.all(traj.states == traj.states[0])


def test_integrate_rps_centroid_constant():
    g = EvolutionGame(RPS)
    traj = integrate(g, centroid(3), t_end=2.0, h=1e-3)
    assert np.max(np.abs(traj.states - 1.0 / 3.0)) < 1e-10


def test_integrate_dominance_monotone():
    g = EvolutionGame(DOMINANCE)
    traj = integrate(g, [F(1, 2), F(1, 2)], t_end=30.0, h=1e-2)
    first = traj.states[:, 0]
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


def test_simplex_forward_invariance_and_face_invariance():
    g = EvolutionGame(RPS)
    p0 = SimplexState([F(2, 5), F(3, 5), F(0)])
    traj = integrate(g, p0, t_end=5.0, h=1e-3)
    assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(traj.states >= 0)
    assert np.all(traj.states[:, 2] == 0.0)  # faces are invariant, exactly


def test_column_shift_invariance():
    base = EvolutionGame([[1, 4, -2], [0, 2, 3], [5, -1, 0]])
    shifted_rows = [list(row) for row in [[1, 4, -2], [0, 2, 3], [5, -1, 0]]]
    for i in range(3):
        shifted_rows[i][1] += 7  # add a constant to one column
    shifted = EvolutionGame(shifted_rows)
    for k in range(1, 10):
        a, b = k / 11.0, (11 - k) / 23.0
        p = [a, b, 1.0 - a - b]
        d = replicator_rhs(base, p) - replicator_rhs(shifted, p)
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
    means = np.array([mean_fitness(g, s) for s in traj.states])
    assert np.all(np.diff(means) >= -1e-12)


def test_power_product_rate_matches_finite_differences():
    g = EvolutionGame(RPS)
    alphas = [F(1, 3)] * 3
    traj = integrate(g, [F(1, 2), F(1, 4), F(1, 4)], t_end=1.0, h=1e-3)
    mid = 500
    p = traj.states[mid]
    analytic = power_product_rate(g, p, [float(a) for a in alphas])
    before = float(np.prod(traj.states[mid - 1] ** np.array([1 / 3] * 3)))
    after = float(np.prod(traj.states[mid + 1] ** np.array([1 / 3] * 3)))
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
    # strategy 2 gains 1e-11 against the vertex (1, 0), within the float tolerance
    g = EvolutionGame([["0", "0"], ["1/100000000000", "1"]])
    reports, _ = rest_point_reports(g)
    assert {r.point.exact: r.is_nash for r in reports} == {(1, 0): False, (0, 1): True}
    assert not is_nash_state(g, vertex(2, 0))
    assert is_nash_state(g, SimplexState([1.0, 0.0]))  # a float state keeps the tolerance
    with pytest.raises(errors.InvalidState, match="Nash states only"):
        ess_check(g, vertex(2, 0))
    assert ess_check(g, vertex(2, 1)).is_ess


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
    const = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([[0.25, 0.75]] * 3), 1.0)
    assert np.allclose(time_average(const), [0.25, 0.75])
    two = Trajectory(np.array([0.0, 1.0]), np.array([[0.2, 0.8], [0.4, 0.6]]), 1.0)
    assert np.allclose(time_average(two), [0.3, 0.7])


def test_time_average_rps_orbit():
    g = EvolutionGame(RPS)
    traj = integrate(g, [F(1, 2), F(1, 4), F(1, 4)], t_end=200.0, h=1e-3)
    avg = time_average(traj)
    assert np.max(np.abs(avg - 1.0 / 3.0)) < 1e-2


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
    states = np.array([[0.5, 0.5]] * 50)
    traj = Trajectory(np.arange(50, dtype=float), states, 1.0)
    assert detect_recurrence(traj).kind == "convergent"


def test_detect_recurrence_needs_data():
    states = np.array([[0.5, 0.5]] * 5)
    traj = Trajectory(np.arange(5, dtype=float), states, 1.0)
    with pytest.raises(errors.InsufficientData):
        detect_recurrence(traj)


def test_trajectory_csv_format():
    traj = Trajectory(np.array([0.0, 0.5]), np.array([[1 / 3, 2 / 3], [0.25, 0.75]]), 0.5)
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
