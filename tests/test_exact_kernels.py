"""The integer exact kernels against their Fraction reference implementations.

`solve_exact` eliminates on integers and the sampled ESS grid tests signs of an
integer quadratic form; the rational algorithms they replaced are kept here as
oracles, and both must give identical statuses, solutions and verdicts.
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtkit import gamefile
from gtkit._linsolve import solve_exact
from gtkit.evolution import (
    _interior_critical_points_3,
    _psi_coefficients,
    _sampled_face_is_ess,
    rest_point_reports,
)

F = Fraction


# ---------------------------------------------------------------------------
# reference implementations (rational arithmetic throughout)


def solve_exact_fraction(rows, rhs):
    """Textbook Gauss-Jordan over Fractions: pivot on the first nonzero entry at or below r."""
    m = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    n = len(aug[0]) - 1 if m else 0
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return "none", None
    x = [Fraction(0)] * n
    for row_i, c in enumerate(pivot_cols):
        x[c] = aug[row_i][n]
    if len(pivot_cols) < n:
        return "many", x
    return "unique", x


def psi_value(c, M, x):
    """psi(x) = c . x - x^T M x evaluated directly."""
    lin = sum(ck * xk for ck, xk in zip(c, x))
    quad = sum(M[k][l] * x[k] * x[l] for k in range(len(x)) for l in range(len(x)))
    return lin - quad


def face_grid(m, resolution):
    """Barycentric grid x = k/resolution on an (m-1)-face, in the kernel's order."""
    for combo in itertools.combinations(range(resolution + m - 1), m - 1):
        parts = []
        prev = -1
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + m - 2 - prev)
        yield tuple(Fraction(k, resolution) for k in parts)


def sampled_face_is_ess_fraction(c, M, x_star, resolution):
    for x in face_grid(len(c), resolution):
        if x == x_star:
            continue
        if psi_value(c, M, x) <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# solve_exact

small_rationals = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
)


@st.composite
def linear_systems(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(small_rationals, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(small_rationals, min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        # a duplicated (scaled) row, with a consistent or an inconsistent right-hand side
        i, j = draw(st.permutations(range(m)))[:2]
        k = draw(st.sampled_from([F(1), F(-2), F(3, 7)]))
        rows[j] = [k * v for v in rows[i]]
        rhs[j] = k * rhs[i] + draw(st.sampled_from([F(0), F(0), F(1), F(-5, 3)]))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_exact_matches_fraction_elimination(system):
    rows, rhs = system
    assert solve_exact(rows, rhs) == solve_exact_fraction(rows, rhs)


def test_solve_exact_accepts_ints_and_strings():
    rows, rhs = [[2, "1/2"], [4, 1]], ["3/4", "3/2"]
    assert solve_exact(rows, rhs) == solve_exact_fraction(rows, rhs) == ("many", [F(3, 8), 0])
    assert solve_exact([[1, 1], [1, -1]], [2, 0]) == ("unique", [F(1), F(1)])
    assert solve_exact([[1, 1], [2, 2]], [1, 3]) == ("none", None)


# ---------------------------------------------------------------------------
# sampled ESS grid


@st.composite
def face_problems(draw):
    m = draw(st.integers(2, 5))
    resolution = draw(st.sampled_from([4, 8]))
    entries = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    M = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(m)]
    # x_star on the grid (so the kernel must skip it) or off it
    denominator = draw(st.sampled_from([resolution, resolution // 2, 3 * resolution]))
    cuts = sorted(draw(st.lists(st.integers(0, denominator), min_size=m - 1, max_size=m - 1)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, denominator])]
    x_star = tuple(F(k, denominator) for k in parts)
    if draw(st.booleans()):
        # the ESS form at a state: c = x_star^T M, so psi(x_star) = 0
        c = [sum(x_star[i] * M[i][k] for i in range(m)) for k in range(m)]
    else:
        c = draw(st.lists(entries, min_size=m, max_size=m))
    return c, M, x_star, resolution


@settings(max_examples=200, deadline=None)
@given(face_problems())
def test_sampled_grid_matches_fraction_grid(problem):
    c, M, x_star, resolution = problem
    assert _sampled_face_is_ess(c, M, x_star, resolution) == sampled_face_is_ess_fraction(
        c, M, x_star, resolution
    )


def test_sampled_grid_matches_fraction_grid_on_american_values():
    g = gamefile.load_scenario("american-values-10").game
    reports, _ = rest_point_reports(g)
    faces = 0
    for rep in reports:
        if not rep.is_nash:
            continue
        p = rep.point.exact
        u = [sum(a * q for a, q in zip(row, p)) for row in g.exact]
        face = [i for i in range(g.n) if u[i] == max(u)]
        if len(face) < 4:
            continue
        faces += 1
        c, M = _psi_coefficients(g.exact, p, face)
        x_star = tuple(p[i] for i in face)
        assert _sampled_face_is_ess(c, M, x_star, 8) == sampled_face_is_ess_fraction(
            c, M, x_star, 8
        )
    assert faces == 4


# ---------------------------------------------------------------------------
# exact face analysis


@settings(max_examples=200, deadline=None)
@example(  # a line of critical points through the face, psi = -17/8 along it
    [F(-2), F(-2), F(0)], [[F(-1), F(0), F(1)], [F(1), F(0), F(1)], [F(2), F(1), F(2)]]
)
@given(
    st.lists(st.builds(F, st.integers(-2, 2), st.integers(1, 2)), min_size=3, max_size=3),
    st.lists(
        st.lists(st.builds(F, st.integers(-2, 2), st.integers(1, 2)), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
)
def test_interior_critical_point_values_are_psi(c, M):
    for value, witness in _interior_critical_points_3(c, M):
        if witness[0] == "line":
            _, point, direction = witness
            assert psi_value(c, M, point) == value
            # psi is constant along a line of critical points
            shifted = tuple(q + d for q, d in zip(point, direction))
            assert psi_value(c, M, shifted) == value
        else:
            assert sum(witness) == 1
            assert psi_value(c, M, witness) == value
