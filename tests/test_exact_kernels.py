"""The exact kernels against the reference implementations they replaced.

`solve_exact` eliminates on integer rows, the sampled ESS grid decides each
grid line from the closed-form minimum of an integer quadratic, the exact
ESS face decision enumerates KKT supports, and support enumeration, rest
points and the ESS kernel share one `equalizer` system on blocks of the
games' integer tables (the kernel tests scale their rational problems to
integers first); the rational algorithms, the vertex/edge/critical-line geometry
and the per-caller indifference systems they replaced are kept here as
oracles, each solving with this file's own `solve_exact_fraction` rather than
the kernel it checks, and both must give identical statuses, solutions and
verdicts.  The line-by-line grid is also held to the point-by-point integer
walk it replaced, the bottom-up minor table of support enumeration to
`equalizer` on every block and to Leibniz determinants, and the bordered
walk over principal blocks of rest points and the ESS face to `equalizer` on
every block.
The compiled RK4 run and the trajectory CSV formatter are
held to their loop forms bit for bit, the time average and the recurrence
test on the flat trajectory to the numpy forms they replaced, and the
quantum payoff surface to the numpy grid and the Fraction loop it replaced
(the exact surface also to a count of the Fractions it builds), and the 2x2
quantum core on ints (the weighted game, its closed-form payoff and its
outcome distribution) to the Fraction forms and `expected_payoff` it replaced.
The Pareto maxima scan and its sweep for 2 and 3 players are held to the pairwise dominance test, the
per-context maxima of `pure_nash`, the deviation walks and strategy values of
`games` to the per-profile loops they replaced,
the congestion section of `gt analyze` to `best_response_dynamics` from every
start, the extension product and field norm, which multiply by the integer mu,
to the forms that embedded mu as a p-adic number on every call, and Nash
bargaining, one clipped loop over the hull's cyclic edges, to the vertex pass
and separately built edge list it replaced.
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtkit import _linsolve, cli, errors, gamefile, games, padic, quantum
from gtkit._linsolve import equalizer, principal_equalizers, solve_exact
from gtkit.evolution import (
    CHUNK_STEPS,
    CLAMP,
    DIVERGE_TOL,
    EvolutionGame,
    InteriorRestPoints,
    RecurrenceReport,
    RestPointReport,
    RunSummary,
    SimplexState,
    Trajectory,
    _face_is_ess,
    _psi_form,
    _sampled_face_is_ess,
    _step_source,
    csv_header,
    detect_recurrence,
    ess_check,
    integrate,
    interior_rest_points,
    is_nash_state,
    replicator_rhs,
    rest_point_reports,
    run_chunks,
    time_average,
    transversal_eigenvalues,
)
from gtkit.games import (
    BargainingProblem,
    BRDResult,
    CorrelatedCheck,
    CycleReport,
    StrategicGame,
    _bordered_minors,
    _convex_hull,
    _support_equalizers,
    as_fraction,
    nash_bargaining,
    pareto_optimal_profiles,
    support_enumeration,
    validate_mixed,
)
from gtkit.quantum import (
    PROFILES,
    ClassicalForm,
    payoff_surface_rows,
)

F = Fraction


# ---------------------------------------------------------------------------
# rational problems scaled to the integers the kernels take


def lcm_scaled(matrix):
    """``(D, rows)``: the rational matrix times the lcm D > 0 of its entries'
    denominators, as integer rows."""
    scale = math.lcm(*(F(v).denominator for row in matrix for v in row))
    return scale, [[int(F(v) * scale) for v in row] for row in matrix]


def fraction_form(c, M):
    """S = Q + Q^T for psi(x) = x^T Q x, Q = c 1^T - M, in Fractions."""
    return [[ck + cl - M[k][l] - M[l][k] for l, cl in enumerate(c)] for k, ck in enumerate(c)]


def integer_face(c, M, x_star):
    """A Fraction face problem (c, M, x_star) as the ESS kernels take it: the form
    S of `fraction_form` times the lcm of its denominators (psi times a positive
    constant), and x_star, which sums to 1, as integer weights over its common
    denominator."""
    _, S = lcm_scaled(fraction_form(c, M))
    _, (xi,) = lcm_scaled([x_star])
    return S, tuple(xi)


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


# The exact ESS decision on faces of at most 3 strategies that `_face_is_ess`
# replaced: candidate minima at vertices, edge-interior and face-interior
# critical points of psi.


def _edge_coefficients(c, M, k, l):
    """psi restricted to the edge (1-t) e_k + t e_l as quad*t^2 + lin*t + const."""
    s_kl = M[k][l] + M[l][k]
    const = c[k] - M[k][k]
    lin = (c[l] - c[k]) - (s_kl - 2 * M[k][k])
    quad = -(M[k][k] + M[l][l] - s_kl)
    return quad, lin, const


def _ess_exact_face(c, M, x_star):
    """Exact decision: min psi over the face simplex is 0 and attained only at x_star.

    Candidate minima: face vertices, edge-interior critical points, and
    face-interior critical points (quadratics are constant on degenerate
    critical sets).  Supports faces of dimension <= 2.
    """
    m = len(c)
    witnesses = []  # (value, point or ("line", data))
    for k in range(m):
        x = tuple(Fraction(int(k == i)) for i in range(m))
        witnesses.append((c[k] - M[k][k], x))
    for k in range(m):
        for l in range(k + 1, m):
            quad, lin, const = _edge_coefficients(c, M, k, l)
            if quad == 0:
                continue
            t = -lin / (2 * quad)
            if 0 < t < 1:
                x = tuple(
                    (1 - t) if i == k else (t if i == l else Fraction(0)) for i in range(m)
                )
                witnesses.append((quad * t * t + lin * t + const, x))
    if m == 3:
        witnesses.extend(_interior_critical_points_3(c, M))

    min_val = min(v for v, _ in witnesses)
    if min_val < 0:
        return False
    if min_val > 0:
        # psi(x_star) = 0 always, so min over the face cannot exceed 0
        raise AssertionError("invasion margin positive at the equilibrium itself")
    for value, witness in witnesses:
        if value != 0:
            continue
        if isinstance(witness, tuple) and witness and witness[0] == "line":
            _, point, direction = witness
            if _line_meets_simplex_beyond(point, direction, x_star):
                return False
            continue
        if witness != x_star:
            return False
    return True


def _interior_critical_points_3(c, M):
    """Critical points of psi on the interior of a 2-simplex face (m = 3)."""
    s12 = M[0][1] + M[1][0]
    s13 = M[0][2] + M[2][0]
    s23 = M[1][2] + M[2][1]
    const = c[2] - M[2][2]
    a1 = c[0] - c[2] - s13 + 2 * M[2][2]
    a2 = c[1] - c[2] - s23 + 2 * M[2][2]
    a11 = -M[0][0] - M[2][2] + s13
    a22 = -M[1][1] - M[2][2] + s23
    a12 = -s12 - 2 * M[2][2] + s13 + s23

    def tilde(u, v):
        return const + a1 * u + a2 * v + a11 * u * u + a22 * v * v + a12 * u * v

    rows = [[2 * a11, a12], [a12, 2 * a22]]
    rhs = [-a1, -a2]
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = []
    if det != 0:
        status, sol = solve_exact_fraction(rows, rhs)
        u, v = sol
        if u >= 0 and v >= 0 and u + v <= 1:
            out.append((tilde(u, v), (u, v, 1 - u - v)))
        return out
    status, sol = solve_exact_fraction(rows, rhs)
    if status == "none":
        return out
    # a line (or plane) of critical points; psi is constant along it
    u0, v0 = sol
    if rows[0] == [0, 0] and rows[1] == [0, 0]:
        # gradient constant: critical only if a1 = a2 = 0, value covered by vertices
        return out
    # direction orthogonal to the (rank-1) gradient system
    gu, gv = (rows[0] if rows[0] != [0, 0] else rows[1])
    direction = (-gv, gu)
    value = tilde(u0, v0)
    out.append((value, ("line", (u0, v0, 1 - u0 - v0), (direction[0], direction[1], -direction[0] - direction[1]))))
    return out


def _line_meets_simplex_beyond(point, direction, x_star):
    """Does {point + t*direction} intersect the simplex at any point != x_star?"""
    lo, hi = None, None  # open = unbounded
    for pk, dk in zip(point, direction):
        if dk == 0:
            if pk < 0:
                return False
        else:
            bound = -pk / dk
            if dk > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None and lo > hi:
        return False
    if lo is None or hi is None or lo < hi:
        return True  # a whole segment of critical points inside the simplex
    t = lo
    pt = tuple(pk + t * dk for pk, dk in zip(point, direction))
    return pt != x_star


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


# The point-by-point integer walk that the line-by-line `_sampled_face_is_ess`
# replaced, one quadratic form per grid point.


def sampled_walk_reference(c, M, x_star, resolution):
    """psi > 0 at every grid point k/resolution of the face other than x_star.

    On the face simplex c . x = x^T (c 1^T) x, so psi(x) = x^T Q x with
    Q = c 1^T - M.  Scaled by the lcm D of its denominators, Q becomes the
    integer matrix Qi, and psi(k/R) = k^T Qi k / (D R^2): the sign test runs
    on integers.  Compositions k of R are walked in a fixed order and the
    walk stops at the first point with psi <= 0.
    """
    m = len(c)
    _, Qi = lcm_scaled([[ck - mkl for mkl in row] for ck, row in zip(c, M)])
    on_grid = [q * resolution for q in x_star]
    skip = [int(q) for q in on_grid] if all(q.denominator == 1 for q in on_grid) else None
    bars = resolution + m - 1
    for combo in itertools.combinations(range(bars), m - 1):
        k = [b - a - 1 for a, b in zip((-1, *combo), (*combo, bars))]
        if k == skip:
            continue
        if sum(ki * sum(map(mul, row, k)) for ki, row in zip(k, Qi) if ki) <= 0:
            return False
    return True


# The indifference systems that `_linsolve.equalizer` replaced: support
# enumeration, face rest points and the lambda-augmented ESS KKT rows.


def support_enumeration_reference(game, max_support=None):
    """Equilibria of a 2-player game by exact support enumeration.

    Enumerates equal-size support pairs (a nondegenerate game has no
    equilibrium with unequal supports), solves the rational indifference
    system for each, and keeps solutions with positive support probabilities
    and no profitable outside deviation.  Returns the full equilibrium list
    for nondegenerate games, sorted canonically.
    """
    if game.n_players != 2:
        raise errors.UnsupportedShape("support enumeration handles 2-player games only")
    m, n = game.shape
    if m > 5 or n > 5:
        raise errors.SizeLimit("support enumeration is limited to 5 strategies per player")
    if max_support is None:
        max_support = min(m, n)
    max_support = max(1, min(max_support, m, n))

    def u(player, i, j):
        return game.payoff((i, j))[player]

    found = set()
    for k in range(1, max_support + 1):
        for sup1 in itertools.combinations(range(m), k):
            for sup2 in itertools.combinations(range(n), k):
                sigma2 = _solve_indifference(sup1, sup2, lambda i, j: u(0, i, j), (sup1, sup2))
                if sigma2 is None:
                    continue
                sigma1 = _solve_indifference(sup2, sup1, lambda j, i: u(1, i, j), (sup1, sup2))
                if sigma1 is None:
                    continue
                if any(q <= 0 for q in sigma1.values()) or any(q <= 0 for q in sigma2.values()):
                    continue
                v1 = sum(sigma2[j] * u(0, sup1[0], j) for j in sup2)
                v2 = sum(sigma1[i] * u(1, i, sup2[0]) for i in sup1)
                if any(sum(sigma2[j] * u(0, i, j) for j in sup2) > v1 for i in range(m) if i not in sup1):
                    continue
                if any(sum(sigma1[i] * u(1, i, j) for i in sup1) > v2 for j in range(n) if j not in sup2):
                    continue
                full1 = tuple(sigma1.get(i, Fraction(0)) for i in range(m))
                full2 = tuple(sigma2.get(j, Fraction(0)) for j in range(n))
                found.add((full1, full2))
    return [tuple(m_) for m_ in sorted(found)]


def _solve_indifference(own_support, opp_support, u, pair):
    """Opponent mixture on `opp_support` equalizing `u` across `own_support`.

    Returns {index: Fraction} on success, None if inconsistent; raises
    DegenerateGame on a consistent underdetermined system.
    """
    base = own_support[0]
    rows, rhs = [], []
    for i in own_support[1:]:
        rows.append([u(base, j) - u(i, j) for j in opp_support])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * len(opp_support))
    rhs.append(Fraction(1))
    status, sol = solve_exact_fraction(rows, rhs)
    if status == "none":
        return None
    if status == "many":
        raise errors.DegenerateGame(
            f"solution continuum on support pair {pair}: the game is degenerate"
        )
    return dict(zip(opp_support, sol))


def _face_rest_point(exact, support):
    """Exact rest point of the subgame on `support`; (coords | None, continuum)."""
    m = len(support)
    if m == 1:
        return (Fraction(1),), False
    rows, rhs = [], []
    base = support[0]
    for i in support[1:]:
        rows.append([exact[base][j] - exact[i][j] for j in support])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * m)
    rhs.append(Fraction(1))
    status, sol = solve_exact_fraction(rows, rhs)
    if status == "unique":
        return tuple(sol), False
    if status == "many":
        return None, True
    return None, False


def interior_rest_points_reference(g):
    """Exact solutions of (Ap)_1 = ... = (Ap)_n, sum p = 1 with all p_i > 0.

    The continuum flag reports an underdetermined system (a face of rest
    points rather than isolated ones).
    """
    coords, continuum = _face_rest_point(g.exact, tuple(range(g.n)))
    points = []
    if coords is not None and all(q > 0 for q in coords):
        points.append(SimplexState(coords))
    return InteriorRestPoints(points, continuum)


def rest_point_reports_reference(g):
    """Isolated rest points on every face, with Nash and transversal diagnostics.

    Returns (reports, continuum_supports); supports whose indifference system
    is underdetermined are listed rather than expanded.
    """
    reports = []
    continua = []
    for m in range(1, g.n + 1):
        for support in itertools.combinations(range(g.n), m):
            coords, continuum = _face_rest_point(g.exact, support)
            if continuum:
                continua.append(support)
                continue
            if coords is None or any(q <= 0 for q in coords):
                continue
            full = [Fraction(0)] * g.n
            for idx, q in zip(support, coords):
                full[idx] = q
            state = SimplexState(full)
            residual = float(np.max(np.abs(replicator_rhs(g, state))))
            interior = m == g.n
            trans = ()
            if not interior:
                trans = tuple(transversal_eigenvalues(g, state))
            reports.append(
                RestPointReport(
                    point=state,
                    residual=residual,
                    classification="interior" if interior else "boundary",
                    is_nash=is_nash_state(g, state),
                    transversal_eigenvalues=trans,
                )
            )
    return reports, continua


def _face_is_ess_kkt(c, M, x_star):
    """`_face_is_ess` with lambda as an unknown: S_J w - lam 1 = 0, 1^T w = 1."""
    m = len(c)
    S = [[c[k] + c[l] - M[k][l] - M[l][k] for l in range(m)] for k in range(m)]
    for size in range(1, m + 1):
        for J in itertools.combinations(range(m), size):
            rows = [[S[k][l] for l in J] + [-1] for k in J]
            rows.append([1] * size + [0])
            status, sol = solve_exact_fraction(rows, [0] * size + [1])
            if status != "unique" or any(w <= 0 for w in sol[:size]):
                continue
            lam = sol[size]
            if lam < 0:
                return False
            if lam == 0:
                w = dict(zip(J, sol))
                if tuple(w.get(k, 0) for k in range(m)) != x_star:
                    return False
    return True


# ---------------------------------------------------------------------------
# reference implementation of the Pareto set (every pair of profiles)


def pareto_optimal_profiles_pairwise(game):
    """Profiles not weakly dominated (with one strict improvement) by any other profile."""
    table = {s: game.payoff(s) for s in game.profiles()}
    out = set()
    for s, u in table.items():
        dominated = any(
            all(v[i] >= u[i] for i in range(game.n_players))
            and any(v[i] > u[i] for i in range(game.n_players))
            for t, v in table.items()
            if t != s
        )
        if not dominated:
            out.add(s)
    return out


# ---------------------------------------------------------------------------
# reference implementations of the unilateral-deviation walks (one payoff lookup per step)


def pure_nash_reference(game):
    """All pure Nash equilibria (weak inequality) by full enumeration."""
    out = set()
    for profile in game.profiles():
        u = game.payoff(profile)
        stable = True
        for i in range(game.n_players):
            for dev in range(game.shape[i]):
                if dev == profile[i]:
                    continue
                alt = profile[:i] + (dev,) + profile[i + 1:]
                if game.payoff(alt)[i] > u[i]:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            out.add(profile)
    return out


def expected_payoff_reference(game, mixed):
    """Expected payoff vector under independent mixing, exact."""
    mixed = validate_mixed(game, mixed)
    totals = [Fraction(0)] * game.n_players
    for profile in game.profiles():
        prob = Fraction(1)
        for j, s in enumerate(profile):
            prob *= mixed[j][s]
            if prob == 0:
                break
        if prob == 0:
            continue
        u = game.payoff(profile)
        for i in range(game.n_players):
            totals[i] += prob * u[i]
    return tuple(totals)


def _pure_vs_opponents_reference(game, player, strategy, opponents):
    """Expected payoff to `player` using `strategy` against independent opponents."""
    others = [j for j in range(game.n_players) if j != player]
    total = Fraction(0)
    for combo in itertools.product(*(range(game.shape[j]) for j in others)):
        prob = Fraction(1)
        for j, s in zip(others, combo):
            prob *= opponents[j][s]
            if prob == 0:
                break
        if prob == 0:
            continue
        profile = [0] * game.n_players
        profile[player] = strategy
        for j, s in zip(others, combo):
            profile[j] = s
        total += prob * game.payoff(tuple(profile))[player]
    return total


def is_epsilon_nash_reference(game, mixed, eps):
    """True iff no player's best unilateral pure deviation gains more than eps."""
    eps = as_fraction(eps)
    if eps < 0:
        raise errors.InvalidArgument("epsilon must be non-negative")
    mixed = validate_mixed(game, mixed)
    current = expected_payoff_reference(game, mixed)
    for i in range(game.n_players):
        opponents = {j: mixed[j] for j in range(game.n_players) if j != i}
        best = max(
            _pure_vs_opponents_reference(game, i, s, opponents) for s in range(game.shape[i])
        )
        if best - current[i] > eps:
            return False
    return True


def check_potential_reference(game, potential):
    """True iff the map is an exact potential: unilateral differences match payoff differences."""
    table = {}
    for profile, value in potential.items():
        table[game.validate_profile(profile)] = as_fraction(value)
    for profile in game.profiles():
        if profile not in table:
            raise errors.InvalidArgument(f"potential is not total: missing {profile}")
    for profile in game.profiles():
        for i in range(game.n_players):
            for dev in range(game.shape[i]):
                if dev == profile[i]:
                    continue
                alt = profile[:i] + (dev,) + profile[i + 1:]
                lhs = table[profile] - table[alt]
                rhs = game.payoff(profile)[i] - game.payoff(alt)[i]
                if lhs != rhs:
                    return False
    return True


def is_correlated_equilibrium_reference(game, dist):
    """Check the correlated-equilibrium inequalities for a joint distribution.

    `dist` maps pure profiles to probabilities (missing profiles are 0).
    Returns the truth value together with the most violated (minimal) margin
    over every player and recommended/deviation strategy pair, exact.
    """
    table = {}
    for profile, q in dist.items():
        table[game.validate_profile(profile)] = as_fraction(q)
    if any(q < 0 for q in table.values()) or sum(table.values(), Fraction(0)) != 1:
        raise errors.InvalidArgument("not a joint probability distribution")

    worst = None
    violations = []
    for i in range(game.n_players):
        for rec in range(game.shape[i]):
            for dev in range(game.shape[i]):
                margin = Fraction(0)
                for profile, q in table.items():
                    if profile[i] != rec or q == 0:
                        continue
                    alt = profile[:i] + (dev,) + profile[i + 1:]
                    margin += q * (game.payoff(profile)[i] - game.payoff(alt)[i])
                if worst is None or margin < worst:
                    worst = margin
                if margin < 0:
                    violations.append((i, rec, dev, margin))
    return CorrelatedCheck(worst >= 0, worst, tuple(violations))


def best_response_dynamics_reference(game, start, max_steps=None):
    """Deterministic single-player best-response improvement path.

    At each step the lowest-index player with a strict improvement moves to
    their lowest-index best response.  Stops at a fixed profile (returned with
    the step trace) or on a repeated profile (returned as a CycleReport).
    """
    current = game.validate_profile(start)
    trace = [current]
    seen = {current: 0}
    steps = 0
    while True:
        if max_steps is not None and steps >= max_steps:
            raise errors.StepLimit(f"no fixpoint or cycle within {max_steps} steps")
        mover = None
        target = None
        for i in range(game.n_players):
            values = [
                game.payoff(current[:i] + (s,) + current[i + 1:])[i]
                for s in range(game.shape[i])
            ]
            top = max(values)
            if top > values[current[i]]:
                mover, target = i, values.index(top)
                break
        if mover is None:
            return BRDResult(current, tuple(trace), steps)
        current = current[:mover] + (target,) + current[mover + 1:]
        steps += 1
        if current in seen:
            cycle = tuple(trace[seen[current]:])
            return CycleReport(cycle, tuple(trace + [current]), steps)
        seen[current] = len(trace)
        trace.append(current)


# ---------------------------------------------------------------------------
# reference implementation of the quantum payoff surface (the Fraction loop)


def padic_surface_rows_reference(form, grid):
    """The p-adic mode's surface.csv rows, one n-player `games.expected_payoff`
    call per grid point (not `form.payoffs`, which is the closed form that the
    surface shares)."""
    surface = ["p,q,payoff1,payoff2"]
    for i in range(grid + 1):
        for j in range(grid + 1):
            pt, qt = Fraction(i, grid), Fraction(j, grid)
            pay = games.expected_payoff(form.game, ((pt, 1 - pt), (qt, 1 - qt)))
            surface.append(",".join(str(Fraction(v)) for v in (pt, qt, *pay)))
    return surface


# ---------------------------------------------------------------------------
# reference implementations of the 2x2 quantum core (the Fraction forms)


def classical_form_game_reference(base, a2):
    """The game of `ClassicalForm(base, a2)` built from a dict of Fractions through
    the validating `StrategicGame` constructor."""
    return StrategicGame(base.strategy_names, {
        s: tuple(a2 * x + (1 - a2) * y
                 for x, y in zip(base.payoff(s), base.payoff((1 - s[0], 1 - s[1]))))
        for s in PROFILES
    })


def distribution_reference(a2, p, q):
    """Outcome probabilities over 00, 01, 10, 11 from the Fraction product weights."""
    w = {(s, t): (p if s == 0 else 1 - p) * (q if t == 0 else 1 - q) for s, t in PROFILES}
    return tuple(a2 * w[s] + (1 - a2) * w[(1 - s[0], 1 - s[1])] for s in PROFILES)


# ---------------------------------------------------------------------------
# reference implementations of the float trajectory path (the loop forms)


def _sum(values):
    """Floats added left to right from 0.0, on every Python version (builtin `sum`
    over floats is compensated from 3.12 on; on 3.11 the bits are the same)."""
    return functools.reduce(operator.add, values, 0.0)


def _rhs_list(A_rows, x, n):
    u = [_sum(row[j] * x[j] for j in range(n)) for row in A_rows]
    s = _sum(x[j] * u[j] for j in range(n))
    return [x[j] * (u[j] - s) for j in range(n)]


def _step_list_reference(A_rows, p, h, n):
    """One RK4 step plus the clamp/renormalize projection, on plain floats.

    Plain-float arithmetic keeps the 2e5-step desk runs fast; results are
    deterministic (fixed evaluation order, no reductions over numpy views).
    """
    k1 = _rhs_list(A_rows, p, n)
    k2 = _rhs_list(A_rows, [p[j] + 0.5 * h * k1[j] for j in range(n)], n)
    k3 = _rhs_list(A_rows, [p[j] + 0.5 * h * k2[j] for j in range(n)], n)
    k4 = _rhs_list(A_rows, [p[j] + h * k3[j] for j in range(n)], n)
    new = [p[j] + (h / 6.0) * (k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j]) for j in range(n)]
    low = min(new)
    if low < -DIVERGE_TOL:
        raise errors.IntegrationDiverged(f"state entry {low} below -{DIVERGE_TOL}")
    new = [0.0 if abs(v) < CLAMP or v < 0.0 else v for v in new]
    total = _sum(new)
    if not total < math.inf:
        raise errors.IntegrationDiverged(f"RK4 step is not finite (state total {total})")
    return [v / total for v in new]


def integrate_reference(g, p0, steps, h):
    """`integrate` on the reference step, with numpy's sample times."""
    x = list(SimplexState(p0).p)
    values = list(x)
    for _ in range(steps):
        x = _step_list_reference(g.matrix, x, h, g.n)
        values.extend(x)
    return Trajectory(np.arange(steps + 1, dtype=float) * h, values, h)


def states_of(traj):
    """The trajectory's states as a (samples, n) view of its flat array."""
    return np.frombuffer(traj.values).reshape(len(traj), traj.n)


def csv_rows_reference(traj, names=None):
    """CSV with 17-significant-digit floats: t, p_1, ..., p_n."""
    n = traj.n
    header = ",".join(["t"] + [names[i] if names else f"p_{i + 1}" for i in range(n)])
    rows = [header]
    for t, row in zip(traj.times, traj.rows()):
        rows.append(",".join(f"{v:.17g}" for v in [t, *row]))
    return rows


def time_average_reference(traj):
    """numpy's trapezoid rule over the states, divided by the time span."""
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    times = np.asarray(traj.times)
    return (trapezoid(states_of(traj), times, axis=0) / (times[-1] - times[0])).tolist()


def detect_recurrence_reference(traj, tol=1e-3):
    """Classify a trajectory as convergent, recurrent, or neither (episode loop)."""
    if not 0 < tol < math.inf:
        raise errors.InvalidArgument(f"tolerance must be finite and positive, got {tol!r}")
    n = len(traj)
    if n < 10:
        raise errors.InsufficientData(f"need at least 10 samples, got {n}")
    states = states_of(traj)
    window = states[-max(10, n // 10):]
    diameter = float(np.max(window.max(axis=0) - window.min(axis=0)))
    if diameter < tol:
        return RecurrenceReport("convergent", detail=f"terminal window diameter {diameter:.3g}")

    ref = states[0]
    dist = np.max(np.abs(states - ref), axis=1)
    inside = dist < tol
    episodes = []
    for k in range(1, n):
        if inside[k] and not inside[k - 1]:
            episodes.append(traj.times[k])
    if len(episodes) >= 2:
        spacings = np.diff(np.asarray(episodes))
        mean = functools.reduce(operator.add, spacings.tolist(), 0.0) / len(spacings)
        if mean > 0 and np.all(np.abs(spacings - mean) <= 0.10 * mean):
            return RecurrenceReport(
                "recurrent", period=mean, detail=f"{len(episodes)} returns to the start ball"
            )
    return RecurrenceReport("none")


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


def integer_system(rows, rhs):
    """Each augmented row times the lcm of its own denominators: the same solutions."""
    scaled_rows = [lcm_scaled([[*row, b]])[1][0] for row, b in zip(rows, rhs)]
    return [row[:-1] for row in scaled_rows], [row[-1] for row in scaled_rows]


def solve_exact_fractions(rows, rhs):
    """`solve_exact` on the row-scaled integer system, read back as Fractions, with
    its integer contract checked: int numerators over one den > 0 in lowest terms."""
    status, num, den = solve_exact(*integer_system(rows, rhs))
    if num is None:
        assert den is None
        return status, None
    assert type(den) is int and den > 0 and all(type(q) is int for q in num)
    assert math.gcd(den, *num) == 1
    return status, [F(q, den) for q in num]


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_exact_matches_fraction_elimination(system):
    rows, rhs = system
    assert solve_exact_fractions(rows, rhs) == solve_exact_fraction(rows, rhs)


def test_solve_exact_takes_and_returns_ints():
    # 2x + y/2 = 3/4 and 4x + y = 3/2, each row times its own lcm: one equation twice
    rows, rhs = [[2, "1/2"], [4, 1]], ["3/4", "3/2"]
    assert integer_system(rows, rhs) == ([[8, 2], [8, 2]], [3, 3])
    assert solve_exact([[8, 2], [8, 2]], [3, 3]) == ("many", [3, 0], 8)
    assert solve_exact_fraction(rows, rhs) == ("many", [F(3, 8), 0])
    assert solve_exact([[1, 1], [1, -1]], [2, 0]) == ("unique", [1, 1], 1)
    assert solve_exact([[2, 0], [0, -3]], [1, 2]) == ("unique", [3, -4], 6)
    assert solve_exact([[1, 1], [2, 2]], [1, 3]) == ("none", None, None)


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
    assert _sampled_face_is_ess(*integer_face(c, M, x_star), resolution) == (
        sampled_face_is_ess_fraction(c, M, x_star, resolution))


def test_sampled_grid_matches_fraction_grid_on_american_values():
    faces = american_values_nash_faces()
    assert len(faces) == 4
    for face, c, M, x_star in faces:
        assert len(face) >= 4
        assert _sampled_face_is_ess(*integer_face(c, M, x_star), 8) == (
            sampled_face_is_ess_fraction(c, M, x_star, 8))
        # the resolution ess_check samples these faces at
        resolution = 64 if len(face) == 4 else 32
        assert _sampled_face_is_ess(*integer_face(c, M, x_star), resolution) == (
            sampled_walk_reference(c, M, x_star, resolution))


@st.composite
def grid_line_problems(draw):
    """(c, M, x_star, resolution) with the curvature of the grid lines and the
    place of x_star on them chosen.

    A grid line trades units between the last two coordinates a, b, and along
    it k^T Q k has curvature M[a][b] + M[b][a] - M[a][a] - M[b][b] whatever c
    is; M[b][b] is set to make it negative, zero or positive.  x_star lies on
    the grid at t = 0 or t = r of its line, at a vertex or anywhere, or off it.
    """
    m = draw(st.integers(2, 6))
    resolution = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 16]))
    entries = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    M = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(m)]
    if draw(st.booleans()):
        M = [[M[i][j] - (6 if i == j else 0) for j in range(m)] for i in range(m)]
    a, b = m - 2, m - 1
    curvature = draw(st.sampled_from([F(-2), F(-1, 2), F(0), F(1, 3), F(4)]))
    M[b][b] = M[a][b] + M[b][a] - M[a][a] - curvature
    cuts = sorted(draw(st.lists(st.integers(0, resolution), min_size=m - 1, max_size=m - 1)))
    k = [y - x for x, y in zip([0, *cuts], [*cuts, resolution])]
    place = draw(st.sampled_from(["t = 0", "t = r", "vertex", "on the grid", "off the grid"]))
    if place == "t = 0":
        k[a], k[b] = 0, k[a] + k[b]
    elif place == "t = r":
        k[a], k[b] = k[a] + k[b], 0
    elif place == "vertex":
        i = draw(st.integers(0, m - 1))
        k = [resolution * (j == i) for j in range(m)]
    x_star = [F(q, resolution) for q in k]
    if place == "off the grid":
        i = draw(st.sampled_from([j for j in range(m) if k[j]]))
        j = draw(st.sampled_from([j for j in range(m) if j != i]))
        x_star[i] -= F(1, 2 * resolution)
        x_star[j] += F(1, 2 * resolution)
    x_star = tuple(x_star)
    if draw(st.booleans()):
        c = [sum(x_star[i] * M[i][k] for i in range(m)) for k in range(m)]
    else:
        c = draw(st.lists(entries, min_size=m, max_size=m))
    return c, M, x_star, resolution


@settings(max_examples=300, deadline=None)
@example(  # k^T Q k on the line (t, 4 - t): 16, -2, -8, -2, 16; the minimum is at -h/g
    ([F(0), F(0)], [[F(-1), F(2)], [F(2), F(-1)]], (F(1, 3), F(2, 3)), 4)
)
@example(  # 6688, 2848, 608, -32, 928, ...: -h/g = 2.9, so only the integer after it is <= 0
    ([F(0), F(0)], [[F(-649, 2), F(371, 2)], [F(371, 2), F(-209, 2)]], (F(1, 3), F(2, 3)), 8)
)
@given(grid_line_problems())
def test_line_by_line_grid_matches_the_point_walk(problem):
    c, M, x_star, resolution = problem
    assert _sampled_face_is_ess(*integer_face(c, M, x_star), resolution) == (
        sampled_walk_reference(c, M, x_star, resolution))


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


# ---------------------------------------------------------------------------
# exact ESS face decision


@st.composite
def reachable_faces(draw, min_m, max_m):
    """(c, M, x_star) as `ess_check` builds them: every face strategy is a best reply.

    The rows of M are shifted so that M x_star is constant, and c = x_star^T M.
    A diagonal-dominant negative M makes ESS verdicts common.
    """
    m = draw(st.integers(min_m, max_m))
    entries = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2]))
    M = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(m)]
    if draw(st.booleans()):
        M = [[M[i][j] - (6 if i == j else 0) for j in range(m)] for i in range(m)]
    if draw(st.booleans()):
        M = [[M[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
    denominator = draw(st.sampled_from([1, 2, 3, 4, 6]))
    cuts = sorted(draw(st.lists(st.integers(0, denominator), min_size=m - 1, max_size=m - 1)))
    x_star = tuple(F(b - a, denominator) for a, b in zip([0, *cuts], [*cuts, denominator]))
    Mx = [sum(M[i][j] * x_star[j] for j in range(m)) for i in range(m)]
    M = [[M[i][j] - Mx[i] for j in range(m)] for i in range(m)]
    c = [sum(x_star[i] * M[i][k] for i in range(m)) for k in range(m)]
    return c, M, x_star


@settings(max_examples=300, deadline=None)
@example(([F(0)], [[F(0)]], (F(1),)))
@example(  # psi = 0 on the whole face: not an ESS
    ([F(0)] * 3, [[F(0)] * 3] * 3, (F(1, 3), F(1, 3), F(1, 3)))
)
@given(reachable_faces(1, 3))
def test_face_kernel_matches_geometric_decision(face):
    c, M, x_star = face
    assert _face_is_ess(*integer_face(c, M, x_star)) == _ess_exact_face(c, M, x_star)


@settings(max_examples=200, deadline=None)
@given(reachable_faces(4, 6), st.sampled_from([4, 8]))
def test_face_kernel_is_never_ess_where_the_grid_finds_an_invader(face, resolution):
    c, M, x_star = face
    if not _sampled_face_is_ess(*integer_face(c, M, x_star), resolution):
        assert not _face_is_ess(*integer_face(c, M, x_star))


def american_values_nash_faces():
    """(face, c, M, x_star) in Fractions for each Nash rest point of
    american-values-10, with `_psi_form` held to them: its integer S is their
    Fraction form times D and the state's common denominator."""
    g = gamefile.load_scenario("american-values-10").game
    A = g.exact
    reports, _ = rest_point_reports(g)
    out = []
    for rep in reports:
        if not rep.is_nash:
            continue
        p = rep.point.exact
        u = [sum(a * q for a, q in zip(row, p)) for row in A]
        face = [i for i in range(g.n) if u[i] == max(u)]
        c = [sum(p[i] * A[i][k] for i in range(g.n)) for k in face]
        M = [[A[k][l] for l in face] for k in face]
        _, (w,) = lcm_scaled([p])
        scale = g.scale * sum(w)
        assert _psi_form(g.table, w, face) == [
            [v * scale for v in row] for row in fraction_form(c, M)]
        out.append((face, c, M, tuple(p[i] for i in face)))
    return out


def test_face_kernel_on_american_values_nash_faces():
    # the fourth is the Nash state with an equal invader that the grid calls an ESS
    faces = american_values_nash_faces()
    assert [len(face) for face, *_ in faces] == [4, 5, 5, 5]
    assert [_face_is_ess(*integer_face(c, M, x_star)) for _, c, M, x_star in faces] == [
        True, False, False, False]


@settings(max_examples=200, deadline=None)
@given(reachable_faces(1, 6))
def test_face_kernel_matches_lambda_augmented_kkt(face):
    c, M, x_star = face
    assert _face_is_ess(*integer_face(c, M, x_star)) == _face_is_ess_kkt(c, M, x_star)


# ---------------------------------------------------------------------------
# one equalizer system: support enumeration and rest points


def test_equalizer_statuses():
    assert equalizer([[5]]) == ("unique", [1], 1)
    assert equalizer([[3, 0], [0, 2]]) == ("unique", [2, 3], 5)  # value (3, 0) . w = 6/5
    assert equalizer([[1, 1], [1, 1]]) == ("many", None, None)
    assert equalizer([[1, 1], [0, 0]]) == ("none", None, None)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(st.integers(-9, 9), min_size=k, max_size=k), min_size=k, max_size=k)),
    st.integers(1, 10**6))
def test_scaling_a_block_leaves_its_equalizer_solution_alone(block, factor):
    status, num, den = equalizer(block)
    assert equalizer([[factor * a for a in row] for row in block]) == (status, num, den)
    if num is not None:
        assert sum(num) == den
        oracle = solve_exact_fraction(
            [[a - b for a, b in zip(block[0], row)] for row in block[1:]] + [[1] * len(num)],
            [0] * (len(block) - 1) + [1])
        assert oracle == ("unique", [F(q, den) for q in num])


@st.composite
def integer_matrices(draw):
    """m x n integer rows, m, n <= 5, with entries in {-1, 0, 1}, where singular
    bordered systems are common, or up to +-999."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = draw(st.sampled_from([st.integers(-1, 1), st.integers(-999, 999)]))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


def leibniz_det(matrix):
    """The determinant of a square integer matrix as a sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[j] for row, j in zip(matrix, perm))
    return total


@settings(max_examples=300, deadline=None)
@example([[1] * 5 for _ in range(5)])  # every block of size 2 or more is "many"
@example([[3, -1, 2], [0, 0, 0], [1, 4, -2]])  # a zero row
@example([[2, -7, 0, 5, 1]])  # one row: only 1 x 1 blocks
@given(integer_matrices())
def test_support_equalizers_match_equalizer_on_every_block(rows):
    assert_support_equalizers_match_equalizer(rows)


def assert_support_equalizers_match_equalizer(rows):
    """Every equal-size block of rows has a numerator tuple, which is `equalizer`'s
    solution once put in lowest terms, or has den 0 where `equalizer` finds none or many."""
    m, n = len(rows), len(rows[0])
    blocks = _support_equalizers(rows)
    sizes = range(1, min(m, n) + 1)
    assert sorted(blocks) == sorted(own for k in sizes for own in itertools.combinations(range(m), k))
    for own, by_opp in blocks.items():
        assert sorted(by_opp) == list(itertools.combinations(range(n), len(own)))
        for opp, num in by_opp.items():
            expected = equalizer([[rows[i][j] for j in opp] for i in own])
            den = sum(num)
            if den:  # normalised: lowest terms over a positive den
                g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
                assert ("unique", [q // g for q in num], den // g) == expected
            else:
                assert expected[0] in ("none", "many")


@st.composite
def square_integer_matrices(draw):
    """n x n integer rows, n <= 7, with entries in {-1, 0, 1}, where singular
    blocks and singular parents are common, or up to +-999 (long minors)."""
    n = draw(st.integers(1, 7))
    entry = draw(st.sampled_from([st.integers(-1, 1), st.integers(-999, 999)]))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


def principal_equalizers_reference(rows):
    """`equalizer` on every principal block, supports in combinations order by size."""
    n = len(rows)
    return [(support, equalizer([[rows[i][j] for j in support] for i in support]))
            for k in range(1, n + 1) for support in itertools.combinations(range(n), k)]


@settings(max_examples=300, deadline=None)
@example([[0, 0, 1], [0, 0, 0], [0, 1, 0]])  # (0, 1) is "many", its child (0, 1, 2) "unique"
@example([[4] * 6 for _ in range(6)])  # every block of size 2 or more is "many"
@example([list(row) for row in gamefile.load_scenario("american-values-10").game.table])
@given(square_integer_matrices())
def test_principal_equalizers_match_equalizer_on_every_block(rows):
    assert list(principal_equalizers(rows)) == principal_equalizers_reference(rows)


def test_a_nondegenerate_matrix_borders_every_block_without_elimination(monkeypatch):
    rng = random.Random(1)
    rows = [[rng.randint(-999, 999) for _ in range(6)] for _ in range(6)]
    expected = principal_equalizers_reference(rows)
    calls = []
    monkeypatch.setattr(_linsolve, "solve_exact", lambda *args: calls.append(args))
    assert list(principal_equalizers(rows)) == expected
    assert calls == []


@settings(max_examples=200, deadline=None)
@example([[1] * 5 for _ in range(5)])
@example([[2, -7, 0, 5, 1]])
@given(integer_matrices())
def test_bordered_minors_hold_every_minor_with_the_ones_column(rows):
    m, n = len(rows), len(rows[0])
    ext = [[*row, 1] for row in rows]
    table = _bordered_minors(rows)
    assert len(table) == 1 << (m + n + 1)
    for k in range(1, min(m, n) + 1):
        for own in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k - 1):
                rmask = sum(1 << i for i in own)
                cmask = sum(1 << j for j in cols) | 1 << n
                minor = leibniz_det([[ext[i][j] for j in (*cols, n)] for i in own])
                assert table[rmask << (n + 1) | cmask] == minor


def outcome(fn, *args):
    """fn(*args), or the type and message of the gtkit error it raised."""
    try:
        return fn(*args)
    except errors.GTError as exc:
        return type(exc).__name__, str(exc)


def rationals_over(top, denominators):
    """k/d for k in -top..top and d drawn from the denominators: with small
    numerators ties stay common, while a game's D is usually > 1."""
    return st.builds(F, st.integers(-top, top), st.sampled_from(denominators))


@st.composite
def small_bimatrix_games(draw):
    """m x n games, m, n <= 5, with payoffs k/d for k in {-2..2} and d in {1, 2, 3, 4}:
    many are degenerate."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.tuples(*[rationals_over(2, [1, 2, 3, 4])] * 2)
    cells = draw(st.lists(cell, min_size=m * n, max_size=m * n))
    names = [[f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]]
    return StrategicGame(names, [cells[i * n:(i + 1) * n] for i in range(m)])


WIDE_PAYOFFS = st.one_of(
    st.integers(-999, 999),
    st.builds(F, st.integers(-999, 999), st.sampled_from([2, 3, 4, 6, 7, 9, 10, 12])),
)


@st.composite
def wide_bimatrix_games(draw):
    """m x n games, m, n <= 5, with payoffs up to +-999 and rationals of mixed
    denominators, so that each game is scaled by its own lcm; a copied row or
    column keeps some of them degenerate."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = [[(draw(WIDE_PAYOFFS), draw(WIDE_PAYOFFS)) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        cells[1] = list(cells[0])
    if n >= 2 and draw(st.booleans()):
        for row in cells:
            row[1] = row[0]
    names = [[f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]]
    return StrategicGame(names, cells)


# Player 2's system on ((0, 1), (0, 1)) is unique, with weights [2, -1]; player
# 1's is "many", since player 2's two columns are equal.  A pair loop that skipped
# player 1's system after a non-positive player-2 solution would return equilibria.
MANY_BEHIND_A_NEGATIVE_SOLUTION = StrategicGame(
    [["a", "b"]] * 2, [[(1, 5), (0, 5)], [(2, 7), (2, 7)]])


@settings(max_examples=200, deadline=None)
@example(MANY_BEHIND_A_NEGATIVE_SOLUTION)
@example(StrategicGame(  # a segment of equilibria whose system is never "many"
    [["a", "b", "c"]] * 2,
    [[(3, 1), (3, 1), (3, 0)], [(0, 0), (0, 1), (0, 2)], [(1, 2), (1, 0), (1, 1)]]))
@given(st.one_of(small_bimatrix_games(), wide_bimatrix_games()))
def test_support_enumeration_matches_indifference_reference(game):
    assert outcome(support_enumeration, game) == outcome(support_enumeration_reference, game)


@pytest.mark.parametrize("top", [1, 999])
def test_every_shape_under_the_cap_matches_the_references(top):
    # Hypothesis draws shapes at random; this sweep takes each of the 25 in turn,
    # with entries in {-1, 0, 1}, where singular blocks are common, or up to +-999
    rnd = random.Random(top)
    for m, n in itertools.product(range(1, 6), repeat=2):
        for _ in range(4):
            cells = [[(rnd.randint(-top, top), rnd.randint(-top, top)) for _ in range(n)]
                     for _ in range(m)]
            # player 1's payoff matrix A and player 2's transposed, as support_enumeration reads them
            assert_support_equalizers_match_equalizer([[a for a, _ in row] for row in cells])
            assert_support_equalizers_match_equalizer([[row[j][1] for row in cells] for j in range(n)])
            game = StrategicGame([[f"r{i}" for i in range(m)], [f"c{j}" for j in range(n)]], cells)
            assert outcome(support_enumeration, game) == outcome(support_enumeration_reference, game)


def bimatrix_5x5(seed, equal_rows=False, equal_b_columns=False):
    """A seeded 5 x 5 game with payoffs in [-999, 999]; rows 0 and 1 equal for
    both players (the benchmark's degenerate games), or player 2's columns 0
    and 1 equal."""
    rnd = random.Random(seed)
    cells = [[[rnd.randint(-999, 999), rnd.randint(-999, 999)] for _ in range(5)] for _ in range(5)]
    if equal_rows:
        cells[1] = [list(cell) for cell in cells[0]]
    if equal_b_columns:
        for row in cells:
            row[1][1] = row[0][1]
    names = [[f"r{i}" for i in range(5)], [f"c{j}" for j in range(5)]]
    return StrategicGame(names, [[tuple(cell) for cell in row] for row in cells])


def counted_solve_exact(monkeypatch):
    """Record each `_linsolve.solve_exact` call, as `equalizer` makes it."""
    calls = []
    real = _linsolve.solve_exact

    def counted(rows, rhs):
        calls.append(len(rows))
        return real(rows, rhs)

    monkeypatch.setattr(_linsolve, "solve_exact", counted)
    return calls


def test_a_nondegenerate_game_makes_no_elimination(monkeypatch):
    game = bimatrix_5x5(1)
    calls = counted_solve_exact(monkeypatch)
    found = support_enumeration(game)
    assert calls == []
    assert found and found == support_enumeration_reference(game)


DEGENERATE_AT_FIRST_2_SUPPORTS = (
    "DegenerateGame",
    "solution continuum on support pair ((0, 1), (0, 1)): the game is degenerate",
)


def test_equal_rows_are_degenerate_at_the_first_pair_of_2_supports(monkeypatch):
    game = bimatrix_5x5(2, equal_rows=True)
    calls = counted_solve_exact(monkeypatch)
    assert outcome(support_enumeration, game) == DEGENERATE_AT_FIRST_2_SUPPORTS
    assert calls == [2]  # player 1's block of the pair goes to Bareiss; no other block does
    assert outcome(support_enumeration_reference, game) == DEGENERATE_AT_FIRST_2_SUPPORTS


def test_many_behind_a_negative_solution_is_degenerate_at_that_pair():
    game = MANY_BEHIND_A_NEGATIVE_SOLUTION
    block = [[game.payoff((i, j))[0].numerator for j in (0, 1)] for i in (0, 1)]
    assert equalizer(block) == ("unique", [2, -1], 1)
    assert outcome(support_enumeration, game) == DEGENERATE_AT_FIRST_2_SUPPORTS
    assert outcome(support_enumeration_reference, game) == DEGENERATE_AT_FIRST_2_SUPPORTS


def test_equal_columns_of_player_2_take_the_fallback_on_the_transposed_side(monkeypatch):
    game = bimatrix_5x5(3, equal_b_columns=True)
    block = [[game.payoff((i, j))[0].numerator for j in (0, 1)] for i in (0, 1)]
    assert equalizer(block)[0] == "unique"  # so the pair reaches player 2's system
    calls = counted_solve_exact(monkeypatch)
    assert outcome(support_enumeration, game) == DEGENERATE_AT_FIRST_2_SUPPORTS
    assert calls == [2]  # its B^T block, two equal rows, goes to Bareiss
    assert outcome(support_enumeration_reference, game) == DEGENERATE_AT_FIRST_2_SUPPORTS


@st.composite
def evolution_games(draw):
    n = draw(st.integers(2, 5))
    entry = st.one_of(st.integers(-2, 2), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))
    return EvolutionGame([draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)])


@st.composite
def wide_evolution_games(draw):
    """n <= 5 strategies with payoffs up to +-999 and rationals of mixed denominators."""
    n = draw(st.integers(2, 5))
    return EvolutionGame([[draw(WIDE_PAYOFFS) for _ in range(n)] for _ in range(n)])


def rest_point_rows(rest_point_reports, g):
    """The fields of every report (SimplexState has no equality), and the continua."""
    reports, continua = rest_point_reports(g)
    rows = [(r.point.exact, r.residual, r.classification, r.is_nash, r.transversal_eigenvalues)
            for r in reports]
    return rows, continua


@settings(max_examples=200, deadline=None)
@example(EvolutionGame([[0, 0], [0, 0]]))
@example(EvolutionGame([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
@given(st.one_of(evolution_games(), wide_evolution_games()))
def test_rest_points_match_face_reference(g):
    new, old = interior_rest_points(g), interior_rest_points_reference(g)
    assert [p.exact for p in new.points] == [p.exact for p in old.points]
    assert new.continuum == old.continuum
    assert outcome(rest_point_rows, rest_point_reports, g) == outcome(
        rest_point_rows, rest_point_reports_reference, g)


def exact_verdicts(g):
    """Every exact verdict on g that scaling A by r > 0 keeps: each rest point
    with its class, Nash verdict, transversal signs and ESS report, the
    continua, the interior rest points, and `is_nash_state` at the vertices
    and the barycentre."""
    reports, continua = rest_point_reports(g)
    rows = [(rep.point.exact, rep.classification, rep.is_nash,
             [(i, (v > 0) - (v < 0)) for i, v in rep.transversal_eigenvalues],
             [(i, (v > 0) - (v < 0)) for i, v in transversal_eigenvalues(g, rep.point)]
             if rep.classification == "boundary" else None,
             ess_check(g, rep.point) if rep.is_nash else None)
            for rep in reports]
    interior = interior_rest_points(g)
    states = [[int(i == k) for i in range(g.n)] for k in range(g.n)] + [[F(1, g.n)] * g.n]
    return (rows, continua, [p.exact for p in interior.points], interior.continuum,
            [is_nash_state(g, p) for p in states])


@settings(max_examples=200, deadline=None)
@given(evolution_games(), st.sampled_from([F(1, 7), F(5, 2)]))
def test_scaling_the_matrix_keeps_every_exact_verdict(g, r):
    scaled_game = EvolutionGame([[r * v for v in row] for row in g.exact])
    assert exact_verdicts(scaled_game) == exact_verdicts(g)
    # equal matrices, however written, give equal games and scenarios
    same = EvolutionGame([[str(v) for v in row] for row in g.exact])
    assert same == g and hash(same) == hash(g)
    assert gamefile.Scenario("evolution", "e", "", same) == gamefile.Scenario("evolution", "e", "", g)
    assert (scaled_game == g) == all(v == 0 for row in g.exact for v in row)


# ---------------------------------------------------------------------------
# the float trajectory path


@st.composite
def replicator_runs(draw):
    """n <= 10 strategies, start states with zero entries, and payoffs in {-6..6},
    in {-1, 0, 1} (every coefficient the compiled step folds) or in {-1, 0, 1,
    -1e308, 1e308} (stages that overflow, so most runs are refused)."""
    n = draw(st.integers(2, 10))
    pool = draw(st.sampled_from([range(-6, 7), [-1, 0, 1], [-1, 0, 1, -10**308, 10**308]]))
    A = [draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)) for _ in range(n)]
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    p0 = [F(w, sum(weights)) for w in weights]
    h = draw(st.sampled_from([1e-3, 1e-2, 5e-2]))
    return EvolutionGame(A), p0, h, draw(st.integers(1, 500))


@settings(max_examples=200, deadline=None)
@example(  # an RK4 stage far below the simplex: both raise IntegrationDiverged
    (EvolutionGame([[-10**7, -10**7], [0, 0]]), [F(1, 10**6), 1 - F(1, 10**6)], 1e-3, 1))
@example(  # a stage entry overflows in a column of 0 payoffs: the unfolded step is NaN
    (EvolutionGame([[0, 1], [0, -10**300]]), [F(1, 10**300), 1 - F(1, 10**300)], 1.0, 1))
@given(replicator_runs())
def test_integrate_matches_the_reference_step_bit_for_bit(run):
    g, p0, h, steps = run
    new = outcome(integrate, g, p0, steps * h, h)
    old = outcome(integrate_reference, g, p0, steps, h)
    if not isinstance(old, Trajectory):
        assert new == old
        return
    assert new.values.tobytes() == old.values.tobytes()
    assert new.times.tobytes() == old.times.tobytes()
    names = [f"s{i}" for i in range(g.n)]
    assert list(new.csv_rows()) == csv_rows_reference(new)
    assert list(new.csv_rows(names)) == csv_rows_reference(new, names)


def test_integrate_matches_the_reference_step_past_one_64_term_chunk():
    # at n = 70 the mean, the total and the dot products of rows with more than
    # 64 nonzero payoffs (row 2 has 65) are two chained statements
    n = 70
    g = EvolutionGame([[(7 * i + 3 * j) % 13 - 6 for j in range(n)] for i in range(n)])
    weights = [j % 4 for j in range(n)]
    p0 = [F(w, sum(weights)) for w in weights]
    source = _step_source(g.matrix, 1e-2)
    assert all(chained in source for chained in ("u2 = u2 ", "s = s + ", "total = total + "))
    new, old = integrate(g, p0, 20 * 1e-2, 1e-2), integrate_reference(g, p0, 20, 1e-2)
    assert len(new) == 21
    assert new.values.tobytes() == old.values.tobytes()
    assert new.times.tobytes() == old.times.tobytes()


@settings(max_examples=100, deadline=None)
@given(replicator_runs(), st.sampled_from([1e-3, 1e-2, 1e-1]))
def test_time_average_and_recurrence_match_numpy(run, tol):
    g, p0, h, steps = run
    traj = outcome(integrate, g, p0, steps * h, h)
    if not isinstance(traj, Trajectory):
        return
    assert time_average(traj) == time_average_reference(traj)
    if len(traj) >= 10:
        assert detect_recurrence(traj, tol) == detect_recurrence_reference(traj, tol)


def _two_strategy_trajectory(inside_at):
    """40 unit-spaced samples of (a, 1 - a): a = 1/2 at the given times, 0.6 or 0.7 elsewhere."""
    a = [0.5 if k in inside_at else 0.6 + 0.1 * (k % 2) for k in range(40)]
    return Trajectory(np.arange(40, dtype=float), np.array([[v, 1 - v] for v in a]).ravel(), 1.0)


@pytest.mark.parametrize("inside,kind", [
    ({0, 1, 2, 3, 4, 15, 30}, "recurrent"),  # the start ball is held for five samples
    ({0}, "none"),  # it is left and never re-entered
    ({0, 20, 39}, "recurrent"),  # the second return is the last sample
])
def test_detect_recurrence_matches_the_episode_loop(inside, kind):
    traj = _two_strategy_trajectory(inside)
    assert detect_recurrence(traj) == detect_recurrence_reference(traj)
    assert detect_recurrence(traj).kind == kind


def streamed(chunks, samples, tol, names=None):
    """(time average, recurrence verdict, CSV lines) of a run taken chunk by
    chunk through one RunSummary, as `gt evolve` takes it; each verdict as
    `outcome` gives it."""
    summary, lines = RunSummary(samples, tol), []
    for chunk in chunks:
        lines = lines or [csv_header(chunk.n, names)]
        summary.add(chunk)
        lines += chunk.csv_lines()
    return outcome(summary.averages), outcome(summary.recurrence), lines


def stored(traj, tol, names=None):
    """The same three of the stored trajectory, from the reference loops."""
    average = (time_average_reference(traj) if len(traj) >= 2
               else ("InsufficientData", "a time average needs at least 2 samples"))
    return (average, outcome(detect_recurrence_reference, traj, tol),
            csv_rows_reference(traj, names))


def cut(traj, bounds):
    """traj as consecutive chunks, a new one starting at each sample index in bounds."""
    n, edges = traj.n, [0, *sorted(bounds), len(traj)]
    return [Trajectory(traj.times[a:b], traj.values[a * n:b * n], traj.h)
            for a, b in zip(edges, edges[1:])]


@st.composite
def chunked_trajectories(draw):
    """Up to 60 samples of n <= 4 strategies whose first share takes a few
    values, so ball entries, equal spacings and flat tails are common, at
    strictly increasing times of uneven spacing, cut into chunks at drawn
    sample indices."""
    m, n = draw(st.integers(1, 60)), draw(st.integers(2, 4))
    levels = draw(st.sampled_from([(0.5,), (0.5, 0.5004), (0.5, 0.6, 0.7), (0.2, 0.5, 0.9, 1.0)]))
    shares = draw(st.lists(st.sampled_from(levels), min_size=m, max_size=m))
    gaps = draw(st.lists(st.sampled_from([0.1, 0.3, 1.0]), min_size=m, max_size=m))
    values = [v for a in shares for v in (a, *[(1 - a) / (n - 1)] * (n - 1))]
    traj = Trajectory(list(itertools.accumulate(gaps)), values, 1.0)
    return traj, draw(st.sets(st.integers(1, max(1, m - 1)), max_size=6)) - {m}


# a return to the start ball on the first sample of the second chunk, one spacing
RECURRENT_ACROSS_A_CUT = (_two_strategy_trajectory({0, 1, 2, 3, 4, 15, 30}), {15})
# returns at 10, 13 and 30: spacings 3 and 17, neither within 10% of their mean
NONE_OF_UNEVEN_RETURNS = (_two_strategy_trajectory({0, 10, 13, 30}), {13, 14})
# exactly 10 samples, the whole run its terminal window, cut in three
CONVERGENT_TEN = (Trajectory(np.arange(10.0), [0.5, 0.5] * 10, 1.0), {3, 9})
# spacings 8, 8, 8 and then 10 or 6: only the greatest, or only the least, is
# more than 10% off the mean, so the test must read both
LONG_LAST_SPACING = (_two_strategy_trajectory({0, 2, 10, 18, 26, 36}), {18})
SHORT_LAST_SPACING = (_two_strategy_trajectory({0, 2, 10, 18, 26, 32}), {26, 27})


@pytest.mark.parametrize("case,kind", [
    (RECURRENT_ACROSS_A_CUT, "recurrent"),
    (NONE_OF_UNEVEN_RETURNS, "none"),
    (CONVERGENT_TEN, "convergent"),
    (LONG_LAST_SPACING, "none"),
    (SHORT_LAST_SPACING, "none"),
])
def test_the_chunked_examples_reach_every_verdict(case, kind):
    traj, bounds = case
    assert detect_recurrence_reference(traj).kind == kind
    assert streamed(cut(traj, bounds), len(traj), 1e-3) == stored(traj, 1e-3)


@settings(max_examples=300, deadline=None)
@example(RECURRENT_ACROSS_A_CUT, 1e-3)
@example(NONE_OF_UNEVEN_RETURNS, 1e-3)
@example(CONVERGENT_TEN, 1e-3)
@example(LONG_LAST_SPACING, 1e-3)
@example(SHORT_LAST_SPACING, 1e-3)
@given(chunked_trajectories(), st.sampled_from([1e-3, 0.05, 0.15]))
def test_a_trajectory_taken_in_chunks_matches_the_stored_references(case, tol):
    traj, bounds = case
    assert streamed(cut(traj, bounds), len(traj), tol) == stored(traj, tol)


@pytest.mark.parametrize("steps", [1, 9, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1,
                                   2 * CHUNK_STEPS + 1])
@pytest.mark.parametrize("p0,h,tol", [
    ([F(1, 2), F(1, 4), F(1, 4)], 5e-2, 1e-3),  # recurrent from C - 1 steps on
    ([F(1, 2), F(1, 4), F(1, 4)], 1e-2, 5e-2),  # no return yet
    ([F(1), F(0), F(0)], 1e-2, 1e-3),  # a vertex: convergent
])
def test_a_streamed_run_matches_the_references_on_the_stored_run(steps, p0, h, tol):
    scn = gamefile.load_scenario("rps")
    samples, chunks = run_chunks(scn.game, p0, steps * h, h)
    traj = integrate_reference(scn.game, p0, steps, h)
    assert samples == len(traj) == steps + 1
    names = scn.metadata["strategy_names"]
    assert streamed(chunks, samples, tol, names) == stored(traj, tol, names)


# ---------------------------------------------------------------------------
# the quantum payoff surface


@st.composite
def quantum_forms(draw):
    """2x2 games with negative and zero payoffs, under an exact weight a2 (any
    rational, as in the p-adic mode) or the weight |alpha|^2 of a float
    amplitude alpha in [0, 1], read exactly from its binary64 square."""
    entry = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-9, 9), st.integers(1, 7)))
    base = StrategicGame([["a", "b"], ["c", "d"]],
                         {s: (draw(entry), draw(entry)) for s in PROFILES})
    if draw(st.booleans()):
        return ClassicalForm(base, draw(st.builds(F, st.integers(-9, 9), st.integers(1, 9))))
    alpha = draw(st.floats(0, 1))
    return ClassicalForm(base, F(abs(alpha) ** 2))


@st.composite
def alike_quantum_forms(draw):
    """Forms whose A' pays both players alike, so the surface makes one payoff
    per grid point: a symmetric base game (u2(s, t) = u1(t, s)) at a2 = 1/2, or
    a base game with u1 = u2 under any weight that `quantum_forms` draws."""
    entry = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-9, 9), st.integers(1, 7)))
    u1 = {s: draw(entry) for s in PROFILES}
    if draw(st.booleans()):
        base = StrategicGame([["a", "b"], ["a", "b"]],
                             {(s, t): (u1[s, t], u1[t, s]) for s, t in PROFILES})
        return ClassicalForm(base, F(1, 2))
    base = StrategicGame([["a", "b"], ["c", "d"]], {s: (u, u) for s, u in u1.items()})
    if draw(st.booleans()):
        return ClassicalForm(base, draw(st.builds(F, st.integers(-9, 9), st.integers(1, 9))))
    return ClassicalForm(base, F(draw(st.floats(0, 1)) ** 2))


# both sides of the surface's rule that A' pays both players alike
SURFACE_FORMS = st.one_of(quantum_forms(), alike_quantum_forms())


def surface_lines(form, grid, exact=False):
    """The CSV lines of the surface: its header and grid row blocks, split."""
    return "\n".join(payoff_surface_rows(form, grid, exact)).split("\n")


TINY = F(-1, 10**400)  # every payoff of player 1, correctly rounded to -0.0
ALL_TINY = ClassicalForm(
    StrategicGame([["a", "b"], ["c", "d"]], {s: (TINY, -1) for s in PROFILES}), F(1, 2))
# payoffs of about 1000 digits over one denominator of 1000, near 10 and -10 in
# value, so that each float is a division of two big ints
BIG = 10**999 + 3
WIDE = ClassicalForm(StrategicGame([["a", "b"], ["c", "d"]], {
    (0, 0): (F(10**1000 + 1, BIG), F(-10**1000 - 7, BIG)), (0, 1): (F(1, BIG), 0),
    (1, 0): (F(-10**1000 + 11, BIG), F(3, BIG)), (1, 1): (F(10**998, BIG), F(-1, BIG))}), F(3, 5))


BOS = gamefile.load_scenario("bos").game
ALL_ZERO = StrategicGame([["a", "b"], ["c", "d"]], {s: (0, 0) for s in PROFILES})
# A' pays both players alike: bos and pd at maximal entanglement, and
# congestion-2link at every weight
BOS_MAX = ClassicalForm(BOS, F(1, 2))
PD_MAX = ClassicalForm(gamefile.load_scenario("pd").game, F(1, 2))
CONGESTION = ClassicalForm(
    games.congestion_to_strategic(gamefile.load_scenario("congestion-2link").game), F(9, 25))
# u1 = u2 but at (1, 1), where player 2 gets 1/3 more; at a2 = 1, A' is the
# base game, so A' too pays the players apart at one profile only
ALMOST_ALIKE = ClassicalForm(StrategicGame([["a", "b"], ["c", "d"]], {
    (0, 0): (2, 2), (0, 1): (F(-1, 3), F(-1, 3)), (1, 0): (0, 0), (1, 1): (1, F(4, 3))}), F(1))


@pytest.mark.parametrize("form, alike", [
    (BOS_MAX, True), (PD_MAX, True), (CONGESTION, True), (ALMOST_ALIKE, False),
])
def test_the_alike_examples_pay_both_players_alike_or_not(form, alike):
    pairs = [form.game.ints(s) for s in PROFILES]
    assert [x == y for x, y in pairs] == ([True] * 4 if alike else [True] * 3 + [False])


def rounded_lines(lines):
    """The lines of an exact surface with each value as 17 significant digits
    of its float: the exact value correctly rounded."""
    return [lines[0]] + [",".join("%.17g" % float(F(v)) for v in line.split(","))
                         for line in lines[1:]]


# the reference runs a Fraction loop per grid point, so the grids are small
@settings(max_examples=50, deadline=None)
@example(ALL_TINY, 3)
@example(BOS_MAX, 7)
@example(PD_MAX, 10)
@example(CONGESTION, 9)
@example(ALMOST_ALIKE, 6)
@example(WIDE, 5)
@given(SURFACE_FORMS, st.integers(1, 20))
def test_payoff_surface_rows_are_the_exact_payoffs_correctly_rounded(form, grid):
    assert surface_lines(form, grid) == rounded_lines(padic_surface_rows_reference(form, grid))


@settings(max_examples=30, deadline=None)
@example(ALL_TINY, 3)
@example(BOS_MAX, 30)
@example(ALMOST_ALIKE, 6)
@example(WIDE, 12)
@given(SURFACE_FORMS, st.integers(1, 40))
def test_the_complex_surface_rounds_the_values_of_the_exact_surface(form, grid):
    assert surface_lines(form, grid) == rounded_lines(surface_lines(form, grid, exact=True))


def test_a_tiny_negative_payoff_prints_as_minus_zero():
    # -1/10**400 rounds to -0.0, and -0.0 prints as -0
    lines = surface_lines(ALL_TINY, 3)[1:]
    assert len(lines) == 16
    assert {tuple(line.split(",")[2:]) for line in lines} == {("-0", "-1")}


# each example runs up to 10201 Fraction points in the reference, so there are few of them
@settings(max_examples=8, deadline=None)
@example(ALL_TINY, 3)
@example(ClassicalForm(BOS, F(25, 9)), 10)  # gt quantumize --padic --p 5 --alpha=5/3
@example(ClassicalForm(ALL_ZERO, F(1, 2)), 6)  # every numerator is 0 and prints as 0
@example(BOS_MAX, 1)
@example(PD_MAX, 12)
@example(CONGESTION, 9)
@example(ALMOST_ALIKE, 6)
@given(SURFACE_FORMS, st.integers(1, 100))
def test_exact_payoff_surface_rows_match_the_fraction_loop(form, grid):
    assert surface_lines(form, grid, exact=True) == padic_surface_rows_reference(
        form, grid)


@settings(max_examples=150, deadline=None)
@example(BOS_MAX, 4)
@example(PD_MAX, 3)
@example(CONGESTION, 5)
@example(ALMOST_ALIKE, 2)
@given(SURFACE_FORMS, st.integers(1, 30))
def test_exact_payoff_surface_rows_match_the_fraction_loop_on_small_grids(form, grid):
    assert surface_lines(form, grid, exact=True) == padic_surface_rows_reference(
        form, grid)


# the base game's player-1 payoff rises from -1 to 1 from column 0 to column 1
# in every row, so under a weight a2 above 1/2, where A' flips that, each exact
# row's step a is negative and its numerators cross 0 at j = N/2
FALLING = StrategicGame([["a", "b"], ["c", "d"]],
                        {(0, 0): (-1, 2), (0, 1): (1, 2), (1, 0): (-1, F(-1, 3)), (1, 1): (1, 0)})


@settings(max_examples=40, deadline=None)
@example(ClassicalForm(FALLING, F(3, 4)), 4)
@example(ClassicalForm(FALLING, F(7, 5)), 6)
@given(quantum_forms(), st.integers(1, 12))
def test_exact_payoff_surface_rows_step_through_zero(form, grid):
    assert surface_lines(form, grid, exact=True) == padic_surface_rows_reference(form, grid)


@pytest.mark.parametrize("a2, n", [(F(3, 4), 4), (F(7, 5), 6)])
def test_the_falling_examples_step_down_through_zero(a2, n):
    game = ClassicalForm(FALLING, a2).game
    (x00, _), (x01, _), (x10, _), (x11, _) = (game.ints(s) for s in PROFILES)
    for i in range(n + 1):
        a = i * (x00 - x01) + (n - i) * (x10 - x11)
        b = n * (i * x01 + (n - i) * x11)
        assert a < 0 < b and a * n + b < 0 and a * (n // 2) + b == 0


def test_the_exact_surface_builds_a_fraction_per_grid_label_only(monkeypatch):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(quantum, "Fraction", CountingFraction)
    form = ClassicalForm(BOS, F(25, 9))
    for grid in (1, 10, 28):
        built.clear()
        lines = surface_lines(form, grid, exact=True)
        assert len(lines) == 1 + (grid + 1) ** 2
        assert 0 < len(built) <= grid + 1


# ---------------------------------------------------------------------------
# the 2x2 quantum core on integers


QUANTUM_PAYOFFS = st.one_of(st.integers(-50, 50),
                            st.builds(F, st.integers(-50, 50), st.integers(1, 12)))
WEIGHTS = st.one_of(st.builds(F, st.integers(-30, 30), st.integers(1, 30)),
                    st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40)))
PROBABILITIES = st.builds(lambda d, k: F(k % (d + 1), d), st.integers(1, 40), st.integers(0, 40))


@st.composite
def base_games_2x2(draw):
    """2x2 games of wide payoffs, or of payoffs k/d for k in {-2..2}, where ties
    and degenerate games are common."""
    entry = draw(st.sampled_from([QUANTUM_PAYOFFS, rationals_over(2, [1, 2, 3, 4])]))
    return StrategicGame([["a", "b"], ["c", "d"]],
                         {s: (draw(entry), draw(entry)) for s in PROFILES})


@settings(max_examples=200, deadline=None)
@example(BOS, F(-3, 7))  # a negative weight
@example(BOS, F(25, 9))  # a weight above 1
@example(BOS, F(1, 2))
@example(ALL_ZERO, F(5, 3))  # every payoff 0, at D = 1
@example(ALL_TINY.base, F(10**50 + 1, 3**100))  # a large D times a large d
@example(FALLING, F(1))
@example(FALLING, F(0))
@given(base_games_2x2(), WEIGHTS)
def test_the_integer_classical_form_is_the_fraction_build(base, a2):
    game = ClassicalForm(base, a2).game
    want = classical_form_game_reference(base, a2)
    assert game == want and hash(game) == hash(want)
    assert game._scale == want._scale and game._payoffs == want._payoffs
    assert all(type(v) is int for u in game._payoffs for v in u)


def test_a_classical_form_whose_denominator_is_too_long_is_refused():
    # D about 600 digits and d about 600 more, coprime: the parent's Fraction
    # build refused this game with the same message
    base = StrategicGame([["a", "b"], ["c", "d"]],
                         {(0, 0): (F(1, 3**1258), 1), (0, 1): (0, 0), (1, 0): (0, 0),
                          (1, 1): (0, 0)})
    a2 = F(1, 2**1994)
    for build in (ClassicalForm, classical_form_game_reference):
        with pytest.raises(errors.SizeLimit,
                           match="^the payoff denominators have a common multiple over 1000"):
            build(base, a2)
    assert ClassicalForm(base, F(1, 2)).game == classical_form_game_reference(base, F(1, 2))


@settings(max_examples=200, deadline=None)
@example(BOS, F(9, 25), F(0), F(1))
@example(FALLING, F(-1, 2), F(1), F(1, 3))
@given(base_games_2x2(), WEIGHTS, PROBABILITIES, PROBABILITIES)
def test_the_closed_form_2x2_payoff_is_the_expected_payoff(base, a2, p, q):
    form = ClassicalForm(base, a2)
    profile = ((p, 1 - p), (q, 1 - q))
    want = games.expected_payoff(form.game, profile)
    assert games.payoffs_2x2(form.game, p, q) == want
    assert form.payoffs(p, q) == want
    assert form.distribution(p, q) == distribution_reference(form.a2, p, q)
    assert games.payoffs_2x2(base, p, q) == games.expected_payoff(base, profile)


@settings(max_examples=200, deadline=None)
@given(base_games_2x2())
def test_mixed_ne_2x2_payoffs_are_the_expected_payoffs(game):
    rows = games.mixed_ne_2x2(game)
    assert rows and all(pay == games.expected_payoff(game, sigma) for sigma, pay in rows)


@pytest.mark.parametrize("p, q", [(F(-1, 3), F(1, 2)), (F(1, 2), F(4, 3)), (2, 0), (0, -1)])
def test_payoffs_outside_the_square_are_refused(p, q):
    form = ClassicalForm(BOS, F(9, 25))
    with pytest.raises(errors.InvalidProfile, match="not a probability vector"):
        form.payoffs(p, q)


def test_a_float_probability_is_refused_by_the_distribution():
    form = ClassicalForm(BOS, F(9, 25))
    with pytest.raises(errors.InvalidArgument, match="exact rational required"):
        form.distribution(0.5, F(1, 2))
    assert form.distribution(1, "1/2") == distribution_reference(F(9, 25), F(1), F(1, 2))


@given(st.lists(st.integers(-10**20, 10**20), min_size=4, max_size=12).filter(
    lambda v: len(v) % 2 == 0))
def test_integer_payoffs_at_denominator_1_are_their_own_ints(values):
    scale, payoffs = games._integer_payoffs(values, 2)
    assert scale == 1 and payoffs == (tuple(values[0::2]), tuple(values[1::2]))
    assert all(x is y for x, y in zip(payoffs[0], values[0::2]))
    as_fractions = [F(v) for v in values]  # a Fraction of denominator 1 is copied to an int
    assert games._integer_payoffs(as_fractions, 2) == (scale, payoffs)
    assert all(type(v) is int for u in games._integer_payoffs(as_fractions, 2)[1] for v in u)


# ---------------------------------------------------------------------------
# the Pareto set


@st.composite
def tied_games(draw):
    """2 or 3 players, at most 4 strategies each, payoffs k/d for k in {-2..2} and
    d in {1, 2, 3, 4}: many ties."""
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    profiles = list(itertools.product(*(range(k) for k in shape)))
    vector = st.tuples(*[rationals_over(2, [1, 2, 3, 4])] * len(shape))
    vectors = draw(st.lists(vector, min_size=len(profiles), max_size=len(profiles)))
    return StrategicGame([[f"s{i}" for i in range(k)] for k in shape], dict(zip(profiles, vectors)))


@st.composite
def pure_nash_games(draw):
    """A 2- to 5-player game with 1-3 strategies each and payoffs k/d for k in
    {-2..2} and d in {1, 2, 3}; in about half of them the payoffs of every
    profile sum to one constant, the last player's being the rest.  With 3 or
    more players a middle player's stride is neither 1 nor the largest."""
    shape = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    profiles = list(itertools.product(*(range(k) for k in shape)))
    payoff = rationals_over(2, [1, 2, 3])
    constant = draw(st.one_of(st.none(), payoff))
    width = len(shape) - (constant is not None)
    vectors = [draw(st.lists(payoff, min_size=width, max_size=width)) for _ in profiles]
    if constant is not None:
        vectors = [[*u, constant - sum(u)] for u in vectors]
    return StrategicGame([[f"s{i}" for i in range(k)] for k in shape], dict(zip(profiles, vectors)))


def _column_game(*vectors):
    """A 3-player game of shape (len(vectors), 1, 1) with these payoff vectors."""
    return StrategicGame([[f"s{i}" for i in range(len(vectors))], ["t"], ["u"]],
                         [[[v]] for v in vectors])


def _row_game(*vectors):
    """A 2-player game of shape (len(vectors), 1) with these payoff vectors."""
    return StrategicGame([[f"s{i}" for i in range(len(vectors))], ["t"]],
                         [[v] for v in vectors])


@settings(max_examples=300, deadline=None)
@given(st.one_of(tied_games(), pure_nash_games()))
# the staircase's edge cases: a point of equal second payoff and a smaller or
# larger third; an equal (second, third) under a larger first; repeated vectors,
# kept and dropped
@example(_column_game((3, 1, 2), (2, 1, 1), (1, 1, 3), (0, 1, 4), (0, 0, 5)))
@example(_column_game((2, 1, 1), (1, 1, 1), (1, 0, 2), (0, 1, 1)))
@example(_column_game((2, 2, 2), (1, 1, 1), (2, 2, 2), (1, 1, 1), (0, 3, 0), (0, 3, 0)))
# and with 2 players, whose staircase is one point: equal vectors kept together
# and dropped together, an equal second payoff under a larger first, an
# all-equal game, and second payoffs strictly rising as the first falls
@example(_row_game((2, 2), (1, 1), (2, 2), (1, 1), (0, 3)))
@example(_row_game((3, 1), (2, 1), (1, 2), (1, 1)))
@example(_row_game((1, 1), (1, 1), (1, 1)))
@example(_row_game((3, 0), (2, 1), (1, 2), (0, 3)))
def test_pareto_maxima_scan_matches_the_pairwise_test(game):
    assert pareto_optimal_profiles(game) == pareto_optimal_profiles_pairwise(game)


# ---------------------------------------------------------------------------
# the deviation walks and strategy values


def _distribution(weights):
    """Exact probabilities proportional to non-negative integer weights, not all zero."""
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


@st.composite
def games_with_profiles(draw):
    """A 2- or 3-player game with 1-3 strategies each and payoffs k/d for k in
    {-2..2} and d in {1, 2, 3, 6, 7}, plus a random exact mixed profile, a joint
    distribution and a potential over its profiles, with rational values too."""
    shape = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    profiles = list(itertools.product(*(range(k) for k in shape)))
    vector = st.tuples(*[rationals_over(2, [1, 2, 3, 6, 7])] * len(shape))
    vectors = draw(st.lists(vector, min_size=len(profiles), max_size=len(profiles)))
    game = StrategicGame([[f"s{i}" for i in range(k)] for k in shape], dict(zip(profiles, vectors)))

    def weights(k):
        return st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any)

    mixed = tuple(_distribution(draw(weights(k))) for k in shape)
    dist = dict(zip(profiles, _distribution(draw(weights(len(profiles))))))
    potential = dict(zip(profiles, draw(st.lists(
        rationals_over(2, [1, 2, 3, 6, 7]), min_size=len(profiles), max_size=len(profiles)))))
    return game, mixed, dist, potential


# One test per kernel, each drawing from `games_with_profiles`, so that a
# failure shrinks the one check that failed.


@settings(max_examples=300, deadline=None)
@given(pure_nash_games())
def test_pure_nash_matches_the_profile_loop(game):
    assert games.pure_nash(game) == pure_nash_reference(game)


@settings(max_examples=300, deadline=None)
@given(games_with_profiles())
def test_is_epsilon_nash_matches_the_profile_loop(case):
    game, mixed = case[:2]
    for eps in (0, F(1, 7), F(1, 2)):
        assert games.is_epsilon_nash(game, mixed, eps) == is_epsilon_nash_reference(
            game, mixed, eps)


@settings(max_examples=300, deadline=None)
@given(games_with_profiles())
def test_expected_payoff_matches_the_profile_loop(case):
    game, mixed = case[:2]
    assert games.expected_payoff(game, mixed) == expected_payoff_reference(game, mixed)


@settings(max_examples=300, deadline=None)
@given(games_with_profiles())
def test_check_potential_matches_the_profile_loop_on_both_games(case):
    game, _, _, potential = case
    # the potential's own identical-interest game has it as an exact potential
    common = StrategicGame(game.strategy_names,
                           {s: (v,) * game.n_players for s, v in potential.items()})
    for g in (game, common):
        assert games.check_potential(g, potential) == check_potential_reference(g, potential)
    assert games.check_potential(common, potential)


@settings(max_examples=300, deadline=None)
@given(games_with_profiles())
def test_is_correlated_equilibrium_matches_the_profile_loop(case):
    game, _, dist, _ = case
    check = games.is_correlated_equilibrium(game, dist)
    reference = is_correlated_equilibrium_reference(game, dist)
    assert (check.holds, check.worst_margin, check.violations) == (
        reference.holds, reference.worst_margin, reference.violations)


@settings(max_examples=300, deadline=None)
@given(games_with_profiles())
def test_best_response_dynamics_matches_the_profile_loop(case):
    game = case[0]
    limit = math.prod(game.shape) + 1
    for start in game.profiles():
        assert outcome(games.best_response_dynamics, game, start, limit) == outcome(
            best_response_dynamics_reference, game, start, limit)


# ---------------------------------------------------------------------------
# congestion games: the potential and the best-response paths of `gt analyze`


@st.composite
def congestion_games(draw):
    """2-4 players, 1-4 resources and 1-3 strategies each, with rational cost
    ladders in any order (not only increasing), negative costs included."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4))
    ladder = st.lists(rationals_over(4, [1, 2, 3, 5]), min_size=n, max_size=n)
    strategy = st.lists(st.integers(0, m - 1), min_size=1, max_size=m)
    return games.CongestionGame(
        tuple(f"r{j}" for j in range(m)),
        tuple(draw(ladder) for _ in range(m)),
        tuple(draw(st.lists(strategy, min_size=1, max_size=3)) for _ in range(n)))


@settings(max_examples=200, deadline=None)
@given(congestion_games())
def test_congestion_section_is_best_response_dynamics_from_every_start(cg):
    game = games.congestion_to_strategic(cg)
    assert games.check_potential(
        game, {s: -games.rosenthal_potential(cg, s) for s in game.profiles()})
    rows = cli._congestion_section(cg, game)["best_response_dynamics"]
    assert [row["start"] for row in rows] == [list(game.labels(s)) for s in game.profiles()]
    limit = math.prod(game.shape) + 1
    for start, row in zip(game.profiles(), rows):
        res = games.best_response_dynamics(game, start, limit)
        assert not isinstance(res, CycleReport)
        assert (row["equilibrium"], row["steps"]) == (list(game.labels(res.profile)), res.steps)


# ---------------------------------------------------------------------------
# the extension product


def _mu_embedded(z, n):
    return padic.padic_from_rational(z.mu, 1, z.p, n or padic.DEFAULT_PRECISION)


def ext_mul_reference(z, w):
    """(x, y) of z * w with mu embedded at the largest component precision."""
    mu = _mu_embedded(z, max(c.precision for c in (z.x, z.y, w.x, w.y)))
    return (padic.add(padic.mul(z.x, w.x), padic.mul(mu, padic.mul(z.y, w.y))),
            padic.add(padic.mul(z.x, w.y), padic.mul(z.y, w.x)))


def field_norm_reference(z):
    mu = _mu_embedded(z, max(z.x.precision, z.y.precision))
    return padic.sub(padic.mul(z.x, z.x), padic.mul(mu, padic.mul(z.y, z.y)))


@st.composite
def extension_pairs(draw):
    """Two elements of Q_p(sqrt(mu)), p <= 13, mu of valuation 0, 1 or 2, components
    small rationals (zero included) at independent precisions 1-12."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    base = padic.find_nonresidue(p)
    mu = draw(st.sampled_from([base, p, -p, base * p * p]))

    def component():
        q = draw(st.fractions(min_value=-50, max_value=50, max_denominator=50))
        return padic.padic_from_rational(q, 1, p, draw(st.integers(1, 12)))

    return [padic.PAdicExtElement(component(), component(), mu) for _ in range(2)]


@settings(max_examples=150, deadline=None)
@given(extension_pairs())
def test_extension_product_and_norm_match_the_embedded_mu(pair):
    z, w = pair
    product = z * w
    assert (product.x, product.y) == ext_mul_reference(z, w)
    assert z.field_norm() == field_norm_reference(z)


# ---------------------------------------------------------------------------
# Nash bargaining


def nash_bargaining_reference(problem):
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


@st.composite
def bargaining_problems(draw):
    """(points, disagreement): 1-7 utility points with coordinates of denominator
    at most 3, scattered or collinear, with up to two repeated, and a disagreement
    point inside their hull, on a segment between two of them, or anywhere."""
    coords = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    unit = st.fractions(min_value=0, max_value=1, max_denominator=3)
    k = draw(st.integers(1, 7))
    if draw(st.integers(0, 4)) == 0:
        (ax, ay), (bx, by) = draw(st.tuples(coords, coords)), draw(st.tuples(coords, coords))
        ts = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                           min_size=k, max_size=k))
        points = [(ax + t * (bx - ax), ay + t * (by - ay)) for t in ts]
    else:
        points = draw(st.lists(st.tuples(coords, coords), min_size=k, max_size=k))
    points += draw(st.lists(st.sampled_from(points), max_size=2))
    where = draw(st.sampled_from(["inside", "on", "anywhere"]))
    if where == "inside":
        weights = draw(st.lists(st.integers(0, 3), min_size=len(points),
                                max_size=len(points)).filter(any))
        d = tuple(sum(w * pt[i] for w, pt in zip(weights, points)) / sum(weights)
                  for i in (0, 1))
    elif where == "on":
        (ax, ay), (bx, by) = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        t = draw(unit)
        d = (ax + t * (bx - ax), ay + t * (by - ay))
    else:
        d = draw(st.tuples(coords, coords))
    return points, d


def _bargain(solve, problem):
    try:
        return "point", solve(problem)
    except errors.InfeasibleBargain as exc:
        return "infeasible", str(exc)


@settings(max_examples=500, deadline=None)
@given(bargaining_problems())
@example(([(1, 2)], (0, 0)))  # a feasible single point
@example(([(1, 2)], (2, 0)))  # an infeasible single point
@example(([(0, 3), (3, 0)], (0, 0)))  # a segment whose product peaks at (3/2, 3/2)
@example(([(0, 0), (2, 0)], (0, 0)))  # product 0 along the segment: the larger end wins
def test_nash_bargaining_matches_the_vertex_and_edge_reference(case):
    problem = BargainingProblem(*case)
    assert _bargain(nash_bargaining, problem) == _bargain(nash_bargaining_reference, problem)
