"""Replicator dynamics on the probability simplex for evolution matrix games.

Integration uses binary64 floats (fixed-step RK4 with clamp-and-renormalize
projection); rest points, interior equilibria and the ESS face analysis use
exact rational elimination.  Every operation is deterministic: there is no
randomness anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import errors
# solve_exact stays a name here because perfbench/tracing.py rebinds evolution.solve_exact.
from ._linsolve import equalizer, solve_exact  # noqa: F401

SUM_TOL = 1e-12
CLAMP = 1e-12
DIVERGE_TOL = 1e-9
NASH_TOL = 1e-10
REST_TOL = 1e-9
SAMPLE_CAP = 2_000_000  # samples x strategies that integrate stores

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _to_fraction(value):
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, (int, Fraction, str)):
        return Fraction(value)
    if isinstance(value, np.floating):
        return Fraction(float(value))
    if isinstance(value, np.integer):
        return Fraction(int(value))
    raise errors.InvalidArgument(f"not a real matrix entry: {value!r}")


class EvolutionGame:
    """Symmetric evolution matrix game: an n x n payoff matrix A.

    Rational (or integer / string) entries are kept exactly alongside the
    float matrix; float inputs are rationalized exactly (binary64 floats are
    rationals), so the exact and float views always agree.
    """

    def __init__(self, matrix):
        exact = tuple(tuple(_to_fraction(v) for v in row) for row in matrix)
        n = len(exact)
        if n < 2 or any(len(row) != n for row in exact):
            raise errors.InvalidArgument("payoff matrix must be square with n >= 2")
        self.exact = exact
        try:
            self.matrix = np.array([[float(v) for v in row] for row in exact], dtype=float)
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


class SimplexState:
    """Point of the (n-1)-simplex.

    Exact entries (ints, Fractions, strings) are preserved for the rational
    solvers; float input is accepted when it sums to 1 within 1e-12.
    """

    def __init__(self, probs):
        values = list(probs)
        floaty = any(isinstance(v, (float, np.floating)) for v in values)
        if floaty:
            p = np.asarray([float(v) for v in values], dtype=float)
            self.exact = None
        else:
            exact = tuple(_to_fraction(v) for v in values)
            if any(q < 0 for q in exact) or sum(exact) != 1:
                raise errors.InvalidState(f"not an exact simplex point: {exact}")
            self.exact = exact
            p = np.asarray([float(q) for q in exact], dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise errors.InvalidState("simplex state needs at least 2 coordinates")
        if np.any(p < 0):
            raise errors.InvalidState(f"negative probability in {p}")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise errors.InvalidState(f"coordinates sum to {p.sum()!r}, not 1")
        self.p = p

    @property
    def n(self):
        return self.p.size

    def support(self, tol=CLAMP):
        if self.exact is not None:
            return tuple(i for i, q in enumerate(self.exact) if q > 0)
        return tuple(i for i, v in enumerate(self.p) if v > tol)

    def __repr__(self):
        return f"SimplexState({np.array2string(self.p, precision=6)})"


def _state_array(g, state):
    p = state.p if isinstance(state, SimplexState) else SimplexState(list(state)).p
    if p.size != g.n:
        raise errors.InvalidArgument(f"state has {p.size} coordinates for an {g.n}-strategy game")
    return p


def fitness(g, state):
    """Per-strategy expected payoff u(p) = A p."""
    return g.matrix @ _state_array(g, state)


def mean_fitness(g, state):
    """Population average payoff p A p^T."""
    p = _state_array(g, state)
    return float(p @ g.matrix @ p)


def excess(g, state):
    """Excess payoff h(p) = A p - (p A p^T) 1."""
    p = _state_array(g, state)
    u = g.matrix @ p
    return u - float(p @ u)


def _rhs(A, x):
    u = A @ x
    return x * (u - x @ u)


def replicator_rhs(g, state):
    """Replicator vector field p_i * (u_i(p) - mean); tangent to the simplex."""
    p = _state_array(g, state)
    return _rhs(g.matrix, p)


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory: strictly increasing times and simplex states."""

    times: np.ndarray
    states: np.ndarray
    h: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.size:
            raise errors.InvalidArgument("trajectory needs matching times and states")
        if np.any(np.diff(t) <= 0):
            raise errors.InvalidArgument("times must be strictly increasing")
        # written so that NaN entries fail the test too
        if not (np.all(s >= 0) and np.max(np.abs(s.sum(axis=1) - 1.0)) <= SUM_TOL):
            raise errors.InvalidState("trajectory left the simplex")

    def __len__(self):
        return self.times.size

    @property
    def final(self):
        return self.states[-1]

    def csv_rows(self, names=None):
        """CSV with 17-significant-digit floats: t, p_1, ..., p_n."""
        n = self.states.shape[1]
        header = ",".join(["t"] + [names[i] if names else f"p_{i + 1}" for i in range(n)])
        fmt = ",".join(["%.17g"] * (n + 1))
        rows = [header]
        rows.extend(
            fmt % (t, *row)
            for t, row in zip(self.times.tolist(), map(np.ndarray.tolist, self.states))
        )
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
    return [v / total for v in new]


def integrate(g, p0, t_end, h=1e-3):
    """Classical fixed-step RK4 on the replicator equation.

    After every step, entries of magnitude below 1e-12 are clamped to zero and
    the state renormalized to sum 1.  Deterministic; t_end is realized as
    round(t_end / h) steps of exactly h.  SizeLimit, before anything is
    allocated, when the steps + 1 samples of g.n values exceed SAMPLE_CAP.
    """
    if not (0 < h < math.inf and 0 < t_end < math.inf):
        raise errors.InvalidArgument("need finite h > 0 and t_end > 0")
    p = _state_array(g, p0 if isinstance(p0, SimplexState) else SimplexState(list(p0)))
    # min() keeps an overflowing t_end / h convertible; the cap then refuses it
    steps = max(1, int(round(min(t_end / h, SAMPLE_CAP))))
    if (steps + 1) * g.n > SAMPLE_CAP:
        raise errors.SizeLimit(f"t_end / h = {t_end / h:.6g} steps of {g.n} strategies "
                               f"exceed the cap of {SAMPLE_CAP} stored values")
    rows = tuple(tuple(row) for row in g.matrix.tolist())
    states = np.empty((steps + 1, g.n), dtype=float)
    states[0] = p
    x = p.tolist()
    for k in range(steps):
        x = _step_list(rows, x, h)
        states[k + 1] = x
    times = np.arange(steps + 1, dtype=float) * h
    return Trajectory(times, states, h)


def time_average(traj):
    """Trapezoidal time average (1/T) * integral of p(t) dt over the trajectory."""
    span = traj.times[-1] - traj.times[0]
    return _trapezoid(traj.states, traj.times, axis=0) / span


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


def is_nash_state(g, state):
    """Nash state test max (Ap)_i <= p^T A p: in Fractions for an exact state,
    within 1e-10 for a float one."""
    st = state if isinstance(state, SimplexState) else SimplexState(list(state))
    p = _state_array(g, st)
    if st.exact is not None:
        u = _exact_payoffs(g, st.exact)
        return max(u) <= sum(map(mul, st.exact, u))
    u = g.matrix @ p
    return bool(np.max(u) <= float(p @ u) + NASH_TOL)


def transversal_eigenvalues(g, state):
    """Eigenvalues transversal to the support faces at a boundary rest point.

    Returns (index, h_i(p)) for every strategy outside the support; the point
    is a Nash state iff all returned values are <= 1e-10.
    """
    st = state if isinstance(state, SimplexState) else SimplexState(list(state))
    p = _state_array(g, st)
    if np.max(np.abs(_rhs(g.matrix, p))) > REST_TOL:
        raise errors.InvalidArgument("not a rest point (residual above 1e-9)")
    support = st.support()
    outside = [i for i in range(g.n) if i not in support]
    if not outside:
        raise errors.InvalidArgument("interior point has no transversal directions")
    h = excess(g, st)
    return [(i, float(h[i])) for i in outside]


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
    is underdetermined are listed rather than expanded.
    """
    reports = []
    continua = []
    for m in range(1, g.n + 1):
        for support in itertools.combinations(range(g.n), m):
            status, coords, _ = equalizer([[g.exact[i][j] for j in support] for i in support])
            if status == "many":
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


# ---------------------------------------------------------------------------
# evolutionary stability


@dataclass(frozen=True)
class EssReport:
    is_ess: bool
    method: str


def _exact_state(state):
    if state.exact is not None:
        return state.exact
    vals = [Fraction(float(v)) for v in state.p]
    total = sum(vals)
    return tuple(q / total for q in vals)


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
    """Evolutionary stability of a Nash state.

    Nash is decided by `is_nash_state`, exactly for an exact state.
    Best-reply faces of at most 3 strategies (always the case for n <= 3)
    get the exact decision of `_face_is_ess`, KKT support enumeration over
    the whole face, labelled "exact-face".  Larger faces are sampled on a
    deterministic barycentric grid (resolution 1/64, coarsened on very
    high-dimensional faces) and the verdict, labelled "sampled-1/R", is not
    certified.  The kernel is exact on faces of any size; larger faces keep
    the grid only while `perfbench/expected/american-values-10.json` pins a
    sampled verdict that the exact decision overturns.
    """
    st = state if isinstance(state, SimplexState) else SimplexState(list(state))
    if not is_nash_state(g, st):
        raise errors.InvalidState("evolutionary stability is defined for Nash states only")
    p = _exact_state(st)
    u = _exact_payoffs(g, p)
    top = max(u)
    slack = 0 if st.exact is not None else Fraction(1, 10**9)
    face = [i for i, ui in enumerate(u) if top - ui <= slack]
    # holds for every exact Nash state; a float state is Nash only within 1e-10
    if any(q > 0 and i not in face for i, q in enumerate(p)):
        raise errors.InvalidState(
            "state support is not contained in its best-reply set; "
            "use an exactly specified Nash state"
        )
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
    A = g.matrix
    r = _rhs(A, p)
    lhs = float(r @ (A + A.T) @ p)
    h = A @ p - float(p @ A @ p)
    rhs_val = 2.0 * float(np.sum(p * h * h))
    return abs(lhs - rhs_val)


def power_product_rate(g, state, alphas):
    """Analytic derivative of V(p) = prod p_i**alpha_i along the replicator flow."""
    p = _state_array(g, state)
    alphas = np.asarray(alphas, dtype=float)
    if np.any(p <= 0):
        raise errors.InvalidArgument("power product needs an interior state")
    V = float(np.prod(p**alphas))
    u = g.matrix @ p
    return V * float(np.sum(alphas * (u - float(p @ u))))


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
    the state re-enters the tol-ball around the initial state in episodes
    whose spacing is stable within +-10%; the period estimate is the mean
    spacing.
    """
    if not 0 < tol < math.inf:
        raise errors.InvalidArgument(f"tolerance must be finite and positive, got {tol!r}")
    n = len(traj)
    if n < 10:
        raise errors.InsufficientData(f"need at least 10 samples, got {n}")
    window = traj.states[-max(10, n // 10):]
    diameter = float(np.max(window.max(axis=0) - window.min(axis=0)))
    if diameter < tol:
        return RecurrenceReport("convergent", detail=f"terminal window diameter {diameter:.3g}")

    ref = traj.states[0]
    dist = np.max(np.abs(traj.states - ref), axis=1)
    inside = dist < tol
    episodes = traj.times[1:][inside[1:] & ~inside[:-1]]
    if len(episodes) >= 2:
        spacings = np.diff(episodes)
        mean = float(spacings.mean())
        if mean > 0 and np.all(np.abs(spacings - mean) <= 0.10 * mean):
            return RecurrenceReport(
                "recurrent", period=mean, detail=f"{len(episodes)} returns to the start ball"
            )
    return RecurrenceReport("none")
