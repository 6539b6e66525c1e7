"""Replicator dynamics on the probability simplex for evolution matrix games.

Integration uses binary64 floats (fixed-step RK4 with clamp-and-renormalize
projection).  Every verdict (Nash state, rest point, ESS) is decided exactly
on the game's integer payoff table: a state enters as integer weights over
its own denominator, so A p, p^T A p and the ESS form are ints in one
positive scale, which changes no sign and no solution.  Every reported state
is an exact `SimplexState`; the float diagnostics are reported, never
compared against a tolerance.
Floats are Python floats in tuples, lists and one flat `array('d')` per
trajectory.  Every operation is deterministic: there is no randomness
anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
import numbers
from array import array
from functools import reduce
from fractions import Fraction
from operator import add, lt, mul, sub
from typing import NamedTuple

from . import errors
# solve_exact stays a name here because perfbench/tracing.py rebinds evolution.solve_exact.
from ._linsolve import equalizer, principal_equalizers, solve_exact  # noqa: F401
from .games import _common_denominator, _reduced, _vector, _weights, as_fraction

SUM_TOL = 1e-12
CLAMP = 1e-12
DIVERGE_TOL = 1e-9
SAMPLE_CAP = 2_000_000  # samples x strategies that integrate stores
SUPPORT_CAP = 2 ** 12 - 1  # supports rest_point_reports solves: 2^n - 1, so n <= 12
STRATEGY_CAP = 80  # strategies integrate compiles an RK4 run for; its code grows as n^2
CHUNK_STEPS = 1024  # RK4 steps per chunk of run_chunks: what `gt evolve` holds at once


def _to_fraction(value, what="matrix entry"):
    """A float as its exact value (binary64 floats are rationals), anything
    else as `games.as_fraction` reads it (SizeLimit past its digit bound); a
    non-finite float or a value `as_fraction` refuses is InvalidArgument,
    "not a real <what>: <value>"."""
    try:
        return Fraction(value) if isinstance(value, float) else as_fraction(value)
    except (ValueError, OverflowError, errors.InvalidArgument):
        raise errors.InvalidArgument(f"not a real {what}: {value!r}") from None


def _dot(a, b):
    """Products added left to right from 0.0 (builtin sum is compensated from Python 3.12)."""
    return reduce(add, map(mul, a, b), 0.0)


class EvolutionGame(errors.Frozen):
    """Symmetric evolution matrix game: an n x n payoff matrix A.

    Rows are vectors as `games._vector` takes them (never strings); entries
    are integers (numpy ones too), Fractions, strings or floats (rationalized
    exactly).  A is kept as `table`, int rows over `scale` D, the lcm of the
    entries' denominators, as `games` keeps a strategic game (SizeLimit over
    RATIONAL_DIGITS digits), and as `matrix`, its correctly rounded binary64
    values.  A game is an `errors.Frozen` value: equal matrices give equal
    games that hash alike.
    """

    __slots__ = ("scale", "table", "matrix")

    def __init__(self, matrix):
        exact = [list(map(_to_fraction, _vector(row, "matrix", (i,))))
                 for i, row in enumerate(_vector(matrix, "matrix"))]
        n = len(exact)
        if n < 2 or any(len(row) != n for row in exact):
            raise errors.InvalidArgument("payoff matrix must be square with n >= 2")
        try:
            floats = tuple(tuple(map(float, row)) for row in exact)
        except OverflowError as exc:
            raise errors.InvalidArgument("payoff entry beyond the binary64 range") from exc
        scale = _common_denominator((v for row in exact for v in row), "payoff")
        self._set_fields(scale, tuple(tuple(v.numerator * (scale // v.denominator) for v in row)
                                      for row in exact), floats)

    @classmethod
    def _checked(cls, scale, table):
        """A game from n x n int rows over the denominator scale > 0 of a game
        already checked, reduced by `games._reduced` to the lcm scale that
        `__init__` takes (SizeLimit past RATIONAL_DIGITS digits); `matrix`
        holds the same correctly rounded values."""
        if len(table) < 2:
            raise errors.InvalidArgument("payoff matrix must be square with n >= 2")
        scale, table = _reduced(scale, tuple(map(tuple, table)))
        try:
            floats = tuple(tuple(v / scale for v in row) for row in table)
        except OverflowError as exc:
            raise errors.InvalidArgument("payoff entry beyond the binary64 range") from exc
        game = cls.__new__(cls)
        game._set_fields(scale, table, floats)
        return game

    @property
    def exact(self):
        """A as rows of Fractions, table / scale: the view a game file writes."""
        scale = self.scale
        return tuple(tuple(Fraction(v, scale) for v in row) for row in self.table)

    @property
    def n(self):
        return len(self.table)

    @property
    def is_symmetric(self):
        return self.table == tuple(zip(*self.table))

    def __repr__(self):
        return f"EvolutionGame(n={self.n})"


def _entries(values):
    """(Fractions, binary64 values) of at least 2 entries, each as `_to_fraction`
    takes it, from a vector as `games._vector` takes it."""
    exact = tuple(_to_fraction(v, "state entry") for v in _vector(values, "state"))
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
            raise errors.InvalidState(f"not an exact simplex point: ({', '.join(map(str, exact))})")
        self.exact, self.p = exact, p

    @classmethod
    def _checked(cls, exact, p):
        """A state from Fractions already known to be a simplex point and their
        correctly rounded binary64 values."""
        state = cls.__new__(cls)
        state.exact, state.p = exact, p
        return state

    @property
    def n(self):
        return len(self.p)

    def __repr__(self):
        return f"SimplexState([{', '.join(f'{v:.6g}' for v in self.p)}])"


def _state_array(g, state):
    """The binary64 entries of a SimplexState, or of a sequence of at least 2
    finite numbers >= 0 (no booleans) that sum to 1 within SUM_TOL."""
    if isinstance(state, SimplexState):
        p = state.p
    else:
        p = _entries(state)[1]
        if min(p) < 0 or not abs(reduce(add, p, 0.0) - 1.0) <= SUM_TOL:
            raise errors.InvalidState(f"{p} is not a simplex point within {SUM_TOL}")
    if len(p) != g.n:
        raise errors.InvalidArgument(
            f"state has {len(p)} coordinates for a game of {g.n} strategies")
    return p


def _payoffs(g, p):
    """u = A p, the mean s = p . u and h = u - s 1, for a checked binary64 tuple p."""
    u = [_dot(row, p) for row in g.matrix]
    s = _dot(p, u)
    return u, s, [ui - s for ui in u]


def fitness(g, state):
    """Per-strategy expected payoff u(p) = A p, as a list."""
    return _payoffs(g, _state_array(g, state))[0]


def mean_fitness(g, state):
    """Population average payoff p A p^T."""
    return _payoffs(g, _state_array(g, state))[1]


def excess(g, state):
    """Excess payoff h(p) = A p - (p A p^T) 1, as a list."""
    return _payoffs(g, _state_array(g, state))[2]


def replicator_rhs(g, state):
    """Replicator vector field p_i * (u_i(p) - mean); tangent to the simplex."""
    p = _state_array(g, state)
    return list(map(mul, p, _payoffs(g, p)[2]))


def _floats(values):
    return values if isinstance(values, array) and values.typecode == "d" else array("d", values)


class Trajectory(errors.Frozen):
    """Fixed-step trajectory: strictly increasing times and one simplex state per time.

    `values` holds the states row-major in one flat `array('d')`, so sample k
    is `values[k * n:(k + 1) * n]` and strategy j is the slice `values[j::n]`.
    Trajectories compare by value but are unhashable, as their arrays are.
    """

    __slots__ = ("times", "values", "h")
    __hash__ = None

    def __init__(self, times, values, h):
        t, v = _floats(times), _floats(values)
        self._set_fields(t, v, h)
        if not t or not v or len(v) % len(t):
            raise errors.InvalidArgument("trajectory needs matching times and states")
        if not all(map(lt, t, t[1:])):
            raise errors.InvalidArgument("times must be strictly increasing")
        columns = [self.column(j) for j in range(self.n)]
        # a NaN entry makes its row sum NaN, which fails the test too
        if not (min(map(min, columns)) >= 0.0 and all(
                abs(reduce(add, row, 0.0) - 1.0) <= SUM_TOL for row in zip(*columns))):
            raise errors.InvalidState("trajectory left the simplex")

    @classmethod
    def _checked(cls, times, values, h):
        """A trajectory from `integrate`'s own arrays: times strictly increasing
        and every row a state that each step already kept on the simplex."""
        traj = cls.__new__(cls)
        traj._set_fields(times, values, h)
        return traj

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
        """An iterator over the CSV lines, header first (`csv_header`), then
        `csv_lines`."""
        return itertools.chain((csv_header(self.n, names),), self.csv_lines())

    def csv_lines(self):
        """An iterator over the CSV lines of the samples, header-less, with
        17-significant-digit floats: t, p_1, ..., p_n.  `gt evolve` writes a run
        as the lines of its chunks, so this is the one row formatter of both."""
        n = self.n
        fmt = ",".join(["%.17g"] * (n + 1))
        # n references to one iterator over the flat values: zip reads a row per time
        return map(fmt.__mod__, zip(self.times, *[iter(self.values)] * n))


def csv_header(n, names=None):
    """The CSV header of a trajectory of n strategies: t, then the names or p_1, ..., p_n."""
    return ",".join(["t"] + [names[i] if names else f"p_{i + 1}" for i in range(n)])


def _step_source(rows, h):
    """Source of `run(state, steps, values)`: from the state, `steps` RK4 steps of
    the replicator flow for the payoff rows and step h, each followed by the
    clamp/renormalize projection and by extending values with the new state as
    one tuple.  The state stays in local variables and each step is
    straight-line code.

    Payoffs, 0.5*h, h and h/6.0 are float literals, from float(h): a float
    times a Fraction or numpy h is that float times float(h), and a numpy
    repr is no Python literal.  The fourth stage is folded into the final
    combination.  Dot products and the total add left to right from 0.0 by
    explicit `+`, as `_dot` does, at most 64 terms per statement:
    CPython cannot compile one sum of about 3000 terms.  A payoff of 1.0 or
    -1.0 adds or subtracts the entry itself, which is exact.  A 0.0 payoff
    drops its term: a sum from 0.0 is never -0.0, so that is exact while the
    entry is finite.  The state always is; a stage entry xk_l that is not
    finite leaves every new entry non-finite, so the step is refused, and
    `_diverged` is handed the stage entries of the columns with a 0.0 payoff
    to report what the unfolded step, NaN throughout, would have.
    """
    n, h = len(rows), float(h)
    p, new = ([f"{v}{j}" for j in range(n)] for v in "pn")
    zero_columns = [j for j in range(n) if any(row[j] == 0.0 for row in rows)]

    def total(name, terms):
        return [f"{name} = {prev} {' '.join(terms[i:i + 64])}"
                for prev, i in zip(["0.0"] + [name] * n, range(0, len(terms), 64))
                ] or [f"{name} = 0.0"]

    def product(a, y):
        return f"+ {y}" if a == 1.0 else f"- {y}" if a == -1.0 else f"+ {a!r}*{y}"

    lines, y = [], p
    for k, c in enumerate((0.5 * h, 0.5 * h, h, None)):
        for i, row in enumerate(rows):
            lines += total(f"u{i}", [product(a, yj) for a, yj in zip(row, y) if a != 0.0])
        lines += total("s", [f"+ {yj}*u{j}" for j, yj in enumerate(y)])
        if c is None:
            break
        lines += [f"k{k}_{j} = {y[j]}*(u{j} - s)" for j in range(n)]
        y = [f"x{k + 1}_{j}" for j in range(n)]
        lines += [f"{y[j]} = p{j} + {c!r}*k{k}_{j}" for j in range(n)]
    lines += [f"n{j} = p{j} + {h / 6.0!r}*(k0_{j} + 2.0*(k1_{j} + k2_{j}) + x3_{j}*(u{j} - s))"
              for j in range(n)] + [f"low = min({', '.join(new)})"]
    # equal to `0.0 if abs(v) < CLAMP or v < 0.0 else v` for every float v, NaN and -0.0 included
    lines += [f"{v} = 0.0 if {v} < clamp else {v}" for v in new]
    dropped = "".join(f"x{k}_{j}, " for k in (1, 2, 3) for j in zero_columns)
    lines += total("total", [f"+ {v}" for v in new]) + [
        f"if low < lowest or not total < inf: raise _diverged(low, total, ({dropped}))"]
    lines += [f"p{j} = n{j} / total" for j in range(n)] + [f"values.extend(({', '.join(p)},))"]
    return ("def run(state, steps, values):\n"
            f"    {', '.join(p)}, = state\n"
            "    clamp, lowest, inf = CLAMP, -DIVERGE_TOL, math.inf\n"
            "    for _ in range(steps):\n        " + "\n        ".join(lines) + "\n")


def _diverged(low, total, dropped):
    """The refusal of a step below the simplex, or else of one whose total is inf
    or NaN.  dropped holds the stage entries whose 0.0 payoff terms the step
    left out; if one is not finite, the unfolded step has NaN for low and total."""
    if not all(map(math.isfinite, dropped)):
        low = total = math.nan
    if low < -DIVERGE_TOL:
        return errors.IntegrationDiverged(f"state entry {low} below -{DIVERGE_TOL}")
    return errors.IntegrationDiverged(f"RK4 step is not finite (state total {total})")


def _step_function(rows, h):
    """`run(state, steps, values)` compiled from `_step_source(rows, h)`: a state of
    floats in, and each of the next `steps` states appended to values."""
    namespace = {}
    exec(compile(_step_source(rows, h), "<rk4 run>", "exec"), globals(), namespace)
    return namespace["run"]


def run_chunks(g, p0, t_end, h=1e-3):
    """The RK4 run of `integrate`, checked at the call and made one chunk at a time.

    Returns (samples, chunks): the run's steps + 1 samples, and an iterator
    over Trajectory chunks of consecutive samples, each of at most
    CHUNK_STEPS steps, the first beginning with p0 at time 0.  Each chunk's
    steps start from the last row of the chunk before it, so the floats are
    those of one unbroken run, and sample k is at time k * h.  Every refusal
    of `integrate` but divergence comes at the call; IntegrationDiverged comes
    from the chunk whose step diverges.  t_end and h are real numbers, not
    booleans (InvalidArgument).
    """
    for value in (t_end, h):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise errors.InvalidArgument(f"h and t_end must be real numbers, got {value!r}")
    if not (0 < h < math.inf and 0 < t_end < math.inf):
        raise errors.InvalidArgument("need finite h > 0 and t_end > 0")
    p = _state_array(g, p0)
    # min() keeps an overflowing t_end / h convertible; the cap then refuses it
    steps = max(1, int(round(min(t_end / h, SAMPLE_CAP))))
    if g.n > STRATEGY_CAP:
        raise errors.SizeLimit(f"{g.n} strategies exceed the cap of {STRATEGY_CAP} "
                               "for a compiled RK4 step")
    if (steps + 1) * g.n > SAMPLE_CAP:
        raise errors.SizeLimit(f"t_end / h = {t_end / h:.6g} steps of {g.n} strategies "
                               f"exceed the cap of {SAMPLE_CAP} stored values")
    return steps + 1, _chunks(_step_function(g.matrix, h), p, steps, h)


def _chunks(run, p, steps, h):
    n, first, values = len(p), 0, array("d", p)
    for start in range(0, steps, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, steps)
        run(p, stop - start, values)
        yield Trajectory._checked(array("d", [k * h for k in range(first, stop + 1)]), values, h)
        p, first, values = values[-n:], stop + 1, array("d")


def integrate(g, p0, t_end, h=1e-3):
    """Classical fixed-step RK4 on the replicator equation, as one Trajectory.

    After every step, entries of magnitude below 1e-12 are clamped to zero and
    the state renormalized to sum 1.  Deterministic, with the same bits on
    every Python version: each call compiles one run of straight-line steps
    for g and h (`_step_source`), at a cost that grows as g.n ** 2.  t_end is realized
    as round(t_end / h) steps of exactly h, at times k * h.  The trajectory
    joins the chunks of `run_chunks`, whose refusals it shares: SizeLimit,
    before anything is compiled or stored, when g.n exceeds STRATEGY_CAP or
    the steps + 1 samples of g.n values exceed SAMPLE_CAP.
    """
    times, values = array("d"), array("d")
    for chunk in run_chunks(g, p0, t_end, h)[1]:
        times.extend(chunk.times)
        values.extend(chunk.values)
    return Trajectory._checked(times, values, h)


def time_average(traj):
    """Trapezoidal time average (1/T) * integral of p(t) dt over the trajectory:
    per strategy, the terms d_k (y_k + y_(k+1)) added left to right from 0.0,
    halved.  The trajectory goes through `RunSummary` as one chunk."""
    return _summary(traj).averages()


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
    status, num, den = equalizer(g.table)
    points = []
    if num is not None and min(num) > 0:
        points.append(SimplexState([Fraction(q, den) for q in num]))
    return InteriorRestPoints(points, status == "many")


def _exact_payoffs(g, state):
    """(p, w, u) for a SimplexState, or the entries SimplexState accepts, checked
    against g's dimension: its entries p, their integer weights w over their
    common denominator sum(w), and u = A p times D * sum(w)."""
    st = state if isinstance(state, SimplexState) else SimplexState(state)
    _state_array(g, st)  # refuses a state of the wrong dimension
    w = _weights((st.exact,))[0]
    support = [(j, q) for j, q in enumerate(w) if q]
    return st.exact, w, [sum(row[j] * q for j, q in support) for row in g.table]


def is_nash_state(g, state):
    """Nash state test max (Ap)_i <= p^T A p, decided on integers."""
    _, w, u = _exact_payoffs(g, state)
    return max(u) * sum(w) <= sum(map(mul, w, u))


def _not_finite(point):
    return errors.InvalidArgument(f"rest point {[str(q) for q in point]}: its binary64 "
                                  "diagnostics are not finite (payoffs too large)")


def _binary64(num, den, point):
    """num / den correctly rounded (int true division), as float(Fraction(num, den)) is."""
    try:
        return num / den
    except OverflowError as exc:
        raise _not_finite(point) from exc


def transversal_eigenvalues(g, state):
    """Eigenvalues transversal to the support faces at a boundary rest point.

    Returns (index, h_i(p)) for every strategy outside the support: the exact
    h_i(p) correctly rounded, so the point is a Nash state iff all returned
    values are <= 0.  The state is a rest point when p_i ((Ap)_i - p^T A p) = 0
    exactly, decided on integers (InvalidArgument otherwise).
    """
    p, w, u = _exact_payoffs(g, state)
    den = sum(w)
    # u_i * den - mean is h_i(p) times D * den^2
    mean = sum(map(mul, w, u))
    if any(q and ui * den != mean for q, ui in zip(w, u)):
        raise errors.InvalidArgument("not a rest point")
    outside = [i for i, q in enumerate(w) if not q]
    if not outside:
        raise errors.InvalidArgument("interior point has no transversal directions")
    return [(i, _binary64(u[i] * den - mean, g.scale * den * den, p)) for i in outside]


def check_face_walk(g):
    """SizeLimit when the 2^n - 1 supports that rest_point_reports solves exceed SUPPORT_CAP."""
    supports = 2 ** g.n - 1
    if supports > SUPPORT_CAP:
        raise errors.SizeLimit(f"{g.n} strategies give {supports} supports to solve, "
                               f"beyond the cap of {SUPPORT_CAP}")


class RestPointReport(NamedTuple):
    point: SimplexState
    residual: float
    classification: str
    is_nash: bool
    transversal_eigenvalues: tuple


def rest_point_reports(g):
    """Isolated rest points on every face, with Nash and transversal diagnostics.

    Returns (reports, continuum_supports); supports whose indifference system
    is underdetermined are listed rather than expanded.  The systems are
    solved on g's integer table by one walk over its principal blocks
    (`principal_equalizers`), and a rest point is Nash when no
    row outside its support pays more, decided on those integers, than the
    payoff v that every support row earns; its transversal values are those
    exact margins (Ap)_i - v correctly rounded, and its residual max |p_i h_i(p)|
    is evaluated in binary64 with left-to-right sums.  Every diagnostic must
    be finite (InvalidArgument).  SizeLimit (check_face_walk) before any solve.
    """
    check_face_walk(g)
    scale, E = g.scale, g.table
    reports = []
    continua = []
    zero = Fraction(0)
    for support, (status, num, den) in principal_equalizers(E):
        if status == "many":
            continua.append(support)
            continue
        if num is None or min(num) <= 0:
            continue
        full, p = [zero] * g.n, [0.0] * g.n
        for idx, q in zip(support, num):
            full[idx], p[idx] = Fraction(q, den), q / den
        state = SimplexState._checked(tuple(full), tuple(p))
        outside = [i for i in range(g.n) if i not in support]
        # (A p)_i - v times scale * den, where v is the first support row's payoff
        value = sum(E[support[0]][j] * q for j, q in zip(support, num))
        margins = [sum(E[i][j] * q for j, q in zip(support, num)) - value for i in outside]
        trans = tuple((i, _binary64(x, scale * den, full))
                      for i, x in zip(outside, margins))
        terms = list(map(mul, state.p, _payoffs(g, state.p)[2]))
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


class EssReport(NamedTuple):
    is_ess: bool
    method: str


def _psi_form(table, w, face):
    """The one integer form of the best-reply invasion margin at the state of
    integer weights w, for the integer table of A over D: psi(x) = c . x -
    x^T A x = x^T Q x on the face simplex, with c = p^T A and Q = c 1^T - A,
    and S = Q + Q^T times D * sum(w), so S_kl = c_k + c_l - D sum(w) (A_kl +
    A_lk) with c in that scale, and x^T S x = 2 D sum(w) psi(x)."""
    support = [(i, q) for i, q in enumerate(w) if q]
    den = sum(w)
    c = [sum(q * table[i][k] for i, q in support) for k in face]
    return [[ck + cl - den * (table[k][l] + table[l][k]) for l, cl in zip(face, c)]
            for k, ck in zip(face, c)]


def _face_is_ess(S, x_star):
    """Exact decision: min psi over the face simplex is 0 and attained only at x_star.

    S is `_psi_form` (psi in any positive scale), x_star integer weights.
    Every minimiser of psi is a KKT point:
    on its support J it solves S_J w = lam 1, 1^T w = 1 with w > 0 (the
    `equalizer` system of `principal_equalizers`, in support order, lam its
    value), and psi there is lam / 2.  A system
    with many solutions has one lam along a segment of minimisers whose ends
    lie on smaller supports, at least one end away from x_star, and a single
    strategy always gives a unique system.  So only unique solutions are
    tested: each needs lam > 0, or lam = 0 at x_star itself (Bomze 1992, JOTA 75).
    """
    total = sum(x_star)
    for J, (status, num, den) in principal_equalizers(S):
        if status != "unique" or min(num) <= 0:
            continue
        # lam times the scale of psi and den, both positive
        lam = sum(S[J[0]][l] * q for l, q in zip(J, num))
        if lam < 0:
            return False
        if lam == 0:
            full = dict(zip(J, num))
            # num / den and x_star / total both sum to 1
            if any(full.get(k, 0) * total != x * den for k, x in enumerate(x_star)):
                return False
    return True


def _line_prefixes(S, head, d, r, w, psp):
    """Yield (r', P^T S P, S P, on) for each way of choosing the coordinates
    k_d .. k_{m-3} with sum at most r, where P is the whole prefix
    k_0 .. k_{m-3}, r' is what it leaves for the last two coordinates and on
    says P is `head` (x_star's prefix, or None when x_star is off the grid).
    w = S P and psp = P^T S P of the coordinates before d come in and grow one
    unit of k_d at a time.
    """
    if d == len(S) - 2:
        yield r, psp, w, head is not None
        return
    row = S[d]
    for v in range(r + 1):
        on = head is not None and v == head[d]
        yield from _line_prefixes(S, head if on else None, d + 1, r - v, w, psp)
        psp += 2 * w[d] + row[d]
        w = list(map(add, w, row))


def _sampled_face_is_ess(S, x_star, resolution):
    """psi > 0 at every grid point k/resolution of the face other than x_star.

    S is `_psi_form` (psi in any positive scale L), x_star integer weights,
    so psi(k/R) = k^T S k / (2 L R^2) and the sign test runs on integers.
    The grid (faces of m >= 2 strategies) is decided one line at a time: a
    prefix P of the first m - 2 coordinates leaves r = R - sum(P), and its
    line k = (P, t, r - t), t = 0..r, has
    k^T S k = alpha + 2 h t + g t^2 with g = S[a][a] - 2 S[a][b] + S[b][b]
    for the last two coordinates a, b.  On the integers of [0, r], less
    x_star's t when P is x_star's prefix, the minimum lies at an end, next to
    that t, or (g > 0) at floor(-h / g) or the integer after it, so those
    candidates decide the line.  The walk stops at the first line with a
    candidate where psi <= 0.
    """
    m = len(S)
    a, b = m - 2, m - 1
    total = sum(x_star)
    on_grid = [divmod(x * resolution, total) for x in x_star]
    skip = [k for k, _ in on_grid] if not any(r for _, r in on_grid) else None
    g = S[a][a] - 2 * S[a][b] + S[b][b]
    for r, psp, w, on in _line_prefixes(S, skip, 0, resolution, [0] * m, 0):
        alpha = psp + r * (2 * w[b] + r * S[b][b])
        h = w[a] - w[b] + r * (S[a][b] - S[b][b])
        t_star = skip[a] if on else -1  # -1: x_star is on no point of this line
        ts = [0, r, t_star - 1, t_star + 1]
        if g > 0:
            ts += (-h // g, -h // g + 1)
        for t in ts:
            if 0 <= t <= r and t != t_star and alpha + t * (2 * h + g * t) <= 0:
                return False
    return True


def ess_check(g, state):
    """Evolutionary stability of an exact Nash state.

    A float entry is its exact value.  From u = A p, in integers (see the
    module docstring), the state is Nash when p . u = max(u), and its
    best-reply face is the rows attaining that max.  Both decisions below
    read one integer form of the invasion margin there, `_psi_form`.
    Best-reply faces of at most 3 strategies (always the case for n <= 3)
    get the exact decision of
    `_face_is_ess`, KKT support enumeration over the whole face, labelled
    "exact-face".  Larger faces are sampled on a deterministic barycentric
    grid (resolution 1/64, halved down to 1/4 while the grid would exceed
    200,000 points), which `_sampled_face_is_ess` decides exactly one grid
    line at a time; the verdict, labelled
    "sampled-1/R", is not certified.  `_face_is_ess` is exact on faces of any
    size; larger faces keep the grid only while
    `perfbench/expected/american-values-10.json` pins a sampled verdict that
    the exact decision overturns.
    """
    _, w, u = _exact_payoffs(g, state)
    top = max(u)
    if sum(map(mul, w, u)) != top * sum(w):
        raise errors.InvalidState("evolutionary stability is defined for Nash states only")
    face = [i for i, ui in enumerate(u) if ui == top]
    S = _psi_form(g.table, w, face)
    x_star = tuple(w[i] for i in face)
    if len(face) <= 3:
        return EssReport(_face_is_ess(S, x_star), "exact-face")

    resolution = 64
    while math.comb(resolution + len(face) - 1, len(face) - 1) > 200_000 and resolution > 4:
        resolution //= 2
    return EssReport(_sampled_face_is_ess(S, x_star, resolution), f"sampled-1/{resolution}")


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
    u, _, h = _payoffs(g, p)
    r = list(map(mul, p, h))
    # (A + A^T) p, row by row and column by column
    both = [ui + _dot(col, p) for ui, col in zip(u, zip(*g.matrix))]
    return abs(_dot(r, both) - 2.0 * _dot(r, h))


# ---------------------------------------------------------------------------
# recurrence detection


class RecurrenceReport(NamedTuple):
    kind: str  # "none" | "convergent" | "recurrent"
    period: float | None = None
    detail: str = ""


class RunSummary:
    """What `time_average` and `detect_recurrence` read of a run of `samples`
    samples, carried across its chunks (`add`), so that no run is held whole.

    Per strategy it keeps the trapezoid sum, whose terms d_k (y_k + y_(k+1))
    are added left to right from 0.0, each chunk's from the sum of the chunks
    before it; and the min and max over the terminal window, the samples from
    m - max(10, m // 10) on, an index known before the run.  It records each
    entry into the tol-ball (max norm) around the first sample: a sample
    inside it whose predecessor is not.  Of the entries it keeps their count
    and the last one, and of the spacings between them the sum, added left to
    right from 0.0, and the least and greatest: s - mean rounds monotonically
    in s, so those two decide the +-10% test of every spacing.  Each number is
    the one the whole trajectory would give, bit for bit.
    """

    def __init__(self, samples, tol=1e-3):
        if not 0 < tol < math.inf:
            raise errors.InvalidArgument(f"tolerance must be finite and positive, got {tol!r}")
        self.samples, self.tol = samples, tol
        self.window = samples - max(10, samples // 10)
        self.taken = 0
        self.entries, self.entered = 0, None
        self.spacing_sum, self.spacing_low, self.spacing_high = 0.0, math.inf, -math.inf

    def add(self, chunk):
        """Take the next chunk: a Trajectory of the samples after those taken."""
        times, columns = chunk.times, [chunk.column(j) for j in range(chunk.n)]
        if self.taken:
            # the last sample taken leads the chunk, for the pairs across the boundary
            times = array("d", [self.end]) + times
            columns = [array("d", [v]) + y for v, y in zip(self.last, columns)]
            at = self.taken - 1  # sample index of the chunk's first row
        else:
            self.begin, self.centre = times[0], [y[0] for y in columns]
            self.sums = [0.0] * chunk.n
            self.low, self.high = [math.inf] * chunk.n, [-math.inf] * chunk.n
            at = 0
        d = list(map(sub, times[1:], times))
        w = max(0, self.window - at)  # the chunk's first row in the terminal window
        for j, y in enumerate(columns):
            self.sums[j] = reduce(add, map(mul, d, map(add, y[1:], y)), self.sums[j])
            if w < len(y):
                tail = y[w:]
                self.low[j] = min(self.low[j], min(tail))
                self.high[j] = max(self.high[j], max(tail))
        # rows inside the ball, narrowed one strategy at a time; row 0 is never an entry
        inside = range(len(times))
        for y, ref in zip(columns, self.centre):
            inside = [k for k in inside if abs(y[k] - ref) < self.tol]
        for prev, k in zip(itertools.chain((-1,), inside), inside):
            if k != prev + 1:
                self._enter(times[k])
        self.taken = at + len(times)
        self.end, self.last = times[-1], [y[-1] for y in columns]

    def _enter(self, t):
        if self.entries:
            s = t - self.entered
            self.spacing_sum += s
            self.spacing_low, self.spacing_high = min(self.spacing_low, s), max(self.spacing_high, s)
        self.entries, self.entered = self.entries + 1, t

    def averages(self):
        """The trapezoid time average of each strategy: the sum, halved, over the span."""
        if self.samples < 2:
            raise errors.InsufficientData("a time average needs at least 2 samples")
        span = self.end - self.begin
        return [s / 2.0 / span for s in self.sums]

    def recurrence(self):
        """The verdict of `detect_recurrence` (InsufficientData under 10 samples)."""
        if self.samples < 10:
            raise errors.InsufficientData(f"need at least 10 samples, got {self.samples}")
        diameter = max(map(sub, self.high, self.low))
        if diameter < self.tol:
            return RecurrenceReport("convergent", detail=f"terminal window diameter {diameter:.3g}")
        if self.entries >= 2:
            mean = self.spacing_sum / (self.entries - 1)
            if mean > 0 and all(abs(s - mean) <= 0.10 * mean
                                for s in (self.spacing_low, self.spacing_high)):
                return RecurrenceReport(
                    "recurrent", period=mean, detail=f"{self.entries} returns to the start ball"
                )
        return RecurrenceReport("none")


def _summary(traj, tol=1e-3):
    summary = RunSummary(len(traj), tol)
    summary.add(traj)
    return summary


def detect_recurrence(traj, tol=1e-3):
    """Classify a trajectory as convergent, recurrent, or neither.

    Convergent: the terminal window's diameter falls below tol.  Recurrent:
    the state re-enters the tol-ball (max norm) around the initial state in
    episodes whose spacing is stable within +-10%; the period estimate is the
    mean spacing.  The trajectory goes through `RunSummary` as one chunk.
    """
    return _summary(traj, tol).recurrence()
