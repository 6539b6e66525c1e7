"""Two-qubit state machinery and the entangled quantumization of 2x2 games.

The quantumization follows the probabilistic identity/bit-flip scheme applied
to a shared initial state alpha|00> + beta|11> (Marinatto & Weber 2000):
player 1 applies the identity with probability p (the bit-flip otherwise),
player 2 with probability q, and payoffs are read from the diagonal of the
resulting density operator in the computational basis.

The pure choice (s, t) of identity (0) or bit-flip (1) yields (s, t) with
weight |alpha|^2 and (1-s, 1-t) with |beta|^2, so the quantum game is exactly
the classical 2x2 game `ClassicalForm`, solved exactly for both the complex
and the p-adic mode.  The Kraus sum `mw_final_density` and the grid search
`mw_nash_search` remain as reference oracles for tests and demos.

The payoff surface is that game's closed form at each grid point: Python
floats added in one fixed order without numpy (its bits do not depend on the
Python version), or Fractions in the p-adic mode.  The Kraus-sum payoffs
reduce with math.fsum, independent of accumulation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import errors, games

NORM_TOL = 1e-10
PSD_TOL = 1e-9
EQ_TOL = 1e-9

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I = np.eye(2, dtype=complex)

PROFILES = ((0, 0), (0, 1), (1, 0), (1, 1))


class Ket:
    """Unit state vector of a 1- or 2-qubit system (dimension 2 or 4)."""

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex)
        if v.ndim != 1 or v.size not in (2, 4):
            raise errors.InvalidState(f"ket dimension must be 2 or 4, got shape {v.shape}")
        if not np.all(np.isfinite(v.view(float))):
            raise errors.InvalidState("amplitudes must be finite")
        if abs(math.fsum(float(a) for a in np.abs(v) ** 2) - 1.0) > NORM_TOL:
            raise errors.InvalidState("state vector is not normalized")
        self.v = v

    @property
    def dim(self):
        return self.v.size

    def __repr__(self):
        return f"Ket({np.array2string(self.v, precision=6)})"


def basis_ket(dim, index):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return Ket(v)


def tensor(a, b):
    """Tensor (Kronecker) product of two kets; preserves normalization."""
    return Ket(np.kron(a.v, b.v))


def born_probabilities(psi, basis):
    """Born-rule outcome probabilities |<b_i|psi>|^2 for an orthonormal basis."""
    vecs = [b.v for b in basis]
    if len(vecs) != psi.dim or any(v.size != psi.dim for v in vecs):
        raise errors.InvalidBasis("basis size must match the state dimension")
    gram = np.array([[np.vdot(u, w) for w in vecs] for u in vecs])
    if np.max(np.abs(gram - np.eye(psi.dim))) > NORM_TOL:
        raise errors.InvalidBasis("basis is not orthonormal within 1e-10")
    return np.array([abs(np.vdot(v, psi.v)) ** 2 for v in vecs])


class DensityOperator:
    """Hermitian, PSD, trace-1 complex matrix."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise errors.InvalidState("density operator must be a square matrix")
        if np.max(np.abs(m - m.conj().T)) > NORM_TOL:
            raise errors.InvalidState("not Hermitian within 1e-10")
        if abs(np.trace(m).real - 1.0) > NORM_TOL or abs(np.trace(m).imag) > NORM_TOL:
            raise errors.InvalidState("trace is not 1 within 1e-10")
        if np.min(np.linalg.eigvalsh(m)) < -PSD_TOL:
            raise errors.InvalidState("not positive semidefinite (eigenvalue < -1e-9)")
        self.matrix = m

    @property
    def dim(self):
        return self.matrix.shape[0]

    def diagonal(self):
        return self.matrix.diagonal().real.copy()

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def density_of(psi):
    """Pure-state density operator psi psi^dagger."""
    return DensityOperator(np.outer(psi.v, psi.v.conj()))


@dataclass(frozen=True)
class QuantumizedGame:
    """A 2x2 base game plus the shared entangled initial state alpha|00> + beta|11>."""

    base: games.StrategicGame
    alpha: complex
    beta: complex

    def __post_init__(self):
        if self.base.shape != (2, 2):
            raise errors.UnsupportedShape("quantumization needs a 2x2 base game")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > NORM_TOL:
            raise errors.InvalidState("|alpha|^2 + |beta|^2 must be 1")

    def initial_ket(self):
        return Ket([self.alpha, 0.0, 0.0, self.beta])


def maximally_entangled(base):
    r = 1.0 / math.sqrt(2.0)
    return QuantumizedGame(base, r, r)


class ClassicalForm:
    """The 2x2 game A'(s,t) = a2 u(s,t) + (1 - a2) u(1-s,1-t) for the weight a2 = |alpha|^2.

    Strategy 0 is the identity, so p and q are identity probabilities.  a2 is
    an exact rational; in the p-adic mode it may lie outside [0, 1].
    """

    def __init__(self, base, a2):
        if base.shape != (2, 2):
            raise errors.UnsupportedShape("quantumization needs a 2x2 base game")
        self.base = base
        self.a2 = games.as_fraction(a2)
        self.game = games.StrategicGame(base.strategy_names, {
            s: tuple(self.a2 * x + (1 - self.a2) * y
                     for x, y in zip(base.payoff(s), base.payoff((1 - s[0], 1 - s[1]))))
            for s in PROFILES
        })

    def payoffs(self, p, q):
        """Exact expected payoffs of A' under ((p, 1-p), (q, 1-q))."""
        return games.expected_payoff(self.game, ((p, 1 - p), (q, 1 - q)))

    def distribution(self, p, q):
        """Exact outcome probabilities over the profiles 00, 01, 10, 11: a2 times
        the product weight of each plus (1 - a2) times that of its flip."""
        w = {(s, t): (p if s == 0 else 1 - p) * (q if t == 0 else 1 - q) for s, t in PROFILES}
        return tuple(self.a2 * w[s] + (1 - self.a2) * w[(1 - s[0], 1 - s[1])] for s in PROFILES)

    def equilibria(self):
        """The exact equilibrium set of A' (see games.equilibrium_set_2x2)."""
        return games.equilibrium_set_2x2(self.game)


def classical_form(qg):
    """The ClassicalForm of a QuantumizedGame; a ClassicalForm passes through."""
    if isinstance(qg, ClassicalForm):
        return qg
    return ClassicalForm(qg.base, Fraction(abs(qg.alpha) ** 2))


def equilibrium_report(form):
    """The exact equilibrium section of a `gt quantumize` report.

    Points and continua are flagged on their greatest payoff pair, attained
    because whoever moves along a continuum is indifferent: undominated by any
    equilibrium, and above the base game's interior mixed equilibrium.
    """
    classical_mixed = next(
        (pay for sigma, pay in games.mixed_ne_2x2(form.base) if 0 < sigma[0][0] < 1), None)
    boxes = form.equilibria()
    ranges = [[[min(v), max(v)] for v in zip(*(form.payoffs(x, y) for x in p for y in q))]
              for p, q in boxes]
    tops = [(r1[1], r2[1]) for r1, r2 in ranges]
    report = {"equilibria": [], "continua": [], "classical_mixed_payoffs": classical_mixed,
              "best_equilibrium_payoffs": [max(t[0] for t in tops), max(t[1] for t in tops)]}
    for (p, q), r, top in zip(boxes, ranges, tops):
        entry = {"pareto_optimal_among_equilibria":
                 not any(t != top and t[0] >= top[0] and t[1] >= top[1] for t in tops)}
        if classical_mixed is not None:
            entry["exceeds_classical_mixed"] = (
                top[0] > classical_mixed[0] and top[1] > classical_mixed[1])
        if p[0] == p[1] and q[0] == q[1]:
            report["equilibria"].append(dict(entry, p=p[0], q=q[0], payoffs=list(top)))
        else:
            report["continua"].append(dict(entry, p=list(p), q=list(q), payoff_range=r))
    return report


def _check_prob(value, name):
    if not (0.0 <= value <= 1.0):
        raise errors.InvalidArgument(f"{name} must lie in [0, 1], got {value}")


def mw_final_density(qg, p, q):
    """Final state of the probabilistic identity/bit-flip channel.

    rho' = sum over U, V in {I, X} of w_UV (U x V) rho (U x V)^dagger with
    weights (pq, p(1-q), (1-p)q, (1-p)(1-q)); computed by explicit Kraus-sum
    matrix products.  Reference oracle for the closed form; no report uses it.
    """
    _check_prob(p, "p")
    _check_prob(q, "q")
    rho = density_of(qg.initial_ket()).matrix
    weights = {
        (0, 0): p * q,
        (0, 1): p * (1.0 - q),
        (1, 0): (1.0 - p) * q,
        (1, 1): (1.0 - p) * (1.0 - q),
    }
    total = np.zeros((4, 4), dtype=complex)
    for (a, b), w in weights.items():
        op = np.kron(_X if a else _I, _X if b else _I)
        total += w * (op @ rho @ op.conj().T)
    return DensityOperator(total)


def mw_diagonal(qg, p, q):
    """Diagonal of the channel output from the classical form (partner of mw_final_density)."""
    dist = classical_form(qg).distribution(Fraction(p), Fraction(q))
    return np.array([float(x) for x in dist])


def mw_expected_payoffs(qg, p, q):
    """Expected payoffs: payoff-weighted diagonal of the Kraus-sum final state."""
    diag = mw_final_density(qg, p, q).diagonal().tolist()
    u = [qg.base.payoff(s) for s in PROFILES]
    return tuple(math.fsum(d * float(x[i]) for d, x in zip(diag, u)) for i in (0, 1))


def _surface(qg, grid_n, exact=False):
    """(p, q, payoff1, payoff2) at every (i/grid_n, j/grid_n), row-major, exact or float.

    Each payoff is pq c00 + p(1-q) c01 + (1-p)q c10 + (1-p)(1-q) c11 for the
    payoffs c of A', added left to right after a leading 0 (which turns a
    -0.0 first term into 0.0)."""
    if grid_n < 1:
        raise errors.InvalidArgument("grid_n must be >= 1")
    num = Fraction if exact else float
    (x00, y00), (x01, y01), (x10, y10), (x11, y11) = (
        map(num, classical_form(qg).game.payoff(s)) for s in PROFILES)
    ps = [Fraction(i, grid_n) if exact else i / grid_n for i in range(grid_n + 1)]
    for p in ps:
        r = 1 - p
        for q in ps:
            s = 1 - q
            w00, w01, w10, w11 = p * q, p * s, r * q, r * s
            yield (p, q, 0 + w00 * x00 + w01 * x01 + w10 * x10 + w11 * x11,
                   0 + w00 * y00 + w01 * y01 + w10 * y10 + w11 * y11)


def mw_nash_search(qg, grid_n=100):
    """Exhaustive equilibrium search on the (p, q) grid: the reference oracle
    for `ClassicalForm.equilibria`.

    A grid point is an equilibrium when no unilateral grid deviation improves
    either player's payoff by 1e-9 or more (ties count as no improvement, so
    weak equilibria are reported).  Returns ((p, q), (payoff1, payoff2)) rows
    in row-major grid order.
    """
    points = list(_surface(qg, grid_n))
    n = grid_n + 1
    col_best = [max(pt[2] for pt in points[j::n]) for j in range(n)]
    row_best = [max(pt[3] for pt in points[i * n:(i + 1) * n]) for i in range(n)]
    return [((p, q), (u1, u2)) for k, (p, q, u1, u2) in enumerate(points)
            if u1 >= col_best[k % n] - EQ_TOL and u2 >= row_best[k // n] - EQ_TOL]


def payoff_surface_rows(qg, grid_n=100, exact=False):
    """CSV rows p,q,payoff1,payoff2 of `_surface`: exact rationals or 17 significant digits."""
    fmt = ",".join(["%s" if exact else "%.17g"] * 4)
    return ["p,q,payoff1,payoff2", *(fmt % pt for pt in _surface(qg, grid_n, exact))]


def classical_product_payoffs(base, p, q):
    """Exact classical expected payoffs under the product profile ((p,1-p),(q,1-q))."""
    return ClassicalForm(base, 1).payoffs(Fraction(p), Fraction(q))
