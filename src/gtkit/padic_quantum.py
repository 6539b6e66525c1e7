"""Finite-dimensional p-adic Hilbert spaces over Q_p(sqrt(mu)) and the p-adic
quantumization of 2x2 games.

States are statistical operators (self-adjoint, trace 1); measurements are
self-adjoint operator-valued measures (SOVMs) whose outcome values form
p-adic probability distributions: elements of Q_p, known to the precision
the arithmetic leaves them, that sum to 1, while the rationals they expand
may be negative or exceed 1.  No sampling is ever performed; p-adic
probabilities are not frequencies, so the module reports distributions only.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple

from . import errors, games, quantum
from .padic import (
    DEFAULT_PRECISION,
    PAdicDistribution,
    PAdicExtElement,
    PAdicValue,
    _check_nonresidue,
    ext_conj,
    ext_eq,
    ext_norm,
    ext_zero,
    hensel_sqrt,
    is_square,
    padic_from_rational,
    rational_norm,
    rational_valuation,
)

SESQUILINEAR = "sesquilinear"
BILINEAR = "bilinear"


class PAdicHilbertSpace(errors.Frozen):
    """Dimension, prime, non-residue and the inner-product convention.

    The sesquilinear convention sum conj(u_i) v_i carries the involution the
    statistical-operator formalism needs; the bilinear convention sum u_i v_i
    is the one under which b1 + sqrt(-1) b2 is isotropic.  Each space fixes
    one; both are exposed because the two disagree on isotropy.
    """

    __slots__ = ("dimension", "p", "mu", "convention")

    def __init__(self, dimension, p, mu, convention=SESQUILINEAR):
        if dimension < 1:
            raise errors.InvalidArgument("dimension must be >= 1")
        if convention not in (SESQUILINEAR, BILINEAR):
            raise errors.InvalidArgument(f"unknown convention {convention!r}")
        _check_nonresidue(p, mu)
        self._set_fields(dimension, p, mu, convention)


def _component_precisions(elements):
    return {c.precision for z in elements for c in (z.x, z.y) if not c.is_zero}


def _extension_of(elements, what):
    """(p, mu) shared by the elements, whose non-zero components share one precision."""
    p, mu = elements[0].p, elements[0].mu
    if any(z.p != p or z.mu != mu for z in elements):
        raise errors.PrimeMismatch(f"{what} from different extensions")
    if len(_component_precisions(elements)) > 1:
        raise errors.InvalidArgument(f"mixed-precision {what} are rejected rather than coerced")
    return p, mu


def _ext_entry(e, p, mu, n):
    """A rational x, or a pair (x, y) meaning x + y*sqrt(mu), as an extension element."""
    x, y = e if isinstance(e, tuple) else (e, 0)
    return PAdicExtElement.from_rationals(x, y, p, mu, n)


def _working_precision(m):
    """The largest component precision of an operator; 8 when every entry is zero."""
    return max(_component_precisions([z for row in m.entries for z in row]) or {8})


class PAdicVector:
    """Vector of extension elements sharing p, mu and declared precision."""

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise errors.InvalidArgument("empty vector")
        self.p, self.mu = _extension_of(comps, "vector components")
        self.components = comps

    @property
    def n(self):
        return len(self.components)

    @property
    def is_zero(self):
        return all(z.is_zero for z in self.components)

    @classmethod
    def from_rationals(cls, entries, p, mu, n=DEFAULT_PRECISION):
        """Entries are rationals x or pairs (x, y) meaning x + y*sqrt(mu)."""
        return cls([_ext_entry(e, p, mu, n) for e in entries])

    def __repr__(self):
        return f"PAdicVector(n={self.n}, p={self.p}, mu={self.mu})"


class PAdicOperator:
    """Square matrix of extension elements over one space."""

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise errors.InvalidArgument("operator must be a non-empty square matrix")
        flat = [z for row in rows for z in row]
        self.p, self.mu = _extension_of(flat, "operator entries")
        self.entries = rows

    @classmethod
    def _checked(cls, rows, p, mu):
        """Rows that arithmetic built from checked operators; cancellation may mix precisions."""
        m = cls.__new__(cls)
        m.p, m.mu, m.entries = p, mu, tuple(map(tuple, rows))
        return m

    @property
    def n(self):
        return len(self.entries)

    @classmethod
    def from_rationals(cls, rows, p, mu, n=DEFAULT_PRECISION):
        """Rational entries x, or pairs (x, y) meaning x + y*sqrt(mu)."""
        return cls([[_ext_entry(e, p, mu, n) for e in row] for row in rows])

    @classmethod
    def identity(cls, n, p, mu, prec=DEFAULT_PRECISION):
        return cls.from_rationals(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], p, mu, prec
        )

    def _entrywise(self, other, op):
        self._check(other)
        rows = zip(self.entries, other.entries)
        return PAdicOperator._checked([map(op, ra, rb) for ra, rb in rows], self.p, self.mu)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __matmul__(self, other):
        self._check(other)
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ext_zero(self.p, self.mu)
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PAdicOperator._checked(out, self.p, self.mu)

    def _check(self, other):
        if not isinstance(other, PAdicOperator):
            raise errors.InvalidArgument("operator arithmetic needs operator operands")
        if self.p != other.p or self.mu != other.mu or self.n != other.n:
            raise errors.PrimeMismatch("incompatible operators")

    def __repr__(self):
        return f"PAdicOperator(n={self.n}, p={self.p}, mu={self.mu})"


def adjoint(m):
    """Conjugate transpose under the extension involution."""
    return PAdicOperator._checked(
        [map(ext_conj, column) for column in zip(*m.entries)], m.p, m.mu)


def trace(m):
    acc = ext_zero(m.p, m.mu)
    for i in range(m.n):
        acc = acc + m.entries[i][i]
    return acc


def operators_equal(a, b):
    return a.n == b.n and all(
        ext_eq(a.entries[i][j], b.entries[i][j]) for i in range(a.n) for j in range(a.n)
    )


def is_self_adjoint(m):
    return operators_equal(m, adjoint(m))


def _check_state(m):
    """InvalidState unless the operator is self-adjoint with trace 1 at its working precision."""
    if not is_self_adjoint(m):
        raise errors.InvalidState("statistical operator must be self-adjoint")
    one = PAdicExtElement.from_rationals(1, 0, m.p, m.mu, _working_precision(m))
    if not ext_eq(trace(m), one):
        raise errors.InvalidState("statistical operator must have trace 1")


class StatisticalOperator(PAdicOperator):
    """Self-adjoint operator of trace 1: a p-adic quantum state."""

    def __init__(self, entries):
        super().__init__(entries)
        _check_state(self)


class SOVM:
    """Self-adjoint operator-valued measure: members sum to the identity."""

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise errors.InvalidSOVM("a SOVM needs at least one member")
        first = members[0]
        for m in members:
            if m.n != first.n or m.p != first.p or m.mu != first.mu:
                raise errors.InvalidSOVM("SOVM members live on different spaces")
            if not is_self_adjoint(m):
                raise errors.InvalidSOVM("every SOVM member must be self-adjoint")
        total = members[0]
        for m in members[1:]:
            total = total + m
        ident = PAdicOperator.identity(first.n, first.p, first.mu, _working_precision(first))
        if not operators_equal(total, ident):
            raise errors.InvalidSOVM("SOVM members must sum to the identity")
        self.members = members
        self.n = first.n
        self.p = first.p
        self.mu = first.mu

    def __len__(self):
        return len(self.members)


# ---------------------------------------------------------------------------
# inner products, norms, isotropy


def inner_product(u, v, space):
    """Non-Archimedean inner product per the space convention."""
    if u.n != v.n or u.n != space.dimension:
        raise errors.InvalidArgument("dimension mismatch")
    if u.p != space.p or u.mu != space.mu or v.p != space.p or v.mu != space.mu:
        raise errors.PrimeMismatch("vectors do not live on the space")
    acc = ext_zero(space.p, space.mu)
    for a, b in zip(u.components, v.components):
        left = ext_conj(a) if space.convention == SESQUILINEAR else a
        acc = acc + left * b
    return acc


def ultranorm(v):
    """Max-component ultranorm; satisfies the strong triangle inequality.

    The ultranorm does not stem from the inner product (isotropic vectors
    have nonzero ultranorm); the max norm is the canonical non-Archimedean
    realization.
    """
    best = None
    for z in v.components:
        nz = ext_norm(z)
        if best is None or best < nz:
            best = nz
    return best


def is_isotropic(v, space):
    """Nonzero vector with <v, v> = 0 to working precision."""
    if v.is_zero:
        return False
    return inner_product(v, v, space).is_zero


def isotropic_witness(p, n=DEFAULT_PRECISION):
    """Sesquilinear isotropic vector for mu = -1 via Hensel lifting.

    Finds the smallest b with -1 - b^2 a nonzero square in Q_p, lifts
    a = sqrt(-1 - b^2) (seed a = b = 1 for p = 3), and returns the vector
    (b_1, (a + b sqrt(mu)) b_2) whose sesquilinear self-product
    1 + a^2 + b^2 vanishes.  Deterministic.
    """
    mu = -1
    _check_nonresidue(p, mu)
    for b in range(1, p):
        if (-1 - b * b) % p == 0:
            continue
        target = padic_from_rational(-1 - b * b, 1, p, n)
        if is_square(target):
            a = hensel_sqrt(target)
            w = PAdicExtElement(a, padic_from_rational(b, 1, p, n), mu)
            one = PAdicExtElement.from_rationals(1, 0, p, mu, n)
            return PAdicVector([one, w])
    raise errors.InvalidArgument(f"no unit solution of a^2 + b^2 = -1 found in Q_{p}")


# ---------------------------------------------------------------------------
# functionals and measurement


def omega(rho, sigma):
    """The state functional tr(rho sigma); a rho built as a plain operator is checked as a state."""
    if not isinstance(rho, StatisticalOperator):
        _check_state(rho)
    return trace(rho @ sigma)


def measurement_distribution(rho, sovm):
    """Outcome values (tr(rho M_i)) as a tuple of `PAdicNumber`s.

    Each value is the Q_p part of the trace, at the precision the arithmetic
    leaves it; no value is read back as a rational.  A trace with a nonzero
    sqrt(mu) part is InvalidState.  Completeness of the SOVM and tr(rho) = 1
    make the values sum to 1 at that precision, while the rationals they
    expand may be negative or exceed 1.
    """
    if not isinstance(sovm, SOVM):
        raise errors.InvalidSOVM("expected a SOVM")
    if rho.n != sovm.n:
        raise errors.InvalidArgument("state and SOVM dimensions differ")
    if not isinstance(rho, StatisticalOperator):  # one state check serves every member
        _check_state(rho)
    values = tuple(trace(rho @ m) for m in sovm.members)
    if any(not z.y.is_zero for z in values):
        raise errors.InvalidState("value has a nonzero sqrt(mu) part")
    return tuple(z.x for z in values)


# ---------------------------------------------------------------------------
# p-adic quantumization of 2x2 games


class GapReport(NamedTuple):
    label: str
    payoffs: tuple
    gap: tuple
    gap_norms: tuple


class QuantumizeResult(NamedTuple):
    distribution: PAdicDistribution
    payoffs: tuple  # per-player PAdicValue
    hierarchy: tuple


def padic_quantumize_2x2(form, p, p_one, q_two):
    """Identity/bit-flip quantumization of a 2x2 game, read in Q_p.

    `form` is the `quantum.ClassicalForm` of the base game at the exact weight
    a2 = |alpha|^2 of the initial state alpha|00> + beta|11>.  The state enters
    the outcome only through that weight, so no amplitude is built and nothing
    is read back from finite precision; a2 is any rational (in Q_p it need not
    lie in [0, 1]), and whether the state has amplitudes in Q_p is the
    caller's question.  `p_one`, `q_two` are exact rational identity
    probabilities.  Returns the diagonal of the final state as a p-adic
    distribution over the four pure profiles, the players' exact expected
    payoffs with their p-adic valuations and norms, and the norm hierarchy of
    payoff gaps against the classical equilibria of the base game.
    """
    if not isinstance(form, quantum.ClassicalForm):
        raise errors.InvalidArgument("expected a quantum.ClassicalForm")
    p_one, q_two = Fraction(p_one), Fraction(q_two)
    dist = PAdicDistribution(form.distribution(p_one, q_two), p)
    payoffs = [
        PAdicValue(v, p, rational_valuation(v, p), rational_norm(v, p))
        for v in form.payoffs(p_one, q_two)
    ]

    hierarchy = []
    quantum_pay = (payoffs[0].value, payoffs[1].value)
    for label, pay in _classical_candidates(form.base):
        gap = (quantum_pay[0] - pay[0], quantum_pay[1] - pay[1])
        hierarchy.append(
            GapReport(
                label=label,
                payoffs=pay,
                gap=gap,
                gap_norms=tuple(rational_norm(gv, p) for gv in gap),
            )
        )
    return QuantumizeResult(dist, tuple(payoffs), tuple(hierarchy))


def _classical_candidates(game):
    """Classical equilibria of the base game with their exact payoffs."""
    out = []
    for profile in sorted(games.pure_nash(game)):
        labels = "/".join(game.labels(profile))
        out.append((f"pure {labels}", game.payoff(profile)))
    for sigma, pay in games.mixed_ne_2x2(game):
        if all(0 < q < 1 for q in sigma[0]):
            out.append(("mixed interior", pay))
    return out
