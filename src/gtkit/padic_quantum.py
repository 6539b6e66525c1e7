"""Finite-dimensional p-adic Hilbert spaces over Q_p(sqrt(mu)) and the p-adic
quantumization of 2x2 games.

States are statistical operators (self-adjoint, trace 1); measurements are
self-adjoint operator-valued measures (SOVMs) whose outcome values form
p-adic probability distributions: rational sequences summing to exactly 1
whose entries may be negative or exceed 1.  No sampling is ever performed;
p-adic probabilities are not frequencies, so the module reports
distributions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import errors, games, quantum
from .padic import (
    DEFAULT_PRECISION,
    PAdicDistribution,
    PAdicExtElement,
    PAdicValue,
    ext_conj,
    ext_eq,
    ext_norm,
    ext_zero,
    is_square,
    padic_from_rational,
    rational_norm,
    rational_valuation,
)

SESQUILINEAR = "sesquilinear"
BILINEAR = "bilinear"


@dataclass(frozen=True)
class PAdicHilbertSpace:
    """Dimension, prime, non-residue and the inner-product convention.

    The sesquilinear convention sum conj(u_i) v_i carries the involution the
    statistical-operator formalism needs; the bilinear convention sum u_i v_i
    is the one under which b1 + sqrt(-1) b2 is isotropic.  Each space fixes
    one; both are exposed because the two disagree on isotropy.
    """

    dimension: int
    p: int
    mu: int
    convention: str = SESQUILINEAR

    def __post_init__(self):
        if self.dimension < 1:
            raise errors.InvalidArgument("dimension must be >= 1")
        if self.convention not in (SESQUILINEAR, BILINEAR):
            raise errors.InvalidArgument(f"unknown convention {self.convention!r}")
        if is_square(padic_from_rational(self.mu, 1, self.p, 8)):
            raise errors.InvalidArgument(f"mu={self.mu} is a square in Q_{self.p}")


def _component_precisions(elements):
    return {c.precision for z in elements for c in (z.x, z.y) if not c.is_zero}


class PAdicVector:
    """Vector of extension elements sharing p, mu and declared precision."""

    def __init__(self, components, _validate_uniform=True):
        comps = tuple(components)
        if not comps:
            raise errors.InvalidArgument("empty vector")
        p, mu = comps[0].p, comps[0].mu
        if any(z.p != p or z.mu != mu for z in comps):
            raise errors.PrimeMismatch("vector components from different extensions")
        if _validate_uniform and len(_component_precisions(comps)) > 1:
            raise errors.InvalidArgument(
                "mixed-precision components are rejected rather than coerced"
            )
        self.components = comps
        self.p = p
        self.mu = mu

    @property
    def n(self):
        return len(self.components)

    @property
    def is_zero(self):
        return all(z.is_zero for z in self.components)

    @classmethod
    def from_rationals(cls, entries, p, mu, n=DEFAULT_PRECISION):
        """Entries are rationals x or pairs (x, y) meaning x + y*sqrt(mu)."""
        comps = []
        for e in entries:
            x, y = e if isinstance(e, tuple) else (e, 0)
            comps.append(PAdicExtElement.from_rationals(x, y, p, mu, n))
        return cls(comps)

    def __repr__(self):
        return f"PAdicVector(n={self.n}, p={self.p}, mu={self.mu})"


class PAdicOperator:
    """Square matrix of extension elements over one space."""

    def __init__(self, entries, _validate_uniform=True):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise errors.InvalidArgument("operator must be a non-empty square matrix")
        flat = [z for row in rows for z in row]
        p, mu = flat[0].p, flat[0].mu
        if any(z.p != p or z.mu != mu for z in flat):
            raise errors.PrimeMismatch("operator entries from different extensions")
        if _validate_uniform and len(_component_precisions(flat)) > 1:
            raise errors.InvalidArgument(
                "mixed-precision entries are rejected rather than coerced"
            )
        self.entries = rows
        self.p = p
        self.mu = mu

    @property
    def n(self):
        return len(self.entries)

    @classmethod
    def from_rationals(cls, rows, p, mu, n=DEFAULT_PRECISION):
        """Rational entries x, or pairs (x, y) meaning x + y*sqrt(mu)."""
        out = []
        for row in rows:
            line = []
            for e in row:
                x, y = e if isinstance(e, tuple) else (e, 0)
                line.append(PAdicExtElement.from_rationals(x, y, p, mu, n))
            out.append(line)
        return cls(out)

    @classmethod
    def identity(cls, n, p, mu, prec=DEFAULT_PRECISION):
        return cls.from_rationals(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], p, mu, prec
        )

    def __add__(self, other):
        self._check(other)
        return PAdicOperator(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            _validate_uniform=False,
        )

    def __sub__(self, other):
        self._check(other)
        return PAdicOperator(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            _validate_uniform=False,
        )

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
        return PAdicOperator(out, _validate_uniform=False)

    def _check(self, other):
        if not isinstance(other, PAdicOperator):
            raise errors.InvalidArgument("operator arithmetic needs operator operands")
        if self.p != other.p or self.mu != other.mu or self.n != other.n:
            raise errors.PrimeMismatch("incompatible operators")

    def __repr__(self):
        return f"PAdicOperator(n={self.n}, p={self.p}, mu={self.mu})"


def adjoint(m):
    """Conjugate transpose under the extension involution."""
    n = m.n
    return PAdicOperator(
        [[ext_conj(m.entries[j][i]) for j in range(n)] for i in range(n)],
        _validate_uniform=False,
    )


def trace(m):
    acc = ext_zero(m.p, m.mu)
    for i in range(m.n):
        acc = acc + m.entries[i][i]
    return acc


def is_self_adjoint(m):
    adj = adjoint(m)
    return all(
        ext_eq(m.entries[i][j], adj.entries[i][j]) for i in range(m.n) for j in range(m.n)
    )


def operators_equal(a, b):
    return a.n == b.n and all(
        ext_eq(a.entries[i][j], b.entries[i][j]) for i in range(a.n) for j in range(a.n)
    )


class StatisticalOperator(PAdicOperator):
    """Self-adjoint operator of trace 1: a p-adic quantum state."""

    def __init__(self, entries, _validate_uniform=True):
        super().__init__(entries, _validate_uniform=_validate_uniform)
        if not is_self_adjoint(self):
            raise errors.InvalidState("statistical operator must be self-adjoint")
        one = PAdicExtElement.from_rationals(1, 0, self.p, self.mu, 8)
        if not ext_eq(trace(self), one):
            raise errors.InvalidState("statistical operator must have trace 1")

    @classmethod
    def from_rationals(cls, rows, p, mu, n=DEFAULT_PRECISION):
        base = PAdicOperator.from_rationals(rows, p, mu, n)
        return cls(base.entries)


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
        prec = max(_component_precisions([z for r in first.entries for z in r]) or {8})
        ident = PAdicOperator.identity(first.n, first.p, first.mu, prec)
        if not operators_equal(total, ident):
            raise errors.InvalidSOVM("SOVM members must sum to the identity")
        self.members = members
        self.n = first.n
        self.p = first.p
        self.mu = first.mu

    def __len__(self):
        return len(self.members)


def operator_to_json(m):
    """JSON-ready dict: a matrix of "x|y" extension-element literals."""
    from .padic import format_ext

    return {
        "p": m.p,
        "mu": m.mu,
        "entries": [[format_ext(z) for z in row] for row in m.entries],
    }


def operator_from_json(doc):
    from .padic import parse_ext

    mu = doc["mu"]
    entries = [[parse_ext(text, mu) for text in row] for row in doc["entries"]]
    return PAdicOperator(entries, _validate_uniform=False)


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
    if is_square(padic_from_rational(mu, 1, p, 8)):
        raise errors.InvalidArgument(f"-1 is a square in Q_{p}; no mu=-1 extension")
    from .padic import hensel_sqrt

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
    """The state functional omega_rho(sigma) = tr(rho sigma)."""
    if not isinstance(rho, StatisticalOperator):
        rho = StatisticalOperator(rho.entries, _validate_uniform=False)
    return trace(rho @ sigma)


def _ext_to_rational(z):
    """Exact rational view of an extension element with vanishing sqrt(mu) part."""
    if not z.y.is_zero:
        raise errors.InvalidState("value has a nonzero sqrt(mu) part")
    return z.x.to_rational()


def measurement_distribution(rho, sovm):
    """Outcome values {tr(rho M_i)}: a p-adic probability distribution.

    Completeness of the SOVM and tr(rho) = 1 force the values to sum to
    exactly 1; individual entries may be negative or exceed 1.
    """
    if not isinstance(sovm, SOVM):
        raise errors.InvalidSOVM("expected a SOVM")
    if rho.n != sovm.n:
        raise errors.InvalidArgument("state and SOVM dimensions differ")
    values = [_ext_to_rational(omega(rho, m)) for m in sovm.members]
    return PAdicDistribution(tuple(values), rho.p)


# ---------------------------------------------------------------------------
# p-adic quantumization of 2x2 games


@dataclass(frozen=True)
class GapReport:
    label: str
    payoffs: tuple
    gap: tuple
    gap_norms: tuple
    gap_valuations: tuple


@dataclass(frozen=True)
class QuantumizeResult:
    distribution: PAdicDistribution
    payoffs: tuple  # per-player PAdicValue
    hierarchy: tuple


def padic_quantumize_2x2(game, alpha, beta, p_one, q_two):
    """Identity/bit-flip quantumization with all scalars in Q_p(sqrt(mu)).

    `alpha`, `beta` are extension elements normalizing alpha conj(alpha) +
    beta conj(beta) = 1; `p_one`, `q_two` are exact rational identity
    probabilities.  Returns the diagonal of the final state as a p-adic
    distribution over the four pure profiles, the players' exact expected
    payoffs with their p-adic norms, and the norm hierarchy of payoff gaps
    against the classical equilibria of the base game.  The distribution and
    payoffs are those of `quantum.ClassicalForm` at the weight alpha conj(alpha).
    """
    if game.shape != (2, 2):
        raise errors.UnsupportedShape("p-adic quantumization needs a 2x2 game")
    if not isinstance(alpha, PAdicExtElement) or not isinstance(beta, PAdicExtElement):
        raise errors.InvalidArgument("alpha and beta must be extension elements")
    if alpha.p != beta.p or alpha.mu != beta.mu:
        raise errors.PrimeMismatch("alpha and beta from different extensions")
    p, mu = alpha.p, alpha.mu
    prec = max(_component_precisions([alpha, beta]) or {DEFAULT_PRECISION})

    one = PAdicExtElement.from_rationals(1, 0, p, mu, prec)
    a2, b2 = (z * ext_conj(z) for z in (alpha, beta))
    if not ext_eq(a2 + b2, one):
        raise errors.InvalidState("alpha conj(alpha) + beta conj(beta) must equal 1")
    a2, b2 = _ext_to_rational(a2), _ext_to_rational(b2)
    if a2 + b2 != 1:  # the precision is too low to read the weights back as rationals
        raise errors.InvalidArgument(f"|alpha|^2, |beta|^2 read back as {a2}, {b2}; "
                                     "raise the precision")

    form = quantum.ClassicalForm(game, a2)
    p_one, q_two = Fraction(p_one), Fraction(q_two)
    dist = PAdicDistribution(form.distribution(p_one, q_two), p)
    payoffs = [
        PAdicValue(v, p, rational_valuation(v, p), rational_norm(v, p))
        for v in form.payoffs(p_one, q_two)
    ]

    hierarchy = []
    quantum_pay = (payoffs[0].value, payoffs[1].value)
    for label, pay in _classical_candidates(game):
        gap = (quantum_pay[0] - pay[0], quantum_pay[1] - pay[1])
        hierarchy.append(
            GapReport(
                label=label,
                payoffs=pay,
                gap=gap,
                gap_norms=tuple(rational_norm(gv, p) for gv in gap),
                gap_valuations=tuple(rational_valuation(gv, p) for gv in gap),
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
