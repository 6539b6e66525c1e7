"""Fixed-precision p-adic arithmetic, quadratic extensions Q_p(sqrt(mu)), p-adic probability.

A nonzero number is p**valuation * unit + O(p**(valuation + N)): the unit is an
integer prime to p kept mod p**N, N the relative precision.  Arithmetic works
on these integers; base-p digits are derived only for the literal format.
Absolute precision is valuation + N; sums propagate the min of the operands'
absolute precisions and products the min of their relative precisions, so
precision never silently degrades along a computation chain.

Zero is a distinguished value (valuation +inf, unit 0, precision 0); a sum
that cancels completely collapses to it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from . import errors
from .games import _vector, as_fraction

DEFAULT_PRECISION = 32


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson & Webster 2017); larger moduli are refused rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p):
    """Deterministic Miller-Rabin; raises InvalidPrime for p beyond _MR_LIMIT."""
    if not isinstance(p, int) or p < 2:
        return False
    if p in _MR_BASES:
        return True
    if any(p % b == 0 for b in _MR_BASES):
        return False
    if p >= _MR_LIMIT:
        raise errors.InvalidPrime(
            f"{p} is beyond the deterministic primality range p < {_MR_LIMIT}"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None, typed=True)
def _check_prime(p):
    """InvalidPrime unless p is a prime int, proved once per process: typed, so 7.0
    and True never hit the entry of 7; a refusal raises and so is never cached."""
    if not is_prime(p):
        raise errors.InvalidPrime(f"{p} is not prime")


def _int_valuation(n, p):
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(q, p):
    """nu_p of an exact rational; +inf for zero."""
    _check_prime(p)
    q = as_fraction(q)
    if q == 0:
        return math.inf
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def rational_norm(q, p):
    """|q|_p as an exact Fraction: p**(-nu_p(q)), 0 for q = 0."""
    v = rational_valuation(q, p)
    return Fraction(0) if v is math.inf else Fraction(p) ** -v


class PAdicNumber(errors.Frozen):
    """Element of Q_p known to relative precision N: (p, valuation, unit, N).

    `unit` is an integer prime to p, stored mod p**N.  The canonical zero is
    (p, +inf, 0, 0).  Literals are checked by parse_padic; the constructor
    checks only the prime and N >= 1.  A number is an `errors.Frozen` value:
    equal fields give equal numbers that hash alike, and no field is ever
    written again, so a unit stays canonical.
    """

    __slots__ = ("p", "valuation", "unit", "precision")

    def __init__(self, p, valuation, unit, precision):
        _check_prime(p)
        if valuation == math.inf:
            unit = precision = 0
        elif precision < 1:
            raise errors.InvalidArgument("precision must be >= 1")
        else:
            unit %= p**precision
        self._set_fields(p, valuation, unit, precision)

    @classmethod
    def zero(cls, p):
        return cls(p, math.inf, 0, 0)

    @property
    def absolute_precision(self):
        """Exponent of the O(p^k) error window; +inf for the canonical zero."""
        return self.valuation + self.precision

    @property
    def is_zero(self):
        return self.precision == 0

    @property
    def digits(self):
        """Base-p digits of the unit, least significant first; () for zero."""
        out, r = [], self.unit
        for _ in range(self.precision):
            r, d = divmod(r, self.p)
            out.append(d)
        return tuple(out)

    # -- dunder ------------------------------------------------------------

    def __repr__(self):
        return f"PAdicNumber({format_padic(self)!r})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def to_rational(self):
        """Best small rational representative of the unit mod p**N.

        Balanced (Wang) reconstruction: returns a/b with |a|, |b| bounded by
        sqrt(p^N / 2) when such a representative exists, else the canonical
        integer representative of the unit.  Desk-scale values embedded via
        padic_from_rational round-trip exactly.
        """
        if self.is_zero:
            return Fraction(0)
        m = self.p**self.precision
        rec = _rational_reconstruct(self.unit, m)
        if rec is None:
            rec = Fraction(self.unit)
        scale = Fraction(self.p) ** self.valuation
        return rec * scale


def _rational_reconstruct(u, m):
    bound = math.isqrt(m // 2)
    r0, r1 = m, u % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(abs(t1), m) != 1:
        return None
    return Fraction(r1, t1)


def padic_from_rational(a, b, p, n=DEFAULT_PRECISION):
    """Canonical expansion of a/b in Q_p to relative precision n digits."""
    _check_prime(p)
    if n < 1:
        raise errors.InvalidArgument("precision must be >= 1")
    a, b = as_fraction(a), as_fraction(b)
    if b == 0:
        raise errors.DivisionByZero("denominator is zero")
    q = a / b
    if q == 0:
        return PAdicNumber.zero(p)
    num, den = q.numerator, q.denominator
    vn, vd = _int_valuation(num, p), _int_valuation(den, p)
    return PAdicNumber(p, vn - vd, num // p**vn * pow(den // p**vd, -1, p**n), n)


def valuation(x):
    """p-adic valuation nu_p(x); +inf for zero."""
    return x.valuation


def norm(x):
    """|x|_p = p**(-valuation), exact Fraction; 0 for zero."""
    return Fraction(0) if x.is_zero else Fraction(x.p) ** -x.valuation


def distance(x, y):
    """Ultrametric distance d_p(x, y) = |x - y|_p."""
    return norm(sub(x, y))


def _check_same_prime(x, y):
    if x.p != y.p:
        raise errors.PrimeMismatch(f"operands over Q_{x.p} and Q_{y.p}")


def add(x, y):
    """Sum with the absolute-precision rule min(k1, k2): p-adic errors do not add."""
    _check_same_prime(x, y)
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    absolute = min(x.absolute_precision, y.absolute_precision)
    base = min(x.valuation, y.valuation)
    width = absolute - base
    residue = x.unit * x.p ** (x.valuation - base) + y.unit * y.p ** (y.valuation - base)
    residue %= x.p**width
    if residue == 0:
        return PAdicNumber.zero(x.p)
    shift = _int_valuation(residue, x.p)
    return PAdicNumber(x.p, base + shift, residue // x.p**shift, width - shift)


def neg(x):
    if x.is_zero:
        return x
    return PAdicNumber(x.p, x.valuation, -x.unit, x.precision)


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    """Product; relative precision is min of the operands' relative precisions."""
    _check_same_prime(x, y)
    if x.is_zero or y.is_zero:
        return PAdicNumber.zero(x.p)
    n = min(x.precision, y.precision)
    return PAdicNumber(x.p, x.valuation + y.valuation, x.unit * y.unit, n)


def div(x, y):
    _check_same_prime(x, y)
    if y.is_zero:
        raise errors.DivisionByZero("p-adic division by zero")
    if x.is_zero:
        return x
    n = min(x.precision, y.precision)
    inv = pow(y.unit, -1, y.p**n)
    return PAdicNumber(x.p, x.valuation - y.valuation, x.unit * inv, n)


def is_square(x):
    """Squareness in Q_p: even valuation plus the unit-part residue criterion.

    p odd: the unit must be a quadratic residue mod p; p = 2: the unit must be
    1 mod 8.  is_square(zero) is True by convention (0 = 0**2).
    """
    if x.is_zero:
        return True
    if x.valuation % 2 != 0:
        return False
    if x.p == 2:
        if x.precision < 3:
            raise errors.InvalidArgument("need at least 3 digits to decide squareness in Q_2")
        return x.unit % 8 == 1
    u0 = x.unit % x.p
    return pow(u0, (x.p - 1) // 2, x.p) == 1


def _sqrt_mod_p(a, p):
    """Smallest root r in 1..p-1 of r*r = a mod p, by Tonelli-Shanks from the
    non-residue of find_nonresidue.

    p is an odd prime and a a nonzero quadratic residue mod p.
    """
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    c, t, r = pow(find_nonresidue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def hensel_sqrt(x):
    """Square root by Hensel lifting; raises InvalidArgument for non-squares."""
    if x.is_zero:
        return x
    if not is_square(x):
        raise errors.InvalidArgument("not a square in Q_p")
    p, n = x.p, x.precision
    u = x.unit
    if p == 2:
        # lift bit by bit: root of a unit = 1 mod 8 is determined mod 2**(n-1)
        r = 1
        for k in range(3, n + 1):
            if (r * r - u) % 2 ** (k + 1) != 0:
                r += 2 ** (k - 1)
        width = max(1, n - 1)
        return PAdicNumber(2, x.valuation // 2, r, width)
    r = _sqrt_mod_p(u % p, p)
    k = 1
    while k < n:
        k = min(2 * k, n)
        mod = p**k
        r = (r - (r * r - u) * pow(2 * r, -1, mod)) % mod
    return PAdicNumber(p, x.valuation // 2, r, n)


def find_nonresidue(p):
    """A canonical non-square mu of Q_p: -1 for p = 3 mod 4, 3 for p = 2,
    else the smallest positive integer that fails is_square (Euler's criterion)."""
    _check_prime(p)
    if p == 2:
        return 3
    if p % 4 == 3:
        return -1
    return next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) != 1)


# ---------------------------------------------------------------------------
# literals


def format_padic(x):
    """Literal form "valuation:d0.d1....@p^N"; the canonical zero prints as "inf:@p^0"."""
    if x.is_zero:
        return f"inf:@{x.p}^0"
    body = ".".join(str(d) for d in x.digits)
    return f"{x.valuation}:{body}@{x.p}^{x.precision}"


def parse_padic(text):
    """Parse the literal format produced by format_padic."""
    try:
        head, tail = text.split("@")
        p_s, n_s = tail.split("^")
        p, n = int(p_s), int(n_s)
        val_s, digit_s = head.split(":")
        if val_s == "inf":
            return PAdicNumber.zero(p)
        digits = [int(d) for d in digit_s.split(".")] if digit_s else []
        if len(digits) != n:
            raise ValueError(f"{n} digits declared, {len(digits)} given")
        if any(not 0 <= d < p for d in digits):
            raise errors.InvalidArgument(f"digits out of range for p={p}: {digit_s}")
        if digits and digits[0] == 0:
            raise errors.InvalidArgument("unit part must not start with digit 0")
        unit = 0
        for d in reversed(digits):
            unit = unit * p + d
        return PAdicNumber(p, int(val_s), unit, n)
    except errors.GTError:
        raise
    except Exception as exc:
        raise errors.ParseError(f"bad p-adic literal {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# quadratic extension Q_p(sqrt(mu))


@functools.lru_cache(maxsize=None, typed=True)
def _check_nonresidue(p, mu):
    """InvalidArgument unless mu is an integer non-square of Q_p; proved once per (p, mu)."""
    if not isinstance(mu, int):
        raise errors.InvalidArgument(f"mu={mu!r} must be an integer")
    if is_square(padic_from_rational(mu, 1, p, 8)):
        raise errors.InvalidArgument(f"mu={mu} is a square in Q_{p}")


def _times_mu(x, mu):
    """x * mu for the nonzero integer mu, at the relative precision of x."""
    if x.is_zero:
        return x
    v = _int_valuation(mu, x.p)
    return PAdicNumber(x.p, x.valuation + v, x.unit * (mu // x.p**v), x.precision)


class PAdicExtElement(errors.Frozen):
    """z = x + y*sqrt(mu) with x, y in Q_p and mu a verified non-square."""

    __slots__ = ("x", "y", "mu")

    def __init__(self, x, y, mu):
        if x.p != y.p:
            raise errors.PrimeMismatch("extension components over different primes")
        _check_nonresidue(x.p, mu)
        self._set_fields(x, y, mu)

    @property
    def p(self):
        return self.x.p

    @property
    def is_zero(self):
        return self.x.is_zero and self.y.is_zero

    @classmethod
    def from_rationals(cls, x, y, p, mu, n=DEFAULT_PRECISION):
        return cls(padic_from_rational(x, 1, p, n), padic_from_rational(y, 1, p, n), mu)

    def __add__(self, other):
        self._check(other)
        return PAdicExtElement(add(self.x, other.x), add(self.y, other.y), self.mu)

    def __sub__(self, other):
        self._check(other)
        return PAdicExtElement(sub(self.x, other.x), sub(self.y, other.y), self.mu)

    def __mul__(self, other):
        self._check(other)
        xx = add(mul(self.x, other.x), _times_mu(mul(self.y, other.y), self.mu))
        yy = add(mul(self.x, other.y), mul(self.y, other.x))
        return PAdicExtElement(xx, yy, self.mu)

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero:
            raise errors.DivisionByZero("extension division by zero")
        w = other.field_norm()
        conj_other = ext_conj(other)
        num = self * conj_other
        return PAdicExtElement(div(num.x, w), div(num.y, w), self.mu)

    def __neg__(self):
        return PAdicExtElement(neg(self.x), neg(self.y), self.mu)

    def _check(self, other):
        if not isinstance(other, PAdicExtElement):
            raise errors.InvalidArgument("extension arithmetic needs extension operands")
        if self.p != other.p or self.mu != other.mu:
            raise errors.PrimeMismatch("operands from different extensions")

    def field_norm(self):
        """z * conj(z) = x**2 - mu*y**2, an element of Q_p."""
        return sub(mul(self.x, self.x), _times_mu(mul(self.y, self.y), self.mu))

    def __repr__(self):
        return f"PAdicExtElement({format_padic(self.x)!r} | {format_padic(self.y)!r}, mu={self.mu})"


def ext_zero(p, mu):
    return PAdicExtElement(PAdicNumber.zero(p), PAdicNumber.zero(p), mu)


def ext_conj(z):
    """Conjugation z -> x - y*sqrt(mu); an involution."""
    return PAdicExtElement(z.x, neg(z.y), z.mu)


def ext_eq(a, b):
    """Equality to working precision: the difference cancels to the canonical zero."""
    return (a - b).is_zero


class UltraNorm(errors.Frozen):
    """Value of the extension norm sqrt(|z conj(z)|_p): zero or an exact power p**exponent.

    The exponent is an exact Fraction with denominator 1 or 2, so half-integer
    powers stay exact; `exponent is None` encodes the value 0.
    """

    __slots__ = ("p", "exponent")

    def __init__(self, p, exponent):
        self._set_fields(p, exponent)  # exponent: Fraction | None

    @classmethod
    def zero(cls, p):
        return cls(p, None)

    @property
    def is_zero(self):
        return self.exponent is None

    def __float__(self):
        if self.is_zero:
            return 0.0
        return float(self.p) ** float(self.exponent)

    def __mul__(self, other):
        if self.p != other.p:
            raise errors.PrimeMismatch("norms over different primes")
        if self.is_zero or other.is_zero:
            return UltraNorm.zero(self.p)
        return UltraNorm(self.p, self.exponent + other.exponent)

    def __lt__(self, other):
        if self.is_zero:
            return not other.is_zero
        if other.is_zero:
            return False
        return self.exponent < other.exponent

    def __le__(self, other):
        return self < other or self == other


def ext_norm(z):
    """Non-Archimedean extension valuation |z|_{p,mu} = sqrt(|z*conj(z)|_p)."""
    w = z.field_norm()
    if w.is_zero:
        return UltraNorm.zero(z.p)
    return UltraNorm(z.p, Fraction(-w.valuation, 2))


# ---------------------------------------------------------------------------
# p-adic probability


def distribution_sum(entries):
    """The exact rational sum of a sequence of rationals.

    Entries over one denominator are added as integers, then the distinct
    denominators pairwise: each Fraction addition takes its gcd over operands
    of about equal size, where a running total would grow with every entry.
    """
    numerators = {}
    for q in map(as_fraction, _vector(entries, "entries")):
        numerators[q.denominator] = numerators.get(q.denominator, 0) + q.numerator
    terms = [Fraction(n, d) for d, n in numerators.items()] or [Fraction(0)]
    while len(terms) > 1:
        terms = [sum(terms[i:i + 2]) for i in range(0, len(terms), 2)]
    return terms[0]


class PAdicDistribution(errors.Frozen):
    """Sequence of exact rationals (read in Q_p) summing to exactly 1.

    Entries may be negative or exceed 1: any rational sequence with total 1 is
    a legitimate p-adic probability distribution.
    """

    __slots__ = ("entries", "p")

    def __init__(self, entries, p):
        _check_prime(p)
        self._set_fields(tuple(map(as_fraction, _vector(entries, "entries"))), p)
        if distribution_sum(self.entries) != 1:
            raise errors.InvalidArgument("p-adic distribution entries must sum to exactly 1")

    def __len__(self):
        return len(self.entries)


def distribution_check(entries):
    """True iff the exact rational sum of the sequence equals 1."""
    seq = entries.entries if isinstance(entries, PAdicDistribution) else entries
    return distribution_sum(seq) == 1


class PAdicValue(NamedTuple):
    """An exact rational read in Q_p, reported with its valuation and norm."""

    value: Fraction
    p: int
    valuation: object
    norm: Fraction


def padic_expected_payoff(payoffs, dist):
    """Exact weighted sum of rational payoffs under a p-adic distribution."""
    if not isinstance(dist, PAdicDistribution):
        raise errors.InvalidArgument("expected a PAdicDistribution")
    payoffs = tuple(map(as_fraction, _vector(payoffs, "payoffs")))
    if len(payoffs) != len(dist.entries):
        raise errors.InvalidArgument(
            f"{len(payoffs)} payoffs against {len(dist.entries)} probabilities"
        )
    total = sum((w * u for w, u in zip(dist.entries, payoffs)), Fraction(0))
    return PAdicValue(total, dist.p, rational_valuation(total, dist.p), rational_norm(total, dist.p))
