"""Tests for fixed-precision p-adic arithmetic and the quadratic extension."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkit import errors, padic
from gtkit.padic import (
    PAdicDistribution,
    PAdicExtElement,
    PAdicNumber,
    UltraNorm,
    add,
    distance,
    distribution_check,
    distribution_sum,
    div,
    ext_conj,
    ext_eq,
    ext_norm,
    ext_zero,
    find_nonresidue,
    format_padic,
    hensel_sqrt,
    is_prime,
    is_square,
    mul,
    neg,
    norm,
    padic_expected_payoff,
    padic_from_rational,
    parse_padic,
    rational_norm,
    rational_valuation,
    sub,
)

F = Fraction


def P(a, b=1, p=7, n=12):
    return padic_from_rational(a, b, p, n)


# ---------------------------------------------------------------------------
# construction and expansion


def test_minus_one_in_q3_is_all_twos():
    x = padic_from_rational(-1, 1, 3, 5)
    assert x.valuation == 0
    assert x.digits == (2, 2, 2, 2, 2)


def test_one_third_in_q3():
    x = padic_from_rational(1, 3, 3, 6)
    assert x.valuation == -1
    assert x.digits == (1, 0, 0, 0, 0, 0)


def test_zero_is_canonical():
    z = padic_from_rational(0, 5, 3, 8)
    assert z.is_zero
    assert z.valuation == math.inf
    assert z.digits == ()


def test_constructor_errors():
    with pytest.raises(errors.DivisionByZero):
        padic_from_rational(1, 0, 3, 5)
    with pytest.raises(errors.InvalidPrime):
        padic_from_rational(1, 2, 6, 5)
    with pytest.raises(errors.InvalidArgument):
        padic_from_rational(1, 2, 3, 0)


def resum(x):
    """Digit re-summation oracle: sum digits * p**(valuation+i)."""
    return sum(
        (F(d) * F(x.p) ** (x.valuation + i) for i, d in enumerate(x.digits)), F(0)
    )


@settings(max_examples=120, deadline=None)
@given(
    st.integers(-200, 200),
    st.integers(1, 120),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_round_trip_mod_precision(a, b, p):
    n = 10
    x = padic_from_rational(a, b, p, n)
    if x.is_zero:
        assert a == 0
        return
    err = F(a, b) - resum(x)
    assert rational_valuation(err, p) >= x.valuation + n or err == 0


# ---------------------------------------------------------------------------
# norm / valuation / distance


def test_norms():
    assert norm(P(49)) == F(1, 49)
    assert norm(padic_from_rational(0, 1, 7, 5)) == 0
    assert norm(P(7)) == F(1, 7)
    assert norm(padic_from_rational(1, 3, 3, 5)) == 3


def test_valuations():
    assert P(49).valuation == 2
    assert padic_from_rational(0, 1, 7, 5).valuation == math.inf
    assert padic_from_rational(1, 3, 3, 5).valuation == -1


def test_distances():
    assert distance(P(2), P(51)) == F(1, 49)
    assert distance(P(1), P(2)) == 1
    assert distance(P(5), P(5)) == 0


# ---------------------------------------------------------------------------
# arithmetic and precision propagation


def test_additive_inverse_cancels_to_zero():
    x = padic_from_rational(-1, 1, 3, 5)
    y = padic_from_rational(1, 1, 3, 5)
    assert add(x, y).is_zero
    assert add(x, neg(x)).is_zero


def test_third_times_three():
    x = padic_from_rational(1, 3, 3, 6)
    y = padic_from_rational(3, 1, 3, 6)
    z = mul(x, y)
    assert z.valuation == 0
    assert z.digits[0] == 1 and all(d == 0 for d in z.digits[1:])


def test_sum_absolute_precision_is_min():
    x = padic_from_rational(2, 1, 3, 5)  # known mod 3^5
    y = padic_from_rational(1, 1, 3, 3)  # known mod 3^3
    z = add(x, y)
    assert z.absolute_precision == 3


def test_chain_of_additions_never_degrades():
    p = 7
    acc = padic_from_rational(1, 1, p, 5)
    for _ in range(1000):
        bump = 2 if acc.unit % p == p - 1 else 1
        acc = add(acc, padic_from_rational(bump, 1, p, 3))
        assert acc.absolute_precision == 3


def test_division():
    x = P(6)
    y = P(3)
    assert div(x, y) == P(2, n=12)
    with pytest.raises(errors.DivisionByZero):
        div(x, padic_from_rational(0, 1, 7, 12))
    with pytest.raises(errors.PrimeMismatch):
        add(P(1), padic_from_rational(1, 1, 5, 12))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-60, 60),
    st.integers(-60, 60),
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([2, 3, 5, 7]),
)
def test_field_arithmetic_matches_rationals(a, c, b, d, p):
    n = 14
    x, y = padic_from_rational(a, b, p, n), padic_from_rational(c, d, p, n)
    for op, exact in ((add, F(a, b) + F(c, d)), (sub, F(a, b) - F(c, d))):
        z = op(x, y)
        if z.is_zero:
            assert rational_valuation(exact, p) is math.inf or rational_valuation(
                exact, p
            ) >= min(x.absolute_precision, y.absolute_precision)
        else:
            want = padic_from_rational(exact.numerator, exact.denominator, p, len(z.digits))
            assert z.valuation == want.valuation
            assert z.digits == want.digits
    prod = F(a, b) * F(c, d)
    w = mul(x, y)
    if prod == 0:
        assert w.is_zero
    else:
        want = padic_from_rational(prod.numerator, prod.denominator, p, len(w.digits))
        assert w == want
    if c == 0:
        with pytest.raises(errors.DivisionByZero):
            div(x, y)
    else:
        quot = F(a, b) / F(c, d)
        assert div(x, y) == padic_from_rational(quot.numerator, quot.denominator, p, n)
    assert neg(x) == padic_from_rational(-a, b, p, n)


def test_norm_multiplicativity_exact():
    pairs = [(2, 51), (49, 14), (3, 98), (-7, 21)]
    for a, b in pairs:
        x, y = P(a), P(b)
        assert norm(mul(x, y)) == norm(x) * norm(y)


# ---------------------------------------------------------------------------
# ultrametric structure (rational pairs, dual route through rational_norm)


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=-30, max_value=30, max_denominator=24),
    st.fractions(min_value=-30, max_value=30, max_denominator=24),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_ultrametric_inequality(x, y, p):
    lhs = rational_norm(x + y, p)
    a, b = rational_norm(x, p), rational_norm(y, p)
    assert lhs <= max(a, b)
    if a != b:
        assert lhs == max(a, b)


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_isosceles_property(x, y, z, p):
    sides = sorted(
        [rational_norm(x - y, p), rational_norm(y - z, p), rational_norm(x - z, p)]
    )
    assert sides[1] == sides[2]


def test_digit_norm_agrees_with_rational_norm():
    for p in (2, 3, 5, 7, 11):
        for a in range(-25, 26):
            for b in (1, 2, 3, 9, 50):
                got = norm(padic_from_rational(a, b, p, 10))
                assert got == rational_norm(F(a, b), p)


# ---------------------------------------------------------------------------
# squares, non-residues, sqrt


def test_is_square_cases():
    assert not is_square(padic_from_rational(-1, 1, 7, 8))
    assert is_square(padic_from_rational(4, 1, 7, 8))
    assert not is_square(padic_from_rational(3, 1, 2, 8))
    assert is_square(padic_from_rational(0, 1, 7, 8))
    assert not is_square(P(7))  # odd valuation
    assert is_square(padic_from_rational(1, 2, 7, 8))  # 1/2 = 4 mod 7


def test_find_nonresidue():
    assert find_nonresidue(7) == -1
    assert find_nonresidue(2) == 3
    assert find_nonresidue(5) == 2
    for p in (2, 3, 5, 7, 11, 13):
        mu = find_nonresidue(p)
        assert not is_square(padic_from_rational(mu, 1, p, 10))


def test_hensel_sqrt_roundtrip():
    for p in (3, 5, 7, 11):
        for a in (1, 4, 9, 2, 5):
            x = padic_from_rational(a, 1, p, 10)
            if not is_square(x):
                with pytest.raises(errors.InvalidArgument):
                    hensel_sqrt(x)
                continue
            r = hensel_sqrt(x)
            assert sub(mul(r, r), x).is_zero
    half = padic_from_rational(1, 2, 7, 10)
    r = hensel_sqrt(half)
    assert sub(mul(r, r), half).is_zero


def test_hensel_sqrt_lifts_the_smallest_root_mod_p():
    # the lift is fixed by its residue mod p, so literals stay those of a scan over 1..p-1
    for p in (3, 5, 7, 11, 13, 97, 101, 257):
        for a in range(1, p):
            x = padic_from_rational(a, 1, p, 6)
            if not is_square(x):
                continue
            smallest = next(c for c in range(1, p) if (c * c - a) % p == 0)
            assert hensel_sqrt(x).unit % p == smallest, (a, p)


@settings(deadline=None)
@given(st.integers(-300, 300), st.integers(-4, 4), st.integers(3, 40))
def test_a_2_adic_square_root_squares_back_at_its_precision(j, k, n):
    # every 2-adic square is 4**k times a unit = 1 mod 8; its root is known mod 2**(n - 1)
    x = padic_from_rational(F(8 * j + 1) * F(4) ** k, 1, 2, n)
    assert is_square(x)
    r = hensel_sqrt(x)
    assert (r.valuation, r.precision) == (k, n - 1)
    assert mul(r, r) == PAdicNumber(2, x.valuation, x.unit, n - 1)


def test_is_prime_is_exact_and_bounded():
    def trial_division(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial_division(n)]
    # strong pseudoprimes to every prime base up to 11, 13, 17, 23, 37
    for n in (2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(1000000007) and is_prime(2**61 - 1)
    assert not is_prime(1.5) and not is_prime(-7)
    # beyond the deterministic bases the answer is refused, not guessed
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(errors.InvalidPrime):
            is_prime(n)


# ---------------------------------------------------------------------------
# literals


def test_literal_round_trip():
    x = padic_from_rational(-1, 1, 3, 5)
    assert format_padic(x) == "0:2.2.2.2.2@3^5"
    assert parse_padic(format_padic(x)) == x
    z = PAdicNumber.zero(5)
    assert parse_padic(format_padic(z)) == z
    y = padic_from_rational(5, 3, 7, 4)
    assert parse_padic(format_padic(y)) == y
    with pytest.raises(errors.ParseError):
        parse_padic("nonsense")
    for bad in ("0:0.1@7^2", "0:7.1@7^2"):  # leading zero digit, digit >= p
        with pytest.raises(errors.InvalidArgument):
            parse_padic(bad)
    with pytest.raises(errors.InvalidPrime):
        parse_padic("0:1.1@6^2")
    with pytest.raises(errors.InvalidArgument):
        parse_padic("0:@7^0")


def test_to_rational_reconstruction():
    for value in (F(-1), F(1, 2), F(5, 3), F(-7, 10), F(242)):
        x = padic_from_rational(value.numerator, value.denominator, 7, 20)
        assert x.to_rational() == value


# ---------------------------------------------------------------------------
# extension field


def test_ext_conjugation():
    mu = -1
    z = PAdicExtElement.from_rationals(1, 1, 7, mu, 10)
    assert ext_eq(ext_conj(ext_conj(z)), z)
    real = PAdicExtElement.from_rationals(5, 0, 7, mu, 10)
    assert ext_eq(ext_conj(real), real)
    root = PAdicExtElement.from_rationals(0, 1, 7, mu, 10)
    assert ext_eq(ext_conj(root), -root)
    # (1 - sqrt(mu))(1 + sqrt(mu)) = 1 - mu
    prod = ext_conj(z) * z
    want = PAdicExtElement.from_rationals(1 - mu, 0, 7, mu, 10)
    assert ext_eq(prod, want)


def test_ext_norm_values():
    mu = -1
    real = PAdicExtElement.from_rationals(49, 0, 7, mu, 10)
    assert ext_norm(real) == UltraNorm(7, F(-2))
    root = PAdicExtElement.from_rationals(0, 1, 3, mu, 10)
    assert ext_norm(root) == UltraNorm(3, F(0))
    scalar_p = PAdicExtElement.from_rationals(7, 0, 7, mu, 10)
    assert ext_norm(scalar_p) == UltraNorm(7, F(-1))
    assert ext_norm(ext_zero(7, mu)).is_zero


def test_ext_norm_multiplicative():
    mu = -1
    pairs = [((1, 1), (2, 3)), ((7, 0), (0, 1)), ((1, 2), (3, 4))]
    for (a, b), (c, d) in pairs:
        z = PAdicExtElement.from_rationals(a, b, 7, mu, 12)
        w = PAdicExtElement.from_rationals(c, d, 7, mu, 12)
        assert ext_norm(z * w) == ext_norm(z) * ext_norm(w)


def test_ext_division():
    mu = -1
    z = PAdicExtElement.from_rationals(3, 2, 7, mu, 12)
    w = PAdicExtElement.from_rationals(1, 1, 7, mu, 12)
    q = z / w
    assert ext_eq(q * w, z)
    with pytest.raises(errors.DivisionByZero):
        z / ext_zero(7, mu)


def test_ext_rejects_square_mu():
    with pytest.raises(errors.InvalidArgument):
        PAdicExtElement.from_rationals(1, 1, 7, 4, 8)


def test_half_integer_norm_exponent():
    z = PAdicExtElement.from_rationals(0, 7, 7, -1, 10)
    assert z.field_norm().valuation == 2
    assert ext_norm(z) == UltraNorm(7, F(-1))
    z2 = PAdicExtElement.from_rationals(7, 1, 7, -1, 10)  # 49 + 1 = 50, a unit
    assert ext_norm(z2) == UltraNorm(7, F(0))
    # the ramified extension mu = 7 produces genuine half powers: sqrt(7) has norm 7^(-1/2)
    root7 = PAdicExtElement.from_rationals(0, 1, 7, 7, 10)
    assert root7.field_norm().valuation == 1
    assert ext_norm(root7) == UltraNorm(7, F(-1, 2))
    assert float(ext_norm(root7)) == pytest.approx(7 ** -0.5)


# ---------------------------------------------------------------------------
# p-adic probability


def test_distribution_check():
    assert distribution_check([1, -5, -1, 6])
    assert distribution_check([F(1, 2), F(1, 2)])
    assert not distribution_check([1, 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**6), max_size=40), st.randoms())
def test_distribution_sum_is_the_exact_sum_in_any_order(entries, rng):
    rng.shuffle(entries)
    total = distribution_sum(entries)
    assert type(total) is F and total == sum(entries, F(0))
    assert distribution_check(entries) is (total == 1)


def test_distribution_sum_adds_long_denominators_without_a_running_total():
    # 400 entries 1/400 +- 1/(10^300 + k), the "+" ones first: a running Fraction
    # total reaches a 60,000-digit denominator before it cancels, and took about
    # 0.4 s; added by denominator first, each pair cancels at once
    plus = [F(1, 400) + F(1, 10**300 + k) for k in range(200)]
    minus = [F(1, 400) - F(1, 10**300 + k) for k in range(200)]
    start = time.perf_counter()
    assert distribution_sum(plus + minus) == 1
    assert distribution_check(plus + minus)
    assert PAdicDistribution(plus + minus, 7).entries == tuple(plus + minus)
    assert time.perf_counter() - start < 0.1


def test_distribution_type_validates():
    d = PAdicDistribution((1, -5, -1, 6), 7)
    assert distribution_check(d)
    with pytest.raises(errors.InvalidArgument):
        PAdicDistribution((1, 1), 7)


def test_padic_expected_payoff():
    d = PAdicDistribution((1, -5, -1, 6), 7)
    res = padic_expected_payoff([3, 2, 0, 0], d)
    assert res.value == -7
    assert res.norm == F(1, 7)
    assert res.valuation == 1
    const = padic_expected_payoff([5, 5, 5, 5], d)
    assert const.value == 5
    classical = PAdicDistribution((F(1, 4), F(3, 4)), 7)
    res2 = padic_expected_payoff([F(2), F(6)], classical)
    assert res2.value == F(1, 2) + F(9, 2)
    with pytest.raises(errors.InvalidArgument):
        padic_expected_payoff([1, 2], d)


# ---------------------------------------------------------------------------
# each prime and each non-residue is proved once


def test_a_chain_of_operations_proves_its_prime_once(monkeypatch):
    calls = []
    original = padic.is_prime
    monkeypatch.setattr(padic, "is_prime", lambda p: calls.append(p) or original(p))
    padic._check_prime.cache_clear()
    p, mu = 101, 2  # 101 = 5 mod 8, so 2 is a non-residue
    x = padic_from_rational(3, 7, p, 12)
    z = PAdicExtElement.from_rationals(F(1, 3), 2, p, mu, 12)
    w = PAdicExtElement.from_rationals(5, F(-1, 4), p, mu, 12)
    for k in range(250):  # 1,250 operations
        c = padic_from_rational(k + 2, 1, p, 12)
        x = div(mul(add(x, c), c), neg(c))
        z = z * w
    assert calls == [101]
    assert not x.is_zero and not z.is_zero


def test_the_prime_cache_is_typed_and_caches_no_refusal():
    padic_from_rational(1, 3, 7, 5)
    for fake in (7.0, True, F(7)):
        with pytest.raises(errors.InvalidPrime):
            padic_from_rational(1, 3, fake, 5)
        with pytest.raises(errors.InvalidPrime):
            PAdicNumber(fake, 0, 1, 5)
    for refused in (9, 3317044064679887385961981):
        for _ in range(2):
            with pytest.raises(errors.InvalidPrime):
                PAdicNumber(refused, 0, 1, 5)


def test_one_nonresidue_check_refuses_every_time():
    for _ in range(2):
        with pytest.raises(errors.InvalidArgument, match="square"):
            PAdicExtElement.from_rationals(1, 1, 7, 2, 8)  # 3^2 = 2 mod 7
        with pytest.raises(errors.InvalidArgument, match="integer"):
            PAdicExtElement.from_rationals(1, 1, 7, F(1, 3), 8)
    assert not hasattr(padic, "_VERIFIED_NONSQUARES")
    # a non-residue divisible by p: the product scales the valuation
    z = PAdicExtElement.from_rationals(0, 1, 7, 7, 8)
    zz = z * z
    assert zz.y.is_zero and zz.x == padic_from_rational(7, 1, 7, 8)


# ---------------------------------------------------------------------------
# one intake rule: every rational is read by games.as_fraction


# each reader takes one rational v and accepts the value 1
RATIONAL_READERS = {
    "rational_valuation": lambda v: rational_valuation(v, 7),
    "padic_from_rational-a": lambda v: padic_from_rational(v, 1, 7, 4),
    "padic_from_rational-b": lambda v: padic_from_rational(1, v, 7, 4),
    "PAdicDistribution": lambda v: PAdicDistribution([v, 0], 7),
    "distribution_check": lambda v: distribution_check([v, 0]),
    "padic_expected_payoff": lambda v: padic_expected_payoff([v], PAdicDistribution([1], 7)),
    "PAdicExtElement.from_rationals": lambda v: PAdicExtElement.from_rationals(v, v, 7, -1, 4),
}


@pytest.mark.parametrize("name", sorted(RATIONAL_READERS))
def test_padic_readers_take_exact_rationals_only(name, check_exact_rational_reader):
    check_exact_rational_reader(RATIONAL_READERS[name])


def test_binary64_one_tenth_is_refused_not_expanded():
    # 1/10 is 0:5.0.2.6@7^4, while the binary64 value of 0.1 expands to 0:3.2.6.3@7^4
    assert format_padic(padic_from_rational(F(1, 10), 1, 7, 4)) == "0:5.0.2.6@7^4"
    assert format_padic(padic_from_rational("0.1", 1, 7, 4)) == "0:5.0.2.6@7^4"
    with pytest.raises(errors.InvalidArgument, match="float"):
        padic_from_rational(0.1, 1, 7, 4)
    with pytest.raises(errors.InvalidArgument, match="^not a rational: True$"):
        padic_from_rational(True, 1, 7, 4)


@pytest.mark.parametrize("read", [
    lambda v: distribution_check(v),
    lambda v: PAdicDistribution(v, 7),
    lambda v: padic_expected_payoff(v, PAdicDistribution([1], 7)),
], ids=["distribution_check", "PAdicDistribution", "padic_expected_payoff"])
def test_a_string_is_never_read_as_a_padic_vector(read):
    # distribution_check("1") read the string's one character and called it a distribution
    with pytest.raises(errors.InvalidArgument, match="expected a sequence, got str"):
        read("1")
    assert read(["1"]) is not None
