"""Tests for p-adic Hilbert spaces, SOVM measurement, and p-adic quantumization."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkit import errors, padic_quantum
from gtkit.games import StrategicGame
from gtkit.padic import (
    PAdicExtElement,
    UltraNorm,
    ext_conj,
    ext_eq,
    format_padic,
    padic_from_rational,
    parse_padic,
)
from gtkit.padic_quantum import (
    BILINEAR,
    SESQUILINEAR,
    SOVM,
    GapReport,
    PAdicHilbertSpace,
    PAdicOperator,
    PAdicVector,
    StatisticalOperator,
    adjoint,
    inner_product,
    is_isotropic,
    is_self_adjoint,
    isotropic_witness,
    measurement_distribution,
    omega,
    operators_equal,
    padic_quantumize_2x2,
    trace,
    ultranorm,
)
from gtkit.quantum import ClassicalForm, classical_product_payoffs

F = Fraction
P, MU, N = 7, -1, 20


def bos():
    return StrategicGame([["O", "F"], ["O", "F"]], [[(3, 2), (0, 0)], [(0, 0), (2, 3)]])


def space(dim=2, convention=SESQUILINEAR, p=P, mu=MU):
    return PAdicHilbertSpace(dim, p, mu, convention)


def ext(x, y=0, p=P, mu=MU, n=N):
    return PAdicExtElement.from_rationals(x, y, p, mu, n)


def basis_vec(i, dim=2):
    return PAdicVector.from_rationals([1 if j == i else 0 for j in range(dim)], P, MU, N)


# ---------------------------------------------------------------------------
# inner products / norms / isotropy


def test_inner_product_kronecker_delta():
    sp = space()
    b0, b1 = basis_vec(0), basis_vec(1)
    assert ext_eq(inner_product(b0, b0, sp), ext(1))
    assert inner_product(b0, b1, sp).is_zero


def test_inner_product_sesquilinear_root():
    sp = space()
    v = PAdicVector.from_rationals([(0, 1), 0], P, MU, N)  # sqrt(mu) b1
    # conj(sqrt(mu)) * sqrt(mu) = -mu
    assert ext_eq(inner_product(v, v, sp), ext(-MU))


def test_inner_product_bilinear():
    sp = space(convention=BILINEAR)
    v = PAdicVector.from_rationals([1, (0, 1)], P, MU, N)  # b1 + sqrt(mu) b2
    assert ext_eq(inner_product(v, v, sp), ext(1 + MU))


def test_inner_product_conjugate_symmetry():
    sp = space()
    u = PAdicVector.from_rationals([(1, 2), (3, 1)], P, MU, N)
    v = PAdicVector.from_rationals([(2, 0), (1, 5)], P, MU, N)
    assert ext_eq(inner_product(u, v, sp), ext_conj(inner_product(v, u, sp)))


def test_inner_product_dimension_mismatch():
    sp = space()
    v3 = PAdicVector.from_rationals([1, 0, 0], P, MU, N)
    with pytest.raises(errors.InvalidArgument):
        inner_product(v3, v3, sp)


def test_ultranorm():
    b0 = basis_vec(0)
    assert ultranorm(b0) == UltraNorm(P, F(0))
    scaled = PAdicVector.from_rationals([7, 0], P, MU, N)
    assert ultranorm(scaled) == UltraNorm(P, F(-1))
    mixed = PAdicVector.from_rationals([49, 7], P, MU, N)
    assert ultranorm(mixed) == UltraNorm(P, F(-1))


def test_isotropic_bilinear_vector():
    # b1 + sqrt(-1) b2 is isotropic under the bilinear form (p = 3, mu = -1)
    sp = PAdicHilbertSpace(2, 3, -1, BILINEAR)
    v = PAdicVector.from_rationals([1, (0, 1)], 3, -1, N)
    assert is_isotropic(v, sp)
    assert not is_isotropic(basis_vec(0), space())
    zero = PAdicVector.from_rationals([0, 0], P, MU, N)
    assert not is_isotropic(zero, space())


def test_isotropic_witness_sesquilinear():
    for p in (3, 7, 11):
        v = isotropic_witness(p, 16)
        sp = PAdicHilbertSpace(2, p, -1, SESQUILINEAR)
        assert is_isotropic(v, sp)
        # the ultranorm of the witness is nonzero although <v, v> = 0
        assert not ultranorm(v).is_zero


def test_isotropy_shows_norm_and_inner_product_differ():
    v = isotropic_witness(3, 16)
    sp = PAdicHilbertSpace(2, 3, -1, SESQUILINEAR)
    assert inner_product(v, v, sp).is_zero
    assert ultranorm(v) == UltraNorm(3, F(0))


# ---------------------------------------------------------------------------
# operators


def test_adjoint_and_trace():
    ident = PAdicOperator.identity(3, P, MU, N)
    assert operators_equal(adjoint(ident), ident)
    assert ext_eq(trace(ident), ext(3))
    e12 = PAdicOperator.from_rationals([[0, (0, 1)], [0, 0]], P, MU, N)  # sqrt(mu) E12
    adj = adjoint(e12)
    assert ext_eq(adj.entries[1][0], ext(0, -1))
    assert adj.entries[0][1].is_zero
    m = PAdicOperator.from_rationals([[(1, 2), (3, 4)], [(5, 6), (7, 8)]], P, MU, N)
    assert ext_eq(trace(adjoint(m)), ext_conj(trace(m)))


def test_self_adjoint_closure():
    a = PAdicOperator.from_rationals([[2, (1, 1)], [(1, -1), -1]], P, MU, N)
    b = PAdicOperator.from_rationals([[0, (0, 2)], [(0, -2), 1]], P, MU, N)
    assert is_self_adjoint(a) and is_self_adjoint(b)
    assert is_self_adjoint(a + b)
    # (MN)* = N* M*
    assert operators_equal(adjoint(a @ b), adjoint(b) @ adjoint(a))


def test_statistical_operator_validation():
    rho = StatisticalOperator.from_rationals([[2, 0], [0, -1]], P, MU, N)
    assert ext_eq(trace(rho), ext(1))
    with pytest.raises(errors.InvalidState):
        StatisticalOperator.from_rationals([[2, 0], [0, 0]], P, MU, N)  # trace 2
    with pytest.raises(errors.InvalidState):
        StatisticalOperator.from_rationals([[1, (1, 1)], [0, 0]], P, MU, N)  # not self-adjoint


def test_statistical_operator_trace_is_checked_at_its_own_precision():
    # 1 + 7^10 agrees with 1 to 10 digits, below the operator's 20
    with pytest.raises(errors.InvalidState, match="trace 1"):
        StatisticalOperator.from_rationals([[1 + 7**10, 0], [0, 0]], 7, -1, 20)
    rho = StatisticalOperator.from_rationals([[1 + 7**20, 0], [0, 0]], 7, -1, 20)
    assert ext_eq(trace(rho), ext(1))
    # an entry of valuation -2 knows the trace only to 18 digits
    StatisticalOperator.from_rationals([[F(1, 49), 0], [0, F(48, 49)]], 7, -1, 20)


def test_the_nonresidue_is_checked_wherever_mu_enters():
    for _ in range(2):
        with pytest.raises(errors.InvalidArgument, match="square"):
            PAdicHilbertSpace(2, 7, 2)  # 3^2 = 2 mod 7
        with pytest.raises(errors.InvalidArgument, match="square"):
            isotropic_witness(5)  # 2^2 = -1 mod 5
        with pytest.raises(errors.InvalidPrime):
            PAdicHilbertSpace(2, 9, -1)


def test_mixed_precision_rejected():
    a = ext(1, 0, n=10)
    b = ext(1, 0, n=20)
    with pytest.raises(errors.InvalidArgument):
        PAdicVector([a, b])
    with pytest.raises(errors.InvalidArgument):
        PAdicOperator([[a, a], [a, b]])


def test_a_vector_always_checks_its_precisions():
    assert list(inspect.signature(PAdicVector).parameters) == ["components"]


def test_an_operator_always_checks_its_precisions():
    for cls in (PAdicOperator, StatisticalOperator):
        assert list(inspect.signature(cls).parameters) == ["entries"]


# ---------------------------------------------------------------------------
# omega functional and measurement


def test_omega_normalization_and_linearity():
    rho = StatisticalOperator.from_rationals([[F(1, 3), 0], [0, F(2, 3)]], P, MU, N)
    ident = PAdicOperator.identity(2, P, MU, N)
    assert ext_eq(omega(rho, ident), ext(1))
    sigma = PAdicOperator.from_rationals([[5, 1], [2, -3]], P, MU, N)
    tau = PAdicOperator.from_rationals([[1, (0, 2)], [0, 4]], P, MU, N)
    lhs = omega(rho, sigma + tau)
    rhs = omega(rho, sigma) + omega(rho, tau)
    assert ext_eq(lhs, rhs)


def test_omega_diag_projection():
    rho = StatisticalOperator.from_rationals([[1, 0], [0, 0]], P, MU, N)
    sigma = PAdicOperator.from_rationals([[F(5, 2), 0], [0, 9]], P, MU, N)
    assert ext_eq(omega(rho, sigma), ext(F(5, 2)))


def test_omega_preserves_involution():
    rho = StatisticalOperator.from_rationals([[2, (0, 1)], [(0, -1), -1]], P, MU, N)
    sigma = PAdicOperator.from_rationals([[(1, 2), (3, 4)], [(0, 1), (2, 0)]], P, MU, N)
    assert ext_eq(omega(rho, adjoint(sigma)), ext_conj(omega(rho, sigma)))


def test_omega_checks_a_plain_operator_as_a_state():
    sigma = PAdicOperator.from_rationals([[F(5, 2), 0], [0, 9]], P, MU, N)
    rho = PAdicOperator.from_rationals([[F(1, 3), (0, 2)], [(0, -2), F(2, 3)]], P, MU, N)
    # tr(rho sigma) = 5/6 + 6
    assert ext_eq(omega(rho, sigma), ext(F(41, 6)))
    for bad in ([[1, (0, 2)], [(0, 2), 0]], [[1, 0], [0, 1]]):  # not self-adjoint; trace 2
        with pytest.raises(errors.InvalidState):
            omega(PAdicOperator.from_rationals(bad, P, MU, N), sigma)


def projective_sovm(n=2, prec=N):
    members = []
    for i in range(n):
        members.append(
            PAdicOperator.from_rationals(
                [[1 if (r == c == i) else 0 for c in range(n)] for r in range(n)], P, MU, prec
            )
        )
    return SOVM(members)


def padic(value, prec=N):
    return padic_from_rational(value, 1, P, prec)


def sums_to_one(values):
    """The p-adic sum of the values is 1 at the precision it is known to."""
    total = values[0]
    for x in values[1:]:
        total = total + x
    return (total - padic(1)).is_zero


def _pair_product(a, b):
    """(x, y) of (a_x + a_y sqrt(mu)) (b_x + b_y sqrt(mu)), exact."""
    return a[0] * b[0] + MU * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _pair_trace_of_product(rho, m):
    terms = [_pair_product(rho[i][k], m[k][i]) for i in range(2) for k in range(2)]
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


def _self_adjoint(a, c, d, b):
    """The 2x2 self-adjoint matrix [[a, c + d sqrt(mu)], [c - d sqrt(mu), b]] as pairs."""
    return [[(a, F(0)), (c, d)], [(c, -d), (b, F(0))]]


def agrees(value, x):
    """The p-adic value is the rational x at the precision it is known to, and knows
    it to p^(N - 4) at least: no operator entry here has valuation below -2."""
    if x == 0:
        return value.is_zero
    return value == padic(x, value.precision) and value.absolute_precision >= N - 4


def test_measurement_projective():
    rho = StatisticalOperator.from_rationals([[1, 0], [0, 0]], P, MU, N)
    assert measurement_distribution(rho, projective_sovm()) == (padic(1), padic(0))


def test_measurement_nonclassical():
    rho = StatisticalOperator.from_rationals([[2, 0], [0, -1]], P, MU, N)
    dist = measurement_distribution(rho, projective_sovm())
    assert dist == (padic(2), padic(-1))
    assert sums_to_one(dist)


def test_measurement_identity_sovm():
    rho = StatisticalOperator.from_rationals([[F(1, 2), (0, 3)], [(0, -3), F(1, 2)]], P, MU, N)
    only = SOVM([PAdicOperator.identity(2, P, MU, N)])
    assert measurement_distribution(rho, only) == (padic(1),)


@pytest.mark.parametrize("prec", [3, 4, 20])
def test_measurement_reads_no_value_back(prec):
    # 25/169 and 144/169 outgrow rational reconstruction from 7^3 and 7^4, which
    # turns them into (-10, 11) and (33/31, -2/31), each pair still summing to 1
    values = (F(25, 169), F(144, 169))
    rho = StatisticalOperator.from_rationals([[values[0], 0], [0, values[1]]], P, MU, prec)
    dist = measurement_distribution(rho, projective_sovm(prec=prec))
    assert dist == (padic(values[0], prec), padic(values[1], prec))


def test_measurement_refuses_a_value_with_a_root_part():
    # at one binary digit, 2y vanishes for any y: the diagonal sqrt(3) parts pass the
    # self-adjoint and trace checks, yet tr(rho M_0) keeps its sqrt(3) part
    rho = StatisticalOperator.from_rationals([[(1, 1), 0], [0, (0, -1)]], 2, 3, 1)
    proj = SOVM([PAdicOperator.from_rationals([[1, 0], [0, 0]], 2, 3, 1),
                 PAdicOperator.from_rationals([[0, 0], [0, 1]], 2, 3, 1)])
    with pytest.raises(errors.InvalidState, match="sqrt"):
        measurement_distribution(rho, proj)


def test_measurement_checks_a_plain_state_once(monkeypatch):
    calls = []
    check = padic_quantum._check_state
    monkeypatch.setattr(padic_quantum, "_check_state", lambda m: calls.append(m) or check(m))
    diagonal = [[F(1, 4) if r == c else 0 for c in range(4)] for r in range(4)]
    rho = PAdicOperator.from_rationals(diagonal, P, MU, N)
    dist = measurement_distribution(rho, projective_sovm(4))
    assert dist == (padic(F(1, 4)),) * 4
    assert len(calls) == 1
    bad = PAdicOperator.from_rationals([[1 if r == c else 0 for c in range(4)] for r in range(4)],
                                       P, MU, N)  # trace 4
    with pytest.raises(errors.InvalidState):
        measurement_distribution(bad, projective_sovm(4))


_rationals = st.fractions(-5, 5, max_denominator=60)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[_rationals] * 3), st.tuples(*[_rationals] * 4))
def test_measurement_values_are_the_exact_traces(state, member):
    a, c, d = state
    rho = _self_adjoint(a, c, d, 1 - a)
    m = _self_adjoint(*member)
    rest = _self_adjoint(1 - member[0], -member[1], -member[2], 1 - member[3])
    ops = [PAdicOperator.from_rationals(x, P, MU, N) for x in (m, rest)]
    dist = measurement_distribution(
        StatisticalOperator.from_rationals(rho, P, MU, N), SOVM(ops))
    for value, op in zip(dist, (m, rest)):
        x, y = _pair_trace_of_product(rho, op)
        assert y == 0
        assert agrees(value, x)
    assert sums_to_one(dist)


def test_sovm_validation():
    good = projective_sovm()
    assert len(good) == 2
    bad_sum = [
        PAdicOperator.from_rationals([[1, 0], [0, 0]], P, MU, N),
        PAdicOperator.from_rationals([[1, 0], [0, 0]], P, MU, N),
    ]
    with pytest.raises(errors.InvalidSOVM):
        SOVM(bad_sum)
    not_sa = [
        PAdicOperator.from_rationals([[1, (1, 1)], [0, 0]], P, MU, N),
        PAdicOperator.from_rationals([[0, (-1, -1)], [0, 1]], P, MU, N),
    ]
    with pytest.raises(errors.InvalidSOVM):
        SOVM(not_sa)


def test_measurement_sum_is_one_for_operator_family():
    # deterministic family of non-commuting self-adjoint decompositions
    for k in range(1, 8):
        m = _self_adjoint(F(k, 7), F(2), F(k), F(3 - k, 5))
        rho = _self_adjoint(F(1 + k, 9), F(0), F(k), 1 - F(1 + k, 9))
        m1 = PAdicOperator.from_rationals(m, P, MU, N)
        sovm = SOVM([m1, PAdicOperator.identity(2, P, MU, N) - m1])
        dist = measurement_distribution(StatisticalOperator.from_rationals(rho, P, MU, N), sovm)
        x, y = _pair_trace_of_product(rho, m)
        assert y == 0
        assert agrees(dist[0], x) and agrees(dist[1], 1 - x)
        assert sums_to_one(dist)


# ---------------------------------------------------------------------------
# quantumization


def test_quantumize_classical_limit():
    res = padic_quantumize_2x2(ClassicalForm(bos(), 1), P, F(1), F(1))
    assert res.distribution.entries == (1, 0, 0, 0)
    assert res.payoffs[0].value == 3 and res.payoffs[1].value == 2


def test_quantumize_entangled_exact_payoffs():
    # alpha = beta = sqrt(1/2) in Q_7 (1/2 = 4 mod 7 is a square): the weight 1/2
    res = padic_quantumize_2x2(ClassicalForm(bos(), F(1, 2)), P, F(1), F(1))
    assert res.distribution.entries == (F(1, 2), 0, 0, F(1, 2))
    assert res.payoffs[0].value == F(5, 2)
    assert res.payoffs[1].value == F(5, 2)
    assert res.payoffs[0].norm == 1  # |5/2|_7 = 1
    # hierarchy: gap against the classical interior mixed payoff 6/5 is 13/10
    mixed = [g for g in res.hierarchy if g.label == "mixed interior"]
    assert len(mixed) == 1
    assert mixed[0].gap == (F(13, 10), F(13, 10))
    assert mixed[0].gap_norms == (F(1), F(1))


def test_quantumize_rejects_bad_state():
    three = StrategicGame(
        [["a", "b", "c"], ["x", "y"]],
        {(i, j): (0, 0) for i in range(3) for j in range(2)},
    )
    with pytest.raises(errors.UnsupportedShape):
        padic_quantumize_2x2(ClassicalForm(three, 1), P, F(1), F(1))
    with pytest.raises(errors.InvalidArgument):  # the game, not its ClassicalForm
        padic_quantumize_2x2(bos(), P, F(1), F(1))


def operator_to_json(m):
    """JSON-ready dict: a matrix of "x|y" literals meaning x + y*sqrt(mu)."""
    entries = [[f"{format_padic(z.x)}|{format_padic(z.y)}" for z in row] for row in m.entries]
    return {"p": m.p, "mu": m.mu, "entries": entries}


def operator_from_json(doc):
    def entry(text):
        x, y = text.split("|")
        return PAdicExtElement(parse_padic(x), parse_padic(y), doc["mu"])

    return PAdicOperator([[entry(text) for text in row] for row in doc["entries"]])


def test_operator_json_round_trip():
    import json

    m = PAdicOperator.from_rationals([[2, (1, 3)], [(1, -3), F(5, 2)]], P, MU, N)
    doc = operator_to_json(m)
    text = json.dumps(doc, sort_keys=True)
    again = operator_from_json(json.loads(text))
    assert operators_equal(m, again)
    assert "|" in doc["entries"][0][0]


def test_operator_from_json_refuses_mixed_precisions():
    # a document comes from outside the program: it gets the constructor's precision check
    doc = operator_to_json(PAdicOperator.identity(2, P, MU, 5))
    doc["entries"][1][1] = operator_to_json(PAdicOperator.identity(2, P, MU, 9))["entries"][1][1]
    assert "@7^5|" in doc["entries"][0][0] and "@7^9|" in doc["entries"][1][1]
    with pytest.raises(errors.InvalidArgument, match="mixed-precision"):
        operator_from_json(doc)


def test_quantumize_classical_limit_full_tenth_grid():
    from gtkit.games import expected_payoff

    for i in range(11):
        for j in range(11):
            pt, qt = F(i, 10), F(j, 10)
            res = padic_quantumize_2x2(ClassicalForm(bos(), 1), P, pt, qt)
            want = expected_payoff(bos(), ((pt, 1 - pt), (qt, 1 - qt)))
            assert (res.payoffs[0].value, res.payoffs[1].value) == want


def test_quantumize_hierarchy_reports(capsys=None):
    res = padic_quantumize_2x2(ClassicalForm(bos(), 1), P, F(1), F(1))
    labels = {g.label for g in res.hierarchy}
    assert "pure O/O" in labels and "pure F/F" in labels and "mixed interior" in labels
    pure_oo = next(g for g in res.hierarchy if g.label == "pure O/O")
    assert isinstance(pure_oo, GapReport)
    assert pure_oo.gap == (0, 0)


# ---------------------------------------------------------------------------
# one intake rule: every rational is read by games.as_fraction


# each reader takes one rational v and accepts the value 1
RATIONAL_READERS = {
    "padic_quantumize_2x2-p": lambda v: padic_quantumize_2x2(ClassicalForm(bos(), 1), P, v, 1),
    "padic_quantumize_2x2-q": lambda v: padic_quantumize_2x2(ClassicalForm(bos(), 1), P, 1, v),
    "PAdicVector.from_rationals": lambda v: PAdicVector.from_rationals(
        [v, (0, v)], P, MU, 4).components,
    "PAdicOperator.from_rationals": lambda v: PAdicOperator.from_rationals(
        [[v, 0], [(0, v), v]], P, MU, 4).entries,
    "classical_product_payoffs": lambda v: classical_product_payoffs(bos(), v, 1),
}


@pytest.mark.parametrize("name", sorted(RATIONAL_READERS))
def test_quantum_readers_take_exact_rationals_only(name, check_exact_rational_reader):
    check_exact_rational_reader(RATIONAL_READERS[name])


def test_classical_product_payoffs_refuses_floats_as_the_form_does():
    # 0.3 was read as 5404319552844595/18014398509481984, giving 41433116571808563/36028797018963968
    form = ClassicalForm(bos(), 1)
    for read in (form.payoffs, lambda p, q: classical_product_payoffs(bos(), p, q)):
        with pytest.raises(errors.InvalidArgument, match="float"):
            read(0.3, 0.5)
    assert classical_product_payoffs(bos(), "0.3", "1/2") == form.payoffs(F(3, 10), F(1, 2))


def test_a_string_is_never_read_as_a_padic_vector_or_operator():
    # ["10", "01"] was read as the rows (1, 0) and (0, 1): the identity
    with pytest.raises(errors.InvalidArgument, match=r"^rows\[0\]: expected a sequence, got str$"):
        PAdicOperator.from_rationals(["10", "01"], 7, 3, 3)
    with pytest.raises(errors.InvalidArgument, match="^rows: expected a sequence, got str$"):
        PAdicOperator.from_rationals("1", 7, 3, 3)
    with pytest.raises(errors.InvalidArgument, match="^entries: expected a sequence, got str$"):
        PAdicVector.from_rationals("10", 7, 3, 3)
    assert operators_equal(PAdicOperator.from_rationals([[1, 0], [0, 1]], 7, 3, 3),
                           PAdicOperator.identity(2, 7, 3, 3))
