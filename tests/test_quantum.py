"""Tests for the two-qubit machinery and the entangled 2x2 quantumization."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gtkit import errors
from gtkit.games import StrategicGame
from gtkit.quantum import (
    ClassicalForm,
    classical_product_payoffs,
    mw_nash_search,
    payoff_surface_rows,
)
from twoqubit import (
    AMPLITUDES,
    DensityOperator,
    InvalidBasis,
    Ket,
    basis_ket,
    born_probabilities,
    density_of,
    mw_expected_payoffs,
    mw_final_density,
    tensor,
)

F = Fraction
R2 = 1.0 / math.sqrt(2.0)


def bos():
    return StrategicGame([["O", "F"], ["O", "F"]], [[(3, 2), (0, 0)], [(0, 0), (2, 3)]])


# ---------------------------------------------------------------------------
# kets, tensor products, Born rule


def test_tensor_products():
    k0, k1 = basis_ket(2, 0), basis_ket(2, 1)
    assert np.allclose(tensor(k0, k0).v, [1, 0, 0, 0])
    plus = Ket([R2, R2])
    assert np.allclose(tensor(plus, k1).v, [0, R2, 0, R2])
    assert abs(np.linalg.norm(tensor(plus, plus).v) - 1) < 1e-12


def test_ket_validation():
    with pytest.raises(errors.InvalidState):
        Ket([1.0, 1.0])
    with pytest.raises(errors.InvalidState):
        Ket([1.0, 0.0, 0.0])  # dimension 3


def test_born_probabilities():
    k0, k1 = basis_ket(2, 0), basis_ket(2, 1)
    assert np.allclose(born_probabilities(k0, [k0, k1]), [1, 0])
    plus = Ket([R2, R2])
    assert np.allclose(born_probabilities(plus, [k0, k1]), [0.5, 0.5], atol=1e-12)
    bell = Ket([R2, 0, 0, R2])
    product_basis = [basis_ket(4, i) for i in range(4)]
    assert np.allclose(born_probabilities(bell, product_basis), [0.5, 0, 0, 0.5], atol=1e-12)
    with pytest.raises(InvalidBasis):
        born_probabilities(plus, [k0, Ket([R2, R2])])


def test_density_of():
    k = basis_ket(4, 0)
    rho = density_of(k)
    assert np.allclose(rho.matrix, np.diag([1, 0, 0, 0]))
    bell = Ket([R2, 0, 0, R2])
    rho2 = density_of(bell)
    # corner entries |alpha|^2, alpha*conj(beta), conj(alpha)*beta, |beta|^2
    for idx in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert rho2.matrix[idx] == pytest.approx(0.5, abs=1e-12)
    assert np.trace(rho2.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_density_operator_validation():
    with pytest.raises(errors.InvalidState):
        DensityOperator([[1.0, 0.5], [0.0, 0.0]])  # not Hermitian
    with pytest.raises(errors.InvalidState):
        DensityOperator([[2.0, 0.0], [0.0, 0.0]])  # trace 2
    with pytest.raises(errors.InvalidState):
        DensityOperator([[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue


# ---------------------------------------------------------------------------
# the identity/bit-flip channel


def test_channel_classical_corners():
    assert np.allclose(mw_final_density(1.0, 0.0, 1.0, 1.0).matrix, np.diag([1, 0, 0, 0]))
    assert np.allclose(mw_final_density(1.0, 0.0, 0.0, 0.0).matrix, np.diag([0, 0, 0, 1]))


def test_channel_maximally_entangled_diagonal():
    for p, q in ((0.3, 0.8), (0.0, 1.0), (0.5, 0.5)):
        diag = mw_final_density(R2, R2, p, q).diagonal()
        coord = (p * q + (1 - p) * (1 - q)) / 2.0
        mis = (p * (1 - q) + (1 - p) * q) / 2.0
        assert np.allclose(diag, [coord, mis, mis, coord], atol=1e-12)


def test_channel_closed_form_matches_kraus_sum():
    # trace preservation and oracle equivalence on the full 21x21 grid for
    # several amplitude pairs, including a complex-phase one, each against the
    # classical form at the exact weight |alpha|^2
    grid = np.linspace(0.0, 1.0, 21)
    for alpha, beta, a2 in AMPLITUDES:
        form = ClassicalForm(bos(), a2)
        for p in grid:
            for q in grid:
                kraus = mw_final_density(alpha, beta, float(p), float(q))
                assert abs(np.trace(kraus.matrix).real - 1.0) <= 1e-10
                closed = [float(x) for x in form.distribution(F(float(p)), F(float(q)))]
                assert np.max(np.abs(kraus.diagonal() - closed)) <= 1e-12


def test_channel_rejects_bad_probabilities():
    with pytest.raises(errors.InvalidArgument):
        mw_final_density(R2, R2, -0.1, 0.5)
    with pytest.raises(errors.InvalidArgument):
        mw_final_density(R2, R2, 0.5, 1.5)


# ---------------------------------------------------------------------------
# payoffs


def test_expected_payoffs_examples():
    assert mw_expected_payoffs(bos(), 1.0, 0.0, 1.0, 1.0) == pytest.approx((3.0, 2.0))
    assert mw_expected_payoffs(bos(), R2, R2, 1.0, 1.0) == pytest.approx((2.5, 2.5))
    assert mw_expected_payoffs(bos(), R2, R2, 1.0, 0.0) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_classical_limit_matches_game_core():
    for i in range(11):
        for j in range(11):
            p, q = i / 10, j / 10
            got = mw_expected_payoffs(bos(), 1.0, 0.0, p, q)
            want = classical_product_payoffs(bos(), F(i, 10), F(j, 10))
            assert abs(got[0] - float(want[0])) <= 1e-10
            assert abs(got[1] - float(want[1])) <= 1e-10


def test_symmetry_of_entangled_payoffs():
    for p, q in ((0.2, 0.7), (0.0, 0.4), (0.9, 0.9)):
        a = mw_expected_payoffs(bos(), R2, R2, p, q)
        b = mw_expected_payoffs(bos(), R2, R2, 1 - p, 1 - q)
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-12)


# ---------------------------------------------------------------------------
# equilibrium search


def test_nash_search_entangled_bos():
    found = mw_nash_search(ClassicalForm(bos(), F(1, 2)), grid_n=100)
    points = {pq for pq, _ in found}
    payoffs = {pq: pay for pq, pay in found}
    assert (0.0, 0.0) in points and (1.0, 1.0) in points
    for corner in ((0.0, 0.0), (1.0, 1.0)):
        assert payoffs[corner][0] == pytest.approx(2.5, abs=1e-9)
        assert payoffs[corner][1] == pytest.approx(2.5, abs=1e-9)
    # the scheme also has a weak mixed equilibrium at (1/2, 1/2) with payoff 5/4;
    # the Pareto-optimal equilibrium payoff is 5/2, beating the classical 6/5
    assert points <= {(0.0, 0.0), (1.0, 1.0), (0.5, 0.5)}
    best = max(pay[0] for _, pay in found)
    assert best == pytest.approx(2.5, abs=1e-9)
    assert best > 6 / 5


def test_nash_search_classical_limit_structure():
    found = mw_nash_search(ClassicalForm(bos(), 1), grid_n=100)
    points = {pq for pq, _ in found}
    # p, q are identity probabilities = probabilities of playing O
    assert points == {(0.0, 0.0), (1.0, 1.0), (0.6, 0.4)}


def test_nash_search_constant_game():
    const = StrategicGame([["a", "b"], ["a", "b"]], [[(1, 1), (1, 1)], [(1, 1), (1, 1)]])
    found = mw_nash_search(ClassicalForm(const, F(1, 2)), grid_n=10)
    assert len(found) == 121  # every grid point is a (weak) equilibrium


def test_nash_search_validates_grid():
    with pytest.raises(errors.InvalidArgument):
        mw_nash_search(ClassicalForm(bos(), F(1, 2)), grid_n=0)


def test_payoff_surface_rows():
    rows = "\n".join(payoff_surface_rows(ClassicalForm(bos(), F(1, 2)), grid_n=2)).split("\n")
    assert rows[0] == "p,q,payoff1,payoff2"
    assert len(rows) == 1 + 9
    p, q, u1, u2 = (float(x) for x in rows[1].split(","))
    assert (p, q) == (0.0, 0.0)
    assert u1 == pytest.approx(2.5, abs=1e-12)
