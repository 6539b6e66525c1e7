"""Two-qubit state machinery: the numpy oracle of the quantumization's classical form.

Kets, tensor products, the Born rule and density operators, plus the explicit
Kraus sum of the probabilistic identity/bit-flip channel on alpha|00> + beta|11>.
`gtkit.quantum` decides everything from `ClassicalForm(base, |alpha|^2)` and
holds no amplitude; these functions take the amplitudes alpha and beta as plain
(complex) numbers and check that closed form against the channel it replaces.
"""

import math
from fractions import Fraction

import numpy as np

from gtkit import errors
from gtkit.quantum import PROFILES

NORM_TOL = 1e-10
PSD_TOL = 1e-9
_R2 = 1.0 / math.sqrt(2.0)
# amplitudes (alpha, beta) of alpha|00> + beta|11>, one with a complex phase, and
# the exact weight |alpha|^2 of each, as the library takes it
AMPLITUDES = ((1.0, 0.0, Fraction(1)), (_R2, _R2, Fraction(1, 2)),
              (0.6, 0.8, Fraction(9, 25)), (0.6 + 0.0j, 0.8j, Fraction(9, 25)))


class InvalidBasis(errors.GTError):
    """A measurement basis is not orthonormal within tolerance."""


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I = np.eye(2, dtype=complex)


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
        raise InvalidBasis("basis size must match the state dimension")
    gram = np.array([[np.vdot(u, w) for w in vecs] for u in vecs])
    if np.max(np.abs(gram - np.eye(psi.dim))) > NORM_TOL:
        raise InvalidBasis("basis is not orthonormal within 1e-10")
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


def initial_ket(alpha, beta):
    """The shared state alpha|00> + beta|11>; InvalidState unless |alpha|^2 + |beta|^2 = 1."""
    return Ket([alpha, 0.0, 0.0, beta])


def _check_prob(value, name):
    if not (0.0 <= value <= 1.0):
        raise errors.InvalidArgument(f"{name} must lie in [0, 1], got {value}")


def mw_final_density(alpha, beta, p, q):
    """Final state of the probabilistic identity/bit-flip channel.

    rho' = sum over U, V in {I, X} of w_UV (U x V) rho (U x V)^dagger with
    weights (pq, p(1-q), (1-p)q, (1-p)(1-q)); computed by explicit Kraus-sum
    matrix products.
    """
    _check_prob(p, "p")
    _check_prob(q, "q")
    rho = density_of(initial_ket(alpha, beta)).matrix
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


def mw_expected_payoffs(base, alpha, beta, p, q):
    """Expected payoffs: payoff-weighted diagonal of the Kraus-sum final state."""
    diag = mw_final_density(alpha, beta, p, q).diagonal().tolist()
    u = [base.payoff(s) for s in PROFILES]
    return tuple(math.fsum(d * float(x[i]) for d, x in zip(diag, u)) for i in (0, 1))
