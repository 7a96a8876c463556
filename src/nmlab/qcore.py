"""Exact small-dimension quantum primitives.

States are plain complex numpy arrays (2x2 single-qubit, 4x4 two-qubit
density matrices). Channels are Pauli-diagonal unital qubit maps stored by
their Bloch eigenvalue triple; non-CP triples are representable on purpose,
the CP/P predicates decide validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10  # eigenvalues above -PSD_TOL count as >= 0: density matrices, is_cp, is_positive


class SingularChannelError(ValueError):
    """Raised when an intermediate map is undefined (division by a zero eigenvalue)."""


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array as complex."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"rho must be 2x2 or 4x4, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("rho is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError("rho does not have unit trace")
    if np.min(np.linalg.eigvalsh(rho)) < -PSD_TOL:
        raise ValueError("rho is not positive semidefinite")
    return rho


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch components (rx, ry, rz) of a 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(rho @ sigma).real for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def density_from_bloch(r) -> np.ndarray:
    """2x2 density matrix with the given Bloch vector (|r| <= 1)."""
    rx, ry, rz = r
    norm = np.sqrt(rx * rx + ry * ry + rz * rz)
    if norm > 1 + PSD_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return 0.5 * (IDENTITY + rx * SIGMA_X + ry * SIGMA_Y + rz * SIGMA_Z)


def pure_state(psi: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| of a normalized state vector."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def bell_state(which: str = "phi_plus") -> np.ndarray:
    """4x4 density matrix of one of the four Bell states."""
    s = 1 / np.sqrt(2)
    vectors = {
        "phi_plus": np.array([s, 0, 0, s]),
        "phi_minus": np.array([s, 0, 0, -s]),
        "psi_plus": np.array([0, s, s, 0]),
        "psi_minus": np.array([0, s, -s, 0]),
    }
    if which not in vectors:
        raise ValueError(f"unknown Bell state {which!r}")
    return pure_state(vectors[which])


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Trace distance D(rho1, rho2) = (1/2) sum |eig(rho1 - rho2)|."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    eigs = np.linalg.eigvalsh(rho1 - rho2)
    return 0.5 * float(np.sum(np.abs(eigs)))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 state, got shape {rho.shape}")
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    # The mu_i (square roots of the eigenvalues of rho * yy rho^* yy) are the
    # singular values of S^T yy S with S = sqrt(rho); the SVD form avoids the
    # precision loss of square-rooting near-zero eigenvalues.
    evals, vecs = np.linalg.eigh(rho)
    sqrt_rho = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    mu = np.linalg.svd(sqrt_rho.T @ yy @ sqrt_rho, compute_uv=False)
    return max(0.0, float(mu[0] - mu[1] - mu[2] - mu[3]))


@dataclass(frozen=True)
class PauliChannel:
    """Pauli-diagonal unital qubit map, stored by its Bloch eigenvalues.

    The map scales Bloch components as r_i -> lam_i * r_i. Triples with
    |lam_i| > 1 or negative Choi weights are representable; use is_cp /
    is_positive to test physicality.
    """

    lam_x: float
    lam_y: float
    lam_z: float

    @staticmethod
    def identity() -> "PauliChannel":
        return PauliChannel(1.0, 1.0, 1.0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lam_x, self.lam_y, self.lam_z)


class KrausWeights(NamedTuple):
    """Choi eigenvalue quadruple (q_I, q_x, q_y, q_z) of a Pauli-diagonal map."""

    q_i: float
    q_x: float
    q_y: float
    q_z: float


def kraus_weights(ch: PauliChannel) -> KrausWeights:
    """Choi eigenvalues of a Pauli channel; negative entries witness CP violation."""
    lx, ly, lz = ch.as_tuple()
    return KrausWeights((1 + lx + ly + lz) / 4, (1 + lx - ly - lz) / 4,
                        (1 - lx + ly - lz) / 4, (1 - lx - ly + lz) / 4)


def channel_from_weights(w: KrausWeights) -> PauliChannel:
    """Inverse of kraus_weights."""
    qi, qx, qy, qz = w
    return PauliChannel(qi + qx - qy - qz, qi - qx + qy - qz, qi - qx - qy + qz)


def apply_channel(ch: PauliChannel, rho: np.ndarray) -> np.ndarray:
    """Apply a Pauli channel to a 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"apply_channel needs a 2x2 state, got shape {rho.shape}")
    return sum(w * (op @ rho @ op) for w, op in zip(kraus_weights(ch), PAULIS))


def apply_channel_one_sided(ch: PauliChannel, rho: np.ndarray) -> np.ndarray:
    """Apply (channel x identity) to a 4x4 two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"one-sided application needs a 4x4 state, got shape {rho.shape}")
    return sum(w * (np.kron(op, IDENTITY) @ rho @ np.kron(op, IDENTITY))
               for w, op in zip(kraus_weights(ch), PAULIS))


def bell_concurrence(ch: PauliChannel) -> float:
    """Concurrence of (ch x identity)(|Phi+><Phi+|) for a CP Pauli channel.

    The output is Bell-diagonal with the Kraus weights as its Bell-state
    weights (q_I on Phi+, q_x on Psi+, q_y on Psi-, q_z on Phi-), and the
    Wootters concurrence of a Bell-diagonal state is max(0, 2 q_max - 1).
    In Bloch eigenvalues, 2 q_I - 1 and 2 q_z - 1 are (lz - 1 +- (lx + ly))/2
    and 2 q_x - 1, 2 q_y - 1 are (-lz - 1 +- (lx - ly))/2; grouping lz - 1
    keeps the relative precision of a small concurrence (for dephasing by
    kappa, C = kappa exactly).
    """
    lx, ly, lz = ch.as_tuple()
    return max(0.0, float(abs(lx + ly) + (lz - 1)) / 2, float(abs(lx - ly) - (lz + 1)) / 2)


def is_cp(ch: PauliChannel) -> bool:
    """Complete positivity: all four Choi eigenvalues >= -PSD_TOL."""
    return all(q >= -PSD_TOL for q in kraus_weights(ch))


def is_positive(ch: PauliChannel) -> bool:
    """Positivity of a Pauli-diagonal map.

    Exact criterion for unital qubit maps: a pure state with Bloch vector r
    goes to lam * r (componentwise), whose smallest eigenvalue
    (1 - |lam * r|)/2 is negative for some unit r iff max |lam_i| > 1, so
    the map is positive iff max |lam_i| <= 1 + PSD_TOL.
    """
    return max(abs(l) for l in ch.as_tuple()) <= 1 + PSD_TOL


def compose_channels(later: PauliChannel, earlier: PauliChannel) -> PauliChannel:
    """Concatenation later∘earlier (componentwise eigenvalue product)."""
    return PauliChannel(*(a * b for a, b in zip(later.as_tuple(), earlier.as_tuple())))


def divide_channels(later: PauliChannel, earlier: PauliChannel) -> PauliChannel:
    """Intermediate map M with M∘earlier = later (componentwise quotient).

    Raises SingularChannelError when any eigenvalue of `earlier` is within
    1e-12 of zero, in which case the intermediate map is undefined.
    """
    for l in earlier.as_tuple():
        if abs(l) <= 1e-12:
            raise SingularChannelError(f"earlier channel eigenvalue {l} is singular (tol 1e-12)")
    return PauliChannel(*(a / b for a, b in zip(later.as_tuple(), earlier.as_tuple())))
