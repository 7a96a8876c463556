"""Superdense coding through correlated dephasing on the two photons.

Alice's photon dephases before her Pauli encoding, Bob's photon after, and
the two local noises share a bivariate Gaussian frequency distribution with
correlation coefficient K. Anti-correlated frequencies (K = -1, equal noise
times) recohere the doubly-off-diagonal Bell coherences, keeping the
protocol at two bits even when the shared entanglement at encoding time is
tiny.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_4 = ("I", "X", "Y", "Z")
PAULI_3 = ("I", "X", "Z")

# Bell outcome indices in (phi+, phi-, psi+, psi-) order: the outcome each
# encoding turns Phi+ into, then its phase partner.
_BELL_OUTCOMES = {"I": (0, 1), "Z": (1, 0), "X": (2, 3), "Y": (3, 2)}


@dataclass(frozen=True)
class CorrelatedSpectrum:
    """Bivariate Gaussian frequency spectrum: equal marginal widths sigma,
    correlation coefficient in [-1, 1], birefringence contrast delta_n."""

    sigma: float
    correlation: float
    delta_n: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        if not -1 <= self.correlation <= 1:
            raise ValueError("correlation must be in [-1, 1]")


def marginal_kappa(spec: CorrelatedSpectrum, t: float) -> float:
    """Single-photon decoherence magnitude exp(-dn^2 sigma^2 t^2 / 2)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return float(np.exp(-0.5 * spec.delta_n**2 * spec.sigma**2 * t**2))


def joint_kappa(spec: CorrelatedSpectrum, t_a: float, t_b: float) -> float:
    """Magnitude of the joint two-photon characteristic function."""
    if t_a < 0 or t_b < 0:
        raise ValueError("times must be >= 0")
    quad = t_a**2 + t_b**2 + 2 * spec.correlation * t_a * t_b
    return float(np.exp(-0.5 * spec.delta_n**2 * spec.sigma**2 * quad))


def binary_entropy(x: float) -> float:
    """H(x) in bits, with H(0) = H(1) = 0."""
    if not 0 <= x <= 1:
        raise ValueError("x must be in [0, 1]")
    if x == 0 or x == 1:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def capacity(c_a: float, correlation: float) -> float:
    """Dense coding capacity 2 - H((1 + c_a^{2(1+K)}) / 2).

    c_a is the concurrence at encoding time; the limit convention
    c_a^0 = 1 applies at (c_a = 0, K = -1).
    """
    if not 0 <= c_a <= 1:
        raise ValueError("c_a must be in [0, 1]")
    if not -1 <= correlation <= 1:
        raise ValueError("correlation must be in [-1, 1]")
    exponent = 2 * (1 + correlation)
    power = 1.0 if exponent == 0 else c_a**exponent
    return 2 - binary_entropy((1 + power) / 2)


def concurrence_at_encoding(spec: CorrelatedSpectrum, t_a: float) -> float:
    """Shared concurrence after Alice-side dephasing of a Bell pair.

    Dephasing by a real kappa is the Pauli channel (kappa, kappa, 1), whose
    concurrence on one half of Phi+ (qcore.bell_concurrence) is exactly kappa.
    """
    return marginal_kappa(spec, t_a)


def bell_probabilities(
    spec: CorrelatedSpectrum, t_a: float, t_b: float, encoding: str
) -> np.ndarray:
    """Bell-measurement outcome probabilities (phi+, phi-, psi+, psi-).

    Both noises are dephasing and the encoding is a Pauli, so the state
    before the measurement is Bell-diagonal: the only surviving coherence
    of Phi+ is |00><11|, damped by f = joint_kappa(t_a, t_b). The encoded
    Bell outcome (I->phi+, Z->phi-, X->psi+, Y->psi-) has probability
    (1 + f)/2 and its phase partner (1 - f)/2.
    """
    # f can exceed 1 by an ulp where t_a ~ t_b and K ~ -1.
    f = min(1.0, joint_kappa(spec, t_a, t_b))
    hit, partner = _BELL_OUTCOMES[encoding]
    probs = np.zeros(4)
    probs[hit] = (1 + f) / 2
    probs[partner] = (1 - f) / 2
    return probs


def mutual_information(cond_probs: np.ndarray) -> float:
    """I(X:Y) in bits for uniform inputs; rows are p(outcome | encoding)."""
    cond_probs = np.asarray(cond_probs, dtype=float)
    n = cond_probs.shape[0]
    joint = cond_probs / n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mask = joint > 0
    return float(np.sum(joint[mask] * np.log2(joint[mask] / np.outer(px, py)[mask])))


def simulate_protocol(
    spec: CorrelatedSpectrum, t_a: float, t_b: float, n_states: int = 4
) -> float:
    """Mutual information of the full encode/noise/Bell-measure protocol."""
    encodings = {4: PAULI_4, 3: PAULI_3}.get(n_states)
    if encodings is None:
        raise ValueError("n_states must be 3 or 4")
    table = np.array([bell_probabilities(spec, t_a, t_b, e) for e in encodings])
    return mutual_information(table)


def fig4_curve(
    spec: CorrelatedSpectrum, n_states: int, t_grid
) -> list[tuple[float, float]]:
    """Sweep of (concurrence at encoding, mutual information) with t_b = t_a."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    return [
        (concurrence_at_encoding(spec, t), simulate_protocol(spec, t, t, n_states))
        for t in t_grid
    ]
