"""Superdense coding through correlated dephasing on the two photons.

Alice's photon dephases before her Pauli encoding, Bob's photon after, and
the two local noises share a bivariate Gaussian frequency distribution with
correlation coefficient K. Anti-correlated frequencies (K = -1, equal noise
times) recohere the doubly-off-diagonal Bell coherences, keeping the
protocol at two bits even when the shared entanglement at encoding time is
tiny. Every function broadcasts over its times (t, t_a, t_b) and c_a, with
extra axes last; scalar inputs give a Python float.
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


def _float_if_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def joint_kappa(spec: CorrelatedSpectrum, t_a, t_b):
    """Magnitude of the joint two-photon characteristic function."""
    t_a, t_b = np.asarray(t_a, dtype=float), np.asarray(t_b, dtype=float)
    if np.any(t_a < 0) or np.any(t_b < 0):
        raise ValueError("times must be >= 0")
    quad = np.square(t_a) + np.square(t_b) + 2 * spec.correlation * t_a * t_b
    return _float_if_scalar(np.exp(-0.5 * np.square(spec.delta_n) * np.square(spec.sigma) * quad))


def marginal_kappa(spec: CorrelatedSpectrum, t):
    """Single-photon decoherence magnitude exp(-dn^2 sigma^2 t^2 / 2)."""
    return joint_kappa(spec, t, 0.0)


def _xlog2x(p):
    """p log2 p, 0 at p = 0."""
    return p * np.log2(np.where(p > 0, p, 1.0))


def binary_entropy(x):
    """H(x) in bits, with H(0) = H(1) = 0."""
    x = np.asarray(x, dtype=float)
    if not np.all((0 <= x) & (x <= 1)):
        raise ValueError("x must be in [0, 1]")
    # + 0.0 turns the -0.0 of H(0) and H(1) into 0.0.
    return _float_if_scalar(-(_xlog2x(x) + _xlog2x(1 - x)) + 0.0)


def capacity(c_a, correlation: float):
    """Dense coding capacity 2 - H((1 + c_a^{2(1+K)}) / 2).

    c_a is the concurrence at encoding time; the limit convention
    c_a^0 = 1 applies at (c_a = 0, K = -1). For K near -1, c_a = exp(-(dn sigma t)^2/2)
    underflows to 0 (capacity 1) before c_a^{2(1+K)} does; capacity_at avoids that.
    """
    c_a = np.asarray(c_a, dtype=float)
    if not np.all((0 <= c_a) & (c_a <= 1)):
        raise ValueError("c_a must be in [0, 1]")
    if not -1 <= correlation <= 1:
        raise ValueError("correlation must be in [-1, 1]")
    return 2 - binary_entropy((1 + c_a ** (2 * (1 + correlation))) / 2)


def _bell_entropy(f):
    """H((1 + min(1, f))/2) in bits, unvalidated (a nan f gives nan); f can exceed 1 by an ulp."""
    p = (1 + np.minimum(1.0, f)) / 2
    return -(_xlog2x(p) + _xlog2x(1 - p))


def capacity_at(spec: CorrelatedSpectrum, t):
    """capacity(c_a(t), K) with c_a^{2(1+K)} = joint_kappa(t, t): exact where c_a underflows."""
    return _float_if_scalar(2 - _bell_entropy(joint_kappa(spec, t, t)))


def bell_probabilities(spec: CorrelatedSpectrum, t_a, t_b, encoding: str) -> np.ndarray:
    """Bell-measurement outcome probabilities (phi+, phi-, psi+, psi-), last axis.

    Both noises are dephasing and the encoding is a Pauli, so the state
    before the measurement is Bell-diagonal: the only surviving coherence
    of Phi+ is |00><11|, damped by f = joint_kappa(t_a, t_b). The encoded
    Bell outcome (I->phi+, Z->phi-, X->psi+, Y->psi-) has probability
    (1 + f)/2 and its phase partner (1 - f)/2.
    """
    # f can exceed 1 by an ulp where t_a ~ t_b and K ~ -1.
    f = np.minimum(1.0, joint_kappa(spec, t_a, t_b))
    hit, partner = _BELL_OUTCOMES[encoding]
    probs = np.zeros(np.shape(f) + (4,))
    probs[..., hit] = (1 + f) / 2
    probs[..., partner] = (1 - f) / 2
    return probs


def mutual_information(cond_probs):
    """I(X:Y) = H(Y) - H(Y|X) in bits for uniform inputs.

    The last two axes are p(outcome | encoding), one row per encoding.
    """
    cond = np.asarray(cond_probs, dtype=float)
    h_y = -np.sum(_xlog2x(cond.mean(axis=-2)), axis=-1)
    return _float_if_scalar(h_y + np.sum(_xlog2x(cond), axis=(-2, -1)) / cond.shape[-2])


def simulate_protocol(spec: CorrelatedSpectrum, t_a, t_b, n_states: int = 4):
    """Mutual information of the full encode/noise/Bell-measure protocol."""
    encodings = {4: PAULI_4, 3: PAULI_3}.get(n_states)
    if encodings is None:
        raise ValueError("n_states must be 3 or 4")
    return mutual_information(
        np.stack([bell_probabilities(spec, t_a, t_b, e) for e in encodings], axis=-2))


def fig4_columns(spec: CorrelatedSpectrum, t):
    """fig4's (c_a, mi_4state, mi_3state, mi_4state_alice_only) at t_b = t_a = t.

    c_a is the concurrence shared after Alice-side dephasing of Phi+: dephasing by a real
    kappa is the Pauli channel (kappa, kappa, 1), whose concurrence on one half of Phi+
    (qcore.bell_concurrence) is exactly kappa, so c_a = marginal_kappa(t).
    The encoded states are Bell-diagonal (bell_probabilities): each encoding gives its Bell
    outcome with p = (1 + f)/2 and its partner with 1 - p, so H(Y|X) = H(p), and H(Y) is 2
    for four encodings, log2(3) + H(p)/3 for I, X, Z; f is joint_kappa(t, t), or c_a for
    Alice's photon alone. mi_4state is capacity_at bit for bit; a nan f gives nan columns.
    """
    c_a = marginal_kappa(spec, t)
    mi_alice = 2 - _bell_entropy(c_a)  # before h: one array fewer at the peak
    h = _bell_entropy(joint_kappa(spec, t, t))
    return tuple(map(_float_if_scalar, (c_a, 2 - h, np.log2(3) - 2 / 3 * h, mi_alice)))

