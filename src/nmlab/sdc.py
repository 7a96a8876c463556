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
    """Joint two-photon coherence exp(-(dn sigma)^2 q/2), q = (t_a - t_b)^2 + 2(1 + K) t_a t_b:
    no term cancels (1 + K is exact for K <= -1/2), so it is <= 1; q = 0 at K = -1, t_a = t_b."""
    t_a, t_b = np.asarray(t_a, dtype=float), np.asarray(t_b, dtype=float)
    if np.any(t_a < 0) or np.any(t_b < 0):
        raise ValueError("times must be >= 0")
    quad = np.square(t_a - t_b) + 2 * (1 + spec.correlation) * t_a * t_b
    return _float_if_scalar(np.exp(-0.5 * np.square(spec.delta_n) * np.square(spec.sigma) * quad))


def marginal_kappa(spec: CorrelatedSpectrum, t):
    """Single-photon decoherence magnitude exp(-dn^2 sigma^2 t^2 / 2)."""
    return joint_kappa(spec, t, 0.0)


def _xlog2x(p):
    """p log2 p, 0 at p = 0."""
    return p * np.log2(np.where(p > 0, p, 1.0))


def _bell_entropy(f):
    """H((1 + f)/2) in bits for a Bell coherence f <= 1, unvalidated (a nan f gives nan)."""
    p = (1 + f) / 2
    return -(_xlog2x(p) + _xlog2x(1 - p))


def capacity(c_a, correlation: float):
    """Dense coding capacity 2 - H((1 + c_a^{2(1+K)}) / 2), with H the binary entropy.

    c_a is the concurrence at encoding time; the limit convention
    c_a^0 = 1 applies at (c_a = 0, K = -1). For K near -1, c_a = exp(-(dn sigma t)^2/2)
    underflows to 0 (capacity 1) before c_a^{2(1+K)} does; fig4_columns forms the
    capacity at t from joint_kappa(t, t) = c_a^{2(1+K)} and avoids that.
    """
    c_a = np.asarray(c_a, dtype=float)
    if not np.all((0 <= c_a) & (c_a <= 1)):
        raise ValueError("c_a must be in [0, 1]")
    if not -1 <= correlation <= 1:
        raise ValueError("correlation must be in [-1, 1]")
    return _float_if_scalar(2 - _bell_entropy(c_a ** (2 * (1 + correlation))))


def fig4_columns(spec: CorrelatedSpectrum, t):
    """fig4's (c_a, mi_4state, mi_3state, mi_4state_alice_only) at t_b = t_a = t.

    c_a is the concurrence shared after Alice-side dephasing of Phi+: dephasing by a real
    kappa is the Pauli channel (kappa, kappa, 1), whose concurrence on one half of Phi+
    (max(0, 2 q_max - 1) over its Kraus weights) is exactly kappa, so c_a = marginal_kappa(t).
    The encoded states are Bell-diagonal: each encoding gives its Bell outcome with
    p = (1 + f)/2 and its partner with 1 - p, so H(Y|X) = H(p), and H(Y) is 2 for four
    encodings, log2(3) + H(p)/3 for I, X, Z; f is joint_kappa(t, t), or c_a for Alice's
    photon alone. mi_4state is the capacity at t, exact where c_a underflows; a nan f gives
    nan columns.
    """
    c_a = marginal_kappa(spec, t)
    mi_alice = 2 - _bell_entropy(c_a)  # before h: one array fewer at the peak
    h = _bell_entropy(joint_kappa(spec, t, t))
    return tuple(map(_float_if_scalar, (c_a, 2 - h, np.log2(3) - 2 / 3 * h, mi_alice)))
