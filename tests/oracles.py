"""Reference implementations that only the tests call.

Each one is a slower or more general route to a result that nmlab computes in
closed form: density matrices, Choi weights and channel algebra for collision,
explicit unitaries for the echo protocol, the full Bell-measurement protocol
for superdense coding, the dephasing channel on a density matrix, the plain
trapezoid sum for kappa, and exact decimal values of the closed forms that the
library rearranges to avoid cancellation. The tests check the library's closed
forms and its chirp-z kernel against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from nmlab.collision import _check_eps
from nmlab.nvmodel import Gate
from nmlab.qcore import PauliChannel, SingularChannelError
from nmlab.sdc import CorrelatedSpectrum, _float_if_scalar, _xlog2x, joint_kappa
from nmlab.spectra import KAPPA_MAG_TOL

# --- qubit and two-qubit states, and Pauli channels acting on them ---------

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10  # weights above -PSD_TOL count as >= 0, and |lam| up to 1 + PSD_TOL as <= 1


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


# --- the correlated two-collision model, collision by collision ------------

def joint_probabilities(eps: float) -> dict[tuple[str, str], float]:
    """Joint probabilities p[(i, j)] of applying O_i then O_j, i,j in {0,x,z}."""
    eps = float(_check_eps(eps))
    cross = (1 - 2 * eps) * eps
    return {
        ("0", "0"): (1 - 2 * eps) ** 2,
        ("0", "x"): cross,
        ("0", "z"): cross,
        ("x", "0"): cross,
        ("z", "0"): cross,
        ("x", "x"): 2 * eps**2,
        ("z", "z"): 2 * eps**2,
        ("x", "z"): 0.0,
        ("z", "x"): 0.0,
    }


def first_collision_channel(eps: float) -> PauliChannel:
    """Mix of I, x, z with weights (1-2eps, eps, eps): lam = (1-2eps, 1-4eps, 1-2eps)."""
    eps = float(_check_eps(eps))
    return PauliChannel(1 - 2 * eps, 1 - 4 * eps, 1 - 2 * eps)


def two_collision_channel(eps: float) -> PauliChannel:
    """Total map after both correlated collisions.

    The operator products collapse onto {I, x, z} (the x-then-z pairs have
    zero probability), with effective weights q_I = (1-2eps)^2 + 4 eps^2,
    q_x = q_z = 2 eps (1-2eps), q_y = 0, so lam_x = lam_z = q_I and
    lam_y = (1-4eps)^2. Both maps form their eigenvalues directly: summing
    the weights would round lam_x and lam_z apart near eps = 1/2.
    """
    eps = float(_check_eps(eps))
    a, b = 1 - 2 * eps, 1 - 4 * eps
    q_i = a * a + 4 * (eps * eps)  # products: Python's x**2 (libm pow) can differ from x*x
    return PauliChannel(q_i, b * b, q_i)


# --- echo-protocol gates as unitaries --------------------------------------

# y-rotation angle sandwiched between the two (-pi/2)_x rotations.
_GATE_Y_ANGLE = {Gate.U1: 0.0, Gate.U2: 2 * np.pi, Gate.U3: 3 * np.pi, Gate.U4: np.pi}


def rotation(axis: str, angle: float) -> np.ndarray:
    """exp(-i angle sigma_axis / 2)."""
    sigma = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[axis]
    return np.cos(angle / 2) * IDENTITY - 1j * np.sin(angle / 2) * sigma


def rdja_gate(gate: Gate | str) -> np.ndarray:
    """Phase gate (-pi/2)_x (theta)_y (-pi/2)_x as a 2x2 unitary."""
    rx = rotation("x", -np.pi / 2)  # Gate() of a Gate is that Gate
    return rx @ rotation("y", _GATE_Y_ANGLE[Gate(gate)]) @ rx


# --- superdense coding: the full Bell-measurement protocol -----------------

PAULI_4 = ("I", "X", "Y", "Z")
PAULI_3 = ("I", "X", "Z")

# Bell outcome indices in (phi+, phi-, psi+, psi-) order: the outcome each
# encoding turns Phi+ into, then its phase partner.
_BELL_OUTCOMES = {"I": (0, 1), "Z": (1, 0), "X": (2, 3), "Y": (3, 2)}


def bell_probabilities(spec: CorrelatedSpectrum, t_a, t_b, encoding: str) -> np.ndarray:
    """Bell-measurement outcome probabilities (phi+, phi-, psi+, psi-), last axis.

    Both noises are dephasing and the encoding is a Pauli, so the state
    before the measurement is Bell-diagonal: the only surviving coherence
    of Phi+ is |00><11|, damped by f = joint_kappa(t_a, t_b). The encoded
    Bell outcome (I->phi+, Z->phi-, X->psi+, Y->psi-) has probability
    (1 + f)/2 and its phase partner (1 - f)/2.
    """
    f = joint_kappa(spec, t_a, t_b)
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


# --- kappa by the plain trapezoid sum -------------------------------------

def dense_kappa(profile, delta_n, t, two_pi=False):
    """The trapezoid sum of kappa_numeric over every (t, omega) cell, a few hundred rows of
    phases at a time, on any 1-D or scalar t (returned 1-D)."""
    scale = 2 * np.pi * delta_n if two_pi else delta_n
    weights = np.gradient(profile.omega)  # np.trapezoid's node weights once the ends are halved
    weights[[0, -1]] *= 0.5
    g = profile.density * np.exp(1j * profile.phase) * weights
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.concatenate(
        [np.exp(1j * scale * np.outer(t[i:i + 256], profile.omega)) @ g
         for i in range(0, t.size, 256)]
    )


# --- pure dephasing by a fixed kappa ---------------------------------------

@dataclass(frozen=True)
class DephasingChannel:
    """Qubit map multiplying the coherence by a fixed complex kappa."""

    kappa: complex

    def __post_init__(self):
        if abs(self.kappa) > 1 + KAPPA_MAG_TOL:
            raise ValueError(f"|kappa| = {abs(self.kappa)} exceeds 1: unphysical")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"dephasing channel needs a 2x2 state, got {rho.shape}")
        out = rho.copy()
        out[0, 1] *= np.conj(self.kappa)
        out[1, 0] *= self.kappa
        return out

    def as_pauli(self) -> PauliChannel:
        """Equivalent Pauli channel; only defined for real kappa."""
        if abs(np.imag(self.kappa)) > 1e-14:
            raise ValueError("only real kappa maps to a Pauli-diagonal channel")
        k = float(np.real(self.kappa))
        return PauliChannel(k, k, 1.0)


# --- exact values of the rearranged closed forms ---------------------------
# Each takes the float inputs as the exact binary numbers they are, forms the textbook
# expression (the one that cancels in floating point) in Fraction or in Decimal at DIGITS
# significant digits, and returns a Decimal. No dependency beyond the standard library.

DIGITS = 80


def _decimal(q: Fraction) -> Decimal:
    """q rounded to the current decimal context."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def _arctan_inverse(n: int) -> Decimal:
    """arctan(1/n) by its alternating series, to the current context."""
    x2, term, total, last, k = Decimal(1) / (n * n), Decimal(1) / n, Decimal(0), None, 1
    while total != last:
        last, total = total, total + (term / k if k % 4 == 1 else -term / k)
        term, k = term * x2, k + 2
    return total


def _pi() -> Decimal:
    """Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    return 16 * _arctan_inverse(5) - 4 * _arctan_inverse(239)


def _cos(x: Decimal) -> Decimal:
    """cos x by its Taylor series after reduction to [-pi, pi]."""
    two_pi = 2 * _pi()
    x -= two_pi * (x / two_pi).to_integral_value()
    x2, term, total, last, k = x * x, Decimal(1), Decimal(0), None, 0
    while total != last:
        last, total = total, total + term
        term, k = -term * x2 / ((k + 1) * (k + 2)), k + 2
    return total


def exact_joint_kappa(spec: CorrelatedSpectrum, t_a: float, t_b: float) -> Decimal:
    """sdc.joint_kappa as exp(-(dn sigma)^2 (t_a^2 + t_b^2 + 2 K t_a t_b) / 2), the exponent
    exact in Fraction and exp at DIGITS digits."""
    t_a, t_b = Fraction(t_a), Fraction(t_b)
    quad = t_a * t_a + t_b * t_b + 2 * Fraction(spec.correlation) * t_a * t_b
    u = (Fraction(spec.delta_n) * Fraction(spec.sigma)) ** 2 * quad / 2
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return (-_decimal(u)).exp()


def exact_double_gaussian_mag(spec, t: float) -> Decimal:
    """spectra.kappa_double_gaussian_mag as exp(-sigma^2 (dn t)^2 / 2) / (1 + A)
    * sqrt(1 + A^2 + 2 A cos(dw dn t)), every product of inputs exact and the rest at DIGITS
    digits (the radicand's cancellation near A = 1 and dw dn t = pi costs fewer than 40)."""
    a, t = Fraction(spec.a_theta), Fraction(t)
    u = (Fraction(spec.sigma) * Fraction(spec.delta_n) * t) ** 2 / 2
    x = Fraction(spec.delta_omega) * Fraction(spec.delta_n) * t
    with localcontext() as ctx:
        ctx.prec = DIGITS
        radicand = _decimal(1 + a * a) + 2 * _decimal(a) * _cos(_decimal(x))
        return (-_decimal(u)).exp() * radicand.sqrt() / _decimal(1 + a)


def exact_c2_minus_c1(eps: float) -> Decimal:
    """fig2's C2 - C1 = (1 - 4 eps)^2 - max(0, 1 - 4 eps), in Fraction."""
    b = 1 - 4 * Fraction(eps)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return _decimal(b * b - max(Fraction(0), b))


def ulps(x: float, exact: Decimal) -> float:
    """|x - exact| in units of the last place of exact rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(abs(Decimal(x) - exact) / Decimal(math.ulp(float(exact))))
