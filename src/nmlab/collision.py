"""Two-collision correlated Pauli-noise model with control parameter eps.

Each collision applies I, sigma_x, or sigma_z probabilistically. The joint
probabilities of the two collisions are correlated so that the intermediate
map between collisions is never CP for eps > 0; beyond eps = 1/4 it also
breaks plain positivity (the weak -> strong non-Markovianity transition),
which coincides with the revival of entanglement with an ancilla qubit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import PauliChannel, SingularChannelError

SINGULAR_EPS = 0.25
SINGULAR_EPS_TOL = 1e-9


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0 <= eps <= 0.5:
        raise ValueError(f"eps must be in [0, 0.5], got {eps}")
    return eps


class Classification(enum.Enum):
    MARKOVIAN = "markovian"
    WEAK_NM = "weak"
    STRONG_NM = "strong"
    SINGULAR = "singular"


@dataclass(frozen=True)
class DivisibilityVerdict:
    """CP/P divisibility verdict for the intermediate map at a given eps."""

    classification: Classification
    min_choi_eigenvalue: float
    max_abs_bloch_eigenvalue: float


def joint_probabilities(eps: float) -> dict[tuple[str, str], float]:
    """Joint probabilities p[(i, j)] of applying O_i then O_j, i,j in {0,x,z}."""
    eps = _check_eps(eps)
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
    eps = _check_eps(eps)
    return PauliChannel(1 - 2 * eps, 1 - 4 * eps, 1 - 2 * eps)


def two_collision_channel(eps: float) -> PauliChannel:
    """Total map after both correlated collisions.

    The operator products collapse onto {I, x, z} (the x-then-z pairs have
    zero probability), with effective weights q_I = (1-2eps)^2 + 4 eps^2,
    q_x = q_z = 2 eps (1-2eps), q_y = 0, so lam_x = lam_z = q_I and
    lam_y = (1-4eps)^2. Both maps form their eigenvalues directly: summing
    the weights would round lam_x and lam_z apart near eps = 1/2.
    """
    eps = _check_eps(eps)
    q_i = (1 - 2 * eps) ** 2 + 4 * eps**2
    return PauliChannel(q_i, (1 - 4 * eps) ** 2, q_i)


def intermediate_channel(eps: float) -> PauliChannel:
    """Map between the first and second collision (divisibility quotient)."""
    eps = _check_eps(eps)
    if abs(eps - SINGULAR_EPS) <= SINGULAR_EPS_TOL:
        raise SingularChannelError(
            "intermediate map undefined at eps = 0.25 (first collision is singular)"
        )
    return qcore.divide_channels(two_collision_channel(eps), first_collision_channel(eps))


def classify(eps: float) -> DivisibilityVerdict:
    """Weak/strong non-Markovianity verdict for the intermediate map."""
    eps = _check_eps(eps)
    if eps == 0:
        return DivisibilityVerdict(Classification.MARKOVIAN, 0.0, 1.0)
    if abs(eps - SINGULAR_EPS) <= SINGULAR_EPS_TOL:
        return DivisibilityVerdict(Classification.SINGULAR, float("nan"), float("nan"))
    if abs(eps - 0.5) <= SINGULAR_EPS_TOL:
        # First collision is also noninvertible at eps = 0.5 (lam_x = lam_z = 0);
        # the x/z quotient diverges, so the dynamics is strongly non-Markovian
        # by continuity (perfect revival: the second collision undoes the first).
        return DivisibilityVerdict(Classification.STRONG_NM, float("-inf"), float("inf"))
    mid = intermediate_channel(eps)
    min_choi = min(qcore.kraus_weights(mid))
    max_bloch = max(abs(l) for l in mid.as_tuple())
    if not qcore.is_positive(mid):
        cls = Classification.STRONG_NM
    elif not qcore.is_cp(mid):
        cls = Classification.WEAK_NM
    else:
        cls = Classification.MARKOVIAN
    return DivisibilityVerdict(cls, float(min_choi), float(max_bloch))


def find_transition(tol: float = 1e-10) -> float:
    """Locate the weak -> strong transition by bisection on the P-breaking margin.

    The x/z Bloch eigenvalue of the intermediate map, extended by continuity
    through the singular point, is ((1-2e)^2 + 4e^2)/(1-2e); it crosses 1 at
    the transition.
    """

    def margin(eps: float) -> float:
        return ((1 - 2 * eps) ** 2 + 4 * eps**2) / (1 - 2 * eps) - 1

    lo, hi = 0.05, 0.45
    if margin(lo) >= 0 or margin(hi) <= 0:
        raise RuntimeError("bisection bracket does not straddle the transition")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def entanglement_dynamics(eps):
    """Concurrence with an ancilla after collision one and two; broadcasts over eps.

    One half of a maximally entangled pair goes through the collisions.
    Both maps are Pauli-diagonal, so the evolved states are Bell-diagonal
    with C = max(0, 2 q_max - 1) (qcore.bell_concurrence of each channel):
    C(1) = max(0, 1-4eps) and C(2) = (1-4eps)^2. Scalar eps gives floats.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all((0 <= eps) & (eps <= 0.5)):
        raise ValueError(f"eps must be in [0, 0.5], got {eps}")
    c1, c2 = np.maximum(0.0, 1 - 4 * eps), (1 - 4 * eps) ** 2
    return (float(c1), float(c2)) if eps.ndim == 0 else (c1, c2)
