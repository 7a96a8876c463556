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


def _check_eps(eps) -> np.ndarray:
    eps = np.asarray(eps, dtype=float)
    if not np.all((0 <= eps) & (eps <= 0.5)):
        raise ValueError(f"eps must be in [0, 0.5], got {eps}")
    return eps


class Classification(enum.Enum):
    MARKOVIAN = "markovian"
    WEAK_NM = "weak"
    STRONG_NM = "strong"
    SINGULAR = "singular"


@dataclass(frozen=True)
class DivisibilityVerdict:
    """CP/P divisibility verdict for the intermediate map at eps (arrays for an eps array)."""

    classification: Classification
    min_choi_eigenvalue: float
    max_abs_bloch_eigenvalue: float


def _edges(eps):
    """Edge table: (mask, (Classification index, min Choi, max|lam|)) at eps = 1/4 and 1/2."""
    return ((abs(eps - SINGULAR_EPS) <= SINGULAR_EPS_TOL, (3, np.nan, np.nan)),
            (abs(eps - 0.5) <= SINGULAR_EPS_TOL, (2, -np.inf, np.inf)))


def _lam_xz(eps):
    """x/z eigenvalue of the intermediate map, squaring as products (x**2 is libm pow)."""
    a = 1 - 2 * eps
    return (a * a + 4 * (eps * eps)) / a


def _intermediate(eps) -> PauliChannel:
    """The intermediate map: the two-collision map's Bloch eigenvalues
    ((1-2eps)^2 + 4eps^2, (1-4eps)^2, same) over the first collision's (1-2eps, 1-4eps, same),
    so lam_x = lam_z = ((1-2eps)^2 + 4eps^2)/(1-2eps) and lam_y = (1-4eps)^2/(1-4eps)."""
    lam_xz, b = _lam_xz(eps), 1 - 4 * eps
    return PauliChannel(lam_xz, b * b / b, lam_xz)


def intermediate_channel(eps: float) -> PauliChannel:
    """Map between the first and second collision; SingularChannelError on classify's edges."""
    eps = float(_check_eps(eps))
    if any(at for at, _ in _edges(eps)):
        raise SingularChannelError(f"no intermediate map at eps = {eps} (first collision singular)")
    return _intermediate(eps)


def classify(eps) -> DivisibilityVerdict:
    """Weak/strong non-Markovianity verdict for the intermediate map; broadcasts over eps.

    The map (_intermediate) has Choi weights (1 +- lam_x +- lam_y +- lam_z)/4. It is
    strong (not P-divisible) if max|lam| > 1 + tol, else weak (P- but not CP-divisible)
    if a weight is < -tol, else Markovian (eps = 0 too, with (min Choi, max|lam|) =
    (0.0, 1.0)); tol is qcore.PSD_TOL = 1e-10. The edge table (_edges) overrides
    |eps - 1/4| <= 1e-9 as singular with (nan, nan) and |eps - 1/2| <= 1e-9 as strong
    with (-inf, inf): the first collision is noninvertible there and the second undoes it.
    Scalar eps gives the enum and floats, an eps array arrays of enum values.
    """
    eps, tol = _check_eps(eps), qcore.PSD_TOL
    x = np.atleast_1d(eps)  # the edges below are set in place
    with np.errstate(all="ignore"):
        mid = _intermediate(x)
        min_choi = np.minimum.reduce(qcore.kraus_weights(mid))
        max_bloch = np.maximum(np.abs(mid.lam_x), np.abs(mid.lam_y))
    code = np.where(max_bloch > 1 + tol, 2, min_choi < -tol)  # index into Classification
    for at, edge in _edges(x):
        code[at], min_choi[at], max_bloch[at] = edge
    label = np.array([c.value for c in Classification])[code]
    if eps.ndim == 0:
        return DivisibilityVerdict(Classification(label.item()), min_choi.item(), max_bloch.item())
    return DivisibilityVerdict(label, min_choi, max_bloch)


def find_transition() -> float:
    """Locate the weak -> strong transition to 1e-10 by bisection on where _lam_xz, the
    intermediate map's x/z eigenvalue extended through the singular point, crosses 1."""
    lo, hi = 0.05, 0.45  # _lam_xz is 0.91 and 8.2 there
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _lam_xz(mid) > 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def entanglement_dynamics(eps):
    """Concurrence with an ancilla after collision one and two; broadcasts over eps.

    One half of a maximally entangled pair goes through the collisions.
    Both maps are Pauli-diagonal, so the evolved states are Bell-diagonal
    with C = max(0, 2 q_max - 1) over each channel's Kraus weights:
    C(1) = max(0, 1-4eps) and C(2) = (1-4eps)^2. Scalar eps gives floats.
    """
    b = 1 - 4 * _check_eps(eps)
    c1, c2 = np.maximum(0.0, b), b * b
    return (float(c1), float(c2)) if np.ndim(b) == 0 else (c1, c2)
