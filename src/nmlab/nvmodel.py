"""Electron-spin dephasing controlled by a prepared nuclear spin.

The nuclear spin is polarized and rotated by an angle phi, leaving
populations (cos^2(phi/2), sin^2(phi/2)) that imprint opposite hyperfine
phases +-A t/2 on the electron coherence. The rest of the bath is
coarse-grained into a deterministic envelope. On top of the free dephasing
sits the single-qubit constant-vs-balanced phase-gate discrimination
protocol with an echo pulse and delayed readout. The Bloch length, its BLP
revival and the echo readout are closed forms over arrays of phi or tau.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .spectra import blp_from_magnitudes


@dataclass(frozen=True)
class NVParams:
    """Hyperfine coupling and residual-environment envelope."""

    coupling: float
    envelope_time: float
    envelope_shape: str = "gaussian"

    def __post_init__(self):
        if self.coupling <= 0:
            raise ValueError("coupling must be > 0")
        if self.envelope_time <= 0:
            raise ValueError("envelope_time must be > 0")
        if self.envelope_shape not in ("gaussian", "exponential"):
            raise ValueError("envelope_shape must be 'gaussian' or 'exponential'")


def default_params() -> NVParams:
    # Illustrative scale: ~10 envelope times per hyperfine period.
    coupling = 2 * np.pi * 2.16
    return NVParams(coupling=coupling, envelope_time=10 * (2 * np.pi / coupling))


def envelope(params: NVParams, t):
    t = np.asarray(t, dtype=float)
    if params.envelope_shape == "gaussian":
        out = np.exp(-np.square(t / params.envelope_time))
    else:
        out = np.exp(-t / params.envelope_time)
    return float(out) if out.ndim == 0 else out


def nv_kappa(params: NVParams, phi: float, t):
    """Electron decoherence function for nuclear preparation angle phi.

    Two nuclear branches with populations cos^2(phi/2), sin^2(phi/2) contribute
    counter-rotating phasors e^{+-iAt/2} under the envelope: rdja_kappa_eff at tau = 0.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    out = rdja_kappa_eff(params, phi, t, 0.0)
    return complex(out) if out.ndim == 0 else out


# Cells (phi rows x t points) per block of nm_measure_phi: bounds its memory.
_PHI_BLOCK_CELLS = 1 << 16


def _bloch_rows(params: NVParams, t):
    """phi -> bloch_magnitude(params, phi, t): env(t), cos^2 and sin^2(At/2) are taken once."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    half = params.coupling * t / 2
    env, cos2, sin2 = envelope(params, t), np.square(np.cos(half)), np.square(np.sin(half))

    def rows(phi, out=None):  # in place, into out if given: temporaries cost up to 2x
        r = np.asarray(np.multiply.outer(np.square(np.cos(phi)), sin2, out=out))
        np.sqrt(np.add(r, cos2, out=r), out=r)
        np.multiply(r, env, out=r)
        return float(r) if r.ndim == 0 else r
    return rows


def bloch_magnitude(params: NVParams, phi, t):
    """r(t) = |kappa(t)| for the equatorial Ramsey initial state.

    Closed form: |c2 e^{iAt/2} + s2 e^{-iAt/2}| with c2 + s2 = 1 and
    c2 - s2 = cos(phi) gives r = env(t) sqrt(cos^2(At/2) + cos^2(phi) sin^2(At/2)).
    Scalar phi gives the shape of t (a float for scalar t); a 1-D array of phi
    gives one row per phi.
    """
    return _bloch_rows(params, t)(phi)


def nm_measure_phi(params: NVParams, phi_grid, t_grid) -> np.ndarray:
    """Non-Markovianity (total revival of r(t)) for each preparation angle: an array over phi.

    blp_from_magnitudes of the bloch_magnitude closed form, in blocks of phi
    rows of at most _PHI_BLOCK_CELLS cells (no n_phi x n_t array), all in one buffer.
    r depends on phi only through cos^2(phi), so nm(phi) = nm(pi - phi) up to the rounding
    of cos(pi - phi); every phi given is evaluated (fig3 folds its grid about pi/2).
    """
    phi_grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    if phi_grid.size == 0 or np.size(t_grid) < 2:
        raise ValueError("phi_grid must be nonempty and t_grid have >= 2 points")
    bloch, nm = _bloch_rows(params, t_grid), np.empty(phi_grid.size)
    rows = max(1, _PHI_BLOCK_CELLS // np.size(t_grid))
    buf = np.empty((min(rows, phi_grid.size), *np.shape(t_grid)))
    for i in range(0, phi_grid.size, rows):
        nm[i:i + rows] = blp_from_magnitudes(bloch(phi_grid[i:i + rows], buf[:phi_grid.size - i]))
    return nm


# --- refined single-qubit constant/balanced discrimination -----------------

class Gate(enum.Enum):
    U1 = "U1"
    U2 = "U2"
    U3 = "U3"
    U4 = "U4"


BALANCED_GATES = (Gate.U3, Gate.U4)


def is_balanced(gate: Gate | str) -> bool:
    return Gate(gate) in BALANCED_GATES


def rdja_kappa_eff(params: NVParams, phi: float, t: float, tau: float) -> complex:
    """Effective coherence factor for the echo sequence (wait t, pi, wait tau).

    The pi pulse conjugates the nuclear phase so pre- and post-pulse phases
    subtract; the residual envelope is not refocused and decays with t+tau.
    """
    c2 = np.square(np.cos(phi / 2))
    s2 = np.square(np.sin(phi / 2))
    phase = params.coupling * (t - tau) / 2
    return envelope(params, t + tau) * (c2 * np.exp(1j * phase) + s2 * np.exp(-1j * phase))


def rdja_p0_table(params: NVParams, phi: float, t: float, tau_grid) -> dict:
    """P0 of every gate over readout delays tau: {Gate: array over tau}.

    Probability of reading |0> after gate, echo waits t and tau, and the
    readout pulse. Closed form: P0 = (1 + s Re kappa_eff)/2 with s = +1 for
    the balanced gates U3, U4 and s = -1 for the constant gates U1, U2; the
    echo pi pulse flips the noiseless outcome relative to the
    immediate-readout protocol. One rdja_kappa_eff broadcast over tau; fig5's
    contrast is P0(U3) - P0(U1) of this table.
    """
    tau = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    if t < 0 or np.any(tau < 0):
        raise ValueError("t and tau must be >= 0")
    re = rdja_kappa_eff(params, phi, t, tau).real
    constant, balanced = 0.5 * (1 - re), 0.5 * (1 + re)
    return {gate: balanced if is_balanced(gate) else constant for gate in Gate}
