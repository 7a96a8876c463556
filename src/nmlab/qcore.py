"""Pauli-diagonal unital qubit channels, as the collision model classifies them.

A channel is stored by its Bloch eigenvalue triple; non-CP triples are
representable on purpose, and its Kraus (Choi) weights decide validity. The
density-matrix primitives that check these closed forms live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

PSD_TOL = 1e-10  # weights above -PSD_TOL count as >= 0, and |lam| up to 1 + PSD_TOL as <= 1


class SingularChannelError(ValueError):
    """Raised when an intermediate map is undefined (division by a zero eigenvalue)."""


@dataclass(frozen=True)
class PauliChannel:
    """Pauli-diagonal unital qubit map, stored by its Bloch eigenvalues.

    The map scales Bloch components as r_i -> lam_i * r_i. Triples with
    |lam_i| > 1 or negative Choi weights are representable; kraus_weights
    exposes the negative ones.
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
