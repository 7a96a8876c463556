"""Pauli-diagonal unital qubit channels, as the collision model builds them.

A channel is stored by its Bloch eigenvalue triple; non-CP triples are
representable on purpose. `collision` classifies its one map by closed forms,
and the density-matrix primitives and Choi weights that check them live with
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass


class SingularChannelError(ValueError):
    """Raised when an intermediate map is undefined (division by a zero eigenvalue)."""


@dataclass(frozen=True)
class PauliChannel:
    """Pauli-diagonal unital qubit map, stored by its Bloch eigenvalues.

    The map scales Bloch components as r_i -> lam_i * r_i. Triples with
    |lam_i| > 1 or negative Choi weights are representable.
    """

    lam_x: float
    lam_y: float
    lam_z: float

    @staticmethod
    def identity() -> "PauliChannel":
        return PauliChannel(1.0, 1.0, 1.0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lam_x, self.lam_y, self.lam_z)
