"""The physical scenario of a Bell test, in plain floats.

``StateSpec`` names the state (mode count N, photon split r, purity p,
efficiency eta) that the closed forms read and that ``model.density_matrix``
builds; ``canonical_split`` is the split every ratio here is maximal at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import is_integer


@dataclass(frozen=True)
class StateSpec:
    """Physical scenario: mode count N, photon split r, purity p, efficiency eta.

    The state superposes r occupied modes against the complementary pattern;
    ``purity`` is the weight of the pure state against its occupation-basis
    dephased mixture, and ``efficiency`` is the per-mode photon survival
    probability of the detection chain.
    """

    n_modes: int
    r_split: int
    purity: float = 1.0
    efficiency: float = 1.0

    def __post_init__(self):
        if not is_integer(self.n_modes) or self.n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes!r}")
        if not is_integer(self.r_split) or not 0 <= self.r_split <= self.n_modes:
            raise ValueError(
                f"r_split must be an integer in [0, {self.n_modes}], got {self.r_split!r}"
            )
        if not (math.isfinite(self.purity) and 0.0 <= self.purity <= 1.0):
            raise ValueError(f"purity must lie in [0, 1], got {self.purity!r}")
        if not (math.isfinite(self.efficiency) and 0.0 < self.efficiency <= 1.0):
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency!r}")


def canonical_split(n: int) -> int:
    """The split r = n // 2 maximizing every ratio here; all of them are
    symmetric under r <-> n - r, so (n + 1) // 2 gives the same values."""
    return n // 2
