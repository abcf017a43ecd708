"""The physical scenario of a Bell test, in plain floats.

``StateSpec`` names the state (mode count N, photon split r, purity p,
efficiency eta) that the closed forms read and that ``model.density_matrix``
builds; ``canonical_split`` is the split every ratio here is maximal at, and
``INEQUALITIES`` names the three inequalities every command chooses from.
"""

from __future__ import annotations

import math

from .errors import is_integer

#: The named inequalities: optimized functional, plain moments (CFRD), binned MK.
INEQUALITIES = ("functional", "cfrd", "mk")


class StateSpec:
    """Physical scenario: mode count N, photon split r, purity p, efficiency eta.

    The state superposes r occupied modes against the complementary pattern;
    ``purity`` is the weight of the pure state against its occupation-basis
    dephased mixture, and ``efficiency`` is the per-mode photon survival
    probability of the detection chain.
    """

    __slots__ = ("n_modes", "r_split", "purity", "efficiency")

    def __init__(self, n_modes: int, r_split: int, purity: float = 1.0,
                 efficiency: float = 1.0):
        if not is_integer(n_modes) or n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
        if not is_integer(r_split) or not 0 <= r_split <= n_modes:
            raise ValueError(
                f"r_split must be an integer in [0, {n_modes}], got {r_split!r}"
            )
        if not (math.isfinite(purity) and 0.0 <= purity <= 1.0):
            raise ValueError(f"purity must lie in [0, 1], got {purity!r}")
        if not (math.isfinite(efficiency) and 0.0 < efficiency <= 1.0):
            raise ValueError(f"efficiency must lie in (0, 1], got {efficiency!r}")
        self.n_modes = n_modes
        self.r_split = r_split
        self.purity = purity
        self.efficiency = efficiency


def canonical_split(n: int) -> int:
    """The split r = n // 2 maximizing every ratio here; all of them are
    symmetric under r <-> n - r, so (n + 1) // 2 gives the same values."""
    return n // 2
