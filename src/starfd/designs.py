"""Channel-aligned surface designs: phase profiles that co-phase the LoS
parts of chosen reception cascades (:data:`starfd.kernel.RECEPTION_TERMS`)
toward the cell-edge users, or for the bidirectional scenario toward the
relayed connections.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .channel import StarRisState
from .config import GeometryAngles, SystemConfig
from .kernel import RECEPTION_TERMS, PowerConfig, relay_branches
from .rates_cf import _cascade_table, cf_rate_inputs

__all__ = [
    "suboptimal_phases",
    "suboptimal_phases_bidirectional",
    "aligned_state",
]


def _co_phased(rows, user: str, term: str) -> np.ndarray:
    """Phases that co-phase the LoS part of the cascade of ``user``'s
    ``term`` (x1, y1 or y2): minus the phase of its row of the cascade
    table, so every element adds to the cascade in phase."""
    cascade = RECEPTION_TERMS[user][("x1", "y1", "y2").index(term)][2]
    return -np.angle(rows[cascade])


def suboptimal_phases(angles: GeometryAngles, n_elements: int
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Channel-aligned phase design toward the two cell-edge users.

    Side t co-phases the BS-surface-u2u cascade, the signal of u2u (u1u's
    y1), and side r the BS-surface-u2d cascade, u2d's x1.
    """
    rows = _cascade_table(n_elements, angles)
    return _co_phased(rows, "u1u", "y1"), _co_phased(rows, "u2d", "x1")


def suboptimal_phases_bidirectional(config: SystemConfig, pw: PowerConfig,
                                    rho_t: float = 0.5
                                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Aligned phase design for the relayed (bidirectional) connections.

    Each side has two candidates: co-phasing the relayed user-to-user
    cascade (u1d's y2 on side t, u2d's y1 on side r) or the BS-surface-user
    cascade (each DL user's x1). The candidate whose combined-reception
    branch SINR is larger wins; on a tie the BS-surface-user alignment is
    kept.
    """
    n = config.n_elements
    rows = _cascade_table(n, config.angles)

    def branches(phi_t: np.ndarray, phi_r: np.ndarray):
        state = StarRisState.uniform(n, rho_t, phi_t, phi_r)
        return relay_branches(cf_rate_inputs(config, state), config, pw)

    zero = np.zeros(n)

    # Side t feeds the center DL user's reception of the u2u message.
    user_t, bs_t = _co_phased(rows, "u1d", "y2"), _co_phased(rows, "u1d", "x1")
    relay, bs = branches(user_t, zero)[0], branches(bs_t, zero)[1]
    phi_t = user_t if relay > bs else bs_t

    # Side r feeds the edge DL user's reception of the u1u message.
    user_r, bs_r = _co_phased(rows, "u2d", "y1"), _co_phased(rows, "u2d", "x1")
    relay, bs = branches(zero, user_r)[2], branches(zero, bs_r)[3]
    phi_r = user_r if relay > bs else bs_r

    return phi_t, phi_r


def aligned_state(config: SystemConfig, rho_t: float = 0.5,
                  pw: Optional[PowerConfig] = None) -> StarRisState:
    """Surface state with uniform amplitudes and the aligned phase design
    of ``config``'s scenario."""
    if config.scenario == "bidirectional":
        if pw is None:
            pw = PowerConfig.from_config(config)
        phi_t, phi_r = suboptimal_phases_bidirectional(config, pw, rho_t)
    else:
        phi_t, phi_r = suboptimal_phases(config.angles, config.n_elements)
    return StarRisState.uniform(config.n_elements, rho_t, phi_t, phi_r)
