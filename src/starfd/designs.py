"""Channel-aligned surface designs: phase profiles that line up the
LoS cascades toward the cell-edge users, or for the bidirectional
scenario toward the relayed connections.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .channel import StarRisState, element_layout
from .config import GeometryAngles, SystemConfig
from .kernel import PowerConfig, relay_branches
from .rates_cf import cf_rate_inputs

__all__ = [
    "suboptimal_phases",
    "suboptimal_phases_bidirectional",
    "aligned_state",
]


def _alignment_phase(n_elements: int, d_over_lambda: float, s: float,
                     c: float) -> np.ndarray:
    """Phases -2*pi*(d/lambda)*(x_n*s + y_n*c) on the element grid."""
    x, y = element_layout(n_elements)
    return -2.0 * math.pi * d_over_lambda * (x * s + y * c)


def _link_direction(angles: GeometryAngles, link: str) -> Tuple[float, float]:
    az, el = angles.link(link)
    return math.sin(az) * math.sin(el), math.cos(el)


def suboptimal_phases(angles: GeometryAngles, n_elements: int
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Channel-aligned phase design toward the two cell-edge users.

    Side t aligns the BS-surface-u2u cascade, side r the BS-surface-u2d
    cascade: phi_n^k = -2*pi*(d/lambda)*(x_n*t_k + y_n*l_k) with
    t_k = sin(az_br)sin(el_br) - sin(az_k)sin(el_k) and
    l_k = cos(el_br) - cos(el_k), at the spacing ``angles.d_over_lambda``.
    """
    d = angles.d_over_lambda
    s_br, c_br = _link_direction(angles, "br")
    s_t, c_t = _link_direction(angles, "u2u")
    s_r, c_r = _link_direction(angles, "u2d")
    return (_alignment_phase(n_elements, d, s_br - s_t, c_br - c_t),
            _alignment_phase(n_elements, d, s_br - s_r, c_br - c_r))


def suboptimal_phases_bidirectional(config: SystemConfig, pw: PowerConfig,
                                    rho_t: float = 0.5
                                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Aligned phase design for the relayed (bidirectional) connections.

    Each side has two alignment candidates: the user-to-user cascade
    (phases sum, both steering vectors arrive conjugated) or the
    BS-surface-user cascade (phases difference). The candidate whose
    combined-reception branch SINR is larger wins; on a tie the
    BS-surface-user alignment is kept.
    """
    angles = config.angles
    n = config.n_elements
    d = angles.d_over_lambda
    s_br, c_br = _link_direction(angles, "br")
    s_u1d, c_u1d = _link_direction(angles, "u1d")
    s_u2d, c_u2d = _link_direction(angles, "u2d")
    s_u1u, c_u1u = _link_direction(angles, "u1u")
    s_u2u, c_u2u = _link_direction(angles, "u2u")

    # Candidate phases per side: user-user (sum form) vs BS path
    # (difference form). _alignment_phase negates its arguments, so the
    # sum form passes -(s_a + s_b).
    cand_t = {
        "user": _alignment_phase(n, d, -(s_u1d + s_u2u), -(c_u1d + c_u2u)),
        "bs": _alignment_phase(n, d, s_br - s_u1d, c_br - c_u1d),
    }
    cand_r = {
        "user": _alignment_phase(n, d, -(s_u2d + s_u1u), -(c_u2d + c_u1u)),
        "bs": _alignment_phase(n, d, s_br - s_u2d, c_br - c_u2d),
    }

    def branches(phi_t: np.ndarray, phi_r: np.ndarray):
        state = StarRisState.uniform(n, rho_t, phi_t, phi_r)
        return relay_branches(cf_rate_inputs(config, state), config, pw)

    zero = np.zeros(n)

    # Side t feeds the center DL user's reception of the u2u message.
    relay_t = branches(cand_t["user"], zero)[0]
    bs_t = branches(cand_t["bs"], zero)[1]
    phi_t = cand_t["user"] if relay_t > bs_t else cand_t["bs"]

    # Side r feeds the edge DL user's reception of the u1u message.
    relay_r = branches(zero, cand_r["user"])[2]
    bs_r = branches(zero, cand_r["bs"])[3]
    phi_r = cand_r["user"] if relay_r > bs_r else cand_r["bs"]

    return phi_t, phi_r


def aligned_state(config: SystemConfig, rho_t: float = 0.5,
                  pw: Optional[PowerConfig] = None,
                  scenario: str = "noma-pair") -> StarRisState:
    """Surface state with uniform amplitudes and the aligned phase design."""
    if scenario == "bidirectional":
        if pw is None:
            pw = PowerConfig.from_config(config)
        phi_t, phi_r = suboptimal_phases_bidirectional(config, pw, rho_t)
    else:
        phi_t, phi_r = suboptimal_phases(config.angles, config.n_elements)
    return StarRisState.uniform(config.n_elements, rho_t, phi_t, phi_r)
