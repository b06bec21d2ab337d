"""Power allocation for rate targets: the paper's closed-form split and
the fixed-tau split that meets a downlink target.

Only the ``closed-form`` and ``tau-dl-target`` power schemes use this
module, so the CLI imports it for those specs alone.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from .config import SystemConfig
from .exceptions import DegenerateGeometryError, InfeasibleError
from .kernel import PowerConfig, noma_sinrs
from .rates_cf import CfRateInputs

__all__ = ["sinr_threshold", "power_allocation_closed_form",
           "tau_split_powers"]

# Fixed-point passes for the self-interference coupling of the power
# allocation; feasible cells settle within a few dozen.
_SI_PASSES = 200


def sinr_threshold(rate: float, link: str) -> float:
    """The SINR 2^R - 1 that a ``link`` target rate R needs.

    A target whose threshold lies beyond the float range (R of 1024
    bits/s/Hz and above) cannot be met and raises ``InfeasibleError``.
    """
    try:
        return 2.0 ** rate - 1.0
    except OverflowError:
        raise InfeasibleError(
            f"{link} target {rate} bits/s/Hz infeasible: its SINR "
            "threshold 2^R - 1 exceeds the float range") from None


def power_allocation_closed_form(config: SystemConfig,
                                 inputs: Dict[str, CfRateInputs]
                                 ) -> PowerConfig:
    """Power split meeting the edge targets with equality, in closed form.

    The budget ``P_t`` and the targets ``R_dth`` and ``R_uth`` come from
    ``config``, which has checked their ranges; ``inputs`` are the
    state's moment triples (:func:`starfd.rates_cf.cf_rate_inputs`).
    Targets are converted to linear SINR thresholds (2^R - 1). The edge
    UL power follows from the u2u target as an affine function of the
    total BS power; the two DL conditions (edge signal decoded at the
    edge user and at the center user, both at the DL threshold) then pin
    P_b1 and P_b2. The residual self-interference variance couples back
    through the BS power, which a fixed-point pass resolves. Whatever
    budget remains goes to the center UL user.
    """
    P_t, R_dth, R_uth = config.P_t, config.R_dth, config.R_uth
    gamma_d = sinr_threshold(R_dth, "downlink")
    gamma_u = sinr_threshold(R_uth, "uplink")
    sigma_sq, sigma_b_sq = config.sigma_sq, config.sigma_b_sq
    xi_sic = config.Xi

    u2u = inputs["u2u"]
    x_u, y1_u, y2_u = u2u.x1, u2u.y1, u2u.y2
    if gamma_u > 0 and x_u <= 0:
        raise InfeasibleError(
            "uplink target unreachable: the edge uplink signal moment "
            "is zero (dark transmit side)")

    # The c-row is the center user decoding the edge DL signal, the
    # e-row the edge user decoding it; both must meet gamma_d.
    rows = {}
    for key, user in (("c", "u1d"), ("e", "u2d")):
        inp = inputs[user]
        if gamma_d > 0 and inp.x1 <= 0:
            raise InfeasibleError(
                "downlink target unreachable: the edge DL signal moment "
                f"is zero at {user}")
        rows[key] = inp

    def solve(v: float):
        # p_u2u = S * P_b + T from the uplink threshold condition.
        if gamma_u > 0:
            den_u = x_u + gamma_u * xi_sic * y1_u
            s_u = gamma_u * (y2_u - xi_sic * y1_u) / den_u
            t_u = gamma_u * (xi_sic * y1_u * P_t + v + sigma_b_sq) / den_u
        else:
            s_u, t_u = 0.0, 0.0
        if gamma_d == 0:
            p_b1 = p_b2 = 0.0
            p_u2u = t_u  # S multiplies P_b = 0
            return p_b1, p_b2, p_u2u
        coeffs = {}
        for key, inp in rows.items():
            y1t, y2t = inp.y1 / inp.x1, inp.y2 / inp.x1
            sig = sigma_sq / inp.x1
            d_i = 1.0 + gamma_d * y1t - gamma_d * s_u * (y2t - y1t)
            n_i = gamma_d * (1.0 - y1t + s_u * (y2t - y1t))
            g_i = gamma_d * y1t
            m_i = gamma_d * (y2t - y1t) * t_u + gamma_d * sig
            coeffs[key] = (n_i / d_i, g_i / d_i, m_i / d_i)
        (b_c, c_c, q_c), (b_e, c_e, q_e) = coeffs["c"], coeffs["e"]
        denom = b_e - b_c
        scale = abs(b_e) + abs(b_c) + 1.0
        if abs(denom) < 1e-12 * scale:
            raise DegenerateGeometryError(
                "the center and edge decoding conditions are linearly "
                "dependent; the DL power split is not identifiable")
        p_b1 = (P_t * (c_c - c_e) + (q_c - q_e)) / denom
        p_b2 = b_c * p_b1 + c_c * P_t + q_c
        p_u2u = s_u * (p_b1 + p_b2) + t_u
        return p_b1, p_b2, p_u2u

    v, settled = 0.0, False
    for _ in range(_SI_PASSES):
        p_b1, p_b2, p_u2u = solve(v)
        p_b = p_b1 + p_b2
        if p_b < 0:
            raise InfeasibleError(
                f"downlink target {R_dth} bits/s/Hz infeasible: the "
                "required BS power is negative")
        try:
            v_new = config.si_variance(p_b)
        except OverflowError:
            break
        if not math.isfinite(v_new):
            break
        if abs(v_new - v) <= 1e-15 * max(1.0, v):
            settled = True
            break
        v = v_new
    if not settled:
        raise InfeasibleError(
            "rate targets infeasible: the self-interference coupling does "
            f"not settle within {_SI_PASSES} passes (the BS power the "
            "targets need raises the residual SI faster than the powers "
            "can absorb it)")

    p_u1u = P_t - p_b1 - p_b2 - p_u2u
    for name, value, target in (("p_b1", p_b1, "downlink"),
                                ("p_b2", p_b2, "downlink"),
                                ("p_u2u", p_u2u, "uplink"),
                                ("p_u1u", p_u1u, "combined")):
        if value < -1e-12 * P_t:
            label = {"downlink": f"downlink target {R_dth} bits/s/Hz",
                     "uplink": f"uplink target {R_uth} bits/s/Hz",
                     "combined": "combined downlink and uplink targets"
                     }[target]
            raise InfeasibleError(
                f"{label} infeasible: {name} = {value:.6g} W < 0")
    clip = lambda p: max(p, 0.0)
    return PowerConfig(P_t=P_t, p_b1=clip(p_b1), p_b2=clip(p_b2),
                       p_u1u=clip(p_u1u), p_u2u=clip(p_u2u))


def tau_split_powers(config: SystemConfig, inputs: Dict[str, CfRateInputs],
                     R_dth: float) -> Tuple[PowerConfig, bool]:
    """Fixed tau split whose BS share is divided to hit the DL target.

    ``R_dth`` is one of the spec's downlink target cases; the uplink
    target is the config's ``R_uth``.

    The edge-signal power p_b2 is the smallest value for which the edge
    user decodes its own signal at the DL target rate (the target is the
    edge user's rate cap); the remaining BS power carries the center
    signal. When even the whole BS budget falls short, everything goes
    to the edge signal and the point is flagged infeasible. The uplink
    side keeps the configured split, so the UL target and the center
    user's decoding order only enter diagnostics, not the split rule.
    """
    R_uth = config.R_uth
    p_b = config.tau * config.P_t
    p_u = (1.0 - config.tau) * config.P_t
    p_u1u = config.ul_split * p_u
    p_u2u = p_u - p_u1u
    gamma_d = sinr_threshold(R_dth, "downlink")
    feasible = True

    required = 0.0
    edge = inputs["u2d"]
    if gamma_d > 0.0:
        interference = (p_u1u * edge.y1 + p_u2u * edge.y2
                        + config.sigma_sq)
        if edge.x1 <= 0.0:
            required, feasible = p_b, False
        else:
            required = (gamma_d * (p_b * edge.x1 + interference)
                        / (edge.x1 * (1.0 + gamma_d)))
    p_b2 = required
    if p_b2 > p_b:
        p_b2, feasible = p_b, False
    p_b1 = p_b - p_b2

    pw = PowerConfig(P_t=config.P_t, p_b1=p_b1, p_b2=p_b2,
                     p_u1u=p_u1u, p_u2u=p_u2u)
    if R_uth > 0.0:
        sinr = noma_sinrs(inputs, config, pw,
                          config.si_variance(pw.P_b))["u2u"]
        feasible = feasible and math.log2(1.0 + sinr) >= R_uth - 1e-12
    return pw, feasible
