"""Closed-form ergodic rates and their deterministic moment terms.

The closed forms move the expectation inside the logarithm (a Jensen-style
approximation), so every rate reduces to ratios of deterministic moments:
disk path-loss expectations from :mod:`starfd.geometry`, Rician mixing
coefficients from the per-link K-factors, and squared LoS cascade
magnitudes of the current surface state.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .channel import StarRisState, _los_vectors
from .config import SystemConfig
from .geometry import (exp_pathloss_center_disk, exp_pathloss_edge_disk,
                       exp_pathloss_fixed_point_to_disk,
                       exp_pathloss_two_random_points, pathloss)
from .kernel import PowerConfig, RateReport, noma_sinrs, scenario_rates
from .record import Record

__all__ = [
    "MomentSet",
    "CfRateInputs",
    "compute_moments",
    "cf_rate_inputs",
    "surface_gradient",
    "cf_rates",
    "cf_rates_simplified",
    "cf_rates_bidirectional",
    "cf_sinrs",
]

# Which surface side and Rician-factor pair feeds each LoS cascade term.
# Entries are (side, out-link, in-link); the BS self-cascade (index 9) is
# handled separately.
_XI_TABLE = {
    1: ("t", "u1d", "br"),
    2: ("t", "u1d", "u1u"),
    3: ("t", "u1d", "u2u"),
    4: ("r", "u2d", "br"),
    5: ("r", "u2d", "u1u"),
    6: ("r", "u2d", "u2u"),
    7: ("t", "br", "u1u"),
    8: ("t", "br", "u2u"),
}


class MomentSet(Record):
    """Deterministic expectation terms shared by all closed-form rates."""

    __slots__ = ("upsilon", "rho_2pt", "q_center", "q_edge", "l_br", "varpi",
                 "varpi_hat", "xi", "zeta", "sum_rho_sq", "cross_phase")

    def __init__(self, upsilon: float, rho_2pt: float, q_center: float,
                 q_edge: float, l_br: float, varpi: Dict[int, float],
                 varpi_hat: Dict[int, float], xi: Dict[int, float],
                 zeta: complex, sum_rho_sq: Dict[str, float],
                 cross_phase: float) -> None:
        self._assign(locals())


class CfRateInputs(Record):
    """The x1 (signal), y1/y2 (interference) moments of one user's rate."""

    __slots__ = ("x1", "y1", "y2")

    def __init__(self, x1: float, y1: float, y2: float) -> None:
        self._assign(locals())
        for name in ("x1", "y1", "y2"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")

    def __iter__(self):
        """Unpack as the (signal, interference, interference) kernel terms."""
        return iter((self.x1, self.y1, self.y2))


def _rician_weights(config: SystemConfig, i: int) -> Tuple[float, float,
                                                           float]:
    """(k_in k_out, k_in + k_out + 1, (k_in + 1)(k_out + 1)) of entry i.

    varpi_i is the first over the third, varpi_hat_i the sum of rho^2 on
    the entry's side times the second over the third.
    """
    _, out, inp = _XI_TABLE[i]
    k_in = config.kappa(inp)
    k_out = config.kappa(out)
    return k_in * k_out, k_in + k_out + 1.0, (k_in + 1.0) * (k_out + 1.0)


def _loopback_split(config: SystemConfig) -> Tuple[float, float]:
    """(a, b) = (k/(k+1), 1/(k+1)) of the BS-surface link, a + b = 1."""
    kappa = config.kappa("br")
    return kappa / (kappa + 1.0), 1.0 / (kappa + 1.0)


@lru_cache(maxsize=128)
def _geometry_expectations(R: float, R_r: float, d_br: float,
                           m: float) -> Tuple[float, float, float, float,
                                              float]:
    """(q_center, q_edge, upsilon, rho_2pt, l_br), cached per geometry."""
    return (exp_pathloss_center_disk(R, m),
            exp_pathloss_edge_disk(R_r, m),
            exp_pathloss_fixed_point_to_disk(d_br - R, R, m),
            exp_pathloss_two_random_points(R, m),
            pathloss(d_br, m))


def compute_moments(config: SystemConfig, ris: StarRisState) -> MomentSet:
    """Evaluate every deterministic moment for one (scenario, surface) pair.

    Geometry expectations are position averages and depend only on the
    cell layout; the xi terms are squared magnitudes of the LoS steering
    cascades under the current amplitudes and phases.
    """
    geom = config.geometry
    q_center, q_edge, upsilon, rho_2pt, l_br = _geometry_expectations(
        geom.R, geom.R_r, geom.d_br, geom.m)

    los = _los_vectors(config.n_elements, config.angles)
    w = {"t": ris.side("t"), "r": ris.side("r")}
    sum_rho_sq = {"t": float(np.sum(ris.rho_t ** 2)),
                  "r": float(np.sum(ris.rho_r ** 2))}
    # The loop-back's cross term |sum w_t|^2 - sum rho_t^2. |s|^2 is
    # written as (s * conj(s)).real rounds it, like zeta_sq in
    # _loopback_moment; abs(s) ** 2 would move the closed-form bytes.
    s = complex(np.sum(w["t"]))
    cross_phase = s.real * s.real + s.imag * s.imag - sum_rho_sq["t"]

    varpi, varpi_hat, xi = {}, {}, {}
    for i, (side, out, inp) in _XI_TABLE.items():
        los_weight, spread, denom = _rician_weights(config, i)
        varpi[i] = los_weight / denom
        varpi_hat[i] = sum_rho_sq[side] * spread / denom
        xi[i] = abs(complex(np.sum(los[out] * w[side] * los[inp]))) ** 2

    # BS loop-back: the return leg is the conjugate of the outgoing one,
    # so the LoS cascade collapses to the plain coefficient sum.
    zeta = complex(np.sum(w["t"] * los["br"] * np.conj(los["br"])))
    xi[9] = abs(zeta) ** 2

    return MomentSet(upsilon=upsilon, rho_2pt=rho_2pt, q_center=q_center,
                     q_edge=q_edge, l_br=l_br, varpi=varpi,
                     varpi_hat=varpi_hat, xi=xi, zeta=zeta,
                     sum_rho_sq=sum_rho_sq, cross_phase=cross_phase)


def _affine_terms(mo: MomentSet
                  ) -> Dict[str, Tuple[Tuple[float, float, int], ...]]:
    """The u1d, u2d and u1u triples as (base, coefficient, source) terms.

    Each term is base + coefficient * m, with m = _mix(mo, source) for
    sources 1..8 and the loop-back moment for source 9.
    """
    ups, l_br, q_edge = mo.upsilon, mo.l_br, mo.q_edge
    return {
        "u1d": ((mo.q_center, l_br * ups, 1),
                (mo.rho_2pt, ups ** 2, 2),
                (0.0, q_edge * ups, 3)),
        "u2d": ((0.0, l_br * q_edge, 4),
                (0.0, q_edge * ups, 5),
                (0.0, q_edge ** 2, 6)),
        "u1u": ((mo.q_center, l_br * ups, 7),
                (0.0, l_br * q_edge, 8),
                (0.0, l_br ** 2, 9)),
    }


def _mix(moments: MomentSet, i: int) -> float:
    """The Rician second moment varpi_i * xi_i + varpi_hat_i."""
    return moments.varpi[i] * moments.xi[i] + moments.varpi_hat[i]


def _loopback_moment(config: SystemConfig, moments: MomentSet) -> float:
    """Second moment of the BS self-cascade."""
    a, b = _loopback_split(config)
    zeta = moments.zeta  # LoS loop-back sum, equal to sum rho_t e^{j phi_t}
    zeta_sq = zeta.real * zeta.real + zeta.imag * zeta.imag
    return (a * a * moments.xi[9]
            + 2.0 * a * b * moments.sum_rho_sq["t"]
            + b * b * (2.0 * moments.sum_rho_sq["t"] + moments.cross_phase)
            + a * b * (zeta_sq + zeta_sq))


def cf_rate_inputs(config: SystemConfig, ris: StarRisState,
                   moments: Optional[MomentSet] = None
                   ) -> Dict[str, CfRateInputs]:
    """Assemble the x1/y1/y2 moment triples for all four users."""
    mo = moments or compute_moments(config, ris)
    source = {i: _mix(mo, i) for i in _XI_TABLE}
    source[9] = _loopback_moment(config, mo)
    inputs = {user: CfRateInputs(*(base + coeff * source[i]
                                   for base, coeff, i in triple))
              for user, triple in _affine_terms(mo).items()}
    x1, y1, y2 = inputs["u1u"]
    # The edge uplink reuses the center uplink's terms with the
    # signal/interference roles swapped; these are exact identities.
    inputs["u2u"] = CfRateInputs(x1=y1, y1=x1, y2=y2)
    return inputs


def surface_gradient(config: SystemConfig, ris: StarRisState,
                     term_grads: Dict[str, np.ndarray],
                     moments: Optional[MomentSet] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """Pull partials in the moment triples back to the surface, in O(N).

    ``term_grads`` holds the partials of some function f in the (x1, y1,
    y2) triples of u1d, u2d and u1u from :func:`cf_rate_inputs`. Returns
    d f / d phi_t, phi_r, rho_t, rho_r.

    Each term is affine in one source: a mix varpi_i xi_i + varpi_hat_i,
    or the loop-back moment, which equals xi_9 + (2ab + b^2) sum rho_t^2
    since a + b = 1. The sources see the surface through sum rho^2 and
    xi_i = |s_i|^2 with s_i = c_i^T w, whose partials are
    d xi / d phi_n = -2 Im(conj(s_i) c_n w_n) and
    d xi / d rho_n = 2 Re(conj(s_i) c_n e^{j phi_n}).
    """
    mo = moments or compute_moments(config, ris)
    d_source = dict.fromkeys(range(1, 10), 0.0)
    for user, triple in _affine_terms(mo).items():
        for grad, (_, coeff, i) in zip(term_grads[user], triple):
            d_source[i] += grad * coeff

    los = _los_vectors(config.n_elements, config.angles)
    # Each side's unit phasors e^{j phi}, and its response w = rho e^{j phi}
    # (the product StarRisState.side forms).
    phasor = {"t": np.exp(1j * ris.phi_t), "r": np.exp(1j * ris.phi_r)}
    w = {"t": ris.rho_t * phasor["t"], "r": ris.rho_r * phasor["r"]}
    # wirt[side] = sum_i (d f / d xi_i) conj(s_i) c_i over the side's xi.
    wirt = {k: np.zeros(config.n_elements, dtype=complex) for k in w}
    d_sum_sq = {"t": 0.0, "r": 0.0}
    for i, (side, out, inp) in _XI_TABLE.items():
        los_weight, spread, denom = _rician_weights(config, i)
        c = los[out] * los[inp]
        s_i = np.sum(c * w[side])
        wirt[side] += d_source[i] * los_weight / denom * np.conj(s_i) * c
        d_sum_sq[side] += d_source[i] * spread / denom
    a, b = _loopback_split(config)
    wirt["t"] += (d_source[9] * np.conj(mo.zeta)
                  * (los["br"] * np.conj(los["br"])))
    d_sum_sq["t"] += d_source[9] * (2.0 * a * b + b * b)

    g_phi, g_rho = {}, {}
    for k, rho in (("t", ris.rho_t), ("r", ris.rho_r)):
        g_phi[k] = -2.0 * np.imag(wirt[k] * w[k])
        g_rho[k] = 2.0 * (np.real(wirt[k] * phasor[k]) + rho * d_sum_sq[k])
    return g_phi["t"], g_phi["r"], g_rho["t"], g_rho["r"]


def cf_sinrs(config: SystemConfig, ris: StarRisState, pw: PowerConfig,
             moments: Optional[MomentSet] = None) -> Dict[str, float]:
    """Closed-form (moment-ratio) SINRs of the four users."""
    inputs = cf_rate_inputs(config, ris, moments=moments)
    return noma_sinrs(inputs, config, pw, config.si_variance(pw.P_b))


def cf_rates(config: SystemConfig, ris: StarRisState, pw: PowerConfig,
             scenario: str = "noma-pair",
             moments: Optional[MomentSet] = None) -> RateReport:
    """The scenario's closed-form rates plus its sum rate."""
    inputs = cf_rate_inputs(config, ris, moments=moments)
    return RateReport.of(scenario,
                         scenario_rates(inputs, config, pw,
                                        config.si_variance(pw.P_b), scenario),
                         config.weights, "cf")


def cf_rates_simplified(config: SystemConfig, ris: StarRisState,
                        pw: PowerConfig) -> RateReport:
    """The short-form rates: perfect SIC and SI cancellation, no surface
    boost on center-user signals, no BS loop-back.

    The full moment terms with the four omitted surface terms cut back
    to their bases (the direct links, and zero for the loop-back), scored
    by the same kernel as the full forms with Xi = beta = 0.
    """
    mo = compute_moments(config, ris)
    full = cf_rate_inputs(config, ris, moments=mo)
    terms = {"u1d": (mo.q_center, mo.rho_2pt, full["u1d"].y2),
             "u2d": full["u2d"],
             "u1u": (mo.q_center, full["u1u"].y1, 0.0)}
    rates = scenario_rates(terms, config.replace(Xi=0.0, beta=0.0), pw, 0.0,
                           "noma-pair")
    return RateReport.of("noma-pair", rates, config.weights, "cf")


def cf_rates_bidirectional(config: SystemConfig, ris: StarRisState,
                           pw: PowerConfig,
                           moments: Optional[MomentSet] = None
                           ) -> Tuple[float, float]:
    """Closed-form rates (R_c, R_e) of the relayed connections: the
    bidirectional :func:`cf_rates`, each the smaller of its two legs."""
    report = cf_rates(config, ris, pw, "bidirectional", moments)
    return report.rate("c"), report.rate("e")
