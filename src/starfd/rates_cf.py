"""Closed-form ergodic rates and their deterministic moment terms.

The closed forms move the expectation inside the logarithm (a Jensen-style
approximation), so every rate reduces to ratios of the means of the
reception terms of :data:`starfd.kernel.RECEPTION_TERMS`. Each mean has
a part the cell fixes, cached once per cell in one table: disk path-loss
expectations from :mod:`starfd.geometry` and Rician mixing coefficients
from the per-link K-factors; and a part the surface state sets: the
squared LoS sum of each cascade.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .channel import StarRisState, _los_vectors
from .config import (RIS_LINKS, CellGeometry, GeometryAngles,
                     SystemConfig)
from .geometry import (exp_pathloss_disk, exp_pathloss_fixed_point_to_disk,
                       exp_pathloss_two_random_points, pathloss)
from .kernel import (RECEPTION_TERMS, PowerConfig, RateReport, noma_sinrs,
                     scenario_rates)
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

# The reception terms of :data:`starfd.kernel.RECEPTION_TERMS`, numbered
# in table order: u1d's (x1, y1, y2) are 1..3, u2d's 4..6 and u1u's 7..9,
# the BS loop-back. A term's number keys its row of the cell table and its
# varpi, varpi_hat, LoS sum and xi in a MomentSet.
_NUMBERED = {user: range(3 * k + 1, 3 * k + 4)
             for k, user in enumerate(RECEPTION_TERMS)}
_TERMS = {i: term for user, triple in RECEPTION_TERMS.items()
          for i, term in zip(_NUMBERED[user], triple)}
# The short forms keep only the base of every term with a direct link,
# and drop the loop-back.
_SHORT_FORM_CUT = {i for i, (direct, _, cascade) in _TERMS.items()
                   if direct or cascade is None}


@lru_cache(maxsize=64)
def _cascade_table(n_elements: int, angles: GeometryAngles
                   ) -> Dict[Optional[Tuple[str, str, str]], np.ndarray]:
    """The LoS row of each term's cascade, keyed by its cascade in
    :data:`~starfd.kernel.RECEPTION_TERMS`: g_out * g_in of a (side, out,
    in) cascade, and all ones for the loop-back (None), which leaves on
    g_br and returns on its conjugate, |g_br| = 1."""
    los = _los_vectors(n_elements, angles)
    table = {(side, out, inp): los[out] * los[inp]
             for side, out, inp in (c for _, _, c in _TERMS.values() if c)}
    table[None] = np.ones(n_elements)
    return table


@lru_cache(maxsize=64)
def _cell_table(geometry: CellGeometry, kappas: Tuple[float, ...]
                ) -> Tuple[Tuple[float, ...], Dict[int, tuple]]:
    """The part of the nine terms' means that the cell fixes, for one
    geometry and the K-factors of ``RIS_LINKS``, in that order.

    Returns the five path-loss means (q_center, q_edge, upsilon, rho_2pt,
    l_br) and each term's row (base, coeff, side, cascade, los_weight,
    spread, denom). Term i's mean is base + coeff * (varpi_i xi_i +
    varpi_hat_i): base is its direct link's mean path loss (or 0), coeff
    the product of its two links', varpi_i = los_weight / denom and
    varpi_hat_i = sum rho^2 on the side * spread / denom. A cascade's
    weights are (k_in k_out, k_in + k_out + 1, (k_in + 1)(k_out + 1)); the
    loop-back's, on side t, (1, 2ab + b^2, 1) with (a, b) = (k/(k+1),
    1/(k+1)) of the BS-surface link, a + b = 1.
    """
    R, R_r, d_br, m = geometry.R, geometry.R_r, geometry.d_br, geometry.m
    means = (exp_pathloss_disk(R, m), exp_pathloss_disk(R_r, m),
             exp_pathloss_fixed_point_to_disk(d_br - R, R, m),
             exp_pathloss_two_random_points(R, m), pathloss(d_br, m))
    q_center, q_edge, upsilon, rho_2pt, l_br = means
    mean = {"b_u1d": q_center, "b_u1u": q_center, "u1d_u1u": rho_2pt,
            "br": l_br, "r_u1d": upsilon, "r_u1u": upsilon,
            "r_u2d": q_edge, "r_u2u": q_edge}
    kappa = dict(zip(RIS_LINKS, kappas))
    rows = {}
    for i, (direct, (x, y), cascade) in _TERMS.items():
        if cascade:
            side, out, inp = cascade
            k_in, k_out = kappa[inp], kappa[out]
            weights = (k_in * k_out, k_in + k_out + 1.0,
                       (k_in + 1.0) * (k_out + 1.0))
        else:
            k = kappa["br"]
            a, b = k / (k + 1.0), 1.0 / (k + 1.0)
            side, weights = "t", (1.0, 2.0 * a * b + b * b, 1.0)
        rows[i] = (mean[direct] if direct else 0.0, mean[x] * mean[y], side,
                   cascade, *weights)
    return means, rows


def _cell(config: SystemConfig
          ) -> Tuple[Tuple[float, ...], Dict[int, tuple]]:
    """The cell table of ``config``, keyed by its geometry and K-factors
    only, so a power, noise or SNR sweep builds it once."""
    return _cell_table(config.geometry, (config.kappa_br, config.kappa_u1d,
                                         config.kappa_u2d, config.kappa_u1u,
                                         config.kappa_u2u))


class MomentSet(Record):
    """Deterministic expectation terms shared by all closed-form rates:
    the cell's five path-loss means and, per term i = 1..9, the Rician
    weights varpi_i and varpi_hat_i, the complex LoS sum s_i and
    xi_i = |s_i|^2."""

    __slots__ = ("upsilon", "rho_2pt", "q_center", "q_edge", "l_br", "varpi",
                 "varpi_hat", "los_sum", "xi", "sum_rho_sq")

    def __init__(self, upsilon: float, rho_2pt: float, q_center: float,
                 q_edge: float, l_br: float, varpi: Dict[int, float],
                 varpi_hat: Dict[int, float], los_sum: Dict[int, complex],
                 xi: Dict[int, float], sum_rho_sq: Dict[str, float]) -> None:
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


def compute_moments(config: SystemConfig, ris: StarRisState) -> MomentSet:
    """Evaluate every deterministic moment for one (scenario, surface) pair.

    The path-loss means and Rician weights come from the cell table; the
    xi terms are squared magnitudes of the LoS sums of the cascades under
    the current amplitudes and phases.
    """
    (q_center, q_edge, upsilon, rho_2pt, l_br), rows = _cell(config)
    w = {"t": ris.side("t"), "r": ris.side("r")}
    sum_rho_sq = {"t": float(np.sum(ris.rho_t ** 2)),
                  "r": float(np.sum(ris.rho_r ** 2))}
    varpi, varpi_hat, los_sum = {}, {}, {}
    table = _cascade_table(config.n_elements, config.angles)
    for i, (_, _, side, cascade, los_weight, spread, denom) in rows.items():
        varpi[i] = los_weight / denom
        varpi_hat[i] = sum_rho_sq[side] * spread / denom
        los_sum[i] = complex(np.sum(table[cascade] * w[side]))

    return MomentSet(upsilon=upsilon, rho_2pt=rho_2pt, q_center=q_center,
                     q_edge=q_edge, l_br=l_br, varpi=varpi,
                     varpi_hat=varpi_hat, los_sum=los_sum,
                     xi={i: abs(s) ** 2 for i, s in los_sum.items()},
                     sum_rho_sq=sum_rho_sq)


def _mix(moments: MomentSet, i: int) -> float:
    """The Rician second moment varpi_i * xi_i + varpi_hat_i of term i's
    cascade; for the loop-back, xi_9 + (2ab + b^2) sum rho_t^2."""
    return moments.varpi[i] * moments.xi[i] + moments.varpi_hat[i]


def cf_rate_inputs(config: SystemConfig, ris: StarRisState,
                   moments: Optional[MomentSet] = None
                   ) -> Dict[str, CfRateInputs]:
    """Assemble the x1/y1/y2 moment triples for all four users."""
    mo = moments or compute_moments(config, ris)
    _, rows = _cell(config)
    inputs = {user: CfRateInputs(*(rows[i][0] + rows[i][1] * _mix(mo, i)
                                   for i in numbered))
              for user, numbered in _NUMBERED.items()}
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

    Each term i is base + coeff * (varpi_i xi_i + varpi_hat_i), which sees
    the surface through sum rho^2 on its side and xi_i = |s_i|^2, with
    s_i = c_i^T w the moment set's LoS sum and c_i the cascade table's row
    (all ones for the loop-back), whose partials are
    d xi / d phi_n = -2 Im(conj(s_i) c_n w_n) and
    d xi / d rho_n = 2 Re(conj(s_i) c_n e^{j phi_n}).
    """
    mo = moments or compute_moments(config, ris)
    _, rows = _cell(config)
    # Each side's unit phasors e^{j phi}, and its response w = rho e^{j phi}
    # (the product StarRisState.side forms).
    phasor = {"t": np.exp(1j * ris.phi_t), "r": np.exp(1j * ris.phi_r)}
    w = {"t": ris.rho_t * phasor["t"], "r": ris.rho_r * phasor["r"]}
    # wirt[side] = sum_i (d f / d xi_i) conj(s_i) c_i over the side's xi.
    wirt, d_sum_sq = {"t": 0.0, "r": 0.0}, {"t": 0.0, "r": 0.0}
    table = _cascade_table(config.n_elements, config.angles)
    for user, numbered in _NUMBERED.items():
        for grad, i in zip(term_grads[user], numbered):
            _, coeff, side, cascade, los_weight, spread, denom = rows[i]
            d_mix = grad * coeff
            wirt[side] += (d_mix * los_weight / denom
                           * np.conj(mo.los_sum[i]) * table[cascade])
            d_sum_sq[side] += d_mix * spread / denom

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
             moments: Optional[MomentSet] = None) -> RateReport:
    """The closed-form rates of ``config``'s scenario plus its sum rate."""
    inputs = cf_rate_inputs(config, ris, moments=moments)
    si = config.si_variance(pw.P_b)
    return RateReport.of(config, scenario_rates(inputs, config, pw, si), "cf")


def cf_rates_simplified(config: SystemConfig, ris: StarRisState,
                        pw: PowerConfig) -> RateReport:
    """The NOMA pair's short-form rates: perfect SIC and SI cancellation,
    no surface boost on center-user signals, no BS loop-back.

    The full moment terms with the four omitted surface terms cut back
    to their bases (the direct links, and zero for the loop-back), scored
    by the same kernel as the full forms with Xi = beta = 0.
    """
    _, rows = _cell(config)
    full = cf_rate_inputs(config, ris)
    terms = {user: tuple(rows[i][0] if i in _SHORT_FORM_CUT else term
                         for i, term in zip(numbered, full[user]))
             for user, numbered in _NUMBERED.items()}
    short = config.replace(Xi=0.0, beta=0.0, scenario="noma-pair")
    return RateReport.of(short, scenario_rates(terms, short, pw, 0.0), "cf")


def cf_rates_bidirectional(config: SystemConfig, ris: StarRisState,
                           pw: PowerConfig,
                           moments: Optional[MomentSet] = None
                           ) -> Tuple[float, float]:
    """Closed-form rates (R_c, R_e) of the relayed connections: the
    :func:`cf_rates` of ``config`` as a bidirectional cell, each the
    smaller of its two legs."""
    report = cf_rates(config.replace(scenario="bidirectional"), ris, pw,
                      moments)
    return report.rate("c"), report.rate("e")
