"""The SINR kernel: the nine reception terms, operative powers, reception
ratios, the scenario rule, the rate report and the constraint margins.

Every rate is log2(1 + SINR) in bits/s/Hz. Every SINR is built from
three reception ratios written once here (downlink, uplink at the
full-duplex BS, and the relay branch of the bidirectional connections)
over the nine terms whose links :data:`RECEPTION_TERMS` lists. The
simulator (:mod:`starfd.rates_mc`) feeds a block of trials' realized
terms as arrays, the closed forms (:mod:`starfd.rates_cf`) their moments
as floats; the aligned designs (:mod:`starfd.designs`) co-phase cascades.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from .config import RATE_NAMES, USERS, SystemConfig, validate_splits
from .record import Record

__all__ = [
    "RECEPTION_TERMS",
    "PowerConfig",
    "RateReport",
    "dl_sinr",
    "ul_sinr",
    "noma_sinrs",
    "relay_branches",
    "relay_leg_rates",
    "binding_legs",
    "scenario_rates",
    "rate_weights",
    "constraint_margins",
]

_BUDGET_RTOL = 1e-9


class PowerConfig(Record):
    """Operative per-signal transmit powers.

    ``p_b1``/``p_b2`` are the BS powers for the center and edge DL signals,
    ``p_u1u``/``p_u2u`` the uplink user powers. The four must fit inside
    the budget ``P_t`` (the allocators always exhaust it, but an
    under-spending configuration is legal). The DL split ``tau`` and the
    NOMA coefficients are derived properties; use :meth:`from_splits` to
    build a configuration from (tau, alpha1, alpha2, ul_split) with the
    NOMA ordering checks. The SIC and self-interference constants and the
    targets describe the cell, so they live on its :class:`SystemConfig`.
    """

    __slots__ = ("P_t", "p_b1", "p_b2", "p_u1u", "p_u2u")

    def __init__(self, P_t: float, p_b1: float, p_b2: float, p_u1u: float,
                 p_u2u: float) -> None:
        self._assign(locals())
        if not 0 < self.P_t < math.inf:
            raise ValueError("total power budget must be positive and finite")
        for name in ("p_b1", "p_b2", "p_u1u", "p_u2u"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        total = self.p_b1 + self.p_b2 + self.p_u1u + self.p_u2u
        if total - self.P_t > _BUDGET_RTOL * self.P_t:
            raise ValueError(
                f"powers sum to {total!r}, over the budget {self.P_t!r}")

    @property
    def P_b(self) -> float:
        return self.p_b1 + self.p_b2

    @property
    def P_u(self) -> float:
        return self.p_u1u + self.p_u2u

    @property
    def tau(self) -> float:
        return self.P_b / self.P_t

    @classmethod
    def from_splits(cls, P_t: float, tau: float, alpha1: float,
                    alpha2: float, ul_split: float = 0.5) -> "PowerConfig":
        """Split the budget as P_b = tau*P_t (DL) and P_u = (1-tau)*P_t."""
        validate_splits(tau, alpha1, alpha2, ul_split)
        P_b = tau * P_t
        P_u = (1.0 - tau) * P_t
        return cls(P_t=P_t, p_b1=alpha1 * P_b, p_b2=alpha2 * P_b,
                   p_u1u=ul_split * P_u, p_u2u=(1.0 - ul_split) * P_u)

    @classmethod
    def from_config(cls, config: SystemConfig) -> "PowerConfig":
        return cls.from_splits(config.P_t, config.tau, config.alpha1,
                               config.alpha2, config.ul_split)


class RateReport(Record):
    """Ergodic rates of one evaluation plus the weighted sum.

    ``rates`` maps each name of ``RATE_NAMES[scenario]`` to its rate: the
    four users of a NOMA pair, or the two end-to-end connection rates
    (center-bound ``c`` and edge-bound ``e``) of the bidirectional case.
    Standard errors, keyed the same way, are present for Monte-Carlo
    estimates only.
    """

    __slots__ = ("scenario", "estimator", "sum_rate", "rates", "trials",
                 "stderr")

    def __init__(self, scenario: str, estimator: str, sum_rate: float,
                 rates: Dict[str, float], trials: Optional[int] = None,
                 stderr: Optional[Dict[str, float]] = None) -> None:
        self._assign(locals())
        if self.scenario not in RATE_NAMES:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.estimator not in ("cf", "mc"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        for name, value in self.rates.items():
            if not 0 <= value < math.inf:
                raise ValueError(f"r_{name} must be finite and non-negative")

    @classmethod
    def of(cls, config: SystemConfig, legs, estimator: str,
           trials: Optional[int] = None, errors=None) -> "RateReport":
        """Report the four rates ``legs`` of :func:`scenario_rates` on
        ``config``, with their standard errors ``errors`` when given."""
        total = math.fsum(w * r for w, r in
                          zip(rate_weights(config, legs), legs))
        picked = (range(len(USERS)) if config.scenario == "noma-pair"
                  else binding_legs(legs))
        names = RATE_NAMES[config.scenario]
        return cls(scenario=config.scenario, estimator=estimator,
                   sum_rate=total,
                   rates={n: legs[k] for n, k in zip(names, picked)},
                   trials=trials,
                   stderr=None if errors is None else
                   {n: errors[k] for n, k in zip(names, picked)})

    def rate(self, name: str) -> float:
        if name not in self.rates:
            raise ValueError(f"report has no rate for {name!r}")
        return self.rates[name]


# The nine reception terms, the (x1, y1, y2) triples of u1d, u2d and u1u
# (u2u reads u1u's with signal and partner swapped). Each is (direct link
# or None, the two links whose path losses scale the cascade, cascade):
# (side, out, in) runs from link ``in`` through surface side ``t`` or
# ``r`` to link ``out``; None is the BS loop-back through side t.
RECEPTION_TERMS = {
    "u1d": (("b_u1d", ("br", "r_u1d"), ("t", "u1d", "br")),
            ("u1d_u1u", ("r_u1d", "r_u1u"), ("t", "u1d", "u1u")),
            (None, ("r_u1d", "r_u2u"), ("t", "u1d", "u2u"))),
    "u2d": ((None, ("br", "r_u2d"), ("r", "u2d", "br")),
            (None, ("r_u2d", "r_u1u"), ("r", "u2d", "u1u")),
            (None, ("r_u2d", "r_u2u"), ("r", "u2d", "u2u"))),
    "u1u": (("b_u1u", ("br", "r_u1u"), ("t", "br", "u1u")),
            (None, ("br", "r_u2u"), ("t", "br", "u2u")),
            (None, ("br", "br"), None)),
}


# The reception kernel. Every SINR of the model is one of three ratios,
# fed either with the realized channel powers of a block of trials, as
# arrays (the simulator), or with their moments, as floats (the closed
# forms, which pass the SI variance as si). The optimizer differentiates it
# by feeding the moments as complex arrays, so no branch may look at a term.

def dl_sinr(terms, own: float, leak: float, pw: PowerConfig,
            sigma_sq: float) -> float:
    """DL reception own*a / (leak*a + p_u1u*c + p_u2u*d + sigma_sq).

    ``terms`` is (a, c, d) at one DL user: the gain of the BS signal and
    of the center and edge uplink users' signals. ``own`` is the BS power
    of the decoded signal, ``leak`` the BS power that interferes with it
    after SIC.
    """
    a, c, d = terms
    return own * a / (leak * a + pw.p_u1u * c + pw.p_u2u * d + sigma_sq)


def ul_sinr(terms, own: float, leak: float, pw: PowerConfig, si: float,
            sigma_b_sq: float) -> float:
    """UL reception own*s / (leak*i + P_b*loop + si + sigma_b_sq) at the BS.

    ``terms`` is (s, i, loop): the gain of the decoded user's signal, of
    its uplink partner's signal, and of the BS loop-back through the
    surface. ``leak`` is the partner's power left in after SIC and ``si``
    the residual self-interference |s~|^2.
    """
    if not np.all(si >= 0):
        raise ValueError("si is a squared magnitude, must be >= 0")
    s, i, loop = terms
    return own * s / (leak * i + pw.P_b * loop + si + sigma_b_sq)


def _log2(x):
    # The closed forms pass floats and keep math.log2; the simulator
    # passes one block of trials as arrays, the optimizer complex probes.
    return np.log2(x) if isinstance(x, np.ndarray) else math.log2(x)


def _relay_sinr(own: float, s: float, other: float, i: float,
                sigma_sq: float) -> float:
    """A DL user hears one uplink user's signal over the other's."""
    return own * s / (other * i + sigma_sq)


def noma_sinrs(terms, config: SystemConfig, pw: PowerConfig,
               si: float) -> Dict[str, float]:
    """SINRs of the four NOMA users from the u1d, u2d and u1u terms.

    The SIC residual ``Xi`` and the noise powers come from ``config``.
    The edge uplink user is decoded from the center uplink terms with
    the signal and partner roles swapped.
    """
    s1, s2, loop = terms["u1u"]
    xi, sigma_sq, sigma_b_sq = config.Xi, config.sigma_sq, config.sigma_b_sq
    return {
        "u1d": dl_sinr(terms["u1d"], pw.p_b1, xi * pw.p_b2, pw, sigma_sq),
        "u2d": dl_sinr(terms["u2d"], pw.p_b2, pw.p_b1, pw, sigma_sq),
        "u1u": ul_sinr(terms["u1u"], pw.p_u1u, pw.p_u2u, pw, si,
                       sigma_b_sq),
        "u2u": ul_sinr((s2, s1, loop), pw.p_u2u, xi * pw.p_u1u, pw, si,
                       sigma_b_sq),
    }


def relay_branches(terms, config: SystemConfig,
                   pw: PowerConfig) -> Tuple[float, float, float, float]:
    """Branch SINRs of the two ratio-combined relay receptions.

    Returns (relay_c, bs_c, relay_e, bs_e): at u1d the u2u message heard
    over the surface and the BS's own signal, at u2d the u1u message and
    the BS signal. The relayed message is wanted there, so it drops out
    of the BS branch's interference.
    """
    a1, c1, d1 = terms["u1d"]
    a2, c2, d2 = terms["u2d"]
    sigma_sq = config.sigma_sq
    return (_relay_sinr(pw.p_u2u, d1, pw.p_u1u, c1, sigma_sq),
            dl_sinr((a1, c1, 0.0), pw.p_b1, config.Xi * pw.p_b2, pw,
                    sigma_sq),
            _relay_sinr(pw.p_u1u, c2, pw.p_u2u, d2, sigma_sq),
            dl_sinr((a2, 0.0, d2), pw.p_b2, pw.p_b1, pw, sigma_sq))


def relay_leg_rates(terms, config: SystemConfig, pw: PowerConfig,
                    si: float) -> Tuple[float, float, float, float]:
    """Rates (r_uc, r_u2u, r_ue, r_u1u) of the four relaying legs.

    r_uc and r_ue are the combined receptions at the DL users, r_u2u and
    r_u1u the BS decode rates of the corresponding UL messages. Each
    relayed connection runs at the min of its two legs.
    """
    relay_c, bs_c, relay_e, bs_e = relay_branches(terms, config, pw)
    ul = noma_sinrs(terms, config, pw, si)
    return (_log2(1.0 + relay_c + bs_c), _log2(1.0 + ul["u2u"]),
            _log2(1.0 + relay_e + bs_e), _log2(1.0 + ul["u1u"]))


def binding_legs(legs) -> Tuple[int, int]:
    """Indices (c, e) into (r_uc, r_u2u, r_ue, r_u1u) of the binding legs.

    Each relayed connection runs at the min of its two legs; on a tie
    the BS decode leg (r_u2u, r_u1u) binds.
    """
    r_uc, r_u2u, r_ue, r_u1u = legs
    return 0 if r_uc < r_u2u else 1, 2 if r_ue < r_u1u else 3


def scenario_rates(terms, config: SystemConfig, pw: PowerConfig,
                   si: float) -> Tuple[float, ...]:
    """The four rates ``config``'s scenario scores: the users' log2(1 +
    SINR) of a NOMA pair, in ``USERS`` order, or the bidirectional case's
    :func:`relay_leg_rates`. Terms are floats, arrays or complex probes.
    """
    if config.scenario == "noma-pair":
        sinrs = noma_sinrs(terms, config, pw, si)
        return tuple(_log2(1.0 + sinrs[u]) for u in USERS)
    return relay_leg_rates(terms, config, pw, si)


def rate_weights(config: SystemConfig, legs) -> Tuple[float, ...]:
    """Each of the four rates' weight in the sum rate of ``config``'s
    scenario: its user weights for a NOMA pair; for the bidirectional sum
    R_c + R_e, 1 on the two binding legs of ``legs`` and 0 elsewhere.
    """
    if config.scenario == "noma-pair":
        return tuple(config.weights[u] for u in USERS)
    binding = binding_legs(legs)
    return tuple(float(k in binding) for k in range(len(legs)))


def constraint_margins(terms, config: SystemConfig, pw: PowerConfig,
                       si: float) -> Dict[str, float]:
    """Slacks (negative = violated) of the budget, the SIC order (the
    center user's decode rate of the edge DL signal over the edge user's
    own) and the edge targets of ``config``; analytic in the terms."""
    sinrs = noma_sinrs(terms, config, pw, si)
    edge_dl = _log2(1.0 + sinrs["u2d"])
    cross = dl_sinr(terms["u1d"], pw.p_b2, pw.p_b1, pw, config.sigma_sq)
    spent = pw.p_b1 + pw.p_b2 + pw.p_u1u + pw.p_u2u
    return {"power_budget": pw.P_t - spent,
            "decoding_order": _log2(1.0 + cross) - edge_dl,
            "edge_dl_target": edge_dl - config.R_dth,
            "edge_ul_target": _log2(1.0 + sinrs["u2u"]) - config.R_uth}
