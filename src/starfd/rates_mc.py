"""The SINR kernel and the Monte-Carlo ergodic-rate estimator.

Every rate is log2(1 + SINR) in bits/s/Hz. Every SINR is built from
three reception ratios written once here: downlink reception, uplink
reception at the full-duplex BS, and the relay branch of the
bidirectional connections. The kernel takes signal and interference
terms of either kind: the simulator feeds it the realized channel
powers of a block of trials as arrays, and the closed forms of
:mod:`starfd.rates_cf` feed it their moments as floats.

The estimator draws positions, channels and a residual self-interference
sample for a block of trials at a time, from a generator keyed by
(master seed, block index). It takes the block's terms once per distinct
surface response and scores them with the same kernel as arrays, for each
(config, surface state, powers) cell it is given. One block of fixed
size is alive at a time, so memory is bounded at any trial count, and
results are independent of execution order and parallelism.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .channel import ChannelBlock, StarRisState, draw_realization
from .config import RATE_NAMES, USERS, SystemConfig, validate_splits
from .record import Record

__all__ = [
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
    "DRAW_FIELDS",
    "draw_key",
    "ergodic_rate_mc",
]

_BUDGET_RTOL = 1e-9
# Trials per Monte-Carlo block: the unit of drawing, scoring and memory.
_BLOCK = 1024
# The config fields that draw_realization reads: the key of a shared draw.
DRAW_FIELDS = ("geometry", "n_elements", "angles", "kappa_br", "kappa_u1d",
               "kappa_u2d", "kappa_u1u", "kappa_u2u")


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
    def of(cls, scenario: str, legs, weights: Dict[str, float],
           estimator: str, trials: Optional[int] = None,
           errors=None) -> "RateReport":
        """Report the four rates ``legs`` of :func:`scenario_rates`, with
        their standard errors ``errors`` when given."""
        picked = (range(len(USERS)) if scenario == "noma-pair"
                  else binding_legs(legs))
        names = RATE_NAMES[scenario]
        total = math.fsum(w * r for w, r in
                          zip(rate_weights(scenario, legs, weights), legs))
        return cls(scenario=scenario, estimator=estimator, sum_rate=total,
                   rates={n: legs[k] for n, k in zip(names, picked)},
                   trials=trials,
                   stderr=None if errors is None else
                   {n: errors[k] for n, k in zip(names, picked)})

    def rate(self, name: str) -> float:
        if name not in self.rates:
            raise ValueError(f"report has no rate for {name!r}")
        return self.rates[name]


def _power(z: np.ndarray) -> np.ndarray:
    return np.abs(z) ** 2


def _block_terms(block: ChannelBlock, ris: StarRisState
                 ) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each trial's realized reception terms, keyed like the moments."""
    l, h, g = block.pathlosses, block.direct, block.surface
    w = {"t": ris.side("t"), "r": ris.side("r")}

    def cascade(out: str, side: str, inp: str) -> np.ndarray:
        # sum_n g_out[n] w_n g_in[n] per trial, with no (trials x N)
        # temporary and no BLAS, so each trial's sum reads its row alone.
        return np.einsum("tn,n,tn->t", g[out], w[side], g[inp])

    u1d = (_power(np.sqrt(l["b_u1d"]) * h["b_u1d"]
                  + np.sqrt(l["br"] * l["r_u1d"]) * cascade("u1d", "t", "br")),
           _power(np.sqrt(l["u1d_u1u"]) * h["u1d_u1u"]
                  + np.sqrt(l["r_u1d"] * l["r_u1u"])
                  * cascade("u1d", "t", "u1u")),
           l["r_u1d"] * l["r_u2u"] * _power(cascade("u1d", "t", "u2u")))
    u2d = (l["br"] * l["r_u2d"] * _power(cascade("u2d", "r", "br")),
           l["r_u2d"] * l["r_u1u"] * _power(cascade("u2d", "r", "u1u")),
           l["r_u2d"] * l["r_u2u"] * _power(cascade("u2d", "r", "u2u")))
    # BS loop-back through the surface: the return leg is the conjugate of
    # the outgoing one, so it is sum_n w_n |g_br[n]|^2, on g_br's floats.
    br, wt = g["br"].view(float), np.repeat(w["t"], 2)
    loop = np.hypot(np.einsum("tj,j,tj->t", br, wt.real, br),
                    np.einsum("tj,j,tj->t", br, wt.imag, br))
    u1u = (_power(np.sqrt(l["b_u1u"]) * h["b_u1u"]
                  + np.sqrt(l["br"] * l["r_u1u"]) * cascade("br", "t", "u1u")),
           l["br"] * l["r_u2u"] * _power(cascade("br", "t", "u2u")),
           l["br"] ** 2 * loop ** 2)
    return {"u1d": u1d, "u2d": u2d, "u1u": u1u}


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


def scenario_rates(terms, config: SystemConfig, pw: PowerConfig, si: float,
                   scenario: str) -> Tuple[float, ...]:
    """The four rates a scenario scores: the users' log2(1 + SINR) of a
    NOMA pair, in ``USERS`` order, or the bidirectional case's
    :func:`relay_leg_rates`. Terms are floats, arrays or complex probes.
    """
    if scenario == "noma-pair":
        sinrs = noma_sinrs(terms, config, pw, si)
        return tuple(_log2(1.0 + sinrs[u]) for u in USERS)
    if scenario == "bidirectional":
        return relay_leg_rates(terms, config, pw, si)
    raise ValueError(f"unknown scenario {scenario!r}")


def rate_weights(scenario: str, legs,
                 weights: Dict[str, float]) -> Tuple[float, ...]:
    """Each of the four rates' weight in the scenario's sum rate: the
    users' ``weights`` for a NOMA pair; for the bidirectional sum
    R_c + R_e, 1 on the two binding legs of ``legs`` and 0 elsewhere.
    """
    if scenario == "noma-pair":
        return tuple(weights[u] for u in USERS)
    binding = binding_legs(legs)
    return tuple(float(k in binding) for k in range(len(legs)))


def _blocks(config: SystemConfig, ris: StarRisState, trials: int,
            seed: int):
    """The trial stream as blocks of at most ``_BLOCK`` trials.

    Block b holds trials b * _BLOCK onward and draws them from a
    generator keyed by (seed, b).
    """
    for b, start in enumerate(range(0, trials, _BLOCK)):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        yield draw_realization(config, ris, rng, min(_BLOCK, trials - start))


def _block_si(block: ChannelBlock, config: SystemConfig,
              pw: PowerConfig) -> np.ndarray:
    # s~ is CN(0, V) with V the config's SI variance at the BS power; the
    # SINRs consume |s~|^2. The pair is drawn for every trial so the
    # stream layout does not depend on beta.
    return (0.5 * config.si_variance(pw.P_b)
            * np.sum(block.si_pair ** 2, axis=1))


def _mean_and_stderr(counts, sums, m2s) -> Tuple[float, float]:
    """Mean and its standard error from per-block counts, sums and sums
    of squared deviations from the block mean (Chan et al.'s pairwise
    combination)."""
    n = sum(counts)
    mean = math.fsum(sums) / n
    if n < 2:
        return mean, 0.0
    m2 = math.fsum(m2s) + math.fsum(
        c * (s / c - mean) ** 2 for c, s in zip(counts, sums))
    return mean, math.sqrt(m2 / (n - 1) / n)


def draw_key(config: SystemConfig) -> tuple:
    """The values of ``config``'s :data:`DRAW_FIELDS`: cells whose configs
    share this key can share their draws."""
    return tuple(getattr(config, name) for name in DRAW_FIELDS)


def _checked_cells(cells) -> List[tuple]:
    """``cells`` as a list, each cell checked for type and surface size,
    and all of them for a common draw key."""
    try:
        cells = [(config, ris, pw) for config, ris, pw in cells]
    except (TypeError, ValueError):
        cells = None
    if cells is None or not all(isinstance(config, SystemConfig)
                                and isinstance(ris, StarRisState)
                                and isinstance(pw, PowerConfig)
                                for config, ris, pw in cells):
        raise TypeError("cells must be a list of (SystemConfig, "
                        "StarRisState, PowerConfig) triples, such as "
                        "[(config, state, pw)]")
    if any(ris.n_elements != config.n_elements for config, ris, _ in cells):
        raise ValueError("surface state size does not match the config")
    if len({draw_key(config) for config, _, _ in cells}) > 1:
        raise ValueError("cells on one stream must agree on the config "
                         "fields the draw reads: " + ", ".join(DRAW_FIELDS))
    return cells


def ergodic_rate_mc(cells, trials: int, seed: int,
                    scenario: str = "noma-pair") -> List[RateReport]:
    """Monte-Carlo ergodic rates over positions, channels and SI draws.

    Scores every (config, surface state, powers) cell of ``cells`` on one
    trial stream and returns one report per cell, in order. The draw
    reads only the configs' :data:`DRAW_FIELDS`, on which the cells must
    agree, so each block is drawn once, its terms are taken once per
    distinct surface response (equal states need not be one object), and
    every cell is scored on them with its own config: the cells'
    estimates use common random numbers, and a one-cell call gives the
    same report as that cell in any longer list.

    Trials are drawn and scored in blocks of at most ``_BLOCK``, block b
    from a generator keyed by (seed, b), so memory is one block plus the
    per-cell sums at any ``trials``, and the estimate is independent of
    execution order. Block sums use compensated summation, so it is
    exactly reproducible.

    For the bidirectional scenario the ergodic connection rate is the min
    of the two ergodic leg rates (matching the closed forms); the reported
    standard error is the binding leg's.
    """
    cells = _checked_cells(cells)
    if trials < 1:
        raise ValueError("need at least one trial")
    if not cells:
        return []

    counts, sums, m2s = [], [[] for _ in cells], [[] for _ in cells]
    groups = {}
    for k, (config, ris, pw) in enumerate(cells):
        key = np.concatenate([ris.side("t"), ris.side("r")]).tobytes()
        groups.setdefault(key, (ris, []))[1].append((k, config, pw))
    for block in _blocks(*cells[0][:2], trials, seed):
        counts.append(block.size)
        for ris, members in groups.values():
            terms = _block_terms(block, ris)
            for k, config, pw in members:
                rates = np.array(scenario_rates(
                    terms, config, pw, _block_si(block, config, pw), scenario))
                # fsum runs faster over Python floats than numpy scalars.
                sums[k].append([math.fsum(row) for row in rates.tolist()])
                means = np.array(sums[k][-1]) / block.size
                m2s[k].append(np.sum((rates - means[:, None]) ** 2, axis=1))
        del block  # release block b before block b + 1 is drawn

    reports = []
    for (config, _, _), cell_sums, cell_m2s in zip(cells, sums, m2s):
        means, errors = zip(*(_mean_and_stderr(counts, s, m) for s, m
                              in zip(zip(*cell_sums), zip(*cell_m2s))))
        reports.append(RateReport.of(scenario, means, config.weights, "mc",
                                     trials, errors))
    return reports
