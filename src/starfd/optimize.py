"""Sum-rate maximization: projected gradient ascent over the surface
coefficients, channel-aligned phase designs, and constraint validation.

The ascent objective is always the scenario's closed-form sum rate, so a
run is deterministic given its initial state. Its gradient is analytic,
in O(N) per iteration: the partials in the nine moment terms come from
the SINR kernel itself by complex step, and the chain rule carries them
through the few surface scalars the moments depend on.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .channel import StarRisState, element_layout
from .config import GeometryAngles, SystemConfig
from .rates_cf import (CfRateInputs, MomentSet, cf_rate_inputs, cf_rates,
                       compute_moments, surface_gradient)
from .rates_mc import (PowerConfig, dl_sinr, noma_sinrs, rate_weights,
                       relay_branches, scenario_rates)
from .record import Record

__all__ = [
    "ConstraintCheck",
    "ConstraintReport",
    "OptimizationResult",
    "project_phases",
    "project_amplitudes",
    "suboptimal_phases",
    "suboptimal_phases_bidirectional",
    "aligned_state",
    "pgam",
    "validate_constraints",
]

# Backtracking floor: a step size below this means no ascent direction is
# left at working precision, which we treat as convergence.
_MU_MIN = 1e-12
# Complex-step size: far below any term's scale, so Im f(t + ih) / h is
# the partial to rounding, and no difference is ever taken.
_CS_STEP = 1e-30
# The moment triples the gradient differentiates; u2u reads u1u's terms.
_TRIPLES = ("u1d", "u2d", "u1u")


class ConstraintCheck(Record):
    __slots__ = ("ok", "margin")

    def __init__(self, ok: bool, margin: float) -> None:
        self._assign(locals())


class ConstraintReport(Record):
    """Booleans plus numeric margins for the problem constraints.

    For the budget, decoding-order and target checks the margin is the
    slack (negative = violated); for the energy-splitting check it is
    the largest deviation (positive = violated). Unit modulus needs no
    check: phases are stored as angles, so it holds by construction.
    """

    __slots__ = ("power_budget", "decoding_order", "edge_dl_target",
                 "edge_ul_target", "energy_split")

    def __init__(self, power_budget: ConstraintCheck,
                 decoding_order: ConstraintCheck,
                 edge_dl_target: ConstraintCheck,
                 edge_ul_target: ConstraintCheck,
                 energy_split: ConstraintCheck) -> None:
        self._assign(locals())

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, name).ok for name in self.__slots__)


class OptimizationResult(Record):
    """Outcome of one ascent run; a bidirectional run has no constraints."""

    __slots__ = ("state", "pw", "trace", "reason", "constraints")

    def __init__(self, state: StarRisState, pw: PowerConfig,
                 trace: np.ndarray, reason: str,
                 constraints: Optional[ConstraintReport]) -> None:
        self._assign(locals())
        if self.reason not in ("converged", "max-iters"):
            raise ValueError(f"unknown termination reason {self.reason!r}")
        object.__setattr__(self, "trace",
                           np.asarray(self.trace, dtype=float))

    @property
    def objective(self) -> float:
        return float(self.trace[-1])

    @property
    def iterations(self) -> int:
        return int(self.trace.size - 1)


def project_phases(theta_raw: Sequence[complex]) -> np.ndarray:
    """Normalize each entry to unit modulus, preserving its phase.

    A zero entry has no phase; it maps to 1 by convention.
    """
    theta = np.asarray(theta_raw, dtype=complex)
    mag = np.abs(theta)
    out = np.ones_like(theta)
    nz = mag > 0.0
    out[nz] = theta[nz] / mag[nz]
    return out


def project_amplitudes(rho_t_raw: Sequence[float],
                       rho_r_raw: Sequence[float]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-element Euclidean projection onto {rho_t + rho_r = 1, both >= 0}.

    The segment is 1-D: with p the projected rho_t, the unconstrained
    minimizer of (p - a)^2 + (1 - p - b)^2 is p = (a - b + 1)/2, clipped
    to [0, 1].
    """
    a = np.asarray(rho_t_raw, dtype=float)
    b = np.asarray(rho_r_raw, dtype=float)
    if a.shape != b.shape:
        raise ValueError("amplitude arrays must share a length")
    p = np.clip((a - b + 1.0) / 2.0, 0.0, 1.0)
    return p, 1.0 - p


def _alignment_phase(n_elements: int, d_over_lambda: float, s: float,
                     c: float) -> np.ndarray:
    """Phases -2*pi*(d/lambda)*(x_n*s + y_n*c) on the element grid."""
    x, y = element_layout(n_elements)
    return -2.0 * math.pi * d_over_lambda * (x * s + y * c)


def suboptimal_phases(angles: GeometryAngles, n_elements: int,
                      d_over_lambda: float
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Channel-aligned phase design toward the two cell-edge users.

    Side t aligns the BS-surface-u2u cascade, side r the BS-surface-u2d
    cascade: phi_n^k = -2*pi*(d/lambda)*(x_n*t_k + y_n*l_k) with
    t_k = sin(az_br)sin(el_br) - sin(az_k)sin(el_k) and
    l_k = cos(el_br) - cos(el_k).
    """
    s_br = math.sin(angles.az_br) * math.sin(angles.el_br)
    c_br = math.cos(angles.el_br)
    t_t = s_br - math.sin(angles.az_u2u) * math.sin(angles.el_u2u)
    l_t = c_br - math.cos(angles.el_u2u)
    t_r = s_br - math.sin(angles.az_u2d) * math.sin(angles.el_u2d)
    l_r = c_br - math.cos(angles.el_u2d)
    return (_alignment_phase(n_elements, d_over_lambda, t_t, l_t),
            _alignment_phase(n_elements, d_over_lambda, t_r, l_r))


def _link_direction(angles: GeometryAngles, link: str) -> Tuple[float, float]:
    az, el = angles.link(link)
    return math.sin(az) * math.sin(el), math.cos(el)


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

    ones = np.ones(n)
    rho_kwargs = dict(rho_t=rho_t * ones, rho_r=(1.0 - rho_t) * ones)

    def branches(phi_t: np.ndarray, phi_r: np.ndarray):
        state = StarRisState(phi_t=phi_t, phi_r=phi_r, **rho_kwargs)
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
        phi_t, phi_r = suboptimal_phases(config.angles, config.n_elements,
                                         config.angles.d_over_lambda)
    ones = np.ones(config.n_elements)
    return StarRisState(rho_t=rho_t * ones, rho_r=(1.0 - rho_t) * ones,
                        phi_t=phi_t, phi_r=phi_r)


def _term_partials(f: Callable[[Dict[str, Tuple]], np.ndarray],
                   inputs: Dict[str, CfRateInputs]) -> Dict[str, np.ndarray]:
    """Partials of ``f`` in the u1d, u2d and u1u moment terms.

    Complex step (Squire and Trapp, SIAM Review 1998): term k gets the
    probe i*h*e_k, and d f / d t_k = Im f / h. The nine probes run as one
    evaluation of ``f`` on arrays of nine complex entries. This is exact
    to rounding only while ``f`` is analytic in the terms: no abs,
    comparison or min may act on them. The kernel meets this (its
    ``si >= 0`` check reads si only); a choice between rates has to be
    made on real values before the probe.
    """
    base = np.array([list(inputs[u]) for u in _TRIPLES]).reshape(9, 1)
    probed = base + 1j * _CS_STEP * np.eye(9)
    terms = {u: tuple(probed[3 * k:3 * k + 3])
             for k, u in enumerate(_TRIPLES)}
    partials = np.imag(f(terms)).reshape(3, 3) / _CS_STEP
    return dict(zip(_TRIPLES, partials))


def _make_objective(config: SystemConfig, pw: PowerConfig,
                    scenario: str) -> Tuple[Callable, Callable]:
    """The scenario's sum rate and its gradient in (phi_t, phi_r, rho_t,
    rho_r).

    ``evaluate(state)`` returns the objective with the moments it
    assembled; ``gradient(state, moments)`` takes the state's moments
    back, so an accepted state's moments are assembled once.
    """
    si = config.si_variance(pw.P_b)

    def rates(terms):
        return scenario_rates(terms, config, pw, si, scenario)

    def evaluate(state: StarRisState) -> Tuple[float, MomentSet]:
        moments = compute_moments(config, state)
        report = cf_rates(config, state, pw, scenario, moments)
        return report.sum_rate, moments

    def gradient(state: StarRisState,
                 moments: MomentSet) -> Tuple[np.ndarray, ...]:
        inputs = cf_rate_inputs(config, state, moments=moments)
        # Any choice between legs is fixed on the real rates, so the
        # probed sum stays analytic in the terms.
        weights = rate_weights(scenario, rates(inputs), config.weights)

        def rate_sum(terms):
            return sum(w * r for w, r in zip(weights, rates(terms)))

        return surface_gradient(config, state,
                                _term_partials(rate_sum, inputs), moments)

    return evaluate, gradient


def _ascent_step(state: StarRisState, grads: Tuple[np.ndarray, ...],
                 mu: float, alpha_scale: float) -> StarRisState:
    g_phi_t, g_phi_r, g_rho_t, g_rho_r = grads
    new_phis = []
    for phi, grad in ((state.phi_t, g_phi_t), (state.phi_r, g_phi_r)):
        theta = np.exp(1j * phi)
        # The gradient holds d f / d phi; the corresponding manifold
        # gradient in theta is (df/dphi) * j*theta. Stepping in
        # the embedding space and renormalizing is the projected update.
        theta_new = project_phases(theta + mu * grad * (1j * theta))
        new_phis.append(np.angle(theta_new))
    rho_t, rho_r = project_amplitudes(
        state.rho_t + alpha_scale * mu * g_rho_t,
        state.rho_r + alpha_scale * mu * g_rho_r)
    return StarRisState(rho_t=rho_t, rho_r=rho_r,
                        phi_t=new_phis[0], phi_r=new_phis[1])


def pgam(config: SystemConfig, pw: PowerConfig, init: StarRisState,
         mu: float = 0.5, alpha_scale: float = 1.0, eps: float = 1e-9,
         L: int = 500, scenario: str = "noma-pair") -> OptimizationResult:
    """Projected gradient ascent over surface phases and amplitudes.

    Maximizes the scenario's closed-form sum rate, with the weights of
    ``config``, starting from ``init``.
    Each iteration takes the analytic gradient at the current state (no
    objective evaluation, and no moment assembly: it reuses the moments
    built when the state was evaluated) and evaluates the objective at
    the candidate.
    The step size halves whenever a step would lower the objective, which
    guarantees a monotone trace; the run stops once a step gains less
    than ``eps``, or when no step down to 1e-12 gains at all. The
    constraints are the NOMA pair's, so a bidirectional run reports none.
    """
    if not mu > 0 or not eps > 0 or L < 1:
        raise ValueError("need mu > 0, eps > 0 and L >= 1")
    if not alpha_scale > 0:
        raise ValueError("alpha_scale must be positive")
    evaluate, gradient = _make_objective(config, pw, scenario)

    current, moments = evaluate(init)
    if not math.isfinite(current):
        raise ValueError("objective is not finite at the initial state")

    state = init
    trace = [current]
    reason = "max-iters"
    step = mu
    for _ in range(L):
        grads = gradient(state, moments)
        candidate = _ascent_step(state, grads, step, alpha_scale)
        value, candidate_moments = evaluate(candidate)
        while value < current and step > _MU_MIN:
            step /= 2.0
            candidate = _ascent_step(state, grads, step, alpha_scale)
            value, candidate_moments = evaluate(candidate)
        if value < current:
            # No ascent possible at the smallest step: a fixed point.
            reason = "converged"
            break
        state, moments = candidate, candidate_moments
        trace.append(value)
        improvement = value - current
        current = value
        if improvement < eps:
            reason = "converged"
            break

    report = (None if scenario == "bidirectional"
              else validate_constraints(config, state, pw))
    return OptimizationResult(state=state, pw=pw, trace=np.array(trace),
                              reason=reason, constraints=report)


def validate_constraints(config: SystemConfig, ris: StarRisState,
                         pw: PowerConfig, tol: float = 1e-9
                         ) -> ConstraintReport:
    """Check the optimization problem's constraints with numeric margins.

    The budget margin is the unspent power; the decoding-order margin is
    the closed-form gap between the center user's decode rate of the
    edge signal and the edge user's own rate; the target margins compare
    the edge users' closed-form NOMA-pair rates against the targets of
    ``config``. The energy-splitting check reports the worst per-element
    deviation.
    """
    spent = pw.p_b1 + pw.p_b2 + pw.p_u1u + pw.p_u2u
    budget_margin = pw.P_t - spent
    power_budget = ConstraintCheck(budget_margin >= -tol * pw.P_t,
                                   budget_margin)

    # SIC order: the center user must decode the edge DL signal at least
    # as well as the edge user does.
    inputs = cf_rate_inputs(config, ris)
    gammas = noma_sinrs(inputs, config, pw, config.si_variance(pw.P_b))
    edge_dl_rate = math.log2(1.0 + gammas["u2d"])
    cross = dl_sinr(inputs["u1d"], pw.p_b2, pw.p_b1, pw, config.sigma_sq)
    order_margin = math.log2(1.0 + cross) - edge_dl_rate
    decoding_order = ConstraintCheck(order_margin >= -tol, order_margin)

    dl_margin = edge_dl_rate - config.R_dth
    ul_margin = math.log2(1.0 + gammas["u2u"]) - config.R_uth
    edge_dl = ConstraintCheck(dl_margin >= -tol, dl_margin)
    edge_ul = ConstraintCheck(ul_margin >= -tol, ul_margin)

    split_dev = float(np.max(np.abs(ris.rho_t + ris.rho_r - 1.0)))
    neg_dev = float(max(0.0, -np.min(ris.rho_t), -np.min(ris.rho_r)))
    es_margin = max(split_dev, neg_dev)
    energy_split = ConstraintCheck(es_margin <= tol, es_margin)

    return ConstraintReport(power_budget=power_budget,
                            decoding_order=decoding_order,
                            edge_dl_target=edge_dl,
                            edge_ul_target=edge_ul,
                            energy_split=energy_split)
