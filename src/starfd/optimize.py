"""Sum-rate maximization: projected gradient ascent over the surface
coefficients, and constraint validation.

The ascent objective is always the scenario's closed-form sum rate, so a
run is deterministic given its initial state (usually an aligned design
of :mod:`starfd.designs`). Its gradient is analytic, in O(N) per
iteration: the partials in the nine moment terms come from the SINR
kernel itself by complex step, and the chain rule carries them through
the few surface scalars the moments depend on.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .channel import StarRisState
from .config import SystemConfig
from .kernel import (PowerConfig, RateReport, constraint_margins,
                     rate_weights, scenario_rates)
from .rates_cf import (CfRateInputs, cf_rate_inputs, compute_moments,
                       surface_gradient)
from .record import Record

__all__ = [
    "ConstraintCheck",
    "ConstraintReport",
    "OptimizationResult",
    "project_amplitudes",
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


def _make_objective(config: SystemConfig,
                    pw: PowerConfig) -> Tuple[Callable, Callable]:
    """The sum rate of ``config``'s scenario and its gradient in (phi_t,
    phi_r, rho_t, rho_r).

    ``evaluate(state)`` returns the objective with the state's assembly:
    its moments, their rate inputs and the kernel's rates.
    ``gradient(state, assembly)`` takes that assembly back, so an
    accepted state is assembled once.
    """
    si = config.si_variance(pw.P_b)

    def rates(terms):
        return scenario_rates(terms, config, pw, si)

    def evaluate(state: StarRisState) -> Tuple[float, Tuple]:
        moments = compute_moments(config, state)
        inputs = cf_rate_inputs(config, state, moments=moments)
        legs = rates(inputs)
        report = RateReport.of(config, legs, "cf")
        return report.sum_rate, (moments, inputs, legs)

    def gradient(state: StarRisState,
                 assembly: Tuple) -> Tuple[np.ndarray, ...]:
        moments, inputs, legs = assembly
        # Any choice between legs is fixed on the real rates, so the
        # probed sum stays analytic in the terms.
        weights = rate_weights(config, legs)

        def rate_sum(terms):
            return sum(w * r for w, r in zip(weights, rates(terms)))

        return surface_gradient(config, state,
                                _term_partials(rate_sum, inputs), moments)

    return evaluate, gradient


def _ascent_step(state: StarRisState, grads: Tuple[np.ndarray, ...],
                 mu: float, alpha_scale: float) -> StarRisState:
    g_phi_t, g_phi_r, g_rho_t, g_rho_r = grads
    # The projected update of each unit-modulus coefficient theta = e^{j phi}
    # steps along the manifold gradient (df/dphi) * j*theta and
    # renormalizes: theta (1 + j mu g) / |1 + j mu g|, a rotation by
    # arctan(mu g).
    rho_t, rho_r = project_amplitudes(
        state.rho_t + alpha_scale * mu * g_rho_t,
        state.rho_r + alpha_scale * mu * g_rho_r)
    return StarRisState(rho_t=rho_t, rho_r=rho_r,
                        phi_t=state.phi_t + np.arctan(mu * g_phi_t),
                        phi_r=state.phi_r + np.arctan(mu * g_phi_r))


def pgam(config: SystemConfig, pw: PowerConfig, init: StarRisState,
         mu: float = 0.5, alpha_scale: float = 1.0, eps: float = 1e-9,
         L: int = 500) -> OptimizationResult:
    """Projected gradient ascent over surface phases and amplitudes.

    Maximizes the closed-form sum rate of ``config``'s scenario, with its
    weights, starting from ``init``.
    Each iteration takes the analytic gradient at the current state (no
    objective evaluation, and no assembly: it reuses the moments, rate
    inputs and rates built when the state was evaluated) and evaluates
    the objective at the candidate.
    The step size halves whenever a step would lower the objective, which
    guarantees a monotone trace; the run stops once a step gains less
    than ``eps``, or when no step down to 1e-12 gains at all. The
    constraints are the NOMA pair's, so a bidirectional run reports none.
    """
    if not mu > 0 or not eps > 0 or L < 1:
        raise ValueError("need mu > 0, eps > 0 and L >= 1")
    if not alpha_scale > 0:
        raise ValueError("alpha_scale must be positive")
    evaluate, gradient = _make_objective(config, pw)

    current, assembly = evaluate(init)
    if not math.isfinite(current):
        raise ValueError("objective is not finite at the initial state")

    state = init
    trace = [current]
    reason = "max-iters"
    step = mu
    for _ in range(L):
        grads = gradient(state, assembly)
        candidate = _ascent_step(state, grads, step, alpha_scale)
        value, candidate_assembly = evaluate(candidate)
        while value < current and step > _MU_MIN:
            step /= 2.0
            candidate = _ascent_step(state, grads, step, alpha_scale)
            value, candidate_assembly = evaluate(candidate)
        if value < current:
            # No ascent possible at the smallest step: a fixed point.
            reason = "converged"
            break
        state, assembly = candidate, candidate_assembly
        trace.append(value)
        improvement = value - current
        current = value
        if improvement < eps:
            reason = "converged"
            break

    report = (None if config.scenario == "bidirectional"
              else _constraint_report(config, state, pw, assembly[1]))
    return OptimizationResult(state=state, pw=pw, trace=np.array(trace),
                              reason=reason, constraints=report)


def validate_constraints(config: SystemConfig, ris: StarRisState,
                         pw: PowerConfig, tol: float = 1e-9
                         ) -> ConstraintReport:
    """Check the optimization problem's constraints with numeric margins:
    the kernel's :func:`~starfd.kernel.constraint_margins` of the state's
    closed-form rate inputs, against the targets of ``config``, and the
    worst per-element deviation from the energy split."""
    return _constraint_report(config, ris, pw, cf_rate_inputs(config, ris),
                              tol)


def _constraint_report(config: SystemConfig, ris: StarRisState,
                       pw: PowerConfig, inputs: Dict[str, CfRateInputs],
                       tol: float = 1e-9) -> ConstraintReport:
    """:func:`validate_constraints` with ``ris``'s rate inputs given."""
    margins = constraint_margins(inputs, config, pw,
                                 config.si_variance(pw.P_b))
    floor = {"power_budget": -tol * pw.P_t}
    checks = {name: ConstraintCheck(margin >= floor.get(name, -tol), margin)
              for name, margin in margins.items()}
    split_dev = float(np.max(np.abs(ris.rho_t + ris.rho_r - 1.0)))
    neg_dev = float(max(0.0, -np.min(ris.rho_t), -np.min(ris.rho_r)))
    es_margin = max(split_dev, neg_dev)
    return ConstraintReport(**checks, energy_split=ConstraintCheck(
        es_margin <= tol, es_margin))
