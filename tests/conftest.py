"""Shared scenarios and scalar reference paths for the test suite."""

import math

import numpy as np

from starfd.config import CellGeometry, GeometryAngles, SystemConfig
from starfd.rates_cf import _mix, compute_moments

BASELINE_ANGLES = GeometryAngles(
    az_br=0.8, el_br=1.1,
    az_u1d=2.0, el_u1d=1.3,
    az_u2d=2.9, el_u2d=0.7,
    az_u1u=4.1, el_u1u=1.0,
    az_u2u=5.3, el_u2u=1.5,
    d_over_lambda=0.5,
)


def make_config(**overrides) -> SystemConfig:
    """Baseline scenario (50 m / 30 m disks, N=20, kappa=3, 30 dBW budget)."""
    kwargs = dict(
        geometry=CellGeometry(R=50.0, R_r=30.0, d_br=60.0, m=2.7),
        n_elements=20,
        angles=BASELINE_ANGLES,
        P_t=1000.0,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def star_cascade(g_out, state, side, g_in) -> complex:
    """Scalar cascade sum_n g_out[n] * rho_n * e^{j phi_n} * g_in[n].

    The reference for the simulator's batched cascades, which contract
    the row-wise products of a whole block with the surface response.
    """
    g_out = np.asarray(g_out)
    g_in = np.asarray(g_in)
    if g_out.size != state.n_elements or g_in.size != state.n_elements:
        raise ValueError("channel vector length does not match the surface")
    return complex(np.sum(g_out * state.side(side) * g_in))


def short_form_rates(config, ris, pw):
    """The short-form closed-form rates, written out by hand.

    Perfect SIC and SI cancellation (Xi and beta of ``config`` are
    ignored), no surface boost on center-user signals, no BS loop-back. The
    reference for ``rates_cf.cf_rates_simplified``, which feeds the SINR
    kernel instead.
    """
    mo = compute_moments(config, ris)
    sigma_sq, sigma_b_sq = config.sigma_sq, config.sigma_b_sq
    sinr_u1d = (pw.p_b1 * mo.q_center
                / (pw.p_u1u * mo.rho_2pt
                   + pw.p_u2u * mo.q_edge * mo.upsilon * _mix(mo, 3)
                   + sigma_sq))
    x1_u2d = mo.l_br * mo.q_edge * _mix(mo, 4)
    sinr_u2d = (pw.p_b2 * x1_u2d
                / (pw.p_b1 * x1_u2d
                   + pw.p_u1u * mo.q_edge * mo.upsilon * _mix(mo, 5)
                   + pw.p_u2u * mo.q_edge ** 2 * _mix(mo, 6) + sigma_sq))
    edge_ul = mo.l_br * mo.q_edge * _mix(mo, 8)
    sinr_u1u = pw.p_u1u * mo.q_center / (pw.p_u2u * edge_ul + sigma_b_sq)
    sinr_u2u = pw.p_u2u * edge_ul / sigma_b_sq
    return {u: math.log2(1.0 + g)
            for u, g in (("u1d", sinr_u1d), ("u2d", sinr_u2d),
                         ("u1u", sinr_u1u), ("u2u", sinr_u2u))}


def trial_channels(block, t):
    """Row t of a channel block: path losses, direct scalars and surface
    vectors, each keyed like the block."""
    losses = {k: float(v if np.ndim(v) == 0 else v[t])
              for k, v in block.pathlosses.items()}
    direct = {k: complex(v[t]) for k, v in block.direct.items()}
    surface = {k: v[t] for k, v in block.surface.items()}
    return losses, direct, surface


def scalar_terms(block, t, ris):
    """Trial t's reception terms built one scalar cascade at a time."""
    l, h, g = trial_channels(block, t)
    u1d = (abs(math.sqrt(l["b_u1d"]) * h["b_u1d"]
               + math.sqrt(l["br"] * l["r_u1d"])
               * star_cascade(g["u1d"], ris, "t", g["br"])) ** 2,
           abs(math.sqrt(l["u1d_u1u"]) * h["u1d_u1u"]
               + math.sqrt(l["r_u1d"] * l["r_u1u"])
               * star_cascade(g["u1d"], ris, "t", g["u1u"])) ** 2,
           l["r_u1d"] * l["r_u2u"]
           * abs(star_cascade(g["u1d"], ris, "t", g["u2u"])) ** 2)
    u2d = (l["br"] * l["r_u2d"]
           * abs(star_cascade(g["u2d"], ris, "r", g["br"])) ** 2,
           l["r_u2d"] * l["r_u1u"]
           * abs(star_cascade(g["u2d"], ris, "r", g["u1u"])) ** 2,
           l["r_u2d"] * l["r_u2u"]
           * abs(star_cascade(g["u2d"], ris, "r", g["u2u"])) ** 2)
    # The BS loop-back: the return leg is the conjugate of the outgoing
    # one, so the cascade reduces to sum_n w_n |g_br[n]|^2.
    u1u = (abs(math.sqrt(l["b_u1u"]) * h["b_u1u"]
               + math.sqrt(l["br"] * l["r_u1u"])
               * star_cascade(g["br"], ris, "t", g["u1u"])) ** 2,
           l["br"] * l["r_u2u"]
           * abs(star_cascade(g["br"], ris, "t", g["u2u"])) ** 2,
           l["br"] ** 2
           * abs(np.sum(ris.side("t") * np.abs(g["br"]) ** 2)) ** 2)
    return {"u1d": u1d, "u2d": u2d, "u1u": u1u}
