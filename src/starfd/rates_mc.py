"""The Monte-Carlo ergodic-rate estimator and its block channel draw.

Direct links (BS-user and user-user) are Rayleigh; surface links are
Rician around the steering-vector LoS components of
:mod:`starfd.channel`. The estimator draws positions, channels and a
residual self-interference sample for a block of trials at a time, from
a generator keyed by (master seed, block index). It takes the block's
terms once per distinct surface response and scores them as arrays with
the SINR kernel of :mod:`starfd.kernel`, for each (config, surface
state, powers) cell it is given. One block of fixed size is alive at a
time, so memory is bounded at any trial count, and results are
independent of execution order and parallelism.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from .channel import StarRisState, _los_vectors
from .config import RIS_LINKS, SystemConfig
from .geometry import pathloss
from .kernel import (RECEPTION_TERMS, PowerConfig, RateReport,
                     scenario_rates)
from .record import Frozen
from .streams import keyed_rng

__all__ = [
    "ChannelBlock",
    "draw_realization",
    "DRAW_FIELDS",
    "draw_key",
    "ergodic_rate_mc",
]

# Trials per Monte-Carlo block: the unit of drawing, scoring and memory.
_BLOCK = 1024
# The config fields that draw_realization reads: the key of a shared draw.
DRAW_FIELDS = ("geometry", "n_elements", "angles", "kappa_br", "kappa_u1d",
               "kappa_u2d", "kappa_u1u", "kappa_u2u")
# The disk each user is uniform on, in the block draw's order.
USER_REGIONS = {"u1d": "center", "u2d": "edge", "u1u": "center",
                "u2u": "edge"}


class ChannelBlock(Frozen):
    """``size`` independent draws of every link, one row per trial.

    ``radius`` and ``angle`` give each user's polar position in its own
    disk. ``pathlosses`` maps the direct links b_u1d, b_u1u, u1d_u1u and
    the surface-user links r_u1d, r_u2d, r_u1u, r_u2u to per-trial
    arrays, and the fixed BS-surface link br to one float. ``direct``
    holds the Rayleigh scalars h_b_u1d, h_b_u1u, h_u1d_u1u (``size``
    each); ``surface`` the Rician vectors of the links br, u1d, u2d, u1u
    and u2u (``size`` x N each); ``si_pair`` the two standard normals
    per trial behind the residual self-interference.
    """

    __slots__ = ("radius", "angle", "pathlosses", "direct", "surface",
                 "si_pair")

    def __init__(self, radius: Dict[str, np.ndarray],
                 angle: Dict[str, np.ndarray],
                 pathlosses: Dict[str, np.ndarray],
                 direct: Dict[str, np.ndarray],
                 surface: Dict[str, np.ndarray],
                 si_pair: np.ndarray) -> None:
        self._assign(locals())

    @property
    def size(self) -> int:
        return int(self.si_pair.shape[0])


def _standard_cn(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries from pairs of standard normals."""
    pairs = rng.standard_normal((*shape, 2))
    pairs /= math.sqrt(2.0)
    return pairs.view(complex)[..., 0]


def _surface_user_distance(radius: np.ndarray, angle: np.ndarray,
                           d_br: float) -> np.ndarray:
    # Center-disk users are placed relative to the BS at the origin while
    # the surface sits at (d_br, 0); law of cosines gives the separation.
    return np.sqrt(radius ** 2 + d_br ** 2
                   - 2.0 * radius * d_br * np.cos(angle))


def draw_realization(config: SystemConfig, rng: np.random.Generator,
                     size: int) -> ChannelBlock:
    """Draw positions, path losses and all channels for ``size`` trials.

    The draw order (positions, direct scalars, surface vectors, SI pair)
    is fixed so a given generator state always produces the same block.
    """
    geom = config.geometry
    n = config.n_elements

    # Uniform on each user's disk: radius density 2r/R^2, uniform angle.
    uniforms = rng.random((2, len(USER_REGIONS), size))
    radius, angle = {}, {}
    for k, (user, region) in enumerate(USER_REGIONS.items()):
        radius_max = geom.R if region == "center" else geom.R_r
        radius[user] = radius_max * np.sqrt(uniforms[0, k])
        angle[user] = 2.0 * math.pi * uniforms[1, k]

    h = _standard_cn(rng, (3, size))
    direct = {"b_u1d": h[0], "b_u1u": h[1], "u1d_u1u": h[2]}

    los = _los_vectors(n, config.angles)
    # Each link's rows become sqrt(1/(k+1)) * CN(0, I) + sqrt(k/(k+1)) * los
    # in place, so a block holds one copy of its surface vectors.
    nlos = _standard_cn(rng, (len(RIS_LINKS), size, n))
    surface = {}
    for g, link in zip(nlos, RIS_LINKS):
        kappa = getattr(config, f"kappa_{link}")
        g *= math.sqrt(1.0 / (kappa + 1.0))
        g += math.sqrt(kappa / (kappa + 1.0)) * los[link]
        surface[link] = g

    si_pair = rng.standard_normal((size, 2))

    d_u1d_u1u = np.sqrt(
        radius["u1d"] ** 2 + radius["u1u"] ** 2
        - 2.0 * radius["u1d"] * radius["u1u"]
        * np.cos(angle["u1d"] - angle["u1u"]))
    distances = {
        "b_u1d": radius["u1d"],
        "b_u1u": radius["u1u"],
        "u1d_u1u": d_u1d_u1u,
        "br": geom.d_br,
        "r_u1d": _surface_user_distance(radius["u1d"], angle["u1d"],
                                        geom.d_br),
        "r_u2d": radius["u2d"],
        "r_u1u": _surface_user_distance(radius["u1u"], angle["u1u"],
                                        geom.d_br),
        "r_u2u": radius["u2u"],
    }
    losses = {k: pathloss(d, geom.m) for k, d in distances.items()}

    return ChannelBlock(radius=radius, angle=angle, pathlosses=losses,
                        direct=direct, surface=surface, si_pair=si_pair)


def _power(z: np.ndarray) -> np.ndarray:
    return np.abs(z) ** 2


def _block_terms(block: ChannelBlock, ris: StarRisState
                 ) -> Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each trial's realized reception terms, keyed like the moments."""
    l, h, g = block.pathlosses, block.direct, block.surface
    w = {"t": ris.side("t"), "r": ris.side("r")}

    def term(direct, links, cascade) -> np.ndarray:
        scale = l[links[0]] * l[links[1]]
        if cascade is None:
            # BS loop-back through the surface: the return leg is the
            # conjugate of the outgoing one, so it is sum_n w_n |g_br[n]|^2,
            # on g_br's floats.
            br, wt = g["br"].view(float), np.repeat(w["t"], 2)
            loop = np.hypot(np.einsum("tj,j,tj->t", br, wt.real, br),
                            np.einsum("tj,j,tj->t", br, wt.imag, br))
            return scale * loop ** 2
        side, out, inp = cascade
        # sum_n g_out[n] w_n g_in[n] per trial, with no (trials x N)
        # temporary and no BLAS, so each trial's sum reads its row alone.
        s = np.einsum("tn,n,tn->t", g[out], w[side], g[inp])
        if direct is None:
            return scale * _power(s)
        return _power(np.sqrt(l[direct]) * h[direct] + np.sqrt(scale) * s)

    return {user: tuple(term(*t) for t in triple)
            for user, triple in RECEPTION_TERMS.items()}


def _blocks(config: SystemConfig, trials: int, seed: int):
    """The trial stream as blocks of at most ``_BLOCK`` trials.

    Block b holds trials b * _BLOCK onward and draws them from a
    generator keyed by (seed, b).
    """
    for b, start in enumerate(range(0, trials, _BLOCK)):
        yield draw_realization(config, keyed_rng(seed, b),
                               min(_BLOCK, trials - start))


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


def ergodic_rate_mc(cells, trials: int, seed: int) -> List[RateReport]:
    """Monte-Carlo ergodic rates over positions, channels and SI draws.

    Scores every (config, surface state, powers) cell of ``cells`` on one
    trial stream and returns one report per cell, in order. The draw
    reads only the configs' :data:`DRAW_FIELDS`, on which the cells must
    agree, so each block is drawn once, its terms are taken once per
    distinct surface response (equal states need not be one object), and
    every cell is scored on them with its own config, under its own
    scenario: the cells' estimates use common random numbers, and a
    one-cell call gives the same report as that cell in any longer list.

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
    for block in _blocks(cells[0][0], trials, seed):
        counts.append(block.size)
        for ris, members in groups.values():
            terms = _block_terms(block, ris)
            for k, config, pw in members:
                rates = np.array(scenario_rates(
                    terms, config, pw, _block_si(block, config, pw)))
                # fsum runs faster over Python floats than numpy scalars.
                sums[k].append([math.fsum(row) for row in rates.tolist()])
                means = np.array(sums[k][-1]) / block.size
                m2s[k].append(np.sum((rates - means[:, None]) ** 2, axis=1))
        del block  # release block b before block b + 1 is drawn

    reports = []
    for (config, _, _), cell_sums, cell_m2s in zip(cells, sums, m2s):
        means, errors = zip(*(_mean_and_stderr(counts, s, m) for s, m
                              in zip(zip(*cell_sums), zip(*cell_m2s))))
        reports.append(RateReport.of(config, means, "mc", trials, errors))
    return reports
