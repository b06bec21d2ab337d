"""Random channel generation and surface coefficient handling.

Direct links (BS-user and user-user) are Rayleigh; surface links are Rician
with deterministic steering-vector LoS components. The energy-splitting
surface applies per-element amplitude pairs (rho_t, rho_r) with
rho_t + rho_r = 1 and per-side phase shifts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Literal

import numpy as np

from .config import RIS_LINKS, GeometryAngles, SystemConfig
from .geometry import pathloss
from .record import Frozen

__all__ = [
    "ES_TOL",
    "StarRisState",
    "ChannelBlock",
    "element_layout",
    "steering_vector",
    "draw_realization",
]

Side = Literal["t", "r"]

# Largest allowed per-element violation of rho_t + rho_r = 1.
ES_TOL = 1e-9

# The disk each user is uniform on, in the block draw's order.
USER_REGIONS = {"u1d": "center", "u2d": "edge", "u1u": "center",
                "u2u": "edge"}


class StarRisState(Frozen):
    """Per-element amplitudes and phases of the energy-splitting surface.

    Amplitudes are used directly as the cascade coefficients (the surface
    response on side k is diag(rho_k * exp(j*phi_k))). Construction rejects
    states violating rho_t + rho_r = 1 beyond ``ES_TOL`` instead of
    renormalizing; phases are wrapped into [0, 2*pi). ``validate=False``
    skips the energy check, for states off the feasible segment such as
    finite-difference probes. Non-finite amplitudes or phases are
    rejected either way.
    """

    __slots__ = ("rho_t", "rho_r", "phi_t", "phi_r")

    def __init__(self, rho_t: np.ndarray, rho_r: np.ndarray,
                 phi_t: np.ndarray, phi_r: np.ndarray,
                 validate: bool = True) -> None:
        self._assign(locals())
        for name in ("rho_t", "rho_r", "phi_t", "phi_r"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        n = self.rho_t.shape
        if any(getattr(self, name).shape != n
               for name in ("rho_r", "phi_t", "phi_r")):
            raise ValueError("amplitude and phase arrays must share a length")
        if self.rho_t.ndim != 1 or self.rho_t.size < 1:
            raise ValueError("state needs at least one element")
        if not all(np.all(np.isfinite(getattr(self, name)))
                   for name in ("rho_t", "rho_r", "phi_t", "phi_r")):
            raise ValueError("amplitudes and phases must be finite")
        object.__setattr__(self, "phi_t",
                           np.mod(self.phi_t, 2.0 * math.pi))
        object.__setattr__(self, "phi_r",
                           np.mod(self.phi_r, 2.0 * math.pi))
        if validate:
            if np.any(self.rho_t < 0) or np.any(self.rho_r < 0):
                raise ValueError("amplitudes must be non-negative")
            gap = float(np.max(np.abs(self.rho_t + self.rho_r - 1.0)))
            if gap > ES_TOL:
                raise ValueError(
                    "energy-splitting constraint violated: "
                    f"max |rho_t + rho_r - 1| = {gap:.3e} > {ES_TOL:.0e}")

    @property
    def n_elements(self) -> int:
        return int(self.rho_t.size)

    def side(self, side: Side) -> np.ndarray:
        """Complex per-element response rho * exp(j*phi) for one side."""
        if side == "t":
            return self.rho_t * np.exp(1j * self.phi_t)
        if side == "r":
            return self.rho_r * np.exp(1j * self.phi_r)
        raise ValueError(f"unknown surface side {side!r}")

    @classmethod
    def uniform(cls, n_elements: int, rho_t: float = 0.5,
                phi_t: float = 0.0, phi_r: float = 0.0) -> "StarRisState":
        """Equal-amplitude state with constant phases."""
        ones = np.ones(n_elements)
        return cls(rho_t=rho_t * ones, rho_r=(1.0 - rho_t) * ones,
                   phi_t=phi_t * ones, phi_r=phi_r * ones)

    @classmethod
    def random_phases(cls, n_elements: int, rho_t: float,
                      rng: np.random.Generator) -> "StarRisState":
        """Equal-amplitude state with i.i.d. uniform phases on both sides."""
        ones = np.ones(n_elements)
        return cls(rho_t=rho_t * ones, rho_r=(1.0 - rho_t) * ones,
                   phi_t=rng.uniform(0.0, 2.0 * math.pi, n_elements),
                   phi_r=rng.uniform(0.0, 2.0 * math.pi, n_elements))


def element_layout(n_elements: int) -> tuple:
    """Integer grid offsets (x_n, y_n) of the surface elements.

    Planar sqrt(N) x sqrt(N) grid when N is a perfect square
    (x_n = n mod sqrt(N), y_n = n // sqrt(N)), linear otherwise (y_n = 0).
    """
    if n_elements < 1:
        raise ValueError("need at least one element")
    idx = np.arange(n_elements)
    side = math.isqrt(n_elements)
    if side * side == n_elements:
        return idx % side, idx // side
    return idx, np.zeros_like(idx)


def steering_vector(n_elements: int, azimuth: float, elevation: float,
                    d_over_lambda: float) -> np.ndarray:
    """Unit-modulus array response for one arrival direction.

    The entry phase at grid offset (x_n, y_n) (see :func:`element_layout`)
    is 2*pi*(d/lambda)*(x_n sin(az) sin(el) + y_n cos(el)).
    """
    x, y = element_layout(n_elements)
    phase = (2.0 * math.pi * d_over_lambda
             * (x * math.sin(azimuth) * math.sin(elevation)
                + y * math.cos(elevation)))
    return np.exp(1j * phase)


@lru_cache(maxsize=64)
def _los_vectors(n_elements: int,
                 angles: GeometryAngles) -> Dict[str, np.ndarray]:
    """Deterministic LoS component per surface link.

    The BS-side vector is the plain steering vector for the BS-surface
    direction; user-side vectors are conjugated so that an aligned phase
    profile cancels both legs of a cascade (documented convention).
    """
    out = {"br": steering_vector(n_elements, *angles.link("br"),
                                 angles.d_over_lambda)}
    for user in RIS_LINKS[1:]:
        out[user] = np.conj(steering_vector(n_elements, *angles.link(user),
                                            angles.d_over_lambda))
    return out


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


def draw_realization(config: SystemConfig, ris: StarRisState,
                     rng: np.random.Generator, size: int) -> ChannelBlock:
    """Draw positions, path losses and all channels for ``size`` trials.

    The draw order (positions, direct scalars, surface vectors, SI pair)
    is fixed so a given generator state always produces the same block.
    The surface state is only cross-checked for size; channels do not
    depend on it.
    """
    if ris.n_elements != config.n_elements:
        raise ValueError("surface state size does not match the config")
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
