"""Random channel generation and surface coefficient handling.

Direct links (BS-user and user-user) are Rayleigh; surface links are Rician
with deterministic steering-vector LoS components. The energy-splitting
surface applies per-element amplitude pairs (rho_t, rho_r) with
rho_t + rho_r = 1 and per-side phase shifts.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Literal

import numpy as np

from .geometry import UserPosition, pathloss, sample_user_position

if TYPE_CHECKING:
    from .config import SystemConfig

__all__ = [
    "ES_TOL",
    "StarRisState",
    "GeometryAngles",
    "RicianSpec",
    "ChannelRealization",
    "element_layout",
    "steering_vector",
    "sample_rician",
    "star_cascade",
    "draw_realization",
]

Side = Literal["t", "r"]

# Largest allowed per-element violation of rho_t + rho_r = 1.
ES_TOL = 1e-9

RIS_LINKS = ("br", "u1d", "u2d", "u1u", "u2u")


@dataclass(frozen=True, eq=False)
class StarRisState:
    """Per-element amplitudes and phases of the energy-splitting surface.

    Amplitudes are used directly as the cascade coefficients (the surface
    response on side k is diag(rho_k * exp(j*phi_k))). Construction rejects
    states violating rho_t + rho_r = 1 beyond ``ES_TOL`` instead of
    renormalizing; phases are wrapped into [0, 2*pi). ``validate=False``
    skips the energy check, for states off the feasible segment such as
    finite-difference probes. Non-finite amplitudes or phases are
    rejected either way.
    """

    rho_t: np.ndarray
    rho_r: np.ndarray
    phi_t: np.ndarray
    phi_r: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
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


@dataclass(frozen=True)
class GeometryAngles:
    """Azimuth/elevation per surface link plus the element spacing ratio.

    Angles are radians. The ``br`` pair describes the BS-surface link; the
    user pairs describe the surface-user links (used for both travel
    directions by reciprocity).
    """

    az_br: float
    el_br: float
    az_u1d: float
    el_u1d: float
    az_u2d: float
    el_u2d: float
    az_u1u: float
    el_u1u: float
    az_u2u: float
    el_u2u: float
    d_over_lambda: float = 0.5

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"angle field {name} must be finite")
        if not self.d_over_lambda > 0:
            raise ValueError("element spacing over wavelength must be > 0")

    def link(self, name: str) -> tuple:
        """(azimuth, elevation) pair for one of br, u1d, u2d, u1u, u2u."""
        if name not in RIS_LINKS:
            raise ValueError(f"unknown link {name!r}")
        return (getattr(self, f"az_{name}"), getattr(self, f"el_{name}"))


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


@dataclass(frozen=True, eq=False)
class RicianSpec:
    """Rician K-factor plus the deterministic unit-modulus LoS vector."""

    kappa: float
    los: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "los",
                           np.asarray(self.los, dtype=complex))
        if self.kappa < 0:
            raise ValueError("Rician factor must be non-negative")
        if np.any(np.abs(np.abs(self.los) - 1.0) > 1e-9):
            raise ValueError("LoS entries must have unit modulus")


def sample_rician(spec: RicianSpec, n_elements: int,
                  rng: np.random.Generator) -> np.ndarray:
    """One draw of sqrt(k/(k+1))*los + sqrt(1/(k+1))*CN(0, I)."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    if spec.los.size != n_elements:
        raise ValueError("LoS vector length does not match element count")
    a = math.sqrt(spec.kappa / (spec.kappa + 1.0))
    b = math.sqrt(1.0 / (spec.kappa + 1.0))
    nlos = (rng.standard_normal(n_elements)
            + 1j * rng.standard_normal(n_elements)) / math.sqrt(2.0)
    return a * spec.los + b * nlos


def star_cascade(g_out: np.ndarray, state: StarRisState, side: Side,
                 g_in: np.ndarray) -> complex:
    """Scalar cascade sum_n g_out[n] * rho_n * e^{j phi_n} * g_in[n]."""
    g_out = np.asarray(g_out)
    g_in = np.asarray(g_in)
    if g_out.size != state.n_elements or g_in.size != state.n_elements:
        raise ValueError("channel vector length does not match the surface")
    return complex(np.sum(g_out * state.side(side) * g_in))


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One random draw of every link plus the user positions.

    ``pathlosses`` maps link names to bounded path-loss values:
    b_u1d, b_u1u, u1d_u1u (direct links), br (BS-surface) and
    r_u1d, r_u2d, r_u1u, r_u2u (surface-user links).
    """

    h_b_u1d: complex
    h_b_u1u: complex
    h_u1d_u1u: complex
    g_br: np.ndarray
    g_r_u1d: np.ndarray
    g_r_u2d: np.ndarray
    g_r_u1u: np.ndarray
    g_r_u2u: np.ndarray
    positions: Dict[str, UserPosition] = field(repr=False)
    pathlosses: Dict[str, float] = field(repr=False)

    def __post_init__(self) -> None:
        n = self.g_br.size
        for name in ("g_r_u1d", "g_r_u2d", "g_r_u1u", "g_r_u2u"):
            if getattr(self, name).size != n:
                raise ValueError("channel vectors must share a length")

    @property
    def n_elements(self) -> int:
        return int(self.g_br.size)


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


def _cn_scalar(rng: np.random.Generator) -> complex:
    return complex(rng.standard_normal(),
                   rng.standard_normal()) / math.sqrt(2.0)


def _surface_user_distance(pos: UserPosition, d_br: float) -> float:
    # Center-disk users are placed relative to the BS at the origin while
    # the surface sits at (d_br, 0); law of cosines gives the separation.
    return math.sqrt(pos.radius ** 2 + d_br ** 2
                     - 2.0 * pos.radius * d_br * math.cos(pos.angle))


def draw_realization(config: "SystemConfig", ris: StarRisState,
                     rng: np.random.Generator) -> ChannelRealization:
    """Draw positions, path losses and all channel vectors for one trial.

    The draw order (positions, direct scalars, surface vectors) is fixed so
    a given seed always produces the same realization. The surface state is
    only cross-checked for size; channels do not depend on it.
    """
    if ris.n_elements != config.n_elements:
        raise ValueError("surface state size does not match the config")
    geom = config.geometry
    n = config.n_elements

    pos = {
        "u1d": sample_user_position(geom, "center", rng),
        "u2d": sample_user_position(geom, "edge", rng),
        "u1u": sample_user_position(geom, "center", rng),
        "u2u": sample_user_position(geom, "edge", rng),
    }

    h_b_u1d = _cn_scalar(rng)
    h_b_u1u = _cn_scalar(rng)
    h_u1d_u1u = _cn_scalar(rng)

    los = _los_vectors(n, config.angles)
    vectors = {}
    for link in RIS_LINKS:
        spec = RicianSpec(kappa=getattr(config, f"kappa_{link}"),
                          los=los[link])
        vectors[link] = sample_rician(spec, n, rng)

    d_u1d_u1u = math.sqrt(
        pos["u1d"].radius ** 2 + pos["u1u"].radius ** 2
        - 2.0 * pos["u1d"].radius * pos["u1u"].radius
        * math.cos(pos["u1d"].angle - pos["u1u"].angle))
    distances = {
        "b_u1d": pos["u1d"].radius,
        "b_u1u": pos["u1u"].radius,
        "u1d_u1u": d_u1d_u1u,
        "br": geom.d_br,
        "r_u1d": _surface_user_distance(pos["u1d"], geom.d_br),
        "r_u2d": pos["u2d"].radius,
        "r_u1u": _surface_user_distance(pos["u1u"], geom.d_br),
        "r_u2u": pos["u2u"].radius,
    }
    losses = {k: pathloss(d, geom.m) for k, d in distances.items()}

    return ChannelRealization(
        h_b_u1d=h_b_u1d, h_b_u1u=h_b_u1u, h_u1d_u1u=h_u1d_u1u,
        g_br=vectors["br"], g_r_u1d=vectors["u1d"],
        g_r_u2d=vectors["u2d"], g_r_u1u=vectors["u1u"],
        g_r_u2u=vectors["u2u"], positions=pos, pathlosses=losses)
