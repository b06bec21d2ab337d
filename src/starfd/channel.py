"""Surface coefficient handling and the line-of-sight steering vectors.

The energy-splitting surface applies per-element amplitude pairs
(rho_t, rho_r) with rho_t + rho_r = 1 and per-side phase shifts. The
surface links are Rician around the deterministic LoS vectors built
here; :mod:`starfd.rates_mc` draws their random part.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Literal

import numpy as np

from .config import RIS_LINKS, GeometryAngles
from .record import Frozen

__all__ = [
    "ES_TOL",
    "StarRisState",
    "element_layout",
    "steering_vector",
]

Side = Literal["t", "r"]

# Largest allowed per-element violation of rho_t + rho_r = 1.
ES_TOL = 1e-9


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
