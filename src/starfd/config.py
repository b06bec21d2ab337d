"""Full scenario description shared by the simulator and the closed forms.

These records are what an experiment file parses into, so this module
imports no numeric code: checking a spec loads neither numpy nor the
rate and optimizer modules.
"""

from __future__ import annotations

import math

from .record import Record

__all__ = ["SystemConfig", "CellGeometry", "GeometryAngles", "USERS",
           "RIS_LINKS", "RATE_NAMES", "validate_splits"]

USERS = ("u1d", "u2d", "u1u", "u2u")

RIS_LINKS = ("br", "u1d", "u2d", "u1u", "u2u")

# What each scenario reports, in column order.
RATE_NAMES = {"noma-pair": USERS, "bidirectional": ("c", "e")}


class CellGeometry(Record):
    """Disk radii, BS-surface separation and path-loss exponent.

    ``d_br > R`` so the surface lies outside the center disk, and ``m > 2``
    because the disk expectations divide by (m - 1)(m - 2).
    """

    __slots__ = ("R", "R_r", "d_br", "m")

    def __init__(self, R: float, R_r: float, d_br: float, m: float) -> None:
        self._assign(locals())
        if not self.R > 0:
            raise ValueError("center disk radius R must be positive")
        if not self.R_r > 0:
            raise ValueError("edge disk radius R_r must be positive")
        if not self.d_br > self.R:
            raise ValueError(
                "the surface must lie outside the center disk (d_br > R)")
        if not self.m > 2:
            raise ValueError("path-loss exponent must exceed 2")


class GeometryAngles(Record):
    """Azimuth/elevation per surface link plus the element spacing ratio.

    Angles are radians. The ``br`` pair describes the BS-surface link; the
    user pairs describe the surface-user links (used for both travel
    directions by reciprocity).
    """

    __slots__ = ("az_br", "el_br", "az_u1d", "el_u1d", "az_u2d", "el_u2d",
                 "az_u1u", "el_u1u", "az_u2u", "el_u2u", "d_over_lambda")

    def __init__(self, az_br: float, el_br: float, az_u1d: float,
                 el_u1d: float, az_u2d: float, el_u2d: float,
                 az_u1u: float, el_u1u: float, az_u2u: float,
                 el_u2u: float, d_over_lambda: float = 0.5) -> None:
        self._assign(locals())
        for name in self.__slots__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"angle field {name} must be finite")
        if not self.d_over_lambda > 0:
            raise ValueError("element spacing over wavelength must be > 0")

    def link(self, name: str) -> tuple:
        """(azimuth, elevation) pair for one of br, u1d, u2d, u1u, u2u."""
        if name not in RIS_LINKS:
            raise ValueError(f"unknown link {name!r}")
        return (getattr(self, f"az_{name}"), getattr(self, f"el_{name}"))


def validate_splits(tau: float, alpha1: float, alpha2: float,
                    ul_split: float) -> None:
    """Check a (tau, alpha1, alpha2, ul_split) split of the power budget."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(
            "tau must lie in (0, 1]; an uplink-only split is modeled "
            "as a small positive tau such as 0.01")
    if abs(alpha1 + alpha2 - 1.0) > 1e-9:
        raise ValueError("alpha1 + alpha2 must equal 1")
    if not alpha1 < alpha2:
        raise ValueError(
            "NOMA ordering requires alpha1 < alpha2 (the cell-edge "
            "user gets the larger power share)")
    if not 0.0 <= ul_split <= 1.0:
        raise ValueError("ul_split must lie in [0, 1]")


class SystemConfig(Record):
    """Scenario parameters: what the cell scores (``scenario``, a key of
    :data:`RATE_NAMES`), geometry, fading, noise, weights, the SIC and
    self-interference constants, the edge targets and the power defaults.

    The split fields (``P_t``, ``tau``, ``alpha1``/``alpha2``,
    ``ul_split``) are the defaults from which an operative power
    configuration is built; rate functions read the powers from the power
    object they are handed, and the cell's constants (``Xi``, ``beta``,
    ``si_lambda``, ``R_dth``, ``R_uth``) from here.

    Conventions: ``tau`` is the downlink share of the budget (P_b = tau*P_t,
    P_u = (1-tau)*P_t), ``ul_split`` the share of P_u given to the center
    uplink user, and ``si_lambda`` the exponent of the residual
    self-interference variance (:meth:`si_variance`).
    """

    __slots__ = ("geometry", "n_elements", "angles", "kappa_br", "kappa_u1d",
                 "kappa_u2d", "kappa_u1u", "kappa_u2u", "sigma_sq",
                 "sigma_b_sq", "weight_u1d", "weight_u2d", "weight_u1u",
                 "weight_u2u", "P_t", "tau", "alpha1", "alpha2", "ul_split",
                 "Xi", "beta", "si_lambda", "R_dth", "R_uth", "scenario")

    def __init__(self, geometry: CellGeometry, n_elements: int,
                 angles: GeometryAngles, kappa_br: float = 3.0,
                 kappa_u1d: float = 3.0, kappa_u2d: float = 3.0,
                 kappa_u1u: float = 3.0, kappa_u2u: float = 3.0,
                 sigma_sq: float = 1.0, sigma_b_sq: float = 1.0,
                 weight_u1d: float = 0.8, weight_u2d: float = 0.8,
                 weight_u1u: float = 0.8, weight_u2u: float = 0.8,
                 P_t: float = 1000.0, tau: float = 0.8, alpha1: float = 0.2,
                 alpha2: float = 0.8, ul_split: float = 0.5, Xi: float = 0.0,
                 beta: float = 0.0, si_lambda: float = 1.0,
                 R_dth: float = 0.0, R_uth: float = 0.0,
                 scenario: str = "noma-pair") -> None:
        self._assign(locals())
        if not (isinstance(self.n_elements, int) and self.n_elements >= 1):
            raise ValueError("n_elements must be a positive integer")
        for link in ("br",) + USERS:
            if not getattr(self, f"kappa_{link}") >= 0:
                raise ValueError(f"kappa_{link} must be non-negative")
        if not self.sigma_sq > 0 or not self.sigma_b_sq > 0:
            raise ValueError("noise powers must be positive")
        for user in USERS:
            if not getattr(self, f"weight_{user}") >= 0:
                raise ValueError(f"weight_{user} must be non-negative")
        if not 0 < self.P_t < math.inf:
            raise ValueError("total power budget must be positive and "
                             "finite")
        validate_splits(self.tau, self.alpha1, self.alpha2, self.ul_split)
        if not 0.0 <= self.Xi <= 1.0:
            raise ValueError("SIC error factor Xi must lie in [0, 1]")
        if not self.beta >= 0:
            raise ValueError("beta must be non-negative")
        if not self.si_lambda >= 0:
            raise ValueError("si_lambda must be non-negative")
        if not (self.R_dth >= 0 and self.R_uth >= 0):
            raise ValueError("target rates must be non-negative")
        if self.scenario not in RATE_NAMES:
            raise ValueError(f"scenario: must be noma-pair or bidirectional, "
                             f"got {self.scenario!r}")

    @property
    def weights(self) -> dict:
        return {user: getattr(self, f"weight_{user}") for user in USERS}

    def si_variance(self, P_b: float) -> float:
        """Residual self-interference variance beta * P_b**si_lambda at the
        BS power ``P_b``; 0 when ``beta`` is."""
        if self.beta == 0.0:
            return 0.0
        return self.beta * P_b ** self.si_lambda
