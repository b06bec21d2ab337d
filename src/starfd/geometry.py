"""Cell geometry: the two coverage disks, the bounded path loss and the
deterministic path-loss expectations used by the closed-form rates.

Layout. The base station (BS) sits at the center of the cell-center disk
of radius ``R``; cell-center users are uniform on that disk. The surface
(RIS) sits at distance ``d_br`` from the BS, outside the center disk, and
the cell-edge disk of radius ``R_r`` is centered on the surface; cell-edge
users are uniform on it. ``r1 = d_br - R`` is the clearance between the
surface and the rim of the center disk.

Path loss is the bounded model ``l(d) = (1 + d)^(-m)`` with distances in
meters, which avoids the d -> 0 singularity and keeps every expectation in
(0, 1].

Three position-averaged expectations of ``l`` appear in the closed forms:

- from a disk's center to a uniform point in it, closed form: over the
  center disk (BS -> center user) and over the edge disk (surface -> edge
  user);
- from a fixed external point to a uniform point in a disk (surface ->
  center user), via Gauss-Legendre quadrature of the arccos distance
  density on [r1, r1 + 2R];
- between two independent uniform points in the same disk (center user ->
  center user), via adaptive Gauss-Kronrod integration of the exact
  distance density on [0, 2R].
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import GL64_NODES, GL64_WEIGHTS, integrate_adaptive

__all__ = [
    "pathloss",
    "exp_pathloss_disk",
    "exp_pathloss_fixed_point_to_disk",
    "exp_pathloss_two_random_points",
]


def pathloss(distance, m: float):
    """Bounded path loss ``(1 + d)^(-m)``; accepts scalars or arrays."""
    d = np.asarray(distance, dtype=float)
    if not np.all(d >= 0):
        raise ValueError("distance must be non-negative")
    out = (1.0 + d) ** (-m)
    return float(out) if out.ndim == 0 else out


def exp_pathloss_disk(R: float, m: float) -> float:
    """E{(1+r)^(-m)} for r distributed 2r/R^2: from the center of a disk
    of radius ``R`` to a uniform point in it."""
    if not R > 0:
        raise ValueError("disk radius must be positive")
    if not m > 2:
        raise ValueError(
            "path-loss exponent must exceed 2 (closed form has a pole)")
    # Integrated in closed form. The mR(1+R) term enters with a minus
    # sign; this is checked against the adaptive oracle in the tests (and
    # gives the correct R -> 0 limit of 1).
    num = -1.0 + R * R - m * R * (1.0 + R) + (1.0 + R) ** m
    return 2.0 * (1.0 + R) ** (-m) * num / ((m - 1.0) * (m - 2.0) * R * R)


def _external_point_density(r, r1: float, R: float):
    """Distance density from a point at d = r1 + R to a uniform disk point.

    Supported on [r1, r1 + 2R]. The arccos argument is the law-of-cosines
    ratio (r^2 + d^2 - R^2) / (2 r d); it is clamped to [-1, 1] to guard
    the endpoints against floating-point overshoot.
    """
    d = r1 + R
    arg = (r * r + d * d - R * R) / (2.0 * r * d)
    arg = np.clip(arg, -1.0, 1.0)
    return 2.0 * r / (math.pi * R * R) * np.arccos(arg)


def exp_pathloss_fixed_point_to_disk(r1: float, R: float, m: float) -> float:
    """E{(1+r)^(-m)} between a fixed external point and a uniform disk point.

    The fixed point sits at distance r1 + R from the center of a disk of
    radius R (so r1 > 0 is the clearance to the rim). Evaluated by
    64-node Gauss-Legendre quadrature of the arccos density on
    [r1, r1 + 2R], checked against the adaptive oracle in the tests.
    ``m = 0`` integrates the bare density and returns 1 (used as a sanity
    check).
    """
    if not r1 > 0:
        raise ValueError("clearance r1 must be positive")
    if not R > 0:
        raise ValueError("disk radius must be positive")
    if not m >= 0:
        raise ValueError("path-loss exponent must be non-negative")
    # The density vanishes like sqrt(r - r1) and sqrt(r1 + 2R - r) at the
    # interval ends, which would drag Gauss-Legendre down to algebraic
    # convergence under the plain affine map. The substitution
    # r = r1 + R (1 - cos psi), psi in [0, pi], absorbs both square roots
    # (arccos(arg) ~ sin(psi) there) and restores spectral convergence,
    # so 64 nodes are far more than enough.
    psi = 0.5 * math.pi * (1.0 + GL64_NODES)
    r = r1 + R * (1.0 - np.cos(psi))
    jac = 0.5 * math.pi * R * np.sin(psi)
    vals = (1.0 + r) ** (-m) * _external_point_density(r, r1, R) * jac
    return float(np.sum(GL64_WEIGHTS * vals))


def _two_point_density(r: float, R: float) -> float:
    """Distance density between two independent uniform points in a disk.

    Supported on [0, 2R]:
    f(r) = (4r / (pi R^2)) (arccos(r/2R) - (r/2R) sqrt(1 - r^2/4R^2)).
    Takes one float at a time: the adaptive integrator calls it per node,
    where ``math`` is several times cheaper than numpy's scalar path.
    """
    u = min(max(r / (2.0 * R), 0.0), 1.0)
    return (4.0 * r / (math.pi * R * R)
            * (math.acos(u) - u * math.sqrt(1.0 - u * u)))


def exp_pathloss_two_random_points(R: float, m: float) -> float:
    """E{(1+r)^(-m)} between two independent uniform points in one disk.

    The exact distance density is integrated with the adaptive
    Gauss-Kronrod integrator. (The five-term hypergeometric form of this
    average diverges whenever 2R >= 1, i.e. for every realistic disk
    measured in meters.)
    """
    if not R > 0:
        raise ValueError("disk radius must be positive")
    if not m > 2:
        raise ValueError("path-loss exponent must exceed 2")
    return integrate_adaptive(
        lambda r: (1.0 + r) ** (-m) * _two_point_density(r, R),
        0.0, 2.0 * R, tol=1e-12)
