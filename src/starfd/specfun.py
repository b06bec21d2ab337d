"""Numerical kernels: the 64-node Gauss-Legendre rule and an adaptive
integrator.

The adaptive integrator is deliberately self-contained (no external
quadrature library): it evaluates the two-point disk average of
:mod:`starfd.geometry` and serves as the oracle for the other disk
expectations there, so its behavior must be fully pinned by this module
alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .exceptions import NumericError

__all__ = [
    "GL64_NODES",
    "GL64_WEIGHTS",
    "integrate_adaptive",
]

# The 64-node Gauss-Legendre rule (exact for degree <= 127), positive
# half in increasing order; the rule is exactly mirror-symmetric. The
# values are numpy's ``leggauss(64)`` (Jacobi-matrix eigenvalues refined
# by one Newton step). Its last bits depend on the LAPACK build, so a
# table keeps the closed-form bytes fixed and spares every process the
# eigen-solve.
_GL64_NODES_HALF = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054,
    0.16964442042399283, 0.21742364374000708, 0.2646871622087674,
    0.31132287199021097, 0.3572201583376681, 0.4022701579639916,
    0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573,
    0.6852363130542333, 0.7198818501716109, 0.7528199072605319,
    0.7839723589433414, 0.8132653151227975, 0.8406292962525803,
    0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538,
    0.973326827789911, 0.983336253884626, 0.9910133714767443,
    0.9963401167719552, 0.9993050417357722,
)
_GL64_WEIGHTS_HALF = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996,
    0.04799938859645842, 0.04754016571483042, 0.046968182816210076,
    0.04628479658131447, 0.045491627927418184, 0.044590558163756566,
    0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009,
    0.0354722132568823, 0.033805161837141794, 0.032057928354851495,
    0.030234657072402554, 0.028339672614259535, 0.02637746971505491,
    0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786,
    0.011168139460131028, 0.008846759826363397, 0.006504457968978502,
    0.004147033260564499, 0.00178328072169414,
)
# The whole rule on [-1, 1], nodes increasing.
GL64_NODES = np.concatenate([-np.array(_GL64_NODES_HALF[::-1]),
                             _GL64_NODES_HALF])
GL64_WEIGHTS = np.concatenate([_GL64_WEIGHTS_HALF[::-1], _GL64_WEIGHTS_HALF])


# 15-point Kronrod extension of the 7-point Gauss rule (positive half;
# the rule is symmetric). Nodes at even indices are the embedded Gauss
# nodes. These are QUADPACK's qk15 values rounded to 15 significant
# digits (0.991455371120813 for 0.991455371120812639...; the weights are
# good to about 1e-14 relative). Full-precision values would move the
# last bits of the two-point disk average (``rho_2pt``), so they wait for a version
# bump.
_K15_NODES_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_K15_WEIGHTS_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_G7_WEIGHTS_HALF = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

_K15_NODES = np.concatenate([-_K15_NODES_HALF[:-1], _K15_NODES_HALF[::-1]])
_K15_WEIGHTS = np.concatenate([_K15_WEIGHTS_HALF[:-1],
                               _K15_WEIGHTS_HALF[::-1]])
# Gauss nodes sit at odd positions 1, 3, ..., 13 of the 15-node vector.
_G7_INDEX = np.arange(1, 15, 2)
_G7_WEIGHTS = np.concatenate([_G7_WEIGHTS_HALF[:-1], _G7_WEIGHTS_HALF[::-1]])

_MAX_DEPTH = 60


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel: returns (K15 estimate, |K15 - G7|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # Python floats: arithmetic on numpy scalars costs several times more.
    fx = np.array([f(mid + half * t) for t in _K15_NODES.tolist()],
                  dtype=float)
    if not np.all(np.isfinite(fx)):
        raise NumericError(
            f"integrand returned a non-finite value on [{a!r}, {b!r}]")
    k15 = half * float(_K15_WEIGHTS @ fx)
    g7 = half * float(_G7_WEIGHTS @ fx[_G7_INDEX])
    return k15, abs(k15 - g7)


def integrate_adaptive(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-12) -> float:
    """Adaptive bisection with an embedded Gauss-Kronrod error estimate.

    Each subinterval is accepted once its 7/15-point error estimate fits
    within the share of the global budget proportional to its width, so the
    final result satisfies ``|error| <= tol * max(1, |result|)``. Intervals
    that still fail at bisection depth 60 raise :class:`NumericError`.
    """
    if not a < b:
        raise ValueError("integration interval must satisfy a < b")
    if not tol > 0:
        raise ValueError("tolerance must be positive")

    whole, _ = _gk15(f, a, b)
    budget = tol * max(1.0, abs(whole))
    width = b - a

    total = 0.0
    # Stack of (left, right, depth). Depth counts bisections from the
    # original interval.
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        est, err = _gk15(f, lo, hi)
        if err <= budget * (hi - lo) / width or err == 0.0:
            total += est
            continue
        if depth >= _MAX_DEPTH:
            raise NumericError(
                f"adaptive integration exceeded depth {_MAX_DEPTH} on "
                f"[{lo!r}, {hi!r}] (panel error {err:.3e}, budget "
                f"{budget * (hi - lo) / width:.3e})")
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return total
