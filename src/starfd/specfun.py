"""Numerical kernels: Gauss-Legendre rules and an adaptive integrator.

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
from .record import Record

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "integrate_adaptive",
]

class QuadratureRule(Record):
    """Nodes and weights of a quadrature rule on [-1, 1].

    Invariants: weights are positive and sum to 2 (the measure of the
    interval) within 1e-12; nodes are strictly increasing and symmetric
    about zero.
    """

    __slots__ = ("nodes", "weights")

    def __init__(self, nodes: np.ndarray, weights: np.ndarray) -> None:
        self._assign(locals())
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D and equal length")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("quadrature nodes and weights must be finite")
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be positive")
        if not abs(weights.sum() - 2.0) <= 1e-12:
            raise ValueError("quadrature weights must sum to 2 on [-1, 1]")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("quadrature nodes must be strictly increasing")

    def integrate(self, f: Callable[[np.ndarray], np.ndarray],
                  a: float, b: float) -> float:
        """Apply the rule to ``f`` on ``[a, b]`` via the affine map."""
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        return float(half * np.sum(self.weights * f(mid + half * self.nodes)))


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Legendre series ``sum_k c[k] P_k(x)`` by Clenshaw recursion.

    The operations and their order are those of numpy's ``legval``, so
    the rule below reproduces ``leggauss`` bit for bit; a reordered
    recursion moves the weights by up to 4e-11.
    """
    if len(c) == 1:
        return c[0] + 0.0 * x
    nd = len(c)
    c0 = c[-2]
    c1 = c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` nodes (exact for degree <= 2n-1).

    Follows ``numpy.polynomial.legendre.leggauss``: the nodes are the
    eigenvalues of the symmetric Legendre companion (Jacobi) matrix,
    refined by one Newton step; the weights are ``1 / (P_n' P_{n-1})``
    at the nodes, symmetrised and scaled to sum to 2.
    """
    if n < 1:
        raise ValueError("need at least one node")
    c = np.zeros(n + 1)
    c[-1] = 1.0
    # d/dx P_n = sum of (2k + 1) P_k over k = n-1, n-3, ...
    dc = np.zeros(n)
    dc[n - 1::-2] = 2.0 * np.arange(n - 1, -1, -2) + 1.0
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)

    df = _legval(x, dc)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return QuadratureRule(nodes=x, weights=w)


# 15-point Kronrod extension of the 7-point Gauss rule (positive half;
# the rule is symmetric). Nodes at even indices are the embedded Gauss
# nodes. Standard double-precision constants.
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
