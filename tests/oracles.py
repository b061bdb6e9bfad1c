"""Independent reference implementations used only by the tests.

Nothing here is imported by the package.  The references trade speed for
transparency: extended-precision series, dense matrices, dense symmetric
eigendecompositions, adaptive quadrature, and brute-force sampling.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad_vec


def phi_reference(j: int, z: float, dps: int = 40) -> float:
    """phi_j(z) in extended precision: series for small |z|, direct formula
    with enough guard digits to absorb the cancellation otherwise."""
    if z == 0.0:
        return 1.0 / math.factorial(j)
    extra = max(0, int((j + 2) * math.log10(1 + abs(z)))) + 10
    with mp.workdps(dps + extra):
        zz = mp.mpf(z)
        if abs(zz) < 1:
            term = 1 / mp.mpf(math.factorial(j))
            s = term
            k = 1
            tiny = mp.mpf(10) ** (-dps - 10)
            while True:
                term = term * zz / (k + j)
                s += term
                if abs(term) < tiny * abs(s):
                    break
                k += 1
            return float(s)
        ez = mp.exp(zz)
        if j == 0:
            return float(ez)
        partial = mp.mpf(1)
        zk = mp.mpf(1)
        for k in range(1, j):
            zk = zk * zz / k
            partial += zk
        return float((ez - partial) / zz**j)


def dct2_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: C[k, i] = s_k cos(pi k (2i+1) / (2n))."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    c = np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    c *= np.sqrt(2.0 / n)
    c[0] *= np.sqrt(0.5)
    return c


def dense_lkappa(mesh, eps: float, kappa: float) -> np.ndarray:
    """Dense symmetric matrix of eps^2 Lap_h - kappa I on the flat index
    j*nx + i, central differences with mirrored (Neumann) ghost cells."""
    nx, ny = mesh.nx, mesh.ny
    n = nx * ny
    a = np.zeros((n, n))
    cx = eps * eps / mesh.hx**2
    cy = eps * eps / mesh.hy**2
    for j in range(ny):
        for i in range(nx):
            row = j * nx + i
            for di, dj, c in ((-1, 0, cx), (1, 0, cx), (0, -1, cy), (0, 1, cy)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    a[row, jj * nx + ii] += c
                    a[row, row] -= c
    a -= kappa * np.eye(n)
    return a


class DenseOperator:
    """phi_j(sL) actions through a dense symmetric eigendecomposition."""

    def __init__(self, mesh, eps: float, kappa: float):
        self.mesh = mesh
        self.matrix = dense_lkappa(mesh, eps, kappa)
        self.eigvals, self.eigvecs = np.linalg.eigh(self.matrix)

    def apply_phi(self, j: int, s: float, v: np.ndarray) -> np.ndarray:
        phis = np.array([phi_reference(j, float(s * w)) for w in self.eigvals])
        return self.eigvecs @ (phis * (self.eigvecs.T @ v))

    def expm(self, s: float, v: np.ndarray) -> np.ndarray:
        return self.eigvecs @ (np.exp(s * self.eigvals) * (self.eigvecs.T @ v))


def brute_poly_max(coeffs, npts: int = 100001) -> float:
    """max |P| over a dense uniform sampling of [0, 1]."""
    sigma = np.linspace(0.0, 1.0, npts)
    return float(np.max(np.abs(np.polynomial.polynomial.polyval(sigma, np.asarray(coeffs)))))


def brute_poly_max_many(coeffs: np.ndarray, npts: int = 100001, chunk: int = 200) -> np.ndarray:
    """Columnwise max |P| over a dense sampling, for stacked coefficients.

    coeffs has shape (d+1, nsets); evaluation goes through one power matrix
    and a chunked matrix product, so large set counts stay affordable.
    """
    sigma = np.linspace(0.0, 1.0, npts)
    powers = sigma[None, :] ** np.arange(coeffs.shape[0])[:, None]
    nsets = coeffs.shape[1]
    out = np.empty(nsets)
    for lo in range(0, nsets, chunk):
        block = coeffs[:, lo:lo + chunk].T @ powers
        np.abs(block, out=block)
        out[lo:lo + chunk] = block.max(axis=1)
    return out


def exact_poly_max(coeffs, dps: int = 40) -> float:
    """max |P| over [0, 1] at dps digits.

    The candidates are both endpoints and the real part, clamped to [0, 1],
    of every root of P' (mpmath polyroots, started from numpy's roots only
    to converge in fewer sweeps).  Every candidate is a point of [0, 1] and
    every real critical point is a candidate, so no tolerance has to decide
    which roots are real.
    """
    with mp.workdps(dps):
        c = [mp.mpf(float(x)) for x in coeffs]
        dc = [k * c[k] for k in range(1, len(c))]
        while dc and dc[-1] == 0:
            dc.pop()
        candidates = [mp.mpf(0), mp.mpf(1)]
        if len(dc) >= 2:
            start = [mp.mpc(complex(z)) for z in np.roots([float(x) for x in reversed(dc)])]
            roots = mp.polyroots(list(reversed(dc)), maxsteps=200, extraprec=2 * dps, roots_init=start)
            candidates += [min(max(mp.re(r), 0), 1) for r in roots]
        return float(max(abs(mp.polyval(list(reversed(c)), x)) for x in candidates))


def dense_etdrk_step(mesh, eps, kappa, potential, order, node_sets, tau, u0, rescaled):
    """One full cascade step computed with dense operators.

    node_sets is the list of per-level node arrays a_{j,0..j}; u0 is a flat
    array.  Rescaling uses the extended-precision polynomial maximum, so the
    only shared ingredient with the production path is the mathematics.
    """
    op = DenseOperator(mesh, eps, kappa)
    nfun = lambda v: np.asarray(potential.f(v)) + kappa * v
    n0 = nfun(u0)
    kb = kappa * potential.beta

    def alpha_of(coeff_stack):
        if not rescaled:
            return np.ones_like(n0)
        a = np.empty_like(n0)
        for p in range(len(n0)):
            m = exact_poly_max([coeff_stack[q][p] for q in range(len(coeff_stack))])
            a[p] = min(kb / m, 1.0) if m > 0 else 1.0
        return a

    coeffs = []
    alpha = alpha_of([n0])

    def stage(level, s):
        w = op.apply_phi(0, s, u0) + s * op.apply_phi(1, s, alpha * n0)
        for m in range(1, level):
            w = w + tau * math.factorial(m) * (s / tau) ** (m + 1) * op.apply_phi(m + 1, s, alpha * coeffs[m - 1])
        return w

    for j in range(1, order):
        nodes = node_sets[j - 1]
        d = np.stack([nfun(stage(j, nodes[k] * tau)) - n0 for k in range(1, j + 1)])
        v = np.vander(nodes[1:], N=j + 1, increasing=True)[:, 1:]
        coeffs = list(np.linalg.solve(v, d))
        alpha = alpha_of([n0] + coeffs)
    return stage(order, tau)


def duhamel_stage(mesh, eps, kappa, u0, n_scaled, coeff_scaled, tau, s, tol=1e-12):
    """w(s) by adaptive quadrature of the variation-of-constants integral,
    with the interpolation polynomial frozen to the given scaled fields."""
    op = DenseOperator(mesh, eps, kappa)

    def poly(sigma):
        acc = n_scaled.copy()
        for m, c in enumerate(coeff_scaled, start=1):
            acc = acc + c * (sigma / tau) ** m
        return acc

    integral, _ = quad_vec(lambda sigma: op.expm(s - sigma, poly(sigma)), 0.0, s,
                           epsabs=tol, epsrel=tol)
    return op.expm(s, u0) + integral
