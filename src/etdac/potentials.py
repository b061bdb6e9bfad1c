"""Double-well nonlinearities for the Allen-Cahn equation.

The equation is u_t = eps^2 Lap u + f(u) with f = -F'.  Two potentials are
provided: the quartic Ginzburg-Landau well F = (1-u^2)^2/4 and the
logarithmic Flory-Huggins well with temperatures 0 < theta < theta_c.  Each
carries its maximum bound beta, defined by f(beta) <= 0 <= f(-beta) with
beta the positive root of f, and the minimal stabilizer
kappa_min = max_{|xi| <= beta} |f'(xi)|.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GinzburgLandau", "FloryHuggins", "compute_beta", "compute_kappa_min"]


class GinzburgLandau:
    """f = u - u^3, F = (1 - u^2)^2 / 4; bound beta = 1, kappa_min = 2."""

    kind = "gl"

    def __init__(self):
        self.beta = compute_beta(self)
        self.kappa_min = compute_kappa_min(self)

    def f(self, u, out=None):
        """u - u^3, into out (not u itself) when given."""
        u, res = _operands(u, out)
        np.multiply(u, u, out=res)
        res *= u
        return _result(np.subtract(u, res, out=res))

    def F(self, u):
        u = np.asarray(u, dtype=np.float64)
        w = 1.0 - u * u
        return 0.25 * w * w

    def f_prime(self, u):
        u = np.asarray(u, dtype=np.float64)
        return 1.0 - 3.0 * u * u

    def __repr__(self):
        return "GinzburgLandau()"


class FloryHuggins:
    """Logarithmic potential, defined on |u| < 1 only.

    f(u) = (theta/2) ln((1-u)/(1+u)) + theta_c u
    F(u) = (theta/2) [(1+u) ln(1+u) + (1-u) ln(1-u)] - (theta_c/2) u^2

    Arguments with |u| >= 1 raise ValueError; upstream this signals a
    maximum-bound violation.
    """

    kind = "fh"

    def __init__(self, theta: float = 0.8, theta_c: float = 1.6):
        if not (0.0 < theta < theta_c):
            raise ValueError(f"need 0 < theta < theta_c, got theta={theta}, theta_c={theta_c}")
        self.theta = float(theta)
        self.theta_c = float(theta_c)
        self.beta = compute_beta(self)
        if not (0.0 < self.beta < 1.0):
            raise ValueError("bound beta must lie strictly inside (0, 1)")
        self.kappa_min = compute_kappa_min(self)

    def _check_domain(self, u):
        # fmax/fmin skip NaN as the |u| >= 1 test does, and allocate nothing
        if u.size and (np.fmax.reduce(u, axis=None) >= 1.0 or np.fmin.reduce(u, axis=None) <= -1.0):
            raise ValueError("Flory-Huggins potential evaluated outside (-1, 1)")

    def f(self, u, out=None):
        """(theta/2) ln((1-u)/(1+u)) + theta_c u, into out (not u itself) when given."""
        u, res = _operands(u, out)
        self._check_domain(u)
        tmp = np.add(1.0, u, out=np.empty_like(res))
        np.divide(np.subtract(1.0, u, out=res), tmp, out=res)
        np.log(res, out=res)
        res *= 0.5 * self.theta
        res += np.multiply(self.theta_c, u, out=tmp)
        return _result(res)

    def F(self, u):
        u = np.asarray(u, dtype=np.float64)
        self._check_domain(u)
        return 0.5 * self.theta * ((1.0 + u) * np.log(1.0 + u) + (1.0 - u) * np.log(1.0 - u)) - 0.5 * self.theta_c * u * u

    def f_prime(self, u):
        u = np.asarray(u, dtype=np.float64)
        self._check_domain(u)
        return -self.theta / (1.0 - u * u) + self.theta_c

    def __repr__(self):
        return f"FloryHuggins(theta={self.theta}, theta_c={self.theta_c})"


def _operands(u, out):
    """u as float64 and the array f writes: out, or a new one shaped like u."""
    u = np.asarray(u, dtype=np.float64)
    return u, np.empty_like(u) if out is None else out


def _result(res):
    """res, or its one value when 0-d, as numpy's operators give a scalar."""
    return res[()] if res.ndim == 0 else res


def compute_beta(p) -> float:
    """Positive root of p.f; the invariant region is [-beta, beta].

    The quartic well has the exact root 1.  For the logarithmic well the
    root in (0, 1) is bracketed on [1e-12, 1-1e-12], bisected to width
    1e-10, then polished with 3 Newton steps of p.f and p.f_prime, which
    need only the temperatures set; deterministic across platforms.
    """
    if p.kind == "gl":
        return 1.0
    lo, hi = 1e-12, 1.0 - 1e-12
    if not (p.f(lo) > 0.0 > p.f(hi)):
        raise ValueError("no sign change on the root bracket; invalid theta, theta_c")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if p.f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(3):
        x -= p.f(x) / p.f_prime(x)
    return float(x)


def compute_kappa_min(p) -> float:
    """max of |f'| over [-beta, beta], from p.f_prime at 0 and at beta.

    Both wells have f' even and monotone in xi^2, so the maximum is
    attained at xi = 0 or xi = +-beta.
    """
    return float(max(abs(p.f_prime(0.0)), abs(p.f_prime(p.beta))))
