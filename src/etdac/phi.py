"""Stable evaluation of the phi functions on the nonpositive real axis.

phi_0(z) = e^z and phi_j(z) = (e^z - sum_{k<j} z^k/k!) / z^j with the limit
phi_j(0) = 1/j!.  Only real z <= 0 is supported; every spectral argument of
the stabilized operator is negative, so nothing more is needed.

The defining formula cancels catastrophically for small |z| and loses
accuracy whenever the truncated exponential series has nearly converged, so
evaluation is split into three regions chosen by |z| relative to j:

* |z| <= max(SMALL_ARG_THRESHOLD, (j+1)/2): Taylor series
  sum_k z^k/(k+j)! truncated after TAYLOR_TERMS terms, terms alternating
  and decreasing, condition O(1).
* |z| >= 2(j+1): the rearranged form e^z z^-j - sum_{m=1..j} z^-m/(j-m)!,
  again alternating and decreasing.
* in between: the defining formula; there the truncated exponential series
  is still dominated by its last terms, so the subtraction is benign.

Compensated (Kahan) summation is used throughout, keeping the relative
error a few ulp, well inside the 1e-13 contract for j <= 10 and
z in [-1e6, 0].  Integer powers of the negative arguments are raised on
|z| with the sign restored by the exponent's parity: numpy's vector pow
takes positive bases only and calls libm once per element on negative
ones, and libm's pow is itself sign-symmetric in that way.
"""

from __future__ import annotations

from math import factorial

import numpy as np

__all__ = ["phi", "phi_batch", "cuts", "SMALL_ARG_THRESHOLD", "TAYLOR_TERMS", "SLICE"]

SMALL_ARG_THRESHOLD = 0.5
TAYLOR_TERMS = 30
SLICE = 16384  # 128 KiB of float64 per array, so a slice of several arrays stays in a 2 MiB L2


def _kahan_add(s, c, term):
    """One compensated-summation update; returns the new (sum, compensation)."""
    y = term - c
    t = s + y
    c = (t - s) - y
    return t, c


def _phi_taylor(j, z):
    """sum_{k=0}^{TAYLOR_TERMS} z^k / (k+j)! for the small-argument branch."""
    term = np.full_like(z, 1.0 / factorial(j))
    s, c = term.copy(), np.zeros_like(z)
    for k in range(1, TAYLOR_TERMS + 1):
        term = term * z / (k + j)
        s, c = _kahan_add(s, c, term)
    return s


def _neg_pow(x, k):
    """x^k for an array x < 0 and an integer k >= 0, as (-1)^k |x|^k."""
    p = np.power(-x, k)
    return -p if k % 2 else p


def _phi_forward(j, z):
    """(e^z - sum_{k<j} z^k/k!) / z^j for the intermediate range."""
    s, c = np.zeros_like(z), np.zeros_like(z)
    for k in range(j):
        # z^k by pow on the positive base |z| (numpy's vector path) and exact
        # integer k! keep each term near 1 ulp
        s, c = _kahan_add(s, c, _neg_pow(z, k) / factorial(k))
    return (np.exp(z) - s) / _neg_pow(z, j)


def _phi_reciprocal(j, z):
    """e^z z^-j - sum_{m=1..j} z^-m/(j-m)! for |z| >= 2(j+1)."""
    w = 1.0 / z
    s, c, p = np.zeros_like(z), np.zeros_like(z), np.ones_like(z)
    for m in range(1, j + 1):
        p = p * w
        s, c = _kahan_add(s, c, p / factorial(j - m))
    return np.exp(z) * _neg_pow(w, j) - s


def _phi_core(j, z):
    """Vectorized phi_j on a float64 array of nonpositive arguments.

    Branch selection is per element, so results are bit-identical no
    matter how the input is batched.
    """
    if j == 0:
        return np.exp(z)
    out = np.empty_like(z)
    az = -z
    small = az <= max(SMALL_ARG_THRESHOLD, 0.5 * (j + 1))
    large = az >= 2.0 * (j + 1)
    mid = ~(small | large)
    if small.any():
        out[small] = _phi_taylor(j, z[small])
    if mid.any():
        out[mid] = _phi_forward(j, z[mid])
    if large.any():
        out[large] = _phi_reciprocal(j, z[large])
    return out


def _check_args(j, z):
    if not isinstance(j, (int, np.integer)) or j < 0:
        raise ValueError(f"phi index must be a nonnegative integer, got {j!r}")
    if np.any(np.asarray(z) > 0):
        raise ValueError("phi is only defined here for z <= 0")


def phi(j: int, z: float) -> float:
    """phi_j(z) for real z <= 0 with relative accuracy <= 1e-13 (j <= 10)."""
    _check_args(j, z)
    return float(_phi_core(j, np.array([z], dtype=np.float64))[0])


def cuts(n: int, width: int = 1) -> list[slice]:
    """range(n), n rows of width cells, as max(1, ceil(n width / SLICE))
    slices whose lengths differ by at most one, never a short tail: a
    one-column matrix product goes through BLAS's gemv and rounds otherwise
    than gemm on two or more columns."""
    k = max(1, -(-n * width // SLICE))
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def phi_batch(j: int, zs) -> np.ndarray:
    """Elementwise phi over an array of nonpositive arguments; identical to
    scalar calls bit-for-bit.  The kernel runs on the slices of cuts, so
    its temporaries stay small whatever the array's size."""
    zs = np.asarray(zs, dtype=np.float64)
    _check_args(j, zs)
    flat, out = zs.ravel(), np.empty(zs.size)
    for part in cuts(flat.size):
        out[part] = _phi_core(j, flat[part])
    return out.reshape(zs.shape)
