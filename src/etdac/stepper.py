"""One time step of the exponential time differencing Runge-Kutta cascade.

The semilinear split is u_t = L u + N(u) with L = eps^2 Lap_h - kappa I and
N = f + kappa I.  The order-r solution is built iteratively: the level-j
stage function

    w_j(s) = phi_0(sL) u_n + s phi_1(sL)[a N(u_n)]
             + tau sum_{m=1}^{j-1} m! (s/tau)^{m+1} phi_{m+1}(sL)[a c_{j-1,m}]

integrates the frozen interpolation polynomial
P_{j-1}(s) = N(u_n) + sum_m c_{j-1,m} (s/tau)^m exactly through Duhamel's
principle.  Sampling N at the level-j nodes and solving the Vandermonde
system V_j c_j = d_j yields the next polynomial, and u_{n+1} = w_r(tau).

In rescaled mode each level's polynomial is shrunk pointwise by
a = min(kappa*beta / max_s |P|, 1) before it enters the phi applications.
Since |a P| never exceeds kappa*beta, the stage values obey the maximum
bound |w| <= beta unconditionally in tau; the interpolation data d_j always
uses the unscaled N(u_n).  In standard mode a is identically one, and both
modes produce bit-identical steps whenever the computed a is one everywhere.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft

from .diagnostics import MBP_TOL
from .grid import Field, Mesh2D, max_norm
from .phi import phi_batch
from .scheme import SchemeSpec
from .spectral import SpectralPlan

__all__ = [
    "StepContext",
    "StageState",
    "BoundExceeded",
    "NumericalBlowup",
    "step",
    "evaluate_stage",
    "rescale_factor",
    "polynomial_abs_max",
]

_REAL_ROOT_TOL = 1e-10
# phi's 1e-13 contract and the Vandermonde residual tests cover j <= 10
MAX_ORDER = 10


class BoundExceeded(RuntimeError):
    """A stage value of step step_index left the potential's domain (standard mode only)."""

    def __init__(self, level: int, stage: int, step_index: int):
        self.level = level
        self.stage = stage
        self.step_index = step_index
        super().__init__(f"stage value outside the potential domain at level {level}, stage {stage}")


class NumericalBlowup(RuntimeError):
    """A stage value of step step_index became non-finite."""

    def __init__(self, level: int, stage: int, step_index: int):
        self.level = level
        self.stage = stage
        self.step_index = step_index
        super().__init__(f"non-finite stage value at level {level}, stage {stage}")


class StepContext:
    """Everything a repeated fixed-tau step needs, with cached phi grids.

    The stage times a_{j,k} tau are step-invariant, so each grid
    phi_j(s lambda), times its stage-formula scalar, is computed once per
    (j, s) and reused across steps.
    """

    def __init__(self, plan: SpectralPlan, potential, spec: SchemeSpec, tau: float, rescaled: bool = False):
        if tau <= 0:
            raise ValueError("tau must be positive")
        if plan.kappa < potential.kappa_min - 1e-12:
            raise ValueError(
                f"stabilizer kappa={plan.kappa} is below the potential's minimum {potential.kappa_min}"
            )
        if spec.order > MAX_ORDER:
            raise ValueError(f"stepping supports order <= {MAX_ORDER}")
        self.plan = plan
        self.potential = potential
        self.spec = spec
        self.tau = float(tau)
        self.rescaled = bool(rescaled)
        self.kappa_beta = plan.kappa * potential.beta
        self._phi_grids: dict[tuple[int, float], np.ndarray] = {}

    def phi_grid(self, j: int, s: float) -> np.ndarray:
        """c * phi_j(s * eigvals) as a (ny, nx) array, memoized on (j, s).

        c is the scalar of phi_j in the stage formula: 1 for j = 0, s for
        j = 1 and tau (j-1)! (s/tau)^j for j >= 2.
        """
        key = (j, float(s))
        grid = self._phi_grids.get(key)
        if grid is None:
            grid = phi_batch(j, s * self.plan.eigvals)
            if j == 1:
                grid *= s
            elif j > 1:
                grid *= self.tau * math.factorial(j - 1) * (s / self.tau) ** j
            self._phi_grids[key] = grid
        return grid

    def nonlinearity(self, values: np.ndarray) -> np.ndarray:
        """N(u) = f(u) + kappa u on raw values."""
        return self.potential.f(values) + self.plan.kappa * values


class StageState:
    """Interpolation polynomial of one cascade level, kept as the spectra
    of its scaled rows.

    poly is (level+1, ncells): row 0 is the unscaled N(u_n) and row m the
    coefficient c_m of (s/tau)^m.  alpha is the pointwise scaling factor,
    None where it is one at every point, and alpha_min its minimum (1.0
    for None); hats[m] is the transform of alpha*poly[m], so the state's
    level is len(hats) - 1.  hat0, when given, is that transform of row 0,
    already computed.
    """

    def __init__(self, mesh: Mesh2D, poly: np.ndarray, alpha: Field = None, hat0: np.ndarray = None):
        self.alpha_min = 1.0 if alpha is None else float(alpha.values.min())
        rows = poly if alpha is None else alpha.values * poly
        if hat0 is None:
            hat0 = _dct(mesh, rows[0])
        self.hats = [hat0] + [_dct(mesh, row) for row in rows[1:]]


def _dct(mesh: Mesh2D, values: np.ndarray) -> np.ndarray:
    return scipy.fft.dctn(values.reshape(mesh.ny, mesh.nx), type=2, norm="ortho")


def _make_state(ctx: StepContext, poly: np.ndarray, n0_hat) -> StageState:
    """The level's state.  Where alpha is one at every point, 1.0 * N(u_n)
    is N(u_n), so the step's one transform of it, n0_hat(), is row 0's."""
    mesh = ctx.plan.mesh
    alpha = rescale_factor(mesh, poly, ctx.kappa_beta) if ctx.rescaled else None
    if alpha is None or alpha.values.min() == 1.0:
        return StageState(mesh, poly, hat0=n0_hat())
    return StageState(mesh, poly, alpha)


def _stage_values(ctx: StepContext, s: float, u_hat: np.ndarray, state: StageState) -> np.ndarray:
    """w_level(s) as flat values, level = len(state.hats), from the state's spectra."""
    acc = ctx.phi_grid(0, s) * u_hat
    for m, hat in enumerate(state.hats):
        acc += ctx.phi_grid(m + 1, s) * hat
    vals = scipy.fft.idctn(acc, type=2, norm="ortho", overwrite_x=True)
    return vals.reshape(ctx.plan.mesh.ncells)


def evaluate_stage(ctx: StepContext, s: float, u_n: Field, state: StageState) -> Field:
    """Evaluate w_level(s) for s in (0, tau], level = len(state.hats)."""
    if not 0.0 < s <= ctx.tau * (1.0 + 1e-12):
        raise ValueError(f"stage time s={s} outside (0, tau]")
    if u_n.mesh != ctx.plan.mesh:
        raise ValueError("field mesh does not match the plan's mesh")
    return Field(u_n.mesh, _stage_values(ctx, s, _dct(u_n.mesh, u_n.values), state))


def step(ctx: StepContext, u_n: Field, *, n: int = 1) -> tuple[Field, float]:
    """Advance one step; returns (u_next, alpha_min).

    alpha_min is the smallest rescale factor at any cascade level, 1.0 when
    nothing shrank.  n is the step's index, which labels a BoundExceeded or
    NumericalBlowup raised here.
    """
    mesh = u_n.mesh
    if mesh != ctx.plan.mesh:
        raise ValueError("field mesh does not match the plan's mesh")
    if not np.all(np.isfinite(u_n.values)):
        raise ValueError("u_n must be finite")
    if ctx.rescaled and max_norm(u_n) > ctx.potential.beta + MBP_TOL:
        raise ValueError("rescaled stepping requires max_norm(u_n) <= beta")

    try:
        n0 = ctx.nonlinearity(u_n.values)
    except ValueError as exc:
        raise BoundExceeded(0, 0, n) from exc

    n0_hat = functools.cache(lambda: _dct(mesh, n0))
    state = _make_state(ctx, n0[None, :], n0_hat)
    alpha_min = state.alpha_min
    u_hat = _dct(mesh, u_n.values)

    for j in ctx.spec.levels:
        system = ctx.spec.systems[j - 1]
        poly = np.empty((j + 1, mesh.ncells))
        poly[0] = n0
        for k in range(1, j + 1):
            w = _stage_values(ctx, system.nodes[k] * ctx.tau, u_hat, state)
            if not np.all(np.isfinite(w)):
                raise NumericalBlowup(j, k, n)
            try:
                poly[k] = ctx.nonlinearity(w)
            except ValueError as exc:
                raise BoundExceeded(j, k, n) from exc
            poly[k] -= n0
        poly[1:] = system.solve(poly[1:])
        state = _make_state(ctx, poly, n0_hat)
        alpha_min = min(alpha_min, state.alpha_min)

    r = ctx.spec.order
    out = _stage_values(ctx, ctx.tau, u_hat, state)
    if not np.all(np.isfinite(out)):
        raise NumericalBlowup(r, r, n)
    return Field(mesh, out), alpha_min


def rescale_factor(mesh: Mesh2D, poly: np.ndarray, kappa_beta: float) -> Field:
    """Pointwise a = min(kappa_beta / max_{s in [0,1]} |P(x, s)|, 1).

    poly is (d+1, ncells) with P(x, s) = sum_m poly[m](x) s^m on the unit
    interval.  Two certificates precede the exact maximization: the
    coefficient l1 bound, then the Bernstein coefficient bound (a polynomial
    on [0, 1] stays inside the convex hull of its Bernstein coefficients).
    Both only ever certify a = 1, so the exact companion-matrix maximum
    still decides every point that might need shrinking.
    """
    if kappa_beta <= 0:
        raise ValueError("kappa_beta must be positive")
    alpha = np.ones(mesh.ncells)
    suspicious = np.nonzero(np.sum(np.abs(poly), axis=0) > kappa_beta)[0]
    if suspicious.size and poly.shape[0] > 1:
        bern = np.abs(_bernstein_matrix(poly.shape[0] - 1) @ poly[:, suspicious])
        suspicious = suspicious[bern.max(axis=0) > kappa_beta]
    if suspicious.size:
        m, _ = _poly_abs_max_many(poly[:, suspicious])
        alpha[suspicious] = np.minimum(kappa_beta / np.maximum(m, 1e-300), 1.0)
    return Field(mesh, alpha)


@functools.cache
def _bernstein_matrix(d: int) -> np.ndarray:
    """Monomial-to-Bernstein change of basis on [0, 1] for degree d."""
    mat = np.zeros((d + 1, d + 1))
    for i in range(d + 1):
        for k in range(i + 1):
            mat[i, k] = math.comb(i, k) / math.comb(d, k)
    return mat


def polynomial_abs_max(coeffs) -> tuple[float, float]:
    """(max, argmax) of |c_0 + c_1 s + ... + c_d s^d| over s in [0, 1].

    Candidates are s = 0, s = 1, and the real roots of the derivative in
    (0, 1); derivative roots come from companion-matrix eigenvalues, a root
    counting as real when |imag| <= 1e-10 (1 + |real|).  All-zero
    coefficients give (0, 0).
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=np.float64))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1D sequence")
    if c.size > 10:
        raise ValueError("polynomial degree must be <= 9")
    m, s = _poly_abs_max_many(c[:, None])
    return float(m[0]), float(s[0])


def _poly_abs_max_many(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise |P| maximum over [0, 1] for stacked coefficients (d+1, n)."""
    d = c.shape[0] - 1
    npts = c.shape[1]
    best = np.abs(c[0]).copy()
    arg = np.zeros(npts)
    v1 = np.abs(c.sum(axis=0))
    upd = v1 > best
    best[upd] = v1[upd]
    arg[upd] = 1.0
    if d == 0:
        return best, arg
    deriv = c[1:] * np.arange(1, d + 1)[:, None]
    nonzero = deriv != 0.0
    # highest nonzero derivative coefficient per point, -1 when P' == 0;
    # points with constant or vanishing derivative are settled by endpoints
    eff = np.where(nonzero.any(axis=0), (d - 1) - np.argmax(nonzero[::-1], axis=0), -1)
    for e in range(1, d):
        pts = np.nonzero(eff == e)[0]
        if pts.size:
            _update_from_roots(best, arg, c, _roots(deriv[: e + 1, pts]), pts)
    return best, arg


def _roots(dcoeffs: np.ndarray) -> np.ndarray:
    """Roots of columnwise polynomials with nonzero leading coefficient.

    Shape (e+1, n) in, complex (n, e) out.  Degree 1 and 2 use closed
    forms; higher degrees use batched companion-matrix eigenvalues.
    """
    e = dcoeffs.shape[0] - 1
    n = dcoeffs.shape[1]
    if e == 1:
        return (-dcoeffs[0] / dcoeffs[1]).astype(np.complex128)[:, None]
    if e == 2:
        a, b, cc = dcoeffs[2], dcoeffs[1], dcoeffs[0]
        disc = np.sqrt((b * b - 4.0 * a * cc).astype(np.complex128))
        return np.stack([(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)], axis=1)
    monic = dcoeffs[:e] / dcoeffs[e]
    comp = np.zeros((n, e, e))
    idx = np.arange(e - 1)
    comp[:, idx + 1, idx] = 1.0
    comp[:, :, -1] = -monic.T
    return np.linalg.eigvals(comp)


def _update_from_roots(best, arg, c, roots, pts):
    d = c.shape[0] - 1
    for k in range(roots.shape[1]):
        re = roots[:, k].real
        im = roots[:, k].imag
        ok = (np.abs(im) <= _REAL_ROOT_TOL * (1.0 + np.abs(re))) & (re > 0.0) & (re < 1.0)
        if not ok.any():
            continue
        cols = pts[ok]
        x = re[ok]
        acc = c[d, cols].copy()
        for m in range(d - 1, -1, -1):
            acc = acc * x + c[m, cols]
        vals = np.abs(acc)
        upd = vals > best[cols]
        if upd.any():
            tgt = cols[upd]
            best[tgt] = vals[upd]
            arg[tgt] = x[upd]
