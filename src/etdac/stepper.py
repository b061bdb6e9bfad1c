"""One time step of the exponential time differencing Runge-Kutta cascade.

The semilinear split is u_t = L u + N(u) with L = eps^2 Lap_h - kappa I and
N = f + kappa I.  The order-r solution is built iteratively: the level-j
stage function

    w_j(s) = u_n + s phi_1(sL)[L u_n + a N(u_n)]
             + tau sum_{m=1}^{j-1} m! (s/tau)^{m+1} phi_{m+1}(sL)[a c_{j-1,m}]

integrates the frozen interpolation polynomial
P_{j-1}(s) = N(u_n) + sum_m c_{j-1,m} (s/tau)^m exactly through Duhamel's
principle, phi_0(sL) u_n written as u_n + s phi_1(sL) L u_n so that u_n skips
the transforms.  Sampling N at the level-j nodes and solving the Vandermonde
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
from .phi import cuts, phi_batch
from .scheme import SchemeSpec
from .spectral import SpectralPlan

__all__ = [
    "StepContext",
    "StepFailure",
    "BoundExceeded",
    "NumericalBlowup",
    "step",
    "evaluate_stage",
    "rescale_factor",
    "polynomial_abs_max",
    "phi_keys",
]

# the least tolerance of rescale_factor's flat test, and 64 ulp over the l1 sum's rounding
_FLAT_TOL, _HEADROOM = 1e-12, 1.0 + 64.0 * np.finfo(float).eps
_DEPTH, _NEWTON_STEPS, _BLOCK = 40, 8, 2048  # the search for the derivative's roots
# phi's 1e-13 contract and the Vandermonde residual tests cover j <= 10
MAX_ORDER = 10


class StepFailure(RuntimeError):
    """A stage value of step step_index left the potential's domain (BoundExceeded,
    standard mode only) or became non-finite (NumericalBlowup); what heads the message."""

    def __init__(self, level: int, stage: int, step_index: int):
        self.level = level
        self.stage = stage
        self.step_index = step_index
        super().__init__(f"{self.what} at level {level}, stage {stage}")


class BoundExceeded(StepFailure):
    what = "stage value outside the potential domain"


class NumericalBlowup(StepFailure):
    what = "non-finite stage value"


class StepContext:
    """Everything a repeated fixed-tau step reads or writes, built whole on
    construction, so a context serves one step at a time.

    phi maps each stage time s of phi_keys, computed as step computes it, to
    its block (phi_block): the contiguous grids phi_j(s lambda), each times
    its stage-formula scalar, j = 1..jmax(s), built once and read by every
    step.  The work arrays are 3r + 2 fields at order r.  spectra[0] is
    lambda DCT(u_n), L u_n's spectrum, and spectra[1:j+2] level j's, row 1
    g = spectra[0] + DCT(alpha N(u_n)), so that a stage sums the one slice
    spectra[1:j+1] against a phi block in acc.  poly[:j+1] is level j's
    polynomial, row 0 N(u_n) at every level; g stays in spectra[1] from a
    level where alpha is one to the next such level.  acc and spectra are
    one padded stack (_padded).  The solve of level j takes spectra[2:j+2]'s
    first j ncells values, dead once the level's stages are summed, and
    scratch[:j] as its two scratch arrays; a stage's values go from acc to
    tmp; acc's first ncells values are the nonlinearity's scratch, and they
    and tmp rescale_factor's.  Between transforms a step runs slice by slice
    (phi.cuts), in cache.  Every array is written in each step before it is
    read, so a step that raised leaves nothing the next one sees.
    """

    def __init__(self, plan: SpectralPlan, potential, spec: SchemeSpec, tau: float, rescaled: bool = False):
        if not 0.0 < tau < math.inf:
            raise ValueError("tau must be finite and positive")
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
        # the work arrays first: built after the phi blocks, the 512^2 order-5
        # stack that every DCT reads lost 2 of its 14 MiB of huge pages
        mesh = plan.mesh
        stack = _padded(spec.order + 2, mesh)
        self.acc, self.spectra, self.tmp = stack[0], stack[1:], np.empty((mesh.ny, mesh.nx))
        self.poly = np.empty((spec.order, mesh.ncells))
        self.scratch = np.empty((spec.order - 1, mesh.ncells))
        # in ascending j, so each s keeps its largest
        rows = {s: j for j, s in sorted(phi_keys(spec, self.tau))}
        self.phi = {s: phi_block(self, s, j) for s, j in rows.items()}
        self._index = _padded(1, mesh)[0].astype(np.int32)  # 0 in the pad
        self._index[:, : mesh.nx] = plan.index

    def nonlinearity(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """N(u) = f(u) + kappa u on raw values.

        Given out, at most a field and overlapping neither values nor acc,
        N goes there and kappa u through acc's first out.size values.
        """
        n = self.potential.f(values, out=out)
        tmp = None if out is None else self.acc.reshape(-1)[: out.size].reshape(out.shape)
        n += np.multiply(self.plan.kappa, values, out=tmp)
        return n


def phi_block(ctx: StepContext, s: float, rows: int) -> np.ndarray:
    """The grids c * phi_j(s * eigvals), j = 1..rows, as one contiguous
    (rows, ny, nx) block.

    c = tau (j-1)! (s/tau)^j, phi_j's scalar in the stage formula, and
    phi_j act elementwise, so tabulating on plan.values and gathering by
    plan.index is exact.
    """
    s, block = float(s), np.empty((rows, *ctx.plan.index.shape))
    for j, grid in enumerate(block, 1):
        table = phi_batch(j, s * ctx.plan.values)
        table *= ctx.tau * math.factorial(j - 1) * (s / ctx.tau) ** j
        # the index is in range; mode "raise" would gather through a temporary
        np.take(table, ctx.plan.index, out=grid, mode="clip")
    return block


def phi_keys(spec: SchemeSpec, tau: float) -> set[tuple[int, float]]:
    """The (j, s) grids a step of spec at tau reads from the context's phi
    blocks: one row each, known before any plan or field exists.

    A level-j stage at s reads phi_1..phi_j, and the final stage at
    s = tau reads phi_1..phi_r; s is computed as step computes it.
    """
    tau = float(tau)
    keys = {(j, tau) for j in range(1, spec.order + 1)}
    for level, system in zip(spec.levels, spec.systems):
        for k in range(1, level + 1):
            s = float(system.nodes[k] * tau)
            keys.update((j, s) for j in range(1, level + 1))
    return keys


def _padded(rows: int, mesh: Mesh2D) -> np.ndarray:
    """A zeroed (rows, ny, stride) stack, stride nx rounded up to an odd
    number of 64-byte lines, transformed on its [..., :nx] views: rows of
    2^k lines (4 KiB at 512^2) would put every row a DCT's column pass
    gathers in a few cache sets.  Pads never reach a result."""
    return np.zeros((rows, mesh.ny, 8 * (-(-mesh.nx // 8) | 1)))


def _dct(grid: np.ndarray) -> np.ndarray:
    """The DCT of a (ny, nx) array or padded view, computed in it."""
    return scipy.fft.dctn(grid, type=2, norm="ortho", overwrite_x=True)


def _u_hat(ctx: StepContext, u_n: Field, out: np.ndarray) -> None:
    """lambda DCT(u_n) in out, a padded row, the eigenvalues gathered in ctx's acc."""
    np.copyto(out[:, : u_n.mesh.nx], u_n.grid())
    _dct(out[:, : u_n.mesh.nx])
    out *= np.take(ctx.plan.values, ctx._index, out=ctx.acc, mode="clip")


def _spectra(poly: np.ndarray, alpha: Field, out: np.ndarray, held: bool = False) -> float:
    """alpha's minimum, with the spectra of alpha * poly's rows computed in
    out[1:], a padded stack, out[0] = lambda DCT(u_n) added to row 0's (see StepContext).

    poly is a level's (level+1, ncells) polynomial: row 0 the unscaled
    N(u_n), row m the coefficient c_m of (s/tau)^m.  alpha is the
    pointwise factor, None for one at every point.  Where alpha_min is
    one, 1.0 * poly is poly, so the rows go unscaled, and held says that
    out[1] holds g already, which is then not transformed.
    """
    alpha_min = 1.0 if alpha is None else float(alpha.values.min())
    first = int(held and alpha_min == 1.0)
    grids = poly[first:].reshape(len(poly) - first, out.shape[1], -1)
    views = out[1 + first :, :, : grids.shape[2]]
    if alpha_min == 1.0:  # neither copies through a buffer, as a ufunc across layouts would
        np.copyto(views, grids)
    else:
        np.einsum("ij,mij->mij", alpha.grid(), grids, out=views)
    for row in views:
        _dct(row)
    if not first:
        out[1] += out[0]
    return alpha_min


def _stage_values(ctx: StepContext, block: np.ndarray, spectra: np.ndarray, out: np.ndarray) -> np.ndarray:
    """w_level(s) - u_n in out, an (ny, nx) array, returned flat, level = len(spectra),
    from s's phi block and the padded spectra of the level's polynomial, row 0 g
    (see StepContext): sum_m block[m] * spectra[m] in ctx's acc, one pass per
    slice of rows (phi.cuts), transformed there and copied out.
    einsum's unoptimized sum adds the terms in order of m, as a multiply-add
    loop would: bit for bit, up to the sign of an exact zero, where numpy's
    einsum does not fuse a multiply-add (x86-64 builds below an FMA3
    baseline); NEON and FMA3-baseline builds round each term's product and sum once."""
    block, acc = block[: len(spectra)], ctx.acc[:, : out.shape[1]]
    for rows in cuts(*out.shape):
        np.einsum("mij,mij->ij", block[:, rows], spectra[:, rows, : out.shape[1]], out=acc[rows])
    np.copyto(out, scipy.fft.idctn(acc, type=2, norm="ortho", overwrite_x=True))
    return out.reshape(-1)


def evaluate_stage(ctx: StepContext, s: float, u_n: Field, poly: np.ndarray, alpha: Field = None) -> Field:
    """Evaluate w_level(s) for s in (0, tau], level = len(poly), of the
    level's polynomial poly scaled pointwise by alpha (see _spectra), with
    a phi block of its own, which the context does not keep."""
    if not 0.0 < s <= ctx.tau * (1.0 + 1e-12):
        raise ValueError(f"stage time s={s} outside (0, tau]")
    if u_n.mesh != ctx.plan.mesh:
        raise ValueError("field mesh does not match the plan's mesh")
    if poly.ndim != 2 or poly.shape[1] != u_n.mesh.ncells:
        raise ValueError(f"poly must have one column per cell, {u_n.mesh.ncells}, got shape {poly.shape}")
    spectra = _padded(len(poly) + 1, u_n.mesh)
    _u_hat(ctx, u_n, spectra[0])
    _spectra(poly, alpha, spectra)
    increment = _stage_values(ctx, phi_block(ctx, s, len(poly)), spectra[1:], np.empty((u_n.mesh.ny, u_n.mesh.nx)))
    return Field(u_n.mesh, increment + u_n.values)


def _all_finite(values: np.ndarray) -> bool:
    """np.all(np.isfinite(values)), whose boolean temporary is made only
    when the sum is not finite: a NaN or infinity makes it so, and so may
    an overflow of finite values, which is why the sum warns of neither."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    return math.isfinite(total) or bool(np.all(np.isfinite(values)))


def step(ctx: StepContext, u_n: Field, *, n: int = 1) -> tuple[Field, float]:
    """Advance one step; returns (u_next, alpha_min).

    alpha_min is the smallest rescale factor at any cascade level, 1.0 when
    nothing shrank.  n is the step's index, which labels a StepFailure
    raised here.  Every array but u_next is the context's, and u_next
    shares none of them.
    """
    mesh = u_n.mesh
    if mesh != ctx.plan.mesh:
        raise ValueError("field mesh does not match the plan's mesh")
    if not _all_finite(u_n.values):
        raise ValueError("u_n must be finite")
    if ctx.rescaled and max_norm(u_n) > ctx.potential.beta + MBP_TOL:
        raise ValueError("rescaled stepping requires max_norm(u_n) <= beta")

    cells = cuts(mesh.ncells)
    n0, rows = ctx.poly[0], (ctx.acc.reshape(-1)[: mesh.ncells], ctx.tmp.reshape(mesh.ncells))
    try:
        for part in cells:
            ctx.nonlinearity(u_n.values[part], out=n0[part])
    except ValueError as exc:
        raise BoundExceeded(0, 0, n) from exc

    _u_hat(ctx, u_n, ctx.spectra[0])

    alpha_min, flat_tol, level_min = 1.0, _FLAT_TOL, None
    for j in range(ctx.spec.order):
        poly = ctx.poly[: j + 1]
        if j:
            system = ctx.spec.systems[j - 1]
            # the flat test's tolerance: at least the rounding the solve leaves in c
            flat_tol = max(_FLAT_TOL, system.roundoff)
            for k in range(1, j + 1):
                w = _stage_values(ctx, ctx.phi[system.nodes[k] * ctx.tau], ctx.spectra[1 : j + 1], ctx.tmp)
                w += u_n.values
                if not _all_finite(w):
                    raise NumericalBlowup(j, k, n)
                try:
                    for part in cells:
                        ctx.nonlinearity(w[part], out=poly[k, part])
                        poly[k, part] -= n0[part]
                except ValueError as exc:
                    raise BoundExceeded(j, k, n) from exc
            if j > 1:  # V_1 = [a_1] = [1], so level 1 takes c_1 = d_1 as it stands
                spare = ctx.spectra[2 : j + 2].reshape(-1)[: j * mesh.ncells].reshape(j, mesh.ncells)
                for part in cells:  # slices of >= 2 columns keep the whole solve's bits
                    system.solve(poly[1:, part], out=poly[1:, part], scratch=(spare[:, part], ctx.scratch[:j, part]))
        # alpha, in tmp, unbound; spectra[1] still holds g after a level
        # where alpha was one
        level_min = _spectra(poly, rescale_factor(mesh, poly, ctx.kappa_beta, flat_tol, rows) if ctx.rescaled
                             else None, ctx.spectra[: j + 2], level_min == 1.0)
        alpha_min = min(alpha_min, level_min)

    out = _stage_values(ctx, ctx.phi[ctx.tau], ctx.spectra[1:], np.empty((mesh.ny, mesh.nx)))
    out += u_n.values
    if not _all_finite(out):
        raise NumericalBlowup(ctx.spec.order, ctx.spec.order, n)
    return Field(mesh, out), alpha_min


def rescale_factor(mesh: Mesh2D, poly: np.ndarray, kappa_beta: float, flat_tol: float = _FLAT_TOL,
                   scratch=None) -> Field:
    """Pointwise a = min(kappa_beta / max_{s in [0,1]} |P(x, s)|, 1).

    poly is (d+1, ncells) with P(x, s) = sum_m poly[m](x) s^m on the unit
    interval.  Two certificates precede the exact maximization: the
    coefficient l1 bound, then the Bernstein coefficient bound (a polynomial
    on [0, 1] stays inside the convex hull of its Bernstein coefficients).
    Both only ever certify a = 1.  A flat point of degree >= 1, with
    sum_{m>=1} |c_m| <= flat_tol |c_0|, then takes its l1 sum as max |P|:
    an upper bound within flat_tol, so a is up to flat_tol smaller,
    relatively, than from the exact maximum m (polynomial_abs_max), which
    decides every other point, as a = kappa_beta / (m + 2 d eps l1): the
    margin bounds Horner's rounding in m (Higham ch. 5), so |a P| <= kappa_beta.
    step passes max(_FLAT_TOL, V_d.roundoff) at degree d, the rounding its
    solve leaves in c: _FLAT_TOL = 1e-12 for uniform nodes up to d = 5 and
    Chebyshev up to d = 6, then 2.7e-12, 1.9e-11, 1.3e-10, 9.4e-10 (uniform,
    d = 6..9) and 4.9e-12, 2.5e-11, 1.3e-10 (Chebyshev, d = 7..9).
    scratch, two flat (ncells,) arrays other than poly, takes the l1 sums
    and a, so that the returned field's values are scratch[1].
    """
    if not 0.0 < kappa_beta < math.inf:
        raise ValueError("kappa_beta must be finite and positive")
    if poly.ndim != 2 or poly.shape[1] != mesh.ncells:
        raise ValueError(f"poly must have one column per cell, {mesh.ncells}, got shape {poly.shape}")
    l1, alpha = np.empty((2, mesh.ncells)) if scratch is None else scratch
    # row by row, so each column's sum is the same in any batch and layout; a slice at a time, in cache
    for part in cuts(mesh.ncells):
        np.abs(poly[0, part], out=l1[part])
        for row in poly[1:, part]:
            l1[part] += np.abs(row, out=alpha[part])
    if not _all_finite(l1):
        raise ValueError("polynomial coefficients must be finite")
    alpha.fill(1.0)
    suspicious = np.flatnonzero(l1 > kappa_beta)
    if suspicious.size and poly.shape[0] > 1:
        # Bernstein row 0 is e_0, so b_0 = c_0: |c_0| > kappa_beta needs no product
        c0 = np.abs(poly[0].take(suspicious))
        keep = c0 > kappa_beta
        low = np.flatnonzero(~keep)
        bern = _bernstein_matrix(poly.shape[0] - 1) @ poly.take(suspicious[low], axis=1)
        keep[low] = np.abs(bern).max(axis=0) > kappa_beta
        suspicious, c0 = suspicious[keep], c0[keep]
        top = l1[suspicious]
        flat = top - c0 <= flat_tol * c0
        alpha[suspicious[flat]] = np.minimum(kappa_beta / (top[flat] * _HEADROOM), 1.0)
        suspicious = suspicious[~flat]
    if suspicious.size:
        m, _ = _poly_abs_max_many(poly[:, suspicious])  # Fortran-ordered: its P(1) sum's bits depend on it
        m += 2 * (len(poly) - 1) * np.finfo(float).eps * l1[suspicious]
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

    Candidates are s = 0, s = 1, and the roots of the derivative in
    [0, 1], isolated by Bernstein halving and found by safeguarded Newton
    (_critical).  All-zero coefficients give (0, 0), and coefficients that
    are not finite a ValueError.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=np.float64))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1D sequence")
    if c.size > 10:
        raise ValueError("polynomial degree must be <= 9")
    if not np.all(np.isfinite(c)):
        raise ValueError("coeffs must be finite")
    m, s = _poly_abs_max_many(c[:, None])
    return float(m[0]), float(s[0])


def _poly_abs_max_many(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columnwise |P| maximum over [0, 1] for stacked coefficients (d+1, n)."""
    d = c.shape[0] - 1
    v0, v1 = np.abs(c[0]), np.abs(c.sum(axis=0))
    best, arg = np.maximum(v0, v1), np.where(v1 > v0, 1.0, 0.0)
    if d < 2:  # P' is constant: the endpoints decide
        return best, arg
    deriv = c[1:] * np.arange(1, d + 1)[:, None]
    for first in range(0, c.shape[1], _BLOCK):
        blk = np.arange(first, min(first + _BLOCK, c.shape[1]))
        _critical(best, arg, c, deriv[:, blk], blk)
    return best, arg


def _critical(best, arg, c, dc, pts):
    """Raise best/arg at pts to |P| at the roots of P' in [0, 1], P''s
    coefficients dc of formal degree e >= 1, its lead zero or not.  Every
    operation acts per point, so a point's result does not depend on its
    batch.  A P' that is zero or constant has no sign change, so the
    endpoints, already in best, decide it.

    P''s Bernstein coefficients on [0, 1] are halved by de Casteljau until
    those of each piece change sign at most once (a zero counts as negative,
    which can only add changes), so that a piece holds at most one root
    (Descartes' rule in Bernstein form), or _DEPTH times, after which a
    piece stands for its midpoint.  Safeguarded Newton starts at each
    one-change piece's secant; a root whose last step exceeds 1e-10 and
    leaves the bracket or moves |P| by more than 1e-16 relative is then
    bisected to its last bit.
    """
    e = dc.shape[0] - 1
    b = sum(_bernstein_matrix(e)[:, j, None] * dc[j] for j in range(e + 1))  # per point, unlike a BLAS product
    start, piece, isolated = np.zeros(dc.shape[1]), np.arange(dc.shape[1]), []
    for depth in range(_DEPTH + 1):
        width = 0.5**depth
        pos = b > 0.0
        changes = np.count_nonzero(pos[1:] != pos[:-1], axis=0)
        one, many = changes == 1, changes > 1
        isolated.append((b[0, one], b[e, one], start[one], start[one] + width, piece[one]))
        b, start, piece = b[:, many], start[many], piece[many]
        if depth == _DEPTH or not piece.size:
            break
        b, start, piece = _halves(b), np.concatenate([start, start + width / 2]), np.concatenate([piece, piece])
    left, right, lo, hi, col = map(np.concatenate, zip(*isolated))
    # one sign change: flip P' to be <= 0 at the left end, start at the secant
    g = dc[:, col] * np.where(left > 0.0, -1.0, 1.0)
    x = lo + left / (left - right) * (hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(_NEWTON_STEPS + 1):
            f, fp = _horner(g, x)
            step = f / fp
            if it == _NEWTON_STEPS:
                break
            lo, hi = np.where(f > 0.0, lo, x), np.where(f > 0.0, x, hi)
            x -= step
            np.copyto(x, 0.5 * (lo + hi), where=~((x >= lo) & (x <= hi)))
        val = np.abs(_horner(c[:, pts[col]], x)[0])
        ok = (np.abs(step) <= 1e-10) | ((x - step >= lo) & (x - step <= hi) & (np.abs(f * step) <= 1e-16 * val))
    bad = np.flatnonzero(~ok)
    x[bad] = _bisect(g[:, bad], lo[bad], hi[bad])
    # a piece left at the depth cap stands for its midpoint
    x, col = np.concatenate([x, start + width / 2]), pts[np.concatenate([col, piece])]
    _raise_to(best, arg, col, np.abs(_horner(c[:, col], x)[0]), x)


def _halves(b: np.ndarray) -> np.ndarray:
    """de Casteljau at 1/2: the Bernstein coefficients (e+1, n) of n pieces
    become those of their left halves, then of their right halves, (e+1, 2n)."""
    e, n = b.shape[0] - 1, b.shape[1]
    out = np.empty((e + 1, 2 * n))
    out[0, :n], out[e, n:] = b[0], b[e]
    for k in range(1, e + 1):
        b = 0.5 * (b[:-1] + b[1:])
        out[k, :n], out[e - k, n:] = b[0], b[-1]
    return out


def _horner(g: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g(x), g'(x)) by Horner, g's rows the coefficients of x^0..x^e."""
    f, fp = g[-1].copy(), np.zeros_like(x)
    for row in g[-2::-1]:
        np.add(np.multiply(fp, x, out=fp), f, out=fp)
        np.add(np.multiply(f, x, out=f), row, out=f)
    return f, fp


def _bisect(g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where g, <= 0 at lo and >= 0 at hi, changes sign, by halving each
    bracket until its ends are neighbouring floats."""
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return mid
        up = _horner(g, mid)[0] > 0.0
        lo, hi = np.where(live & ~up, mid, lo), np.where(live & up, mid, hi)


def _raise_to(best, arg, tgt, vals, x):
    """Raise best[t] to the largest of vals at t where that exceeds it, and
    arg[t] to the least x that attains it; t may repeat in tgt."""
    old = best[tgt]
    np.fmax.at(best, tgt, vals)
    hit = (vals > old) & (vals == best[tgt])
    arg[tgt[hit]] = np.inf
    np.fmin.at(arg, tgt[hit], x[hit])
