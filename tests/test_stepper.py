import importlib
import math

import numpy as np
import pytest
import scipy.fft

import etdac.stepper as stepper
from conftest import random_field, sinprod, traced_peak
from etdac.diagnostics import record
from etdac.grid import Field, Mesh2D, discrete_energy, max_norm
from etdac.phi import phi_batch
from etdac.potentials import FloryHuggins
from etdac.scheme import NODE_KINDS, Vandermonde, make_nodes, make_scheme, tau_max
from etdac.spectral import SpectralPlan, apply_phi
from etdac.stepper import (
    BoundExceeded,
    NumericalBlowup,
    StepContext,
    StepFailure,
    evaluate_stage,
    phi_keys,
    polynomial_abs_max,
    rescale_factor,
    step,
)
from oracles import DenseOperator, brute_poly_max, dense_etdrk_step, duhamel_stage, exact_poly_max

# the module itself, whose SLICE sizes the step's slices: etdac's own name phi is the function
phi_module = importlib.import_module("etdac.phi")


def _einsum_fuses() -> bool:
    """Whether this numpy's einsum fuses its multiply-adds, as NEON and
    FMA3-baseline builds do: -1 + (1 + 2^-30)(1 - 2^-30) is -2^-60 fused,
    and 0 unfused, where the product rounds to 1."""
    p = np.array([1.0, 1.0 + 2.0**-30])[:, None, None] * np.ones((2, 16, 16))
    h = np.array([-1.0, 1.0 - 2.0**-30])[:, None, None] * np.ones((2, 16, 16))
    return bool(np.einsum("mij,mij->ij", p, h).any())


def make_ctx(mesh, potential, order, tau, rescaled=False, eps=0.1, kappa=None):
    kappa = potential.kappa_min if kappa is None else kappa
    plan = SpectralPlan(mesh, eps, kappa)
    spec = make_scheme(order)
    return StepContext(plan, potential, spec, tau, rescaled=rescaled)


def ones_field(mesh):
    return Field(mesh, np.full(mesh.ncells, 1.0))


def stacked(n0, coeffs):
    """(level+1, ncells) polynomial array: N(u_n), then c_1..c_level."""
    return np.stack([n0.values] + [c.values for c in coeffs])


def make_state(n0, coeffs, alpha):
    """The (poly, alpha) arguments of evaluate_stage."""
    return stacked(n0, coeffs), alpha


def rescale(n0, coeffs, kappa_beta):
    return rescale_factor(n0.mesh, stacked(n0, coeffs), kappa_beta)


class LinearDrift:
    """Test hook f(u) = -kappa u, so the stabilized nonlinearity vanishes."""

    kind = "gl"

    def __init__(self, kappa=2.0):
        self.kappa = kappa
        self.beta = 1.0
        self.kappa_min = kappa

    def f(self, u, out=None):
        return np.multiply(-self.kappa, np.asarray(u, dtype=np.float64), out=out)

    def F(self, u):
        u = np.asarray(u, dtype=np.float64)
        return 0.5 * self.kappa * u * u

    def f_prime(self, u):
        return np.full_like(np.asarray(u, dtype=np.float64), -self.kappa)


class TestPolynomialAbsMax:
    def test_constant(self):
        assert polynomial_abs_max([-3.0]) == (3.0, 0.0)

    @pytest.mark.parametrize("coeffs", [[0.0], [0.0, 0.0, 0.0]])
    def test_all_zero(self, coeffs):
        assert polynomial_abs_max(coeffs) == (0.0, 0.0)

    def test_interior_maximum(self):
        m, s = polynomial_abs_max([0.0, 1.0, -1.0])
        assert m == pytest.approx(0.25, abs=1e-14)
        assert s == pytest.approx(0.5, abs=1e-12)

    def test_endpoint_maximum(self):
        m, s = polynomial_abs_max([0.5, 1.0])
        assert m == 1.5
        assert s == 1.0

    def test_negative_lobe_found(self):
        # P = (s - 0.1)(s - 0.9) has its largest magnitude at the vertex
        coeffs = [0.09, -1.0, 1.0]
        m, s = polynomial_abs_max(coeffs)
        assert m == pytest.approx(0.16, abs=1e-13)
        assert s == pytest.approx(0.5, abs=1e-12)

    def test_argmax_attains_the_maximum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            coeffs = rng.uniform(-2, 2, rng.integers(1, 8))
            m, s = polynomial_abs_max(coeffs)
            assert abs(np.polynomial.polynomial.polyval(s, coeffs)) == pytest.approx(m, abs=1e-12)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 9])
    def test_against_dense_sampling(self, degree):
        # the sampled maximum can sit below the true one by |P''| h^2 / 8
        rng = np.random.default_rng(degree)
        h = 1.0 / 100000
        for _ in range(60):
            coeffs = rng.uniform(-2, 2, degree + 1)
            m, _ = polynomial_abs_max(coeffs)
            brute = brute_poly_max(coeffs)
            gap = sum(k * (k - 1) * abs(c) for k, c in enumerate(coeffs)) * h * h / 8
            assert m >= brute - 1e-10
            assert m <= brute + gap + 1e-10

    def test_vanishing_leading_coefficients(self):
        m, s = polynomial_abs_max([0.0, 1.0, -1.0, 0.0, 0.0])
        assert m == pytest.approx(0.25, abs=1e-14)
        assert s == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("coeffs", [[0.0, 1.0, np.nan], [np.nan, 1.0, 2.0, 3.0, 4.0],
                                        [1.0, np.inf, 2.0, 3.0], [0.5, -1.0, 2.0, -np.inf]])
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            polynomial_abs_max(coeffs)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            polynomial_abs_max([])
        with pytest.raises(ValueError):
            polynomial_abs_max(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            polynomial_abs_max(np.zeros(11))


def _integral(roots, scale=1.0, const=0.0):
    """Coefficients of const + scale * int_0^s prod (t - r) dt."""
    deriv = scale * np.polynomial.polynomial.polyfromroots(roots)
    return np.polynomial.polynomial.polyint(deriv, k=[const])


def _two_roots_in_one_cell():
    # the maximum sits at 0.95, and 0.99 shares the sixteenth [15/16, 1] with it
    return _integral([0.95, 0.99, -0.5, -2.0], 60.0, 0.1)


# cases where the Bernstein-isolated Newton search is stressed; each is
# checked against the 40-digit oracle to 1e-14 relative
EXACT_CASES = {
    "two_roots_in_one_cell": _two_roots_in_one_cell(),
    "double_root_flat_inflection": _integral([0.4, 0.4, 0.9, -1.0], 10.0, -0.2),
    # integer coefficients, so P'(3/8) is exactly zero: the maximum is there
    "root_on_a_cell_edge": _integral([0.375, 1.5, -2.0], 192.0, 0.3),
    "derivative_zero_at_zero": np.array([0.3, 0.0, -2.0, 1.5, 0.4, -0.7]),
    "vanishing_leading_coefficients": np.array([0.1, 0.5, -3.0, 2.5, 1.0, 0.0, 0.0]),
    "degree_9": np.random.default_rng(9).uniform(-2.0, 2.0, 10),
    # a pair that halving separates only after about 30 levels; the maximum is at 0.8
    "roots_1e-9_apart": _integral([0.3, 0.3 + 1e-9, 0.8, -1.0], 10.0),
    # Newton converges only linearly to the maximum at a triple root
    "triple_root": _integral([0.6, 0.6, 0.6, -1.0], 20.0, 0.1),
    # dyadic roots, so P'(1/2) is exactly zero on the first halving's edge: the maximum is there
    "root_at_the_halving_point": _integral([0.125, 0.5, 0.875], 512.0, 1.53125),
    # P' identically zero, and P' constant, at formal degree >= 2: the endpoints decide
    "derivative_identically_zero": np.array([-0.7, 0.0, 0.0, 0.0]),
    "derivative_constant": np.array([0.3, -1.2, 0.0, 0.0, 0.0]),
}


def _flat_columns(rng, frac, tol=stepper._FLAT_TOL, degrees=range(1, 10)):
    """(10, 12 * len(degrees)) flat columns of the given degrees, zero-padded:
    c_0 of either sign at, above or below kb = 1.3, and a tail
    sum_{m>=1} |c_m| of exactly frac * tol |c_0| before rounding, its signs
    all those of c_0 (max |P| is then the l1 sum, the bound's tightest
    case), alternating, or random."""
    cols = []
    for degree in degrees:
        for c0 in (2.5, -1.7, 1.3, -1.3 * (1 - 1e-13)):
            for signs in ("same", "alternating", "random"):
                w = rng.uniform(0.1, 1.0, degree)
                sign = {"same": np.sign(c0) * np.ones(degree),
                        "alternating": (-1.0) ** np.arange(1, degree + 1),
                        "random": rng.choice([-1.0, 1.0], degree)}[signs]
                col = np.zeros(10)
                col[0] = c0
                col[1 : degree + 1] = sign * w / w.sum() * frac * tol * abs(c0)
                cols.append(col)
    return np.array(cols).T


# (degrees, tol, frac): _FLAT_TOL at degrees 1..9 with tails of frac times
# it, then each level whose solve's roundoff raises step's flat tolerance
# above _FLAT_TOL, alone at its degree, with tails of 0.5 and 1 times that
# tolerance, all above 1e-12
FLAT_CASES = [pytest.param(range(1, 10), stepper._FLAT_TOL, frac, id=str(frac)) for frac in (1e-3, 0.5, 1.0)]
FLAT_CASES += [pytest.param((d,), v.roundoff, frac, id=f"{kind}{d}-{frac}")
               for kind in NODE_KINDS for d in range(6, 10)
               if (v := Vandermonde(make_nodes(d, kind))).roundoff > stepper._FLAT_TOL for frac in (0.5, 1.0)]


def _exact_alpha(col, kb):
    return min(kb / polynomial_abs_max(col)[0], 1.0)


class TestExactMaximum:
    @pytest.mark.parametrize("name", sorted(EXACT_CASES))
    def test_adversarial_case_matches_oracle(self, name):
        coeffs = EXACT_CASES[name]
        m, s = polynomial_abs_max(coeffs)
        want = exact_poly_max(coeffs)
        assert abs(m - want) <= 1e-14 * want
        assert abs(np.polynomial.polynomial.polyval(s, coeffs)) == pytest.approx(m, rel=1e-14)

    def test_no_eigenvalues_are_taken(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("numpy.linalg.eigvals was called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for name in sorted(EXACT_CASES):
            self.test_adversarial_case_matches_oracle(name)
        mesh, poly, kb = _wide_batch(np.random.default_rng(11))
        alpha = rescale_factor(mesh, poly, kb).values
        assert np.array_equal(alpha, [_margined_alpha(poly[:, p], kb) for p in range(mesh.ncells)])

    @pytest.mark.parametrize("degree", range(1, 10))
    def test_random_polynomials_match_oracle(self, degree):
        rng = np.random.default_rng(1000 + degree)
        worst = 0.0
        for coeffs in rng.uniform(-2.0, 2.0, (1000, degree + 1)):
            m, _ = polynomial_abs_max(coeffs)
            want = exact_poly_max(coeffs)
            worst = max(worst, abs(m - want) / want)
        assert worst <= 1e-14

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_zero_padded_polynomials_match_oracle(self, degree):
        # true degree 1..8 at formal degree 9, so the search runs on a P'
        # whose leading coefficients are zero, in one batch with columns of
        # full degree; each column's result is the one it gets alone (in
        # Fortran order, as rescale_factor batches them, P(1) sums alike)
        rng = np.random.default_rng(2000 + degree)
        cols = np.asfortranarray(rng.uniform(-2.0, 2.0, (10, 400)))
        cols[degree + 1 :, :200] = 0.0
        m, s = stepper._poly_abs_max_many(cols)
        for p in range(200):
            want = exact_poly_max(cols[: degree + 1, p])
            assert abs(m[p] - want) <= 1e-14 * want
            assert (m[p], s[p]) == polynomial_abs_max(cols[:, p])
        assert abs(np.polynomial.polynomial.polyval(s, cols, tensor=False)) == pytest.approx(m, rel=1e-14)


class TestRescaleFactor:
    def setup_method(self):
        self.mesh = Mesh2D(1.0, 1.0, 4, 4)

    def test_in_bound_constant_gives_unit_factor(self):
        n = Field(self.mesh, np.full(self.mesh.ncells, 1.5))
        alpha = rescale(n, [], 2.0)
        assert np.all(alpha.values == 1.0)

    def test_twice_the_bound_gives_half(self):
        n = Field(self.mesh, np.full(self.mesh.ncells, 4.0))
        alpha = rescale(n, [], 2.0)
        assert np.all(alpha.values == 0.5)

    def test_zero_polynomial_gives_unit_factor(self):
        n = Field(self.mesh, np.full(self.mesh.ncells, 0.0))
        alpha = rescale(n, [Field(self.mesh, np.full(self.mesh.ncells, 0.0))], 2.0)
        assert np.all(alpha.values == 1.0)

    def test_mixed_points(self):
        vals = np.ones(16)
        vals[3] = 10.0
        alpha = rescale(Field(self.mesh, vals), [], 2.0)
        assert alpha.values[3] == pytest.approx(0.2, rel=1e-15)
        mask = np.ones(16, dtype=bool)
        mask[3] = False
        assert np.all(alpha.values[mask] == 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("degree", [1, 2, 4, 6])
    def test_scaled_polynomial_stays_within_bound(self, seed, degree):
        rng = np.random.default_rng(100 * degree + seed)
        kb = 1.3
        n = Field(self.mesh, rng.uniform(-3, 3, 16))
        coeffs = [Field(self.mesh, rng.uniform(-3, 3, 16)) for _ in range(degree)]
        alpha = rescale(n, coeffs, kb)
        assert np.all(alpha.values > 0.0)
        assert np.all(alpha.values <= 1.0)
        sigma = np.linspace(0.0, 1.0, 64)[None, :]
        poly = n.values[:, None] + sum(
            c.values[:, None] * sigma ** (m + 1) for m, c in enumerate(coeffs))
        assert np.max(np.abs(alpha.values[:, None] * poly)) <= kb + 1e-12

    def test_factor_is_exactly_bound_over_max(self):
        rng = np.random.default_rng(7)
        kb = 0.9
        n = Field(self.mesh, rng.uniform(-2, 2, 16))
        coeffs = [Field(self.mesh, rng.uniform(-2, 2, 16)) for _ in range(3)]
        alpha = rescale(n, coeffs, kb)
        for p in range(16):
            m, _ = polynomial_abs_max([n.values[p]] + [c.values[p] for c in coeffs])
            want = min(kb / m, 1.0) if m > 0 else 1.0
            assert alpha.values[p] == pytest.approx(want, rel=1e-14)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            rescale(Field(self.mesh, np.full(self.mesh.ncells, 1.0)), [], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bound_must_be_finite_and_positive(self, bad):
        # a NaN bound used to give a = 1 everywhere, so nothing shrank
        poly = np.full((3, self.mesh.ncells), 5.0)
        with pytest.raises(ValueError, match="finite and positive"):
            rescale_factor(self.mesh, poly, bad)

    @pytest.mark.parametrize("degrees, tol, frac", FLAT_CASES)
    def test_flat_factor_is_within_flat_tol_of_the_exact_one(self, monkeypatch, degrees, tol, frac):
        poly, kb = _flat_columns(np.random.default_rng(21), frac, tol, degrees), 1.3
        reached = []
        real = stepper._poly_abs_max_many
        monkeypatch.setattr(stepper, "_poly_abs_max_many", lambda c: reached.append(c.shape[1]) or real(c))
        alpha = rescale_factor(Mesh2D(1.0, 1.0, poly.shape[1] // 2, 2), poly, kb, tol).values
        if frac < 1.0:
            # below the tolerance every point is settled by the l1 sum
            assert reached == []
        for p in range(poly.shape[1]):
            exact = _exact_alpha(poly[:, p], kb)
            assert alpha[p] <= exact <= alpha[p] * (1.0 + 2.0 * tol)

    @pytest.mark.parametrize("degrees, tol, frac", [case for case in FLAT_CASES if case.values[2] < 1.0])
    def test_flat_factor_keeps_the_bound_against_the_oracle(self, degrees, tol, frac):
        # every point is flat here, so each a comes from its l1 sum
        poly, kb = _flat_columns(np.random.default_rng(22), frac, tol, degrees), 1.3
        alpha = rescale_factor(Mesh2D(1.0, 1.0, poly.shape[1] // 2, 2), poly, kb, tol).values
        for p in range(0, poly.shape[1], 2):
            assert exact_poly_max(alpha[p] * poly[:, p]) <= kb

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_saturated_flat_point_shrinks_by_at_most_flat_tol(self, monkeypatch, sign):
        # P = kb - d (s - 1/2)^2: max |P| = kb at s = 1/2, yet the l1 sum
        # (and the middle Bernstein coefficient) lies above kb
        kb, tol = 1.3, stepper._FLAT_TOL
        d = 0.4 * tol * kb
        col = sign * np.array([kb - d / 4, d, -d])
        reached = []
        real = stepper._poly_abs_max_many
        monkeypatch.setattr(stepper, "_poly_abs_max_many", lambda c: reached.append(c.shape[1]) or real(c))
        alpha = rescale_factor(self.mesh, np.repeat(col[:, None], self.mesh.ncells, axis=1), kb).values
        assert reached == []
        assert np.sum(np.abs(col)) > kb
        exact = _exact_alpha(col, kb)
        assert exact > 1.0 - 1e-15
        assert np.all(alpha < 1.0)
        assert np.all(alpha >= exact * (1.0 - tol))
        assert exact_poly_max(alpha[0] * col) <= kb

    def test_mixed_flat_and_exact_columns_are_independent_of_the_batch(self):
        rng = np.random.default_rng(23)
        kb = 1.3
        flat = _flat_columns(rng, 0.5)
        rough = rng.uniform(-2.0, 2.0, (10, 108))
        poly = np.concatenate([flat, rough], axis=1)[:, rng.permutation(216)]
        mesh = Mesh2D(1.0, 1.0, 108, 2)
        alpha = rescale_factor(mesh, poly, kb).values
        half = Mesh2D(1.0, 1.0, 54, 2)
        perm = rng.permutation(216)
        split = np.concatenate([rescale_factor(half, poly[:, perm[:108]], kb).values,
                                rescale_factor(half, poly[:, perm[108:]], kb).values])
        assert np.array_equal(split, alpha[perm])
        quad = Mesh2D(1.0, 1.0, 2, 2)
        for p in range(216):
            alone = rescale_factor(quad, np.repeat(poly[:, p : p + 1], 4, axis=1), kb).values
            assert np.all(alone == alpha[p])

    def test_scratch_and_layout_leave_the_factor_unchanged_and_poly_unwritten(self):
        rng = np.random.default_rng(25)
        kb = 1.3
        c0 = rng.uniform(0.5, 1.2, 108)
        # l1 sums above kb, Bernstein coefficients c_0, c_0 (1 - a/2), c_0 (1 - a + b) below it
        certified = np.zeros((10, 108))
        certified[:3] = c0 * np.array([np.ones(108), -rng.uniform(0.4, 0.6, 108), rng.uniform(0.2, 0.3, 108)])
        poly = np.concatenate([_flat_columns(rng, 0.5), rng.uniform(-2.0, 2.0, (10, 108)),
                               rng.uniform(-0.1, 0.1, (10, 108)), certified], axis=1)[:, rng.permutation(432)]
        kept = poly.copy()
        mesh = Mesh2D(1.0, 1.0, 24, 18)
        alpha = rescale_factor(mesh, poly, kb).values
        assert alpha.min() < 1.0 and np.count_nonzero(alpha == 1.0) > 200
        scratch = np.full((2, mesh.ncells), np.nan)
        got = rescale_factor(mesh, poly, kb, stepper._FLAT_TOL, scratch).values
        assert np.shares_memory(got, scratch[1])
        assert np.array_equal(got, alpha)
        assert np.array_equal(rescale_factor(mesh, np.asfortranarray(poly), kb).values, alpha)
        assert np.array_equal(poly, kept)

    def test_degree_zero_takes_the_exact_maximum(self):
        # a constant's maximum is |c_0| itself, with no headroom
        c0 = np.random.default_rng(24).uniform(-5.0, 5.0, self.mesh.ncells)
        alpha = rescale_factor(self.mesh, c0[None, :], 1.3).values
        assert np.array_equal(alpha, np.minimum(1.3 / np.abs(c0), 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        # an l1 sum of NaN never exceeds the bound, which used to give a = 1
        poly = np.ones((4, self.mesh.ncells))
        poly[2, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            rescale_factor(self.mesh, poly, 2.0)

    @pytest.mark.parametrize("columns", [2, 5])
    def test_poly_needs_one_column_per_cell(self, columns):
        # more columns than cells used to raise IndexError, fewer a silent a = 1
        quad = Mesh2D(1.0, 1.0, 2, 2)
        with pytest.raises(ValueError, match="one column per cell"):
            rescale_factor(quad, np.full((2, columns), 5.0), 1.0)

    def test_factor_is_independent_of_the_batch(self):
        rng = np.random.default_rng(11)
        mesh, poly, kb = _wide_batch(rng)
        head = Mesh2D(1.0, 1.0, stepper._BLOCK // 16, 16)
        tail = Mesh2D(1.0, 1.0, mesh.nx - head.nx, 16)
        assert head.ncells == stepper._BLOCK
        alpha = rescale_factor(mesh, poly, kb).values
        assert np.array_equal(alpha, [_margined_alpha(poly[:, p], kb) for p in range(mesh.ncells)])
        perm = rng.permutation(mesh.ncells)
        split = np.concatenate([
            rescale_factor(head, poly[:, perm[: head.ncells]], kb).values,
            rescale_factor(tail, poly[:, perm[head.ncells :]], kb).values,
        ])
        assert np.array_equal(split, alpha[perm])

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_exact_factor_keeps_the_bound_against_the_oracle(self, seed):
        # tails of exactly 1e-12 |c_0| round to either side of the flat test;
        # the exact path's factor must keep |a P| <= kb despite Horner's rounding of max |P|
        poly, kb = _flat_columns(np.random.default_rng(seed), 1.0), 1.3
        alpha = rescale_factor(Mesh2D(1.0, 1.0, poly.shape[1] // 2, 2), poly, kb).values
        for p in range(poly.shape[1]):
            assert exact_poly_max(alpha[p] * poly[:, p]) <= kb


def _wide_batch(rng):
    """(mesh, poly, kb): 2304 degree-6 points, wider than one block of the
    critical-point search, some of lower degree, 50 with two roots within
    1/25 of each other, and a bound below every certificate, so that every
    point takes the exact maximum."""
    mesh = Mesh2D(1.0, 1.0, stepper._BLOCK // 16 + 16, 16)
    poly = rng.uniform(-2.0, 2.0, (7, mesh.ncells))
    poly[5:, ::3] = 0.0
    poly[:6, :50] = _two_roots_in_one_cell()[:, None] * rng.uniform(0.5, 2.0, 50)
    poly[6, :50] = 0.0
    return mesh, poly, 1e-3


def _margined_alpha(col, kb):
    """rescale_factor's exact-path factor for one column alone: kb over the
    maximum plus 2 d eps times the l1 sum, summed in row order as there."""
    l1 = sum(np.abs(col))
    m = polynomial_abs_max(col)[0] + 2 * (len(col) - 1) * np.finfo(float).eps * l1
    return min(kb / max(m, 1e-300), 1.0)


class TestStepContext:
    def test_rejects_nonpositive_tau(self, mesh8, gl):
        plan = SpectralPlan(mesh8, 0.1, 2.0)
        spec = make_scheme(2)
        with pytest.raises(ValueError):
            StepContext(plan, gl, spec, 0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_non_finite_tau(self, mesh8, gl, tau):
        # a NaN tau used to pass and blow up at step 1
        plan = SpectralPlan(mesh8, 0.1, 2.0)
        with pytest.raises(ValueError, match="finite and positive"):
            StepContext(plan, gl, make_scheme(2), tau)

    def test_rejects_understabilized_plan(self, mesh8, gl):
        plan = SpectralPlan(mesh8, 0.1, 1.0)
        spec = make_scheme(2)
        with pytest.raises(ValueError):
            StepContext(plan, gl, spec, 0.1)

    @pytest.mark.parametrize("rescaled", [False, True])
    def test_rejects_order_above_ten(self, mesh8, gl, rescaled):
        plan = SpectralPlan(mesh8, 0.1, 2.0)
        spec = make_scheme(11)
        with pytest.raises(ValueError, match="order"):
            StepContext(plan, gl, spec, 0.1, rescaled=rescaled)

    def test_nonlinearity_peaks_at_kappa_beta(self, mesh8, gl):
        ctx = make_ctx(mesh8, gl, 2, 0.1)
        n = ctx.nonlinearity(np.array([1.0, -1.0, 0.0]))
        assert n[0] == pytest.approx(ctx.kappa_beta, rel=1e-15)
        assert n[1] == pytest.approx(-ctx.kappa_beta, rel=1e-15)
        assert n[2] == 0.0

    @pytest.mark.parametrize("potname", ["gl", "fh", "drift"])
    def test_nonlinearity_into_out_matches(self, request, mesh8, potname):
        # the tests' own LinearDrift follows the f(u, out=None) protocol as the wells do
        pot = LinearDrift(2.0) if potname == "drift" else request.getfixturevalue(potname)
        ctx = make_ctx(mesh8, pot, 2, 0.1)
        u = random_field(mesh8, 3, -0.9 * pot.beta, 0.9 * pot.beta).values
        out = np.full(mesh8.ncells, np.nan)
        assert ctx.nonlinearity(u, out=out) is out
        assert np.array_equal(out, ctx.nonlinearity(u))

    def test_phi_grids_are_memoized(self, mesh8, gl):
        # row m of s's block is phi_{m+1}, cached already multiplied by its
        # stage-formula scalar tau m! (s/tau)^{m+1}: bit for bit phi_batch on
        # every cell of the eigenvalue grid, on a square mesh and on one
        # whose eigenvalues are not symmetric; a repeated request returns
        # the same memory, a row of its s's block.  At s = 0.05, a stage
        # time of levels 2 and 4 whose block holds phi_1..phi_4, the request
        # for phi_5 builds the block again, one row longer
        tau = 0.1
        for mesh in (mesh8, Mesh2D(2 * np.pi, np.pi, 12, 8)):
            ctx = make_ctx(mesh, gl, 5, tau)
            assert len(ctx.phi_stack(0.05, 1).base) == 4
            for j, s in sorted(phi_keys(ctx.spec, tau) | {(j, 0.05) for j in range(1, 6)}):
                m = j - 1
                c = tau * math.factorial(m) * (s / tau) ** (m + 1)
                grid, again = ctx.phi_stack(s, j)[m], ctx.phi_stack(s, j)[m]
                assert grid.ctypes.data == again.ctypes.data and grid.shape == again.shape == (mesh.ny, mesh.nx)
                assert grid.base is ctx._phi_blocks[s]
                assert np.array_equal(grid, c * phi_batch(j, s * ctx.plan.eigvals))
            assert len(ctx._phi_blocks[0.05]) == 5

    @pytest.mark.parametrize("kind", ["uniform", "chebyshev"])
    @pytest.mark.parametrize("order", range(1, 8))
    def test_phi_keys_are_the_grids_a_step_caches(self, monkeypatch, mesh8, gl, order, kind):
        # the CLI sizes the cache from phi_keys before the first step: the
        # blocks hold exactly those rows, each tabulated once, and later
        # steps neither grow a block nor tabulate again
        calls = []
        monkeypatch.setattr(stepper, "phi_batch", lambda j, z: calls.append(j) or phi_batch(j, z))
        plan = SpectralPlan(mesh8, 0.1, 2.0)
        ctx = StepContext(plan, gl, make_scheme(order, kind), 0.3)
        keys = phi_keys(ctx.spec, 0.3)
        u, _ = step(ctx, sinprod(mesh8), n=1)
        blocks = dict(ctx._phi_blocks)
        assert keys == {(j, s) for s, block in blocks.items() for j in range(1, len(block) + 1)}
        assert len(keys) == {3: 5, 5: 23, 7: 65}.get(order, len(keys)) == len(calls)
        step(ctx, u, n=2)
        assert all(ctx._phi_blocks[s] is block for s, block in blocks.items()) and len(ctx._phi_blocks) == len(blocks)
        assert len(calls) == len(keys)

    @pytest.mark.parametrize("shape", [(16, 16), (8, 12)])
    def test_stage_sum_is_the_multiply_add_loop(self, gl, shape):
        # the one-pass sum adds its terms in the loop's order: bit for bit,
        # up to the sign of an exact zero, where einsum does not fuse its
        # multiply-adds, and within the sum's rounding where it does
        mesh = Mesh2D(2 * np.pi, 3.0, shape[1], shape[0])
        ctx = make_ctx(mesh, gl, 9, 0.2)
        rng = np.random.default_rng(shape[1])
        for terms in range(2, 10):
            for s in (0.2, float(rng.uniform(0.01, 0.2))):
                spectra = rng.standard_normal((terms, *shape)) * 10.0 ** rng.integers(-6, 6, (terms, 1, 1))
                want, tmp = np.empty((2, *shape))
                block = ctx.phi_stack(s, terms)
                np.multiply(block[0], spectra[0], out=want)
                for m in range(1, terms):
                    want += np.multiply(block[m], spectra[m], out=tmp)
                got = stepper._stage_values(ctx, s, spectra, np.empty(shape))
                want = scipy.fft.idctn(want, type=2, norm="ortho").ravel()
                if not _einsum_fuses():
                    assert np.array_equal(got, want)
                else:
                    # the orthonormal transform keeps the l2 norm, so the sum's
                    # l1 rounding bound bounds every value's difference
                    terms_l1 = np.abs(ctx.phi_stack(s, terms) * spectra).sum()
                    assert np.abs(got - want).max() <= 4 * terms * np.finfo(float).eps * terms_l1


class TestEvaluateStage:
    def test_level_one_is_the_exponential_euler_formula(self, mesh8, gl):
        ctx = make_ctx(mesh8, gl, 2, 0.2)
        u = sinprod(mesh8, 0.4)
        n0 = Field(mesh8, ctx.nonlinearity(u.values))
        state = make_state(n0, [], ones_field(mesh8))
        s = 0.13
        got = evaluate_stage(ctx, s, u, *state)
        want = apply_phi(ctx.plan, 0, s, u).values + s * apply_phi(ctx.plan, 1, s, n0).values
        assert np.max(np.abs(got.values - want)) < 1e-13

    @pytest.mark.parametrize("rescale_const", [1.0, 0.7])
    @pytest.mark.parametrize("s_frac", [0.5, 1.0])
    def test_matches_duhamel_quadrature(self, mesh8, gl, rescale_const, s_frac):
        tau = 0.3
        ctx = make_ctx(mesh8, gl, 4, tau)
        u = sinprod(mesh8, 0.4)
        rng = np.random.default_rng(5)
        n0 = Field(mesh8, ctx.nonlinearity(u.values))
        coeffs = [Field(mesh8, rng.uniform(-0.5, 0.5, mesh8.ncells)) for _ in range(2)]
        alpha = Field(mesh8, np.full(mesh8.ncells, rescale_const))
        state = make_state(n0, coeffs, alpha)
        s = s_frac * tau
        got = evaluate_stage(ctx, s, u, *state)
        want = duhamel_stage(
            mesh8, 0.1, ctx.plan.kappa, u.values,
            rescale_const * n0.values,
            [rescale_const * c.values for c in coeffs], tau, s)
        rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
        assert rel < 1e-10

    @pytest.mark.parametrize("shape", [(64,), (2, 63), (1, 2, 64)])
    def test_poly_needs_rows_of_one_value_per_cell(self, mesh8, gl, shape):
        ctx = make_ctx(mesh8, gl, 2, 0.2)
        with pytest.raises(ValueError, match="one column per cell"):
            evaluate_stage(ctx, 0.1, sinprod(mesh8, 0.4), np.zeros(shape))

    def test_stage_time_domain_enforced(self, mesh8, gl):
        ctx = make_ctx(mesh8, gl, 2, 0.2)
        u = sinprod(mesh8, 0.4)
        state = make_state(Field(mesh8, ctx.nonlinearity(u.values)), [], ones_field(mesh8))
        with pytest.raises(ValueError):
            evaluate_stage(ctx, 0.0, u, *state)
        with pytest.raises(ValueError):
            evaluate_stage(ctx, 0.3, u, *state)


def replicate_cascade(ctx, u):
    """Rebuild one step from the public stage/rescale operations."""
    mesh = u.mesh
    n0 = Field(mesh, ctx.nonlinearity(u.values))

    def state_of(coeffs):
        # the flat tolerance step gives the level: at least its solve's roundoff
        tol = max(stepper._FLAT_TOL, ctx.spec.systems[len(coeffs) - 1].roundoff if coeffs else 0.0)
        alpha = rescale_factor(mesh, stacked(n0, coeffs), ctx.kappa_beta, tol) if ctx.rescaled else ones_field(mesh)
        return make_state(n0, coeffs, alpha)

    state = state_of([])
    stages = []
    for j in ctx.spec.levels:
        nodes = ctx.spec.systems[j - 1].nodes
        d = np.empty((j, mesh.ncells))
        for k in range(1, j + 1):
            w = evaluate_stage(ctx, nodes[k] * ctx.tau, u, *state)
            stages.append(w)
            d[k - 1] = ctx.nonlinearity(w.values) - n0.values
        c = ctx.spec.systems[j - 1].solve(d)
        state = state_of([Field(mesh, c[m]) for m in range(j)])
    final = evaluate_stage(ctx, ctx.tau, u, *state)
    stages.append(final)
    return final, stages


class TestStep:
    def test_constant_one_is_a_fixed_point(self, mesh8, gl):
        for rescaled in (False, True):
            ctx = make_ctx(mesh8, gl, 3, 0.5, rescaled=rescaled)
            u1, _ = step(ctx, ones_field(mesh8))
            assert np.max(np.abs(u1.values - 1.0)) < 1e-12
            assert record(ctx, 1, u1).mbp_ok

    @pytest.mark.parametrize("rescaled", [False, True])
    def test_vanishing_nonlinearity_reduces_to_the_semigroup(self, mesh8, rescaled):
        pot = LinearDrift(2.0)
        ctx = make_ctx(mesh8, pot, 3, 0.4, rescaled=rescaled, kappa=2.0)
        u = sinprod(mesh8, 0.4)
        u1, _ = step(ctx, u)
        want = apply_phi(ctx.plan, 0, 0.4, u)
        assert np.array_equal(u1.values, want.values)
        dense = DenseOperator(mesh8, 0.1, 2.0).expm(0.4, u.values)
        assert np.max(np.abs(u1.values - dense)) < 1e-11

    def test_first_order_step_formula(self, mesh8, gl):
        tau = 0.2
        ctx = make_ctx(mesh8, gl, 1, tau)
        u = sinprod(mesh8, 0.4)
        u1, alpha_min = step(ctx, u)
        n0 = Field(mesh8, ctx.nonlinearity(u.values))
        want = apply_phi(ctx.plan, 0, tau, u).values + tau * apply_phi(ctx.plan, 1, tau, n0).values
        assert np.max(np.abs(u1.values - want)) < 1e-13
        assert alpha_min == 1.0

    def test_step_equals_final_stage_of_the_cascade(self, monkeypatch, mesh32, gl, fh):
        for rescaled in (False, True):
            ctx = make_ctx(mesh32, gl, 3, 0.05, rescaled=rescaled)
            u = sinprod(mesh32, 0.5)
            u1, _ = step(ctx, u)
            replayed, _ = replicate_cascade(ctx, u)
            assert np.array_equal(u1.values, replayed.values)
        # order 7 at tau = 1: the top level settles points whose tails lie
        # between 1e-12 and its solve's roundoff, 2.7e-12
        ctx = make_ctx(mesh32, fh, 7, 1.0, rescaled=True)
        run, top, real = [random_field(mesh32, 0, -fh.beta + 1e-12, fh.beta - 1e-12)], [], stepper.rescale_factor

        def spy(mesh, poly, *args):
            if len(poly) == 7:
                top.append(poly.copy())
            return real(mesh, poly, *args)

        monkeypatch.setattr(stepper, "rescale_factor", spy)
        for n in range(1, 21):
            run.append(step(ctx, run[-1], n=n)[0])
        monkeypatch.undo()
        replayed, _ = replicate_cascade(ctx, run[10])
        assert np.array_equal(run[11].values, replayed.values)
        # the check below is vacuous unless the run's top levels have such
        # tails at points that neither certificate settles, since only those
        # reach the flat test
        poly = np.concatenate(top, axis=1)
        c0, tail = np.abs(poly[0]), np.abs(poly[1:]).sum(axis=0)
        uncertified = np.abs(stepper._bernstein_matrix(6) @ poly).max(axis=0) > ctx.kappa_beta
        band = (tail > stepper._FLAT_TOL * c0) & (tail <= 2.7e-12 * c0) & uncertified
        assert len(top) == 20 and np.any(band)
        # a top level flat-tested at 1e-12 or at either neighbouring level's
        # bound (4.0e-13, 1.9e-11) moves some step of the run
        for wrong in (stepper._FLAT_TOL, ctx.spec.systems[4].roundoff, Vandermonde(make_nodes(7)).roundoff):
            monkeypatch.setattr(ctx.spec.systems[5], "roundoff", wrong)
            assert any(not np.array_equal(step(ctx, run[n - 1], n=n)[0].values, run[n].values) for n in range(1, 21))

    @pytest.mark.parametrize("rescaled", [False, True])
    @pytest.mark.parametrize("potname, order", [(p, r) for p in ("gl", "fh") for r in (1, 3, 7)])
    def test_a_vanishing_step_returns_u_n_bit_for_bit(self, request, potname, order, rescaled):
        # u_n skips the transforms: only the increment, here far below half
        # an ulp of every value, goes through the DCT pair and its rounding
        mesh = Mesh2D(2 * np.pi, np.pi, 12, 8)
        ctx = make_ctx(mesh, request.getfixturevalue(potname), order, 1e-300, rescaled=rescaled)
        u = sinprod(mesh, 0.5)
        assert np.array_equal(step(ctx, u)[0].values, u.values)

    @pytest.mark.parametrize("rescaled", [False, True])
    def test_level_one_takes_its_data_without_a_solve(self, monkeypatch, mesh8, gl, rescaled):
        # V_1 = [1], so c_1 = d_1: a level-1 system whose inverse is NaN leaves the step unchanged
        u = sinprod(mesh8, 0.6)
        want, _ = step(make_ctx(mesh8, gl, 3, 0.1, rescaled=rescaled), u)
        ctx = make_ctx(mesh8, gl, 3, 0.1, rescaled=rescaled)
        monkeypatch.setattr(ctx.spec.systems[0], "_inv", np.full((1, 1), np.nan))
        assert np.array_equal(step(ctx, u)[0].values, want.values)

    def test_rejects_non_finite_input(self, mesh8, gl):
        ctx = make_ctx(mesh8, gl, 2, 0.1)
        bad = Field(mesh8, np.full(mesh8.ncells, 1.0))
        bad.values[0] = np.nan
        with pytest.raises(ValueError):
            step(ctx, bad)

    def test_rescaled_requires_bounded_input(self, mesh8, gl):
        ctx = make_ctx(mesh8, gl, 2, 0.1, rescaled=True)
        with pytest.raises(ValueError):
            step(ctx, Field(mesh8, np.full(mesh8.ncells, 1.2)))

    def test_rescaled_bound_uses_the_diagnostics_tolerance(self, mesh8, gl):
        # gl.beta = 1; the check admits what diagnostics flag mbp_ok, no more
        ctx = make_ctx(mesh8, gl, 2, 0.1, rescaled=True)
        with pytest.raises(ValueError):
            step(ctx, Field(mesh8, np.full(mesh8.ncells, 1.0 + 1e-10)))
        u1, _ = step(ctx, Field(mesh8, np.full(mesh8.ncells, 1.0 + 1e-13)))
        assert record(ctx, 1, u1).mbp_ok

    def test_out_of_domain_input_raises_bound_exceeded(self, mesh8, fh):
        ctx = make_ctx(mesh8, fh, 3, 0.1)
        with pytest.raises(BoundExceeded) as info:
            step(ctx, Field(mesh8, np.full(mesh8.ncells, 1.5)), n=7)
        assert (info.value.level, info.value.stage, info.value.step_index) == (0, 0, 7)

    def test_overflowing_state_raises_blowup(self, mesh8, gl):
        ctx = make_ctx(mesh8, gl, 3, 0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalBlowup) as info:
                step(ctx, Field(mesh8, np.full(mesh8.ncells, 1e200)), n=4)
        assert info.value.level >= 1
        assert info.value.stage >= 1
        assert info.value.step_index == 4

    @pytest.mark.parametrize("cls, what", [
        (BoundExceeded, "stage value outside the potential domain"),
        (NumericalBlowup, "non-finite stage value"),
    ])
    def test_failures_share_one_base_and_keep_their_messages(self, cls, what):
        err = cls(2, 1, 9)
        assert isinstance(err, StepFailure) and isinstance(err, RuntimeError)
        assert (err.level, err.stage, err.step_index) == (2, 1, 9)
        assert str(err) == f"{what} at level 2, stage 1"

    def test_mesh_mismatch_rejected(self, mesh8, gl):
        ctx = make_ctx(mesh8, gl, 2, 0.1)
        with pytest.raises(ValueError):
            step(ctx, Field(Mesh2D(1.0, 1.0, 4, 4), np.full(16, 0.0)))


class TestStepDenseOracle:
    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("rescaled", [False, True])
    def test_full_step_matches_dense_cascade(self, mesh8, gl, order, rescaled):
        tau = 0.25
        ctx = make_ctx(mesh8, gl, order, tau, rescaled=rescaled)
        u = sinprod(mesh8, 0.9)
        got, _ = step(ctx, u)
        want = dense_etdrk_step(
            mesh8, 0.1, ctx.plan.kappa, gl, order,
            [v.nodes for v in ctx.spec.systems], tau, u.values, rescaled)
        rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
        assert rel < 1e-10

    def test_fh_rescaled_step_matches_dense_cascade(self, mesh8, fh):
        tau = 1.0
        ctx = make_ctx(mesh8, fh, 3, tau, rescaled=True)
        u = random_field(mesh8, 3, -0.9 * fh.beta, 0.9 * fh.beta)
        got, _ = step(ctx, u)
        want = dense_etdrk_step(
            mesh8, 0.1, ctx.plan.kappa, fh, 3,
            [v.nodes for v in ctx.spec.systems], tau, u.values, True)
        rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
        assert rel < 1e-10

    def test_second_order_on_finer_grid_against_dense_operator(self, mesh32, gl):
        # same cascade formulas evaluated through a dense 1024x1024
        # eigendecomposition instead of the fast transform
        tau = 0.01
        ctx = make_ctx(mesh32, gl, 2, tau)
        u = sinprod(mesh32, 0.5)
        got, _ = step(ctx, u)
        want = dense_etdrk_step(
            mesh32, 0.1, 2.0, gl, 2,
            [v.nodes for v in ctx.spec.systems], tau, u.values, False)
        assert np.max(np.abs(got.values - want)) < 1e-10


class TestStructurePreservation:
    def test_modes_coincide_while_rescaling_is_inactive(self, mesh32, gl):
        # small data keeps |P| below kappa beta, so alpha is identically one
        std = make_ctx(mesh32, gl, 3, 0.1, rescaled=False)
        res = make_ctx(mesh32, gl, 3, 0.1, rescaled=True)
        u_s = sinprod(mesh32, 0.3)
        u_r = sinprod(mesh32, 0.3)
        for _ in range(3):
            u_s, _ = step(std, u_s)
            u_r, alpha_min = step(res, u_r)
            assert alpha_min == 1.0
            assert np.array_equal(u_s.values, u_r.values)

    @pytest.mark.parametrize("tau", [1.0, 10.0])
    def test_unconditional_maximum_bound(self, fh, tau):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        ctx = make_ctx(mesh, fh, 4, tau, rescaled=True)
        u = random_field(mesh, 11, -fh.beta + 1e-12, fh.beta - 1e-12)
        for n in range(1, 6):
            u, _ = step(ctx, u, n=n)
            diag = record(ctx, n, u)
            assert diag.max_norm <= fh.beta + 1e-12
            assert diag.mbp_ok

    def test_every_internal_stage_respects_the_bound(self, fh):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        ctx = make_ctx(mesh, fh, 4, 10.0, rescaled=True)
        u = random_field(mesh, 13, -fh.beta + 1e-12, fh.beta - 1e-12)
        _, stages = replicate_cascade(ctx, u)
        for w in stages:
            assert max_norm(w) <= fh.beta + 1e-12

    def test_gl_rescaled_bound_with_large_steps(self, gl):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        ctx = make_ctx(mesh, gl, 5, 10.0, rescaled=True)
        u = random_field(mesh, 17, -1.0 + 1e-12, 1.0 - 1e-12)
        for n in range(1, 6):
            u, _ = step(ctx, u, n=n)
            assert max_norm(u) <= 1.0 + 1e-12

    @pytest.mark.parametrize("order", [2, 3])
    def test_energy_decays_below_the_proven_bound(self, mesh32, gl, order):
        tau = 0.9 * tau_max(order, 2.0, "uniform", rescaled=True)
        ctx = make_ctx(mesh32, gl, order, tau, rescaled=True)
        u = sinprod(mesh32, 0.5)
        prev = discrete_energy(u, 0.1, gl)
        for n in range(1, 11):
            u, _ = step(ctx, u, n=n)
            diag = record(ctx, n, u, prev)
            assert diag.dissipation_ok
            assert diag.energy <= prev + 1e-10 * (1.0 + abs(prev))
            prev = diag.energy

    def test_alpha_min_reported_when_rescaling_activates(self, fh):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        ctx = make_ctx(mesh, fh, 3, 1.0, rescaled=True)
        u = random_field(mesh, 19, -fh.beta + 1e-12, fh.beta - 1e-12)
        _, alpha_min = step(ctx, u)
        assert 0.0 < alpha_min <= 1.0

    def test_alpha_min_is_the_minimum_over_every_level(self, monkeypatch, fh):
        # with this seed level 2 shrinks (alpha 0.99988) and the final level does not
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        ctx = make_ctx(mesh, fh, 4, 1.0, rescaled=True)
        u = random_field(mesh, 207, -fh.beta + 1e-12, fh.beta - 1e-12)
        level_mins = []

        def spy(*args):
            alpha = rescale_factor(*args)
            level_mins.append(alpha.values.min())
            return alpha

        monkeypatch.setattr(stepper, "rescale_factor", spy)
        _, alpha_min = step(ctx, u)
        assert level_mins[-1] == 1.0
        assert alpha_min == min(level_mins) < 1.0


def count_transforms(monkeypatch, ctx, u):
    """(forward, inverse) DCTs made by one step(ctx, u), and its alpha_min."""
    calls = {"dctn": 0, "idctn": 0}
    for name in calls:
        def spy(*args, _name=name, _real=getattr(scipy.fft, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, spy)
    _, alpha_min = step(ctx, u)
    monkeypatch.undo()
    return calls["dctn"], calls["idctn"], alpha_min


class TestTransformCount:
    """u_n is transformed once per step and N(u_n) at level 0.  Each level
    j < r adds the transforms of its j new coefficient rows, and of its
    row 0 where rescaling shrinks some point, or where alpha is one after a
    level that shrank: N(u_n)'s spectrum is kept only from one level where
    alpha is one to the next."""

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("rescaled", [False, True])
    def test_no_shrinking_reuses_the_spectrum_of_n0(self, monkeypatch, mesh32, gl, order, rescaled):
        # small data keeps alpha identically one in rescaled mode too
        ctx = make_ctx(mesh32, gl, order, 0.1, rescaled=rescaled)
        fwd, inv, alpha_min = count_transforms(monkeypatch, ctx, sinprod(mesh32, 0.3))
        assert alpha_min == 1.0
        assert fwd == 2 + order * (order - 1) // 2
        assert inv == 1 + order * (order - 1) // 2

    def test_shrinking_levels_transform_their_scaled_row_zero(self, monkeypatch, fh):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        order = 4
        ctx = make_ctx(mesh, fh, order, 10.0, rescaled=True)
        # with this seed, alpha < 1 at levels 2 and 3 and is one at 0 and 1
        u = random_field(mesh, 4, -fh.beta + 1e-12, fh.beta - 1e-12)
        fwd, inv, _ = count_transforms(monkeypatch, ctx, u)
        assert fwd == 2 + order * (order - 1) // 2 + 2
        assert inv == 1 + order * (order - 1) // 2

    def test_a_level_where_alpha_is_one_after_a_shrunk_level_transforms_n0_again(self, monkeypatch, fh):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        order = 4
        ctx = make_ctx(mesh, fh, order, 1.0, rescaled=True)
        # with this seed, alpha < 1 at level 2 only: level 2 transforms its
        # scaled row 0, and level 3 N(u_n) again
        u = random_field(mesh, 207, -fh.beta + 1e-12, fh.beta - 1e-12)
        fwd, inv, _ = count_transforms(monkeypatch, ctx, u)
        assert fwd == 2 + order * (order - 1) // 2 + 1 + 1
        assert inv == 1 + order * (order - 1) // 2


@pytest.mark.parametrize("tau, seed", [(1.0, 102), (10.0, 4), (1.0, 207)])
def test_step_equals_cascade_where_some_levels_shrink(monkeypatch, fh, tau, seed):
    # the step keeps the spectrum of N(u_n) from one level where alpha is
    # one at every point to the next; replicate_cascade transforms
    # alpha * N(u_n) anew.  Seed 207 shrinks at level 2 alone, so that
    # level 3 transforms N(u_n) again after level 1 kept it
    mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
    ctx = make_ctx(mesh, fh, 4, tau, rescaled=True)
    u = random_field(mesh, seed, -fh.beta + 1e-12, fh.beta - 1e-12)
    alpha_mins = []

    def spy(*args):
        alpha = rescale_factor(*args)
        alpha_mins.append(alpha.values.min())
        return alpha

    monkeypatch.setattr(stepper, "rescale_factor", spy)
    u1, _ = step(ctx, u)
    monkeypatch.undo()
    assert alpha_mins[0] == 1.0 and min(alpha_mins) < 1.0
    replayed, _ = replicate_cascade(ctx, u)
    assert np.array_equal(u1.values, replayed.values)


def sliced_run(monkeypatch, size, mesh, potential, order, tau, rescaled, steps=5):
    """The fields and alpha_mins of steps of a new context, with every slice
    of phi.cuts, phi tables included, at most size cells long."""
    monkeypatch.setattr(phi_module, "SLICE", size)
    ctx = make_ctx(mesh, potential, order, tau, rescaled=rescaled)
    run = [(random_field(mesh, 1, -potential.beta + 1e-12, potential.beta - 1e-12), 1.0)]
    for n in range(1, steps + 1):
        run.append(step(ctx, run[-1][0], n=n))
    monkeypatch.undo()
    return run


class TestSlices:
    """Between two transforms a step runs on the near-equal slices of
    phi.cuts.  A slice of two or more cells keeps the unsliced step's bits;
    a one-cell slice would not, as its solve goes through BLAS's gemv."""

    @pytest.mark.parametrize("shape, size", [((40, 30), 64), ((40, 30), 500), ((13, 5), 64)],
                             ids=["40x30-by-64", "40x30-by-500", "13x5-by-64"])
    @pytest.mark.parametrize("potname, order, tau, rescaled", [
        ("fh", 7, 1.0, True), ("gl", 5, 1.0, True), ("gl", 3, 0.1, False),
    ], ids=["fh7-rescaled", "gl5-rescaled", "gl3-standard"])
    def test_sliced_steps_equal_the_unsliced_ones(self, request, monkeypatch, shape, size, potname, order, tau,
                                                  rescaled):
        # 1200 cells by 64 are cut into 19 slices of 63 or 64, by 500 into 3
        # of 400, and 65 by 64 into 32 + 33, not 64 + 1
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, *shape)
        pot = request.getfixturevalue(potname)
        args = (mesh, pot, order, tau, rescaled)
        sliced, whole = sliced_run(monkeypatch, size, *args), sliced_run(monkeypatch, mesh.ncells, *args)
        for (u, alpha), (v, beta) in zip(sliced, whole):
            assert np.array_equal(u.values, v.values) and alpha == beta
        if rescaled:  # not vacuous: these runs shrink
            assert min(alpha for _, alpha in whole) < 1.0

    @pytest.mark.parametrize("shape, size", [((40, 30), 64), ((13, 5), 64)], ids=["40x30", "13x5"])
    def test_a_stage_out_of_domain_raises_alike_under_any_slicing(self, monkeypatch, shape, size):
        # a hot well (theta near theta_c) has a small kappa_min, so a level-1
        # stage of cells near 1 leaves (-1, 1); they lie in the last slice
        fh = FloryHuggins(1.5, 1.6)
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, *shape)
        u = random_field(mesh, 0, -0.3, 0.3)
        u.values[-3:] = 0.99
        failures = []
        for slice_size in (size, mesh.ncells):
            monkeypatch.setattr(phi_module, "SLICE", slice_size)
            with pytest.raises(BoundExceeded) as info:
                step(make_ctx(mesh, fh, 4, 10.0), u, n=3)
            failures.append((info.value.level, info.value.stage, info.value.step_index))
        assert failures == [(1, 1, 3)] * 2


class TestWorkspace:
    """A step computes in its context's workspace, reads nothing an earlier
    step left there, and returns a field of its own."""

    @pytest.mark.parametrize("order, rescaled, budget", [(3, False, 1.25), (5, True, 1.25)])
    def test_a_warm_step_allocates_little_beyond_its_result(self, gl, order, rescaled, budget):
        # in fields of the mesh; the returned field is one of them, and
        # rescale_factor sums and writes its factor in workspace rows
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 64, 64)
        ctx = make_ctx(mesh, gl, order, 0.05, rescaled=rescaled)
        u1, _ = step(ctx, sinprod(mesh, 0.5), n=1)
        (_, alpha_min), peak = traced_peak(lambda: step(ctx, u1, n=2))
        assert alpha_min == 1.0
        assert peak <= budget * 8 * mesh.ncells

    # seed: random data whose FH r = 7 step shrinks on that mesh
    @pytest.mark.parametrize("shape, size, seed", [((13, 5), None, 2), ((20, 16), 64, 1)],
                             ids=["13x5", "20x16-by-64"])
    @pytest.mark.parametrize("potname, order, tau, rescaled", [("fh", 7, 1.0, True), ("gl", 3, 0.1, False)],
                             ids=["fh7-rescaled", "gl3-standard"])
    def test_pad_contents_never_reach_a_result(self, request, monkeypatch, shape, size, seed, potname, order, tau,
                                               rescaled):
        # the workspace's padded stack is transformed on its [..., :nx]
        # views: NaN in every pad column after a warm step changes no bit of
        # the next step and raises no floating-point flag
        if size:
            monkeypatch.setattr(phi_module, "SLICE", size)
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, *shape)
        pot = request.getfixturevalue(potname)
        dirty, clean = (make_ctx(mesh, pot, order, tau, rescaled=rescaled) for _ in range(2))
        u, v = (random_field(mesh, k, -pot.beta + 1e-12, pot.beta - 1e-12) for k in (seed + 1, seed))
        step(dirty, u, n=1)
        for arr in (dirty.workspace.acc, dirty.workspace.spectra):
            assert arr.shape[-1] > mesh.nx
            arr[..., mesh.nx :] = np.nan
        with np.errstate(all="raise"):
            got, got_alpha = step(dirty, v, n=2)
        want, want_alpha = step(clean, v, n=2)
        assert np.array_equal(got.values, want.values) and got_alpha == want_alpha
        assert (want_alpha < 1.0) == rescaled  # the rescaled case scales its spectra, not vacuously

    @pytest.mark.parametrize("rescaled", [False, True])
    def test_results_outlive_later_steps_and_inputs_stay_unwritten(self, mesh32, gl, rescaled):
        ctx = make_ctx(mesh32, gl, 4, 0.5, rescaled=rescaled)
        u0 = sinprod(mesh32, 0.9)
        kept = u0.values.copy()
        u1, _ = step(ctx, u0, n=1)
        assert np.array_equal(u0.values, kept)
        n0 = Field(mesh32, ctx.nonlinearity(u1.values))
        w = evaluate_stage(ctx, 0.25, u1, *make_state(n0, [], ones_field(mesh32)))
        before = (u1.values.copy(), w.values.copy())
        u2, _ = step(ctx, u1, n=2)
        assert np.array_equal(u1.values, before[0])
        assert np.array_equal(w.values, before[1])
        for buf in vars(ctx.workspace).values():
            assert not np.shares_memory(u2.values, buf)

    @pytest.mark.parametrize("potential, tau, bad, error", [
        ("fh", 10.0, 1.5, BoundExceeded),
        ("gl", 0.1, 1e200, NumericalBlowup),
    ])
    def test_a_failed_step_leaves_nothing_for_the_next(self, request, mesh32, potential, tau, bad, error):
        # standard mode; the blowup raises past level 0, with inf and NaN in the workspace
        pot = request.getfixturevalue(potential)
        ctx = make_ctx(mesh32, pot, 4, tau)
        u, v = (random_field(mesh32, seed, -0.9 * pot.beta, 0.9 * pot.beta) for seed in (5, 6))
        step(ctx, u, n=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error):
            step(ctx, Field(mesh32, np.full(mesh32.ncells, bad)), n=2)
        got, got_alpha = step(ctx, v, n=3)
        want, want_alpha = step(make_ctx(mesh32, pot, 4, tau), v, n=3)
        assert np.array_equal(got.values, want.values)
        assert got_alpha == want_alpha
