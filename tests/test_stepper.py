import math

import numpy as np
import pytest
import scipy.fft

import etdac.stepper as stepper
from conftest import random_field, sinprod
from etdac.diagnostics import record
from etdac.grid import Field, Mesh2D, discrete_energy, max_norm
from etdac.phi import phi_batch
from etdac.scheme import make_scheme, tau_max
from etdac.spectral import SpectralPlan, apply_phi
from etdac.stepper import (
    BoundExceeded,
    NumericalBlowup,
    StageState,
    StepContext,
    evaluate_stage,
    polynomial_abs_max,
    rescale_factor,
    step,
)
from oracles import DenseOperator, brute_poly_max, dense_etdrk_step, duhamel_stage


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
    return StageState(n0.mesh, stacked(n0, coeffs), alpha)


def rescale(n0, coeffs, kappa_beta):
    return rescale_factor(n0.mesh, stacked(n0, coeffs), kappa_beta)


class LinearDrift:
    """Test hook f(u) = -kappa u, so the stabilized nonlinearity vanishes."""

    kind = "gl"

    def __init__(self, kappa=2.0):
        self.kappa = kappa
        self.beta = 1.0
        self.kappa_min = kappa

    def f(self, u):
        return -self.kappa * np.asarray(u, dtype=np.float64)

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

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            polynomial_abs_max([])
        with pytest.raises(ValueError):
            polynomial_abs_max(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            polynomial_abs_max(np.zeros(11))


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


class TestStepContext:
    def test_rejects_nonpositive_tau(self, mesh8, gl):
        plan = SpectralPlan(mesh8, 0.1, 2.0)
        spec = make_scheme(2)
        with pytest.raises(ValueError):
            StepContext(plan, gl, spec, 0.0)

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

    def test_phi_grids_are_memoized(self, mesh8, gl):
        # each grid is cached already multiplied by its stage-formula scalar
        tau, s = 0.1, 0.05
        ctx = make_ctx(mesh8, gl, 4, tau)
        assert ctx.phi_grid(1, s) is ctx.phi_grid(1, s)
        z = s * ctx.plan.eigvals
        assert np.array_equal(ctx.phi_grid(0, s), phi_batch(0, z))
        assert np.array_equal(ctx.phi_grid(1, s), s * phi_batch(1, z))
        for j in (2, 3, 4):
            want = tau * math.factorial(j - 1) * (s / tau) ** j * phi_batch(j, z)
            assert np.array_equal(ctx.phi_grid(j, s), want)


class TestEvaluateStage:
    def test_level_one_is_the_exponential_euler_formula(self, mesh8, gl):
        ctx = make_ctx(mesh8, gl, 2, 0.2)
        u = sinprod(mesh8, 0.4)
        n0 = Field(mesh8, ctx.nonlinearity(u.values))
        state = make_state(n0, [], ones_field(mesh8))
        s = 0.13
        got = evaluate_stage(ctx, s, u, state)
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
        got = evaluate_stage(ctx, s, u, state)
        want = duhamel_stage(
            mesh8, 0.1, ctx.plan.kappa, u.values,
            rescale_const * n0.values,
            [rescale_const * c.values for c in coeffs], tau, s)
        rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
        assert rel < 1e-10

    def test_stage_time_domain_enforced(self, mesh8, gl):
        ctx = make_ctx(mesh8, gl, 2, 0.2)
        u = sinprod(mesh8, 0.4)
        state = make_state(Field(mesh8, ctx.nonlinearity(u.values)), [], ones_field(mesh8))
        with pytest.raises(ValueError):
            evaluate_stage(ctx, 0.0, u, state)
        with pytest.raises(ValueError):
            evaluate_stage(ctx, 0.3, u, state)


def replicate_cascade(ctx, u):
    """Rebuild one step from the public stage/rescale operations."""
    mesh = u.mesh
    n0 = Field(mesh, ctx.nonlinearity(u.values))

    def state_of(coeffs):
        alpha = rescale(n0, coeffs, ctx.kappa_beta) if ctx.rescaled else ones_field(mesh)
        return make_state(n0, coeffs, alpha)

    state = state_of([])
    stages = []
    for j in ctx.spec.levels:
        nodes = ctx.spec.systems[j - 1].nodes
        d = np.empty((j, mesh.ncells))
        for k in range(1, j + 1):
            w = evaluate_stage(ctx, nodes[k] * ctx.tau, u, state)
            stages.append(w)
            d[k - 1] = ctx.nonlinearity(w.values) - n0.values
        c = ctx.spec.systems[j - 1].solve(d)
        state = state_of([Field(mesh, c[m]) for m in range(j)])
    final = evaluate_stage(ctx, ctx.tau, u, state)
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

    def test_step_equals_final_stage_of_the_cascade(self, mesh32, gl):
        for rescaled in (False, True):
            ctx = make_ctx(mesh32, gl, 3, 0.05, rescaled=rescaled)
            u = sinprod(mesh32, 0.5)
            u1, _ = step(ctx, u)
            replayed, _ = replicate_cascade(ctx, u)
            assert np.array_equal(u1.values, replayed.values)

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
    """u_n and N(u_n) are transformed once per step; each level j < r adds
    the transforms of its j new coefficient rows, and of its own scaled
    row 0 only where rescaling shrinks some point."""

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


@pytest.mark.parametrize("tau, seed", [(1.0, 102), (10.0, 4)])
def test_step_equals_cascade_where_some_levels_shrink(monkeypatch, fh, tau, seed):
    # the step reuses the spectrum of N(u_n) only at levels where alpha is
    # one at every point; replicate_cascade transforms alpha * N(u_n) anew
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
