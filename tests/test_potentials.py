import math

import mpmath as mp
import numpy as np
import pytest

from etdac.potentials import FloryHuggins, GinzburgLandau, compute_beta, compute_kappa_min

# frozen extended-precision root of the logarithmic f and the matching
# stabilizer theta/(1-beta^2) - theta_c for theta=0.8, theta_c=1.6
FH_BETA = 0.9575040240772688
FH_KAPPA_MIN = 8.016997788644376


class TestGinzburgLandau:
    def test_double_well_values(self, gl):
        assert gl.f(1.0) == 0.0
        assert gl.F(1.0) == 0.0
        assert gl.f_prime(0.0) == 1.0
        assert gl.f(0.5) == pytest.approx(0.5 - 0.125)
        assert gl.F(0.0) == 0.25

    def test_bound_and_stabilizer(self, gl):
        assert gl.beta == 1.0
        assert gl.kappa_min == 2.0
        assert compute_beta(gl) == 1.0
        assert compute_kappa_min(gl) == 2.0

    def test_vectorized_evaluation(self, gl):
        u = np.array([-1.0, 0.0, 0.5])
        assert np.allclose(gl.f(u), u - u**3)
        assert np.allclose(gl.f_prime(u), 1.0 - 3.0 * u * u)


class TestFloryHuggins:
    def test_odd_function_vanishes_at_zero(self, fh):
        assert fh.f(0.0) == 0.0

    def test_paper_scale_root(self, fh):
        # f(0.9575) is approximately zero
        assert abs(fh.f(0.9575)) < 1e-3
        assert fh.beta == pytest.approx(0.9575, abs=5e-4)

    def test_beta_matches_frozen_oracle(self, fh):
        assert fh.beta == pytest.approx(FH_BETA, abs=1e-14)

    def test_beta_matches_live_root_find(self, fh):
        with mp.workdps(40):
            theta, theta_c = mp.mpf("0.8"), mp.mpf("1.6")
            root = mp.re(mp.findroot(
                lambda u: theta / 2 * mp.log((1 - u) / (1 + u)) + theta_c * u, mp.mpf("0.95")))
        assert fh.beta == pytest.approx(float(root), abs=1e-12)

    def test_root_residual(self, fh):
        assert abs(fh.f(fh.beta)) < 1e-12

    def test_kappa_min_values(self, fh):
        assert fh.kappa_min == pytest.approx(8.02, abs=0.05)
        assert fh.kappa_min == pytest.approx(FH_KAPPA_MIN, abs=1e-12)

    def test_bound_and_stabilizer_are_pinned_bit_for_bit(self, fh):
        assert (fh.beta, fh.kappa_min) == (FH_BETA, FH_KAPPA_MIN)

    @pytest.mark.parametrize("theta, theta_c, beta", [
        (0.5, 2.0, 0.9993256730151082),
        (0.3, 0.31, 0.30704913846237036),
        (1.0, 5.0, 0.9999091217152325),
        (0.9, 1.0, 0.5254295126580086),
    ])
    def test_kappa_min_is_the_closed_form_bit_for_bit(self, theta, theta_c, beta):
        # beta as the bisection and Newton polish gave it, exactly
        p = FloryHuggins(theta, theta_c)
        assert p.beta == beta
        assert p.kappa_min == max(abs(theta_c - theta), abs(theta / (1.0 - beta * beta) - theta_c))

    def test_kappa_min_matches_dense_scan(self, fh):
        xi = np.linspace(-fh.beta, fh.beta, 1_000_001)
        scanned = float(np.max(np.abs(fh.f_prime(xi))))
        assert scanned <= fh.kappa_min * (1 + 1e-12)
        assert fh.kappa_min == pytest.approx(scanned, rel=1e-6)

    def test_formula_values(self, fh):
        u = 0.3
        assert fh.f(u) == pytest.approx(0.4 * math.log(0.7 / 1.3) + 1.6 * u, rel=1e-14)
        assert fh.F(u) == pytest.approx(
            0.4 * (1.3 * math.log(1.3) + 0.7 * math.log(0.7)) - 0.8 * u * u, rel=1e-14)
        assert fh.f_prime(u) == pytest.approx(-0.8 / (1 - u * u) + 1.6, rel=1e-14)

    @pytest.mark.parametrize("u", [1.0, -1.0, 1.5, np.array([0.2, -1.01])])
    def test_domain_error_outside_open_interval(self, fh, u):
        for op in (fh.f, fh.F, fh.f_prime):
            with pytest.raises(ValueError, match="outside"):
                op(u)

    @pytest.mark.parametrize("theta,theta_c", [(1.6, 0.8), (0.0, 1.0), (-0.5, 1.0), (1.0, 1.0)])
    def test_invalid_temperatures_rejected(self, theta, theta_c):
        with pytest.raises(ValueError):
            FloryHuggins(theta, theta_c)

    def test_other_temperatures(self):
        p = FloryHuggins(0.5, 2.0)
        assert 0.0 < p.beta < 1.0
        assert abs(p.f(p.beta)) < 1e-12
        xi = np.linspace(-p.beta, p.beta, 200_001)
        assert p.kappa_min == pytest.approx(float(np.max(np.abs(p.f_prime(xi)))), rel=1e-6)


@pytest.mark.parametrize("potname", ["gl", "fh"])
def test_f_into_out_keeps_the_formula_bit_for_bit(potname, gl, fh):
    # the stepper evaluates f into its workspace; the order of operations,
    # and so every bit, is that of the formula in the class docstring
    p = gl if potname == "gl" else fh
    u = np.random.default_rng(7).uniform(-p.beta, p.beta, 4096)
    if potname == "gl":
        want = u - u * u * u
    else:
        want = 0.5 * p.theta * np.log((1.0 - u) / (1.0 + u)) + p.theta_c * u
    out = np.full_like(u, np.nan)
    assert p.f(u, out=out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(p.f(u), want)
    assert isinstance(p.f(0.25), np.float64)


class TestStabilizedSplitting:
    @pytest.mark.parametrize("potname", ["gl", "fh"])
    def test_shifted_derivative_between_zero_and_two_kappa(self, potname, gl, fh):
        p = gl if potname == "gl" else fh
        kappa = p.kappa_min
        xi = np.linspace(-p.beta, p.beta, 100_001)
        shifted = p.f_prime(xi) + kappa
        assert np.all(shifted >= -1e-12)
        assert np.all(shifted <= 2 * kappa + 1e-12)

    @pytest.mark.parametrize("potname", ["gl", "fh"])
    def test_stabilized_nonlinearity_bounded_by_kappa_beta(self, potname, gl, fh):
        p = gl if potname == "gl" else fh
        kappa = p.kappa_min
        u = np.linspace(-p.beta, p.beta, 100_001)
        n = p.f(u) + kappa * u
        assert np.max(np.abs(n)) <= kappa * p.beta + 1e-12

    @pytest.mark.parametrize("potname", ["gl", "fh"])
    def test_quadratic_relaxation_inequality(self, potname, gl, fh):
        # F(u) - F(v) + f(v)(u - v) + (kappa/2)(u - v)^2 >= 0 on [-beta, beta]^2
        p = gl if potname == "gl" else fh
        kappa = p.kappa_min
        grid = np.linspace(-p.beta, p.beta, 201)
        u, v = np.meshgrid(grid, grid)
        expr = p.F(u) - p.F(v) + p.f(v) * (u - v) + 0.5 * kappa * (u - v) ** 2
        assert np.min(expr) >= -1e-12

    @pytest.mark.parametrize("potname", ["gl", "fh"])
    def test_sign_condition_at_the_bound(self, potname, gl, fh):
        p = gl if potname == "gl" else fh
        assert p.f(p.beta) <= 1e-12
        assert p.f(-p.beta) >= -1e-12
