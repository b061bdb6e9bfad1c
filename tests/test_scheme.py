import math

import numpy as np
import pytest

import etdac.stepper as stepper
from etdac.scheme import (
    NODE_KINDS,
    NodeSet,
    SchemeSpec,
    Vandermonde,
    make_nodes,
    make_scheme,
    sigma_min,
    tau_max,
)

# published minimum singular values of V_r, r = 1..10
SIGMA_MIN_UNIFORM = [1.000e00, 1.654e-01, 2.745e-02, 4.408e-03, 6.807e-04,
                     1.017e-04, 1.481e-05, 2.113e-06, 2.971e-07, 4.125e-08]
SIGMA_MIN_CHEBYSHEV = [1.000e00, 1.654e-01, 3.395e-02, 6.823e-03, 1.338e-03,
                       2.575e-04, 4.884e-05, 9.157e-06, 1.701e-06, 3.136e-07]
# published tau_max for kappa=2, uniform nodes, r = 2..10
TAU_MAX_KAPPA2 = [1.250e-01, 1.034e-02, 1.144e-03, 1.378e-04,
                  1.702e-05, 2.118e-06, 2.644e-07, 3.302e-08, 4.126e-09]


def sig4(x):
    """Round to 4 significant digits."""
    return float(f"{x:.4g}")


class TestNodes:
    def test_uniform_nodes(self):
        ns = make_nodes(4, "uniform")
        assert np.allclose(ns.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_families_coincide_at_degree_two(self):
        u = make_nodes(2, "uniform").nodes
        c = make_nodes(2, "chebyshev").nodes
        assert np.allclose(u, [0.0, 0.5, 1.0])
        assert np.allclose(c, [0.0, 0.5, 1.0])

    def test_chebyshev_lobatto_degree_three(self):
        ns = make_nodes(3, "chebyshev")
        assert np.allclose(ns.nodes, [0.0, 0.25, 0.75, 1.0], atol=1e-15)

    def test_chebyshev_formula(self):
        r = 7
        ns = make_nodes(r, "chebyshev")
        want = [(1.0 - math.cos(k * math.pi / r)) / 2.0 for k in range(r + 1)]
        assert np.allclose(ns.nodes, want, atol=1e-15)

    def test_degree_zero(self):
        ns = make_nodes(0)
        assert ns.nodes.tolist() == [0.0]

    def test_endpoints_and_ordering(self):
        for kind in NODE_KINDS:
            for r in range(1, 11):
                a = make_nodes(r, kind).nodes
                assert a[0] == 0.0
                assert a[-1] == 1.0
                assert np.all(np.diff(a) > 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_nodes(3, "legendre")

    def test_nodeset_validates_ordering(self):
        with pytest.raises(ValueError):
            NodeSet(2, "uniform", np.array([0.0, 0.7, 0.3]))
        with pytest.raises(ValueError):
            NodeSet(2, "uniform", np.array([0.1, 0.5, 1.0]))


class TestVandermonde:
    def test_degree_one_matrix(self):
        v = Vandermonde(make_nodes(1))
        assert v.matrix.shape == (1, 1)
        assert v.matrix[0, 0] == 1.0

    def test_degree_two_uniform_matrix(self):
        v = Vandermonde(make_nodes(2))
        assert np.allclose(v.matrix, [[0.5, 0.25], [1.0, 1.0]])

    def test_entries_are_node_powers(self):
        ns = make_nodes(5, "chebyshev")
        v = Vandermonde(ns)
        for i in range(1, 6):
            for j in range(1, 6):
                assert v.matrix[i - 1, j - 1] == pytest.approx(ns.nodes[i] ** j, rel=1e-15)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_constructed_solution_recovered(self, r):
        v = Vandermonde(make_nodes(r))
        d = v.matrix @ np.ones(r)
        assert np.max(np.abs(v.solve(d) - 1.0)) < 1e-12

    @pytest.mark.parametrize("r", range(1, 6))
    def test_random_rhs_residual(self, r):
        # conditioning allows the 1e-12 residual contract up to r ~ 5 for
        # arbitrary data; smooth data (below) meets it at every order
        v = Vandermonde(make_nodes(r))
        rng = np.random.default_rng(r)
        for _ in range(50):
            b = rng.standard_normal(r)
            res = np.max(np.abs(v.matrix @ v.solve(b) - b))
            assert res <= 1e-12 * (1.0 + np.max(np.abs(b)))

    @pytest.mark.parametrize("r", range(1, 11))
    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_smooth_rhs_residual(self, r, kind):
        # samples of smooth functions, the shape of every right-hand side
        # the cascade produces
        v = Vandermonde(make_nodes(r, kind))
        nodes = v.nodes[1:]
        for a in (0.3, 1.1, 2.7):
            d = np.cos(a * nodes) - 1.0
            res = np.max(np.abs(v.matrix @ v.solve(d) - d))
            assert res <= 1e-12 * (1.0 + np.max(np.abs(d)))

    @pytest.mark.parametrize("r", range(1, 11))
    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_the_inverse_leaves_a_residual_below_roundoff(self, r, kind):
        # an LU-computed inverse X leaves V X - I of order eps ||V|| ||X||,
        # and ||V|| <= r as the nodes lie in [0, 1]; the largest residual is
        # 0.26 of roundoff (Chebyshev, r = 8)
        v = Vandermonde(make_nodes(r, kind))
        assert np.max(np.abs(v.matrix @ v._inv - np.eye(r))) <= v.roundoff

    def test_stacked_solve_matches_columnwise(self):
        v = Vandermonde(make_nodes(4))
        rng = np.random.default_rng(9)
        b = rng.standard_normal((4, 7))
        stacked = v.solve(b)
        for k in range(7):
            assert np.allclose(stacked[:, k], v.solve(b[:, k].copy()), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("r", [1, 4, 9])
    def test_solve_in_place_matches_the_allocating_solve(self, r):
        # the stepper solves into the right-hand side with workspace scratch
        v = Vandermonde(make_nodes(r))
        b = np.random.default_rng(r).standard_normal((r, 300))
        want = v.solve(b)
        scratch = (np.empty_like(b), np.empty_like(b))
        got = v.solve(b, out=b, scratch=scratch)
        assert got is b
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_column_slices_keep_the_whole_solve_s_bits(self, kind):
        # step solves a level's (j, ncells) rows, a strided view of the
        # polynomial, a slice of cells at a time, in place with scratch.  A
        # slice of two or more columns goes through BLAS's gemm and gives
        # the whole stack's bits; a one-column slice goes through gemv and
        # does not, which is why phi.cuts never leaves a one-cell tail
        rng = np.random.default_rng(len(kind))
        for v in make_scheme(10, kind).systems:
            poly = rng.standard_normal((v.r + 1, 301)) * 10.0 ** rng.integers(-3, 3, (1, 301))
            want = v.solve(poly[1:])
            for widths in ([2] * 149 + [3], [3, 5, 7, 11, 13, 262], [150, 151]):
                got, res, scratch = poly.copy()[1:], np.empty((v.r, 301)), np.empty((v.r, 301))
                bounds = np.cumsum([0] + widths)
                assert bounds[-1] == 301
                for a, b in zip(bounds, bounds[1:]):
                    v.solve(got[:, a:b], out=got[:, a:b], scratch=(res[:, a:b], scratch[:, a:b]))
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_level_one_system_is_the_identity(self, kind):
        # V_1 = [a_1] = [1], which is why step takes c_1 = d_1 without a solve
        for order in range(2, 11):
            assert make_scheme(order, kind).systems[0].matrix.tolist() == [[1.0]]

    def test_polynomial_coefficients_recovered(self):
        # d_k = P(a_k) for P with zero constant term recovers P's coefficients
        ns = make_nodes(4)
        v = Vandermonde(ns)
        coeffs = np.array([0.7, -1.3, 0.2, 2.0])
        d = np.array([sum(c * a ** (m + 1) for m, c in enumerate(coeffs)) for a in ns.nodes[1:]])
        assert np.max(np.abs(v.solve(d) - coeffs)) < 1e-12

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            Vandermonde(make_nodes(0))

    @pytest.mark.parametrize("nodes", [[0.0, 1e-200, 2e-200], [0.0, 1e-310, 1.0]], ids=["zero-pivot", "overflow"])
    def test_a_system_singular_to_working_precision_is_rejected(self, nodes):
        # the first nodes' squares underflow to zero, so LAPACK meets a zero
        # pivot; in the second, 1/1e-310 overflows the inverse
        with pytest.raises(ValueError, match="singular to working precision"):
            Vandermonde(NodeSet(2, "uniform", np.array(nodes)))

    @pytest.mark.parametrize("r", range(1, 10))
    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_roundoff_is_eps_times_the_inverse_one_norm(self, r, kind):
        v = Vandermonde(make_nodes(r, kind))
        inv = np.linalg.inv(v.matrix)
        want = np.finfo(float).eps * np.abs(inv).sum(axis=0).max()
        assert v.roundoff == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("kind, highest", [("uniform", 5), ("chebyshev", 6)])
    def test_roundoff_leaves_the_flat_tolerance_alone_up_to_order_six(self, kind, highest):
        # the stepper's flat test takes max(1e-12, roundoff) at each level,
        # so every run of order <= highest + 1 keeps 1e-12 and its bits
        flat_tol = stepper._FLAT_TOL
        tols = [max(flat_tol, Vandermonde(make_nodes(r, kind)).roundoff) for r in range(1, 10)]
        assert tols[:highest] == [flat_tol] * highest
        assert all(t > flat_tol for t in tols[highest:])


class TestSigmaMin:
    def test_identity(self):
        assert sigma_min(np.eye(3)) == pytest.approx(1.0, rel=1e-14)

    def test_accepts_factored_system_or_array(self):
        v = Vandermonde(make_nodes(3))
        assert sigma_min(v) == pytest.approx(sigma_min(v.matrix), rel=1e-14)

    @pytest.mark.parametrize("r,want", list(enumerate(SIGMA_MIN_UNIFORM, start=1)))
    def test_table_uniform(self, r, want):
        got = sigma_min(Vandermonde(make_nodes(r, "uniform")))
        assert sig4(got) == want

    @pytest.mark.parametrize("r,want", list(enumerate(SIGMA_MIN_CHEBYSHEV, start=1)))
    def test_table_chebyshev(self, r, want):
        got = sigma_min(Vandermonde(make_nodes(r, "chebyshev")))
        assert sig4(got) == want

    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_decreasing_in_degree(self, kind):
        vals = [sigma_min(Vandermonde(make_nodes(r, kind))) for r in range(1, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTauMax:
    def test_first_order_is_unbounded(self):
        assert tau_max(1, 2.0) == math.inf
        assert tau_max(1, 2.0, rescaled=True) == math.inf

    def test_second_order_standard(self):
        assert tau_max(2, 2.0, "uniform", rescaled=False) == pytest.approx(0.125, rel=1e-14)

    @pytest.mark.parametrize("r,want", list(enumerate(TAU_MAX_KAPPA2, start=2)))
    def test_table_kappa_two(self, r, want):
        assert sig4(tau_max(r, 2.0, "uniform", rescaled=False)) == want

    def test_formula_against_direct_computation(self):
        kappa = 3.7
        for r in (2, 4, 6):
            want = min(sigma_min(Vandermonde(make_nodes(k))) / k for k in range(1, r)) / (4 * kappa)
            assert tau_max(r, kappa) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("kind", NODE_KINDS)
    def test_rescaled_is_two_fifths_of_standard(self, kind):
        for r in range(2, 11):
            std = tau_max(r, 2.0, kind, rescaled=False)
            res = tau_max(r, 2.0, kind, rescaled=True)
            assert res == pytest.approx(0.4 * std, rel=1e-12)

    def test_scales_inversely_with_kappa(self):
        assert tau_max(3, 4.0) == pytest.approx(0.5 * tau_max(3, 2.0), rel=1e-14)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            tau_max(0, 2.0)
        with pytest.raises(ValueError):
            tau_max(3, 0.0)


class TestMakeScheme:
    def test_assembles_all_levels(self):
        spec = make_scheme(5)
        assert isinstance(spec, SchemeSpec)
        assert list(spec.levels) == [1, 2, 3, 4]
        assert len(spec.systems) == 4
        assert all(isinstance(v, Vandermonde) for v in spec.systems)
        assert [v.r for v in spec.systems] == [1, 2, 3, 4]
        assert [len(v.nodes) for v in spec.systems] == [2, 3, 4, 5]

    def test_order_one_has_no_systems(self):
        spec = make_scheme(1)
        assert list(spec.levels) == []
        assert spec.systems == ()

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            make_scheme(0)
