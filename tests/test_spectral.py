import math

import numpy as np
import pytest
import scipy.fft

from conftest import random_field
from etdac.grid import Field, Mesh2D, l2_norm, max_norm
from etdac.spectral import SpectralPlan, apply_phi
from etdac.stepper import _dct, _padded
from oracles import DenseOperator, dct2_matrix


@pytest.fixture
def plan8(mesh8):
    return SpectralPlan(mesh8, 0.1, 2.0)


def forward(u):
    """The stepper's forward transform of u, computed in a copy of its grid."""
    return _dct(u.grid().copy())


class TestSpectralPlan:
    def test_eigenvalues_match_direct_formula(self, mesh8):
        eps, kappa = 0.3, 1.7
        plan = SpectralPlan(mesh8, eps, kappa)
        for j in range(mesh8.ny):
            for i in range(mesh8.nx):
                mux = -(4.0 / mesh8.hx**2) * math.sin(i * math.pi / (2 * mesh8.nx)) ** 2
                muy = -(4.0 / mesh8.hy**2) * math.sin(j * math.pi / (2 * mesh8.ny)) ** 2
                assert plan.eigvals[j, i] == pytest.approx(eps**2 * (mux + muy) - kappa, rel=1e-14)

    def test_spectrum_tops_out_at_minus_kappa(self, plan8):
        assert plan8.eigvals[0, 0] == -2.0
        assert np.all(plan8.eigvals <= -2.0)

    @pytest.mark.parametrize("mesh", [
        Mesh2D(2 * np.pi, 2 * np.pi, 16, 16),
        Mesh2D(2 * np.pi, np.pi, 12, 8),
    ], ids=["square", "rectangle"])
    def test_distinct_values_gather_to_the_eigenvalue_grid(self, mesh):
        eps, kappa = 0.1, 2.0
        plan = SpectralPlan(mesh, eps, kappa)
        mux = -(4.0 / mesh.hx**2) * np.sin(np.arange(mesh.nx) * np.pi / (2 * mesh.nx)) ** 2
        muy = -(4.0 / mesh.hy**2) * np.sin(np.arange(mesh.ny) * np.pi / (2 * mesh.ny)) ** 2
        want = eps * eps * (mux[None, :] + muy[:, None]) - kappa
        assert plan.index.shape == (mesh.ny, mesh.nx) and plan.index.dtype == np.int32
        assert plan.values[plan.index].tobytes() == want.tobytes()
        assert plan.eigvals.tobytes() == want.tobytes()
        assert np.all(np.diff(plan.values) > 0)
        for arr in (plan.values, plan.index):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_square_mesh_keeps_at_most_the_upper_triangle(self):
        n = 16
        plan = SpectralPlan(Mesh2D(2 * np.pi, 2 * np.pi, n, n), 0.1, 2.0)
        assert plan.values.size <= n * (n + 1) // 2

    def test_rejects_bad_parameters(self, mesh8):
        with pytest.raises(ValueError):
            SpectralPlan(mesh8, 0.0, 1.0)
        with pytest.raises(ValueError):
            SpectralPlan(mesh8, 0.1, 0.0)

    @pytest.mark.parametrize("eps, kappa", [(np.nan, 2.0), (np.inf, 2.0), (0.1, np.nan), (0.1, np.inf),
                                            (1e300, 2.0), (1e155, 2.0)])
    def test_rejects_non_finite_parameters_and_spectra(self, mesh8, eps, kappa):
        # 1e300 squares to inf, and 1e155 overflows once scaled by 1/h^2
        with pytest.raises(ValueError, match="finite"):
            SpectralPlan(mesh8, eps, kappa)


class TestTransforms:
    def test_matches_dense_cosine_matrix(self):
        mesh = Mesh2D(2 * np.pi, np.pi, 8, 6)
        plan = SpectralPlan(mesh, 0.1, 2.0)
        u = random_field(mesh, 0)
        got = forward(u)
        want = dct2_matrix(mesh.ny) @ u.grid() @ dct2_matrix(mesh.nx).T
        assert np.max(np.abs(got - want)) < 1e-12

    def test_round_trip_identity(self):
        # the stepper's pair: _dct, then the inverse in place, as a stage sum takes it
        for mesh in (Mesh2D(2 * np.pi, 2 * np.pi, 8, 8), Mesh2D(2 * np.pi, np.pi, 13, 5)):
            u = random_field(mesh, 1)
            back = scipy.fft.idctn(forward(u), type=2, norm="ortho", overwrite_x=True)
            assert np.max(np.abs(back.ravel() - u.values)) < 1e-13 * max_norm(u)

    @pytest.mark.parametrize("nx, ny", [(8, 8), (13, 5), (64, 64), (128, 96)])
    def test_the_pair_on_a_padded_view_is_the_contiguous_pair(self, nx, ny):
        # the step transforms [:, :nx] views of padded rows in place: the same
        # bits as scipy's contiguous pair, and the pad columns untouched (an
        # 8-cell row is one 64-byte line, already odd, so it has no pad)
        mesh = Mesh2D(2 * np.pi, np.pi, nx, ny)
        u = random_field(mesh, 2)
        row = _padded(1, mesh)[0]
        assert row.shape[1] % 16 == 8 and nx <= row.shape[1] < nx + 16  # an odd number of 64-byte lines
        row[:, nx:] = np.nan
        view = row[:, :nx]
        np.copyto(view, u.grid())
        want = scipy.fft.dctn(u.grid(), type=2, norm="ortho")
        assert np.shares_memory(_dct(view), row) and np.array_equal(view, want)
        back = scipy.fft.idctn(view, type=2, norm="ortho", overwrite_x=True)
        assert np.shares_memory(back, row) and np.array_equal(view, scipy.fft.idctn(want, type=2, norm="ortho"))
        assert np.isnan(row[:, nx:]).all()

    def test_constant_maps_to_dc_mode_only(self, plan8, mesh8):
        uh = forward(Field(mesh8, np.full(mesh8.ncells, 3.0)))
        off_dc = uh.copy()
        off_dc[0, 0] = 0.0
        assert np.max(np.abs(off_dc)) < 1e-13
        assert uh[0, 0] == pytest.approx(3.0 * math.sqrt(mesh8.ncells), rel=1e-14)

    def test_transform_is_an_isometry(self, plan8, mesh8):
        u = random_field(mesh8, 2)
        uh = forward(u)
        h_norm = math.sqrt(mesh8.hx * mesh8.hy) * float(np.linalg.norm(uh))
        assert h_norm == pytest.approx(l2_norm(u), rel=1e-13)


class TestApplyPhi:
    def test_semigroup_on_constants(self, plan8, mesh8):
        s = 0.37
        out = apply_phi(plan8, 0, s, Field(mesh8, np.full(mesh8.ncells, 1.0)))
        assert np.max(np.abs(out.values - math.exp(-plan8.kappa * s))) < 1e-14

    @pytest.mark.parametrize("j", range(6))
    @pytest.mark.parametrize("s", [0.037, 1.0])
    def test_matches_dense_eigendecomposition(self, mesh8, j, s):
        plan = SpectralPlan(mesh8, 0.1, 2.0)
        dense = DenseOperator(mesh8, 0.1, 2.0)
        v = random_field(mesh8, 3)
        got = apply_phi(plan, j, s, v)
        want = dense.apply_phi(j, s, v.values)
        rel = np.linalg.norm(got.values - want) / np.linalg.norm(want)
        assert rel < 1e-10

    def test_small_time_limit_is_taylor_coefficient(self, plan8, mesh8):
        v = random_field(mesh8, 4)
        out = apply_phi(plan8, 2, 1e-12, v)
        assert np.allclose(out.values, 0.5 * v.values, rtol=1e-9, atol=1e-9)

    def test_linearity(self, plan8, mesh8):
        v = random_field(mesh8, 5)
        w = random_field(mesh8, 6)
        combo = Field(mesh8, 2.0 * v.values - 0.5 * w.values)
        lhs = apply_phi(plan8, 1, 0.4, combo).values
        rhs = 2.0 * apply_phi(plan8, 1, 0.4, v).values - 0.5 * apply_phi(plan8, 1, 0.4, w).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("k", range(7))
    def test_l2_bound_by_inverse_factorial(self, plan8, mesh8, k):
        for t in (0.01, 0.1, 1.0):
            v = random_field(mesh8, 10 + k)
            out = apply_phi(plan8, k, t, v)
            assert l2_norm(out) <= l2_norm(v) / math.factorial(k) + 1e-12

    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_l2_monotone_scaling(self, plan8, mesh8, lam):
        for k in range(1, 7):
            v = random_field(mesh8, 20 + k)
            lhs = lam**k * l2_norm(apply_phi(plan8, k, lam * 1.0, v))
            rhs = l2_norm(apply_phi(plan8, k, 1.0, v))
            assert lhs <= rhs + 1e-12

    def test_max_norm_contraction(self, plan8, mesh8):
        for t in (0.05, 0.5, 2.0):
            v = random_field(mesh8, 30)
            out = apply_phi(plan8, 0, t, v)
            assert max_norm(out) <= math.exp(-plan8.kappa * t) * max_norm(v) + 1e-12

    def test_nonpositive_time_rejected(self, plan8, mesh8):
        v = Field(mesh8, np.full(mesh8.ncells, 1.0))
        with pytest.raises(ValueError):
            apply_phi(plan8, 0, 0.0, v)
        with pytest.raises(ValueError):
            apply_phi(plan8, 1, -0.1, v)

    def test_mesh_mismatch_rejected(self, plan8):
        other = Field(Mesh2D(1.0, 1.0, 4, 4), np.full(16, 1.0))
        with pytest.raises(ValueError):
            apply_phi(plan8, 0, 0.1, other)
