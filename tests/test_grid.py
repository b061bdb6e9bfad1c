import math

import numpy as np
import pytest

from conftest import random_field, sinprod
from etdac.grid import (
    Field,
    Mesh2D,
    discrete_energy,
    l2_norm,
    max_norm,
    read_field_csv,
    write_field_csv,
)


class TestMesh2D:
    def test_spacings_and_cell_count(self):
        mesh = Mesh2D(2 * np.pi, np.pi, 8, 4)
        assert mesh.hx == pytest.approx(2 * np.pi / 8)
        assert mesh.hy == pytest.approx(np.pi / 4)
        assert mesh.ncells == 32

    def test_cell_centers_offset_by_half(self):
        mesh = Mesh2D(1.0, 2.0, 4, 5)
        x, y = mesh.cell_centers()
        assert x.shape == (5, 4) and y.shape == (5, 4)
        assert x[0, 0] == pytest.approx(0.5 * mesh.hx)
        assert x[3, 2] == pytest.approx(2.5 * mesh.hx)
        assert y[3, 2] == pytest.approx(3.5 * mesh.hy)

    @pytest.mark.parametrize("nx,ny", [(1, 4), (4, 1), (0, 0)])
    def test_rejects_degenerate_grids(self, nx, ny):
        with pytest.raises(ValueError):
            Mesh2D(1.0, 1.0, nx, ny)

    @pytest.mark.parametrize("lx,ly", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_degenerate_domains(self, lx, ly):
        with pytest.raises(ValueError):
            Mesh2D(lx, ly, 4, 4)


class TestField:
    def test_storage_is_row_major_i_fastest(self):
        mesh = Mesh2D(1.0, 1.0, 3, 2)
        u = Field(mesh, np.arange(6, dtype=float))
        g = u.grid()
        # values[j*nx + i] is cell (i, j)
        assert g[0, 2] == 2.0
        assert g[1, 0] == 3.0

    def test_rejects_wrong_length(self):
        mesh = Mesh2D(1.0, 1.0, 3, 2)
        with pytest.raises(ValueError):
            Field(mesh, np.zeros(5))

    def test_from_grid_round_trips(self):
        mesh = Mesh2D(1.0, 1.0, 4, 3)
        g = np.arange(12, dtype=float).reshape(3, 4)
        u = Field(mesh, g)
        assert np.array_equal(u.grid(), g)


class TestNorms:
    def test_max_norm_constant(self):
        mesh = Mesh2D(1.0, 1.0, 4, 4)
        assert max_norm(Field(mesh, np.full(mesh.ncells, -2.5))) == 2.5

    def test_max_norm_single_spike(self):
        mesh = Mesh2D(1.0, 1.0, 4, 4)
        vals = np.zeros(16)
        vals[7] = 2.0
        assert max_norm(Field(mesh, vals)) == 2.0

    @pytest.mark.parametrize("special", [[0.0, -0.0], [-0.0, -0.0], [np.nan, 1.0], [np.inf, -1.0],
                                         [-np.inf, 2.0], [np.nan, -np.inf], [-3.0, 2.0]])
    def test_max_norm_equals_the_max_of_abs(self, special):
        mesh = Mesh2D(1.0, 1.0, 4, 4)
        vals = np.random.default_rng(3).uniform(-0.5, 0.5, mesh.ncells)
        for k, v in enumerate(special):
            vals[3 + 5 * k] = v
        for u in (vals, np.full(mesh.ncells, special[0])):
            got, want = max_norm(Field(mesh, u)), float(np.max(np.abs(u)))
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_max_norm_of_a_negative_zero_field_is_positive_zero(self):
        mesh = Mesh2D(1.0, 1.0, 4, 4)
        got = max_norm(Field(mesh, np.full(mesh.ncells, -0.0)))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_max_norm_of_sine_product_just_below_amplitude(self):
        # cell centers never hit the interior extremum of sin x sin y exactly
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 128, 128)
        mn = max_norm(sinprod(mesh, 0.5))
        assert 0.49 < mn <= 0.5

    def test_l2_norm_of_ones_is_domain_measure_sqrt(self):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        assert l2_norm(Field(mesh, np.full(mesh.ncells, 1.0))) == pytest.approx(2 * np.pi, rel=1e-14)

    def test_l2_norm_absolute_homogeneity(self):
        mesh = Mesh2D(1.0, 1.0, 5, 5)
        u = random_field(mesh, 3)
        assert l2_norm(Field(mesh, -4.0 * u.values)) == pytest.approx(4.0 * l2_norm(u), rel=1e-14)

    def test_l2_norm_matches_inner(self):
        mesh = Mesh2D(1.0, 2.0, 5, 4)
        u = random_field(mesh, 4)
        assert l2_norm(u) == pytest.approx(math.sqrt(mesh.hx * mesh.hy * np.sum(u.values * u.values)), rel=1e-14)

    def test_cosine_mode_orthogonal_to_constants(self):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 32, 32)
        x, _ = mesh.cell_centers()
        u = Field(mesh, np.cos(x))
        assert abs(mesh.hx * mesh.hy * np.sum(u.values)) < 1e-12


def energy_by_loops(u, eps, potential):
    """Face-by-face reference implementation of the discrete energy."""
    mesh = u.mesh
    g = u.grid()
    grad2 = 0.0
    for j in range(mesh.ny):
        for i in range(mesh.nx - 1):
            grad2 += ((g[j, i + 1] - g[j, i]) / mesh.hx) ** 2
    for j in range(mesh.ny - 1):
        for i in range(mesh.nx):
            grad2 += ((g[j + 1, i] - g[j, i]) / mesh.hy) ** 2
    bulk = sum(float(potential.F(g[j, i])) for j in range(mesh.ny) for i in range(mesh.nx))
    return mesh.hx * mesh.hy * (0.5 * eps**2 * grad2 + bulk)


class TestDiscreteEnergy:
    def test_constant_minimizer_has_zero_energy(self, gl):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        assert discrete_energy(Field(mesh, np.full(mesh.ncells, 1.0)), 0.1, gl) == 0.0

    def test_zero_state_energy_is_pi_squared(self, gl):
        # F(0) = 1/4 over a (2 pi)^2 domain
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 16, 16)
        assert discrete_energy(Field(mesh, np.full(mesh.ncells, 0.0)), 0.1, gl) == pytest.approx(np.pi**2, rel=1e-13)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_loop_reference(self, gl, fh, seed):
        mesh = Mesh2D(1.3, 2.1, 5, 7)
        u = random_field(mesh, seed, -0.9, 0.9)
        for pot in (gl, fh):
            assert discrete_energy(u, 0.2, pot) == pytest.approx(energy_by_loops(u, 0.2, pot), rel=1e-13)

    def test_refined_mesh_oracle_for_smooth_state(self, gl):
        # the 128^2 value approximates the 1024^2 evaluation of the same
        # smooth profile to a few mesh-size squared
        coarse = Mesh2D(2 * np.pi, 2 * np.pi, 128, 128)
        fine = Mesh2D(2 * np.pi, 2 * np.pi, 1024, 1024)
        e_coarse = discrete_energy(sinprod(coarse, 0.5), 0.1, gl)
        e_fine = discrete_energy(sinprod(fine, 0.5), 0.1, gl)
        assert e_coarse == pytest.approx(e_fine, rel=1e-3)

    def test_mirror_symmetry_in_x(self, gl):
        mesh = Mesh2D(1.0, 1.0, 6, 5)
        u = random_field(mesh, 5)
        mirrored = Field(mesh, u.grid()[:, ::-1])
        assert discrete_energy(mirrored, 0.3, gl) == pytest.approx(discrete_energy(u, 0.3, gl), rel=1e-12)

    def test_energy_dominates_bulk_term(self, gl):
        mesh = Mesh2D(1.0, 1.0, 8, 8)
        u = random_field(mesh, 6)
        bulk = mesh.hx * mesh.hy * float(np.sum(gl.F(u.values)))
        assert discrete_energy(u, 0.5, gl) >= bulk

    @pytest.mark.parametrize("nx, ny", [(5, 7), (112, 96)])
    def test_scratch_gives_the_same_bits_as_whole_array_differences(self, gl, fh, nx, ny):
        # the reference forms each difference field as its own array
        mesh = Mesh2D(1.3, 2.1, nx, ny)
        u = random_field(mesh, 4, -0.9, 0.9)
        g = u.grid()
        dx, dy = (g[:, 1:] - g[:, :-1]) / mesh.hx, (g[1:, :] - g[:-1, :]) / mesh.hy
        for pot in (gl, fh):
            want = mesh.hx * mesh.hy * float(0.5 * 0.2 * 0.2 * (np.sum(dx * dx) + np.sum(dy * dy))
                                             + np.sum(pot.F(g)))
            scratch = np.full(mesh.ncells, np.nan)
            assert discrete_energy(u, 0.2, pot, scratch) == discrete_energy(u, 0.2, pot) == want

    def test_fh_domain_error_propagates(self, fh):
        mesh = Mesh2D(1.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            discrete_energy(Field(mesh, np.full(mesh.ncells, 1.0)), 0.1, fh)

    def test_rejects_nonpositive_eps(self, gl):
        mesh = Mesh2D(1.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            discrete_energy(Field(mesh, np.full(mesh.ncells, 0.0)), 0.0, gl)


class TestFieldCsv:
    def test_round_trip_is_exact(self, tmp_path):
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 6, 4)
        u = random_field(mesh, 7)
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        v = read_field_csv(mesh, path)
        assert np.array_equal(u.values, v.values)

    def test_header_and_row_order(self, tmp_path):
        mesh = Mesh2D(1.0, 1.0, 3, 2)
        u = Field(mesh, np.arange(6, dtype=float))
        path = tmp_path / "field.csv"
        write_field_csv(u, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,x,y,u"
        assert len(lines) == 1 + mesh.ncells
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert (first[0], first[1]) == ("0", "0")
        assert (second[0], second[1]) == ("1", "0")  # i varies fastest
        assert float(first[2]) == pytest.approx(0.5 * mesh.hx)

    def test_read_rejects_wrong_cell_count(self, tmp_path):
        mesh = Mesh2D(1.0, 1.0, 3, 2)
        path = tmp_path / "field.csv"
        write_field_csv(Field(mesh, np.full(mesh.ncells, 1.0)), path)
        with pytest.raises(ValueError):
            read_field_csv(Mesh2D(1.0, 1.0, 4, 4), path)

    @pytest.mark.parametrize("cells,msg", [
        (["0,0", "0,0", "0,1", "1,1"], "more than once"),  # (1, 0) missing
        (["0,0", "1,0", "2,0", "1,1"], "inside"),  # i = nx would wrap to (0, 1)
        (["0,0", "1,0", "0,-1", "1,1"], "inside"),
        (["0,0", "0.5,0", "0,1", "1,1"], "integers"),
    ])
    def test_read_rejects_bad_cell_indices(self, tmp_path, cells, msg):
        path = tmp_path / "field.csv"
        path.write_text("i,j,x,y,u\n" + "".join(f"{c},0.5,0.5,0.25\n" for c in cells))
        with pytest.raises(ValueError, match=msg):
            read_field_csv(Mesh2D(1.0, 1.0, 2, 2), path)

    def test_read_rejects_non_finite_values(self, tmp_path):
        mesh = Mesh2D(1.0, 1.0, 2, 2)
        path = tmp_path / "field.csv"
        write_field_csv(Field(mesh, [0.0, np.nan, 0.0, 0.0]), path)
        with pytest.raises(ValueError, match="finite"):
            read_field_csv(mesh, path)
