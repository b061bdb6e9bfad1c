import math

import numpy as np
import pytest

from conftest import random_field, sinprod, traced_peak
from etdac.diagnostics import (
    DISSIPATION_RTOL,
    MBP_TOL,
    RunReport,
    StepDiagnostics,
    record,
    write_csv,
)
from etdac.grid import Field, Mesh2D
from etdac.scheme import make_scheme
from etdac.spectral import SpectralPlan
from etdac.stepper import StepContext


@pytest.fixture
def ctx(mesh8, gl):
    plan = SpectralPlan(mesh8, 0.1, 2.0)
    return StepContext(plan, gl, make_scheme(2), 0.1)


@pytest.fixture
def fh_ctx(mesh8, fh):
    plan = SpectralPlan(mesh8, 0.1, fh.kappa_min)
    return StepContext(plan, fh, make_scheme(2), 0.1)


class TestRecord:
    def test_zero_state_double_well_energy(self, ctx, mesh8):
        d = record(ctx, 0, Field(mesh8, np.full(mesh8.ncells, 0.0)))
        assert d.energy == pytest.approx(math.pi**2, rel=1e-13)
        assert d.max_norm == 0.0
        assert d.mbp_ok
        assert d.dissipation_ok
        assert d.alpha_min == 1.0
        assert d.t == 0.0

    def test_time_defaults_to_step_times_tau(self, ctx, mesh8):
        u = Field(mesh8, np.full(mesh8.ncells, 0.0))
        assert record(ctx, 7, u).t == pytest.approx(0.7)
        assert record(ctx, 7, u, t=0.25).t == 0.25

    def test_dissipation_vacuous_without_predecessor(self, ctx, mesh8):
        u = sinprod(mesh8, 0.5)
        assert record(ctx, 0, u, prev_energy=None).dissipation_ok

    def test_dissipation_roundoff_guard(self, ctx, mesh8):
        u = Field(mesh8, np.full(mesh8.ncells, 0.0))
        e = record(ctx, 0, u).energy
        assert record(ctx, 1, u, prev_energy=e).dissipation_ok
        within = e - 0.5 * DISSIPATION_RTOL * (1.0 + abs(e))
        assert record(ctx, 1, u, prev_energy=within).dissipation_ok
        beyond = e - 3.0 * DISSIPATION_RTOL * (1.0 + abs(e))
        assert not record(ctx, 1, u, prev_energy=beyond).dissipation_ok

    def test_mbp_flag_boundary(self, ctx, mesh8):
        ok = Field(mesh8, np.full(mesh8.ncells, 1.0 + 0.5 * MBP_TOL))
        assert record(ctx, 1, ok).mbp_ok
        bad = Field(mesh8, np.full(mesh8.ncells, 1.0 + 2.0 * MBP_TOL))
        assert not record(ctx, 1, bad).mbp_ok

    def test_out_of_domain_state_gets_inf_energy(self, fh_ctx, mesh8):
        d = record(fh_ctx, 3, Field(mesh8, np.full(mesh8.ncells, 1.5)))
        assert d.energy == math.inf
        assert not d.mbp_ok
        # inf <= prev fails, so the violation is also flagged
        assert not record(fh_ctx, 3, Field(mesh8, np.full(mesh8.ncells, 1.5)), prev_energy=1.0).dissipation_ok

    def test_alpha_min_passthrough(self, ctx, mesh8):
        d = record(ctx, 1, Field(mesh8, np.full(mesh8.ncells, 0.0)), alpha_min=0.37)
        assert d.alpha_min == 0.37

    @pytest.mark.parametrize("n", [4, 16])
    def test_a_field_with_other_cells_than_the_context_raises(self, ctx, n):
        # the energy's scratch row is the context's; an inf energy would hide the mismatch
        with pytest.raises(ValueError):
            record(ctx, 0, Field(Mesh2D(2 * np.pi, 2 * np.pi, n, n), np.zeros(n * n)))

    @pytest.mark.parametrize("potential, budget", [("gl", 1.05), ("fh", 2.05)])
    def test_record_allocates_only_the_potential_s_temporaries(self, request, potential, budget):
        # in fields of the mesh: the energy's difference fields and F go through
        # the workspace, which the run's first step allocates; F(u, out=) makes
        # 1 (gl) or 2 (fh) temporaries of a slice, at 128^2 the whole field
        pot = request.getfixturevalue(potential)
        mesh = Mesh2D(2 * np.pi, 2 * np.pi, 128, 128)
        ctx = StepContext(SpectralPlan(mesh, 0.1, pot.kappa_min), pot, make_scheme(3), 0.1)
        u = random_field(mesh, 0, -0.9 * pot.beta, 0.9 * pot.beta)
        assert ctx.workspace is not None
        diag, peak = traced_peak(lambda: record(ctx, 1, u, 0.0))
        assert math.isfinite(diag.energy)
        assert peak <= budget * 8 * mesh.ncells


class TestRunReport:
    def mk(self, n, diss, mbp):
        return StepDiagnostics(n, 0.1 * n, 1.0, 0.5, 1.0, diss, mbp)

    def test_summary_all_clean(self):
        rep = RunReport([self.mk(i, True, True) for i in range(4)])
        s = rep.summary()
        assert s["first_dissipation_violation"] is None
        assert s["first_mbp_violation"] is None
        assert s["final_energy"] == 1.0

    def test_summary_first_violations(self):
        rep = RunReport()
        rep.append(self.mk(0, True, True))
        rep.append(self.mk(1, False, True))
        rep.append(self.mk(2, False, False))
        s = rep.summary()
        assert s["first_dissipation_violation"] == 1
        assert s["first_mbp_violation"] == 2

    def test_summary_empty_series(self):
        s = RunReport().summary()
        assert s["final_energy"] is None
        assert s["first_dissipation_violation"] is None


class TestWriteCsv:
    HEADER = "n,t,energy,max_norm,alpha_min,dissipation_ok,mbp_ok"

    def test_header_and_flag_encoding(self, tmp_path):
        rep = RunReport()
        rep.append(StepDiagnostics(0, 0.0, 2.5, 0.5, 1.0, True, True))
        rep.append(StepDiagnostics(1, 0.1, 2.4, 0.6, 0.9, False, True))
        path = tmp_path / "diag.csv"
        write_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[5:] == ["1", "1"]
        assert lines[2].split(",")[5:] == ["0", "1"]

    def test_floats_roundtrip_exactly(self, tmp_path):
        vals = (0.1 + 0.2, 1.0 / 3.0, math.pi**2, 1e-300)
        rep = RunReport()
        rep.append(StepDiagnostics(2, vals[0], vals[1], vals[2], vals[3], True, False))
        path = tmp_path / "diag.csv"
        write_csv(rep, path)
        row = path.read_text().splitlines()[1].split(",")
        assert int(row[0]) == 2
        for text, want in zip(row[1:5], vals):
            assert float(text) == want

    def test_infinite_energy_written_as_inf(self, tmp_path):
        rep = RunReport()
        rep.append(StepDiagnostics(0, 0.0, math.inf, 1.5, 1.0, True, False))
        path = tmp_path / "diag.csv"
        write_csv(rep, path)
        row = path.read_text().splitlines()[1]
        assert row.split(",")[2] == "inf"
        assert float(row.split(",")[2]) == math.inf

    def test_empty_series_writes_header_only(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_csv(RunReport(), path)
        assert path.read_text() == self.HEADER + "\n"

    def test_rows_of_cells_under_a_header(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv([(1, "uniform", 0.1 + 0.2, None), (2, "chebyshev", math.inf, True)],
                  path, ("r", "kind", "value", "extra"))
        assert path.read_text().splitlines() == [
            "r,kind,value,extra",
            "1,uniform,0.30000000000000004,",
            "2,chebyshev,inf,1",
        ]

    def test_unwritable_path_raises_oserror_with_path(self, tmp_path):
        target = tmp_path / "missing_dir" / "diag.csv"
        with pytest.raises(OSError, match="missing_dir"):
            write_csv(RunReport(), target)
