import csv
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from etdac import cli, stepper
from etdac.cli import main
from etdac.config import default_config
from etdac.diagnostics import DISSIPATION_RTOL, RunReport, record, write_csv
from etdac.grid import Field, Mesh2D, write_field_csv
from etdac.scheme import Vandermonde, make_nodes, make_scheme, sigma_min, tau_max
from etdac.stepper import NumericalBlowup, StepContext


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_minimal_run_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["run", "--grid", "16", "--tau", "0.1", "--t-end", "0.3",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "run: order=2" in text
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == "n,t,energy,max_norm,alpha_min,dissipation_ok,mbp_ok"
        assert len(diag) == 5  # initial record + 3 steps
        rows = read_rows(out / "field_final.csv")
        assert len(rows) == 256
        assert list(rows[0]) == ["i", "j", "x", "y", "u"]

    def test_partial_last_step_row_count(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--grid", "8", "--tau", "0.1", "--t-end", "0.25",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "diagnostics.csv")
        assert len(rows) == 4  # initial + 2 full steps + shortened step
        assert float(rows[-1]["t"]) == pytest.approx(0.25)

    def test_run_loop_records_each_step(self, tmp_path, monkeypatch):
        # the run loop labels each record with n, t (t_end for the shortened
        # step) and the step's alpha_min, and flags dissipation against the
        # previous row's energy
        alphas = []
        real = cli.step

        def spy(*args, **kwargs):
            u, alpha_min = real(*args, **kwargs)
            alphas.append(alpha_min)
            return u, alpha_min

        monkeypatch.setattr(cli, "step", spy)
        out = tmp_path / "o"
        rc = main(["run", "--grid", "16", "--potential", "fh", "--seed", "2", "--order", "7",
                   "--tau", "10", "--t-end", "25", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "diagnostics.csv")
        assert [(r["n"], r["t"]) for r in rows] == [("0", "0"), ("1", "10"), ("2", "20"), ("3", "25")]
        assert [float(r["alpha_min"]) for r in rows] == [1.0] + alphas
        assert min(alphas) < 1.0
        for prev, row in zip(rows, rows[1:]):
            e0, e1 = float(prev["energy"]), float(row["energy"])
            assert row["dissipation_ok"] == str(int(e1 <= e0 + DISSIPATION_RTOL * (1.0 + abs(e0))))

    def test_zero_horizon_records_initial_state_only(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--grid", "8", "--t-end", "0", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "diagnostics.csv")
        assert len(rows) == 1
        assert rows[0]["n"] == "0"

    def test_a_run_loads_no_scipy_linalg(self, tmp_path):
        # numpy.linalg inverts the Vandermonde systems: scipy.linalg and its
        # LAPACK wrappers would add some 6 MiB to every process's resident set
        argv = ["run", "--grid", "8", "--order", "7", "--rescaled", "true", "--out", str(tmp_path / "o")]
        code = f"import sys, etdac.cli\nassert etdac.cli.main({argv!r}) == 0\nprint('scipy.linalg' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "False"

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["run", "--grid", "16", "--potential", "fh", "--seed", "3",
                       "--tau", "0.1", "--t-end", "0.3", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for fname in ("diagnostics.csv", "field_final.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_uniform_state_is_stationary(self, tmp_path):
        init = tmp_path / "u0.csv"
        write_field_csv(Field(Mesh2D(2 * math.pi, 2 * math.pi, 16, 16), np.full(256, 1.0)), init)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "nx": 16, "ny": 16, "tau": 0.2, "t_end": 1.0,
            "init": {"kind": "csv", "path": str(init)},
        }))
        out = tmp_path / "o"
        rc = main(["run", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 0
        u = np.array([float(r["u"]) for r in read_rows(out / "field_final.csv")])
        assert np.max(np.abs(u - 1.0)) < 1e-10

    def test_dump_config_echoes_resolved_json(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["run", "--grid", "8", "--t-end", "0", "--order", "3",
                   "--dump-config", "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        stop = lines.index("}")
        cfg = json.loads("\n".join(lines[: stop + 1]))
        assert cfg["order"] == 3
        assert cfg["nx"] == cfg["ny"] == 8

    def test_config_file_flag_precedence(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"order": 4, "tau": 0.05, "nx": 8, "ny": 8}))
        out = tmp_path / "o"
        rc = main(["run", "--config", str(cfgfile), "--order", "2", "--t-end", "0",
                   "--dump-config", "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = json.loads("\n".join(lines[: lines.index("}") + 1]))
        assert cfg["order"] == 2
        assert cfg["tau"] == 0.05


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["run", "--order", "0"],
        ["run", "--tau", "-0.5"],
        ["run", "--grid", "1"],
        ["run", "--kappa", "0.5", "--t-end", "0.1"],
        ["converge", "--taus", "0.1,0.07,0.05", "--grid", "8"],
        ["converge", "--taus", "0.1,0.05", "--grid", "8"],
        ["converge", "--ref", "bogus", "--grid", "8"],
        ["mbp-test", "--grid", "8"],
        ["run", "--tau", "nan"],
        ["run", "--t-end", "nan"],
        ["converge", "--taus", "0.1,0.05,nan", "--grid", "8"],
        ["run", "--eps", "nan"],
        ["run", "--tau", "inf"],
        ["run", "--kappa", "nan"],
        ["run", "--seed", "-1"],
        ["run", "--order", "14", "--rescaled", "false"],
        ["converge", "--ref", "self_finer:x", "--grid", "8"],
        ["run", {"nx": "abc"}],
        ["run", {"order": 3.5}],
        ["run", {"rescaled": "false"}],
        ["run", {"init": {"kind": "random", "seed": "abc"}}],
        ["tables", "--kappa", "0"],
        # step plans past MAX_STEPS, or with a count that overflows to inf
        ["run", "--grid", "8", "--tau", "1e-300", "--t-end", "0.1"],
        ["run", "--grid", "8", "--tau", "1e-320"],
        ["run", "--grid", "8", "--t-end", "1e300"],
        ["converge", "--grid", "8", "--taus", "1e-300,2e-300,4e-300"],
        ["converge", "--grid", "8", "--taus", "1e-320,2e-320,4e-320"],
        ["energy-test", "--grid", "8", "--t-end", "1e300"],
        # 151 phi grids of 8 MiB, past cli.MAX_PHI_CACHE_BYTES
        ["run", "--grid", "1024", "--order", "9", "--t-end", "0.1"],
        # eps^2 overflows, so the spectrum is not finite
        ["run", "--grid", "8", "--eps", "1e300"],
        # a reference spec is exactly order_up, self_finer or self_finer:K
        ["converge", "--ref", "self_finerzzz", "--grid", "8"],
        ["converge", "--ref", "self_finer:2:9", "--grid", "8"],
        ["converge", "--ref", "self_finer:1_0", "--grid", "8"],
    ])
    def test_config_errors_exit_2(self, tmp_path, argv, capsys):
        if isinstance(argv[-1], dict):
            # a dict stands for a config file holding it
            cfgfile = tmp_path / "c.json"
            cfgfile.write_text(json.dumps(argv[-1]))
            argv = argv[:-1] + ["--config", str(cfgfile)]
        rc = main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--grid", "100000"],
        # 1 phi grid of 128 MiB fits the cache budget; 4097^2 cells do not
        ["run", "--grid", "4097", "--order", "1"],
        # at 2048^2 the r = 3 and 5 runs fit the cache budget, r = 7 does not
        ["mbp-test", "--potential", "fh", "--grid", "2048"],
        ["energy-test", "--grid", "2048"],
        # the order-6 reference does not fit, the order-5 runs do
        ["converge", "--grid", "2048", "--order", "5", "--ref", "order_up"],
    ])
    def test_oversized_runs_exit_2_before_allocating(self, tmp_path, monkeypatch, capsys, argv):
        def refuse(*args):
            raise AssertionError("allocated a grid-sized array")

        monkeypatch.setattr(cli, "build_plan", refuse)
        monkeypatch.setattr(cli, "initial_field", refuse)
        rc = main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("cells", [
        ["0,0", "0,0", "0,1", "1,1"],  # cell (0, 0) twice, (1, 0) missing
        ["0,0", "1,0", "2,0", "1,1"],  # i = nx wraps into the next row
        ["0,0", "1,0", "0,1"],  # a cell short
        None,  # no file
    ])
    def test_bad_csv_initial_data_exits_2(self, tmp_path, cells, capsys):
        init = tmp_path / "u0.csv"
        if cells is not None:
            init.write_text("i,j,x,y,u\n" + "".join(f"{c},0.5,0.5,0.25\n" for c in cells))
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"nx": 2, "ny": 2, "init": {"kind": "csv", "path": str(init)}}))
        rc = main(["run", "--config", str(cfgfile), "--t-end", "0.1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_rescaled_with_oversized_initial_data_exits_2(self, tmp_path, capsys):
        init = tmp_path / "u0.csv"
        write_field_csv(Field(Mesh2D(2 * math.pi, 2 * math.pi, 8, 8), np.full(64, 1.2)), init)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "nx": 8, "ny": 8, "init": {"kind": "csv", "path": str(init)},
        }))
        rc = main(["run", "--config", str(cfgfile), "--rescaled", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "max norm" in capsys.readouterr().err

    def test_initial_data_just_above_the_bound_exits_2(self, tmp_path, capsys):
        # beta + 1e-10 fails the diagnostics' maximum-bound check, so a
        # rescaled run must not start from it
        init = tmp_path / "u0.csv"
        write_field_csv(Field(Mesh2D(2 * math.pi, 2 * math.pi, 8, 8), np.full(64, 1.0 + 1e-10)), init)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "nx": 8, "ny": 8, "init": {"kind": "csv", "path": str(init)},
        }))
        rc = main(["run", "--config", str(cfgfile), "--rescaled", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "max norm" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--grid", "8", "--t-end", "0.3"],
        ["converge", "--grid", "8", "--order", "2", "--t-end", "0.2", "--taus", "0.1,0.05,0.025"],
        ["tables"],
    ], ids=["run", "converge", "tables"])
    def test_unmakeable_out_exits_2_before_any_step(self, tmp_path, monkeypatch, capsys, argv):
        steps = []
        real_step = cli.step

        def spy(ctx, u, **kwargs):
            steps.append(kwargs["n"])
            return real_step(ctx, u, **kwargs)

        monkeypatch.setattr(cli, "step", spy)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(argv + ["--out", str(blocker / "sub")])
        assert rc == 2
        assert "config error: cannot make output directory" in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("name", ["diagnostics.csv", "field_final.csv"])
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        rc = main(["run", "--grid", "8", "--t-end", "0.3", "--out", str(out)])
        assert rc == 2
        assert f"config error: cannot write {out / name}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["converge", "--rescaled", "maybe"], "argument --rescaled: expected a boolean, got 'maybe'"),
        (["converge", "--ref", "self_finer:0"], "config error: self_finer divider must be >= 1"),
        (["converge", "--taus", "0.1,x"], "config error: bad --taus list: could not convert string to float: 'x'"),
        (["converge", "--t-end", "0"], "config error: t_end must be positive for a convergence study"),
    ])
    def test_converge_refusals_name_the_bad_input(self, tmp_path, capsys, argv, message):
        try:
            rc = main(argv + ["--grid", "8", "--out", str(tmp_path / "o")])
        except SystemExit as exc:  # argparse's own refusals
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err

    def test_unknown_choice_exits_2_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--potential", "quartic"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_out_of_domain_state_exits_3(self, tmp_path, capsys):
        init = tmp_path / "u0.csv"
        write_field_csv(Field(Mesh2D(2 * math.pi, 2 * math.pi, 8, 8), np.full(64, 1.5)), init)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "nx": 8, "ny": 8, "potential": {"kind": "fh"}, "tau": 0.5, "t_end": 0.5,
            "init": {"kind": "csv", "path": str(init)},
        }))
        out = tmp_path / "o"
        rc = main(["run", "--config", str(cfgfile), "--rescaled", "0", "--out", str(out)])
        assert rc == 3
        assert "numerical failure at step 1" in capsys.readouterr().err
        # the partial diagnostics still land on disk
        rows = read_rows(out / "diagnostics.csv")
        assert len(rows) == 1
        assert rows[0]["energy"] == "inf"


class TestRunLoop:
    """One loop steps every command: _integrate records each state it
    yields, converge keeps only the last."""

    def setup_method(self):
        cfg = default_config()
        cfg.update(nx=16, ny=16, potential={"kind": "fh"}, init={"kind": "random", "seed": 4, "amplitude": 0.9})
        self.potential, self.plan, self.u0 = cli._setup(cfg, [])

    def test_record_runs_once_per_state_and_never_in_converge(self, tmp_path, monkeypatch):
        calls = []
        real_record = cli.record

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real_record(*args, **kwargs)

        monkeypatch.setattr(cli, "record", spy)
        assert main(["converge", "--grid", "8", "--order", "2", "--t-end", "0.2",
                     "--taus", "0.1,0.05,0.025", "--out", str(tmp_path / "c")]) == 0
        assert calls == []
        assert main(["run", "--grid", "8", "--tau", "0.1", "--t-end", "0.25",
                     "--out", str(tmp_path / "r")]) == 0
        assert calls == [0, 1, 2, 3]

    def test_failure_at_step_one_keeps_the_initial_record(self, monkeypatch):
        def fail(ctx, u, *, n):
            raise NumericalBlowup(1, 1, n)

        monkeypatch.setattr(cli, "step", fail)
        u, report, err = cli._integrate(self.plan, self.potential, make_scheme(3), True, 0.5, 2.0, self.u0)
        assert u is self.u0
        assert isinstance(err, NumericalBlowup) and err.step_index == 1
        assert [(d.n, d.t) for d in report.series] == [(0, 0.0)]

    @pytest.mark.parametrize("run", ["_integrate", "_final"])
    def test_the_shortened_last_step_has_the_only_live_context(self, monkeypatch, run):
        # the full steps' context, with its phi grids and work arrays, is
        # unreachable before the shortened step's context is constructed,
        # which builds its own whole, and so at that step as well
        contexts, built, stepped = [], [], []
        real_context, real_step = cli.StepContext, cli.step

        def construct(*args, **kwargs):
            built.append([ref() is not None for ref in contexts])
            ctx = real_context(*args, **kwargs)
            contexts.append(weakref.ref(ctx))
            return ctx

        def spy(ctx, u, **kwargs):
            stepped.append([ref() is not None and ref() is not ctx for ref in contexts])
            return real_step(ctx, u, **kwargs)

        monkeypatch.setattr(cli, "StepContext", construct)
        monkeypatch.setattr(cli, "step", spy)
        getattr(cli, run)(self.plan, self.potential, make_scheme(3), True, 0.5, 1.25, self.u0)
        assert built == [[], [False]]
        assert stepped == [[False], [False], [False, False]]

    def test_a_run_shorter_than_tau_builds_only_the_context_it_steps_with(self, monkeypatch):
        taus, real_context = [], cli.StepContext

        def construct(*args, **kwargs):
            taus.append(args[3])
            return real_context(*args, **kwargs)

        monkeypatch.setattr(cli, "StepContext", construct)
        u, report, err = cli._integrate(self.plan, self.potential, make_scheme(3), True, 0.5, 0.25, self.u0)
        assert err is None and taus == [0.25]
        assert [(d.n, d.t) for d in report.series] == [(0, 0.0), (1, 0.25)]

    def test_a_run_that_takes_no_step_tabulates_no_phi_grid(self, tmp_path, monkeypatch):
        # an order-5 context would tabulate 23 grids just to lend record its tmp row
        calls, real = [], stepper.phi_batch
        monkeypatch.setattr(stepper, "phi_batch", lambda *args: calls.append(args[0]) or real(*args))
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"nx": 16, "ny": 16, "potential": {"kind": "fh"},
                                       "init": {"kind": "random", "seed": 4, "amplitude": 0.9}}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfgfile), "--order", "5", "--t-end", "0", "--out", str(out)]) == 0
        assert calls == []
        # the files hold the initial state as measured with a context's tmp row
        ctx = StepContext(self.plan, self.potential, make_scheme(5), 0.1, rescaled=True)
        report = RunReport([record(self.plan, self.potential, 0, self.u0, t=0.0, scratch=ctx.tmp)])
        write_csv(report, tmp_path / "diagnostics.csv")
        write_field_csv(self.u0, tmp_path / "field_final.csv")
        for name in ("diagnostics.csv", "field_final.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("rescaled", [False, True])
    def test_final_field_equals_the_recorded_runs(self, rescaled):
        args = (self.plan, self.potential, make_scheme(4), rescaled, 5.0, 20.0, self.u0)
        u, report, err = cli._integrate(*args)
        assert err is None and len(report.series) == 5
        assert np.array_equal(cli._final(*args).values, u.values)


class TestConverge:
    def test_self_reference_schema_and_exact_finest(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["converge", "--grid", "16", "--t-end", "0.4",
                   "--taus", "0.2,0.1,0.05", "--ref", "self_finer:1",
                   "--order", "2", "--out", str(out)])
        assert rc == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "tau,linf_err,linf_rate,l2_err,l2_rate"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[2] == "" and first[4] == ""
        finest = lines[3].split(",")
        assert float(finest[0]) == 0.05
        assert float(finest[1]) == 0.0
        assert float(finest[3]) == 0.0
        assert float(finest[2]) == math.inf
        capsys.readouterr()

    def test_self_finer_reference_rates_near_order(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["converge", "--grid", "16", "--t-end", "0.4",
                   "--taus", "0.1,0.05,0.025,0.0125", "--ref", "self_finer:8",
                   "--order", "3", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "convergence.csv")
        errs = [float(r["l2_err"]) for r in rows]
        assert errs == sorted(errs, reverse=True)
        assert float(rows[-1]["l2_rate"]) > 2.5

    def test_order_up_reference(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["converge", "--grid", "16", "--t-end", "0.4",
                   "--taus", "0.1,0.05,0.025", "--ref", "order_up",
                   "--order", "2", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "convergence.csv")
        errs = [float(r["linf_err"]) for r in rows]
        assert errs == sorted(errs, reverse=True)
        assert float(rows[-1]["linf_rate"]) > 1.5


    def test_tau_leaving_a_remainder_is_refused(self, tmp_path, capsys, monkeypatch):
        # each tau is within 1e-9 * t_end of dividing t_end but leaves a
        # remainder of 5e-9, which a solve would take as one more step
        taus = []
        real_step = cli.step

        def spy(ctx, u, **kwargs):
            taus.append(ctx.tau)
            return real_step(ctx, u, **kwargs)

        monkeypatch.setattr(cli, "step", spy)
        rc = main(["converge", "--grid", "8", "--t-end", "100",
                   "--taus", "0.39999999998,0.19999999999,0.099999999995",
                   "--ref", "self_finer:1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "does not divide" in capsys.readouterr().err
        assert taus == []

    def test_order_up_above_the_highest_order_is_refused_before_set_up(self, tmp_path, capsys, monkeypatch):
        # the order-11 reference used to raise a ValueError traceback from
        # its step context, after --out had been made
        def refuse(*args):
            raise AssertionError("set up a solve")

        monkeypatch.setattr(cli, "_setup", refuse)
        out = tmp_path / "o"
        rc = main(["converge", "--grid", "8", "--order", "10", "--t-end", "0.4",
                   "--taus", "0.1,0.05,0.025", "--ref", "order_up", "--out", str(out)])
        assert rc == 2
        assert "order_up needs order 11" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_reference_plan_is_refused_before_set_up(self, tmp_path, capsys, monkeypatch):
        # the reference's step plan used to be checked by its own solve,
        # after --out, the plan and the initial field had been made
        def refuse(*args):
            raise AssertionError("set up a solve")

        monkeypatch.setattr(cli, "_setup", refuse)
        out = tmp_path / "o"
        rc = main(["converge", "--grid", "8", "--t-end", "0.4", "--taus", "0.1,0.05,0.025",
                   "--ref", "self_finer:100000000", "--out", str(out)])
        assert rc == 2
        assert "plans more than" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_step_size_is_refused_before_any_step(self, tmp_path, capsys, monkeypatch):
        # a repeated tau used to be solved twice, with a rate of 0.000
        # between the two identical runs
        taus = []
        real_step = cli.step

        def spy(ctx, u, **kwargs):
            taus.append(ctx.tau)
            return real_step(ctx, u, **kwargs)

        monkeypatch.setattr(cli, "step", spy)
        out = tmp_path / "o"
        rc = main(["converge", "--grid", "8", "--t-end", "0.4",
                   "--taus", "0.1,0.1,0.05", "--ref", "self_finer:1", "--out", str(out)])
        assert rc == 2
        assert "repeats a step size" in capsys.readouterr().err
        assert taus == []
        assert not out.exists()


class TestMbpTest:
    def test_logarithmic_potential_sweep(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["mbp-test", "--potential", "fh", "--grid", "32",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        for variant in ("standard", "rescaled"):
            for order in (3, 5, 7):
                path = out / f"mbp_{variant}_r{order}.csv"
                assert path.exists()
                rows = read_rows(path)
                if variant == "rescaled":
                    assert len(rows) == 101
                    assert all(r["mbp_ok"] == "1" for r in rows)
        assert "peak_max_norm" in text


class TestEnergyTest:
    def test_sweep_files_and_violation_report(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["energy-test", "--potential", "fh", "--grid", "16",
                   "--t-end", "0.4", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "total dissipation violations = 0" in text
        for order in (3, 4, 5, 6):
            for tau in ("0.2", "0.1", "0.01"):
                path = out / f"energy_r{order}_tau{tau}.csv"
                assert path.exists()
                rows = read_rows(path)
                assert all(r["dissipation_ok"] == "1" for r in rows)


class TestTables:
    def test_outputs_match_library_values(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["tables", "--out", str(out)])
        assert rc == 0
        sig = read_rows(out / "table_sigma_min.csv")
        assert len(sig) == 20
        for row in sig:
            r = int(row["r"])
            want = sigma_min(Vandermonde(make_nodes(r, row["kind"])))
            assert float(row["sigma_min"]) == want
        assert f'{float(next(r for r in sig if r["r"] == "2" and r["kind"] == "uniform")["sigma_min"]):.4g}' == "0.1654"

        tm = read_rows(out / "table_tau_max.csv")
        assert len(tm) == 20
        assert list(tm[0]) == ["r", "kappa", "variant", "tau_max"]
        for row in tm:
            r = int(row["r"])
            want = tau_max(r, 2.0, "uniform", rescaled=(row["variant"] == "rescaled"))
            got = float(row["tau_max"])
            assert got == want or (math.isinf(got) and math.isinf(want))
        std2 = next(r for r in tm if r["r"] == "2" and r["variant"] == "standard")
        assert f'{float(std2["tau_max"]):.4g}' == "0.125"
        r1 = [r for r in tm if r["r"] == "1"]
        assert all(float(row["tau_max"]) == math.inf for row in r1)

    def test_kappa_flag_scales_the_bounds(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["tables", "--kappa", "4.0", "--out", str(out)])
        assert rc == 0
        tm = read_rows(out / "table_tau_max.csv")
        std2 = next(r for r in tm if r["r"] == "2" and r["variant"] == "standard")
        assert float(std2["kappa"]) == 4.0
        assert float(std2["tau_max"]) == pytest.approx(0.0625)
