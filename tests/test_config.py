import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from etdac.config import (
    ConfigError,
    build_mesh,
    build_plan,
    build_potential,
    default_config,
    effective_kappa,
    initial_field,
    load_config,
    resolve_config,
    validate_config,
)
from etdac import cli
from etdac.grid import Field, Mesh2D, write_field_csv
from etdac.scheme import make_scheme
from etdac.stepper import step


def args(**kw):
    base = dict(config=None, order=None, rescaled=None, tau=None, t_end=None,
                grid=None, eps=None, potential=None, theta=None, theta_c=None,
                kappa=None, nodes=None, seed=None, out=None, paper_scale=False)
    base.update(kw)
    return SimpleNamespace(**base)


class TestDefaults:
    def test_default_values(self):
        cfg = default_config()
        assert cfg["lx"] == cfg["ly"] == pytest.approx(2 * math.pi)
        assert cfg["nx"] == cfg["ny"] == 128
        assert cfg["eps"] == 0.1
        assert cfg["potential"] == {"kind": "gl"}
        assert cfg["kappa"] is None
        assert cfg["order"] == 2
        assert cfg["nodes"] == "uniform"
        assert cfg["rescaled"] is True
        assert cfg["tau"] == 0.1
        assert cfg["t_end"] == 2.0
        assert cfg["init"] == {"kind": "sinprod", "amplitude": 0.5}
        assert cfg["out"] == "out"

    def test_defaults_validate(self):
        validate_config(default_config())


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(p)

    def test_valid_file(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({"order": 4, "tau": 0.05}))
        assert load_config(p) == {"order": 4, "tau": 0.05}


class TestResolveConfig:
    def test_no_inputs_returns_defaults(self):
        assert resolve_config(args()) == default_config()

    def test_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"order": 5, "nx": 32, "potential": {"kind": "fh"}}))
        cfg = resolve_config(args(config=str(p)))
        assert cfg["order"] == 5
        assert cfg["nx"] == 32
        assert cfg["ny"] == 128
        assert cfg["potential"]["kind"] == "fh"

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"order": 5, "tau": 0.5}))
        cfg = resolve_config(args(config=str(p), order=3, grid=64))
        assert cfg["order"] == 3
        assert cfg["tau"] == 0.5
        assert cfg["nx"] == cfg["ny"] == 64

    def test_unknown_file_keys_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"stepsize": 0.1}))
        with pytest.raises(ConfigError, match="stepsize"):
            resolve_config(args(config=str(p)))

    def test_seed_switches_to_random_init(self):
        cfg = resolve_config(args(seed=7))
        assert cfg["init"] == {"kind": "random", "amplitude": 1.0, "seed": 7}

    def test_seed_keeps_existing_random_amplitude(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"init": {"kind": "random", "amplitude": 0.3, "seed": 1}}))
        cfg = resolve_config(args(config=str(p), seed=9))
        assert cfg["init"]["amplitude"] == 0.3
        assert cfg["init"]["seed"] == 9

    def test_paper_scale_wins_over_grid_flag(self):
        cfg = resolve_config(args(grid=64, paper_scale=True))
        assert cfg["nx"] == cfg["ny"] == 512

    def test_theta_flags_merge_into_potential(self):
        cfg = resolve_config(args(potential="fh", theta=0.5, theta_c=2.0))
        assert cfg["potential"] == {"kind": "fh", "theta": 0.5, "theta_c": 2.0}

    def test_rescaled_flag(self):
        assert resolve_config(args(rescaled=False))["rescaled"] is False


class TestValidateConfig:
    @pytest.mark.parametrize("patch,msg", [
        ({"nx": 1}, "grid sizes"),
        ({"ny": 2.5}, "grid sizes"),
        ({"lx": 0.0}, "edge lengths"),
        ({"eps": 0.0}, "eps"),
        ({"order": 0}, "order"),
        ({"order": 2.5}, "order"),
        ({"nodes": "legendre"}, "nodes"),
        ({"tau": 0.0}, "tau"),
        ({"t_end": -1.0}, "t_end"),
        ({"potential": {"kind": "quartic"}}, "potential"),
        ({"potential": "gl"}, "potential"),
        ({"init": {"kind": "zeros"}}, "init kind"),
        ({"init": {"kind": "random"}}, "seed"),
        ({"init": {"kind": "csv"}}, "path"),
        ({"nx": "abc"}, "grid sizes"),
        ({"ny": True}, "grid sizes"),
        ({"lx": math.inf}, "edge lengths"),
        ({"eps": math.nan}, "eps"),
        ({"order": 11}, "order"),
        ({"order": "3"}, "order"),
        ({"tau": math.nan}, "tau"),
        ({"tau": math.inf}, "tau"),
        ({"t_end": math.nan}, "t_end"),
        ({"t_end": math.inf}, "t_end"),
        ({"kappa": math.nan}, "kappa"),
        ({"kappa": "2"}, "kappa"),
        ({"kappa": -1.0}, "kappa"),
        ({"rescaled": "false"}, "rescaled"),
        ({"potential": {"kind": "fh", "theta": math.nan}}, "theta"),
        ({"potential": {"kind": "fh", "theta_c": "1.6"}}, "theta"),
        ({"init": {"kind": "sinprod", "amplitude": "big"}}, "amplitude"),
        ({"init": {"kind": "random", "seed": "abc"}}, "seed"),
        ({"init": {"kind": "random", "seed": -1}}, "seed"),
        ({"init": {"kind": "random", "seed": 1.5}}, "seed"),
    ])
    def test_rejections(self, patch, msg):
        cfg = default_config()
        cfg.update(patch)
        with pytest.raises(ConfigError, match=msg):
            validate_config(cfg)


class TestBuilders:
    def test_build_potential_kinds(self):
        cfg = default_config()
        assert build_potential(cfg).kind == "gl"
        cfg["potential"] = {"kind": "fh"}
        fh = build_potential(cfg)
        assert fh.kind == "fh"
        assert fh.theta == 0.8
        assert fh.theta_c == 1.6
        cfg["potential"] = {"kind": "fh", "theta": 0.5, "theta_c": 2.0}
        assert build_potential(cfg).theta == 0.5

    def test_build_potential_invalid_parameters(self):
        cfg = default_config()
        cfg["potential"] = {"kind": "fh", "theta": 2.0, "theta_c": 1.0}
        with pytest.raises(ConfigError):
            build_potential(cfg)

    def test_build_mesh(self):
        cfg = default_config()
        cfg.update(nx=16, ny=8, lx=1.0, ly=2.0)
        mesh = build_mesh(cfg)
        assert (mesh.nx, mesh.ny) == (16, 8)
        assert mesh.hx == pytest.approx(1.0 / 16)

    def test_effective_kappa_default_and_override(self):
        cfg = default_config()
        pot = build_potential(cfg)
        assert effective_kappa(cfg, pot) == pot.kappa_min
        cfg["kappa"] = 3.5
        assert effective_kappa(cfg, pot) == 3.5
        cfg["kappa"] = 1.0
        with pytest.raises(ConfigError, match="below"):
            effective_kappa(cfg, pot)

    def test_build_plan_and_context(self, monkeypatch):
        cfg = default_config()
        cfg.update(nx=16, ny=16, order=3, tau=0.05, rescaled=False)
        pot = build_potential(cfg)
        mesh = build_mesh(cfg)
        plan = build_plan(cfg, mesh, pot)
        assert plan.kappa == pot.kappa_min
        # the step context comes from the CLI's set-up and _integrate
        contexts = []

        def spy(ctx, u, **kw):
            contexts.append(ctx)
            return step(ctx, u, **kw)

        monkeypatch.setattr(cli, "step", spy)
        potential, plan2, u0 = cli._setup(cfg)
        assert plan2.kappa == plan.kappa and np.array_equal(plan2.eigvals, plan.eigvals)
        assert np.array_equal(u0.values, initial_field(cfg, mesh, pot).values)
        for order, tau, rescaled in ((3, 0.05, False), (5, 0.01, True)):
            spec = make_scheme(order, cfg["nodes"])
            cli._integrate(plan2, potential, spec, rescaled, tau, tau, u0)
            ctx = contexts[-1]
            assert ctx.spec.order == order
            assert ctx.tau == tau
            assert ctx.rescaled is rescaled


class TestInitialField:
    def setup_method(self):
        self.cfg = default_config()
        self.cfg.update(nx=16, ny=16)
        self.pot = build_potential(self.cfg)
        self.mesh = build_mesh(self.cfg)

    def test_sinprod_formula(self):
        u = initial_field(self.cfg, self.mesh, self.pot)
        x, y = self.mesh.cell_centers()
        want = 0.5 * np.sin(x) * np.sin(y)
        assert np.array_equal(u.grid(), want)

    def test_random_bounds_and_determinism(self):
        self.cfg["init"] = {"kind": "random", "amplitude": 1.0, "seed": 42}
        u = initial_field(self.cfg, self.mesh, self.pot)
        v = initial_field(self.cfg, self.mesh, self.pot)
        assert np.array_equal(u.values, v.values)
        assert np.max(np.abs(u.values)) < self.pot.beta
        self.cfg["init"]["seed"] = 43
        w = initial_field(self.cfg, self.mesh, self.pot)
        assert not np.array_equal(u.values, w.values)

    def test_random_amplitude_fraction(self):
        self.cfg["init"] = {"kind": "random", "amplitude": 0.25, "seed": 7}
        u = initial_field(self.cfg, self.mesh, self.pot)
        assert np.max(np.abs(u.values)) <= 0.25 * (self.pot.beta - 1e-12)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "u0.csv"
        write_field_csv(Field(self.mesh, np.full(self.mesh.ncells, 0.125)), path)
        self.cfg["init"] = {"kind": "csv", "path": str(path)}
        u = initial_field(self.cfg, self.mesh, self.pot)
        assert np.all(u.values == 0.125)
