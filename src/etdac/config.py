"""Run configuration: defaults, JSON files, flag overrides, object builders.

A config is a plain dict with the keys below; a JSON file supplies some of
them and every CLI flag overrides the corresponding key.  Builders turn the
resolved dict into mesh, potential, plan, scheme, and initial field.

Random initial data uses numpy's seedable, platform-independent PCG64
generator, mapped uniformly into (-beta + delta, beta - delta) with
delta = 1e-12, then scaled by the configured amplitude fraction.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .grid import Field, Mesh2D, read_field_csv
from .potentials import FloryHuggins, GinzburgLandau
from .scheme import NODE_KINDS
from .spectral import SpectralPlan
from .stepper import MAX_ORDER

__all__ = ["ConfigError", "default_config", "load_config", "resolve_config", "validate_config",
           "build_potential", "build_mesh", "build_plan", "initial_field"]

RANDOM_MARGIN = 1e-12
# flags that set the config key of their own name
PLAIN_FLAGS = ("order", "rescaled", "tau", "t_end", "eps", "kappa", "nodes", "out")


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


def default_config() -> dict:
    return {
        "lx": 2.0 * math.pi,
        "ly": 2.0 * math.pi,
        "nx": 128,
        "ny": 128,
        "eps": 0.1,
        "potential": {"kind": "gl"},
        "kappa": None,
        "order": 2,
        "nodes": "uniform",
        "rescaled": True,
        "tau": 0.1,
        "t_end": 2.0,
        "init": {"kind": "sinprod", "amplitude": 0.5},
        "out": "out",
    }


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def resolve_config(args) -> dict:
    """defaults <- config file <- individual flags <- --paper-scale."""
    cfg = default_config()
    if getattr(args, "config", None):
        file_cfg = load_config(args.config)
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            cfg[key] = dict(val) if key in ("potential", "init") and isinstance(val, dict) else val

    for key in PLAIN_FLAGS:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if getattr(args, "grid", None) is not None:
        cfg["nx"] = cfg["ny"] = args.grid
    if getattr(args, "potential", None) is not None:
        cfg["potential"] = {"kind": args.potential}
    for key in ("theta", "theta_c"):
        if getattr(args, key, None) is not None:
            cfg["potential"][key] = getattr(args, key)
    if getattr(args, "seed", None) is not None:
        init = dict(cfg["init"])
        if init.get("kind") != "random":
            init = {"kind": "random", "amplitude": 1.0}
        init["seed"] = args.seed
        cfg["init"] = init
    if getattr(args, "paper_scale", False):
        cfg["nx"] = cfg["ny"] = 512

    validate_config(cfg)
    return cfg


def _real(x) -> bool:
    """A finite int or float; JSON booleans and strings are not numbers here."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, int) or math.isfinite(x)


def _integer(x) -> bool:
    return _real(x) and x == int(x)


def validate_config(cfg: dict) -> None:
    if not (_integer(cfg["nx"]) and _integer(cfg["ny"]) and cfg["nx"] >= 2 and cfg["ny"] >= 2):
        raise ConfigError("grid sizes must be integers >= 2")
    if not (_real(cfg["lx"]) and _real(cfg["ly"]) and cfg["lx"] > 0 and cfg["ly"] > 0):
        raise ConfigError("domain edge lengths must be finite and positive")
    if not (_real(cfg["eps"]) and cfg["eps"] > 0):
        raise ConfigError("eps must be finite and positive")
    if not (_integer(cfg["order"]) and 1 <= cfg["order"] <= MAX_ORDER):
        raise ConfigError(f"order must be an integer in [1, {MAX_ORDER}]")
    if cfg["nodes"] not in NODE_KINDS:
        raise ConfigError(f"nodes must be one of {NODE_KINDS}")
    if not isinstance(cfg["rescaled"], bool):
        raise ConfigError("rescaled must be true or false")
    if not (_real(cfg["tau"]) and cfg["tau"] > 0):
        raise ConfigError("tau must be finite and positive")
    if not (_real(cfg["t_end"]) and cfg["t_end"] >= 0):
        raise ConfigError("t_end must be finite and nonnegative")
    if cfg["kappa"] is not None and not (_real(cfg["kappa"]) and cfg["kappa"] > 0):
        raise ConfigError("kappa must be null or a finite positive number")
    pot = cfg["potential"]
    if not isinstance(pot, dict) or pot.get("kind") not in ("gl", "fh"):
        raise ConfigError('potential must be {"kind": "gl"} or {"kind": "fh", ...}')
    if not all(_real(pot[key]) for key in ("theta", "theta_c") if key in pot):
        raise ConfigError("potential theta and theta_c must be finite numbers")
    init = cfg["init"]
    if not isinstance(init, dict) or init.get("kind") not in ("sinprod", "random", "csv"):
        raise ConfigError('init kind must be "sinprod", "random", or "csv"')
    if "amplitude" in init and not _real(init["amplitude"]):
        raise ConfigError("init amplitude must be a finite number")
    if init["kind"] == "random" and not (_integer(init.get("seed")) and init["seed"] >= 0):
        raise ConfigError("random init requires a seed, an integer >= 0")
    if init["kind"] == "csv" and "path" not in init:
        raise ConfigError("csv init requires a path")


def build_potential(cfg: dict):
    pot = cfg["potential"]
    if pot["kind"] == "gl":
        return GinzburgLandau()
    try:
        return FloryHuggins(pot.get("theta", 0.8), pot.get("theta_c", 1.6))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_mesh(cfg: dict) -> Mesh2D:
    return Mesh2D(cfg["lx"], cfg["ly"], int(cfg["nx"]), int(cfg["ny"]))


def effective_kappa(cfg: dict, potential) -> float:
    """The configured stabilizer; overriding below the minimum is rejected."""
    if cfg["kappa"] is None:
        return potential.kappa_min
    kappa = float(cfg["kappa"])
    if kappa < potential.kappa_min - 1e-12:
        raise ConfigError(
            f"kappa={kappa} is below the potential's minimum stabilizer {potential.kappa_min:.6g}"
        )
    return kappa


def build_plan(cfg: dict, mesh: Mesh2D, potential) -> SpectralPlan:
    kappa = effective_kappa(cfg, potential)
    try:
        return SpectralPlan(mesh, cfg["eps"], kappa)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def initial_field(cfg: dict, mesh: Mesh2D, potential) -> Field:
    init = cfg["init"]
    if init["kind"] == "sinprod":
        amp = float(init.get("amplitude", 0.5))
        x, y = mesh.cell_centers()
        return Field(mesh, (amp * np.sin(x) * np.sin(y)).reshape(mesh.ncells))
    if init["kind"] == "random":
        amp = float(init.get("amplitude", 1.0))
        hi = amp * (potential.beta - RANDOM_MARGIN)
        rng = np.random.default_rng(int(init["seed"]))
        return Field(mesh, rng.uniform(-hi, hi, mesh.ncells))
    try:
        return read_field_csv(mesh, init["path"])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot use {init['path']} as initial data: {exc}") from exc
