"""Property tests on small meshes (8^2 to 16^2): CSV and config round trips,
the maximum bound in rescaled mode, and energy dissipation below tau_max."""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etdac import cli
from etdac.config import initial_field, resolve_config
from etdac.diagnostics import MBP_TOL, record
from etdac.grid import Field, Mesh2D, max_norm, read_field_csv, write_field_csv
from etdac.potentials import FloryHuggins, GinzburgLandau
from etdac.scheme import make_scheme, tau_max
from etdac.spectral import SpectralPlan
from etdac.stepper import StepContext, step

sides = st.integers(8, 16)
lengths = st.floats(1e-3, 1e3)
finite = st.floats(allow_nan=False, allow_infinity=False)
potentials = st.sampled_from([GinzburgLandau(), FloryHuggins(0.8, 1.6)])


def field_csv_by_loops(u):
    """The snapshot text, one %.17g-formatted cell at a time."""
    xg, yg = u.mesh.cell_centers()
    g = u.grid()
    rows = [f"{i},{j},{xg[j, i]:.17g},{yg[j, i]:.17g},{g[j, i]:.17g}\n"
            for j in range(u.mesh.ny) for i in range(u.mesh.nx)]
    return "i,j,x,y,u\n" + "".join(rows)


@settings(deadline=None, max_examples=30)
@given(data=st.data(), nx=sides, ny=sides, lx=lengths, ly=lengths)
def test_field_csv_round_trips_exactly(data, nx, ny, lx, ly):
    mesh = Mesh2D(lx, ly, nx, ny)
    u = Field(mesh, data.draw(arrays(np.float64, mesh.ncells, elements=finite)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.csv")
        write_field_csv(u, path)
        with open(path) as fh:
            assert fh.read() == field_csv_by_loops(u)
        back = read_field_csv(mesh, path)
    assert np.array_equal(back.values, u.values)


positive = st.floats(1e-6, 1e3)
flags = st.fixed_dictionaries({}, optional={
    "--order": st.integers(1, 10),
    "--rescaled": st.sampled_from(["true", "false"]),
    "--tau": positive,
    "--t-end": st.floats(0.0, 1e3),
    "--grid": st.integers(2, 64),
    "--eps": positive,
    "--potential": st.sampled_from(["gl", "fh"]),
    "--theta": positive,
    "--theta-c": positive,
    "--kappa": positive,
    "--nodes": st.sampled_from(["uniform", "chebyshev"]),
    "--seed": st.integers(0, 2**32 - 1),
    "--out": st.sampled_from(["out", "o/x"]),
})


@settings(deadline=None, max_examples=50)
@given(flags=flags)
def test_resolved_config_round_trips_through_a_config_file(flags):
    parser = cli._build_parser()
    argv = ["run"] + [str(a) for kv in flags.items() for a in kv]
    cfg = resolve_config(parser.parse_args(argv))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(cfg, indent=2, sort_keys=True))
        again = resolve_config(parser.parse_args(["run", "--config", path]))
    assert again == cfg


def random_state(n, potential, seed):
    mesh = Mesh2D(2 * np.pi, 2 * np.pi, n, n)
    cfg = {"init": {"kind": "random", "seed": seed, "amplitude": 1.0}}
    return SpectralPlan(mesh, 0.1, potential.kappa_min), initial_field(cfg, mesh, potential)


@settings(deadline=None, max_examples=25)
@given(n=sides, potential=potentials, order=st.integers(1, 7), tau=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_rescaled_steps_keep_the_maximum_bound(n, potential, order, tau, seed):
    plan, u = random_state(n, potential, seed)
    ctx = StepContext(plan, potential, make_scheme(order), tau, rescaled=True)
    for i in range(1, 4):
        u, _ = step(ctx, u, n=i)
        assert max_norm(u) <= potential.beta + MBP_TOL
        assert record(ctx, i, u).mbp_ok


@settings(deadline=None, max_examples=25)
@given(n=sides, potential=potentials, order=st.integers(2, 5), frac=st.floats(1e-3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_energy_dissipates_below_tau_max(n, potential, order, frac, seed):
    plan, u = random_state(n, potential, seed)
    tau = frac * tau_max(order, plan.kappa, rescaled=True)
    ctx = StepContext(plan, potential, make_scheme(order), tau, rescaled=True)
    prev = record(ctx, 0, u).energy
    for i in range(1, 4):
        u, _ = step(ctx, u, n=i)
        diag = record(ctx, i, u, prev)
        assert diag.dissipation_ok
        prev = diag.energy
