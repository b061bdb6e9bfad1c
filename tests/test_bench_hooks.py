"""The names perfbench/child.py replaces to trace a run layer by layer.

The traced benchmark wraps these module attributes from outside.  A
renamed or inlined one drops its layer from the trace without an error,
so each must exist and be callable, and each the program calls must be
called through the name the benchmark replaces.  Every CSV file the CLI
writes goes through cli.write_csv, with its path as the second argument.
"""

import functools
import os
from types import SimpleNamespace

import pytest
import scipy.fft

import etdac.cli as cli
import etdac.diagnostics as diagnostics
import etdac.scheme as scheme
import etdac.stepper as stepper

# the benchmark assigns it, but the program reaches it only as cli.record
ASSIGNED_ONLY = [(diagnostics, "record")]

CALLED = [
    (stepper, "scipy.fft.dctn"),
    (stepper, "scipy.fft.idctn"),
    (stepper, "phi_batch"),
    (stepper, "rescale_factor"),
    (stepper, "_poly_abs_max_many"),
    (stepper, "StepContext.nonlinearity"),
    (scheme, "Vandermonde.solve"),
    (cli, "record"),
    (cli, "step"),
    (cli, "resolve_config"),
    (cli, "build_mesh"),
    (cli, "build_potential"),
    (cli, "build_plan"),
    (cli, "initial_field"),
    (cli, "make_scheme"),
    (cli, "write_csv"),
    (cli, "write_field_csv"),
]

HOOKS = ASSIGNED_ONLY + CALLED

# a rescaled Flory-Huggins run whose polynomials need the exact maximum
RUN = ["run", "--potential", "fh", "--grid", "16", "--order", "7", "--tau", "10",
       "--t-end", "30", "--rescaled", "true", "--seed", "2"]


def owner_and_name(module, path):
    *parents, name = path.split(".")
    return functools.reduce(getattr, parents, module), name


@pytest.mark.parametrize("module, path", HOOKS, ids=[f"{m.__name__}.{p}" for m, p in HOOKS])
def test_hook_exists_and_is_callable(module, path):
    owner, name = owner_and_name(module, path)
    assert callable(getattr(owner, name))


def test_every_hook_is_called_through_its_name(tmp_path, monkeypatch):
    calls = {f"{module.__name__}.{path}": 0 for module, path in CALLED}
    step_kwargs = []
    # as the benchmark does, swap the stepper's scipy for a namespace of its own
    fft = SimpleNamespace(dctn=scipy.fft.dctn, idctn=scipy.fft.idctn)
    monkeypatch.setattr(stepper, "scipy", SimpleNamespace(fft=fft))
    for module, path in CALLED:
        owner, name = owner_and_name(module, path)
        real = getattr(owner, name)

        def spy(*args, _key=f"{module.__name__}.{path}", _real=real, **kwargs):
            calls[_key] += 1
            if _key == "etdac.cli.step":
                step_kwargs.append(kwargs)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    assert cli.main(RUN + ["--out", str(tmp_path / "o")]) == 0
    assert [key for key, n in calls.items() if n == 0] == []
    # the benchmark's step wrapper reads the step index as kwargs["n"]
    assert step_kwargs and all("n" in kw for kw in step_kwargs)


@pytest.mark.parametrize("argv, names", [
    (["converge", "--grid", "8", "--order", "2", "--t-end", "0.2", "--taus", "0.1,0.05,0.025"],
     ["convergence.csv"]),
    (["tables"], ["table_sigma_min.csv", "table_tau_max.csv"]),
], ids=["converge", "tables"])
def test_tables_are_written_through_write_csv(tmp_path, monkeypatch, argv, names):
    # the traced benchmark counts the bytes of the file named by args[1]
    paths = []
    real = cli.write_csv

    def spy(*args, **kwargs):
        paths.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "write_csv", spy)
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert paths == [os.path.join(str(out), name) for name in names]
