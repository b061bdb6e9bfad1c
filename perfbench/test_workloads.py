"""The output checks pass on few-step, small-grid versions of each workload
and fail on corrupted copies of those outputs; the pace scaling of the
timings counts each stretch at the mean of the samples that bound it.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import dataclasses
import shutil
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from etdac.cli import main  # noqa: E402

SMALL = {
    "paper-512": dataclasses.replace(WORKLOADS["paper-512"], grid=32, t_end=0.3),
    "mbp-fh": dataclasses.replace(WORKLOADS["mbp-fh"], grid=16, t_end=5.0),
    "converge-128": dataclasses.replace(WORKLOADS["converge-128"], grid=16, t_end=0.4),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    dirs = {}
    for name, w in SMALL.items():
        out = tmp_path_factory.mktemp(name)
        assert main(w.argv(7, out)) == 0
        dirs[name] = out
    return dirs


def corrupt(src: Path, dst: Path, file: str, column: str, values: dict) -> Path:
    """Copy an output directory and overwrite cells {row: value} of one
    column of one of its CSV files."""
    shutil.copytree(src, dst)
    path = dst / file
    lines = path.read_text().splitlines()
    k = lines[0].split(",").index(column)
    for row, value in values.items():
        cells = lines[row + 1].split(",")
        cells[k] = repr(float(value))
        lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return dst


def diag_value(out: Path, row: int, column: str) -> float:
    lines = (out / "diagnostics.csv").read_text().splitlines()
    return float(lines[row + 1].split(",")[lines[0].split(",").index(column)])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_passes(outputs, name):
    assert SMALL[name].check(outputs[name]) == []


@pytest.mark.parametrize("name", ["paper-512", "mbp-fh"])
@pytest.mark.parametrize("file,column", [("field_final.csv", "u"), ("diagnostics.csv", "max_norm")])
def test_value_above_beta_fails(outputs, tmp_path, name, file, column):
    w = SMALL[name]
    out = corrupt(outputs[name], tmp_path / "c", file, column, {3: w.beta + 1e-9})
    assert any(f.startswith("maximum bound") for f in w.check(out))


@pytest.mark.parametrize("name", ["paper-512", "mbp-fh"])
def test_rising_energy_fails(outputs, tmp_path, name):
    e1 = diag_value(outputs[name], 1, "energy")
    out = corrupt(outputs[name], tmp_path / "c", "diagnostics.csv", "energy", {2: e1 + 1e-9 * (1.0 + abs(e1))})
    assert any(f.startswith("energy: rises") for f in SMALL[name].check(out))


@pytest.mark.parametrize("name", ["paper-512", "mbp-fh"])
def test_energy_not_matching_the_field_fails(outputs, tmp_path, name):
    last = SMALL[name].steps
    e = diag_value(outputs[name], last, "energy")
    out = corrupt(outputs[name], tmp_path / "c", "diagnostics.csv", "energy", {last: e - 1e-9 * abs(e)})
    assert any(f.startswith("energy: last diagnostics row") for f in SMALL[name].check(out))


def test_broken_symmetry_fails(outputs, tmp_path):
    src = outputs["paper-512"]
    u = float((src / "field_final.csv").read_text().splitlines()[1].split(",")[4])
    out = corrupt(src, tmp_path / "c", "field_final.csv", "u", {0: u + 1e-9})
    assert any(f.startswith("symmetry") for f in SMALL["paper-512"].check(out))


def test_rescaling_never_active_fails(outputs, tmp_path):
    w = SMALL["mbp-fh"]
    out = corrupt(outputs["mbp-fh"], tmp_path / "c", "diagnostics.csv", "alpha_min",
                  {row: 1.0 for row in range(w.steps + 1)})
    assert any(f.startswith("rescaling") for f in w.check(out))


def test_missing_step_fails(outputs):
    w = dataclasses.replace(SMALL["mbp-fh"], t_end=SMALL["mbp-fh"].t_end + 1.0)
    assert any(f.startswith("steps") for f in w.check(outputs["mbp-fh"]))


@pytest.mark.parametrize("norm", ["linf", "l2"])
def test_low_convergence_rate_fails(outputs, tmp_path, norm):
    out = corrupt(outputs["converge-128"], tmp_path / "c", "convergence.csv", f"{norm}_rate", {2: 2.5})
    assert any(f.startswith(f"convergence: {norm} rates") for f in SMALL["converge-128"].check(out))


def test_rising_convergence_error_fails(outputs, tmp_path):
    out = corrupt(outputs["converge-128"], tmp_path / "c", "convergence.csv", "l2_err", {3: 1.0})
    assert any(f.startswith("convergence: l2 errors") for f in SMALL["converge-128"].check(out))


def test_pace_counts_each_stretch_at_the_mean_of_its_two_samples():
    from child import Pace

    pace = Pace(8)
    pace.samples = [(0.0, 1.0), (2.0, 3.0), (3.0, 1.0)]
    assert pace.pairs(0.0, 2.0) == pytest.approx(1.0)
    assert pace.pairs(1.0, 2.5) == pytest.approx(0.75)
    assert pace.pairs(0.0, 3.0) == pytest.approx(1.5)
    assert pace.pairs(3.0, 4.0) == 0.0
