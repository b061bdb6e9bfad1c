"""tools/bench.py, the writer of BENCH_<label>.json, on inputs small enough for the unit tests."""

import importlib.util
import statistics
from pathlib import Path

import pytest

import etdac

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    # the tool pins BLAS to one thread on import; monkeypatch restores the environment
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("potential, rescaled", [("gl", False), ("fh", True)])
def test_a_grid_cell_times_steps_beside_dct_pairs(bench, potential, rescaled):
    cell = bench.time_cell(etdac, potential, 3, rescaled, 16)
    assert "error" not in cell
    assert (cell["potential"], cell["order"], cell["n"]) == (potential, 3, 16)
    assert cell["mode"] == ("rescaled" if rescaled else "standard")
    # order 3 caches 5 grids of 16^2 cells
    assert cell["phi_cache_bytes"] == 5 * 8 * 256
    assert len(cell["steps_ms"]) == len(cell["pairs_ms"]) == bench.STEPS and cell["step_ms"] > 0 and cell["dct_pair_ms"] > 0
    # each step is read against the DCT pairs timed right after it
    ratios = [m / p for m, p in zip(cell["steps_ms"], cell["pairs_ms"])]
    assert cell["step_pairs"] == pytest.approx(statistics.median(ratios))
    assert cell["minflt_per_step"] >= 0 and 0 < cell["alpha_min"] <= 1


def test_a_failed_step_is_recorded_not_raised(bench, monkeypatch):
    def fail(ctx, u, n):
        raise etdac.NumericalBlowup(1, 1, n)

    monkeypatch.setattr(etdac, "step", fail)
    cell = bench.time_cell(etdac, "gl", 2, False, 16)
    assert cell["error"].startswith("step 1: non-finite stage value")
    assert "step_ms" not in cell


def test_perfbench_keeps_every_round_line_and_the_final_json(bench, tmp_path):
    # a stand-in run.py that prints as the benchmark's does
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "w = sys.argv[sys.argv.index('--workload') + 1]\n"
        "print(f'{w} round 1: run_s=1.0 ok')\n"
        "print(f'{w} round 2 traced: run_s=1.2 ok')\n"
        "print('run_s = 1.0 s')\n"
        "print(json.dumps({'correct': True, 'attempted': 2, 'failed': 0, 'argv': sys.argv[1:]}))\n"
    )
    got = bench.perfbench(tmp_path, "mbp-fh", 1)
    assert got["exit"] == 0 and got["stderr"] is None
    assert got["rounds"] == ["mbp-fh round 1: run_s=1.0 ok", "mbp-fh round 2 traced: run_s=1.2 ok"]
    assert got["result"]["correct"] and got["result"]["attempted"] == 2
    assert got["result"]["argv"] == ["--workload", "mbp-fh", "--seed", "1", "--trace", "1"]
    assert got["argv"][0] == "perfbench/run.py"


def test_a_label_that_is_not_a_file_name_is_refused(bench):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", "a/b"])
    assert exc.value.code == 2


def test_checkout_must_hold_perfbench_and_sources(bench, tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", "x", "--checkout", str(tmp_path)])
    assert exc.value.code == 2


def test_gate_times_are_read_from_the_printed_criterion_lines(bench):
    # as a full test run prints them; the failure's traceback repeats the
    # print statement's source and its assertion, neither read as a line
    text = (
        "[PASS] criterion 1: node-family minimum singular values (0.15s / budget 1s)\n"
        ".\n"
        "[FAIL] criterion 3: rates within 0.25 (r=5: 1.74/2.07) (79.38s / budget 600s)\n"
        "F\n"
        "[PASS] criterion 10: 10^4 maxima (range [-1.1e-16, 1.3e-11]) (5.42s / budget 30s)\n"
        '        print(f"\\n[{status}] criterion {num}: {desc} ({elapsed:.2f}s / budget {budget:g}s)")\n'
        "E       AssertionError: criterion 3: rates within 0.25 (r=5: 1.74/2.07)\n"
    )
    assert bench.gate_times(text) == {
        1: {"status": "PASS", "seconds": 0.15, "budget": 1.0},
        3: {"status": "FAIL", "seconds": 79.38, "budget": 600.0},
        10: {"status": "PASS", "seconds": 5.42, "budget": 30.0},
    }
    assert bench.gate_times("no gate ran\n") == {}
