"""Write BENCH_<label>.json at the root of the repo: the benchmark's three
workloads end to end and by layer, and milliseconds per step over a grid of
schemes.

Usage (from the root of a checkout):

    python3 tools/bench.py --label baseline [--checkout DIR]

The file records:

* ``perfbench``: for each workload, ``perfbench/run.py --workload W --seed 1``
  of the checkout, run unchanged as a subprocess, at its default
  ``--seconds``, with ``--trace 0`` and with ``--trace 1``.  Each run keeps
  its command, every round's printed line and its final JSON object
  (correct, attempted, failed and metrics).  Since
  seeded round k solves seed 64*seed + k, two files compare round by round
  over the rounds both ran.
* ``grid``: milliseconds per step of the checkout's ``etdac.stepper.step``,
  timed in this process, for {gl, fh} x r in {2, 3, 5, 7} x {standard,
  rescaled} x N in {128, 512}.  A cell builds its step context, takes one
  warm-up step (which fills the phi cache and the workspace), then times
  STEPS steps, each from the previous one's result.  After each step it
  times forward and inverse DCT pairs of an N x N array for about 2 ms, so
  that two files taken at a different machine pace compare in
  ``step_pairs``, the median over the steps of a step's milliseconds over
  the mean pair's that follow it.  It also records the minor page faults
  of the timed steps (``ru_minflt``, the pairs excluded) and the phi cache
  as the context holds it, len(phi_keys) * 8 * ncells bytes.
* ``gate``: the acceptance gate's status, seconds and budget per
  criterion, read from the ``[PASS]``/``[FAIL] criterion N: ... (X s /
  budget Y s)`` lines of the checkout's ``test_output.txt``, the output of
  its last full test run (the gate takes minutes, so it is not run here);
  null where the checkout has no such file.
* the checkout's git commit, whether its ``src`` differs from that commit,
  the Python, numpy and scipy versions, and numpy's SIMD baseline: a build
  whose baseline fuses multiply-add (NEON, or x86 at FMA3) rounds the
  stepper's one-pass stage sums otherwise than one that does not, so two
  files compare like for like only on the same baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)  # before numpy loads its BLAS, as run.py does for its rounds

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-512", "mbp-fh", "converge-128")
POTENTIALS = {"gl": 0.1, "fh": 1.0}  # each potential's tau: paper-512's and mbp-fh's
ORDERS = (2, 3, 5, 7)
SIZES = (128, 512)
EPS = 0.1
STEPS = 9  # timed steps per grid cell
# milliseconds of DCT pairs timed after each step, as perfbench/child.py samples its pace
SAMPLE_MS = 2.0
# the line tests/test_acceptance.py prints for each criterion
GATE_LINE = re.compile(r"^\[(PASS|FAIL)\] criterion (\d+): .* \(([\d.]+)s / budget ([\d.e+-]+)s\)$", re.M)


def git(checkout: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def perfbench(checkout: Path, workload: str, trace: int) -> dict:
    """One unchanged perfbench/run.py invocation: its command, round lines and final JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {
        "argv": cmd[1:],
        "exit": proc.returncode,
        "wall_s": time.monotonic() - start,
        "rounds": [line for line in lines if re.match(rf"{re.escape(workload)} round \d+", line)],
        "result": result,
        "stderr": proc.stderr.strip()[-2000:] or None,
    }


def gate_times(text: str) -> dict:
    """{criterion: {status, seconds, budget}} from a test run's printed gate lines."""
    return {int(n): {"status": status, "seconds": float(sec), "budget": float(budget)}
            for status, n, sec, budget in GATE_LINE.findall(text)}


def numpy_simd() -> dict | None:
    """numpy's SIMD baseline and the extensions it found on this machine."""
    try:
        return np.show_config(mode="dicts")["SIMD Extensions"]
    except TypeError:  # numpy before 1.25 only prints its configuration
        return None


def dct_pair_ms(grid: np.ndarray, count: int) -> float:
    """Mean milliseconds of one forward and inverse DCT pair of grid, over count pairs."""
    start = time.perf_counter()
    for _ in range(count):
        scipy.fft.idctn(scipy.fft.dctn(grid, type=2, norm="ortho"), type=2, norm="ortho")
    return 1e3 * (time.perf_counter() - start) / count


def time_cell(etdac, potential: str, order: int, rescaled: bool, n: int) -> dict:
    """One cell of the grid: ms per step after a warm-up step, with the DCT pace alongside."""
    tau = POTENTIALS[potential]
    mesh = etdac.Mesh2D(2.0 * math.pi, 2.0 * math.pi, n, n)
    pot = etdac.GinzburgLandau() if potential == "gl" else etdac.FloryHuggins()
    plan = etdac.SpectralPlan(mesh, EPS, pot.kappa_min)
    spec = etdac.make_scheme(order)
    cell = {"potential": potential, "order": order, "mode": "rescaled" if rescaled else "standard",
            "n": n, "tau": tau, "phi_cache_bytes": len(etdac.stepper.phi_keys(spec, tau)) * 8 * mesh.ncells}
    u = etdac.Field(mesh, np.random.default_rng(1).uniform(-0.9 * pot.beta, 0.9 * pot.beta, mesh.ncells))
    grid = np.array(u.grid())
    count = max(1, math.ceil(SAMPLE_MS / min(dct_pair_ms(grid, 1) for _ in range(3))))
    ctx = etdac.StepContext(plan, pot, spec, tau, rescaled=rescaled)
    step_ms, pair_ms, faults, alpha_min = [], [], 0, 1.0
    try:
        u, alpha = etdac.step(ctx, u, n=1)
        for i in range(2, STEPS + 2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            u, alpha = etdac.step(ctx, u, n=i)
            step_ms.append(1e3 * (time.perf_counter() - start))
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            pair_ms.append(dct_pair_ms(grid, count))
            alpha_min = min(alpha_min, alpha)
    except etdac.StepFailure as exc:
        cell["error"] = f"step {exc.step_index}: {exc}"
        return cell
    cell.update(step_ms=statistics.median(step_ms), steps_ms=step_ms,
                dct_pair_ms=statistics.median(pair_ms), pairs_ms=pair_ms,
                step_pairs=statistics.median(m / p for m, p in zip(step_ms, pair_ms)),
                minflt_per_step=faults / STEPS, alpha_min=alpha_min)
    return cell


def time_grid(checkout: Path) -> list:
    sys.path.insert(0, str(checkout / "src"))
    import etdac

    cells = []
    for n in SIZES:
        for potential in POTENTIALS:
            for order in ORDERS:
                for rescaled in (False, True):
                    cell = time_cell(etdac, potential, order, rescaled, n)
                    print(json.dumps(cell), file=sys.stderr, flush=True)
                    cells.append(cell)
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json at the repo root")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout whose perfbench and src/etdac run (default: this one)")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("--label may hold letters, digits, '_', '.' and '-' only")
    checkout = args.checkout.resolve()
    if not (checkout / "perfbench" / "run.py").is_file() or not (checkout / "src" / "etdac").is_dir():
        parser.error(f"{checkout} holds no perfbench/run.py and src/etdac")

    report = {
        "label": args.label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": git(checkout, "rev-parse", "HEAD"),
        "src_differs_from_commit": bool(git(checkout, "status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_simd": numpy_simd(),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "grid_steps": STEPS,
        "perfbench": {},
    }
    for workload in WORKLOADS:
        report["perfbench"][workload] = {f"trace{trace}": perfbench(checkout, workload, trace) for trace in (0, 1)}
        print(f"{workload}: done", file=sys.stderr, flush=True)
    report["grid"] = time_grid(checkout)
    output = checkout / "test_output.txt"
    report["gate"] = gate_times(output.read_text()) if output.is_file() else None
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
